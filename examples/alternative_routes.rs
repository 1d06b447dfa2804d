//! Alternative-route suggestion (§6.2.2): find in the database variations
//! of a planned route between the same origin and destination, and rank
//! them by naturalness (how directly they head for the destination).
//!
//! ```sh
//! cargo run --release --example alternative_routes
//! ```

use rnet::dijkstra::{shortest_path, Mode};
use rnet::{CityParams, HubLabels, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, Query};
use wed::models::Lev;

fn main() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(23).generate());
    let hubs = HubLabels::build(&net);
    let store = TripConfig::default()
        .count(1_000)
        .lengths(20, 70)
        .seed(9)
        .generate(&net);
    let engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();

    // The planned route: like the paper, take a stretch a real trip
    // traveled, then re-plan it as a shortest path between its endpoints —
    // the database is likely to contain variations of popular stretches.
    let probe = store.get(7);
    let stretch = &probe.path()[2..=2 + 25.min(probe.len() - 3)];
    let (u, v) = (stretch[0], *stretch.last().unwrap());
    let (q, cost) = shortest_path(&net, u, v, Mode::DirectedLength).expect("connected network");
    println!(
        "planned route: {} vertices, {:.0} m from {u} to {v}",
        q.len(),
        cost
    );

    // Subtrajectories similar to the plan (up to 40% of hops edited).
    let tau = (0.4 * q.len() as f64).max(1.0);
    let out = engine
        .run(
            &Query::threshold(q.clone(), tau)
                .build()
                .expect("valid query"),
        )
        .expect("run");

    // Keep only true u->v routes and score their naturalness: the fraction
    // of hops that get strictly closer (network distance) to v than ever.
    let naturalness = |route: &[u32]| -> f64 {
        let mut closest = f64::INFINITY;
        let mut closer = 0usize;
        for (i, &p) in route.iter().enumerate() {
            let dist = hubs.query(p, v);
            if i > 0 && dist < closest {
                closer += 1;
            }
            closest = closest.min(dist);
        }
        closer as f64 / (route.len() - 1).max(1) as f64
    };

    let mut suggestions: Vec<(f64, f64, Vec<u32>)> = Vec::new();
    for m in &out.matches {
        let route = &store.get(m.id).path()[m.start..=m.end];
        if route.first() == Some(&u) && route.last() == Some(&v) {
            suggestions.push((naturalness(route), m.dist, route.to_vec()));
        }
    }
    suggestions.sort_by(|a, b| b.0.total_cmp(&a.0));
    suggestions.dedup_by(|a, b| a.2 == b.2);

    println!("\n{} alternative routes found:", suggestions.len());
    for (nat, dist, route) in suggestions.iter().take(8) {
        println!(
            "  naturalness {:.3}  edit distance {:>4.1}  {} vertices",
            nat,
            dist,
            route.len()
        );
    }
    if suggestions.is_empty() {
        println!("  (no stored trip happens to connect u to v — rerun with more trips)");
    }
}
