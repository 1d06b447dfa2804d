//! Quickstart: build a road network, generate trajectories, index them, and
//! answer subtrajectory similarity queries under two different WED
//! instances with the *same* engine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, Query};
use wed::models::{Edr, Lev};

fn main() {
    // 1. A synthetic city: jittered grid, one-way streets, removed blocks.
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    println!(
        "network: {} vertices, {} directed edges (avg out-degree {:.2})",
        net.num_vertices(),
        net.num_edges(),
        net.avg_out_degree()
    );

    // 2. A trajectory database of purposeful trips with timestamps.
    let store = TripConfig::default()
        .count(500)
        .lengths(20, 60)
        .seed(7)
        .generate(&net);
    let stats = store.stats();
    println!(
        "database: {} trajectories, avg length {:.1}",
        stats.num_trajectories, stats.avg_length
    );

    // 3. A query: a subtrajectory of one of the stored trips.
    let source = store.get(3);
    let q = source.path()[5..=24].to_vec();
    println!("query: {} vertices from trajectory 3", q.len());

    // 4. Search under Levenshtein distance: allow < 3 edits.
    let lev_engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();
    let query = Query::threshold(q.clone(), 3.0)
        .build()
        .expect("valid query");
    let out = lev_engine.run(&query).expect("run");
    println!(
        "\nLev, tau=3: {} matching subtrajectories in {} candidate checks",
        out.matches.len(),
        out.stats.candidates
    );
    for m in out.matches.iter().take(5) {
        println!(
            "  trajectory {:>4} [{:>3}..={:<3}]  wed = {}",
            m.id, m.start, m.end, m.dist
        );
    }

    // 5. Same engine, different similarity function: EDR with a 100 m
    //    matching tolerance. No algorithmic adaptation required.
    let edr = Edr::new(net.clone(), 100.0);
    let edr_engine = EngineBuilder::new(&edr, &store, net.num_vertices()).build();
    let out = edr_engine.run(&query).expect("run");
    println!(
        "\nEDR(eps=100m), tau=3: {} matches ({} candidates, {:.1}% of columns pruned)",
        out.matches.len(),
        out.stats.candidates,
        100.0 * (1.0 - out.stats.upr())
    );

    // 6. Every reported distance is exact.
    if let Some(m) = out.matches.first() {
        let p = store.get(m.id).path();
        let direct = wed::wed(&edr, &p[m.start..=m.end], &q);
        assert!((m.dist - direct).abs() < 1e-9);
        println!(
            "verified: reported distance {:.3} equals direct DP {:.3}",
            m.dist, direct
        );
    }
}
