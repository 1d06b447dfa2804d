//! Travel-time estimation along a query path (§6.2.1 of the paper, and the
//! motivating application of subtrajectory similarity search).
//!
//! When few historical trajectories traveled *exactly* the query path
//! (sparse data), averaging the travel times of *similar* subtrajectories
//! gives a usable estimate. This example plants a ground-truth path, finds
//! similar subtrajectories under SURS, and compares estimates.
//!
//! ```sh
//! cargo run --release --example travel_time_estimation
//! ```

use rnet::{CityParams, NetworkKind};
use std::collections::HashMap;
use std::sync::Arc;
use traj::edges::store_to_edges;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, Query};
use wed::models::Surs;
use wed::WedInstance;

fn main() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(11).generate());
    let store = TripConfig::default()
        .count(800)
        .lengths(20, 80)
        .seed(3)
        .generate(&net);
    // SURS works on the edge representation: road segments with lengths.
    let edge_store = store_to_edges(&net, &store);
    let surs = Surs::new(net.clone());
    let engine = EngineBuilder::new(&surs, &edge_store, net.num_edges()).build();

    // Query: a 15-edge stretch of a stored trip.
    let probe = edge_store.get(17);
    let q = probe.path()[2..=16].to_vec();
    let total_cost: f64 = q.iter().map(|&s| surs.lower_cost(s)).sum();

    // Exact matches (tau -> 0+): usually sparse.
    let exact = engine
        .run(
            &Query::threshold(q.clone(), 1e-9_f64.max(total_cost * 1e-6))
                .build()
                .expect("valid query"),
        )
        .expect("run");
    let mut exact_ids: Vec<u32> = exact.matches.iter().map(|m| m.id).collect();
    exact_ids.dedup();
    println!("exact matches: {} subtrajectories", exact.matches.len());

    // Similar matches: allow 10% of the query's road length to differ.
    let tau = 0.10 * total_cost;
    let out = engine
        .run(
            &Query::threshold(q.clone(), tau)
                .build()
                .expect("valid query"),
        )
        .expect("run");
    println!(
        "similar matches (tau = 10% of path length): {}",
        out.matches.len()
    );

    // Per-trajectory best match -> travel time sample.
    let mut best: HashMap<u32, (f64, usize, usize)> = HashMap::new();
    for m in &out.matches {
        let e = best.entry(m.id).or_insert((f64::INFINITY, 0, 0));
        if m.dist < e.0 {
            *e = (m.dist, m.start, m.end);
        }
    }
    let samples: Vec<f64> = best
        .iter()
        .map(|(&id, &(_, s, t))| {
            let traj = store.get(id); // vertex twin holds the timestamps
            let vt = (t + 1).min(traj.len() - 1);
            traj.travel_time(s, vt)
        })
        .collect();

    let avg = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    let truth = {
        let t = store.get(17);
        t.travel_time(2, 17.min(t.len() - 1))
    };
    println!(
        "\nestimated travel time: {avg:.1} s from {} samples",
        samples.len()
    );
    println!("ground-truth trip time: {truth:.1} s");
    println!(
        "relative error: {:.1}%",
        100.0 * (avg - truth).abs() / truth.max(1e-9)
    );
}
