//! Batch throughput: answer a whole *mixed* workload with the unified batch
//! engine and compare queries/sec across worker-thread counts.
//!
//! `SearchEngine::run_batch` fans whole queries out across scoped threads
//! (each worker keeps its own DP-trie caches), so results are identical to
//! running the queries one by one — this example asserts that, then prints
//! the throughput curve. Because every `Query` is self-contained, one batch
//! freely mixes threshold and top-k objectives. Expect the speedup to
//! flatten at the host's core count.
//!
//! ```sh
//! cargo run --release --example batch_throughput
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{EngineBuilder, Query};
use wed::models::Edr;

fn main() {
    // A synthetic city and a trajectory database of purposeful trips.
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    let store = TripConfig::default()
        .count(800)
        .lengths(30, 80)
        .seed(7)
        .generate(&net);
    println!(
        "database: {} trajectories on {} vertices; host has {} cpu(s)",
        store.len(),
        net.num_vertices(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // EDR with a 100 m matching threshold; a mixed workload of 32 queries
    // cut from stored trips: two in three are thresholds with ~10% edit
    // budget, every third asks for the top-5 trajectories instead.
    let model = Edr::new(net.clone(), 100.0);
    let engine = EngineBuilder::new(&model, &store, net.num_vertices()).build();
    let workload: Vec<Query> = (0..32)
        .map(|i| {
            let t = store.get((i * 13) % store.len() as u32);
            let len = t.len().min(40);
            let q = t.path()[0..=len - 1].to_vec();
            let tau = (0.1 * len as f64).max(1.0);
            if i % 3 == 2 {
                Query::top_k(q, 5, tau, 4.0 * tau).build().expect("valid")
            } else {
                Query::threshold(q, tau).build().expect("valid")
            }
        })
        .collect();

    // Sequential reference (1 worker) — every parallel run must match it.
    let reference = engine
        .run_batch(&workload, BatchOptions::with_threads(1))
        .expect("workload admitted");
    println!(
        "workload: {} queries (threshold + top-k mixed), {} total matches\n",
        reference.stats.queries, reference.stats.merged.results
    );

    println!("threads  wall ms    cpu ms     q/s    speedup");
    let base_qps = reference.stats.queries_per_sec();
    for threads in [1, 2, 4, 8] {
        let out = engine
            .run_batch(&workload, BatchOptions::with_threads(threads))
            .expect("workload admitted");
        for (got, want) in out.responses.iter().zip(&reference.responses) {
            assert_eq!(got.matches, want.matches, "parallel run diverged");
        }
        println!(
            "{:>7}  {:>8.2}  {:>8.2}  {:>6.1}  {:>6.2}x",
            out.stats.threads,
            out.stats.wall_time.as_secs_f64() * 1e3,
            out.stats.cpu_time.as_secs_f64() * 1e3,
            out.stats.queries_per_sec(),
            out.stats.queries_per_sec() / base_qps.max(f64::MIN_POSITIVE),
        );
    }
    println!("\nall thread counts returned identical results");
}
