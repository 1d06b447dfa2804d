//! Multi-metric search: the same engine answering the same pattern under
//! weighted edit distance, DTW, LCSS(ε) and discrete Fréchet — the metric
//! is a per-query choice (`.metric(..)` on the builder), and one
//! `run_batch` call mixes them freely.
//!
//! ```sh
//! cargo run --release --example multi_metric
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{BatchOptions, EngineBuilder, Metric, Query};
use wed::models::Lev;

fn main() {
    // A synthetic city and a database of purposeful trips.
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    let store = TripConfig::default()
        .count(500)
        .lengths(20, 60)
        .seed(7)
        .generate(&net);

    // One engine, one index: the metric does not shape the index, only the
    // verification back half (and how much of the filter front half is
    // sound to reuse — see the README "Metrics" table).
    let engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();

    // A pattern copied from a stored trip, so matches exist everywhere.
    let q = store.get(3).path()[5..=20].to_vec();
    println!("pattern: {} vertices from trajectory 3\n", q.len());

    // A threshold request under each metric. τ means something different
    // per metric: edit cost (WED), summed coupling cost (DTW), unmatched
    // query symbols (LCSS) — and for Fréchet the *bottleneck* cost, which
    // does not add over the pattern, so its budget is per coupling step
    // (τ ≥ one substitution cost would match every window).
    let metrics = [
        (Metric::Wed, 3.0),
        (Metric::Dtw, 3.0),
        (Metric::Lcss { eps: 0.0 }, 3.0),
        (Metric::Frechet, 0.5),
    ];
    let workload: Vec<Query> = metrics
        .iter()
        .map(|&(metric, tau)| {
            Query::threshold(q.clone(), tau)
                .metric(metric)
                .build()
                .expect("valid query")
        })
        .collect();

    // All four metrics through one batch call — dispatch is per query.
    let batch = engine
        .run_batch(&workload, BatchOptions::with_threads(2))
        .expect("batch admitted");
    for (query, out) in workload.iter().zip(&batch.responses) {
        println!(
            "{:>8}: {:>3} matches, {:>4} candidates, verify_cost {:>6}{}",
            query.metric().name(),
            out.matches.len(),
            out.stats.candidates,
            out.stats.verify_cost,
            if out.stats.fallback {
                "  (exact fallback scan)"
            } else {
                ""
            }
        );
    }

    // The wire format carries the metric as one optional field; WED
    // queries encode without it, so pre-metrics JSON remains valid.
    let dtw_wire = workload[1].to_json();
    assert!(dtw_wire.contains("\"metric\""));
    assert!(!workload[0].to_json().contains("\"metric\""));
    println!("\nDTW on the wire: {dtw_wire}");
}
