//! Sharded index construction: build the same postings index at several
//! shard counts, verify the search results are byte-identical, and print
//! the build-time curve.
//!
//! `ShardedIndex` partitions postings by `traj_id % num_shards`, so each
//! shard is built by its own scoped worker. The layout is invisible to
//! search — this example asserts that by comparing every result against the
//! default single-list engine.
//!
//! ```sh
//! cargo run --release --example sharded_build
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use std::time::Instant;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, IndexLayout, PostingSource, Query};
use wed::models::Edr;
use wed::Sym;

fn main() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    let store = TripConfig::default()
        .count(800)
        .lengths(30, 80)
        .seed(7)
        .generate(&net);
    let edr = Edr::new(net.clone(), 150.0);
    let alphabet = net.num_vertices();
    println!(
        "database: {} trajectories on {} vertices; host has {} cpu(s)",
        store.len(),
        alphabet,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Reference: the paper's single-list index.
    let reference = EngineBuilder::new(&edr, &store, alphabet).build();
    let q: Vec<Sym> = store.get(3).path()[5..25].to_vec();
    let query = Query::threshold(q.clone(), 4.0).build().expect("valid");
    let want = reference.run(&query).expect("run");
    println!(
        "query |Q|={} tau=4: {} matches via the single-list index",
        q.len(),
        want.matches.len()
    );

    // The same store at several shard counts: identical results, parallel
    // construction.
    for shards in [1, 2, 4, 8] {
        let t0 = Instant::now();
        let engine = EngineBuilder::new(&edr, &store, alphabet)
            .layout(IndexLayout::Sharded(shards))
            .build();
        let built = t0.elapsed();
        let got = engine.run(&query).expect("run");
        assert_eq!(
            got.matches, want.matches,
            "sharding must not change results"
        );
        println!(
            "  {shards} shard(s): built {} postings in {built:.2?} — results identical",
            engine.index().total_postings(),
        );
    }
}
