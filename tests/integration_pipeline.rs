//! Whole-pipeline tests on city networks: vertex/edge representation
//! consistency, hub labels against Dijkstra, self-retrieval of stored
//! stretches, and every `repro` experiment at tiny scale.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rnet::dijkstra::{sssp, Mode};
use rnet::{CityParams, HubLabels, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_bench::data::{Dataset, FuncKind};
use trajsearch_core::{EngineBuilder, Query};
use wed::models::Lev;

/// Vertex- and edge-representation searches must agree: a vertex-space match
/// corresponds to an edge-space match of the same span (for exact matching
/// under unit costs).
#[test]
fn representation_consistency() {
    let d = Dataset::test_tiny();
    let lev = d.model(FuncKind::Lev);
    let vertex_engine = EngineBuilder::new(&*lev, &d.store, d.net.num_vertices()).build();
    let edge_engine = EngineBuilder::new(&*lev, &d.edge_store, d.net.num_edges()).build();

    for qv in d.sample_queries(FuncKind::Lev, 6, 5, 31) {
        let qe = d.net.path_to_edges(&qv).expect("query is a path");
        // Exact matches only (tau < 1 under unit costs).
        let vm = vertex_engine
            .run(&Query::threshold(qv.clone(), 0.5).build().unwrap())
            .unwrap();
        let em = edge_engine
            .run(&Query::threshold(qe.clone(), 0.5).build().unwrap())
            .unwrap();
        // Every edge-space exact occurrence implies the vertex-space one.
        for m in &em.matches {
            assert!(
                vm.matches
                    .iter()
                    .any(|v| v.id == m.id && v.start == m.start && v.end == m.end + 1),
                "edge match {:?} has no vertex twin",
                (m.id, m.start, m.end)
            );
        }
        // And conversely (vertex exact match of length n has n-1 edges).
        for v in &vm.matches {
            assert!(
                em.matches
                    .iter()
                    .any(|m| m.id == v.id && m.start == v.start && m.end + 1 == v.end),
                "vertex match {:?} has no edge twin",
                (v.id, v.start, v.end)
            );
        }
    }
}

/// Hub labels must agree with Dijkstra on city networks (not just grids).
#[test]
fn hub_labels_agree_with_dijkstra_on_city() {
    let net = CityParams::small(NetworkKind::City).seed(13).generate();
    let hl = HubLabels::build(&net);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..5 {
        let src = rng.gen_range(0..net.num_vertices() as u32);
        let d = sssp(&net, src, Mode::UndirectedLength);
        for _ in 0..50 {
            let v = rng.gen_range(0..net.num_vertices() as u32);
            let q = hl.query(src, v);
            assert!(
                (q - d[v as usize]).abs() < 1e-6,
                "hub {q} vs dijkstra {} for {src}->{v}",
                d[v as usize]
            );
        }
    }
}

/// Trip generation + engine: searching for a stretch of any stored trip
/// finds at least that trip itself, with distance 0 at the right position.
#[test]
fn self_retrieval_of_every_sampled_query() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(77).generate());
    let store = TripConfig::default()
        .count(100)
        .lengths(12, 40)
        .seed(3)
        .generate(&net);
    let engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();
    let mut rng = ChaCha8Rng::seed_from_u64(123);
    for _ in 0..20 {
        let id = rng.gen_range(0..store.len() as u32);
        let t = store.get(id);
        let s = rng.gen_range(0..t.len() - 8);
        let q = t.path()[s..=s + 7].to_vec();
        let out = engine
            .run(&Query::threshold(q.clone(), 1.0).build().unwrap())
            .unwrap();
        assert!(
            out.matches
                .iter()
                .any(|m| m.id == id && m.start == s && m.dist == 0.0),
            "self-match not found for trajectory {id} at {s}"
        );
    }
}

/// The `repro` binary's source, so the smoke test below walks the same
/// `EXPERIMENTS` table the CLI dispatches on (its `main` and argument
/// parser are unused here).
#[allow(dead_code)]
#[path = "../crates/bench/src/bin/repro.rs"]
mod repro;

/// Every experiment of the `repro` binary runs end to end at tiny scale, so
/// one that rots fails here rather than in `repro all`. `fig6` is skipped:
/// its 4 datasets × 6 functions × 8 methods × 3 τ-ratios grid takes ~30 s
/// even at this scale, and `fig7`/`fig8` drive the same `query_time` runner
/// over all 8 methods. One thread per experiment, named after it, so the
/// slowest runner bounds the test and a panic says which one died.
#[test]
fn experiment_harness_smoke() {
    let args = repro::Args {
        experiment: String::from("all"),
        scale: trajsearch_bench::data::Scale(0.01),
        queries: 2,
    };
    std::thread::scope(|scope| {
        for (name, _, run) in repro::EXPERIMENTS {
            if *name != "fig6" {
                std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn_scoped(scope, || run(&args))
                    .unwrap();
            }
        }
    });
}
