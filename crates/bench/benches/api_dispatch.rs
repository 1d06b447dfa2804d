//! What it costs to reach the engine through the `Query` surface.
//!
//! Three variants bracket one identical workload, from the cheapest way in
//! to the dearest:
//!
//! * `run_prebuilt` — `run` with queries built once outside the loop (what
//!   a serving layer holding decoded wire queries does): the search alone;
//! * `run_with_build` — `Query` construction + validation + `run` per call:
//!   adds the builder;
//! * `wire_decode` — a full JSON `from_json` per call, then `run`: adds the
//!   wire format, i.e. the serving path itself.
//!
//! The first two must land within noise of each other: validation is a
//! handful of float/len checks and the dispatch is a monomorphized match.
//! The gap to the third is the price of JSON decoding per query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trajsearch_bench::data::{Dataset, FuncKind, Scale};
use trajsearch_core::{EngineBuilder, Query};

fn bench(c: &mut Criterion) {
    let d = Dataset::load("beijing", Scale::tiny());
    let func = FuncKind::Edr;
    let model = d.model(func);
    let (store, alphabet) = d.store_for(func);
    let engine = EngineBuilder::new(&*model, store, alphabet).build();

    let workload: Vec<(Vec<wed::Sym>, f64)> = d
        .sample_queries(func, 30, 8, 3)
        .into_iter()
        .map(|q| {
            let tau = d.tau_for(&*model, &q, 0.1);
            (q, tau)
        })
        .collect();
    let prebuilt: Vec<Query> = workload
        .iter()
        .map(|(q, tau)| Query::threshold(q.clone(), *tau).build().expect("valid"))
        .collect();
    let wire: Vec<String> = prebuilt.iter().map(|q| q.to_json()).collect();

    let mut g = c.benchmark_group("api_dispatch");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::from("run_prebuilt"), &prebuilt, |b, qs| {
        b.iter(|| {
            for q in qs {
                std::hint::black_box(engine.run(q).expect("run"));
            }
        })
    });
    g.bench_with_input(BenchmarkId::from("run_with_build"), &workload, |b, wl| {
        b.iter(|| {
            for (q, tau) in wl {
                let query = Query::threshold(q.clone(), *tau).build().expect("valid");
                std::hint::black_box(engine.run(&query).expect("run"));
            }
        })
    });
    g.bench_with_input(BenchmarkId::from("wire_decode"), &wire, |b, wire| {
        b.iter(|| {
            for text in wire {
                let query = Query::from_json(text).expect("wire");
                std::hint::black_box(engine.run(&query).expect("run"));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
