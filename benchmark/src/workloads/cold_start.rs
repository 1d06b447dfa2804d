//! `cold_start` — one operation is a checkpoint-and-restart cycle on a
//! temporal engine: `Snapshot::write` to a scratch file, `Snapshot::open`,
//! `into_parts`, `EngineBuilder::build_with`, then eight fixed first
//! queries. Snapshot encode, decode and validation do nearly all the work
//! and verification almost none; a faster open bought with a slower write
//! shows in the same number. The file stays in the page cache, so the
//! latency is the sandbox's, not a device's.

use super::{oracle_sample, report, Report};
use crate::data::{self, Dataset};
use crate::harness::{self, median, Cfg, Lane};
use crate::ledger;
use crate::metrics::Values;
use crate::oracle::{self, CELL_BUDGET};
use crate::spans::{self, Recorder};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trajsearch_core::{
    EngineBuilder, InvertedIndex, PostingSource, Query, Response, TemporalConstraint, TimeInterval,
};
use trajsearch_persist::Snapshot;
use wed::models::Edr;

pub const NAME: &str = "cold_start";

/// Cycles per pass, 0.14–0.2 s each here: ten, so that a pass has a 90th
/// percentile of its own.
const CYCLES: usize = 10;

/// The first queries after a restart: four thresholds, two temporal, two
/// top-5, all at |Q| = 20 and τ-ratio 0.1. They are light on purpose: at
/// τ-ratio 0.2 with top-k growing τ eightfold, one seed in ten drew a query
/// that cost half a cycle, in the workload that measures the storage layer.
const QUERY_LEN: usize = 20;
const TAU_RATIO: f64 = 0.1;
const TOP_K_K: usize = 5;
const TOP_K_GROWTH: f64 = 4.0;
const TEMPORAL_WINDOW: (f64, f64) = (8.0 * 3600.0, 12.0 * 3600.0);
/// Repetitions of the probes that are not part of a cycle.
const PROBE_REPS: usize = 3;

const WRITE: &str = "persist.snapshot.write";
const OPEN: &str = "persist.snapshot.open";
const INTO_PARTS: &str = "persist.snapshot.into_parts";
const BUILD_WITH: &str = "core.engine.build_with";
const FIRST_QUERY: &str = "persist.first_query";
const LATER_QUERIES: &str = "core.run";

struct Restarter<'a> {
    ds: &'a Dataset,
    model: &'a Edr,
    index: &'a InvertedIndex,
    queries: &'a [Query],
    path: &'a Path,
    file_bytes: usize,
}

impl Lane for Restarter<'_> {
    fn exec(
        &mut self,
        _op: usize,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Vec<Response>, String> {
        let info = spans::in_span(&mut rec, WRITE, || {
            Snapshot::write(self.path, &self.ds.store, self.index)
        })
        .map_err(|e| e.to_string())?;
        self.file_bytes = info.file_bytes;
        let snapshot = spans::in_span(&mut rec, OPEN, || Snapshot::open(self.path))
            .map_err(|e| e.to_string())?;
        let (store, index) = spans::in_span(&mut rec, INTO_PARTS, || snapshot.into_parts());
        let engine = spans::in_span(&mut rec, BUILD_WITH, || {
            EngineBuilder::new(self.model, &store, self.ds.alphabet).build_with(index)
        });
        let mut answers = Vec::with_capacity(self.queries.len());
        let (first, later) = self.queries.split_first().expect("eight first queries");
        answers.push(
            spans::in_span(&mut rec, FIRST_QUERY, || engine.run(first))
                .map_err(|e| e.to_string())?,
        );
        spans::in_span(&mut rec, LATER_QUERIES, || {
            for query in later {
                answers.push(engine.run(query).map_err(|e| e.to_string())?);
            }
            Ok::<(), String>(())
        })?;
        Ok(answers)
    }
}

fn build_queries(ds: &Dataset, model: &Edr) -> Vec<Query> {
    let window = TimeInterval::new(TEMPORAL_WINDOW.0, TEMPORAL_WINDOW.1);
    ds.sample_patterns(QUERY_LEN, 8, 0x5001)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let tau = data::tau_for(model, &q, TAU_RATIO);
            match i {
                0..=3 => Query::threshold(q, tau),
                4 | 5 => Query::threshold(q, tau)
                    .temporal(TemporalConstraint::overlaps(window))
                    .temporal_filter(true)
                    .temporal_postings(true),
                _ => Query::top_k(q, TOP_K_K, tau, TOP_K_GROWTH * tau),
            }
            .build()
            .expect("benchmark queries are valid")
        })
        .collect()
}

pub fn run(ds: &Dataset, cfg: &Cfg) -> Report {
    let model = ds.edr();
    let queries = build_queries(ds, &model);
    let mut index = InvertedIndex::build(&ds.store, ds.alphabet);
    index.enable_temporal_postings();

    // The scratch file lives under the benchmark's own `out/` directory.
    std::fs::create_dir_all(crate::out_dir()).expect("create the benchmark's out/ directory");
    let path: PathBuf = crate::out_dir().join(format!(
        "cold_start-{}-{}.snap",
        std::process::id(),
        ds.seed
    ));
    let mut restarter = Restarter {
        ds,
        model: &model,
        index: &index,
        queries: &queries,
        path: &path,
        file_bytes: 0,
    };
    let m = harness::measure(&mut [&mut restarter], cfg.ops(CYCLES, 1), cfg);
    let file_bytes = restarter.file_bytes;

    let cases = || queries.iter().zip(&m.reference[0]);
    let mut verdict = oracle_sample(ds, queries.iter(), |i, rng| {
        let (query, response) = (&queries[i], &m.reference[0][i]);
        oracle::check(&model, ds, CELL_BUDGET, query, response, rng)
    });

    let mut layers = Values::default();
    let mut probes = Vec::new();
    ledger::counters(m.reference[0].iter(), &mut layers);
    if cfg.traced {
        let ms = |name: &str| spans::mean_us(&m.recorders, name) / 1e3;
        layers.set("persist.write_ms", ms(WRITE));
        layers.set("persist.open_ms", ms(OPEN));
        layers.set("persist.first_query_ms", ms(FIRST_QUERY));

        // Validation and decode without the read: the bytes are in memory.
        let bytes = std::fs::read(&path).expect("the last cycle left its snapshot");
        let decode_ms: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(
                    Snapshot::decode(black_box(&bytes)).expect("the cycles opened this snapshot"),
                );
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.set("persist.decode_ms", median(&decode_ms));
        // What a restart without a snapshot pays instead of an open.
        let rebuild_ms: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                let mut rebuilt = InvertedIndex::build(&ds.store, ds.alphabet);
                rebuilt.enable_temporal_postings();
                black_box(rebuilt);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.set("persist.rebuild_ms", median(&rebuild_ms));
        layers.set("persist.open_over_rebuild", ms(OPEN) / median(&rebuild_ms));
        let postings = ds.postings.max(1) as f64;
        layers.set(
            "persist.file_bytes_per_posting",
            file_bytes as f64 / postings,
        );

        let (store, compact) = Snapshot::decode(&bytes)
            .expect("the snapshot the cycles opened decodes")
            .into_parts();
        layers.set(
            "persist.compact_bytes_per_posting",
            compact.size_bytes() as f64 / postings,
        );
        let reopened = EngineBuilder::new(&model, &store, ds.alphabet).build_with(compact);
        let (rec, decomposed) = ledger::engine_probe(&reopened, cases(), 1, &mut layers);
        verdict.result = verdict.result.and(decomposed);
        probes.push(rec);
    }
    std::fs::remove_file(&path).ok();
    report(NAME, cfg, m, 1, file_bytes, verdict, layers, probes)
}
