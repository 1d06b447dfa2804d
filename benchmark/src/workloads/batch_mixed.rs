//! `batch_mixed` — `run_batch` on two threads over batches of 16 queries
//! that arrive as JSON text and leave as JSON text: WED threshold, WED
//! top-k, temporal (by-departure postings + TF), DTW and Fréchet, each
//! class about a fifth of a batch's engine time. Every other batch shares
//! tries across queries over the same base patterns. It drives the index
//! and verify layers the ways `inproc_wed` does not.

use super::{oracle_sample, report, Report};
use crate::data::{self, Dataset};
use crate::harness::{self, Cfg, Lane};
use crate::ledger;
use crate::metrics::Values;
use crate::oracle::{self, CELL_BUDGET};
use crate::spans::{self, Recorder};
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trajsearch_core::{
    BatchOptions, EngineBuilder, FilterPlan, IndexLayout, Metric, PostingSource, Query, Response,
    SearchEngine, SearchStats, TemporalConstraint, TimeInterval, TraceSink,
};
use wed::models::Erp;
use wed::{Sym, WedInstance};

pub const NAME: &str = "batch_mixed";

/// Batches per pass, each of `BATCH` queries.
const BATCHES: usize = 128;
const SMALL_BATCHES: usize = 4;
const THREADS: usize = 2;

/// Queries per class in a batch (16 in all) and their shapes. DTW and
/// Fréchet scan every candidate trajectory, ten times a WED query's cost,
/// so two of each weigh as much as four of the others. LCSS is left out:
/// it is scan-only and would hide the rest.
const THRESHOLD: (usize, usize, f64) = (4, 20, 0.3);
const TOP_K: (usize, usize) = (4, 20);
const TOP_K_K: usize = 5;
/// Top-k grows τ from this share of `Σ c(q)` by doubling, up to 8 times it.
const TOP_K_TAU0: f64 = 0.05;
const TOP_K_GROWTH: f64 = 8.0;
const TEMPORAL: (usize, usize, f64) = (4, 40, 0.3);
const DTW: (usize, usize, f64) = (2, 20, 0.05);
const FRECHET: (usize, usize) = (2, 20);
/// Fréchet's one-symbol filter needs a position with `c(q) ≥ τ`.
const FRECHET_TAU_SHARE: f64 = 0.9;
/// Temporal queries ask for matches overlapping a window this long.
const TEMPORAL_WINDOW_S: f64 = 4.0 * 3600.0;
const DAY_S: f64 = 86_400.0;

const DECODE: &str = "core.json.query_decode";
const RUN_BATCH: &str = "core.batch.run_batch";
const ENCODE: &str = "core.json.response_encode";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Threshold,
    TopK,
    Temporal,
    Dtw,
    Frechet,
}

struct Batch {
    /// The queries as they arrive: JSON text.
    texts: Vec<String>,
    queries: Vec<Query>,
    classes: Vec<Class>,
    share_tries: bool,
}

impl Batch {
    fn options(&self) -> BatchOptions {
        BatchOptions::with_threads(THREADS).share_tries(self.share_tries)
    }
}

type Engine<'a> = SearchEngine<'a, &'a Erp, trajsearch_core::AnyIndex>;

struct Caller<'a> {
    engine: &'a Engine<'a>,
    batches: &'a [Batch],
    /// Engine time and wall time `run_batch` reported, summed.
    engine_time: Duration,
    wall_time: Duration,
}

impl Lane for Caller<'_> {
    fn exec(&mut self, op: usize, mut rec: Option<&mut Recorder>) -> Result<Vec<Response>, String> {
        let batch = &self.batches[op];
        let mut queries = Vec::with_capacity(batch.texts.len());
        for text in &batch.texts {
            let query = spans::in_span(&mut rec, DECODE, || Query::from_json(text));
            queries.push(query.map_err(|e| e.to_string())?);
        }
        let out = spans::in_span(&mut rec, RUN_BATCH, || {
            self.engine.run_batch(&queries, batch.options())
        })
        .map_err(|e| e.to_string())?;
        for response in &out.responses {
            spans::in_span(&mut rec, ENCODE, || black_box(response.to_json()));
        }
        self.engine_time += out.stats.cpu_time;
        self.wall_time += out.stats.wall_time;
        Ok(out.responses)
    }
}

fn build_batch(ds: &Dataset, model: &Erp, b: usize, rng: &mut impl Rng) -> Batch {
    let share_tries = b % 2 == 1;
    let salt = 0x2000 + 8 * b as u64;
    let tau = |q: &[Sym], ratio: f64| data::tau_for(model, q, ratio);
    let mut queries: Vec<(Class, Query)> = Vec::new();
    let mut push = |class, builder: trajsearch_core::QueryBuilder| {
        queries.push((class, builder.build().expect("benchmark queries are valid")));
    };

    // In a sharing batch the threshold and top-k patterns are prefixes of
    // the temporal ones, so their tries meet in the batch's cache.
    let long = ds.sample_patterns(TEMPORAL.1, TEMPORAL.0, salt);
    let (short_t, short_k) = if share_tries {
        let prefix = |n: usize| long.iter().map(|q| q[..n].to_vec()).collect::<Vec<_>>();
        (prefix(THRESHOLD.1), prefix(TOP_K.1))
    } else {
        (
            ds.sample_patterns(THRESHOLD.1, THRESHOLD.0, salt + 1),
            ds.sample_patterns(TOP_K.1, TOP_K.0, salt + 2),
        )
    };
    for q in short_t {
        let t = tau(&q, THRESHOLD.2);
        push(Class::Threshold, Query::threshold(q, t));
    }
    for q in short_k {
        let t = tau(&q, TOP_K_TAU0);
        push(Class::TopK, Query::top_k(q, TOP_K_K, t, TOP_K_GROWTH * t));
    }
    for q in long {
        let t = tau(&q, TEMPORAL.2);
        let from = rng.gen_range(0.0..DAY_S - TEMPORAL_WINDOW_S);
        let window = TimeInterval::new(from, from + TEMPORAL_WINDOW_S);
        push(
            Class::Temporal,
            Query::threshold(q, t)
                .temporal(TemporalConstraint::overlaps(window))
                .temporal_filter(true)
                .temporal_postings(true),
        );
    }
    for q in ds.sample_patterns(DTW.1, DTW.0, salt + 3) {
        let t = tau(&q, DTW.2);
        push(Class::Dtw, Query::threshold(q, t).metric(Metric::Dtw));
    }
    for q in ds.sample_patterns(FRECHET.1, FRECHET.0, salt + 4) {
        let max_c = q.iter().map(|&s| model.lower_cost(s)).fold(0.0, f64::max);
        push(
            Class::Frechet,
            Query::threshold(q, FRECHET_TAU_SHARE * max_c).metric(Metric::Frechet),
        );
    }

    // Arrival order is mixed, as a caller's batch would be.
    data::shuffle(&mut queries, rng);
    Batch {
        texts: queries.iter().map(|(_, q)| q.to_json()).collect(),
        classes: queries.iter().map(|&(c, _)| c).collect(),
        queries: queries.into_iter().map(|(_, q)| q).collect(),
        share_tries,
    }
}

/// The per-layer metrics only this workload measures: each query class on
/// its own, and what batching adds.
fn class_layers(
    engine: &Engine<'_>,
    batches: &[Batch],
    reference: &[Vec<Response>],
    caller: &Caller<'_>,
    rec: &mut Recorder,
    layers: &mut Values,
) {
    let of = |class: Class| {
        batches.iter().zip(reference).flat_map(move |(b, answers)| {
            b.queries
                .iter()
                .zip(&b.classes)
                .zip(answers)
                .filter(move |((_, &c), _)| c == class)
                .map(|((q, _), r)| (q, r))
        })
    };
    let merged = |class: Class| {
        let mut stats = SearchStats::default();
        of(class).for_each(|(_, r)| stats.merge(&r.stats));
        stats
    };
    // Each class's queries run singly, one span each.
    let mut single_ms = |class: Class, name: &'static str| {
        let t = Instant::now();
        let mut n = 0u32;
        for (query, _) in of(class) {
            rec.span(name, |_| {
                black_box(engine.run(query).expect("ran in the warm-up pass"))
            });
            n += 1;
        }
        t.elapsed().as_secs_f64() * 1e3 / n.max(1) as f64
    };
    layers.set(
        "core.topk.ms_per_op",
        single_ms(Class::TopK, "core.topk.run"),
    );
    layers.set(
        "core.temporal.ms_per_op",
        single_ms(Class::Temporal, "core.temporal.run"),
    );
    layers.set(
        "core.metric.dtw_ms_per_op",
        single_ms(Class::Dtw, "core.metric.dtw.run"),
    );
    layers.set(
        "core.metric.frechet_ms_per_op",
        single_ms(Class::Frechet, "core.metric.frechet.run"),
    );

    // Growth rounds per top-k query, counted from the engine's own
    // `topk_round` spans.
    let sink = Arc::new(TraceSink::new(64));
    let (mut rounds, mut topk) = (0usize, 0usize);
    for (query, _) in of(Class::TopK) {
        let id = sink.next_trace_id();
        black_box(
            engine
                .run_traced(query, sink.tracer(id))
                .expect("ran in the warm-up pass"),
        );
        rounds += sink
            .spans_for(id)
            .iter()
            .filter(|s| s.name == "topk_round")
            .count();
        topk += 1;
    }
    layers.set(
        "core.topk.rounds_per_op",
        rounds as f64 / topk.max(1) as f64,
    );

    // The share of a temporal query's postings its constraint keeps out of
    // verification: candidates read against the plan's unconstrained count.
    let unconstrained: usize = of(Class::Temporal)
        .map(|(q, _)| {
            let trajsearch_core::Objective::Threshold { tau } = q.objective() else {
                unreachable!("temporal queries are threshold queries")
            };
            FilterPlan::build(engine.model(), engine.index(), q.pattern(), tau)
                .predicted_candidates(engine.index())
        })
        .sum();
    layers.set(
        "core.temporal.tf_prune_ratio",
        1.0 - merged(Class::Temporal).candidates_after_temporal as f64
            / unconstrained.max(1) as f64,
    );
    layers.set(
        "core.metric.dtw_verify_cost",
        merged(Class::Dtw).verify_cost as f64,
    );
    layers.set(
        "core.metric.frechet_verify_cost",
        merged(Class::Frechet).verify_cost as f64,
    );

    layers.set(
        "core.batch.cpu_over_wall",
        caller.engine_time.as_secs_f64() / caller.wall_time.as_secs_f64().max(1e-9),
    );
    // Sharing batches: how often a trie was already in the batch's cache,
    // and the DP columns that saved against the same batch unshared.
    let (mut hits, mut misses, mut shared_dp, mut private_dp) = (0u64, 0u64, 0u64, 0u64);
    for (batch, answers) in batches.iter().zip(reference).filter(|(b, _)| b.share_tries) {
        for r in answers {
            hits += r.stats.trie_cache_hits;
            misses += r.stats.trie_cache_misses;
            shared_dp += r.stats.stepdp_calls;
        }
        let private = engine
            .run_batch(&batch.queries, batch.options().share_tries(false))
            .expect("the batch ran in the warm-up pass");
        private_dp += private.stats.merged.stepdp_calls;
    }
    layers.set(
        "core.batch.trie_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set(
        "core.batch.stepdp_saved_ratio",
        1.0 - shared_dp as f64 / private_dp.max(1) as f64,
    );
}

pub fn run(ds: &Dataset, cfg: &Cfg) -> Report {
    let model = ds.erp();
    let mut rng = data::rng(ds.seed, 0x2FFF);
    let batches: Vec<Batch> = (0..cfg.ops(BATCHES, SMALL_BATCHES))
        .map(|b| build_batch(ds, &model, b, &mut rng))
        .collect();

    let engine: Engine<'_> = EngineBuilder::new(&model, &ds.store, ds.alphabet)
        .layout(IndexLayout::Single)
        .temporal_postings(true)
        .build();
    let index_bytes = engine.index().size_bytes();

    let mut caller = Caller {
        engine: &engine,
        batches: &batches,
        engine_time: Duration::ZERO,
        wall_time: Duration::ZERO,
    };
    let m = harness::measure(&mut [&mut caller], batches.len(), cfg);

    let cases: Vec<(&Query, &Response)> = batches
        .iter()
        .zip(&m.reference)
        .flat_map(|(b, answers)| b.queries.iter().zip(answers))
        .collect();
    let mut verdict = oracle_sample(ds, cases.iter().map(|&(q, _)| q), |i, rng| {
        oracle::check(&model, ds, CELL_BUDGET, cases[i].0, cases[i].1, rng)
    });

    let mut layers = Values::default();
    let mut probes = Vec::new();
    ledger::counters(cases.iter().map(|&(_, r)| r), &mut layers);
    if cfg.traced {
        let (mut rec, decomposed) =
            ledger::engine_probe(&engine, cases.iter().copied(), THREADS, &mut layers);
        verdict.result = verdict.result.and(decomposed);
        class_layers(
            &engine,
            &batches,
            &m.reference,
            &caller,
            &mut rec,
            &mut layers,
        );
        probes.push(rec);
    }
    report(NAME, cfg, m, 1, index_bytes, verdict, layers, probes)
}
