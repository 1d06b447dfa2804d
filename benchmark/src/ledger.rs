//! The engine layers seen from outside: a query answered by the engine's
//! own sequence of public calls with a span around each, the counters the
//! answers carry, and timing probes for the calls a workload's operations
//! do not make on their own.

use crate::metrics::Values;
use crate::spans::{self, Recorder};
use std::hint::black_box;
use std::time::Instant;
use trajsearch_core::verify::verify_candidates;
use trajsearch_core::{
    FilterPlan, Objective, PostingSource, Query, Response, SearchEngine, SearchStats, VerifyMode,
};
use wed::{Sym, WedInstance};

pub const PLAN: &str = "core.filter.plan";
pub const LOOKUP: &str = "core.index.lookup";
pub const VERIFY: &str = "core.verify";
const FALLBACK: &str = "core.fallback_scan";

/// True for the queries [`decomposed`] can answer: WED threshold search
/// without a temporal constraint, verified by tries.
pub fn is_plain_wed(query: &Query) -> bool {
    matches!(query.objective(), Objective::Threshold { .. })
        && query.metric().is_wed()
        && query.temporal().is_none()
        && query.verify_mode() == VerifyMode::Trie
}

/// Answers a plain WED threshold query as `SearchEngine::run` does — plan,
/// postings lookup, verification — through the public function of each
/// layer, one span per call. The harness compares the matches with the
/// warm-up pass's, which came from `run`.
pub fn decomposed<M: WedInstance + Sync, I: PostingSource + Sync>(
    engine: &SearchEngine<'_, M, I>,
    query: &Query,
    rec: &mut Recorder,
) -> Result<Response, String> {
    let Objective::Threshold { tau } = query.objective() else {
        return Err("only threshold queries decompose".into());
    };
    let (model, index, q) = (engine.model(), engine.index(), query.pattern());
    let plan = rec.span(PLAN, |_| FilterPlan::build(model, index, q, tau));
    if !plan.feasible {
        // No τ-subsequence: the engine scans; nothing to decompose.
        return rec
            .span(FALLBACK, |_| engine.run(query))
            .map_err(|e| e.to_string());
    }
    let candidates = rec.span(LOOKUP, |_| plan.candidates(index));
    let mut stats = SearchStats {
        tsubseq_len: plan.chosen.len(),
        ..SearchStats::default()
    };
    let matches = rec.span(VERIFY, |_| {
        verify_candidates(
            model,
            engine.store(),
            |id| index.span(id),
            q,
            tau,
            &candidates,
            VerifyMode::Trie,
            None,
            false,
            &mut stats,
        )
    });
    Ok(Response { matches, stats })
}

/// The engine layers of a workload whose operations reach the engine
/// through another layer: one decomposed pass over its plain WED queries
/// on `engine` (spans under lane `lane`), and the wire cost of all its
/// queries and answers. Returns the spans and whether every decomposed
/// answer equalled the reference.
pub fn engine_probe<'q, M: WedInstance + Sync, I: PostingSource + Sync>(
    engine: &SearchEngine<'_, M, I>,
    cases: impl Iterator<Item = (&'q Query, &'q Response)> + Clone,
    lane: usize,
    layers: &mut Values,
) -> (Recorder, Result<(), String>) {
    let mut rec = Recorder::new(Instant::now(), lane);
    let mut verdict = Ok(());
    for (i, (query, want)) in cases.clone().filter(|(q, _)| is_plain_wed(q)).enumerate() {
        rec.set_op(i as u64);
        match rec.span(spans::OP, |rec| decomposed(engine, query, rec)) {
            Ok(got) if got.matches == want.matches => {}
            Ok(_) => verdict = Err(format!("decomposed query {i} differs from run()")),
            Err(e) => verdict = Err(e),
        }
        if verdict.is_err() {
            break;
        }
    }
    timings(std::slice::from_ref(&rec), layers);
    json_probe(cases, layers);
    (rec, verdict)
}

/// Span timings of the decomposed calls.
pub fn timings(recorders: &[Recorder], layers: &mut Values) {
    layers.set("core.filter.plan_us", spans::mean_us(recorders, PLAN));
    layers.set("core.index.lookup_us", spans::mean_us(recorders, LOOKUP));
    layers.set(
        "core.verify.ms_per_op",
        spans::mean_us(recorders, VERIFY) / 1e3,
    );
}

/// The counters one pass's answers carry, summed: exact for a seed.
pub fn counters<'r>(answers: impl Iterator<Item = &'r Response>, layers: &mut Values) {
    let mut merged = SearchStats::default();
    let (mut n, mut fallbacks) = (0u64, 0u64);
    for r in answers {
        merged.merge(&r.stats);
        n += 1;
        fallbacks += r.stats.fallback as u64;
    }
    layers.set("core.filter.tsubseq_len", merged.tsubseq_len as f64);
    layers.set("core.filter.candidates", merged.candidates as f64);
    layers.set(
        "core.filter.fallback_ratio",
        fallbacks as f64 / n.max(1) as f64,
    );
    layers.set("core.verify.stepdp_calls", merged.stepdp_calls as f64);
    layers.set("core.verify.columns_passed", merged.columns_passed as f64);
    layers.set("core.verify.verify_cost", merged.verify_cost as f64);
    layers.set("core.verify.upr", merged.upr());
    layers.set("core.verify.cmr", merged.cmr());
    layers.set("core.verify.tur", merged.tur());
    layers.set(
        "core.verify.results_per_candidate",
        merged.results as f64 / merged.candidates_deduped.max(1) as f64,
    );
}

/// Wire-format cost of a workload's queries and answers: decode each
/// query's JSON text, encode each response.
pub fn json_probe<'q>(cases: impl Iterator<Item = (&'q Query, &'q Response)>, layers: &mut Values) {
    let (mut decode_ns, mut encode_ns, mut bytes, mut n) = (0u128, 0u128, 0usize, 0u32);
    for (query, response) in cases {
        let text = query.to_json();
        let t = Instant::now();
        black_box(Query::from_json(black_box(&text)).expect("a query decodes its own JSON"));
        decode_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let wire = black_box(response).to_json();
        encode_ns += t.elapsed().as_nanos();
        bytes += wire.len();
        n += 1;
    }
    let n = n.max(1) as f64;
    layers.set("core.json.query_decode_us", decode_ns as f64 / n / 1e3);
    layers.set("core.json.response_encode_us", encode_ns as f64 / n / 1e3);
    layers.set("core.json.response_bytes", bytes as f64);
}

/// The DP kernel and the neighbourhood call on their own, over `patterns`:
/// every pattern is swept against itself column by column.
pub fn wed_probe<M: WedInstance>(model: &M, patterns: &[Vec<Sym>], layers: &mut Values) {
    let (mut cells, mut dp_ns) = (0u64, 0u128);
    let (mut calls, mut nb_ns) = (0u64, 0u128);
    for q in patterns {
        let mut a = Vec::new();
        wed::dp::initial_column_into(model, q, &mut a);
        let mut b = vec![0.0; a.len()];
        let t = Instant::now();
        for &p in q {
            black_box(wed::dp::step_dp_into(model, q, p, &a, &mut b));
            std::mem::swap(&mut a, &mut b);
        }
        dp_ns += t.elapsed().as_nanos();
        cells += (q.len() * q.len()) as u64;

        let t = Instant::now();
        for &s in q {
            black_box(model.neighbors(black_box(s)));
        }
        nb_ns += t.elapsed().as_nanos();
        calls += q.len() as u64;
    }
    layers.set(
        "wed.step_dp.ns_per_cell",
        dp_ns as f64 / cells.max(1) as f64,
    );
    layers.set(
        "wed.neighbors.us_per_call",
        nb_ns as f64 / calls.max(1) as f64 / 1e3,
    );
}

/// Index construction and raw postings iteration, per layout, on the
/// benchmark's store: medians of `REPS` repetitions.
pub fn index_probe(ds: &crate::data::Dataset, layers: &mut Values) {
    use crate::harness::median;
    use trajsearch_core::{InvertedIndex, ShardedIndex};
    const REPS: usize = 5;
    const SHARDS: usize = 2;

    let ms = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    };
    let single_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            ms(&mut || {
                black_box(InvertedIndex::build(&ds.store, ds.alphabet));
            })
        })
        .collect();
    let sharded_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            ms(&mut || {
                black_box(ShardedIndex::build_parallel(&ds.store, ds.alphabet, SHARDS));
            })
        })
        .collect();
    layers.set("core.index.build_ms", median(&single_ms));
    layers.set("core.sharded.build_ms", median(&sharded_ms));

    let single = InvertedIndex::build(&ds.store, ds.alphabet);
    let compact = single.to_compact();
    layers.set(
        "core.index.bytes_per_posting",
        single.size_bytes() as f64 / single.total_postings().max(1) as f64,
    );
    layers.set(
        "core.index.lookup_ns_per_posting",
        scan_ns_per_posting(&single, REPS),
    );
    layers.set(
        "core.compact.lookup_ns_per_posting",
        scan_ns_per_posting(&compact, REPS),
    );
}

/// Median over `reps` full sweeps of every postings list of `index`.
fn scan_ns_per_posting<I: PostingSource>(index: &I, reps: usize) -> f64 {
    let sweeps: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut seen = 0usize;
            for q in 0..index.alphabet_size() as Sym {
                for posting in index.postings(q) {
                    black_box(posting);
                    seen += 1;
                }
            }
            t.elapsed().as_nanos() as f64 / seen.max(1) as f64
        })
        .collect();
    crate::harness::median(&sweeps)
}
