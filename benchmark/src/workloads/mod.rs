//! The five workloads. Each is a closed loop over a fixed operation list
//! through a different depth of the stack; `README.md` says why each was
//! chosen.

pub mod batch_mixed;
pub mod cold_start;
pub mod distrib_cold;
pub mod inproc_wed;
pub mod serve_loopback;

use crate::data::{self, Dataset};
use crate::harness::{Cfg, Measured};
use crate::metrics::Values;
use crate::oracle;
use crate::spans::Recorder;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use trajsearch_core::Query;
use wed::WedInstance;

pub const NAMES: [&str; 5] = [
    inproc_wed::NAME,
    batch_mixed::NAME,
    serve_loopback::NAME,
    distrib_cold::NAME,
    cold_start::NAME,
];

/// The per-layer metric prefixes a workload alone can measure. A traced
/// run of another workload takes them from a shrunken visit to this one.
pub fn owned_layers(name: &str) -> &'static [&'static str] {
    match name {
        batch_mixed::NAME => &[
            "core.topk.",
            "core.temporal.",
            "core.metric.",
            "core.batch.",
        ],
        serve_loopback::NAME => &["serve."],
        distrib_cold::NAME => &["distrib."],
        cold_start::NAME => &["persist."],
        _ => &[],
    }
}

pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub end_to_end: Values,
    pub layers: Values,
    /// Sizes that must not change silently: passes, operations per pass…
    pub info: Vec<(&'static str, String)>,
    pub recorders: Vec<Recorder>,
    /// Why the run is refused, when it is.
    pub error: Option<String>,
}

/// Runs the workload called `name`, one of [`NAMES`].
pub fn run(name: &str, ds: &Dataset, cfg: &Cfg) -> Report {
    match name {
        inproc_wed::NAME => inproc_wed::run(ds, cfg),
        batch_mixed::NAME => batch_mixed::run(ds, cfg),
        serve_loopback::NAME => serve_loopback::run(ds, cfg),
        distrib_cold::NAME => distrib_cold::run(ds, cfg),
        cold_start::NAME => cold_start::run(ds, cfg),
        _ => unreachable!("main checks the name against NAMES"),
    }
}

/// The light queries of the two socket workloads, so the layer in front of
/// the engine is most of what a caller waits for. Of every four: two
/// thresholds at |Q| = 10, one at |Q| = 20, and one top-5 at |Q| = 10 that
/// doubles τ up to 4 times its start — all at τ-ratio 0.1.
fn light_queries(ds: &Dataset, model: &impl WedInstance, n: usize, salt: u64) -> Vec<Query> {
    const SHORT: usize = 10;
    const LONG: usize = 20;
    const TAU_RATIO: f64 = 0.1;
    const TOP_K_K: usize = 5;
    const TOP_K_GROWTH: f64 = 4.0;
    let mut short = ds.sample_patterns(SHORT, n, salt).into_iter();
    let mut long = ds.sample_patterns(LONG, n, salt + 1).into_iter();
    (0..n)
        .map(|i| {
            let q = if i % 4 == 2 {
                long.next()
            } else {
                short.next()
            };
            let q = q.expect("sampled one pattern per query");
            let tau = data::tau_for(model, &q, TAU_RATIO);
            if i % 4 == 3 {
                Query::top_k(q, TOP_K_K, tau, TOP_K_GROWTH * tau)
            } else {
                Query::threshold(q, tau)
            }
            .build()
            .expect("benchmark queries are valid")
        })
        .collect()
}

/// What the oracle found, and what it cost (outside `setup_s` and the
/// timed phase).
pub struct Verdict {
    pub result: Result<(), String>,
    pub cases: usize,
    pub seconds: f64,
}

/// Re-answers by brute force a seeded sample of `queries` — those short
/// enough for it — `check` dispatching case `i` to [`oracle::check`] with
/// its model; the error names the first mismatch.
fn oracle_sample<'q>(
    ds: &Dataset,
    queries: impl Iterator<Item = &'q Query>,
    mut check: impl FnMut(usize, &mut ChaCha8Rng) -> Result<(), String>,
) -> Verdict {
    let started = Instant::now();
    let eligible: Vec<usize> = queries
        .enumerate()
        .filter(|(_, q)| q.pattern().len() <= oracle::MAX_PATTERN)
        .map(|(i, _)| i)
        .collect();
    let mut rng = data::rng(ds.seed, 0x0AC1E);
    let sample = oracle::sample(eligible, &mut rng);
    let result = sample
        .iter()
        .try_for_each(|&i| check(i, &mut rng).map_err(|e| format!("oracle, case {i}: {e}")));
    Verdict {
        result,
        cases: sample.len(),
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// A per-pass series as one `info` value.
fn series(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    shown.join(",")
}

/// Folds a measured run, its oracle verdict and its layer metrics into the
/// report. `lanes` is the number of caller threads.
#[allow(clippy::too_many_arguments)]
fn report(
    workload: &'static str,
    cfg: &Cfg,
    mut m: Measured,
    lanes: usize,
    index_bytes: usize,
    oracle: Verdict,
    mut layers: Values,
    probes: Vec<Recorder>,
) -> Report {
    if cfg.traced {
        m.tracing(&mut layers);
    }
    let error = m
        .guard(cfg)
        .err()
        .or_else(|| oracle.result.as_ref().err().cloned())
        .or_else(|| m.first_error.clone());
    let mut recorders = std::mem::take(&mut m.recorders);
    recorders.extend(probes);
    Report {
        workload,
        attempted: m.attempted,
        failed: m.failed,
        correct: m.failed == 0 && oracle.result.is_ok(),
        end_to_end: m.end_to_end(index_bytes),
        layers,
        info: vec![
            ("passes", m.pass_wall_s.len().to_string()),
            ("traced_passes", m.traced_pass_wall_s.len().to_string()),
            ("ops_per_pass", m.ops_per_pass.to_string()),
            ("caller_threads", lanes.to_string()),
            ("latency_samples", m.samples().to_string()),
            ("timed_s", format!("{:.3}", m.timed_wall_s())),
            ("warmup_s", format!("{:.3}", m.warmup_s)),
            ("oracle_cases", oracle.cases.to_string()),
            ("oracle_s", format!("{:.3}", oracle.seconds)),
            ("minor_faults_timed", m.minor_faults.to_string()),
            ("pass_wall_s", series(&m.pass_wall_s)),
            ("pass_cpu_s", series(&m.pass_cpu_s)),
            ("pass_p50_ms", series(&m.pass_percentile(0.50))),
            ("pass_p90_ms", series(&m.pass_percentile(0.90))),
        ],
        recorders,
        error,
    }
}
