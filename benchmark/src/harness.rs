//! The measuring loop shared by the five workloads: one untimed warm-up
//! pass whose answers become the reference, then timed passes over the
//! same operation list for `--seconds` seconds — whole passes only, so
//! every pass does the same work — with every answer compared against the
//! reference.

use crate::metrics::Values;
use crate::spans::{self, Recorder};
use std::time::Instant;
use trajsearch_core::Response;

/// The `--seconds` `BENCHMARK.json` declares, and the default.
pub const RUN_SECONDS: u64 = 15;
/// Floors below which a full run is refused (the faults of the first,
/// rejected benchmark): set-up too short to repeat, too little measured.
const MIN_SETUP_S: f64 = 2.0;
const MIN_TIMED_S: f64 = 15.0;
const MIN_SAMPLES: usize = 100;

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// 400 trips, one pass: schema and correctness only.
    pub smoke: bool,
    pub traced: bool,
    /// A traced run also visits the other workloads at a fraction of their
    /// size, for the layers the asked-for workload does not exercise.
    pub mini: bool,
    /// How long the timed phase lasts: passes start until this has elapsed.
    pub seconds: u64,
    /// Process start; `setup_s` counts from here.
    pub started: Instant,
}

impl Cfg {
    /// The shrunken modes run one pass of each kind and no clock.
    fn shrunken(&self) -> bool {
        self.smoke || self.mini
    }

    /// Operations per pass: `full`, or `small` in the shrunken modes.
    pub fn ops(&self, full: usize, small: usize) -> usize {
        if self.shrunken() {
            small
        } else {
            full
        }
    }

    pub fn gated(&self) -> bool {
        !self.shrunken() && !self.traced
    }
}

/// One closed-loop caller: a thread that issues its next operation only
/// after the previous one returned.
pub trait Lane: Send {
    /// Runs at the start of every pass, inside the pass wall time but
    /// outside any operation.
    fn begin_pass(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Executes operation `op` and returns its answers. With a recorder,
    /// the same work runs wrapped in spans at each public call.
    fn exec(&mut self, op: usize, rec: Option<&mut Recorder>) -> Result<Vec<Response>, String>;
}

pub struct Measured {
    /// The warm-up pass's answers, per operation.
    pub reference: Vec<Vec<Response>>,
    pub setup_s: f64,
    pub warmup_s: f64,
    /// Wall time of every untraced timed operation, per operation of the
    /// pass, in pass order.
    pub lat_ms: Vec<Vec<f64>>,
    pub pass_wall_s: Vec<f64>,
    pub traced_pass_wall_s: Vec<f64>,
    /// Process CPU, all threads, over each untraced timed pass.
    pub pass_cpu_s: Vec<f64>,
    /// Minor page faults over the timed phase.
    pub minor_faults: u64,
    pub ops_per_pass: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub recorders: Vec<Recorder>,
}

enum Outcome {
    Answers(Vec<Response>),
    Digest(u64),
    Failed(String),
}

struct Sample {
    op: usize,
    lat_ms: f64,
    outcome: Outcome,
}

/// Runs the warm-up pass, then timed passes over operations `0..n_ops`
/// until `cfg.seconds` of pass time have gone by and the passes hold
/// `MIN_SAMPLES` operations, lane `k` of `n` taking every `n`-th operation
/// from `k`. In a traced run timed passes alternate untraced and traced.
pub fn measure(lanes: &mut [&mut (dyn Lane + '_)], n_ops: usize, cfg: &Cfg) -> Measured {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        cfg.smoke || threads >= lanes.len(),
        "{} caller threads need as many cores, this box has {threads}",
        lanes.len()
    );
    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> = (0..lanes.len()).map(|k| Recorder::new(epoch, k)).collect();

    let t_warm = Instant::now();
    let (_, warm) = run_pass(lanes, n_ops, 0, None, true);
    let warmup_s = t_warm.elapsed().as_secs_f64();
    let mut m = Measured {
        reference: (0..n_ops).map(|_| Vec::new()).collect(),
        setup_s: 0.0,
        warmup_s,
        lat_ms: (0..n_ops).map(|_| Vec::new()).collect(),
        pass_wall_s: Vec::new(),
        traced_pass_wall_s: Vec::new(),
        pass_cpu_s: Vec::new(),
        minor_faults: 0,
        ops_per_pass: n_ops,
        attempted: 0,
        failed: 0,
        first_error: None,
        recorders: Vec::new(),
    };
    for s in warm {
        match s.outcome {
            Outcome::Answers(a) => m.reference[s.op] = a,
            Outcome::Digest(_) => unreachable!("the warm-up pass keeps its answers"),
            Outcome::Failed(e) => panic!("warm-up operation {} failed: {e}", s.op),
        }
    }
    let digests: Vec<u64> = m.reference.iter().map(|a| digest(a)).collect();

    m.setup_s = cfg.started.elapsed().as_secs_f64();
    let faults0 = minor_faults();
    let (floor, budget_s) = match (cfg.shrunken(), cfg.traced) {
        (true, true) => (2, 0.0),
        (true, false) => (1, 0.0),
        (false, _) => (MIN_SAMPLES.div_ceil(n_ops), cfg.seconds as f64),
    };
    // The clock that ends the phase is the passes' own wall time, so the
    // timed phase is never shorter than `--seconds`.
    let (mut pass, mut timed_s) = (0, 0.0);
    while pass < floor || timed_s < budget_s {
        let traced = cfg.traced && pass % 2 == 1;
        let cpu0 = process_cpu_s();
        let (wall_s, samples) = run_pass(
            lanes,
            n_ops,
            (pass + 1) * n_ops,
            traced.then_some(&mut recorders[..]),
            false,
        );
        timed_s += wall_s;
        if traced {
            m.traced_pass_wall_s.push(wall_s);
        } else {
            m.pass_wall_s.push(wall_s);
            m.pass_cpu_s.push(process_cpu_s() - cpu0);
        }
        for s in samples {
            m.attempted += 1;
            let error = match s.outcome {
                Outcome::Digest(d) if d == digests[s.op] => None,
                Outcome::Digest(_) => Some("answer differs from the warm-up pass's".to_string()),
                Outcome::Failed(e) => Some(e),
                Outcome::Answers(_) => unreachable!("timed passes keep digests only"),
            };
            if let Some(e) = error {
                m.failed += 1;
                m.first_error
                    .get_or_insert_with(|| format!("operation {}: {e}", s.op));
            }
            if !traced {
                m.lat_ms[s.op].push(s.lat_ms);
            }
        }
        pass += 1;
    }
    m.minor_faults = minor_faults() - faults0;
    m.recorders = recorders;
    m
}

/// One pass; returns its wall time and every lane's samples.
fn run_pass(
    lanes: &mut [&mut (dyn Lane + '_)],
    n_ops: usize,
    op_base: usize,
    recorders: Option<&mut [Recorder]>,
    keep_answers: bool,
) -> (f64, Vec<Sample>) {
    let n_lanes = lanes.len();
    let mut recs: Vec<Option<&mut Recorder>> = match recorders {
        Some(r) => r.iter_mut().map(Some).collect(),
        None => (0..n_lanes).map(|_| None).collect(),
    };
    let t0 = Instant::now();
    let per_lane: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(recs.iter_mut())
            .enumerate()
            .map(|(k, (lane, rec))| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(n_ops / n_lanes + 1);
                    if let Err(e) = lane.begin_pass() {
                        panic!("lane {k} could not begin a pass: {e}");
                    }
                    for op in (k..n_ops).step_by(n_lanes) {
                        let t = Instant::now();
                        let result = match rec.as_deref_mut() {
                            Some(rec) => {
                                rec.set_op((op_base + op) as u64);
                                rec.span(spans::OP, |rec| lane.exec(op, Some(rec)))
                            }
                            None => lane.exec(op, None),
                        };
                        let lat_ms = t.elapsed().as_secs_f64() * 1e3;
                        let outcome = match result {
                            Ok(answers) if keep_answers => Outcome::Answers(answers),
                            Ok(answers) => Outcome::Digest(digest(&answers)),
                            Err(e) => Outcome::Failed(e),
                        };
                        out.push(Sample {
                            op,
                            lat_ms,
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    (wall_s, per_lane.into_iter().flatten().collect())
}

/// FNV-1a over every match's `(id, start, end, dist bits)`: a 64-bit
/// digest that any difference in an answer's bytes changes.
pub fn digest(answers: &[Response]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for r in answers {
        mix(r.matches.len() as u64);
        for m in &r.matches {
            mix(m.id as u64);
            mix(m.start as u64);
            mix(m.end as u64);
            mix(m.dist.to_bits());
        }
    }
    h
}

impl Measured {
    /// The end-to-end metrics of an untraced run. `index_bytes` is what the
    /// serving side holds to answer.
    ///
    /// Each timing is taken per pass, over every operation of the pass, and
    /// the run reports its fastest pass. Every pass does the same work, and
    /// what the shared host adds — other tenants on its memory system slow
    /// this code by a quarter for seconds at a time — only ever slows one:
    /// the fastest pass is the one the host disturbed least. A mean or a
    /// median over passes reads how many of them a loud stretch caught.
    pub fn end_to_end(&self, index_bytes: usize) -> Values {
        let ops = self.ops_per_pass as f64;
        let fastest = |of: &[f64]| of.iter().copied().fold(f64::INFINITY, f64::min);
        let mut v = Values::default();
        v.set("setup_s", self.setup_s);
        v.set("throughput_ops_s", ops / fastest(&self.pass_wall_s));
        v.set("lat_p50_ms", fastest(&self.pass_percentile(0.50)));
        v.set("lat_p90_ms", fastest(&self.pass_percentile(0.90)));
        v.set("cpu_ms_per_op", fastest(&self.pass_cpu_s) * 1e3 / ops);
        v.set("peak_rss_mb", peak_rss_mb());
        v.set("index_mb", index_bytes as f64 / 1e6);
        v
    }

    /// The `p`-th percentile of each untraced pass's operation latencies.
    pub fn pass_percentile(&self, p: f64) -> Vec<f64> {
        (0..self.pass_wall_s.len())
            .map(|pass| {
                let mut of_pass: Vec<f64> = self.lat_ms.iter().map(|op| op[pass]).collect();
                of_pass.sort_by(f64::total_cmp);
                percentile(&of_pass, p)
            })
            .collect()
    }

    /// Latency samples taken: timed untraced operations.
    pub fn samples(&self) -> usize {
        self.lat_ms.iter().map(Vec::len).sum()
    }

    pub fn timed_wall_s(&self) -> f64 {
        self.pass_wall_s.iter().sum()
    }

    /// The tracing metrics of a traced run: what the spans cost, how many
    /// there are, and how much operation time they leave unexplained.
    pub fn tracing(&self, layers: &mut Values) {
        let traced_ops = (self.traced_pass_wall_s.len() * self.ops_per_pass).max(1);
        let spans: usize = self.recorders.iter().map(|r| r.spans().len()).sum();
        layers.set(
            "obs.trace_overhead_ratio",
            median(&self.traced_pass_wall_s) / median(&self.pass_wall_s),
        );
        layers.set("obs.spans_per_op", spans as f64 / traced_ops as f64);
        layers.set(
            "ledger.residual_ratio",
            spans::residual_ratio(&self.recorders),
        );
        layers.set("warmup_s", self.warmup_s);
    }

    /// Refuses a full untraced run that measured too little to repeat.
    pub fn guard(&self, cfg: &Cfg) -> Result<(), String> {
        if !cfg.gated() {
            return Ok(());
        }
        if self.setup_s < MIN_SETUP_S {
            return Err(format!(
                "setup_s {:.3} is below {MIN_SETUP_S} s",
                self.setup_s
            ));
        }
        if self.timed_wall_s() < MIN_TIMED_S {
            return Err(format!(
                "timed phase {:.2} s is below {MIN_TIMED_S} s",
                self.timed_wall_s()
            ));
        }
        if self.samples() < MIN_SAMPLES {
            return Err(format!(
                "{} latency samples, fewer than {MIN_SAMPLES}",
                self.samples()
            ));
        }
        Ok(())
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Field `n` (1-based, as proc(5) numbers them) of `/proc/self/stat`.
fn proc_stat_field(n: usize) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; the rest counts from
    // after its closing parenthesis, which ends field 2.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .nth(n - 3)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0)
}

/// User plus system CPU of the whole process, every thread, the ended
/// ones too, in seconds. `/proc/self/stat` counts it in ticks of 1/100 s,
/// too coarse for one pass, so this reads the process CPU clock.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through a valid pointer
    // to a struct of glibc's layout on Linux, and nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Minor page faults of the process so far (`minflt`).
fn minor_faults() -> u64 {
    proc_stat_field(10) as u64
}

/// `VmHWM`, the peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
