//! `trajbench` — the repository's one benchmark. Five workloads, each whole
//! passes over a fixed operation list through the public API of every
//! crate, seven end-to-end metrics, and a traced run that times each layer
//! from outside. See `README.md`.
//!
//! ```text
//! trajbench [run]     --workload W [--seed N] [--seconds 15] [--trace 0|1] [--smoke]
//! trajbench selfcheck [--workload W] [--seed N]
//! trajbench list
//! ```
//!
//! `--trace 1` is the traced run (per-layer metrics, spans as JSONL);
//! `--seconds` is how long the timed phase lasts (a gated run needs 15).
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it name every
//! metric with its unit, the exact counters and the run's sizes.

mod data;
mod harness;
mod ledger;
mod metrics;
mod oracle;
mod selfcheck;
mod spans;
mod workloads;

use harness::Cfg;
use metrics::Values;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed runs use when none is given, and the second seed a claim made
/// on the first is checked on again.
pub const DEFAULT_SEED: u64 = 42;
pub const SECOND_SEED: u64 = 20_260_928;

/// Where traces and the `cold_start` scratch file go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: harness::RUN_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    if let Some(first) = argv.peek() {
        if !first.starts_with("--") {
            args.command = argv.next().expect("peeked");
        }
    }
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Tells glibc's allocator to keep freed memory in the process: no heap
/// trimming, no `mmap`/`munmap` per large allocation.
///
/// The engine allocates and frees candidate lists and DP slabs per query.
/// With the default thresholds the allocator hands that memory back to the
/// kernel and faults it in again — 40 000 minor faults a second on
/// `inproc_wed` — and in this sandbox the guest kernel reports free pages
/// to the hypervisor, so every such fault is served by the host at a cost
/// that swings with the host's load. That is the sandbox's page-fault path,
/// not the engine; left in, it was a third of the run-to-run spread. The
/// `minor_faults_timed` line of every run shows what is left.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    /// The largest `mmap` threshold glibc accepts on 64-bit targets.
    const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
    // SAFETY: `mallopt` only stores allocator parameters. It runs first in
    // `main`, before another thread exists, with glibc's documented
    // parameter codes; a value glibc refuses leaves the default in place.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
        mallopt(M_TOP_PAD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    let started = Instant::now();
    keep_freed_memory();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trajbench: {e}\nsee the usage at the top of benchmark/src/main.rs");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "list" => {
            for name in workloads::NAMES {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        "selfcheck" => selfcheck::run(args.workload.as_deref(), args.seed),
        "run" => {
            let Some(workload) = args.workload.as_deref() else {
                eprintln!("trajbench: --workload is required; `trajbench list` names them");
                return ExitCode::from(2);
            };
            let cfg = Cfg {
                seed: args.seed,
                smoke: args.smoke,
                traced: args.traced,
                mini: false,
                seconds: args.seconds,
                started,
            };
            run_workload(workload, &cfg)
        }
        other => {
            eprintln!("trajbench: unknown command {other}");
            ExitCode::from(2)
        }
    }
}

fn run_workload(workload: &str, cfg: &Cfg) -> ExitCode {
    if !workloads::NAMES.contains(&workload) {
        eprintln!("trajbench: no workload {workload}; `trajbench list` names them");
        return ExitCode::from(2);
    }
    let ds = data::Dataset::generate(cfg.seed, cfg.smoke);
    let mut report = workloads::run(workload, &ds, cfg);

    if cfg.traced {
        // The layers this workload does not reach are measured on a small
        // visit to the workload that owns them.
        let mini = Cfg { mini: true, ..*cfg };
        for other in workloads::NAMES.iter().filter(|&&n| n != workload) {
            let owned = workloads::owned_layers(other);
            if owned.is_empty() {
                continue;
            }
            let visit = workloads::run(other, &ds, &mini);
            println!("info visited {other} for {}*", owned.join("*, "));
            report.layers.adopt(&visit.layers, owned);
            report.attempted += visit.attempted;
            report.failed += visit.failed;
            report.correct &= visit.correct;
            report.error = report.error.or(visit.error);
        }
        ledger::index_probe(&ds, &mut report.layers);
        ledger::wed_probe(
            &ds.edr(),
            &ds.sample_patterns(40, 64, 0xED),
            &mut report.layers,
        );
        report.layers.set("rnet.generate_s", ds.gen.rnet_s);
        report.layers.set("rnet.hubs_build_s", ds.gen.hubs_s);
        report.layers.set("traj.generate_s", ds.gen.traj_s);

        let path = out_dir().join(format!("trace-{workload}-{}.jsonl", cfg.seed));
        match spans::write_jsonl(&path, &report.recorders) {
            Ok(()) => println!("info trace_file {}", path.display()),
            Err(e) => report.error = report.error.or(Some(format!("writing {path:?}: {e}"))),
        }
        if let Some(missing) = metrics::PER_LAYER
            .iter()
            .find(|(name, _)| report.layers.get(name).is_none())
        {
            report.error = report
                .error
                .or(Some(format!("no value for per-layer metric {}", missing.0)));
        }
    }
    print_report(&report, cfg)
}

/// Prints every metric by name and unit, then the one-line JSON result.
fn print_report(report: &workloads::Report, cfg: &Cfg) -> ExitCode {
    println!(
        "trajbench {} seed={} seconds={} trace={} smoke={} cores={}",
        report.workload,
        cfg.seed,
        cfg.seconds,
        cfg.traced as u8,
        cfg.smoke as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (key, value) in &report.info {
        println!("info {key} {value}");
    }
    // A smoke run checks schema and correctness; its numbers gate nothing.
    let gate = if cfg.smoke { "ungated" } else { "metric" };
    let printed: Values = if cfg.traced {
        let mut v = Values::default();
        for (name, _) in metrics::PER_LAYER {
            if let Some(value) = report.layers.get(name) {
                v.set(name, value);
            }
        }
        v
    } else {
        for name in metrics::EXACT {
            if let Some(value) = report.layers.get(name) {
                println!("exact {name} {value}");
            }
        }
        report.end_to_end.clone()
    };
    for (name, value) in printed.iter() {
        let unit = metrics::unit_of(name).expect("only declared metrics are set");
        println!("{gate} {name} {value} {unit}");
    }

    if let Some(error) = &report.error {
        eprintln!("trajbench: {}: {error}", report.workload);
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = printed
        .iter()
        .map(|(name, value)| {
            let unit = metrics::unit_of(name).expect("only declared metrics are set");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
