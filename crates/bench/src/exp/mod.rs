//! One module per table/figure of the paper's evaluation (§6), plus
//! engineering experiments beyond the paper ([`throughput`]: the parallel
//! batch engine's queries/sec scaling; [`index_build`]: sharded index
//! construction time vs shard count; [`api_workload`]: a mixed
//! threshold/top-k/temporal workload through the unified `run_batch`,
//! queries arriving over their JSON wire format; [`metrics_workload`]: the
//! same patterns under WED/DTW/LCSS/Fréchet through the metric-pluggable
//! verifier, mixed in one `run_batch`; [`serve_load`]: the same
//! style of workload through the `trajsearch-serve` TCP front-end vs
//! in-process execution; [`distrib`]: the workload through a coordinator
//! over loopback shard servers, postings arriving over the shard-RPC
//! surface; [`obs`]: what query tracing costs — plain vs instrumented-off
//! vs full span recording, with a result-identity self-check).
//!
//! Each module exposes a `run_*` function returning plain rows plus a
//! `print_*` helper; the `repro` binary wires them to subcommands, named
//! after the table or figure of the paper's §6 each one reproduces.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// `repro --fail-on-regress PCT` threshold, stored as f64 bits
/// (`u64::MAX` = unset). See [`set_history_regression_threshold`].
static REGRESS_THRESHOLD_BITS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Arms the cross-run trend gate: after this call, any experiment whose
/// **deterministic counter** columns move by more than `pct` percent in the
/// worsening direction against the previous `BENCH_history.jsonl` entry
/// panics instead of merely printing a delta. Timing columns (`*_ms`,
/// `qps`, ...) stay advisory — they jitter with the host — so the gate is
/// only as strong as the experiment's counter columns, which is exactly
/// what `verify_cache` and the pruning-rate dumps emit.
pub fn set_history_regression_threshold(pct: f64) {
    REGRESS_THRESHOLD_BITS.store(pct.to_bits(), Ordering::Relaxed);
}

fn history_regression_threshold() -> Option<f64> {
    match REGRESS_THRESHOLD_BITS.load(Ordering::Relaxed) {
        u64::MAX => None,
        bits => Some(f64::from_bits(bits)),
    }
}

/// Counter columns the trend gate may fail on: deterministic engine
/// counters, never wall-clock quantities.
fn gated_counter(key: &str) -> bool {
    matches!(
        key,
        "stepdp_calls"
            | "columns_passed"
            | "sw_columns"
            | "trie_cache_hits"
            | "trie_cache_misses"
            | "verify_cost"
            | "candidates"
            | "results"
            | "cmr"
            | "upr"
            | "tur"
            | "fallbacks"
    )
}

/// Is a `pct` move on `key` a change for the worse? Hit counts shrink,
/// cost counters grow; exact result/candidate counts should not move at
/// all, so either direction gates.
fn is_worsening(key: &str, pct: f64) -> bool {
    match key {
        "trie_cache_hits" => pct < 0.0,
        "candidates" | "results" => true,
        _ => pct > 0.0,
    }
}

/// Host core count, recorded in every `BENCH_*.json` dump so a 1-core CI
/// runner's flat speedup curve is not mistaken for a regression.
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Writes the shared `BENCH_*.json` envelope (hand-rolled — the build
/// environment is offline, no serde): experiment name, unit, `host_cpus`,
/// and a `rows` array of pre-rendered JSON objects. Keeping one writer
/// guarantees every dump stays consumable by the same CI trend tooling.
///
/// Every write also appends a timestamped single-line copy to
/// `BENCH_history.jsonl` next to `path` and prints a delta against the
/// previous entry of the same experiment when one exists, so regressions
/// are visible *across* runs, not just within one (ROADMAP "throughput
/// trend tracking"). History I/O failures are warnings, never errors —
/// trend tracking must not fail a benchmark run. Counter *regressions*
/// are a different matter: when `repro --fail-on-regress` arms the gate
/// (see [`set_history_regression_threshold`]), a worsening move beyond the
/// threshold on a deterministic counter column fails the run.
pub(crate) fn write_bench_json(
    path: &str,
    experiment: &str,
    unit: &str,
    rows: &[String],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"experiment\": \"{experiment}\",")?;
    writeln!(f, "  \"unit\": \"{unit}\",")?;
    writeln!(f, "  \"host_cpus\": {},", host_cpus())?;
    writeln!(f, "  \"rows\": [")?;
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(f, "    {row}{sep}")?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    if let Err(e) = track_history(path, experiment, unit, rows) {
        eprintln!(
            "warning: could not update {}: {e}",
            history_path(path).display()
        );
    }
    Ok(())
}

/// The history file lives next to the dump it tracks (so tests writing to
/// temp directories never touch the repo's history).
fn history_path(bench_path: &str) -> std::path::PathBuf {
    std::path::Path::new(bench_path).with_file_name("BENCH_history.jsonl")
}

/// Appends this run to the history and prints a delta vs the previous
/// entry for the same experiment, when present.
fn track_history(
    bench_path: &str,
    experiment: &str,
    unit: &str,
    rows: &[String],
) -> std::io::Result<()> {
    use trajsearch_core::json::JsonValue;

    let path = history_path(bench_path);
    // Previous entry: the last well-formed line for this experiment.
    let previous: Option<JsonValue> = std::fs::read_to_string(&path).ok().and_then(|text| {
        text.lines()
            .rev()
            .filter_map(|line| JsonValue::parse(line).ok())
            .find(|v| v.get("experiment").and_then(|e| e.as_str()) == Some(experiment))
    });

    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"ts\": {ts}, \"experiment\": \"{experiment}\", \"unit\": \"{unit}\", \
         \"host_cpus\": {}, \"rows\": [{}]}}",
        host_cpus(),
        rows.join(", ")
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{line}")?;

    if let Some(previous) = previous {
        print_history_delta(experiment, &previous, rows);
        gate_history_regressions(experiment, &previous, rows);
    }
    Ok(())
}

/// The armed half of the trend tracker: with a threshold set (see
/// [`set_history_regression_threshold`]), a worsening move beyond it on any
/// gated counter column fails the run. Mixed-host comparisons are skipped —
/// a different `host_cpus` changes thread-sweep rows legitimately.
fn gate_history_regressions(
    experiment: &str,
    previous: &trajsearch_core::json::JsonValue,
    rows: &[String],
) {
    use trajsearch_core::json::JsonValue;

    let Some(threshold) = history_regression_threshold() else {
        return;
    };
    if previous.get("host_cpus").and_then(|v| v.as_u64()) != Some(host_cpus() as u64) {
        eprintln!(
            "trend gate {experiment}: previous entry is from a different host shape; skipping"
        );
        return;
    }
    let empty = Vec::new();
    let prev_rows = previous
        .get("rows")
        .and_then(|v| v.as_arr())
        .unwrap_or(&empty);
    let mut violations: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let (Ok(JsonValue::Obj(pairs)), Some(prev_row)) = (JsonValue::parse(row), prev_rows.get(i))
        else {
            continue;
        };
        for (key, value) in &pairs {
            if !gated_counter(key) {
                continue;
            }
            let (Some(new), Some(old)) =
                (value.as_f64(), prev_row.get(key).and_then(|v| v.as_f64()))
            else {
                continue;
            };
            if old == 0.0 || new == old {
                continue;
            }
            let pct = (new - old) / old * 100.0;
            if pct.abs() >= threshold && is_worsening(key, pct) {
                violations.push(format!("row {i} {key}: {old:.3} -> {new:.3} ({pct:+.1}%)"));
            }
        }
    }
    if !violations.is_empty() {
        panic!(
            "trend gate {experiment}: counter regression beyond {threshold}% vs previous run:\n  {}",
            violations.join("\n  ")
        );
    }
}

/// Prints the per-row numeric deltas (≥ 1% change) against the previous
/// history entry. Row order is positional: every experiment emits its rows
/// in a fixed sweep order, so index `i` compares like with like.
fn print_history_delta(
    experiment: &str,
    previous: &trajsearch_core::json::JsonValue,
    rows: &[String],
) {
    use trajsearch_core::json::JsonValue;

    let prev_ts = previous.get("ts").and_then(|v| v.as_u64()).unwrap_or(0);
    let prev_cpus = previous.get("host_cpus").and_then(|v| v.as_u64());
    let empty = Vec::new();
    let prev_rows = previous
        .get("rows")
        .and_then(|v| v.as_arr())
        .unwrap_or(&empty);
    let mut lines: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let (Ok(JsonValue::Obj(pairs)), Some(prev_row)) = (JsonValue::parse(row), prev_rows.get(i))
        else {
            continue;
        };
        for (key, value) in &pairs {
            let (Some(new), Some(old)) =
                (value.as_f64(), prev_row.get(key).and_then(|v| v.as_f64()))
            else {
                continue;
            };
            if old == 0.0 || new == old {
                continue;
            }
            let pct = (new - old) / old * 100.0;
            if pct.abs() >= 1.0 {
                lines.push(format!(
                    "  row {i} {key}: {old:.3} -> {new:.3} ({pct:+.1}%)"
                ));
            }
        }
    }
    if let Some(prev_cpus) = prev_cpus {
        if prev_cpus != host_cpus() as u64 {
            lines.push(format!(
                "  (host_cpus changed: {prev_cpus} -> {}; timing deltas are not comparable)",
                host_cpus()
            ));
        }
    }
    if lines.is_empty() {
        eprintln!("trend {experiment}: no numeric change >= 1% vs previous run (ts {prev_ts})");
    } else {
        eprintln!("trend {experiment}: delta vs previous run (ts {prev_ts}):");
        for line in lines.iter().take(40) {
            eprintln!("{line}");
        }
    }
}

pub mod api_workload;
pub mod candidates;
pub mod distrib;
pub mod enum_baselines;
pub mod eta;
pub mod index_build;
pub mod metrics_workload;
pub mod naturalness;
pub mod obs;
pub mod query_time;
pub mod serve_load;
pub mod snapshot;
pub mod table2;
pub mod table6;
pub mod temporal;
pub mod throughput;
pub mod travel_time;
pub mod verification;
pub mod verify_cache;
