//! `trajbench selfcheck` — the A/A test: six runs of this same binary per
//! workload, interleaved as two sets (A, B, A, B, A, B). The two sets'
//! medians must agree within each end-to-end metric's bound, and every
//! exact counter must read the same on all six runs. If the same code
//! cannot agree with itself, no comparison of two commits means anything.

use crate::harness::median;
use crate::workloads;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trajsearch_core::json::JsonValue;

const RUNS: usize = 6;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics' directions and bounds, from `BENCHMARK.json`
/// at the repository root.
fn bounds() -> Result<Vec<Bound>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry without {key}"));
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

struct RunOutput {
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
}

fn one_run(workload: &str, seed: u64) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = JsonValue::parse(last)?;
    let JsonValue::Obj(pairs) = doc.get("metrics").ok_or("no metrics in the result")? else {
        return Err("metrics is not an object".into());
    };
    let metrics = pairs
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let exact = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("exact "))
        .filter_map(|l| l.split_once(' '))
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect();
    Ok(RunOutput { metrics, exact })
}

/// Runs the check on `workload`, or on all five; non-zero when any pair of
/// medians differs by more than its bound or an exact counter moved.
pub fn run(workload: Option<&str>, seed: u64) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trajbench selfcheck: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match workload {
        Some(w) => vec![w],
        None => workloads::NAMES.to_vec(),
    };
    let mut ok = true;
    for name in names {
        let mut runs = Vec::with_capacity(RUNS);
        for i in 0..RUNS {
            match one_run(name, seed) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("trajbench selfcheck: {name}, run {i}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("{name}  (A = runs 0, 2, 4; B = runs 1, 3, 5)");
        for b in &bounds {
            let set = |parity: usize| -> Vec<f64> {
                runs.iter()
                    .skip(parity)
                    .step_by(2)
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            let (a, bb) = (median(&set(0)), median(&set(1)));
            // Positive when B reads worse than A.
            let worse = if b.lower_is_better {
                bb / a - 1.0
            } else {
                a / bb - 1.0
            };
            let pass = worse.abs() <= b.bound;
            ok &= pass;
            println!(
                "  {:<18} A {:<14.6} B {:<14.6} diff {:+.4} bound {:.2}  {}",
                b.name,
                a,
                bb,
                worse,
                b.bound,
                if pass { "ok" } else { "FAIL" }
            );
        }
        for (counter, first) in &runs[0].exact {
            let same = runs.iter().all(|r| r.exact.get(counter) == Some(first));
            ok &= same;
            println!(
                "  exact {counter} {first}  {}",
                if same {
                    "ok"
                } else {
                    "FAIL: differs between runs"
                }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
