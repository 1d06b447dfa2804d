//! Drives `trajbench --smoke` on every workload, untraced and traced, and
//! holds the output to `BENCHMARK.json`: every declared metric is printed
//! exactly once with its declared unit, names stay within the allowed
//! characters, and the last line is the one-object result.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use trajsearch_core::json::JsonValue;

/// `--smoke` on all five workloads, both modes, must fit in this.
const SMOKE_BUDGET: Duration = Duration::from_secs(20);

fn declaration() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Declared `name → unit` of one metric list.
fn units(doc: &JsonValue, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("a metric list")
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn allowed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs one smoke run and checks its output against the declared metrics.
fn check(workload: &str, traced: bool, declared: &BTreeMap<String, String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_trajbench"))
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("run trajbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={traced} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The named lines: `ungated <name> <value> <unit>`; a smoke run must
    // not print a gated number.
    assert!(!stdout.lines().any(|l| l.starts_with("metric ")));
    let mut printed: BTreeMap<String, (usize, String)> = BTreeMap::new();
    for line in stdout.lines().filter_map(|l| l.strip_prefix("ungated ")) {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 3, "malformed metric line {line:?}");
        fields[1].parse::<f64>().expect("a numeric value");
        let entry = printed.entry(fields[0].to_string()).or_default();
        entry.0 += 1;
        entry.1 = fields[2].to_string();
    }
    for (name, unit) in declared {
        let (count, got_unit) = printed
            .get(name)
            .unwrap_or_else(|| panic!("{workload} trace={traced}: {name} is not printed"));
        assert_eq!(*count, 1, "{name} printed {count} times");
        assert_eq!(got_unit, unit, "{name} printed with the wrong unit");
    }
    assert_eq!(
        printed.len(),
        declared.len(),
        "an undeclared metric is printed"
    );

    // The result line.
    let last = stdout.lines().last().expect("output");
    let JsonValue::Obj(result) = JsonValue::parse(last).expect("the last line is JSON") else {
        panic!("the last line is not an object");
    };
    let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let doc = JsonValue::Obj(result);
    assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(
        doc.get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted")
            >= 1
    );
    let JsonValue::Obj(metrics) = doc.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(metrics.len(), declared.len());
    for (name, m) in metrics {
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            declared.get(name).map(String::as_str),
            "{name}"
        );
        let value = m.get("value").and_then(JsonValue::as_f64).expect("a value");
        assert!(value.is_finite(), "{name} is not finite");
    }
}

#[test]
fn smoke_runs_print_every_declared_metric_once() {
    let doc = declaration();
    let workloads = names(&doc, "workloads");
    assert_eq!(workloads.len(), 5);
    let end_to_end = units(&doc, "end_to_end");
    let per_layer = units(&doc, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for name in workloads
        .iter()
        .chain(end_to_end.keys())
        .chain(per_layer.keys())
    {
        assert!(
            allowed(name),
            "{name:?} uses a character outside [A-Za-z0-9_.-]"
        );
    }

    let started = Instant::now();
    for workload in &workloads {
        check(workload, false, &end_to_end);
    }
    let untraced = started.elapsed();
    for workload in &workloads {
        check(workload, true, &per_layer);
    }
    assert!(
        untraced <= SMOKE_BUDGET,
        "--smoke took {untraced:?} on the five workloads"
    );
}

#[test]
fn list_names_the_declared_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_trajbench"))
        .arg("list")
        .output()
        .expect("run trajbench");
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(listed, names(&declaration(), "workloads"));
}
