//! Mixed-workload experiment for the `Query`/`Response` API (`repro api`).
//!
//! **One** `run_batch` call answers a workload that mixes threshold
//! queries, top-k queries and temporal queries (TF pre-filter + §4.3
//! by-departure postings). Every query is additionally round-tripped
//! through its JSON wire format before execution, so the measured path is
//! exactly what a serving front-end would drive. The 1-thread run is the
//! correctness reference for every other thread count, and the dump
//! (`BENCH_api.json`) uses the shared `BENCH_*.json` envelope for CI trend
//! tracking.

use super::{host_cpus, write_bench_json};
use crate::data::{Dataset, FuncKind, Scale};
use crate::table::{fmt_ms, print_table};
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{EngineBuilder, Query, TemporalConstraint, TimeInterval};

/// One measured point: the mixed workload at one thread count.
#[derive(Debug, Clone)]
pub struct ApiRow {
    pub dataset: String,
    pub func: &'static str,
    pub threads: usize,
    pub queries: usize,
    pub threshold_queries: usize,
    pub topk_queries: usize,
    pub temporal_queries: usize,
    pub wall_ms: f64,
    pub cpu_ms: f64,
    pub qps: f64,
    /// Queries/sec relative to the 1-thread row of the same sweep.
    pub speedup: f64,
    pub results: usize,
    /// Total wire size of the workload (`Σ |query.to_json()|`).
    pub wire_bytes: usize,
}

/// Builds the mixed workload and runs it through `run_batch` at each thread
/// count. Every query goes over the wire (`to_json` → `from_json`) first;
/// the 1-thread outcome is the reference every other run must equal.
pub fn run(
    which: &str,
    func: FuncKind,
    threads: &[usize],
    qlen: usize,
    nqueries: usize,
    tau_ratio: f64,
    scale: Scale,
) -> Vec<ApiRow> {
    let d = Dataset::load(which, scale);
    let model = d.model(func);
    let (store, alphabet) = d.store_for(func);
    let engine = EngineBuilder::new(&*model, store, alphabet)
        .temporal_postings(true)
        .build();

    // Window covering the first half of the store's time span, for the
    // temporal third of the workload.
    let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, t) in store.iter() {
        tmin = tmin.min(t.departure());
        tmax = tmax.max(t.arrival());
    }
    let window = TemporalConstraint::overlaps(TimeInterval::new(tmin, tmin + 0.5 * (tmax - tmin)));

    let (mut n_threshold, mut n_topk, mut n_temporal) = (0usize, 0usize, 0usize);
    let mut wire_bytes = 0usize;
    let workload: Vec<Query> = d
        .sample_queries(func, qlen, nqueries, 23)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let tau = d.tau_for(&*model, &q, tau_ratio);
            let query = match i % 3 {
                0 => {
                    n_threshold += 1;
                    Query::threshold(q, tau).build()
                }
                1 => {
                    n_topk += 1;
                    Query::top_k(q, 5, tau, 4.0 * tau).build()
                }
                _ => {
                    n_temporal += 1;
                    Query::threshold(q, tau)
                        .temporal(window)
                        .temporal_filter(true)
                        .temporal_postings(true)
                        .build()
                }
            }
            .expect("workload queries are valid");
            // The serving path: queries arrive as JSON.
            let wire = query.to_json();
            wire_bytes += wire.len();
            let decoded = Query::from_json(&wire).expect("wire round-trip");
            assert_eq!(decoded, query, "query {i} mangled by the wire format");
            decoded
        })
        .collect();

    // Warm-up + correctness reference.
    let reference = engine
        .run_batch(&workload, BatchOptions::with_threads(1))
        .expect("workload admitted");

    let mut rows = Vec::with_capacity(threads.len());
    for &t in threads {
        let out = engine
            .run_batch(&workload, BatchOptions::with_threads(t))
            .expect("workload admitted");
        for (i, (got, want)) in out.responses.iter().zip(&reference.responses).enumerate() {
            assert_eq!(
                got.matches, want.matches,
                "mixed batch at {t} threads diverged from sequential on query {i}"
            );
        }
        rows.push(ApiRow {
            dataset: d.name.to_string(),
            func: func.name(),
            threads: out.stats.threads,
            queries: out.stats.queries,
            threshold_queries: n_threshold,
            topk_queries: n_topk,
            temporal_queries: n_temporal,
            wall_ms: out.stats.wall_time.as_secs_f64() * 1e3,
            cpu_ms: out.stats.cpu_time.as_secs_f64() * 1e3,
            qps: out.stats.queries_per_sec(),
            speedup: 1.0,
            results: out.stats.merged.results,
            wire_bytes,
        });
    }
    let base = rows
        .iter()
        .find(|r| r.threads == 1)
        .or(rows.first())
        .map(|r| r.qps)
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);
    for r in &mut rows {
        r.speedup = r.qps / base;
    }
    rows
}

pub fn print(rows: &[ApiRow]) {
    if let Some(r) = rows.first() {
        println!(
            "\nUnified-API mixed workload: {} threshold + {} top-k + {} temporal \
             queries in one run_batch ({} wire bytes, {} host cpus)",
            r.threshold_queries,
            r.topk_queries,
            r.temporal_queries,
            r.wire_bytes,
            host_cpus()
        );
    }
    print_table(
        &[
            "Dataset", "Func", "Threads", "Queries", "Wall ms", "CPU ms", "q/s", "Speedup",
            "Results",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.func.to_string(),
                    r.threads.to_string(),
                    r.queries.to_string(),
                    fmt_ms(r.wall_ms),
                    fmt_ms(r.cpu_ms),
                    format!("{:.1}", r.qps),
                    format!("{:.2}x", r.speedup),
                    r.results.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Writes the rows in the shared `BENCH_*.json` envelope (the crate's
/// private `write_bench_json`).
pub fn write_json(rows: &[ApiRow], path: &str) -> std::io::Result<()> {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"dataset\": \"{}\", \"func\": \"{}\", \"threads\": {}, \
                 \"queries\": {}, \"threshold_queries\": {}, \"topk_queries\": {}, \
                 \"temporal_queries\": {}, \"wall_ms\": {:.3}, \"cpu_ms\": {:.3}, \
                 \"qps\": {:.3}, \"speedup\": {:.3}, \"results\": {}, \"wire_bytes\": {}}}",
                r.dataset,
                r.func,
                r.threads,
                r.queries,
                r.threshold_queries,
                r.topk_queries,
                r.temporal_queries,
                r.wall_ms,
                r.cpu_ms,
                r.qps,
                r.speedup,
                r.results,
                r.wire_bytes
            )
        })
        .collect();
    write_bench_json(path, "api", "queries_per_sec", &rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_workload_rows_are_coherent() {
        let rows = run("beijing", FuncKind::Lev, &[1, 2], 8, 6, 0.2, Scale(0.01));
        assert_eq!(rows.len(), 2);
        let r = &rows[0];
        assert_eq!(r.threads, 1);
        assert_eq!(r.queries, 6);
        assert_eq!(r.threshold_queries + r.topk_queries + r.temporal_queries, 6);
        assert!(
            r.topk_queries > 0 && r.temporal_queries > 0,
            "workload must mix"
        );
        assert!(r.wire_bytes > 0);
        assert!((r.speedup - 1.0).abs() < 1e-9);
        // Same workload at both thread counts → same result count.
        assert_eq!(rows[0].results, rows[1].results);
    }

    #[test]
    fn json_dump_uses_shared_envelope() {
        let rows = run("beijing", FuncKind::Lev, &[1], 8, 3, 0.2, Scale(0.01));
        let path = std::env::temp_dir().join("trajsearch_api_test.json");
        let path = path.to_str().unwrap();
        write_json(&rows, path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(text.contains("\"experiment\": \"api\""));
        assert!(text.contains("\"host_cpus\""));
        assert!(text.contains("\"topk_queries\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
