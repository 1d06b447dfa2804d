//! Figures 6–8 (query time vs τ-ratio / |Q| / dataset size) and Table 4
//! (running-time breakdown).

use crate::data::{Dataset, FuncKind, Scale};
use crate::methods::{MethodKind, MethodSet};
use crate::table::{fmt_ms, print_table};
use trajsearch_core::SearchStats;
use wed::Sym;

/// One measured point of a query-time sweep.
#[derive(Debug, Clone)]
pub struct TimeRow {
    pub dataset: String,
    pub func: &'static str,
    pub method: &'static str,
    /// Sweep coordinate: τ-ratio (fig 6), |Q| (fig 7) or data fraction
    /// (fig 8).
    pub x: f64,
    pub ms_per_query: f64,
    pub stats: SearchStats,
}

fn workload(
    d: &Dataset,
    model: &dyn wed::WedInstance,
    kind: FuncKind,
    qlen: usize,
    n: usize,
    ratio: f64,
    salt: u64,
) -> Vec<(Vec<Sym>, f64)> {
    d.sample_queries(kind, qlen, n, salt)
        .into_iter()
        .map(|q| {
            let tau = d.tau_for(model, &q, ratio);
            (q, tau)
        })
        .collect()
}

/// Figure 6: vary τ-ratio.
///
/// Every method is exact, so each one's merged `results` must equal
/// Plain-SW's in every (dataset, function, τ-ratio) cell; a cell without a
/// Plain-SW row runs Plain-SW for the reference. Panics on a mismatch.
/// q-gram has no row in a cell whose function lacks unit costs.
pub fn run_fig6(
    datasets: &[&str],
    funcs: &[FuncKind],
    methods: &[MethodKind],
    tau_ratios: &[f64],
    qlen: usize,
    nqueries: usize,
    scale: Scale,
) -> Vec<TimeRow> {
    let mut rows = Vec::new();
    for which in datasets {
        let d = Dataset::load(which, scale);
        for &func in funcs {
            let model = d.model(func);
            let (store, alphabet) = d.store_for(func);
            let set = MethodSet::new(&*model, store, alphabet);
            for &ratio in tau_ratios {
                let wl = workload(&d, &*model, func, qlen, nqueries, ratio, 60);
                let cell = rows.len();
                for &m in methods.iter().filter(|&&m| set.runs(m)) {
                    let (ms, stats) = set.run_workload(m, &wl);
                    rows.push(TimeRow {
                        dataset: d.name.to_string(),
                        func: func.name(),
                        method: m.name(),
                        x: ratio,
                        ms_per_query: ms,
                        stats,
                    });
                }
                let plain_sw = MethodKind::PlainSw.name();
                let want = match rows[cell..].iter().find(|r| r.method == plain_sw) {
                    Some(r) => r.stats.results,
                    None => set.run_workload(MethodKind::PlainSw, &wl).1.results,
                };
                for r in &rows[cell..] {
                    assert_eq!(
                        r.stats.results, want,
                        "{} on {} / {} at tau-ratio {ratio}: results differ from {plain_sw}",
                        r.method, d.name, r.func
                    );
                }
            }
        }
    }
    rows
}

/// Figure 7: vary query length at fixed τ-ratio = 0.1.
pub fn run_fig7(
    datasets: &[&str],
    funcs: &[FuncKind],
    methods: &[MethodKind],
    qlens: &[usize],
    nqueries: usize,
    scale: Scale,
) -> Vec<TimeRow> {
    let mut rows = Vec::new();
    for which in datasets {
        let d = Dataset::load(which, scale);
        for &func in funcs {
            let model = d.model(func);
            let (store, alphabet) = d.store_for(func);
            let set = MethodSet::new(&*model, store, alphabet);
            for &qlen in qlens {
                let wl = workload(&d, &*model, func, qlen, nqueries, 0.1, 70);
                for &m in methods.iter().filter(|&&m| set.runs(m)) {
                    let (ms, stats) = set.run_workload(m, &wl);
                    rows.push(TimeRow {
                        dataset: d.name.to_string(),
                        func: func.name(),
                        method: m.name(),
                        x: qlen as f64,
                        ms_per_query: ms,
                        stats,
                    });
                }
            }
        }
    }
    rows
}

/// Figure 8: vary dataset size (prefix fractions) at τ-ratio = 0.1.
pub fn run_fig8(
    datasets: &[&str],
    funcs: &[FuncKind],
    methods: &[MethodKind],
    fractions: &[f64],
    qlen: usize,
    nqueries: usize,
    scale: Scale,
) -> Vec<TimeRow> {
    let mut rows = Vec::new();
    for which in datasets {
        let d = Dataset::load(which, scale);
        for &func in funcs {
            let model = d.model(func);
            let (full_store, alphabet) = d.store_for(func);
            // Sample queries from the smallest prefix so every fraction can
            // contain the query's source trajectory.
            let wl_queries = d.sample_queries(func, qlen, nqueries, 80);
            for &frac in fractions {
                let store = full_store.prefix((full_store.len() as f64 * frac).round() as usize);
                let set = MethodSet::new(&*model, &store, alphabet);
                let wl: Vec<(Vec<Sym>, f64)> = wl_queries
                    .iter()
                    .map(|q| (q.clone(), d.tau_for(&*model, q, 0.1)))
                    .collect();
                for &m in methods.iter().filter(|&&m| set.runs(m)) {
                    let (ms, stats) = set.run_workload(m, &wl);
                    rows.push(TimeRow {
                        dataset: d.name.to_string(),
                        func: func.name(),
                        method: m.name(),
                        x: frac,
                        ms_per_query: ms,
                        stats,
                    });
                }
            }
        }
    }
    rows
}

pub fn print_rows(title: &str, xlabel: &str, rows: &[TimeRow]) {
    println!("\n{title}");
    print_table(
        &[
            "Dataset", "Func", xlabel, "Method", "ms/query", "#cand", "#results",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.func.to_string(),
                    format!("{}", r.x),
                    r.method.to_string(),
                    fmt_ms(r.ms_per_query),
                    r.stats.candidates.to_string(),
                    r.stats.results.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Table 4: running-time breakdown of OSF-BT (MinCand / lookup / verify).
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    pub setting: String,
    pub mincand_ms: f64,
    pub lookup_ms: f64,
    pub verify_ms: f64,
}

pub fn run_table4(scale: Scale) -> Vec<BreakdownRow> {
    let d = Dataset::load("beijing", scale);
    let func = FuncKind::Edr;
    let model = d.model(func);
    let (store, alphabet) = d.store_for(func);
    let set = MethodSet::new(&*model, store, alphabet);
    let settings: Vec<(String, usize, f64)> = vec![
        ("default (r=0.1, |Q|=60)".into(), 60, 0.1),
        ("r=0.2".into(), 60, 0.2),
        ("r=0.3".into(), 60, 0.3),
        ("|Q|=20".into(), 20, 0.1),
        ("|Q|=40".into(), 40, 0.1),
    ];
    settings
        .into_iter()
        .map(|(setting, qlen, ratio)| {
            let wl = workload(&d, &*model, func, qlen, 20, ratio, 90);
            let (_, stats) = set.run_workload(MethodKind::OsfBt, &wl);
            let n = wl.len() as f64;
            BreakdownRow {
                setting,
                mincand_ms: stats.mincand_time.as_secs_f64() * 1e3 / n,
                lookup_ms: stats.lookup_time.as_secs_f64() * 1e3 / n,
                verify_ms: stats.verify_time.as_secs_f64() * 1e3 / n,
            }
        })
        .collect()
}

pub fn print_table4(rows: &[BreakdownRow]) {
    println!("\nTable 4: running time breakdown of OSF-BT (Beijing / EDR, ms per query)");
    print_table(
        &["Setting", "MinCand", "Index lookup", "Verify"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.setting.clone(),
                    fmt_ms(r.mincand_ms),
                    fmt_ms(r.lookup_ms),
                    fmt_ms(r.verify_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_rows_cover_the_grid() {
        let rows = run_fig6(
            &["beijing"],
            &[FuncKind::Lev],
            &[MethodKind::OsfBt, MethodKind::TorchBt],
            &[0.1, 0.2],
            8,
            2,
            Scale(0.01),
        );
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.ms_per_query >= 0.0));
    }

    #[test]
    fn table4_breakdown_sums_to_positive_verify() {
        let rows = run_table4(Scale(0.01));
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.verify_ms >= 0.0);
            assert!(r.mincand_ms >= 0.0);
        }
    }
}
