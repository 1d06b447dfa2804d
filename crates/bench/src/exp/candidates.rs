//! Figure 11: filtering power — candidate counts of OSF vs DISON vs Torch
//! vs q-gram.
//!
//! Candidates are `(id, j, iq)` triples for OSF/DISON/Torch; the q-gram
//! filter prunes whole trajectories, so its count is trajectory-level
//! (an advantage for q-gram in this comparison — it still loses).

use crate::data::{Dataset, FuncKind, Scale};
use crate::methods::{MethodKind, MethodSet};
use crate::table::print_table;

#[derive(Debug, Clone)]
pub struct CandRow {
    pub func: &'static str,
    pub method: &'static str,
    /// τ-ratio or |Q| depending on the sweep.
    pub x: f64,
    pub avg_candidates: f64,
}

const FILTER_METHODS: [MethodKind; 4] = [
    MethodKind::OsfBt,
    MethodKind::DisonBt,
    MethodKind::TorchBt,
    MethodKind::QGram,
];

/// Left panel: vary τ-ratio at |Q| = qlen; right panel: vary |Q| at
/// τ-ratio = 0.1. `sweep_tau` selects the panel.
pub fn run(
    dataset: &str,
    funcs: &[FuncKind],
    xs: &[f64],
    sweep_tau: bool,
    qlen: usize,
    nqueries: usize,
    scale: Scale,
) -> Vec<CandRow> {
    let d = Dataset::load(dataset, scale);
    let mut rows = Vec::new();
    for &func in funcs {
        let model = d.model(func);
        let (store, alphabet) = d.store_for(func);
        let set = MethodSet::new(&*model, store, alphabet);
        for &x in xs {
            let (len, ratio) = if sweep_tau {
                (qlen, x)
            } else {
                (x as usize, 0.1)
            };
            let wl: Vec<(Vec<wed::Sym>, f64)> = d
                .sample_queries(func, len, nqueries, 110)
                .into_iter()
                .map(|q| {
                    let tau = d.tau_for(&*model, &q, ratio);
                    (q, tau)
                })
                .collect();
            for m in FILTER_METHODS.into_iter().filter(|&m| set.runs(m)) {
                let (_, stats) = set.run_workload(m, &wl);
                rows.push(CandRow {
                    func: func.name(),
                    method: m.name(),
                    x,
                    avg_candidates: stats.candidates as f64 / wl.len() as f64,
                });
            }
        }
    }
    rows
}

pub fn print(rows: &[CandRow], xlabel: &str) {
    println!("\nFigure 11: number of candidates (lower is better)");
    print_table(
        &["Func", xlabel, "Method", "avg #candidates"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.func.to_string(),
                    format!("{}", r.x),
                    r.method.to_string(),
                    format!("{:.1}", r.avg_candidates),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn osf_never_generates_more_than_torch() {
        let rows = run(
            "beijing",
            &[FuncKind::Lev, FuncKind::Edr],
            &[0.1, 0.2],
            true,
            8,
            3,
            Scale(0.01),
        );
        for func in ["Lev", "EDR"] {
            for x in [0.1, 0.2] {
                let get = |m: &str| {
                    rows.iter()
                        .find(|r| r.func == func && r.method == m && r.x == x)
                        .unwrap()
                        .avg_candidates
                };
                assert!(
                    get("OSF-BT") <= get("Torch-BT") + 1e-9,
                    "OSF must filter at least as well as Torch ({func}, {x})"
                );
                assert!(get("OSF-BT") <= get("DISON-BT") + 1e-9);
            }
        }
    }
}
