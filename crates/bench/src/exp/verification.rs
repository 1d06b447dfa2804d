//! Table 5: verification pruning rates (UPR / CMR / TUR) of OSF-BT, and
//! the §5 ablation behind Tables 4–5: the same workload verified by SW (no
//! locality), Local (bidirectional + early termination, no cache) and Trie
//! (the paper's BT).

use crate::data::{Dataset, FuncKind, Scale};
use crate::methods::{MethodKind, MethodSet};
use crate::table::{fmt_ms, fmt_pct, print_table};
use trajsearch_core::{EngineBuilder, Query, SearchStats, VerifyMode};
use wed::{Sym, WedInstance};

#[derive(Debug, Clone)]
pub struct VerifRow {
    pub setting: String,
    pub upr: f64,
    pub cmr: f64,
    pub tur: f64,
}

/// 15 EDR queries of `qlen` symbols at τ-ratio `ratio`.
fn workload(d: &Dataset, model: &dyn WedInstance, qlen: usize, ratio: f64) -> Vec<(Vec<Sym>, f64)> {
    d.sample_queries(FuncKind::Edr, qlen, 15, 120)
        .into_iter()
        .map(|q| {
            let tau = d.tau_for(model, &q, ratio);
            (q, tau)
        })
        .collect()
}

pub fn run(scale: Scale) -> Vec<VerifRow> {
    let d = Dataset::load("beijing", scale);
    let func = FuncKind::Edr;
    let model = d.model(func);
    let (store, alphabet) = d.store_for(func);

    let mut rows = Vec::new();
    let mut measure = |setting: String, store: &traj::TrajectoryStore, qlen: usize, ratio: f64| {
        let set = MethodSet::new(&*model, store, alphabet);
        let wl = workload(&d, &*model, qlen, ratio);
        let (_, stats) = set.run_workload(MethodKind::OsfBt, &wl);
        rows.push(VerifRow {
            setting,
            upr: stats.upr(),
            cmr: stats.cmr(),
            tur: stats.tur(),
        });
    };

    measure("default (r=0.1, |Q|=60, 100%)".into(), store, 60, 0.1);
    measure("r=0.2".into(), store, 60, 0.2);
    measure("r=0.3".into(), store, 60, 0.3);
    measure("|Q|=20".into(), store, 20, 0.1);
    measure("|Q|=40".into(), store, 40, 0.1);
    let quarter = store.prefix(store.len() / 4);
    measure("25% data".into(), &quarter, 60, 0.1);
    let half = store.prefix(store.len() / 2);
    measure("50% data".into(), &half, 60, 0.1);
    rows
}

pub fn print(rows: &[VerifRow]) {
    println!("\nTable 5: verification pruning of OSF-BT (Beijing / EDR)");
    println!("  UPR = unpruned position rate, CMR = cache miss rate, TUR = UPR x CMR");
    print_table(
        &["Setting", "UPR", "CMR", "TUR"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.setting.clone(),
                    fmt_pct(r.upr),
                    fmt_pct(r.cmr),
                    fmt_pct(r.tur),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// One verification mode over the ablation workload.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub mode: &'static str,
    /// Verification time per query (`SearchStats::verify_time`), ms.
    pub verify_ms: f64,
    /// DP columns computed fresh; SW computes none through a trie.
    pub stepdp_calls: u64,
    /// DP columns an exact Smith–Waterman scan computes (SW: its own work).
    pub sw_columns: u64,
}

/// The verification ablation on Table 5's default setting (r=0.1, |Q|=60,
/// 100% data): one engine, one workload, one row per verification mode.
/// The Trie row is OSF-BT itself, so its `stepdp_calls / sw_columns` is
/// the default row's TUR.
pub fn run_ablation(scale: Scale) -> Vec<AblationRow> {
    let d = Dataset::load("beijing", scale);
    let model = d.model(FuncKind::Edr);
    let (store, alphabet) = d.store_for(FuncKind::Edr);
    let engine = EngineBuilder::new(&*model, store, alphabet).build();
    let wl = workload(&d, &*model, 60, 0.1);
    [
        ("SW", VerifyMode::Sw),
        ("Local", VerifyMode::Local),
        ("Trie", VerifyMode::Trie),
    ]
    .into_iter()
    .map(|(mode_name, mode)| {
        let mut stats = SearchStats::default();
        for (q, tau) in &wl {
            let query = Query::threshold(q.clone(), *tau)
                .verify(mode)
                .build()
                .expect("workload queries are valid");
            stats.merge(&engine.run(&query).expect("run").stats);
        }
        AblationRow {
            mode: mode_name,
            verify_ms: stats.verify_time.as_secs_f64() * 1e3 / wl.len() as f64,
            stepdp_calls: stats.stepdp_calls,
            sw_columns: stats.sw_columns,
        }
    })
    .collect()
}

pub fn print_ablation(rows: &[AblationRow]) {
    println!("\nVerification ablation (Beijing / EDR, r=0.1, |Q|=60): SW vs Local vs Trie");
    println!("  SW scans each candidate trajectory (sw_columns is its work, no trie columns);");
    println!(
        "  Local and Trie compute stepdp_calls trie columns, Trie sharing them across candidates"
    );
    print_table(
        &["Mode", "verify ms/query", "stepdp_calls", "sw_columns"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    fmt_ms(r.verify_ms),
                    r.stepdp_calls.to_string(),
                    r.sw_columns.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_valid_and_pruning_happens() {
        let rows = run(Scale(0.02));
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.upr), "UPR out of range: {}", r.upr);
            assert!((0.0..=1.0).contains(&r.cmr), "CMR: {}", r.cmr);
            assert!((r.tur - r.upr * r.cmr).abs() < 1e-9);
        }
        // Early termination must prune at the default setting.
        assert!(rows[0].upr < 0.9, "no early-termination pruning observed");
        // Trie caching must hit at the default setting.
        assert!(rows[0].cmr < 0.9, "no cache sharing observed");
    }

    #[test]
    fn looser_threshold_increases_unpruned_rate() {
        let rows = run(Scale(0.02));
        let get = |s: &str| rows.iter().find(|r| r.setting.starts_with(s)).unwrap();
        assert!(
            get("r=0.3").upr >= get("default").upr,
            "UPR should grow with tau-ratio"
        );
    }

    #[test]
    fn trie_computes_no_more_columns_than_local() {
        let rows = run_ablation(Scale(0.02));
        let names: Vec<_> = rows.iter().map(|r| r.mode).collect();
        assert_eq!(names, ["SW", "Local", "Trie"]);
        let (local, trie) = (&rows[1], &rows[2]);
        assert!(
            trie.stepdp_calls > 0,
            "no verification work in the workload"
        );
        assert!(
            trie.stepdp_calls <= local.stepdp_calls,
            "Trie {} > Local {} fresh DP columns",
            trie.stepdp_calls,
            local.stepdp_calls
        );
        // Both verify the same candidates, so they price the same SW scan.
        assert_eq!(trie.sw_columns, local.sw_columns);
        // The Trie row is Table 5's default OSF-BT row.
        let default = &run(Scale(0.02))[0];
        let tur = trie.stepdp_calls as f64 / trie.sw_columns as f64;
        assert!(
            (tur - default.tur).abs() < 1e-12,
            "{tur} vs {}",
            default.tur
        );
    }
}
