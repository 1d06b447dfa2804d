//! Figure 4 and Table 3: on-the-fly travel-time estimation (§6.2.1).
//!
//! Ground truth: the travel times of subtrajectories *exactly* matching the
//! query (queries are chosen sparse: 2–10 exact matches). Estimation:
//! average travel time of the subtrajectories *similar* to the query under a
//! function and τ-ratio, scored with leave-one-out cross-validation
//! (Appendix E) and reported relative to exact-match LOOCV
//! (`RMSE < 100%` ⇒ similarity search beats exact matching).
//!
//! WED instances go through the search engine; the non-WED comparators
//! (DTW, LCSS, LORS, LCRS) are evaluated by sliding-window scans over the
//! trajectories sharing symbols with the query (the paper enumerates
//! subtrajectories; the window scan is the substitution made here).

use crate::data::{Dataset, FuncKind, Scale};
use crate::table::print_table;
use rnet::Point;
use std::collections::HashMap;
use traj::TrajId;
use trajsearch_core::{AnyIndex, EngineBuilder, InvertedIndex, Query, SearchEngine};
use wed::nonwed::{dtw, lcrs, lcss, lors};
use wed::{wed, Sym};

/// Functions compared in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EstFunc {
    Wed(FuncKind),
    Dtw,
    Lcss,
    Lors,
    Lcrs,
}

impl EstFunc {
    const ALL: [EstFunc; 10] = [
        EstFunc::Wed(FuncKind::Lev),
        EstFunc::Wed(FuncKind::Edr),
        EstFunc::Wed(FuncKind::Erp),
        EstFunc::Wed(FuncKind::NetEdr),
        EstFunc::Wed(FuncKind::NetErp),
        EstFunc::Wed(FuncKind::Surs),
        EstFunc::Dtw,
        EstFunc::Lcss,
        EstFunc::Lors,
        EstFunc::Lcrs,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            EstFunc::Wed(k) => k.name(),
            EstFunc::Dtw => "DTW",
            EstFunc::Lcss => "LCSS",
            EstFunc::Lors => "LORS",
            EstFunc::Lcrs => "LCRS",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Fig4Row {
    pub func: &'static str,
    pub tau_ratio: f64,
    /// `MSE(τ)/MSE(exact)` in percent, averaged over queries.
    pub rmse_rel_pct: f64,
    pub queries_used: usize,
}

/// A query with its sparse exact-match ground truth.
struct GroundTruth {
    q: Vec<Sym>,
    /// trajectory id -> exact-match travel time (per-id best).
    exact: HashMap<TrajId, f64>,
}

/// Leave-one-out MSE of predicting each ground-truth value from the average
/// of the remaining sample (Appendix E).
fn loocv_mse(truth: &HashMap<TrajId, f64>, sample: &HashMap<TrajId, f64>) -> Option<f64> {
    let mut total = 0.0;
    let mut n = 0usize;
    for (&id, &omega) in truth {
        let (mut sum, mut cnt) = (0.0, 0usize);
        for (&sid, &v) in sample {
            if sid != id {
                sum += v;
                cnt += 1;
            }
        }
        if cnt == 0 {
            continue;
        }
        let est = sum / cnt as f64;
        total += (est - omega) * (est - omega);
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(total / n as f64)
    }
}

/// Finds sparse queries: subtrajectories whose exact-match count (distinct
/// trajectories) is in `[2, 10]`.
fn sparse_queries(d: &Dataset, qlen: usize, want: usize) -> Vec<GroundTruth> {
    let lev = d.model(FuncKind::Lev);
    let (store, alphabet) = d.store_for(FuncKind::Lev);
    let engine = EngineBuilder::new(&*lev, store, alphabet).build();
    let mut out = Vec::new();
    for salt in 0..200u64 {
        if out.len() >= want {
            break;
        }
        for q in d.sample_queries(FuncKind::Lev, qlen, 4, 1000 + salt) {
            // dist < 0.5 <=> exact under Lev
            let hits = engine
                .run(&Query::threshold(q.clone(), 0.5).build().expect("valid"))
                .expect("run");
            let mut exact: HashMap<TrajId, f64> = HashMap::new();
            for m in &hits.matches {
                let t = store.get(m.id);
                let tt = t.travel_time(m.start, m.end);
                // Per-id best: exact matches tie at dist 0; keep the first
                // (shortest spans come from identical strings anyway).
                exact.entry(m.id).or_insert(tt);
            }
            if (2..=10).contains(&exact.len()) {
                out.push(GroundTruth { q, exact });
                if out.len() >= want {
                    break;
                }
            }
        }
    }
    out
}

/// Best similar subtrajectory per trajectory under a WED instance.
fn wed_sample(
    d: &Dataset,
    func: FuncKind,
    engine: &SearchEngine<'_, &(dyn wed::WedInstance + Sync), AnyIndex>,
    q_vertex: &[Sym],
    tau_ratio: f64,
) -> HashMap<TrajId, f64> {
    // Edge-representation functions need the query converted.
    let q = if func.uses_edges() {
        d.net.path_to_edges(q_vertex).expect("query is a path")
    } else {
        q_vertex.to_vec()
    };
    let tau = d.tau_for(*engine.model(), &q, tau_ratio);
    let out = engine
        .run(&Query::threshold(q, tau).build().expect("valid"))
        .expect("run");
    let mut best: HashMap<TrajId, (f64, usize, usize)> = HashMap::new();
    for m in &out.matches {
        let len = m.end - m.start;
        let e = best
            .entry(m.id)
            .or_insert((f64::INFINITY, usize::MAX, usize::MAX));
        if m.dist < e.0 - 1e-12 || ((m.dist - e.0).abs() <= 1e-12 && len < e.1) {
            *e = (m.dist, len, m.start);
        }
    }
    let mut sample = HashMap::new();
    for (id, (_d, len, start)) in best {
        // Convert edge positions back to vertex positions for travel time.
        let (s, t) = if func.uses_edges() {
            (start, start + len + 1)
        } else {
            (start, start + len)
        };
        let traj = &d.store.get(id);
        let t = t.min(traj.len() - 1);
        sample.insert(id, traj.travel_time(s, t));
    }
    sample
}

/// Best similar window per trajectory under a non-WED comparator.
fn nonwed_sample(
    d: &Dataset,
    func: EstFunc,
    index: &InvertedIndex,
    q: &[Sym],
    tau_ratio: f64,
) -> HashMap<TrajId, f64> {
    // Candidate trajectories: share at least a quarter of query symbols.
    let mut hits: HashMap<TrajId, usize> = HashMap::new();
    for &sym in q {
        for &(id, _) in index.postings(sym) {
            *hits.entry(id).or_insert(0) += 1;
        }
    }
    let min_hits = (q.len() / 4).max(1);
    let q_pts: Vec<Point> = q.iter().map(|&v| d.net.coord(v)).collect();
    let q_edges = d.net.path_to_edges(q).expect("query is a path");
    let wq: f64 = q_edges.iter().map(|&e| d.net.edge(e).length).sum();
    let seg_sum: f64 = q_pts.windows(2).map(|w| w[0].dist2(&w[1])).sum();
    let ew = |e: Sym| d.net.edge(e).length;

    let mut sample = HashMap::new();
    for (&id, &h) in &hits {
        if h < min_hits {
            continue;
        }
        let traj = d.store.get(id);
        let p = traj.path();
        // Sliding windows around the query length.
        let mut best: Option<(f64, usize, usize)> = None; // (score, s, t)
        let lens = [
            q.len().saturating_sub(q.len() / 4).max(2),
            q.len(),
            q.len() + q.len() / 4,
        ];
        for &wl in &lens {
            if p.len() < wl {
                continue;
            }
            let stride = (q.len() / 8).max(1);
            let mut s = 0;
            while s + wl <= p.len() {
                let t = s + wl - 1;
                let window = &p[s..=t];
                // score = normalized distance in [0, ...]; accept if < ratio.
                let score = match func {
                    EstFunc::Dtw => {
                        let w_pts: Vec<Point> = window.iter().map(|&v| d.net.coord(v)).collect();
                        dtw(&w_pts, &q_pts) / seg_sum.max(1e-9)
                    }
                    EstFunc::Lcss => {
                        let w_pts: Vec<Point> = window.iter().map(|&v| d.net.coord(v)).collect();
                        1.0 - lcss(&w_pts, &q_pts, 100.0) as f64 / q.len() as f64
                    }
                    EstFunc::Lors => {
                        let we = d.net.path_to_edges(window).expect("window is a path");
                        1.0 - lors(&we, &q_edges, ew) / wq.max(1e-9)
                    }
                    EstFunc::Lcrs => {
                        let we = d.net.path_to_edges(window).expect("window is a path");
                        1.0 - lcrs(&we, &q_edges, ew)
                    }
                    EstFunc::Wed(_) => unreachable!(),
                };
                if score <= tau_ratio
                    && best.is_none_or(|(bs, bs_s, bs_t)| {
                        score < bs - 1e-12 || ((score - bs).abs() <= 1e-12 && t - s < bs_t - bs_s)
                    })
                {
                    best = Some((score, s, t));
                }
                s += stride;
            }
        }
        if let Some((_, s, t)) = best {
            sample.insert(id, traj.travel_time(s, t));
        }
    }
    sample
}

/// Figure 4: relative RMSE per function and τ-ratio.
pub fn run_fig4(qlen: usize, nqueries: usize, tau_ratios: &[f64], scale: Scale) -> Vec<Fig4Row> {
    let d = Dataset::load("beijing", scale);
    let truths = sparse_queries(&d, qlen, nqueries);
    assert!(
        !truths.is_empty(),
        "no sparse queries found; increase scale"
    );

    // Engines per WED function (built once).
    let models: Vec<(FuncKind, Box<dyn wed::WedInstance + Sync>)> =
        FuncKind::ALL.iter().map(|&k| (k, d.model(k))).collect();
    let engines: Vec<(
        FuncKind,
        SearchEngine<'_, &(dyn wed::WedInstance + Sync), AnyIndex>,
    )> = models
        .iter()
        .map(|(k, m)| {
            let (store, alphabet) = d.store_for(*k);
            (*k, EngineBuilder::new(&**m as _, store, alphabet).build())
        })
        .collect();
    let vertex_index = InvertedIndex::build(&d.store, d.net.num_vertices());

    let mut rows = Vec::new();
    for func in EstFunc::ALL {
        for &ratio in tau_ratios {
            let mut rel_sum = 0.0;
            let mut used = 0usize;
            for gt in &truths {
                let Some(mse_exact) = loocv_mse(&gt.exact, &gt.exact) else {
                    continue;
                };
                if mse_exact <= 0.0 {
                    continue;
                }
                let sample = match func {
                    EstFunc::Wed(k) => {
                        let engine = &engines.iter().find(|(ek, _)| *ek == k).unwrap().1;
                        wed_sample(&d, k, engine, &gt.q, ratio)
                    }
                    _ => nonwed_sample(&d, func, &vertex_index, &gt.q, ratio),
                };
                // Ground truths must be contained in the similar set for the
                // LOOCV protocol; merge to be safe (exact ⊆ similar holds for
                // WED by construction, and windows may miss them).
                let mut merged = sample;
                for (&id, &tt) in &gt.exact {
                    merged.entry(id).or_insert(tt);
                }
                if let Some(mse) = loocv_mse(&gt.exact, &merged) {
                    rel_sum += mse / mse_exact;
                    used += 1;
                }
            }
            if used > 0 {
                rows.push(Fig4Row {
                    func: func.name(),
                    tau_ratio: ratio,
                    rmse_rel_pct: 100.0 * rel_sum / used as f64,
                    queries_used: used,
                });
            }
        }
    }
    rows
}

pub fn print_fig4(rows: &[Fig4Row]) {
    println!("\nFigure 4: travel-time estimation, relative MSE (<100% beats exact match)");
    print_table(
        &["Func", "tau-ratio", "RMSE (%)", "#queries"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.func.to_string(),
                    format!("{}", r.tau_ratio),
                    format!("{:.1}", r.rmse_rel_pct),
                    r.queries_used.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Table 3: subtrajectory vs whole matching under SURS, top-k.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub k: usize,
    pub subtrajectory_pct: f64,
    pub whole_pct: f64,
}

pub fn run_table3(qlen: usize, nqueries: usize, ks: &[usize], scale: Scale) -> Vec<Table3Row> {
    let d = Dataset::load("beijing", scale);
    let truths = sparse_queries(&d, qlen, nqueries);
    assert!(!truths.is_empty());
    let surs = d.model(FuncKind::Surs);
    let (estore, alphabet) = d.store_for(FuncKind::Surs);
    let engine = EngineBuilder::new(&*surs, estore, alphabet).build();

    let mut rows = Vec::new();
    for &k in ks {
        let (mut sub_sum, mut whole_sum, mut used) = (0.0, 0.0, 0usize);
        for gt in &truths {
            let Some(mse_exact) = loocv_mse(&gt.exact, &gt.exact) else {
                continue;
            };
            if mse_exact <= 0.0 {
                continue;
            }
            let qe = d.net.path_to_edges(&gt.q).unwrap();

            // Subtrajectory: per-id best match under a generous threshold,
            // then top-k by distance.
            let tau = d.tau_for(&*surs, &qe, 0.5);
            let out = engine
                .run(&Query::threshold(qe.clone(), tau).build().expect("valid"))
                .expect("run");
            let mut best: HashMap<TrajId, (f64, usize, usize)> = HashMap::new();
            for m in &out.matches {
                let e = best.entry(m.id).or_insert((f64::INFINITY, 0, 0));
                if m.dist < e.0 {
                    *e = (m.dist, m.start, m.end);
                }
            }
            let mut ranked: Vec<(TrajId, f64, usize, usize)> = best
                .into_iter()
                .map(|(id, (dd, s, t))| (id, dd, s, t))
                .collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
            let sub_sample: HashMap<TrajId, f64> = ranked
                .iter()
                .take(k)
                .map(|&(id, _, s, t)| {
                    let traj = d.store.get(id);
                    let vt = (t + 1).min(traj.len() - 1);
                    (id, traj.travel_time(s, vt))
                })
                .collect();

            // Whole matching: rank trajectories by wed(P, Q), take top-k;
            // travel time is the whole trajectory duration.
            let mut whole: Vec<(TrajId, f64)> = estore
                .iter()
                .map(|(id, t)| (id, wed(&*surs, t.path(), &qe)))
                .collect();
            whole.sort_by(|a, b| b.1.total_cmp(&a.1).reverse());
            let whole_sample: HashMap<TrajId, f64> = whole
                .iter()
                .take(k)
                .map(|&(id, _)| {
                    let traj = d.store.get(id);
                    (id, traj.travel_time(0, traj.len() - 1))
                })
                .collect();

            if let (Some(ms), Some(mw)) = (
                loocv_mse(&gt.exact, &{
                    let mut m = sub_sample.clone();
                    for (&id, &tt) in &gt.exact {
                        m.entry(id).or_insert(tt);
                    }
                    m
                }),
                loocv_mse(&gt.exact, &whole_sample),
            ) {
                sub_sum += ms / mse_exact;
                whole_sum += mw / mse_exact;
                used += 1;
            }
        }
        if used > 0 {
            rows.push(Table3Row {
                k,
                subtrajectory_pct: 100.0 * sub_sum / used as f64,
                whole_pct: 100.0 * whole_sum / used as f64,
            });
        }
    }
    rows
}

pub fn print_table3(rows: &[Table3Row]) {
    println!("\nTable 3: RMSE of travel time, subtrajectory vs whole matching (SURS, top-k)");
    print_table(
        &["k", "Subtrajectory", "Whole"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.k.to_string(),
                    format!("{:.0}%", r.subtrajectory_pct),
                    format!("{:.0}%", r.whole_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loocv_basics() {
        let truth: HashMap<TrajId, f64> = [(1, 10.0), (2, 12.0)].into();
        // Perfect sample: predicting 10 from {12} gives error 2; from {10}: 2.
        let mse = loocv_mse(&truth, &truth).unwrap();
        assert!((mse - 4.0).abs() < 1e-9);
        // Singleton truth has no leave-one-out estimate.
        let single: HashMap<TrajId, f64> = [(1, 10.0)].into();
        assert_eq!(loocv_mse(&single, &single), None);
    }

    #[test]
    fn fig4_produces_rows_for_wed_functions() {
        let rows = run_fig4(8, 3, &[0.1], Scale(0.05));
        assert!(!rows.is_empty());
        let funcs: std::collections::HashSet<_> = rows.iter().map(|r| r.func).collect();
        assert!(funcs.contains("Lev"));
        assert!(funcs.contains("SURS"));
        for r in &rows {
            assert!(r.rmse_rel_pct.is_finite() && r.rmse_rel_pct >= 0.0);
        }
    }

    #[test]
    fn table3_subtrajectory_beats_whole() {
        let rows = run_table3(8, 3, &[5], Scale(0.05));
        if let Some(r) = rows.first() {
            assert!(
                r.subtrajectory_pct <= r.whole_pct,
                "whole matching should not beat subtrajectory: {} vs {}",
                r.subtrajectory_pct,
                r.whole_pct
            );
        }
    }
}
