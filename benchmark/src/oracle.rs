//! The correctness oracle: after the timed phase a seeded sample of the
//! warm-up pass's answers is answered again by brute force.
//!
//! Two checks per sampled query, neither of which starts from the engine's
//! answer:
//!
//! * **Nothing false, over the full store.** Every match the engine
//!   returned, in whichever trajectory, has its distance recomputed by the
//!   whole-sequence function (`wed::wed`, `dtw_dist`, `frechet_dist`), which
//!   shares no code with the engine's incremental verification.
//! * **Nothing missed, on whole trajectories.** `baselines::naive_*` is
//!   cubic in the trajectory length, so it cannot sweep 8 000 trajectories.
//!   It sweeps a subset of *whole* trajectories chosen without looking at
//!   the answer — the ones sharing the most symbols with the pattern's
//!   neighbourhoods (where any true match must lie, found by a plain scan of
//!   the store) and a seeded random one — and on that subset the engine's
//!   full match set must equal the brute-force one. For top-k, no
//!   trajectory of the subset may beat a ranked one.
//!
//! Patterns longer than [`MAX_PATTERN`] are not sampled: one |Q| = 80
//! NetEDR sweep of one trajectory takes over a second.

use crate::data::Dataset;
use baselines::{naive_dtw_search, naive_frechet_search, naive_search};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use traj::{TrajId, TrajectoryStore};
use trajsearch_core::{per_trajectory_best, MatchResult, Metric, Objective, Query, Response};
use wed::{dtw_dist, frechet_dist, Sym, WedInstance};

/// Queries re-answered per workload.
pub const SAMPLE: usize = 24;
/// Longest pattern the sample takes.
pub const MAX_PATTERN: usize = 40;
/// DP cells one query's brute-force sweep may cost; sets how many whole
/// trajectories it covers after the first (100 symbols against |Q| = 20
/// are 3.4 M cells, at 5 ns a cell under EDR and ERP).
pub const CELL_BUDGET: u64 = 8_000_000;

/// `SAMPLE` distinct members of `eligible` (all of them when there are
/// fewer), in ascending order.
pub fn sample(mut eligible: Vec<usize>, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let n = eligible.len();
    for i in 0..SAMPLE.min(n) {
        let j = rng.gen_range(i..n);
        eligible.swap(i, j);
    }
    eligible.truncate(SAMPLE);
    eligible.sort_unstable();
    eligible
}

/// Cells `naive_*` evaluates on one trajectory of `n` symbols: every
/// substring against the whole pattern.
fn sweep_cells(n: usize, q_len: usize) -> u64 {
    let n = n as u64;
    n * (n + 1) * (n + 2) / 6 * q_len as u64
}

/// The trajectories brute force sweeps for `q`, best contender first: by
/// descending count of positions whose symbol lies in some `B(q_i)` (no
/// more than |Q| of them count), the shorter, hence cheaper, first among
/// equals. A seeded random one goes second. As many as the budget covers.
fn swept_ids<M: WedInstance>(
    model: &M,
    store: &TrajectoryStore,
    alphabet: usize,
    q: &[Sym],
    cell_budget: u64,
    rng: &mut ChaCha8Rng,
) -> Vec<TrajId> {
    let mut near = vec![false; alphabet];
    for &s in q {
        for b in model.neighbors(s) {
            near[b as usize] = true;
        }
    }
    let mut ranked: Vec<(usize, usize, TrajId)> = store
        .iter()
        .map(|(id, t)| {
            let shared = t.path().iter().filter(|&&s| near[s as usize]).count();
            (shared.min(q.len()), t.len(), id)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let random = rng.gen_range(0..store.len() as TrajId);
    let order = std::iter::once(ranked[0].2)
        .chain(std::iter::once(random))
        .chain(ranked[1..].iter().map(|r| r.2));

    let mut ids: Vec<TrajId> = Vec::new();
    let mut cells = 0u64;
    for id in order {
        let cost = sweep_cells(store.get(id).len(), q.len());
        if !ids.is_empty() && cells + cost > cell_budget {
            break;
        }
        if !ids.contains(&id) {
            ids.push(id);
            cells += cost;
        }
    }
    ids.sort_unstable();
    ids
}

/// Checks one answer of the engine against brute force, sweeping whole
/// trajectories up to `cell_budget` DP cells.
pub fn check<M: WedInstance>(
    model: &M,
    ds: &Dataset,
    cell_budget: u64,
    query: &Query,
    response: &Response,
    rng: &mut ChaCha8Rng,
) -> Result<(), String> {
    let (store, q) = (&ds.store, query.pattern());
    let dist = |p: &[Sym]| match query.metric() {
        Metric::Wed => Ok(wed::wed(model, p, q)),
        Metric::Dtw => Ok(dtw_dist(model, p, q)),
        Metric::Frechet => Ok(frechet_dist(model, p, q)),
        Metric::Lcss { .. } => Err("no workload issues LCSS queries".to_string()),
    };
    let limit = match query.objective() {
        Objective::Threshold { tau } => tau,
        Objective::TopK { max_tau, .. } => max_tau,
    };

    // Nothing false: every returned match, wherever it lies.
    for m in &response.matches {
        let t = store.get(m.id);
        let d = dist(&t.path()[m.start..=m.end])?;
        let in_time = query
            .temporal()
            .is_none_or(|c| c.accepts(t.times()[m.start], t.times()[m.end]));
        if !close(d, m.dist) || !(d < limit || close(d, limit)) || !in_time {
            return Err(format!(
                "match {m:?} recomputes to {d} (limit {limit}, inside the time constraint: {in_time})"
            ));
        }
    }

    // Nothing missed: brute force over whole trajectories.
    let ids = swept_ids(model, store, ds.alphabet, q, cell_budget, rng);
    let mut swept = TrajectoryStore::with_capacity(ids.len());
    for &id in &ids {
        swept.push(store.get(id).clone());
    }
    let mut want = match query.metric() {
        Metric::Wed => naive_search(model, &swept, q, limit),
        Metric::Dtw => naive_dtw_search(model, &swept, q, limit),
        Metric::Frechet => naive_frechet_search(model, &swept, q, limit),
        Metric::Lcss { .. } => unreachable!("refused above"),
    };
    for m in &mut want {
        m.id = ids[m.id as usize];
    }
    if let Some(c) = query.temporal() {
        want.retain(|m| {
            let times = store.get(m.id).times();
            c.accepts(times[m.start], times[m.end])
        });
    }
    let got: Vec<MatchResult> = response
        .matches
        .iter()
        .filter(|m| ids.binary_search(&m.id).is_ok())
        .copied()
        .collect();

    match query.objective() {
        Objective::Threshold { tau } => {
            let keyed = |ms: &[MatchResult]| -> BTreeMap<(TrajId, usize, usize), f64> {
                ms.iter()
                    .map(|m| ((m.id, m.start, m.end), m.dist))
                    .collect()
            };
            let (want, got) = (keyed(&want), keyed(&got));
            for span in want.keys().chain(got.keys()) {
                let agree = match (want.get(span), got.get(span)) {
                    (Some(&a), Some(&b)) => close(a, b),
                    // Present on one side only: sound only on the boundary.
                    (Some(&d), None) | (None, Some(&d)) => close(d, tau),
                    (None, None) => unreachable!("the span came from one of the two"),
                };
                if !agree {
                    return Err(format!(
                        "span {span:?}: engine {:?}, brute force {:?}, τ {tau}, swept {ids:?}",
                        got.get(span),
                        want.get(span)
                    ));
                }
            }
        }
        Objective::TopK { k, max_tau, .. } => {
            // A full ranking ends at its k-th distance; a short one means
            // the engine grew τ to `max_tau` and returned all it found.
            let ranked = &response.matches;
            let cutoff = if ranked.len() == k {
                ranked[k - 1].dist
            } else {
                max_tau
            };
            let best = per_trajectory_best(&want);
            for &id in &ids {
                let theirs = best.get(&id).map(|m| m.dist);
                let ours = got.iter().find(|m| m.id == id).map(|m| m.dist);
                let agree = match (theirs, ours) {
                    (Some(a), Some(b)) => close(a, b),
                    (Some(d), None) => d >= cutoff || close(d, cutoff),
                    (None, Some(d)) => close(d, max_tau),
                    (None, None) => true,
                };
                if !agree {
                    return Err(format!(
                        "trajectory {id}: ranked at {ours:?}, brute-force best {theirs:?}, cutoff {cutoff}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Equal up to the rounding of a different summation order: the engine
/// grows a match in two directions from an anchor, brute force sweeps it
/// left to right.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{self, tau_for};
    use trajsearch_core::EngineBuilder;

    /// The oracle is not satisfied by construction: it refuses an answer
    /// that lost the matches of a swept trajectory and one that gained a
    /// match brute force does not find.
    #[test]
    fn flags_a_dropped_match_and_an_invented_one() {
        let ds = Dataset::generate(7, true);
        let model = ds.edr();
        let q = ds.sample_patterns(20, 1, 0x7E57).remove(0);
        let tau = tau_for(&model, &q, 0.3);
        let query = Query::threshold(q.clone(), tau).build().expect("valid");
        let engine = EngineBuilder::new(&model, &ds.store, ds.alphabet).build();
        let honest = engine.run(&query).expect("the query runs");
        let rng = || data::rng(7, 1);
        assert_eq!(
            check(&model, &ds, CELL_BUDGET, &query, &honest, &mut rng()),
            Ok(())
        );

        let swept = swept_ids(&model, &ds.store, ds.alphabet, &q, CELL_BUDGET, &mut rng());
        let hit = swept
            .iter()
            .find(|&&id| honest.matches.iter().any(|m| m.id == id))
            .expect("the pattern's own trajectory is swept and matches");
        let mut dropped = honest.clone();
        dropped.matches.retain(|m| m.id != *hit);
        assert!(check(&model, &ds, CELL_BUDGET, &query, &dropped, &mut rng()).is_err());

        let mut invented = honest.clone();
        let far = (0..ds.store.len() as TrajId)
            .find(|&id| honest.matches.iter().all(|m| m.id != id))
            .expect("some trajectory does not match");
        invented.matches.push(MatchResult {
            id: far,
            start: 0,
            end: q.len() - 1,
            dist: 0.0,
        });
        assert!(check(&model, &ds, CELL_BUDGET, &query, &invented, &mut rng()).is_err());
    }
}
