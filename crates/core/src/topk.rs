//! Top-k subtrajectory search.
//!
//! The paper's effectiveness study (Table 3) uses a *top-k* setting: the `k`
//! trajectories whose best-matching subtrajectory has the smallest WED to
//! the query, with ties broken by the shorter and then earlier span. This
//! module implements that on top of threshold search by geometric threshold
//! growth: search at τ, and if fewer than `k` distinct trajectories matched,
//! double τ and retry. The result is exact: once `k` trajectories match
//! below τ, any unseen trajectory's best distance is ≥ τ and cannot enter
//! the top `k`.
//!
//! Reached through the unified surface as
//! [`Query::top_k`](crate::Query::top_k) +
//! [`SearchEngine::run`](crate::SearchEngine::run); the responses' `matches`
//! are the ranked best matches (position = rank).

use crate::api::Response;
use crate::query::QueryError;
use crate::results::MatchResult;
use crate::search::ExecCtx;
use crate::stats::SearchStats;
use std::cmp::Ordering;
use std::collections::HashMap;
use traj::TrajId;

/// One top-k entry: the best match of one trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    pub rank: usize,
    pub best: MatchResult,
}

/// The threshold-growth loop behind [`Objective::TopK`](crate::Objective),
/// around `threshold_search(tau, ctx)` — the engine's one threshold
/// execution path with the query's pattern and options bound.
/// Returns the ranked best matches (rank order) plus the per-round stats
/// merged over every growth round, with `results` set to the returned entry
/// count.
///
/// The deadline is checked between growth rounds (on top of the checkpoints
/// each round's threshold search performs internally); expiry is
/// [`QueryError::DeadlineExceeded`] — a partially grown ranking is never
/// returned.
pub(crate) fn top_k_growth(
    k: usize,
    initial_tau: f64,
    max_tau: f64,
    ctx: ExecCtx<'_>,
    mut threshold_search: impl FnMut(f64, ExecCtx<'_>) -> Result<Response, QueryError>,
) -> Result<Response, QueryError> {
    let mut stats = SearchStats::default();
    let mut tau = initial_tau;
    let mut round: u64 = 0;
    loop {
        ctx.deadline.check()?;
        // One span per growth round (`detail` = round index), so a trace
        // shows how many thresholds a top-k answer burned through.
        let span = ctx.tracer.span_with("topk_round", round);
        let out = threshold_search(
            tau,
            ExecCtx {
                tracer: span.child(),
                ..ctx
            },
        );
        span.finish();
        round += 1;
        let out = out?;
        stats.merge(&out.stats);
        let best = per_trajectory_best(&out.matches);
        if best.len() >= k || tau >= max_tau {
            let mut ranked: Vec<MatchResult> = best.into_values().collect();
            ranked.sort_by(rank_cmp);
            ranked.truncate(k);
            stats.results = ranked.len();
            return Ok(Response {
                matches: ranked,
                stats,
            });
        }
        tau = (tau * 2.0).min(max_tau);
    }
}

/// The one top-k comparator (§6.2.1): exact distance (`total_cmp`, no
/// epsilon), then shorter span, then `(id, start)` for a total
/// deterministic order. Both [`per_trajectory_best`] and the final ranking
/// use it, so near-equal distances can never tie-break by span *within* a
/// trajectory while ranking by raw float bits *across* trajectories.
pub(crate) fn rank_cmp(a: &MatchResult, b: &MatchResult) -> Ordering {
    a.dist
        .total_cmp(&b.dist)
        .then((a.end - a.start).cmp(&(b.end - b.start)))
        .then((a.id, a.start).cmp(&(b.id, b.start)))
}

/// Per-trajectory best match: smallest distance, tie-broken by shorter span,
/// then earlier start (the paper's tie-break in §6.2.1) — via the same
/// exact `rank_cmp` comparator the final ranking sorts with. The engine
/// reports exact (not approximated) distances, so there is no epsilon: two
/// spans tie only when their distances are bit-equal.
pub fn per_trajectory_best(matches: &[MatchResult]) -> HashMap<TrajId, MatchResult> {
    let mut best: HashMap<TrajId, MatchResult> = HashMap::new();
    for m in matches {
        match best.get(&m.id) {
            None => {
                best.insert(m.id, *m);
            }
            Some(cur) => {
                if rank_cmp(m, cur) == Ordering::Less {
                    best.insert(m.id, *m);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, Query, SearchEngine};
    use traj::{Trajectory, TrajectoryStore};
    use wed::models::Lev;

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::untimed(vec![1, 2, 3, 4])); // exact match
        s.push(Trajectory::untimed(vec![1, 2, 9, 4])); // distance 1
        s.push(Trajectory::untimed(vec![1, 9, 9, 4])); // distance 2
        s.push(Trajectory::untimed(vec![7, 7, 7, 7])); // distance 4 (all subs)
        s
    }

    fn run_top_k(
        engine: &SearchEngine<'_, &Lev, crate::AnyIndex>,
        q: &[u32],
        k: usize,
        initial_tau: f64,
        max_tau: f64,
    ) -> Vec<TopKEntry> {
        engine
            .run(&Query::top_k(q, k, initial_tau, max_tau).build().unwrap())
            .unwrap()
            .ranked()
    }

    #[test]
    fn top_k_ranks_by_best_distance() {
        let s = store();
        let engine = EngineBuilder::new(&Lev, &s, 12).build();
        let q = [1u32, 2, 3, 4];
        let top = run_top_k(&engine, &q, 3, 0.5, 10.0);
        assert_eq!(top.len(), 3);
        let ids: Vec<TrajId> = top.iter().map(|e| e.best.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(top[0].best.dist, 0.0);
        assert_eq!(top[1].best.dist, 1.0);
        assert_eq!(top[2].best.dist, 2.0);
        assert_eq!(top[0].rank, 0);
    }

    #[test]
    fn threshold_growth_finds_far_matches() {
        let s = store();
        let engine = EngineBuilder::new(&Lev, &s, 12).build();
        let q = [1u32, 2, 3, 4];
        // k = 4 forces tau to grow until trajectory 3 (distance 4) matches.
        let top = run_top_k(&engine, &q, 4, 0.5, 16.0);
        assert_eq!(top.len(), 4);
        assert_eq!(top[3].best.id, 3);
        assert_eq!(top[3].best.dist, 4.0);
    }

    #[test]
    fn max_tau_caps_the_result() {
        let s = store();
        let engine = EngineBuilder::new(&Lev, &s, 12).build();
        let q = [1u32, 2, 3, 4];
        // With max_tau = 1.5 only distances < 1.5 can be found.
        let top = run_top_k(&engine, &q, 4, 1.5, 1.5);
        assert_eq!(top.len(), 2);
        assert!(top.iter().all(|e| e.best.dist < 1.5));
    }

    #[test]
    fn tie_break_prefers_shorter_then_earlier() {
        let mut s = TrajectoryStore::new();
        // Two distance-0 matches in the same trajectory: [1,2] at 0 and 3.
        s.push(Trajectory::untimed(vec![1, 2, 9, 1, 2]));
        let engine = EngineBuilder::new(&Lev, &s, 12).build();
        let top = run_top_k(&engine, &[1, 2], 1, 0.5, 4.0);
        assert_eq!(top[0].best.start, 0, "earlier span must win the tie");
        assert_eq!(top[0].best.end, 1);
    }

    #[test]
    fn top_k_stats_cover_growth_rounds() {
        let s = store();
        let engine = EngineBuilder::new(&Lev, &s, 12).build();
        // Forcing growth (k=4) merges several rounds' counters.
        let r = engine
            .run(
                &Query::top_k(vec![1, 2, 3, 4], 4, 0.5, 16.0)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(r.stats.results, r.matches.len());
        assert!(r.stats.candidates > 0);
    }

    #[test]
    fn per_trajectory_best_tiebreaks() {
        let ms = [
            MatchResult {
                id: 1,
                start: 2,
                end: 5,
                dist: 1.0,
            },
            MatchResult {
                id: 1,
                start: 3,
                end: 5,
                dist: 1.0,
            }, // shorter
            MatchResult {
                id: 1,
                start: 0,
                end: 2,
                dist: 1.0,
            }, // same len, earlier
        ];
        let best = per_trajectory_best(&ms);
        let b = best[&1];
        assert_eq!((b.start, b.end), (0, 2));
    }

    #[test]
    fn sub_epsilon_distances_rank_exactly() {
        use std::cmp::Ordering;
        // Regression: `per_trajectory_best` used a 1e-12 epsilon while the
        // final ranking compared exactly, so distances differing by less
        // than the epsilon tie-broke by span within a trajectory but by raw
        // float bits across trajectories.
        let tiny = 1.0 + 4e-13; // < 1e-12 above 1.0, yet representable
        assert!(tiny > 1.0);
        let ms = [
            MatchResult {
                id: 1,
                start: 0,
                end: 4,
                dist: 1.0,
            },
            MatchResult {
                id: 1,
                start: 0,
                end: 1,
                dist: tiny,
            }, // much shorter span, fractionally farther
            MatchResult {
                id: 2,
                start: 3,
                end: 4,
                dist: tiny,
            },
        ];
        let best = per_trajectory_best(&ms);
        // Exact comparison: the strictly smaller distance wins within the
        // trajectory; the old epsilon would have let the shorter span win.
        assert_eq!((best[&1].start, best[&1].end), (0, 4));
        assert_eq!(best[&1].dist, 1.0);
        // The identical comparator orders the survivors across
        // trajectories, so the two passes can never disagree.
        assert_eq!(rank_cmp(&best[&1], &best[&2]), Ordering::Less);
    }
}
