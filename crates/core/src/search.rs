//! The search engine (Algorithm 2): index + filter + verify.
//!
//! [`SearchEngine`] owns an inverted index over a trajectory store and
//! answers subtrajectory similarity queries for *any* [`WedInstance`] — the
//! paper's headline property is that switching similarity functions requires
//! no algorithmic adaptation, only a different cost model.
//!
//! Construct engines with [`EngineBuilder`](crate::EngineBuilder) and query
//! them with [`SearchEngine::run`] (one [`Query`](crate::Query)) or
//! [`SearchEngine::run_batch`] (a workload of them). Every threshold search
//! — whatever the metric, deadline or tracing — is one call of
//! `execute_threshold` in this module: MinCand plan → postings lookup →
//! dedup → verification on the calling thread, with an exact scan when no
//! sound filter bound exists; top-k is a loop around it ([`crate::topk`]).
//!
//! Verification has two back halves and no third: the bidirectional tries
//! of [`crate::verify`] (WED in Local or Trie mode), and the
//! whole-trajectory scan of [`crate::metric`], which verifies WED in SW
//! mode and every other metric and also scans each trajectory of the exact
//! fallback.
//!
//! The default configuration is the paper's **OSF-BT**: optimized
//! subsequence filtering (MinCand) + bidirectional-trie verification.
//! [`SearchOptions`] (everything a [`Query`](crate::Query) says besides its
//! objective) selects the verification strategy (for the `OSF-SW` baseline
//! and the `Local` ablation), the metric, temporal constraints, and the TF
//! strategy of §4.3.

use crate::api::Response;
use crate::deadline::Deadline;
use crate::filter::FilterPlan;
use crate::index::{InvertedIndex, PostingSource};
use crate::metric::{Metric, ScanVerifier};
use crate::query::QueryError;
use crate::results::{MatchResult, ResultSet};
use crate::stats::SearchStats;
use crate::temporal::TemporalConstraint;
use crate::verify::{
    finish_verification, verify_all, Candidate, TrieCache, Verifier, VerifyMode, WedVerifier,
};
use std::time::{Duration, Instant};
use traj::TrajectoryStore;
use trajsearch_obs::Tracer;
use wed::{Sym, WedInstance};

/// Per-query options of the pipeline: everything a
/// [`Query`](crate::Query) carries besides its objective and deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchOptions {
    pub verify: VerifyMode,
    /// Distance metric the threshold ranges over (default WED). Non-WED
    /// metrics keep the shared candidate front half where its bound is
    /// sound ([`crate::metric`]) and verify by exact per-trajectory scans.
    pub metric: Metric,
    /// Optional temporal constraint on matched spans.
    pub temporal: Option<TemporalConstraint>,
    /// Apply the TF candidate pre-filter (§4.3). Ignored without a
    /// temporal constraint.
    pub temporal_filter: bool,
    /// §4.3 extension: generate candidates by binary search on
    /// by-departure-sorted postings instead of scanning full lists.
    /// Availability is validated at admission
    /// ([`QueryError::TemporalPostingsUnavailable`]).
    pub use_temporal_postings: bool,
}

/// What one execution carries besides the query itself: when to stop, where
/// spans go, and the batch-level trie cache when the workload shares one
/// ([`crate::BatchOptions::share_tries`]). Unbounded is [`Deadline::NONE`],
/// untraced is [`Tracer::disabled`], private tries is `None`.
#[derive(Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub deadline: Deadline,
    pub tracer: Tracer<'a>,
    pub cache: Option<&'a TrieCache>,
}

/// Subtrajectory similarity search engine (OSF filtering + pluggable
/// verification), generic over the postings layout `I` — the single-list
/// [`InvertedIndex`] by default, [`ShardedIndex`](crate::ShardedIndex), or
/// the [`AnyIndex`](crate::AnyIndex) produced by
/// [`EngineBuilder`](crate::EngineBuilder). The search path is
/// monomorphized over `I`; results are byte-identical for every layout over
/// the same store.
pub struct SearchEngine<'a, M: WedInstance, I: PostingSource = InvertedIndex> {
    model: M,
    store: &'a TrajectoryStore,
    index: I,
    build_time: Duration,
}

impl<'a, M: WedInstance, I: PostingSource> SearchEngine<'a, M, I> {
    /// The one constructor, used by [`EngineBuilder`](crate::EngineBuilder).
    pub(crate) fn from_parts(
        model: M,
        store: &'a TrajectoryStore,
        index: I,
        build_time: Duration,
    ) -> Self {
        SearchEngine {
            model,
            store,
            index,
            build_time,
        }
    }

    pub fn index(&self) -> &I {
        &self.index
    }

    /// Mutable access to the posting source, for post-build wiring that
    /// does not change what is indexed (e.g. attaching a trace sink to a
    /// remote source).
    pub fn index_mut(&mut self) -> &mut I {
        &mut self.index
    }

    pub fn store(&self) -> &TrajectoryStore {
        self.store
    }

    pub fn model(&self) -> &M {
        &self.model
    }

    /// Index construction time (Table 6).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Phases 1–2: the candidate plan, then candidate lookup
    /// (binary-searched when the §4.3 temporal postings are requested).
    /// `None` means no sound filter bound exists and the caller must fall
    /// back to an exact scan. The plan comes back beside the candidates:
    /// WED verification reads the neighbourhoods it priced.
    ///
    /// The plan is the strongest bound that is *sound* for the metric (see
    /// [`crate::metric`]): the full MinCand τ-subsequence for WED and DTW,
    /// the single-symbol plan for Fréchet, none for LCSS. The temporal
    /// lookup applies unchanged to every metric: it prunes by trajectory
    /// time spans.
    fn filter_and_lookup(
        &self,
        q: &[Sym],
        tau: f64,
        opts: &SearchOptions,
        stats: &mut SearchStats,
        tracer: Tracer<'_>,
    ) -> Option<(FilterPlan, Vec<Candidate>)> {
        assert!(tau > 0.0, "threshold must be positive");
        assert!(!q.is_empty(), "query must be non-empty");

        let t0 = Instant::now();
        let plan = match opts.metric {
            Metric::Wed | Metric::Dtw => FilterPlan::build(&self.model, &self.index, q, tau),
            Metric::Frechet => FilterPlan::build_single(&self.model, &self.index, q, tau),
            Metric::Lcss { .. } => return None,
        };
        stats.mincand_time = t0.elapsed();
        tracer.record_interval("filter", 0, t0, Instant::now());
        stats.tsubseq_len = plan.chosen.len();
        if !plan.feasible {
            return None;
        }

        let t1 = Instant::now();
        let candidates = match (
            &opts.temporal,
            opts.use_temporal_postings && self.index.has_temporal_postings(),
        ) {
            (Some(c), true) => plan.candidates_temporal(&self.index, c),
            _ => plan.candidates(&self.index),
        };
        stats.lookup_time = t1.elapsed();
        tracer.record_interval("lookup", candidates.len() as u64, t1, Instant::now());
        Some((plan, candidates))
    }
}

impl<'a, M: WedInstance + Sync, I: PostingSource + Sync> SearchEngine<'a, M, I> {
    /// Algorithm 2 — the one threshold execution path behind
    /// [`run`](SearchEngine::run), every batch worker and every top-k
    /// growth round.
    ///
    /// Verification — the dominant cost in the paper's Table 4 breakdown —
    /// runs on the calling thread with one verifier, as in the paper: the
    /// trie verifier for WED in Local or Trie mode, the whole-trajectory
    /// scan verifier for WED in SW mode and for every other metric.
    /// Trie-mode WED verification reads the batch-level `ctx.cache` when
    /// the batch shares tries, and keeps its tries private otherwise.
    ///
    /// When no sound filter bound exists (`c(Q) < τ`, possible for
    /// continuous cost models with small η; always for LCSS), filtering
    /// would be unsound; the engine transparently falls back to an exact
    /// scan and sets `stats.fallback`.
    pub(crate) fn execute_threshold(
        &self,
        q: &[Sym],
        tau: f64,
        opts: &SearchOptions,
        ctx: ExecCtx<'_>,
    ) -> Result<Response, QueryError> {
        let mut stats = SearchStats::default();
        let Some((plan, candidates)) = self.filter_and_lookup(q, tau, opts, &mut stats, ctx.tracer)
        else {
            let span = ctx.tracer.span("fallback_scan");
            let matches = fallback_scan(
                &self.model,
                self.store,
                q,
                tau,
                opts,
                ctx.deadline,
                &mut stats,
            )?;
            span.finish();
            return Ok(Response { matches, stats });
        };
        ctx.deadline.check()?;

        let t2 = Instant::now();
        let model = &self.model;
        let matches = match (opts.metric, opts.verify) {
            (Metric::Wed, mode @ (VerifyMode::Local | VerifyMode::Trie)) => {
                let local = mode == VerifyMode::Local;
                let mut verifier = WedVerifier::for_plan(&plan, model, q, tau, local, ctx.cache);
                self.verify(&candidates, &mut verifier, opts, ctx, &mut stats)
            }
            (metric, _) => {
                let mut verifier = ScanVerifier::new(model, q, tau, metric);
                self.verify(&candidates, &mut verifier, opts, ctx, &mut stats)
            }
        }?;
        stats.verify_time = t2.elapsed();
        ctx.tracer.record_interval("verify", 0, t2, Instant::now());

        Ok(Response { matches, stats })
    }

    /// Phase 3 for whichever verifier the query picked; generic, so each
    /// arm of the match stays monomorphized.
    fn verify<V: Verifier>(
        &self,
        candidates: &[Candidate],
        verifier: &mut V,
        opts: &SearchOptions,
        ctx: ExecCtx<'_>,
        stats: &mut SearchStats,
    ) -> Result<Vec<MatchResult>, QueryError> {
        verify_all(
            self.store,
            |id| self.index.span(id),
            candidates,
            verifier,
            opts.temporal.as_ref(),
            opts.temporal_filter,
            ctx,
            stats,
        )
    }
}

/// Exact Smith–Waterman scan of a whole store — the soundness fallback when
/// no τ-subsequence exists (`c(Q) < τ`). Shared by [`SearchEngine`] and the
/// filtering baselines so every method reports the same stats shape.
///
/// Sets `stats.fallback` and populates the counters coherently with the
/// indexed path so that merging a workload's stats never mixes incomparable
/// rows: every trajectory position counts as a candidate (that is what the
/// scan verifies), the TF pre-filter is charged to `lookup_time`, and
/// `sw_columns` counts each scanned trajectory once — hence
/// `sw_columns == candidates_after_temporal` on this path.
pub fn exact_fallback_scan<M: wed::CostModel>(
    model: &M,
    store: &TrajectoryStore,
    q: &[Sym],
    tau: f64,
    temporal: Option<&TemporalConstraint>,
    temporal_filter: bool,
    stats: &mut SearchStats,
) -> Vec<MatchResult> {
    let opts = SearchOptions {
        temporal: temporal.copied(),
        temporal_filter,
        ..SearchOptions::default()
    };
    fallback_scan(model, store, q, tau, &opts, Deadline::NONE, stats)
        .expect("a scan without a deadline cannot expire")
}

/// The exact scan behind [`exact_fallback_scan`], for any metric and with a
/// cooperative [`Deadline`] checked between scanned trajectories — the
/// fallback path's equivalent of the between-group checkpoints in
/// verification. Each selected trajectory goes through the scan verifier
/// ([`crate::metric`]) that SW-mode and non-WED verification run, so its
/// work is counted as theirs is: under a non-WED metric it lands in the
/// metric-neutral `verify_cost` only (the WED-specific `sw_columns` stays
/// zero).
///
/// Counter contract (pinned by `fallback_stats_are_coherent` and
/// `metric_fallback_stats_are_coherent`): the three candidate counters are
/// **pre-verification** quantities, exactly as on the indexed path.
/// `candidates` counts every trajectory position, the TF pre-filter (and
/// only it; span-based, hence sound for every metric) separates
/// `candidates_after_temporal` from `candidates`, and
/// `candidates_deduped == candidates_after_temporal` because positions of
/// distinct trajectories are inherently distinct. Rows dropped by the exact
/// temporal *post*-check never touch these counters — they are reflected in
/// `results` alone, again matching the indexed path.
fn fallback_scan<M: wed::CostModel>(
    model: &M,
    store: &TrajectoryStore,
    q: &[Sym],
    tau: f64,
    opts: &SearchOptions,
    deadline: Deadline,
    stats: &mut SearchStats,
) -> Result<Vec<MatchResult>, QueryError> {
    stats.fallback = true;

    // The scan's "lookup" phase: select the trajectories to scan (TF
    // pre-filter), mirroring candidate generation on the indexed path.
    let t1 = Instant::now();
    let mut scan: Vec<traj::TrajId> = Vec::with_capacity(store.len());
    let mut total_positions = 0usize;
    let mut scanned_positions = 0usize;
    for (id, traj) in store.iter() {
        total_positions += traj.len();
        if let (Some(c), true) = (&opts.temporal, opts.temporal_filter) {
            if !c.may_contain_match(traj.span()) {
                continue;
            }
        }
        scanned_positions += traj.len();
        scan.push(id);
    }
    stats.candidates = total_positions;
    stats.candidates_after_temporal = scanned_positions;
    stats.candidates_deduped = scanned_positions;
    stats.lookup_time = t1.elapsed();

    let t2 = Instant::now();
    let verifier = ScanVerifier::new(model, q, tau, opts.metric);
    let mut rs = ResultSet::new();
    for id in scan {
        deadline.check()?;
        verifier.scan(id, store.get(id).path(), &mut rs, stats);
    }
    let matches = finish_verification(rs, store, opts.temporal.as_ref(), stats);
    stats.verify_time = t2.elapsed();
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, Query};
    use rnet::{CityParams, NetworkKind};
    use std::sync::Arc;
    use traj::Trajectory;
    use wed::models::{Erp, Lev};
    use wed::wed;

    fn toy_store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::untimed(vec![0, 1, 2, 3, 4]));
        s.push(Trajectory::untimed(vec![3, 1, 5, 1, 2]));
        s.push(Trajectory::untimed(vec![9, 8, 7, 6]));
        s.push(Trajectory::untimed(vec![1, 2, 1, 2, 1]));
        s
    }

    fn brute_lev(store: &TrajectoryStore, q: &[Sym], tau: f64) -> Vec<(u32, usize, usize)> {
        let mut out = Vec::new();
        for (id, t) in store.iter() {
            let p = t.path();
            for s in 0..p.len() {
                for e in s..p.len() {
                    if wed(&Lev, &p[s..=e], q) < tau {
                        out.push((id, s, e));
                    }
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn engine_matches_brute_force_all_modes() {
        let store = toy_store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let q: Vec<Sym> = vec![1, 5, 2];
        for tau in [1.0, 2.0, 3.0] {
            let want = brute_lev(&store, &q, tau);
            for mode in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
                let query = Query::threshold(q.clone(), tau)
                    .verify(mode)
                    .build()
                    .unwrap();
                let got = engine.run(&query).unwrap();
                let keys: Vec<_> = got.matches.iter().map(|m| (m.id, m.start, m.end)).collect();
                assert_eq!(keys, want, "tau={tau} mode={mode:?}");
                assert!(!got.stats.fallback);
            }
        }
    }

    #[test]
    fn exact_distances_reported() {
        let store = toy_store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let q: Vec<Sym> = vec![1, 5, 2];
        let got = engine
            .run(&Query::threshold(q.clone(), 2.5).build().unwrap())
            .unwrap();
        assert!(!got.matches.is_empty());
        for m in &got.matches {
            let p = store.get(m.id).path();
            let direct = wed(&Lev, &p[m.start..=m.end], &q);
            assert!(
                (m.dist - direct).abs() < 1e-9,
                "reported {} but wed is {direct} for {:?}",
                m.dist,
                (m.id, m.start, m.end)
            );
        }
    }

    #[test]
    fn timing_breakdown_is_populated() {
        let store = toy_store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let out = engine
            .run(&Query::threshold(vec![1, 2], 1.0).build().unwrap())
            .unwrap();
        let s = &out.stats;
        assert!(s.candidates > 0);
        assert_eq!(s.tsubseq_len, 1);
        assert!(s.total_time() >= s.verify_time);
        assert_eq!(s.results, out.matches.len());
    }

    #[test]
    fn fallback_on_infeasible_filter_is_exact() {
        // ERP with a tiny network and a large tau relative to c(Q): force
        // infeasibility by using a tau bigger than the total lower costs.
        let net = Arc::new(CityParams::tiny(NetworkKind::Grid).generate());
        let erp = Erp::new(net.clone(), 5.0);
        let mut store = TrajectoryStore::new();
        store.push(Trajectory::untimed(vec![0, 1, 2]));
        store.push(Trajectory::untimed(vec![10, 11]));
        let engine = EngineBuilder::new(&erp, &store, net.num_vertices()).build();
        // total ins(q) is on the order of hundreds of meters; choose tau
        // larger than c(Q) (which is bounded by sum of dist-to-barycenter).
        let huge_tau = 1e9;
        let out = engine
            .run(&Query::threshold(vec![0, 1], huge_tau).build().unwrap())
            .unwrap();
        assert!(out.stats.fallback);
        // Every substring of every trajectory matches at that tau.
        let total: usize = store.iter().map(|(_, t)| t.len() * (t.len() + 1) / 2).sum();
        assert_eq!(out.matches.len(), total);
    }

    #[test]
    fn fallback_stats_are_coherent() {
        // Regression: the fallback path used to leave `candidates`,
        // `candidates_after_temporal` and `lookup_time` zeroed, so merged
        // workload stats silently mixed incomparable rows.
        use crate::temporal::{TemporalConstraint, TimeInterval};
        let net = Arc::new(CityParams::tiny(NetworkKind::Grid).generate());
        let erp = Erp::new(net.clone(), 5.0);
        let mut store = TrajectoryStore::new();
        store.push(Trajectory::new(vec![0, 1, 2], vec![0.0, 1.0, 2.0]));
        store.push(Trajectory::new(vec![10, 11], vec![100.0, 101.0]));
        let engine = EngineBuilder::new(&erp, &store, net.num_vertices()).build();
        let total_positions: usize = store.iter().map(|(_, t)| t.len()).sum();

        // No temporal constraint: every position is a candidate and gets
        // scanned.
        let out = engine
            .run(&Query::threshold(vec![0, 1], 1e9).build().unwrap())
            .unwrap();
        assert!(out.stats.fallback);
        assert_eq!(out.stats.candidates, total_positions);
        assert_eq!(out.stats.candidates_after_temporal, total_positions);
        assert_eq!(out.stats.candidates_deduped, total_positions);
        assert_eq!(out.stats.sw_columns, total_positions as u64);
        assert_eq!(out.stats.results, out.matches.len());

        // TF pre-filter prunes the late trajectory before scanning.
        let query = Query::threshold(vec![0, 1], 1e9)
            .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 50.0)))
            .temporal_filter(true)
            .build()
            .unwrap();
        let out_tf = engine.run(&query).unwrap();
        assert!(out_tf.stats.fallback);
        assert_eq!(out_tf.stats.candidates, total_positions);
        assert_eq!(out_tf.stats.candidates_after_temporal, 3);
        assert_eq!(out_tf.stats.candidates_deduped, 3);
        assert_eq!(out_tf.stats.sw_columns, 3);
        assert!(out_tf.stats.candidates_after_temporal < out_tf.stats.candidates);

        // Temporal constraint *without* the TF pre-filter: the candidate
        // counters stay pre-verification quantities (nothing pruned before
        // the scan), while the exact post-check shrinks `results` only.
        let query_post = Query::threshold(vec![0, 1], 1e9)
            .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 50.0)))
            .temporal_filter(false)
            .build()
            .unwrap();
        let out_post = engine.run(&query_post).unwrap();
        assert!(out_post.stats.fallback);
        assert_eq!(out_post.stats.candidates, total_positions);
        assert_eq!(out_post.stats.candidates_after_temporal, total_positions);
        assert_eq!(out_post.stats.candidates_deduped, total_positions);
        assert_eq!(out_post.stats.sw_columns, total_positions as u64);
        // Same surviving matches as the TF run (post-check is exact), but
        // counted against an unpruned scan.
        assert_eq!(out_post.matches, out_tf.matches);
        assert!(out_post.stats.results < out.stats.results);
        assert_eq!(out_post.stats.results, out_post.matches.len());
    }

    #[test]
    fn metric_fallback_stats_are_coherent() {
        // LCSS admits no sound filter bound, so the exact scan is its
        // *only* execution path; pin every counter of that contract.
        use crate::metric::Metric;
        use crate::temporal::{TemporalConstraint, TimeInterval};
        let mut store = TrajectoryStore::new();
        store.push(Trajectory::new(vec![0, 1, 2], vec![0.0, 1.0, 2.0]));
        store.push(Trajectory::new(vec![10, 11], vec![100.0, 101.0]));
        let engine = EngineBuilder::new(&Lev, &store, 16).build();
        let total_positions: usize = store.iter().map(|(_, t)| t.len()).sum();

        let lcss = |tf: bool, temporal: bool| {
            let mut b = Query::threshold(vec![0, 1], 1.5)
                .metric(Metric::Lcss { eps: 0.0 })
                .temporal_filter(tf);
            if temporal {
                b = b.temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 50.0)));
            }
            engine.run(&b.build().unwrap()).unwrap()
        };

        // No temporal constraint: all positions counted, scan work lands in
        // the metric-neutral `verify_cost`, WED counters stay zero.
        let plain = lcss(false, false);
        assert!(plain.stats.fallback);
        assert_eq!(plain.stats.candidates, total_positions);
        assert_eq!(plain.stats.candidates_after_temporal, total_positions);
        assert_eq!(plain.stats.candidates_deduped, total_positions);
        assert_eq!(plain.stats.sw_columns, 0);
        assert_eq!(plain.stats.columns_passed, 0);
        assert_eq!(plain.stats.stepdp_calls, 0);
        assert_eq!(
            plain.stats.trie_cache_hits + plain.stats.trie_cache_misses,
            0
        );
        assert!(plain.stats.verify_cost > 0);
        assert_eq!(plain.stats.results, plain.matches.len());
        // LCSS never has a τ-subsequence plan.
        assert_eq!(plain.stats.tsubseq_len, 0);

        // TF pre-filter: prunes the late trajectory before the scan, so the
        // split happens between `candidates` and `candidates_after_temporal`.
        let tf = lcss(true, true);
        assert_eq!(tf.stats.candidates, total_positions);
        assert_eq!(tf.stats.candidates_after_temporal, 3);
        assert_eq!(tf.stats.candidates_deduped, 3);

        // Post-check only: counters stay at the unpruned scan, results match
        // the TF run exactly.
        let post = lcss(false, true);
        assert_eq!(post.stats.candidates_after_temporal, total_positions);
        assert_eq!(post.stats.candidates_deduped, total_positions);
        assert_eq!(post.matches, tf.matches);
        assert!(post.stats.verify_cost >= tf.stats.verify_cost);
    }

    #[test]
    #[should_panic(expected = "query must be non-empty")]
    fn empty_query_rejected() {
        // `QueryBuilder::build` already rejects an empty pattern with a
        // typed error; the execution core keeps its own guard for callers
        // inside the crate.
        let store = toy_store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let ctx = ExecCtx {
            deadline: Deadline::NONE,
            tracer: Tracer::disabled(),
            cache: None,
        };
        let _ = engine.execute_threshold(&[], 1.0, &SearchOptions::default(), ctx);
    }

    #[test]
    fn strict_threshold_semantics() {
        // Definition 2 uses strict '<': a subtrajectory at distance exactly
        // tau is not a match.
        let mut store = TrajectoryStore::new();
        store.push(Trajectory::untimed(vec![1, 2, 3]));
        let engine = EngineBuilder::new(&Lev, &store, 8).build();
        // Q = [1,4,3]: best substring [1,2,3] at distance 1.
        let out = engine
            .run(&Query::threshold(vec![1, 4, 3], 1.0).build().unwrap())
            .unwrap();
        assert!(out.matches.is_empty());
        let out2 = engine
            .run(&Query::threshold(vec![1, 4, 3], 1.0 + 1e-9).build().unwrap())
            .unwrap();
        assert_eq!(out2.matches.len(), 1);
    }
}
