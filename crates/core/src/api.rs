//! The request/response surface: [`EngineBuilder`] constructs a
//! [`SearchEngine`], [`SearchEngine::run`] answers a [`Query`], and
//! [`SearchEngine::run_batch`] answers a mixed workload of them.
//!
//! Everything the engine can do — threshold and top-k objectives, all
//! verification strategies and metrics, temporal constraints, whole-batch
//! parallelism, every postings layout — is reached through these two
//! methods. [`SearchEngine::run_traced`] is `run` with
//! span recording, and [`SearchEngine::execute`] is the form both forward
//! to: the caller supplies the [`Deadline`] and the [`Tracer`], as a serving
//! front-end does. Dispatch stays monomorphized over
//! [`PostingSource`], and [`Response`] carries the same wire-format JSON as
//! [`Query`], so a serving front-end or shard server can speak this exact
//! type over a socket.

use crate::batch::{BatchOptions, BatchStats};
use crate::deadline::Deadline;
use crate::index::{InvertedIndex, Posting, PostingSource};
use crate::json;
use crate::query::{Objective, Query, QueryError};
use crate::results::MatchResult;
use crate::search::{ExecCtx, SearchEngine};
use crate::sharded::ShardedIndex;
use crate::stats::SearchStats;
use crate::topk::TopKEntry;
use crate::verify::TrieCache;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use traj::{TrajId, TrajectoryStore};
use trajsearch_obs::Tracer;
use wed::{Sym, WedInstance};

// ---------------------------------------------------------------------------
// Engine construction
// ---------------------------------------------------------------------------

/// Postings storage layout for [`EngineBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexLayout {
    /// One contiguous postings list per symbol ([`InvertedIndex`]).
    Single,
    /// Postings partitioned by `traj_id % n`, built in parallel
    /// ([`ShardedIndex`]); results are identical at any shard count.
    Sharded(usize),
}

/// Endpoint list of a remote placement: one `host:port` per shard server,
/// ordered by shard id. `trajsearch-core` has no networking, so this is
/// only a descriptor — `trajsearch_distrib::Coordinator::connect` dials it
/// and passes the connected `RemoteShards` to
/// [`EngineBuilder::build_with`]. Results are byte-identical to
/// `IndexLayout::Sharded(endpoints.len())` at any placement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RemoteSpec {
    pub endpoints: Vec<String>,
}

impl RemoteSpec {
    pub fn new(endpoints: impl IntoIterator<Item = impl Into<String>>) -> RemoteSpec {
        RemoteSpec {
            endpoints: endpoints.into_iter().map(Into::into).collect(),
        }
    }
}

/// Either built layout behind one engine type, so the layout is a runtime
/// choice ([`EngineBuilder::layout`]) while every search path stays
/// monomorphized (a two-arm match, no `dyn`, in each [`PostingSource`]
/// call).
#[derive(Debug, Clone)]
pub enum AnyIndex {
    Single(InvertedIndex),
    Sharded(ShardedIndex),
}

/// `impl Iterator` returned from a two-arm match.
enum EitherIter<A, B> {
    A(A),
    B(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for EitherIter<A, B> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::A(it) => it.next(),
            EitherIter::B(it) => it.next(),
        }
    }
}

impl PostingSource for AnyIndex {
    fn postings(&self, q: Sym) -> impl Iterator<Item = Posting> + '_ {
        match self {
            AnyIndex::Single(i) => EitherIter::A(i.postings(q).iter().copied()),
            AnyIndex::Sharded(i) => EitherIter::B(i.postings(q)),
        }
    }

    fn freq(&self, q: Sym) -> u32 {
        match self {
            AnyIndex::Single(i) => i.freq(q),
            AnyIndex::Sharded(i) => PostingSource::freq(i, q),
        }
    }

    fn span(&self, id: TrajId) -> (f64, f64) {
        match self {
            AnyIndex::Single(i) => i.span(id),
            AnyIndex::Sharded(i) => PostingSource::span(i, id),
        }
    }

    fn postings_departing_by(
        &self,
        q: Sym,
        t_max: f64,
    ) -> impl Iterator<Item = (f64, Posting)> + '_ {
        match self {
            AnyIndex::Single(i) => EitherIter::A(i.postings_departing_by(q, t_max).iter().copied()),
            AnyIndex::Sharded(i) => EitherIter::B(i.postings_departing_by(q, t_max)),
        }
    }

    fn has_temporal_postings(&self) -> bool {
        match self {
            AnyIndex::Single(i) => i.has_temporal_postings(),
            AnyIndex::Sharded(i) => PostingSource::has_temporal_postings(i),
        }
    }

    fn alphabet_size(&self) -> usize {
        match self {
            AnyIndex::Single(i) => i.alphabet_size(),
            AnyIndex::Sharded(i) => PostingSource::alphabet_size(i),
        }
    }

    fn num_trajectories(&self) -> usize {
        match self {
            AnyIndex::Single(i) => i.num_trajectories(),
            AnyIndex::Sharded(i) => PostingSource::num_trajectories(i),
        }
    }

    fn total_postings(&self) -> usize {
        match self {
            AnyIndex::Single(i) => i.total_postings(),
            AnyIndex::Sharded(i) => PostingSource::total_postings(i),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            AnyIndex::Single(i) => i.size_bytes(),
            AnyIndex::Sharded(i) => PostingSource::size_bytes(i),
        }
    }
}

/// One constructor for every engine configuration:
///
/// ```
/// use trajsearch_core::{EngineBuilder, IndexLayout, Query};
/// use traj::{Trajectory, TrajectoryStore};
/// use wed::models::Lev;
///
/// let mut store = TrajectoryStore::new();
/// store.push(Trajectory::untimed(vec![0, 1, 2, 3]));
/// let engine = EngineBuilder::new(Lev, &store, 8)
///     .layout(IndexLayout::Sharded(2))
///     .temporal_postings(true)
///     .build();
/// let response = engine.run(&Query::threshold(vec![1, 2], 0.5).build()?)?;
/// assert_eq!(response.matches.len(), 1); // [1, 2] at distance 0
/// # Ok::<(), trajsearch_core::QueryError>(())
/// ```
#[derive(Debug)]
pub struct EngineBuilder<'a, M: WedInstance> {
    model: M,
    store: &'a TrajectoryStore,
    alphabet_size: usize,
    layout: IndexLayout,
    temporal_postings: bool,
}

impl<'a, M: WedInstance> EngineBuilder<'a, M> {
    /// Starts a builder over `store`; `alphabet_size` is `|V|` or `|E|`
    /// depending on the representation the store uses.
    pub fn new(model: M, store: &'a TrajectoryStore, alphabet_size: usize) -> Self {
        EngineBuilder {
            model,
            store,
            alphabet_size,
            layout: IndexLayout::Single,
            temporal_postings: false,
        }
    }

    /// Postings layout (default [`IndexLayout::Single`]). The layout never
    /// changes results; pick a shard count near the host's core count for
    /// build throughput.
    pub fn layout(mut self, layout: IndexLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Additionally builds the by-departure postings orderings so queries
    /// may set [`QueryBuilder::temporal_postings`](crate::QueryBuilder::temporal_postings);
    /// without this, such queries are rejected with
    /// [`QueryError::TemporalPostingsUnavailable`].
    pub fn temporal_postings(mut self, on: bool) -> Self {
        self.temporal_postings = on;
        self
    }

    /// Builds the index and wraps it into an engine.
    pub fn build(self) -> SearchEngine<'a, M, AnyIndex> {
        let t0 = Instant::now();
        let index = match self.layout {
            IndexLayout::Single => {
                let mut index = InvertedIndex::build(self.store, self.alphabet_size);
                if self.temporal_postings {
                    index.enable_temporal_postings();
                }
                AnyIndex::Single(index)
            }
            IndexLayout::Sharded(n) => {
                let mut index = ShardedIndex::build_parallel(self.store, self.alphabet_size, n);
                if self.temporal_postings {
                    index.enable_temporal_postings();
                }
                AnyIndex::Sharded(index)
            }
        };
        SearchEngine::from_parts(self.model, self.store, index, t0.elapsed())
    }

    /// Wraps a pre-built posting source instead (built, compacted, reopened
    /// from a snapshot or temporal-enabled by the caller) — the expert
    /// escape hatch. The index must cover exactly the
    /// trajectories of the store, over the builder's alphabet (admission
    /// trusts the index's alphabet, and the model prices only its own);
    /// `layout`/`temporal_postings` settings are ignored, and
    /// [`build_time`](SearchEngine::build_time) reports zero since
    /// construction happened outside.
    ///
    /// # Panics
    /// Panics if `index.num_trajectories() != store.len()` or
    /// `index.alphabet_size() != alphabet_size`.
    pub fn build_with<I: PostingSource>(self, index: I) -> SearchEngine<'a, M, I> {
        assert_eq!(
            index.num_trajectories(),
            self.store.len(),
            "index and store must cover the same trajectories"
        );
        assert_eq!(
            index.alphabet_size(),
            self.alphabet_size,
            "index and builder must share the alphabet"
        );
        SearchEngine::from_parts(self.model, self.store, index, Duration::ZERO)
    }
}

// ---------------------------------------------------------------------------
// Response envelope
// ---------------------------------------------------------------------------

crate::wire_struct! {
    /// A query answer behind one envelope, whatever the objective:
    ///
    /// * **Threshold** — `matches` is the exact Definition 3 result set in
    ///   canonical `(id, start, end)` order;
    /// * **Top-k** — `matches` holds each ranked trajectory's best match in
    ///   rank order (position = rank; see [`Response::ranked`]).
    ///
    /// `stats` carries the per-query instrumentation (merged over the
    /// threshold-growth rounds for top-k). [`Response::to_json`] /
    /// [`Response::from_json`] are the wire format.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Response {
        pub matches: Vec<MatchResult>,
        pub stats: SearchStats,
    }
}

impl Response {
    /// Top-k view of the matches: entry `i` is rank `i`.
    pub fn ranked(&self) -> Vec<TopKEntry> {
        self.matches
            .iter()
            .enumerate()
            .map(|(rank, &best)| TopKEntry { rank, best })
            .collect()
    }

    /// Encodes the response for the wire; [`Response::from_json`] inverts
    /// it losslessly (distances bit-for-bit, durations in nanoseconds).
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Decodes a wire response.
    pub fn from_json(text: &str) -> Result<Response, QueryError> {
        json::decode(text).map_err(QueryError::Parse)
    }
}

/// A batch answer: per-query responses in workload order plus the
/// wall-vs-CPU [`BatchStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResponse {
    pub responses: Vec<Response>,
    pub stats: BatchStats,
}

// ---------------------------------------------------------------------------
// run / run_batch
// ---------------------------------------------------------------------------

impl<'a, M: WedInstance + Sync, I: PostingSource + Sync> SearchEngine<'a, M, I> {
    /// Engine-dependent admission checks; shape checks already ran in
    /// [`QueryBuilder::build`](crate::QueryBuilder::build).
    fn admit(&self, query: &Query) -> Result<(), QueryError> {
        let alphabet_size = self.index().alphabet_size();
        if let Some(&symbol) = query
            .pattern()
            .iter()
            .find(|&&q| q as usize >= alphabet_size)
        {
            return Err(QueryError::SymbolOutsideAlphabet {
                symbol,
                alphabet_size,
            });
        }
        if query.temporal_postings() && !self.index().has_temporal_postings() {
            return Err(QueryError::TemporalPostingsUnavailable);
        }
        Ok(())
    }

    /// Answers one [`Query`]. Returns
    /// [`QueryError::SymbolOutsideAlphabet`] when the pattern names a
    /// symbol the index has no list for, and
    /// [`QueryError::TemporalPostingsUnavailable`] when the query asks for
    /// by-departure candidate generation on an index built without it;
    /// every other invalid shape was already rejected by
    /// [`QueryBuilder::build`](crate::QueryBuilder::build).
    ///
    /// A [`Query::deadline_ms`] budget starts counting *now*: expiry at any
    /// cooperative checkpoint (see [`crate::deadline`]) returns
    /// [`QueryError::DeadlineExceeded`] instead of a late answer.
    pub fn run(&self, query: &Query) -> Result<Response, QueryError> {
        self.run_traced(query, Tracer::disabled())
    }

    /// [`run`](SearchEngine::run) with span recording: phase spans (filter,
    /// lookup, dedup, verification, top-k rounds, fallback scans)
    /// land in the [`TraceSink`](trajsearch_obs::TraceSink) the `tracer` is
    /// bound to, under a root `"query"` span. A disabled tracer makes this
    /// exactly [`run`](SearchEngine::run).
    pub fn run_traced(&self, query: &Query, tracer: Tracer<'_>) -> Result<Response, QueryError> {
        let deadline = Deadline::for_query(Instant::now(), query.deadline_ms());
        self.execute(query, deadline, tracer)
    }

    /// [`run_traced`](SearchEngine::run_traced) against a caller-supplied
    /// [`Deadline`] — the serving entry point. The deadline is used
    /// **exactly as given** (it replaces, not combines with,
    /// [`Query::deadline_ms`]), so a front-end can start the clock at
    /// admission and make queue time count against the budget.
    /// [`Deadline::NONE`] is unbounded, [`Tracer::disabled`] is untraced.
    pub fn execute(
        &self,
        query: &Query,
        deadline: Deadline,
        tracer: Tracer<'_>,
    ) -> Result<Response, QueryError> {
        self.execute_with(
            query,
            ExecCtx {
                deadline,
                tracer,
                cache: None,
            },
        )
    }

    /// [`execute`](SearchEngine::execute) with the whole [`ExecCtx`] — the
    /// batch workers pass their shared trie cache
    /// ([`BatchOptions::share_tries`]) through it. A threshold objective is
    /// one call of the execution core; top-k is the growth loop around the
    /// same call.
    fn execute_with(&self, query: &Query, ctx: ExecCtx<'_>) -> Result<Response, QueryError> {
        self.admit(query)?;
        ctx.deadline.check()?;
        let root = ctx.tracer.span("query");
        let ctx = ExecCtx {
            tracer: root.child(),
            ..ctx
        };
        let (q, opts) = (query.pattern(), query.search_options());
        match query.objective() {
            Objective::Threshold { tau } => self.execute_threshold(q, tau, &opts, ctx),
            Objective::TopK {
                k,
                initial_tau,
                max_tau,
            } => crate::topk::top_k_growth(k, initial_tau, max_tau, ctx, |tau, ctx| {
                self.execute_threshold(q, tau, &opts, ctx)
            }),
        }
    }

    /// Answers a workload of queries across scoped worker threads, outcomes
    /// in input order. One batch may freely mix thresholds, top-k, temporal
    /// constraints, metrics and verify modes — each [`Query`] is
    /// self-contained.
    ///
    /// All queries are admission-checked up front: an invalid one fails the
    /// whole batch *before* any work starts, so a partially executed batch
    /// is impossible. Work distribution is dynamic (an atomic cursor);
    /// every query runs on one worker exactly as
    /// [`run`](SearchEngine::run) would, so responses are byte-identical to
    /// calling `run` in a loop, for any thread count.
    ///
    /// A query's [`deadline_ms`](Query::deadline_ms) clock starts when a
    /// worker **dequeues** it (claims it from the cursor), mirroring `run`'s
    /// call-time epoch; time spent behind earlier queries in the batch does
    /// not count. Since [`BatchResponse`] has no per-query error slot, an
    /// expired deadline fails the whole batch with
    /// [`QueryError::DeadlineExceeded`] — a workload mixing deadlines with
    /// per-query timeout *responses* is the serving front-end's job
    /// (`trajsearch-serve`), not `run_batch`'s.
    pub fn run_batch(
        &self,
        queries: &[Query],
        opts: BatchOptions,
    ) -> Result<BatchResponse, QueryError> {
        for query in queries {
            self.admit(query)?;
        }
        let threads = opts.resolve_threads().min(queries.len().max(1));
        let t0 = Instant::now();

        let mut slots: Vec<Option<Response>> = Vec::with_capacity(queries.len());
        slots.resize_with(queries.len(), || None);

        // Batch-level cache tier: one TrieCache for every WED Trie-mode
        // query of the batch (opt-in, see `BatchOptions::share_tries`).
        let trie_cache = opts.share_tries.then(TrieCache::new);

        // Deadline epoch = dequeue time: when a worker claims the query.
        // Batch workers run untraced: `BatchOptions` is a plain `Copy` bag
        // and cannot carry a sink reference; workloads that need spans run
        // their queries through `run_traced` individually.
        let run_claimed = |query: &Query| -> Result<Response, QueryError> {
            self.execute_with(
                query,
                ExecCtx {
                    deadline: Deadline::for_query(Instant::now(), query.deadline_ms()),
                    tracer: Tracer::disabled(),
                    cache: trie_cache.as_ref(),
                },
            )
        };

        let cursor = AtomicUsize::new(0);
        // First failure (a deadline expiry) flips the flag so the other
        // workers stop claiming: the batch's result is already decided,
        // running out the remaining queries would be pure waste.
        let abort = std::sync::atomic::AtomicBool::new(false);
        let collected = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let abort = &abort;
                    let run_claimed = &run_claimed;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, Response)> = Vec::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(query) = queries.get(i) else {
                                break;
                            };
                            match run_claimed(query) {
                                Ok(response) => local.push((i, response)),
                                Err(e) => {
                                    abort.store(true, Ordering::Relaxed);
                                    return Err(e);
                                }
                            }
                        }
                        Ok::<_, QueryError>(local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect::<Vec<_>>()
        });
        for worker in collected {
            for (i, response) in worker? {
                slots[i] = Some(response);
            }
        }
        let wall_time = t0.elapsed();

        let responses: Vec<Response> = slots
            .into_iter()
            .map(|s| s.expect("every workload slot is filled"))
            .collect();
        let mut merged = SearchStats::default();
        for r in &responses {
            merged.merge(&r.stats);
        }
        let cpu_time = merged.total_time();
        Ok(BatchResponse {
            stats: BatchStats {
                wall_time,
                cpu_time,
                threads,
                queries: responses.len(),
                merged,
            },
            responses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::{TemporalConstraint, TimeInterval};
    use crate::verify::VerifyMode;
    use traj::Trajectory;
    use wed::models::Lev;

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(
            vec![0, 1, 2, 3, 4],
            vec![0.0, 1.0, 2.0, 3.0, 4.0],
        ));
        s.push(Trajectory::new(
            vec![3, 1, 5, 1, 2],
            vec![10.0, 11.0, 12.0, 13.0, 14.0],
        ));
        s.push(Trajectory::new(
            vec![9, 8, 7, 6],
            vec![20.0, 21.0, 22.0, 23.0],
        ));
        s.push(Trajectory::new(
            vec![1, 2, 1, 2, 1],
            vec![30.0, 31.0, 32.0, 33.0, 34.0],
        ));
        s
    }

    #[test]
    fn builder_layouts_agree() {
        let store = store();
        let single = EngineBuilder::new(Lev, &store, 10).build();
        let sharded = EngineBuilder::new(Lev, &store, 10)
            .layout(IndexLayout::Sharded(3))
            .build();
        let q = Query::threshold(vec![1, 5, 2], 2.0).build().unwrap();
        assert_eq!(
            single.run(&q).unwrap().matches,
            sharded.run(&q).unwrap().matches
        );
        assert!(matches!(single.index(), AnyIndex::Single(_)));
        assert!(matches!(sharded.index(), AnyIndex::Sharded(_)));
    }

    #[test]
    fn run_rejects_temporal_postings_without_index_support() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10).build();
        let q = Query::threshold(vec![1, 2], 1.0)
            .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 5.0)))
            .temporal_postings(true)
            .build()
            .unwrap();
        assert_eq!(
            engine.run(&q).unwrap_err(),
            QueryError::TemporalPostingsUnavailable
        );
        // With temporal postings built, the same query is admitted.
        let engine = EngineBuilder::new(Lev, &store, 10)
            .temporal_postings(true)
            .build();
        assert!(engine.run(&q).is_ok());
    }

    #[test]
    fn run_rejects_symbols_outside_the_index_alphabet() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10).build();
        let hostile =
            Query::from_json(r#"{"pattern":[50,1],"objective":{"type":"threshold","tau":1.0}}"#)
                .unwrap();
        let want = QueryError::SymbolOutsideAlphabet {
            symbol: 50,
            alphabet_size: 10,
        };
        assert_eq!(engine.run(&hostile).unwrap_err(), want);
        assert!(want.to_string().contains("symbol 50"), "{want}");
        assert_eq!(
            engine
                .run_batch(&[hostile], BatchOptions::with_threads(2))
                .unwrap_err(),
            want
        );
        // The last symbol of the alphabet is admitted.
        let edge = Query::threshold(vec![9, 1], 1.0).build().unwrap();
        assert!(engine.run(&edge).is_ok());
    }

    #[test]
    fn run_batch_rejects_before_executing() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10).build();
        let good = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        let bad = Query::threshold(vec![1, 2], 1.0)
            .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 5.0)))
            .temporal_postings(true)
            .build()
            .unwrap();
        let err = engine
            .run_batch(&[good, bad], BatchOptions::with_threads(2))
            .unwrap_err();
        assert_eq!(err, QueryError::TemporalPostingsUnavailable);
    }

    #[test]
    fn mixed_batch_equals_run_loop() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10)
            .temporal_postings(true)
            .build();
        let queries = vec![
            Query::threshold(vec![1, 5, 2], 2.0).build().unwrap(),
            Query::top_k(vec![1, 2], 2, 0.5, 4.0).build().unwrap(),
            Query::threshold(vec![1, 2], 1.5)
                .verify(VerifyMode::Sw)
                .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 15.0)))
                .temporal_filter(true)
                .temporal_postings(true)
                .build()
                .unwrap(),
            Query::threshold(vec![9, 8], 1.0).build().unwrap(),
        ];
        let want: Vec<Response> = queries.iter().map(|q| engine.run(q).unwrap()).collect();
        for threads in [1, 2, 4] {
            let got = engine
                .run_batch(&queries, BatchOptions::with_threads(threads))
                .unwrap();
            assert_eq!(got.responses.len(), want.len());
            for (g, w) in got.responses.iter().zip(&want) {
                // Matches byte-identical; stats counters identical (timings
                // necessarily differ between runs).
                assert_eq!(g.matches, w.matches, "threads={threads}");
                assert_eq!(g.stats.candidates, w.stats.candidates);
                assert_eq!(g.stats.results, w.stats.results);
                assert_eq!(g.stats.fallback, w.stats.fallback);
            }
            assert_eq!(got.stats.queries, queries.len());
        }
    }

    #[test]
    fn expired_deadline_is_typed_on_every_entry_point() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10).build();
        let past = Deadline::at(Instant::now() - Duration::from_millis(5));
        for q in [
            Query::threshold(vec![1, 5, 2], 2.0).build().unwrap(),
            Query::top_k(vec![1, 2], 2, 0.5, 4.0).build().unwrap(),
            Query::threshold(vec![1, 2], 1.0).build().unwrap(),
        ] {
            assert_eq!(
                engine.execute(&q, past, Tracer::disabled()).unwrap_err(),
                QueryError::DeadlineExceeded
            );
        }
        // A generous explicit deadline (or a generous deadline_ms through
        // `run`) is byte-identical to no deadline at all.
        let q = Query::threshold(vec![1, 5, 2], 2.0)
            .deadline_ms(3_600_000)
            .build()
            .unwrap();
        let relaxed = engine.run(&q).unwrap();
        let bare = engine
            .run(&Query::threshold(vec![1, 5, 2], 2.0).build().unwrap())
            .unwrap();
        assert_eq!(relaxed.matches, bare.matches);
        assert_eq!(relaxed.stats.candidates, bare.stats.candidates);
        assert_eq!(
            engine
                .execute(
                    &q,
                    Deadline::within(Duration::from_secs(3600)),
                    Tracer::disabled()
                )
                .unwrap()
                .matches,
            bare.matches
        );
    }

    #[test]
    fn run_batch_honors_deadlines_from_dequeue() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10).build();
        // Generous per-query deadlines: the batch completes normally even
        // though the deadline clock only starts at each query's dequeue.
        let qs: Vec<Query> = (0..4)
            .map(|_| {
                Query::threshold(vec![1, 2], 1.0)
                    .deadline_ms(3_600_000)
                    .build()
                    .unwrap()
            })
            .collect();
        for threads in [1, 3] {
            let out = engine
                .run_batch(&qs, BatchOptions::with_threads(threads))
                .unwrap();
            assert_eq!(out.responses.len(), qs.len());
        }
    }

    #[test]
    fn deadline_round_trips_through_the_wire() {
        let q = Query::threshold(vec![1, 2], 1.0)
            .deadline_ms(750)
            .build()
            .unwrap();
        let back = Query::from_json(&q.to_json()).unwrap();
        assert_eq!(back.deadline_ms(), Some(750));
        assert_eq!(back, q);
    }

    #[test]
    fn top_k_response_is_ranked() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10).build();
        let q = Query::top_k(vec![1, 2], 3, 0.5, 4.0).build().unwrap();
        let r = engine.run(&q).unwrap();
        assert!(!r.matches.is_empty());
        let ranked = r.ranked();
        assert_eq!(ranked[0].rank, 0);
        for pair in ranked.windows(2) {
            assert!(pair[0].best.dist <= pair[1].best.dist, "ranks out of order");
        }
    }

    #[test]
    fn response_json_round_trip() {
        let store = store();
        let engine = EngineBuilder::new(Lev, &store, 10).build();
        let q = Query::threshold(vec![1, 5, 2], 2.5).build().unwrap();
        let r = engine.run(&q).unwrap();
        assert!(!r.matches.is_empty());
        let back = Response::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn prebuilt_index_escape_hatch() {
        let store = store();
        let index = InvertedIndex::build(&store, 10);
        let engine = EngineBuilder::new(Lev, &store, 10).build_with(index);
        let q = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        assert!(!engine.run(&q).unwrap().matches.is_empty());
        assert_eq!(engine.build_time(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "same trajectories")]
    fn prebuilt_index_must_cover_store() {
        let store = store();
        // A larger alphabet alone is refused too, with its own message.
        let wide = std::panic::catch_unwind(|| {
            EngineBuilder::new(Lev, &store, 10).build_with(InvertedIndex::build(&store, 11));
        });
        let msg = wide.expect_err("a wider alphabet than the builder's");
        let msg = msg.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("share the alphabet"), "{msg}");
        let partial = store.prefix(2);
        let index = InvertedIndex::build(&partial, 10);
        EngineBuilder::new(Lev, &store, 10).build_with(index);
    }
}
