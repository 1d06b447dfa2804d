//! Candidate verification (§5, Algorithms 3–6).
//!
//! Given candidates `(id, j, iq)` — trajectory `id` carries, at position
//! `j`, a substitution neighbor of query symbol `Q[iq]` — verification must
//! report every subtrajectory `P[s..=t]` with `s ≤ j ≤ t` and
//! `wed(P[s..=t], Q) < τ`. Three strategies are provided:
//!
//! * [`VerifyMode::Sw`] — Smith–Waterman over each candidate *trajectory*
//!   (the `*-SW` baselines): exact, no locality, no sharing. This is the
//!   whole-trajectory scan verifier of [`crate::metric`], the same scan that
//!   verifies every non-WED metric and runs the exact fallback; this module
//!   only picks it ([`verify_candidates`]).
//! * [`VerifyMode::Local`] — bidirectional local verification (§5.1): two
//!   DPs growing outward from `j`, early-terminated by the Eq. (11) lower
//!   bound; no cross-candidate sharing (ablation point).
//! * [`VerifyMode::Trie`] — local verification plus bidirectional tries
//!   (§5.2): DP columns are cached per `(iq, direction)` in a trie keyed by
//!   the data symbols, exploiting the small out-degree of road networks.
//!
//! The WED verifier here runs the last two. Every walk extends DP columns
//! from its **cost profile** ([`wed::dp::SubProfile`]): per data symbol, the
//! row `sub(p, Q[·])` kept forward and reversed, so the forward suffix
//! `Q[iq+1..]` and the backward suffix `rev(Q[..iq])` of any anchor are
//! contiguous windows of it. The anchor cost `sub(P[j], Q[iq])` is read off
//! the same row. No walk calls `CostModel::sub`; the model-calling kernel
//! stays in [`wed::dp`] as the reference (what `wed()`, [`VerifyMode::Sw`]
//! and the baselines run). The profile is private to its verifier.
//!
//! Where a row comes from depends on the model:
//!
//! * a **unit-cost** model (η = 0) has `sub(p, q) = 0` exactly when
//!   `p ∈ B(q)`, so its rows are built before the first walk from the
//!   neighbourhoods the filter plan already found (a verifier built without
//!   a plan, as [`verify_candidates`] builds one, searches them once
//!   itself);
//!   verification then makes no cost-model call at all;
//! * any other model is asked once per `(data symbol, query position)`, on
//!   the symbol's first touch.
//!
//! A trie's column slab comes in one of two kinds, fixed when the trie is
//! made from what the profile holds:
//!
//! * **`f64` columns**, `|Q^d| + 1` costs each, extended by the row kernel
//!   [`wed::dp::step_dp_rows`] — any cost model (ERP, NetERP, SURS);
//! * **bit columns** for a unit-cost model ([`wed::CostModel::unit_costs`]:
//!   Levenshtein, EDR, NetEDR), the depth plus two bit vectors of vertical
//!   steps, 64 cells to a word, extended by [`wed::dp::step_dp_bits`].
//!
//! Both kernels agree with the reference to the bit, so a node's bound and
//! prefix WED — and with them every walk, counter and distance — do not
//! depend on the kind.
//!
//! Every Local- and Trie-mode walk is one loop, `walk_trie`, over a
//! `DpTrie`. Above the profile, Trie-mode caching has two levels. The
//! per-query level (one verifier's own tries) is always on. A batch may opt
//! in to one shared trie cache across its queries
//! ([`BatchOptions::share_tries`](crate::BatchOptions::share_tries)),
//! so repeated or overlapping patterns hit warm columns; a walk over a shared
//! trie holds its lock from the root to its last step, StepDP included.
//! Local mode walks the verifier's private trie after clearing it back to
//! its root, so every step computes its column. Sharing never changes
//! results: a trie is fully determined by its query suffix `Q^d` and the
//! cost model, and StepDP is deterministic, so shared columns are
//! bit-identical to privately computed ones. The scan verifier
//! ([`crate::metric`]) never consults the cache.
//!
//! The split at the anchor follows Eq. (10):
//! `wed(P[s..=t], Q) = wed(P[s..j-1], Q[..iq]) + sub(P[j], Q[iq]) +
//! wed(P[j+1..=t], Q[iq+1..])` for the optimal alignment of some candidate,
//! so enumerating pairs of backward/forward prefix WEDs below
//! `τ' = τ − sub(P[j], Q[iq])` recovers exactly the Definition 3 result set
//! (Lemma 1), with per-triple min-merge restoring exact distances.
//!
//! **One budget for both walks.** A pair through the anchor needs the sum
//! `(sub0 + b) + f < τ` — the pair test, in that operand order — so the two
//! walks of an anchor share τ rather than each stopping at τ' on its own:
//!
//! 1. the side with the longer query suffix walks first (ties go forward)
//!    and stops at the first column `k` with `sub0 + LB_k >= τ`;
//! 2. if `sub0 + min E^first >= τ`, the anchor is barren: no second walk,
//!    no pair loop;
//! 3. otherwise the other side stops at the first column with
//!    `(sub0 + LB_k) + f_min >= τ` (backward second) or
//!    `(sub0 + b_min) + LB_k >= τ` (forward second).
//!
//! This is exact. `LB` never falls along a walk and bounds every later `E`
//! (Eq. 11), and f64 addition is monotone in each operand, so every pair a
//! stop test drops has `(sub0 + b) + f >= τ` in the pair test's own
//! arithmetic; writing the tests as `LB >= τ − sub0` instead is not, as
//! `τ − sub0` can round down onto `LB` while `sub0 + LB < τ`. Walking the
//! longer query suffix first spends the budget soonest: on the benchmark's
//! `inproc_wed` nine in ten anchors push no pair, and most of them are
//! rejected after that one walk.
//!
//! Verification is **metric-pluggable**: the front half (candidate dedup,
//! per-trajectory grouping, deadline checkpoints, temporal post-check) is
//! shared, while the back half is a verifier invoked once per trajectory
//! group — the trie verifier here for WED's Local and Trie modes, or the
//! scan verifier of [`crate::metric`] for WED's SW mode and every other
//! metric. [`verify_candidates`] and the engine's threshold search are the
//! two places that pick one.

use crate::deadline::Deadline;
use crate::filter::FilterPlan;
use crate::metric::{Metric, ScanVerifier};
use crate::query::QueryError;
use crate::results::{MatchResult, ResultSet};
use crate::search::ExecCtx;
use crate::stats::SearchStats;
use crate::temporal::TemporalConstraint;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use traj::{TrajId, TrajectoryStore};
use trajsearch_obs::Tracer;
use wed::dp::{initial_bit_column_into, SubProfile, Suffix};
use wed::{CostModel, Sym, WedInstance};

/// A filtering candidate `(id, j, iq)` (§3.1): `P^(id)[j] ∈ B(Q[iq])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    pub id: TrajId,
    pub j: u32,
    pub iq: u32,
}

/// Verification strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Full Smith–Waterman scan per candidate trajectory.
    Sw,
    /// Bidirectional local verification without caching.
    Local,
    /// Bidirectional local verification with trie caching (the paper's BT).
    #[default]
    Trie,
}

// ---------------------------------------------------------------------------
// DP-column trie
// ---------------------------------------------------------------------------

/// Sentinel for absent node links in the flat arena.
const NIL: u32 = u32::MAX;

/// Arena node: 32 bytes, two to a cache line, no owned storage. A walk that
/// finds its column cached needs the links, the bound and the column's last
/// entry, so all three sit here; the full DP column lives in the trie's
/// contiguous slab at the node's index and is read only to extend it.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Column minimum — the Eq. (11) lower bound `LB^d_k`.
    min: f64,
    /// The column's last entry, `wed(P^d[..k], Q^d)`.
    ed: f64,
    /// Head of this node's intrusive child list (`NIL` for a leaf).
    first_child: u32,
    /// Next child of the same parent (`NIL` at the end of the list).
    next_sibling: u32,
    /// The data symbol on the edge from the parent (unused at the root).
    sym: Sym,
}

/// A trie's DP columns back to back, `stride` elements each, in the
/// encoding its [`SubProfile`] extends: chosen once, when the trie is made.
#[derive(Debug)]
enum Slab {
    /// `|Q^d| + 1` costs per column, extended by [`SubProfile::step`]: any
    /// cost model.
    Costs(Vec<f64>),
    /// [`wed::dp::bit_column_len`] words per column, extended by
    /// [`SubProfile::step_bits`]: unit-cost models.
    Bits(Vec<u64>),
}

/// A DP-column cache for one query suffix `Q^d` (§5.2) — one per
/// `(iq, direction)` pair in private mode, one per *distinct* suffix when
/// shared through a [`TrieCache`]. The paper builds `2·|Q'|` of these per
/// query.
///
/// Layout is a flat arena: one contiguous node table plus one contiguous
/// slab holding every DP column back to back (node `k`'s column is
/// `cols[k·stride .. (k+1)·stride]`). Children form intrusive sibling lists
/// inside the node table, so a trie makes two allocations' worth of growth
/// instead of two per node, and a walk touches memory sequentially within
/// each column. The slab holds `f64` columns, or, for a unit-cost model,
/// bit columns of 64 cells to a word; either way a node's `min` and `ed`
/// are the same numbers.
///
/// The trie holds numbers only. Which suffix it is for, and what extending
/// a column by a data symbol costs, is the [`SubProfile`]'s knowledge; the
/// caller passes the same [`Suffix`] window to `DpTrie::new` and to every
/// extension.
#[derive(Debug)]
struct DpTrie {
    stride: usize,
    nodes: Vec<Node>,
    cols: Slab,
}

impl DpTrie {
    /// Creates the trie with a root column for the empty data prefix.
    pub fn new<M: CostModel + ?Sized>(costs: &SubProfile<'_, M>, suffix: Suffix) -> Self {
        let ((min, ed), cols) = if costs.unit_costs() {
            let mut cols = Vec::new();
            (
                initial_bit_column_into(suffix.len(), &mut cols),
                Slab::Bits(cols),
            )
        } else {
            let mut cols = Vec::new();
            let min = costs.initial_column_into(suffix, &mut cols);
            ((min, cols[suffix.len()]), Slab::Costs(cols))
        };
        DpTrie {
            stride: match &cols {
                Slab::Costs(c) => c.len(),
                Slab::Bits(c) => c.len(),
            },
            nodes: vec![Node {
                min,
                ed,
                first_child: NIL,
                next_sibling: NIL,
                sym: 0,
            }],
            cols,
        }
    }

    /// Existing child `node --sym-->`, if cached, by a linear sibling scan.
    /// On the `inproc_wed` benchmark (seed 42) a lookup below the root visits
    /// 1.26 nodes on average and one at the root 3.6, since a root collects
    /// every first symbol of its `(iq, direction)`. A `sym → child` hash
    /// table at the root was tried and not kept: walk time outside StepDP
    /// did not fall, because one lookup in ten is at the root.
    fn lookup(&self, node: u32, sym: Sym) -> Option<u32> {
        let mut c = self.nodes[node as usize].first_child;
        while c != NIL {
            let n = &self.nodes[c as usize];
            if n.sym == sym {
                return Some(c);
            }
            c = n.next_sibling;
        }
        None
    }

    /// Returns `(child id, freshly created?)` for `node --sym-->`.
    ///
    /// A miss writes the column first, into a tail at the new node's own
    /// index, and links the node after: a panic between the two leaves a
    /// tail no node points at, which the next miss overwrites — so a shared
    /// trie whose lock was poisoned mid-walk is still a valid one.
    fn child<M: CostModel + ?Sized>(
        &mut self,
        costs: &mut SubProfile<'_, M>,
        suffix: Suffix,
        node: u32,
        sym: Sym,
    ) -> (u32, bool) {
        if let Some(c) = self.lookup(node, sym) {
            return (c, false);
        }
        let (s, id) = (self.stride, self.nodes.len());
        let parent = node as usize * s;
        let (min, ed) = match &mut self.cols {
            Slab::Costs(cols) => extend(cols, s, id, parent, |a, out| {
                (costs.step(suffix, sym, a, out), out[s - 1])
            }),
            Slab::Bits(cols) => extend(cols, s, id, parent, |a, out| {
                costs.step_bits(suffix, sym, a, out)
            }),
        };
        // Head the new node into the parent's child list (order among
        // siblings is unobservable — lookup is by symbol).
        self.nodes.push(Node {
            min,
            ed,
            first_child: NIL,
            next_sibling: self.nodes[node as usize].first_child,
            sym,
        });
        self.nodes[node as usize].first_child = id as u32;
        (id as u32, true)
    }

    /// Drops every column but the root's, so that each step of the next
    /// walk creates its column — how [`VerifyMode::Local`] walks.
    fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0].first_child = NIL;
        match &mut self.cols {
            Slab::Costs(cols) => cols.truncate(self.stride),
            Slab::Bits(cols) => cols.truncate(self.stride),
        }
    }

    /// `(LB^d_k, E^d[k])` of a node: the Eq. (11) bound and the prefix WED.
    fn bound_and_ed(&self, node: u32) -> (f64, f64) {
        let n = &self.nodes[node as usize];
        (n.min, n.ed)
    }

    /// Number of materialized nodes.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing beyond the always-present root column is cached
    /// (root-only semantics: a fresh trie holds no data-symbol columns, so
    /// `is_empty() == (len() == 1)`).
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }
}

/// Writes column `id` of a slab of `stride`-element columns: `step` reads
/// the parent column starting at `parent` and fills the new one, returning
/// its minimum and last entry.
fn extend<T: Copy + Default>(
    cols: &mut Vec<T>,
    stride: usize,
    id: usize,
    parent: usize,
    step: impl FnOnce(&[T], &mut [T]) -> (f64, f64),
) -> (f64, f64) {
    let at = id * stride;
    cols.resize(at + stride, T::default());
    // The parent's column sits strictly below the freshly reserved tail,
    // so a split borrow lets StepDP read it while writing in place.
    let (head, fresh) = cols.split_at_mut(at);
    step(&head[parent..parent + stride], fresh)
}

// ---------------------------------------------------------------------------
// Shared trie cache (batch level)
// ---------------------------------------------------------------------------

const CACHE_SHARDS: usize = 8;

/// Locks a cache mutex whether or not a thread panicked while holding it.
///
/// Both kinds of mutex here guard pure caches of deterministic values — a
/// shard's suffix → trie map and a `DpTrie` — and every update leaves
/// them valid at every step (a map insert; `DpTrie::child`). A poisoned
/// lock therefore says that some worker died, never that the data is
/// wrong, and must not turn every later query on the engine into a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One lock-sharded slice of the cache: suffix symbols → shared trie.
type TrieShard = Mutex<HashMap<Box<[Sym]>, Arc<Mutex<DpTrie>>>>;

/// A concurrency-safe cache of `DpTrie`s keyed by their query suffix
/// `Q^d`, shared (opt-in, [`crate::BatchOptions::share_tries`]) across the
/// queries of one batch.
///
/// Keying by the suffix symbols alone is strictly more sharing than keying
/// by `(iq, direction)`: a trie's contents are fully determined by `Q^d`
/// and the cost model (the direction only decides the order data symbols
/// are fed in, which the trie never sees), so any two pairs with the same
/// suffix — even a backward and a forward one — reuse one trie. One cache
/// must therefore only ever be used with one cost model; the engine scopes
/// a cache to one batch, which pins the model.
///
/// The locking discipline follows `Memo` in the `wed` crate: the key map is
/// sharded across `CACHE_SHARDS` (8) mutexes, misses build the root column
/// outside the lock, and a double-checked insert lets race losers adopt the
/// winner's trie — so `trie_cache_misses` counts each distinct suffix
/// exactly once regardless of interleaving. Lock poisoning is ignored
/// (`lock` in this module says why that is sound).
///
/// A walk holds its trie's lock from the root to its last step, StepDP
/// included. Under a unit-cost model it takes no other lock: its profile
/// rows were built before the walk, from `B(q)`. Under any other model the
/// only lock it can take meanwhile is the cost model's `Memo` (through the
/// profile's `sub` calls on a row's first touch), and `Memo` never waits on
/// a trie, so the lock order is acyclic.
pub(crate) struct TrieCache {
    shards: [TrieShard; CACHE_SHARDS],
}

impl TrieCache {
    pub(crate) fn new() -> Self {
        TrieCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard_of(qd: &[Sym]) -> usize {
        let mut h = DefaultHasher::new();
        qd.hash(&mut h);
        h.finish() as usize & (CACHE_SHARDS - 1)
    }

    /// Returns `(trie, warm?)`: the shared trie for the suffix, and whether
    /// it already existed (a cache hit at trie granularity).
    fn get_or_create<M: CostModel + ?Sized>(
        &self,
        costs: &SubProfile<'_, M>,
        suffix: Suffix,
    ) -> (Arc<Mutex<DpTrie>>, bool) {
        let qd = costs.symbols(suffix);
        let shard = &self.shards[Self::shard_of(qd)];
        if let Some(t) = lock(shard).get(qd) {
            return (t.clone(), true);
        }
        // Build the root column outside the lock; losers of the insert race
        // drop their fresh trie and adopt the winner's.
        let fresh = Arc::new(Mutex::new(DpTrie::new(costs, suffix)));
        match lock(shard).entry(qd.into()) {
            Entry::Occupied(e) => (e.get().clone(), true),
            Entry::Vacant(v) => {
                v.insert(fresh.clone());
                (fresh, false)
            }
        }
    }
}

/// A verifier's handle on one trie: owned outright, or a lease on a
/// [`TrieCache`] entry shared with the batch's other queries.
enum TrieHandle {
    Private(DpTrie),
    Shared(Arc<Mutex<DpTrie>>),
}

/// Runs `walk` on the trie behind `handle`: a private trie directly, a
/// shared one under its lock for the whole walk.
fn with_trie<R>(handle: &mut TrieHandle, walk: impl FnOnce(&mut DpTrie) -> R) -> R {
    match handle {
        TrieHandle::Private(trie) => walk(trie),
        TrieHandle::Shared(trie) => walk(&mut lock(trie)),
    }
}

// ---------------------------------------------------------------------------
// Verifier trait and the WED back half
// ---------------------------------------------------------------------------

/// The metric back half of verification: turns one trajectory group of
/// sorted, deduped candidates into result triples.
///
/// The shared front half hands each implementation one **whole-trajectory
/// group** at a time (all of a trajectory's anchors, sorted by
/// `(j, iq)`), together with the trajectory's path. Implementations push
/// every matching `(id, s, t, dist)` into `results` (duplicates are
/// min-merged by the result set) and account their DP work in
/// `stats.verify_cost` — the metric-neutral unit (columns/rows of `O(|Q|)`
/// each) that stays comparable when workloads mix metrics.
///
/// A verifier may carry state across groups (the WED tries do); every
/// query builds its own, so implementations need not be `Sync`.
pub(crate) trait Verifier {
    /// Verifies one trajectory group. `group` is non-empty and all its
    /// candidates share one trajectory id; `path` is that trajectory's
    /// symbol sequence.
    fn verify_group(
        &mut self,
        path: &[Sym],
        group: &[Candidate],
        results: &mut ResultSet,
        stats: &mut SearchStats,
    );
}

/// Stateful WED verifier holding the cost profile and the bidirectional
/// tries of one query — the [`Verifier`] back half of [`VerifyMode::Local`]
/// and [`VerifyMode::Trie`].
pub(crate) struct WedVerifier<'a, M: CostModel> {
    tau: f64,
    /// Local mode (§5.1, the ablation point): the tries are private and
    /// cleared back to their root before every anchor, so no column is
    /// reused.
    local: bool,
    /// Batch-level [`TrieCache`] for Trie mode; `None` keeps every trie
    /// private to this verifier (the classic §5.2 behavior).
    cache: Option<&'a TrieCache>,
    /// The level below the tries: the rows `sub(p, Q[·])` StepDP reads
    /// slices of. Private to this verifier.
    costs: SubProfile<'a, M>,
    /// Trie handles by candidate query position `iq`; `[0]` backward,
    /// `[1]` forward.
    tries: Vec<Option<[TrieHandle; 2]>>,
    /// `E^b` and `E^f` of the candidate at hand (Algorithm 4), reused
    /// across candidates.
    ed: [Vec<f64>; 2],
}

impl<'a, M: WedInstance> WedVerifier<'a, M> {
    /// A verifier with private tries for a caller that holds no filter
    /// plan: a unit-cost profile searches `B(q)` of each query symbol here.
    pub(crate) fn new(model: &'a M, q: &[Sym], tau: f64, local: bool) -> Self {
        Self::with_profile(SubProfile::new(model, q), q, tau, local, None)
    }

    /// The engine's verifier: a unit-cost profile takes `B(q)` from the
    /// plan that found the candidates, and Trie-mode tries resolve through
    /// the shared [`TrieCache`] when there is one (hits and misses are
    /// accounted per acquisition in `stats.trie_cache_hits` /
    /// `trie_cache_misses`; Local mode ignores it). Results are
    /// bit-identical to [`WedVerifier::new`]'s.
    pub(crate) fn for_plan(
        plan: &FilterPlan,
        model: &'a M,
        q: &[Sym],
        tau: f64,
        local: bool,
        cache: Option<&'a TrieCache>,
    ) -> Self {
        let costs = SubProfile::with_neighbors(model, q, |s| plan.neighbors(s));
        Self::with_profile(costs, q, tau, local, cache)
    }
}

impl<'a, M: CostModel> WedVerifier<'a, M> {
    /// The verifier over `costs`, the profile of `q`.
    fn with_profile(
        costs: SubProfile<'a, M>,
        q: &[Sym],
        tau: f64,
        local: bool,
        cache: Option<&'a TrieCache>,
    ) -> Self {
        WedVerifier {
            tau,
            local,
            cache: cache.filter(|_| !local),
            costs,
            tries: std::iter::repeat_with(|| None).take(q.len()).collect(),
            ed: Default::default(),
        }
    }

    /// Algorithm 4 (VerifyCandidate): verify one candidate, pushing all
    /// `(id, s, t)` triples through the anchor into `results`.
    fn verify_candidate(
        &mut self,
        path: &[Sym],
        cand: Candidate,
        results: &mut ResultSet,
        stats: &mut SearchStats,
    ) {
        let j = cand.j as usize;
        let iq = cand.iq as usize;
        debug_assert!(j < path.len() && iq < self.tries.len());
        stats.sw_columns += path.len() as u64;

        let (sub0, tau) = (self.costs.sub(path[j], iq), self.tau);
        if sub0 >= tau {
            return; // anchor substitution alone exceeds the budget
        }

        let (costs, cache) = (&mut self.costs, self.cache);
        let suffixes = [costs.backward(iq), costs.forward(iq)];
        let tries = self.tries[iq].get_or_insert_with(|| {
            suffixes.map(|suffix| match cache {
                Some(c) => {
                    let (trie, warm) = c.get_or_create(costs, suffix);
                    if warm {
                        stats.trie_cache_hits += 1;
                    } else {
                        stats.trie_cache_misses += 1;
                    }
                    TrieHandle::Shared(trie)
                }
                None => TrieHandle::Private(DpTrie::new(costs, suffix)),
            })
        });
        if self.local {
            for handle in tries.iter_mut() {
                if let TrieHandle::Private(trie) = handle {
                    trie.clear();
                }
            }
        }
        let [tb, tf] = tries;
        let [eb, ef] = &mut self.ed;
        let back = path[..j].iter().rev().copied();
        let fwd = path[j + 1..].iter().copied();
        // One budget for both walks (module docs): the longer query suffix
        // first, ties forward; every stop test is the pair test
        // `(sub0 + b) + f >= τ` at its least possible operands.
        let first = |lb| sub0 + lb >= tau;
        let f_min = if suffixes[1].len() >= suffixes[0].len() {
            let f_min = with_trie(tf, |t| {
                walk_trie(t, costs, suffixes[1], fwd, first, ef, stats)
            });
            if sub0 + f_min >= tau {
                return; // a barren anchor: no backward walk, no pair
            }
            with_trie(tb, |t| {
                let stop = |lb| sub0 + lb + f_min >= tau;
                walk_trie(t, costs, suffixes[0], back, stop, eb, stats)
            });
            f_min
        } else {
            let b_min = with_trie(tb, |t| {
                walk_trie(t, costs, suffixes[0], back, first, eb, stats)
            });
            if sub0 + b_min >= tau {
                return; // a barren anchor: no forward walk, no pair
            }
            with_trie(tf, |t| {
                let stop = |lb| sub0 + b_min + lb >= tau;
                walk_trie(t, costs, suffixes[1], fwd, stop, ef, stats)
            })
        };

        // Enumerate (s, t) pairs through the anchor (Algorithm 4 line 6).
        // A backward prefix whose best pair, with the least `E^f`, already
        // reaches τ has no pair at all: f64 addition is monotone, so every
        // `sub0 + b + f` is at least `sub0 + b + f_min`.
        for (kb, &b) in eb.iter().enumerate() {
            if sub0 + b + f_min >= tau {
                continue;
            }
            for (kf, &f) in ef.iter().enumerate() {
                let d = sub0 + b + f;
                if d < tau {
                    results.push(cand.id, j - kb, j + kf, d);
                }
            }
        }
    }
}

impl<M: CostModel> Verifier for WedVerifier<'_, M> {
    fn verify_group(
        &mut self,
        path: &[Sym],
        group: &[Candidate],
        results: &mut ResultSet,
        stats: &mut SearchStats,
    ) {
        for cand in group {
            self.verify_candidate(path, *cand, results, stats);
        }
    }
}

/// Algorithm 5 (AllPrefixWED) against a trie: fills `ed` with
/// `E^d[k] = wed(P^d[..k], Q^d)` for `k = 0..` until the walk's budget
/// runs out, and returns the least `E^d[k]` it pushed.
///
/// `reaches(LB^d_k)` is the anchor's one budget (module docs): true when
/// no pair `(sub0 + b) + f` whose side here costs at least `LB^d_k` stays
/// below τ. For the side walked first (the longer query suffix, ties
/// forward) that is `sub0 + LB >= τ`; for the other side the first side's
/// returned minimum joins the sum. The bound never falls along a walk and
/// no later `E^d` is below it (Eq. 11), and f64 addition is monotone, so
/// the walk stops at the first column where `reaches` holds, without
/// pushing that column's `E^d[k]`, and loses no pair.
///
/// The one walk for every trie: a private one, a batch-shared one (its
/// lock held by the caller for the whole walk, so a column a walk creates
/// is counted in its `stepdp_calls` and nobody else's), and Local mode's
/// private one cleared to its root, where every step creates its column.
/// A shared trie may have been built by another query whose profile
/// windows the same suffix symbols elsewhere; this walk extends it from its
/// own rows, which hold the same numbers for the same symbols.
fn walk_trie<M: CostModel + ?Sized>(
    trie: &mut DpTrie,
    costs: &mut SubProfile<'_, M>,
    suffix: Suffix,
    syms: impl Iterator<Item = Sym>,
    reaches: impl Fn(f64) -> bool,
    ed: &mut Vec<f64>,
    stats: &mut SearchStats,
) -> f64 {
    ed.clear();
    let mut best = trie.bound_and_ed(0).1;
    ed.push(best);
    let mut node = 0u32;
    for sym in syms {
        let (child, created) = trie.child(costs, suffix, node, sym);
        stats.columns_passed += 1;
        stats.verify_cost += 1;
        if created {
            stats.stepdp_calls += 1;
        }
        let (min, e) = trie.bound_and_ed(child);
        if reaches(min) {
            break;
        }
        ed.push(e);
        best = best.min(e);
        node = child;
    }
    best
}

// ---------------------------------------------------------------------------
// Top-level verification (Algorithm 3)
// ---------------------------------------------------------------------------

/// Applies the TF pre-filter, sorts by `(id, j, iq)` and removes exact
/// duplicate triples. Overlapping substitution neighborhoods can emit the
/// same `(id, j, iq)` several times; verifying each copy repeats the whole
/// bidirectional DP (correctness survives only through the ResultSet
/// min-merge), so only distinct triples proceed. The sort doubles as the
/// per-trajectory grouping verification walks.
fn prepare_candidates(
    index_span: impl Fn(TrajId) -> (f64, f64),
    candidates: &[Candidate],
    temporal: Option<&TemporalConstraint>,
    temporal_filter: bool,
    stats: &mut SearchStats,
) -> Vec<Candidate> {
    stats.candidates = candidates.len();
    let mut filtered: Vec<Candidate> = match (temporal, temporal_filter) {
        (Some(c), true) => candidates
            .iter()
            .filter(|cand| c.may_contain_match(index_span(cand.id)))
            .cloned()
            .collect(),
        _ => candidates.to_vec(),
    };
    stats.candidates_after_temporal = filtered.len();
    filtered.sort_unstable_by_key(|c| (c.id, c.j, c.iq));
    filtered.dedup();
    stats.candidates_deduped = filtered.len();
    filtered
}

/// Exact temporal post-check, deterministic ordering, result count — the
/// tail of verification and of the exact fallback scan alike.
pub(crate) fn finish_verification(
    mut results: ResultSet,
    store: &TrajectoryStore,
    temporal: Option<&TemporalConstraint>,
    stats: &mut SearchStats,
) -> Vec<MatchResult> {
    if let Some(c) = temporal {
        results.retain(|id, s, t| {
            let times = store.get(id).times();
            c.accepts(times[s], times[t])
        });
    }
    let out = results.into_sorted_vec();
    stats.results = out.len();
    out
}

/// Verifies a candidate set and returns the exact Definition 3 result set.
///
/// With a [`TemporalConstraint`] and `temporal_filter = true`, candidates
/// whose trajectory span cannot overlap the query interval are pruned before
/// verification (the TF strategy of §4.3); the exact per-match span check is
/// applied afterwards in both cases. Exact duplicate triples are verified
/// once (`stats.candidates_deduped`).
///
/// This is the engine's verification phase without deadline, tracing or a
/// shared cache, for callers that bring their own candidates (the filtering
/// baselines, the benchmark's layer ledger). `mode` picks the verifier as
/// the engine does: [`VerifyMode::Sw`] scans each candidate trajectory
/// whole, the other two walk bidirectional tries.
#[allow(clippy::too_many_arguments)]
pub fn verify_candidates<M: WedInstance>(
    model: &M,
    store: &TrajectoryStore,
    index_span: impl Fn(TrajId) -> (f64, f64),
    q: &[Sym],
    tau: f64,
    candidates: &[Candidate],
    mode: VerifyMode,
    temporal: Option<&TemporalConstraint>,
    temporal_filter: bool,
    stats: &mut SearchStats,
) -> Vec<MatchResult> {
    let ctx = ExecCtx {
        deadline: Deadline::NONE,
        tracer: Tracer::disabled(),
        cache: None,
    };
    let (mut scan, mut walk);
    let verifier: &mut dyn Verifier = match mode {
        VerifyMode::Sw => {
            scan = ScanVerifier::new(model, q, tau, Metric::Wed);
            &mut scan
        }
        VerifyMode::Local | VerifyMode::Trie => {
            walk = WedVerifier::new(model, q, tau, mode == VerifyMode::Local);
            &mut walk
        }
    };
    verify_all(
        store,
        index_span,
        candidates,
        verifier,
        temporal,
        temporal_filter,
        ctx,
        stats,
    )
    .expect("verification without a deadline cannot expire")
}

/// The engine's verification phase, for any metric: the shared front half
/// (TF pre-filter, sort/dedup), then `verifier` over each trajectory's
/// group of candidates in id order, then the exact temporal post-check.
///
/// `ctx.deadline` is checked between trajectory groups, so an expired query
/// stops within one trajectory's worth of DP work and returns
/// [`QueryError::DeadlineExceeded`], never a partial answer. `ctx.cache` is
/// not read here: it reaches the verifier through its constructor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_all<V: Verifier + ?Sized>(
    store: &TrajectoryStore,
    index_span: impl Fn(TrajId) -> (f64, f64),
    candidates: &[Candidate],
    verifier: &mut V,
    temporal: Option<&TemporalConstraint>,
    temporal_filter: bool,
    ctx: ExecCtx<'_>,
    stats: &mut SearchStats,
) -> Result<Vec<MatchResult>, QueryError> {
    let dedup = ctx.tracer.span("dedup");
    let sorted = prepare_candidates(index_span, candidates, temporal, temporal_filter, stats);
    dedup.finish();
    let span = ctx.tracer.span_with("verify_shard", 0);
    let mut results = ResultSet::new();
    for group in sorted.chunk_by(|a, b| a.id == b.id) {
        ctx.deadline.check()?;
        let path = store.get(group[0].id).path();
        verifier.verify_group(path, group, &mut results, stats);
    }
    span.finish();
    Ok(finish_verification(results, store, temporal, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj::Trajectory;
    use wed::models::Lev;
    use wed::wed;

    fn store_of(paths: &[&[Sym]]) -> TrajectoryStore {
        paths
            .iter()
            .map(|p| Trajectory::untimed(p.to_vec()))
            .collect()
    }

    /// Exhaustive candidate set: every (id, j) with P[j] == some Q[iq]
    /// (Lev neighborhoods are singletons).
    fn all_candidates(store: &TrajectoryStore, q: &[Sym]) -> Vec<Candidate> {
        let mut c = Vec::new();
        for (id, t) in store.iter() {
            for (j, &p) in t.path().iter().enumerate() {
                for (iq, &qs) in q.iter().enumerate() {
                    if p == qs {
                        c.push(Candidate {
                            id,
                            j: j as u32,
                            iq: iq as u32,
                        });
                    }
                }
            }
        }
        c
    }

    fn brute(store: &TrajectoryStore, q: &[Sym], tau: f64) -> Vec<(TrajId, usize, usize, f64)> {
        let mut out = Vec::new();
        for (id, t) in store.iter() {
            let p = t.path();
            for s in 0..p.len() {
                for e in s..p.len() {
                    let d = wed(&Lev, &p[s..=e], q);
                    if d < tau {
                        out.push((id, s, e, d));
                    }
                }
            }
        }
        out.sort_by(|a, b| (a.0, a.1, a.2).partial_cmp(&(b.0, b.1, b.2)).unwrap());
        out
    }

    fn run(store: &TrajectoryStore, q: &[Sym], tau: f64, mode: VerifyMode) -> Vec<MatchResult> {
        let cands = all_candidates(store, q);
        let mut stats = SearchStats::default();
        verify_candidates(
            &Lev,
            store,
            |id| store.get(id).span(),
            q,
            tau,
            &cands,
            mode,
            None,
            false,
            &mut stats,
        )
    }

    /// [`run`] through [`verify_all`] with the verifier the engine picks for
    /// `mode` — the scan verifier for SW, tries over `cache` otherwise — and
    /// the engine's call shape.
    fn run_engine(
        store: &TrajectoryStore,
        q: &[Sym],
        tau: f64,
        mode: VerifyMode,
        deadline: Deadline,
        cache: Option<&TrieCache>,
    ) -> (Result<Vec<MatchResult>, QueryError>, SearchStats) {
        let cands = all_candidates(store, q);
        let mut stats = SearchStats::default();
        let (mut scan, mut walk);
        let verifier: &mut dyn Verifier = if mode == VerifyMode::Sw {
            scan = ScanVerifier::new(&Lev, q, tau, Metric::Wed);
            &mut scan
        } else {
            let local = mode == VerifyMode::Local;
            walk = WedVerifier::with_profile(SubProfile::new(&Lev, q), q, tau, local, cache);
            &mut walk
        };
        let got = verify_all(
            store,
            |id| store.get(id).span(),
            &cands,
            verifier,
            None,
            false,
            ExecCtx {
                deadline,
                tracer: Tracer::disabled(),
                cache,
            },
            &mut stats,
        );
        (got, stats)
    }

    #[test]
    fn all_modes_match_brute_force() {
        let store = store_of(&[
            &[0, 1, 2, 3, 4],
            &[3, 1, 5, 1, 2],
            &[9, 8, 7],
            &[1, 2, 1, 2, 1, 2],
        ]);
        let q: Vec<Sym> = vec![1, 5, 2];
        for tau in [1.0, 1.5, 2.0, 3.0] {
            let want = brute(&store, &q, tau);
            for mode in [VerifyMode::Sw, VerifyMode::Local, VerifyMode::Trie] {
                let got = run(&store, &q, tau, mode);
                let got_k: Vec<_> = got.iter().map(|m| (m.id, m.start, m.end)).collect();
                let want_k: Vec<_> = want.iter().map(|&(id, s, t, _)| (id, s, t)).collect();
                assert_eq!(got_k, want_k, "mode {mode:?} tau {tau}");
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.dist - w.3).abs() < 1e-9, "distance mismatch in {mode:?}");
                }
            }
        }
    }

    #[test]
    fn trie_shares_columns_across_candidates() {
        // Two trajectories with a long shared suffix after the anchor: the
        // second verification should hit the cache.
        let store = store_of(&[&[9, 1, 2, 3, 4, 5], &[8, 1, 2, 3, 4, 6]]);
        let q: Vec<Sym> = vec![1, 2, 3];
        let cands = all_candidates(&store, &q);
        let mut stats = SearchStats::default();
        let _ = verify_candidates(
            &Lev,
            &store,
            |id| store.get(id).span(),
            &q,
            2.0,
            &cands,
            VerifyMode::Trie,
            None,
            false,
            &mut stats,
        );
        assert!(
            stats.stepdp_calls < stats.columns_passed,
            "expected cache hits: {} fresh of {} visited",
            stats.stepdp_calls,
            stats.columns_passed
        );
        // On the Local/Trie paths the metric-neutral cost is the visited
        // columns, not the SW upper bound.
        assert_eq!(stats.verify_cost, stats.columns_passed);

        // Local mode computes every visited column fresh.
        let mut stats_local = SearchStats::default();
        let _ = verify_candidates(
            &Lev,
            &store,
            |id| store.get(id).span(),
            &q,
            2.0,
            &cands,
            VerifyMode::Local,
            None,
            false,
            &mut stats_local,
        );
        assert_eq!(stats_local.stepdp_calls, stats_local.columns_passed);
    }

    #[test]
    fn early_termination_prunes_columns() {
        // One anchor in the middle of a long non-matching trajectory: the
        // verifier must not walk to the ends.
        let mut path = vec![7u32; 60];
        path[30] = 1;
        let store = store_of(&[&path]);
        let q: Vec<Sym> = vec![1, 2];
        let cands = all_candidates(&store, &q);
        assert_eq!(cands.len(), 1);
        let mut stats = SearchStats::default();
        let _ = verify_candidates(
            &Lev,
            &store,
            |id| store.get(id).span(),
            &q,
            1.5,
            &cands,
            VerifyMode::Trie,
            None,
            false,
            &mut stats,
        );
        assert!(
            stats.columns_passed < 20,
            "early termination failed: {} columns",
            stats.columns_passed
        );
        assert!(stats.upr() < 0.5);
    }

    #[test]
    fn anchor_over_budget_is_skipped() {
        let store = store_of(&[&[1, 2, 3]]);
        let q: Vec<Sym> = vec![5, 6];
        // Candidate manually anchored at (0,0): sub(1,5)=1 >= tau=1.
        let cands = vec![Candidate { id: 0, j: 0, iq: 0 }];
        let mut stats = SearchStats::default();
        let got = verify_candidates(
            &Lev,
            &store,
            |id| store.get(id).span(),
            &q,
            1.0,
            &cands,
            VerifyMode::Trie,
            None,
            false,
            &mut stats,
        );
        assert!(got.is_empty());
        assert_eq!(stats.columns_passed, 0);
    }

    /// The one candidate `(0, j, iq)` under `m` over `store` in `mode`:
    /// its matches as `(s, t, dist)` and the run's stats.
    fn run_one<M: WedInstance>(
        m: &M,
        store: &TrajectoryStore,
        q: &[Sym],
        tau: f64,
        (j, iq): (u32, u32),
        mode: VerifyMode,
    ) -> (Vec<(usize, usize, f64)>, SearchStats) {
        let mut stats = SearchStats::default();
        let got = verify_candidates(
            m,
            store,
            |id| store.get(id).span(),
            q,
            tau,
            &[Candidate { id: 0, j, iq }],
            mode,
            None,
            false,
            &mut stats,
        );
        let got = got.iter().map(|r| (r.start, r.end, r.dist)).collect();
        (got, stats)
    }

    /// What the anchor `(j, iq)` of `p` must report (Eq. 10, Lemma 1):
    /// every `(s, t)` through it whose split `(sub0 + b) + f` is below τ,
    /// with `b` the backward prefix WED over the reversed sides and `f` the
    /// forward one — the verifier's own operands and operand order.
    fn anchor_oracle<M: CostModel>(
        m: &M,
        p: &[Sym],
        q: &[Sym],
        tau: f64,
        (j, iq): (usize, usize),
    ) -> Vec<(usize, usize, f64)> {
        let rev = |s: &[Sym]| s.iter().rev().copied().collect::<Vec<_>>();
        let sub0 = m.sub(p[j], q[iq]);
        let mut out = Vec::new();
        for s in 0..=j {
            let b = wed(m, &rev(&p[s..j]), &rev(&q[..iq]));
            for t in j..p.len() {
                let d = sub0 + b + wed(m, &p[j + 1..=t], &q[iq + 1..]);
                if d < tau {
                    out.push((s, t, d));
                }
            }
        }
        out
    }

    /// A cost model whose only cheap substitutions are the two of the
    /// rounding repro below.
    struct Ulp;
    impl CostModel for Ulp {
        fn sub(&self, a: Sym, b: Sym) -> f64 {
            match (a, b) {
                (2, 0) => 0.5775538189462472,
                (3, 1) => 0.17020453436509603,
                _ => 10.0,
            }
        }
        fn ins(&self, _: Sym) -> f64 {
            10.0
        }
    }
    impl WedInstance for Ulp {
        fn name(&self) -> &'static str {
            "Ulp"
        }
        fn ball(&self, q: Sym) -> wed::Ball {
            wed::Ball {
                syms: vec![q],
                beyond: 0.0,
            }
        }
    }

    #[test]
    fn budget_stops_in_the_pair_tests_arithmetic() {
        // Regression: a walk stopped on `LB >= τ − sub0`. Here `τ − sub0`
        // rounds to exactly the backward column's bound `LB = sub(2, 0)`,
        // yet `sub0 + LB` is below τ: the walk stopped one column before
        // the only match through the anchor.
        let store = store_of(&[&[2, 3]]);
        let (q, tau) = ([0, 1], 0.7477583533113433);
        let want = wed(&Ulp, &[2, 3], &q);
        assert!(want < tau, "{want} < {tau}");
        assert_eq!(tau - Ulp.sub(3, 1), Ulp.sub(2, 0));
        assert_eq!(
            anchor_oracle(&Ulp, &[2, 3], &q, tau, (1, 1)),
            [(0, 1, want)]
        );
        for mode in [VerifyMode::Local, VerifyMode::Trie] {
            let (got, _) = run_one(&Ulp, &store, &q, tau, (1, 1), mode);
            assert_eq!(got, [(0, 1, want)], "{mode:?}");
        }
    }

    #[test]
    fn barren_anchor_costs_one_walk() {
        // The forward suffix [2, 3] is the longer one and walks first; its
        // least E^f is 2 ≥ τ, so the backward side, four columns of data,
        // walks none.
        let store = store_of(&[&[7, 7, 7, 7, 1, 7, 7]]);
        for mode in [VerifyMode::Local, VerifyMode::Trie] {
            let (got, stats) = run_one(&Lev, &store, &[1, 2, 3], 1.5, (4, 0), mode);
            assert!(got.is_empty());
            assert_eq!(
                (stats.columns_passed, stats.stepdp_calls),
                (2, 2),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn second_walk_stops_at_what_the_first_left() {
        // A mismatched anchor (sub0 = 1) at τ = 2.5. The forward walk, first
        // on the tie, takes two columns and leaves f_min = 1; the backward
        // one stops at its first column, where (1 + 1) + 1 ≥ τ.
        let store = store_of(&[&[7, 7, 7, 5, 7, 7, 7]]);
        for mode in [VerifyMode::Local, VerifyMode::Trie] {
            let (got, stats) = run_one(&Lev, &store, &[1, 2, 3], 2.5, (3, 1), mode);
            assert!(got.is_empty());
            assert_eq!(stats.columns_passed, 3, "{mode:?}");
        }
    }

    #[test]
    fn every_anchor_reports_exactly_its_pairs() {
        // The last path and query: at anchor (1, 1) the forward side walks
        // first and its E^f = [4, 3, 2, 1, 0, 1] ends above its minimum;
        // only the minimum lets the backward walk reach P[0], which the
        // pair (0, 5) at distance 1 < τ = 2 needs.
        let paths: [&[Sym]; 5] = [
            &[0, 1, 2, 3, 4],
            &[3, 1, 5, 1, 2, 2, 1],
            &[1, 2, 1, 2, 1, 2],
            &[5, 1, 2, 5, 9, 1],
            &[9, 0, 2, 3, 4, 5, 7, 7],
        ];
        let queries: [&[Sym]; 5] = [
            &[1],
            &[1, 2],
            &[2, 1, 5, 2],
            &[1, 5, 2, 1, 9],
            &[1, 0, 2, 3, 4, 5],
        ];
        fn check<M: WedInstance>(m: &M, paths: &[&[Sym]], queries: &[&[Sym]], scale: f64) {
            for &p in paths {
                let store = store_of(&[p]);
                for &q in queries {
                    for tau in [0.5, 1.0, 1.5, 2.0, 3.0, 4.5].map(|t| scale * t) {
                        for (j, iq) in (0..p.len()).flat_map(|j| (0..q.len()).map(move |i| (j, i)))
                        {
                            let want = anchor_oracle(m, p, q, tau, (j, iq));
                            let at = (j as u32, iq as u32);
                            for mode in [VerifyMode::Local, VerifyMode::Trie] {
                                let (got, _) = run_one(m, &store, q, tau, at, mode);
                                assert_eq!(
                                    got, want,
                                    "{mode:?} p {p:?} q {q:?} tau {tau} at {at:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        check(&Lev, &paths, &queries, 1.0);
        check(&Weighted, &paths, &queries, 2.0);
    }

    #[test]
    fn pair_at_exactly_the_budget_is_out() {
        // b_min = f_min = 1 and sub0 = 0: at τ = 2 the best pair through the
        // anchor costs exactly τ and is excluded; at τ = 3 every substring
        // through it is in.
        let store = store_of(&[&[9, 2, 9]]);
        let q: Vec<Sym> = vec![1, 2, 3];
        for (tau, hits) in [(2.0, 0), (3.0, 4)] {
            let want = brute(&store, &q, tau);
            assert_eq!(want.len(), hits, "tau {tau}");
            for mode in [VerifyMode::Sw, VerifyMode::Local, VerifyMode::Trie] {
                let got: Vec<_> = run(&store, &q, tau, mode)
                    .iter()
                    .map(|m| (m.id, m.start, m.end, m.dist))
                    .collect();
                assert_eq!(got, want, "mode {mode:?} tau {tau}");
            }
        }
    }

    #[test]
    fn one_symbol_queries_and_end_anchors_match_brute_force() {
        // |Q| = 1 leaves both query suffixes empty (the tie); anchors at
        // iq = 0 or iq = |Q| − 1 of a longer Q leave one of them empty.
        // τ ≤ |Q|: a substring with no exact symbol of Q costs at least |Q|
        // and has no anchor.
        let store = store_of(&[
            &[1, 2, 3, 1],
            &[3, 3, 1, 2, 2, 3],
            &[2, 1, 3],
            &[1],
            &[3, 2, 1, 3, 2, 1, 2],
        ]);
        let cache = TrieCache::new();
        for q in [&[1][..], &[3], &[1, 2], &[3, 1, 2], &[2, 3, 3, 1]] {
            for tau in [0.5, 1.0, 1.5, 2.0, 3.0].map(|t: f64| t.min(q.len() as f64)) {
                let want = brute(&store, q, tau);
                for mode in [VerifyMode::Sw, VerifyMode::Local, VerifyMode::Trie] {
                    let got: Vec<_> = run(&store, q, tau, mode)
                        .iter()
                        .map(|m| (m.id, m.start, m.end, m.dist))
                        .collect();
                    assert_eq!(got, want, "mode {mode:?} q {q:?} tau {tau}");
                    let (shared, _) =
                        run_engine(&store, q, tau, mode, Deadline::NONE, Some(&cache));
                    assert_eq!(shared.unwrap(), run(&store, q, tau, mode));
                }
            }
        }
    }

    #[test]
    fn temporal_filter_prunes_and_postcheck_is_exact() {
        use crate::temporal::{TemporalConstraint, TimeInterval};
        let mut store = TrajectoryStore::new();
        store.push(Trajectory::new(vec![1, 2, 3], vec![0.0, 1.0, 2.0]));
        store.push(Trajectory::new(vec![1, 2, 3], vec![100.0, 101.0, 102.0]));
        let q: Vec<Sym> = vec![1, 2, 3];
        let cands = all_candidates(&store, &q);
        let constraint = TemporalConstraint::overlaps(TimeInterval::new(0.0, 50.0));

        let mut stats = SearchStats::default();
        let got = verify_candidates(
            &Lev,
            &store,
            |id| store.get(id).span(),
            &q,
            1.0,
            &cands,
            VerifyMode::Trie,
            Some(&constraint),
            true,
            &mut stats,
        );
        assert!(got.iter().all(|m| m.id == 0));
        assert!(stats.candidates_after_temporal < stats.candidates);

        // no-TF path returns the same results.
        let mut stats2 = SearchStats::default();
        let got2 = verify_candidates(
            &Lev,
            &store,
            |id| store.get(id).span(),
            &q,
            1.0,
            &cands,
            VerifyMode::Trie,
            Some(&constraint),
            false,
            &mut stats2,
        );
        assert_eq!(got, got2);
        assert_eq!(stats2.candidates_after_temporal, stats2.candidates);
    }

    /// A profile of `[9] ++ qd` and its forward window at 0, which is `qd`.
    fn profile_of<'m, M: WedInstance>(m: &'m M, qd: &[Sym]) -> (SubProfile<'m, M>, Suffix) {
        let q: Vec<Sym> = std::iter::once(9).chain(qd.iter().copied()).collect();
        let costs = SubProfile::new(m, &q);
        let suffix = costs.forward(0);
        assert_eq!(costs.symbols(suffix), qd);
        (costs, suffix)
    }

    /// The cached DP column of `node` over a suffix of `n` symbols, decoded
    /// from either slab: `col[j] = wed(P^d[..k], Q^d[..j])` for the node's
    /// depth `k`.
    fn col(trie: &DpTrie, node: u32, n: usize) -> Vec<f64> {
        let at = node as usize * trie.stride;
        match &trie.cols {
            Slab::Costs(cols) => cols[at..at + trie.stride].to_vec(),
            Slab::Bits(cols) => wed::dp::bit_column_entries(n, &cols[at..at + trie.stride]),
        }
    }

    #[test]
    fn node_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }

    #[test]
    fn trie_len_grows_only_on_miss() {
        let (mut costs, suffix) = profile_of(&Lev, &[1, 2]);
        let mut trie = DpTrie::new(&costs, suffix);
        assert_eq!(trie.len(), 1);
        let (a, created_a) = trie.child(&mut costs, suffix, 0, 5);
        assert!(created_a);
        let (b, created_b) = trie.child(&mut costs, suffix, 0, 5);
        assert!(!created_b);
        assert_eq!(a, b);
        assert_eq!(trie.len(), 2);
        assert!(!trie.is_empty());
    }

    #[test]
    fn trie_is_empty_iff_root_only() {
        // Regression: `is_empty` used to return `false` unconditionally,
        // contradicting the root-only state that `len() == 1` reports.
        let (mut costs, suffix) = profile_of(&Lev, &[1, 2]);
        let mut trie = DpTrie::new(&costs, suffix);
        assert!(trie.is_empty(), "a fresh trie caches no data columns");
        assert_eq!(trie.len(), 1);
        trie.child(&mut costs, suffix, 0, 9);
        assert!(!trie.is_empty());
        assert_eq!(trie.len(), 2);
    }

    /// A non-unit cost model: symbol-dependent substitution, insertion and
    /// deletion costs.
    struct Weighted;
    impl CostModel for Weighted {
        fn sub(&self, a: Sym, b: Sym) -> f64 {
            if a == b {
                0.0
            } else {
                0.25 * (a + b) as f64
            }
        }
        fn ins(&self, a: Sym) -> f64 {
            1.0 + 0.5 * a as f64
        }
    }
    impl WedInstance for Weighted {
        fn name(&self) -> &'static str {
            "Weighted"
        }
        fn ball(&self, q: Sym) -> wed::Ball {
            wed::Ball {
                syms: vec![q],
                beyond: 0.0,
            }
        }
    }

    /// Walks one branch and a sibling off the root, checking every entry of
    /// every fresh column, its node's bound and its node's `ed` against a
    /// fresh DP.
    fn check_arena_columns<M: WedInstance>(m: &M, qd: &[Sym], bits: bool) {
        let (mut costs, suffix) = profile_of(m, qd);
        let mut trie = DpTrie::new(&costs, suffix);
        assert_eq!(matches!(trie.cols, Slab::Bits(_)), bits);
        let syms = [4u32, 2, 3, 1, 2, 7, 3, 3];
        let mut node = 0u32;
        let check = |trie: &DpTrie, node: u32, p: &[Sym]| {
            let want: Vec<f64> = (0..=qd.len()).map(|j| wed(m, p, &qd[..j])).collect();
            assert_eq!(col(trie, node, qd.len()), want, "P^d = {p:?}");
            let (min, ed) = trie.bound_and_ed(node);
            assert_eq!(ed, want[qd.len()]);
            assert_eq!(min, want.iter().cloned().fold(f64::INFINITY, f64::min));
        };
        check(&trie, 0, &[]);
        for k in 0..syms.len() {
            let (child, created) = trie.child(&mut costs, suffix, node, syms[k]);
            assert!(created);
            check(&trie, child, &syms[..k + 1]);
            node = child;
        }
        // A branch off the root shares nothing but the root column.
        let (b, created) = trie.child(&mut costs, suffix, 0, 9);
        assert!(created);
        check(&trie, b, &[9]);
        assert_eq!(trie.len(), syms.len() + 2);
    }

    #[test]
    fn arena_trie_columns_match_direct_dp() {
        // Unit costs: a bit slab, over one word and over two.
        check_arena_columns(&Lev, &[1, 2, 3], true);
        let long: Vec<Sym> = (0..70).map(|j| [1, 2, 3, 4, 7][j % 5]).collect();
        check_arena_columns(&Lev, &long, true);
    }

    #[test]
    fn arena_trie_columns_match_direct_dp_on_costs() {
        check_arena_columns(&Weighted, &[1, 2, 3], false);
        check_arena_columns(&Weighted, &[5, 2, 9, 9, 4], false);
    }

    #[test]
    fn shared_cache_is_bit_identical_and_warms_across_runs() {
        let store = store_of(&[
            &[0, 1, 2, 3, 4],
            &[3, 1, 5, 1, 2],
            &[1, 2, 1, 2, 1, 2],
            &[5, 1, 2, 5],
        ]);
        let q: Vec<Sym> = vec![1, 5, 2];
        let run_with = |cache: Option<&TrieCache>| {
            let (got, stats) = run_engine(&store, &q, 2.0, VerifyMode::Trie, Deadline::NONE, cache);
            (got.unwrap(), stats)
        };
        let (want, private) = run_with(None);
        assert_eq!(private.trie_cache_hits + private.trie_cache_misses, 0);

        let cache = TrieCache::new();
        let (got, cold) = run_with(Some(&cache));
        assert_eq!(got, want, "shared tries must not change results");
        assert!(cold.trie_cache_misses > 0);
        // Suffix-keyed sharing can only reduce DP work vs private tries.
        assert!(cold.stepdp_calls <= private.stepdp_calls);
        assert_eq!(cold.columns_passed, private.columns_passed);

        // A second identical run hits warm tries end to end: every column
        // is already materialized, so no StepDP runs at all.
        let (again, warm) = run_with(Some(&cache));
        assert_eq!(again, want);
        assert_eq!(warm.stepdp_calls, 0);
        assert_eq!(warm.trie_cache_misses, 0);
        assert!(warm.trie_cache_hits > 0);
    }

    #[test]
    fn poisoned_cache_answers_like_a_fresh_one() {
        let store = store_of(&[
            &[0, 1, 2, 3, 4],
            &[3, 1, 5, 1, 2],
            &[1, 2, 1, 2, 1, 2],
            &[5, 1, 2, 5],
        ]);
        let run_with = |q: &[Sym], cache: &TrieCache| {
            let mode = VerifyMode::Trie;
            let (got, stats) = run_engine(&store, q, 2.0, mode, Deadline::NONE, Some(cache));
            (got.unwrap(), stats)
        };
        let cache = TrieCache::new();
        let _ = run_with(&[1, 5, 2], &cache);

        // A worker dies holding every lock of the cache: all eight shards
        // and every trie in them.
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let shards: Vec<_> = cache.shards.iter().map(|s| s.lock().unwrap()).collect();
                    let _tries: Vec<_> = shards
                        .iter()
                        .flat_map(|s| s.values())
                        .map(|t| t.lock().unwrap())
                        .collect();
                    // Unwinds like a panic, without the hook's stderr noise.
                    std::panic::resume_unwind(Box::new("worker died"));
                })
                .join()
        });
        assert!(died.is_err());
        assert!(cache.shards.iter().all(|s| s.is_poisoned()));

        // The same query again (warm, poisoned tries) and a longer one that
        // shares suffixes with it (poisoned shards take new tries, poisoned
        // tries take new columns).
        for q in [&[1, 5, 2][..], &[2, 1, 5, 2][..]] {
            let (want, fresh) = run_with(q, &TrieCache::new());
            let (got, stats) = run_with(q, &cache);
            assert_eq!(got, want, "q {q:?}");
            assert_eq!(stats.columns_passed, fresh.columns_passed);
            assert!(stats.stepdp_calls <= fresh.stepdp_calls);
        }
    }

    #[test]
    fn sw_mode_counts_columns_per_distinct_trajectory() {
        // Regression: SW mode used to accumulate `sw_columns` once per
        // candidate while scanning once per distinct trajectory, inflating
        // the UPR denominator whenever a trajectory carries several anchors.
        let store = store_of(&[&[1, 2, 1, 2, 1]]);
        let q: Vec<Sym> = vec![1];
        let cands = all_candidates(&store, &q);
        assert_eq!(cands.len(), 3, "three anchors in the single trajectory");
        let mut stats = SearchStats::default();
        let _ = verify_candidates(
            &Lev,
            &store,
            |id| store.get(id).span(),
            &q,
            0.5,
            &cands,
            VerifyMode::Sw,
            None,
            false,
            &mut stats,
        );
        // Exactly one scan of the length-5 trajectory; the metric-neutral
        // cost counts the same columns.
        assert_eq!(stats.sw_columns, 5);
        assert_eq!(stats.verify_cost, stats.sw_columns);
    }

    #[test]
    fn duplicate_candidates_verified_once() {
        // Regression: exact duplicate `(id, j, iq)` triples used to be fully
        // re-verified (correctness survived only via the ResultSet
        // min-merge). They must be deduped before verification.
        let store = store_of(&[&[0, 1, 2, 3, 4]]);
        let q: Vec<Sym> = vec![1, 2];
        let unique = all_candidates(&store, &q);
        let mut dup = unique.clone();
        dup.extend_from_slice(&unique);
        dup.extend_from_slice(&unique);

        let run_with = |cands: &[Candidate]| {
            let mut stats = SearchStats::default();
            let got = verify_candidates(
                &Lev,
                &store,
                |id| store.get(id).span(),
                &q,
                1.5,
                cands,
                VerifyMode::Trie,
                None,
                false,
                &mut stats,
            );
            (got, stats)
        };
        let (got_unique, stats_unique) = run_with(&unique);
        let (got_dup, stats_dup) = run_with(&dup);

        assert_eq!(got_dup, got_unique, "dedup must not change results");
        assert_eq!(stats_dup.candidates, 3 * unique.len());
        assert_eq!(stats_dup.candidates_deduped, unique.len());
        // The DP work is that of the unique set, not three times it.
        assert_eq!(stats_dup.sw_columns, stats_unique.sw_columns);
        assert_eq!(stats_dup.columns_passed, stats_unique.columns_passed);
        assert_eq!(stats_dup.stepdp_calls, stats_unique.stepdp_calls);
    }

    #[test]
    fn engine_routine_matches_verify_candidates_in_every_mode() {
        let store = store_of(&[
            &[0, 1, 2, 3, 4],
            &[3, 1, 5, 1, 2],
            &[9, 8, 7],
            &[1, 2, 1, 2, 1, 2],
            &[5, 1, 2, 5],
        ]);
        let q: Vec<Sym> = vec![1, 5, 2];
        for tau in [1.0, 2.0, 3.0] {
            let cands = all_candidates(&store, &q);
            for mode in [VerifyMode::Sw, VerifyMode::Local, VerifyMode::Trie] {
                let mut want_stats = SearchStats::default();
                let want = verify_candidates(
                    &Lev,
                    &store,
                    |id| store.get(id).span(),
                    &q,
                    tau,
                    &cands,
                    mode,
                    None,
                    false,
                    &mut want_stats,
                );
                let cache = TrieCache::new();
                for cache in [None, Some(&cache)] {
                    let (got, stats) = run_engine(&store, &q, tau, mode, Deadline::NONE, cache);
                    let ctx = format!("mode {mode:?} tau {tau} shared {}", cache.is_some());
                    assert_eq!(got.unwrap(), want, "{ctx}");
                    assert_eq!(stats.candidates_deduped, want_stats.candidates_deduped);
                    assert_eq!(stats.sw_columns, want_stats.sw_columns, "{ctx}");
                    assert_eq!(stats.columns_passed, want_stats.columns_passed, "{ctx}");
                    // Suffix-keyed sharing can only save StepDP work, and
                    // only in Trie mode, the one mode that reads a cache.
                    if cache.is_none() || mode != VerifyMode::Trie {
                        assert_eq!(stats.stepdp_calls, want_stats.stepdp_calls, "{ctx}");
                    }
                    assert!(stats.stepdp_calls <= want_stats.stepdp_calls, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn expired_deadline_is_typed_and_yields_no_partial_results() {
        use std::time::{Duration, Instant};
        let store = store_of(&[&[0, 1, 2, 3, 4], &[3, 1, 5, 1, 2], &[1, 2, 1, 2, 1, 2]]);
        let q: Vec<Sym> = vec![1, 5, 2];
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        for mode in [VerifyMode::Sw, VerifyMode::Local, VerifyMode::Trie] {
            let (got, _) = run_engine(&store, &q, 2.0, mode, past, None);
            assert_eq!(
                got.unwrap_err(),
                QueryError::DeadlineExceeded,
                "mode {mode:?}"
            );
        }
        // A generous deadline changes nothing about the results.
        let relaxed = Deadline::within(Duration::from_secs(3600));
        let (got, _) = run_engine(&store, &q, 2.0, VerifyMode::Trie, relaxed, None);
        assert_eq!(got.unwrap(), run(&store, &q, 2.0, VerifyMode::Trie));
    }
}
