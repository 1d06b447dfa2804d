//! Weighted edit distance (WED) — the similarity-function layer of the paper
//! (§2.2).
//!
//! WED is a *class* of edit distances whose insertion, deletion and
//! substitution costs are user-defined, subject to the assumptions of
//! Proposition 1 (non-negativity, symmetry, `sub(a,a) = 0`). The class
//! contains Levenshtein, EDR, ERP, their network-aware variants NetEDR and
//! NetERP, and SURS (shortest unshared road segments).
//!
//! * [`cost`] — the [`CostModel`] trait and the [`WedInstance`] extension that
//!   additionally exposes substitution neighborhoods `B(q)` (Definition 4)
//!   and lower costs `c(q)` (Eq. 7) to the filtering layer.
//! * [`models`] — the six concrete instances used in the paper's evaluation.
//! * [`dp`] — the quadratic DP for `wed(P, Q)` and the column-at-a-time
//!   StepDP primitive (Algorithm 6) in its three forms: the model-calling
//!   reference, and the two kernels trie verification runs over a per-query
//!   [`dp::SubProfile`] — row-reading for any model, bit-parallel for
//!   unit-cost ones.
//! * [`sw`] — the Smith–Waterman adaptation for subtrajectory matching
//!   (Algorithm 7) and a threshold-scan variant that returns *all* matching
//!   substrings.
//! * [`nonwed`] — DTW, LCSS, LORS and LCRS, the non-WED comparators of the
//!   effectiveness experiments (§6.2).
//! * [`metric`] — engine-facing DTW/LCSS/discrete-Fréchet over symbols, with
//!   the cost model's `sub` as ground distance, plus their `*_scan_all`
//!   verification primitives.
//! * [`hash`] — the multiplicative hasher of the symbol-keyed maps probed
//!   from hot loops, here and in the engine's result set.

pub mod cost;
pub mod dp;
pub mod hash;
pub mod metric;
pub mod models;
pub mod nonwed;
pub mod sw;

pub use cost::{Ball, CostModel, Sym, WedInstance};
pub use dp::{initial_column, step_dp, wed, wed_within};
pub use metric::{
    dtw_dist, dtw_scan_all, frechet_dist, frechet_scan_all, lcss_dist, lcss_scan_all,
};
pub use models::{Edr, Erp, Lev, NetEdr, NetErp, Surs};
pub use sw::{sw_best, sw_scan_all, SubMatch};
