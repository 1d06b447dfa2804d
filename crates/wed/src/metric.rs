//! Whole-sequence scans: every substring of a data sequence within a
//! threshold, under WED and under the non-edit metrics.
//!
//! [`sw_scan_all`] is the Smith–Waterman adaptation of §3 and Appendix A
//! under the result-set semantics of Definition 3: a per-start WED DP that
//! reports every substring below `tau`. It is the verification-grade
//! primitive of the Plain-SW and `*-SW` baselines, of the engine's SW
//! verify mode and of its exact fallback scan.
//!
//! The comparators in [`crate::nonwed`] operate on raw point sequences; the
//! rest of this module provides the engine-facing variants that reuse a cost
//! model's substitution cost `sub(a, b)` as the ground distance between
//! symbols, so every network-aware model (NetEDR's road distance, SURS's
//! segment lengths, …) transfers to DTW, LCSS and discrete Fréchet
//! unchanged:
//!
//! * **DTW** — the minimum, over monotone couplings of `P` and `Q` matching
//!   both endpoints, of the *sum* of coupled `sub` costs (no gaps).
//! * **LCSS(ε)** — `|Q| − L`, where `L` is the longest common subsequence
//!   under the ε-match predicate `sub(a, b) ≤ ε`; distances are integral.
//! * **Discrete Fréchet** — the minimum over the same couplings of the
//!   *maximum* coupled `sub` cost (the bottleneck variant of DTW).
//!
//! Each metric ships a whole-sequence distance and a `*_scan_all`
//! verification primitive mirroring [`sw_scan_all`]: a per-start
//! DP over the data sequence that reports every substring within a strict
//! threshold, plus the number of DP rows it evaluated (each `O(|Q|)`) — the
//! metric-neutral `verify_cost` unit. DTW and Fréchet rows are monotone
//! non-decreasing in their minimum entry (costs are non-negative and `max`
//! only grows), so both scans early-terminate once a row's minimum reaches
//! `tau` — the paper's rule (§5.1, Eq. 11) of never extending a DP whose
//! lower bound reached `τ`. The same monotonicity bounds a start before
//! its first row: every cell of start `s` is at least its first cell
//! `sub(p[s], q[0])`, so a start whose first cell is `≥ tau` is skipped for
//! the price of that one `sub` and counts no row. LCSS distances *shrink*
//! as substrings grow, so its scan must run each start to the end of the
//! sequence.

use crate::cost::{CostModel, Sym};
use crate::dp::{initial_column, step_dp_into};

/// A matching substring `P[start..=end]` (0-based, inclusive) with its
/// distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubMatch {
    pub start: usize,
    pub end: usize,
    pub dist: f64,
}

/// All non-empty substrings `P[s..=t]` with `wed(P[s..=t], Q) < tau`
/// (Definition 3 result-set semantics), found by a per-start DP with
/// early termination once the Eq. (11) lower bound reaches `tau`.
///
/// Each start extends two reused columns with [`step_dp_into`], whose
/// returned column minimum is that bound; a column is the one `wed` builds
/// for the same prefix, so every distance is `wed`'s to the bit.
pub fn sw_scan_all<M: CostModel + ?Sized>(m: &M, p: &[Sym], q: &[Sym], tau: f64) -> Vec<SubMatch> {
    let mut out = Vec::new();
    let init = initial_column(m, q);
    let (mut col, mut next) = (init.clone(), init.clone());
    for s in 0..p.len() {
        col.copy_from_slice(&init);
        for (t, &sym) in p.iter().enumerate().skip(s) {
            let lb = step_dp_into(m, q, sym, &col, &mut next);
            std::mem::swap(&mut col, &mut next);
            let d = col[q.len()];
            if d < tau {
                out.push(SubMatch {
                    start: s,
                    end: t,
                    dist: d,
                });
            }
            // Eq. (11): the column minimum lower-bounds every extension.
            if lb >= tau {
                break;
            }
        }
    }
    out
}

/// DTW between whole sequences under `m.sub` ground costs. Empty inputs are
/// at distance `0` from each other and `+∞` from anything non-empty (no
/// coupling exists).
pub fn dtw_dist<M: CostModel + ?Sized>(m: &M, a: &[Sym], b: &[Sym]) -> f64 {
    whole_sum_or_max(m, a, b, |c, reach| c + reach)
}

/// Discrete Fréchet between whole sequences under `m.sub` ground costs;
/// empty-input convention as in [`dtw_dist`].
pub fn frechet_dist<M: CostModel + ?Sized>(m: &M, a: &[Sym], b: &[Sym]) -> f64 {
    whole_sum_or_max(m, a, b, f64::max)
}

/// Whole-sequence coupling DP behind [`dtw_dist`] (`combine` adds a cell's
/// cost to the best way of reaching it) and [`frechet_dist`] (`combine`
/// maxes them). This is the oracle the scans are tested against, so it
/// stays a textbook `(|a| + 1) × (|b| + 1)` table with `+∞` borders and
/// shares nothing with [`scan_all_sum_or_max`].
fn whole_sum_or_max<M: CostModel + ?Sized>(
    m: &M,
    a: &[Sym],
    b: &[Sym],
    combine: impl Fn(f64, f64) -> f64,
) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.len() == b.len() {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let n = b.len();
    let mut prev = vec![f64::INFINITY; n + 1];
    let mut cur = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;
    for &x in a {
        // Column 0 of every row but the virtual one above `a[0]` is +∞.
        cur[0] = f64::INFINITY;
        for j in 1..=n {
            let reach = prev[j].min(cur[j - 1]).min(prev[j - 1]);
            cur[j] = combine(m.sub(x, b[j - 1]), reach);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// LCSS distance `|q| − L` where `L` is the longest common subsequence of
/// `p` and `q` under the ε-match `sub(a, b) ≤ eps`. Bounded by `|q|`; `0`
/// iff all of `q` matches into `p` in order.
pub fn lcss_dist<M: CostModel + ?Sized>(m: &M, p: &[Sym], q: &[Sym], eps: f64) -> f64 {
    let n = q.len();
    let mut prev = vec![0usize; n + 1];
    let mut cur = vec![0usize; n + 1];
    for &x in p {
        cur[0] = 0;
        for j in 0..n {
            cur[j + 1] = if m.sub(x, q[j]) <= eps {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (n - prev[n]) as f64
}

/// All non-empty substrings `p[s..=t]` with `dtw(p[s..=t], q) < tau`, plus
/// the number of DP rows evaluated. Per-start DP behind a start gate, with
/// early termination: the row minimum never decreases as the substring
/// grows, so once it reaches `tau` no extension of this start can match.
pub fn dtw_scan_all<M: CostModel + ?Sized>(
    m: &M,
    p: &[Sym],
    q: &[Sym],
    tau: f64,
) -> (Vec<SubMatch>, u64) {
    scan_all_sum_or_max(m, p, q, tau, |c, reach| c + reach)
}

/// All non-empty substrings `p[s..=t]` with discrete Fréchet `< tau`, plus
/// the number of DP rows evaluated; start gate and early termination as in
/// [`dtw_scan_all`] (the bottleneck cost also never decreases).
pub fn frechet_scan_all<M: CostModel + ?Sized>(
    m: &M,
    p: &[Sym],
    q: &[Sym],
    tau: f64,
) -> (Vec<SubMatch>, u64) {
    scan_all_sum_or_max(m, p, q, tau, f64::max)
}

/// Shared per-start DP for DTW (`combine` adds a cell's cost to the best
/// way of reaching it) and discrete Fréchet (`combine` maxes them). Row `t`
/// holds `cur[j] = d(p[s..=t], q[..=j])`; the first row of each start
/// couples the single symbol `p[s]` against every query prefix.
///
/// **Start gate.** Every coupling of `p[s..=t]` with a prefix of `q` pairs
/// `p[s]` with `q[0]`, and costs are non-negative, so under sum and max
/// alike every cell of every row of start `s` is `≥ sub(p[s], q[0])`. A
/// start whose first cell is already `≥ tau` can neither match nor survive
/// its first row's bound; it is skipped before any row is filled or
/// counted. A NaN first cell fails the comparison and takes the rows.
fn scan_all_sum_or_max<M: CostModel + ?Sized>(
    m: &M,
    p: &[Sym],
    q: &[Sym],
    tau: f64,
    combine: impl Fn(f64, f64) -> f64,
) -> (Vec<SubMatch>, u64) {
    assert!(!q.is_empty(), "query must be non-empty");
    let n = q.len();
    let mut out = Vec::new();
    let mut rows = 0u64;
    let mut prev = vec![0.0f64; n];
    let mut cur = vec![0.0f64; n];
    for s in 0..p.len() {
        let first = m.sub(p[s], q[0]);
        if first >= tau {
            continue;
        }
        for t in s..p.len() {
            rows += 1;
            let sym = p[t];
            // `left` is `cur[j - 1]`; `min` is the row's running minimum,
            // folded from +∞ so that a NaN cell is passed over, not kept.
            let mut left = if t == s {
                first
            } else {
                combine(m.sub(sym, q[0]), prev[0])
            };
            cur[0] = left;
            let mut min = f64::INFINITY.min(left);
            for j in 1..n {
                let reach = if t == s {
                    left
                } else {
                    prev[j].min(left).min(prev[j - 1])
                };
                left = combine(m.sub(sym, q[j]), reach);
                cur[j] = left;
                min = min.min(left);
            }
            if left < tau {
                out.push(SubMatch {
                    start: s,
                    end: t,
                    dist: left,
                });
            }
            if min >= tau {
                break;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
    }
    (out, rows)
}

/// All non-empty substrings `p[s..=t]` with `lcss(p[s..=t], q, eps) < tau`,
/// plus the number of DP rows evaluated. No early termination is possible:
/// growing a substring can only match more of `q`, so the distance is
/// non-increasing in `t` and every start scans to the end of `p`.
pub fn lcss_scan_all<M: CostModel + ?Sized>(
    m: &M,
    p: &[Sym],
    q: &[Sym],
    tau: f64,
    eps: f64,
) -> (Vec<SubMatch>, u64) {
    assert!(!q.is_empty(), "query must be non-empty");
    let n = q.len();
    let mut out = Vec::new();
    let mut rows = 0u64;
    let mut prev = vec![0usize; n + 1];
    let mut cur = vec![0usize; n + 1];
    for s in 0..p.len() {
        prev.iter_mut().for_each(|v| *v = 0);
        for t in s..p.len() {
            rows += 1;
            cur[0] = 0;
            for j in 0..n {
                cur[j + 1] = if m.sub(p[t], q[j]) <= eps {
                    prev[j] + 1
                } else {
                    prev[j + 1].max(cur[j])
                };
            }
            let d = (n - cur[n]) as f64;
            if d < tau {
                out.push(SubMatch {
                    start: s,
                    end: t,
                    dist: d,
                });
            }
            std::mem::swap(&mut prev, &mut cur);
        }
    }
    (out, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::wed;
    use crate::models::Lev;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_seq(rng: &mut ChaCha8Rng, max_len: usize, alphabet: u32) -> Vec<Sym> {
        (0..rng.gen_range(1..max_len))
            .map(|_| rng.gen_range(0..alphabet))
            .collect()
    }

    /// Continuous ground costs: symbols are points on a line, 0.1 apart.
    struct Line;

    impl CostModel for Line {
        fn sub(&self, a: Sym, b: Sym) -> f64 {
            (a as f64 - b as f64).abs() * 0.1
        }

        fn ins(&self, _: Sym) -> f64 {
            1.0
        }
    }

    /// A scan by definition, from the whole-sequence `dist` alone: every
    /// `(s, t, d)` with `d < tau`, and the rows the scan may charge — none
    /// for a start whose first cell `sub(p[s], q[0])` is `≥ tau`, else one
    /// per `t` up to and including the first whose prefix minimum
    /// `min_j dist(p[s..=t], q[..=j])` reaches `tau`.
    fn brute_scan<M: CostModel>(
        m: &M,
        dist: fn(&M, &[Sym], &[Sym]) -> f64,
        p: &[Sym],
        q: &[Sym],
        tau: f64,
    ) -> (Vec<(usize, usize, u64)>, u64) {
        let mut matches = Vec::new();
        let mut rows = 0;
        for s in 0..p.len() {
            let mut open = m.sub(p[s], q[0]) < tau;
            for t in s..p.len() {
                let d = dist(m, &p[s..=t], q);
                if d < tau {
                    matches.push((s, t, d.to_bits()));
                }
                if open {
                    rows += 1;
                    let min = (0..q.len())
                        .map(|j| dist(m, &p[s..=t], &q[..=j]))
                        .fold(f64::INFINITY, f64::min);
                    open = min < tau;
                }
            }
        }
        (matches, rows)
    }

    fn bits(got: &[SubMatch]) -> Vec<(usize, usize, u64)> {
        got.iter()
            .map(|m| (m.start, m.end, m.dist.to_bits()))
            .collect()
    }

    #[test]
    fn sw_scan_all_is_strict_at_tau() {
        // P = ABCDE, Q = BFD (Example 2): BCD is at distance 1, which is
        // not a match at tau = 1.
        let p = [0, 1, 2, 3, 4];
        let q = [1, 5, 3];
        let got = sw_scan_all(&Lev, &p, &q, 1.0);
        assert!(got.is_empty(), "wed=1 must not match tau=1: {got:?}");
        let got = sw_scan_all(&Lev, &p, &q, 1.5);
        assert!(got.iter().any(|m| (m.start, m.end) == (1, 3)));
        for m in &got {
            assert!(m.dist < 1.5);
        }
    }

    #[test]
    fn sw_scan_all_equals_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..30 {
            let p = random_seq(&mut rng, 18, 6);
            let q = random_seq(&mut rng, 8, 6);
            let tau = rng.gen_range(0.5..4.0);
            let mut want = Vec::new();
            for s in 0..p.len() {
                for t in s..p.len() {
                    let d = wed(&Lev, &p[s..=t], &q);
                    if d < tau {
                        want.push((s, t, d.to_bits()));
                    }
                }
            }
            let got = sw_scan_all(&Lev, &p, &q, tau);
            assert_eq!(bits(&got), want, "p={p:?} q={q:?} tau={tau}");
        }
    }

    #[test]
    fn dtw_of_identical_sequences_is_zero() {
        assert_eq!(dtw_dist(&Lev, &[1, 2, 3], &[1, 2, 3]), 0.0);
        // Repeats couple for free under DTW.
        assert_eq!(dtw_dist(&Lev, &[1, 1, 2, 3, 3], &[1, 2, 3]), 0.0);
    }

    #[test]
    fn frechet_is_a_bottleneck() {
        // Two mismatched couplings under Lev: DTW sums them, Fréchet takes
        // the worst single one.
        let p = [1, 9, 3, 9];
        let q = [1, 2, 3, 4];
        assert_eq!(dtw_dist(&Lev, &p, &q), 2.0);
        assert_eq!(frechet_dist(&Lev, &p, &q), 1.0);
    }

    #[test]
    fn empty_inputs_follow_the_convention() {
        assert_eq!(dtw_dist(&Lev, &[], &[]), 0.0);
        assert_eq!(dtw_dist(&Lev, &[1], &[]), f64::INFINITY);
        assert_eq!(frechet_dist(&Lev, &[], &[1]), f64::INFINITY);
        assert_eq!(lcss_dist(&Lev, &[], &[1, 2], 0.5), 2.0);
    }

    #[test]
    fn lcss_under_lev_is_classic_lcs() {
        // sub ∈ {0,1} under Lev, so eps = 0.5 means exact equality.
        let p = [1, 3, 2, 4, 3];
        let q = [1, 2, 3];
        // LCS(p, q) = [1, 2, 3] (positions 0, 2, 4) → distance 0.
        assert_eq!(lcss_dist(&Lev, &p, &q, 0.5), 0.0);
        assert_eq!(lcss_dist(&Lev, &[5, 6], &q, 0.5), 3.0);
        // eps = 1.5 matches everything: distance 0 whenever |p| >= |q|.
        assert_eq!(lcss_dist(&Lev, &[5, 6, 7], &q, 1.5), 0.0);
    }

    #[test]
    fn dtw_scan_all_equals_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..40 {
            let p = random_seq(&mut rng, 16, 5);
            let q = random_seq(&mut rng, 7, 5);
            let tau = rng.gen_range(0.5..4.0);
            let (got, rows) = dtw_scan_all(&Lev, &p, &q, tau);
            let (want, want_rows) = brute_scan(&Lev, dtw_dist, &p, &q, tau);
            assert_eq!(bits(&got), want, "p={p:?} q={q:?} tau={tau}");
            assert_eq!(rows, want_rows, "p={p:?} q={q:?} tau={tau}");
        }
    }

    #[test]
    fn frechet_scan_all_equals_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for _ in 0..40 {
            let p = random_seq(&mut rng, 16, 5);
            let q = random_seq(&mut rng, 7, 5);
            let tau = rng.gen_range(0.3..1.6);
            let (got, rows) = frechet_scan_all(&Lev, &p, &q, tau);
            let (want, want_rows) = brute_scan(&Lev, frechet_dist, &p, &q, tau);
            assert_eq!(bits(&got), want, "p={p:?} q={q:?} tau={tau}");
            assert_eq!(rows, want_rows, "p={p:?} q={q:?} tau={tau}");
        }
    }

    /// Continuous costs, with `tau` drawn from the realised first cells so
    /// the gate's boundary is hit: matches bit-for-bit and rows evaluated
    /// both equal the brute-force scan's.
    #[test]
    fn continuous_cost_scans_equal_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let mut gated = 0;
        for _ in 0..60 {
            let p = random_seq(&mut rng, 16, 12);
            let q = random_seq(&mut rng, 6, 12);
            let at = Line.sub(p[rng.gen_range(0..p.len())], q[0]);
            let tau = match rng.gen_range(0..3) {
                0 => at,
                1 => at.next_up(),
                _ => at + rng.gen_range(0.0..0.5),
            };
            let all_rows = (p.len() * (p.len() + 1) / 2) as u64;
            let (got, rows) = dtw_scan_all(&Line, &p, &q, tau);
            let (want, want_rows) = brute_scan(&Line, dtw_dist, &p, &q, tau);
            assert_eq!(bits(&got), want, "dtw p={p:?} q={q:?} tau={tau}");
            assert_eq!(rows, want_rows, "dtw p={p:?} q={q:?} tau={tau}");
            let (got, rows) = frechet_scan_all(&Line, &p, &q, tau);
            let (want, want_rows) = brute_scan(&Line, frechet_dist, &p, &q, tau);
            assert_eq!(bits(&got), want, "frechet p={p:?} q={q:?} tau={tau}");
            assert_eq!(rows, want_rows, "frechet p={p:?} q={q:?} tau={tau}");
            gated += (rows < all_rows) as usize;
        }
        assert!(gated > 30, "the draws must exercise the gate and the bound");
    }

    #[test]
    fn lcss_scan_all_equals_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..40 {
            let p = random_seq(&mut rng, 14, 4);
            let q = random_seq(&mut rng, 6, 4);
            let tau = rng.gen_range(0.5..3.5);
            let (got, rows) = lcss_scan_all(&Lev, &p, &q, tau, 0.5);
            // No early termination: every (s, t) pair is one row.
            let expect_rows = (p.len() * (p.len() + 1) / 2) as u64;
            assert_eq!(rows, expect_rows);
            let mut brute = Vec::new();
            for s in 0..p.len() {
                for t in s..p.len() {
                    let d = lcss_dist(&Lev, &p[s..=t], &q, 0.5);
                    if d < tau {
                        brute.push((s, t, d));
                    }
                }
            }
            assert_eq!(got.len(), brute.len(), "p={p:?} q={q:?} tau={tau}");
            for (a, &(s, t, d)) in got.iter().zip(&brute) {
                assert_eq!((a.start, a.end), (s, t));
                assert_eq!(a.dist, d);
            }
        }
    }

    #[test]
    fn scan_all_early_termination_saves_rows() {
        // A long sequence sharing nothing with the query: every start is
        // gated on its first cell, so no row is filled at all.
        let p = vec![9u32; 50];
        let q = [1, 2];
        let (got, rows) = dtw_scan_all(&Lev, &p, &q, 1.0);
        assert!(got.is_empty());
        assert_eq!(rows, 0, "a gated start costs no row");
        let (got_f, rows_f) = frechet_scan_all(&Lev, &p, &q, 0.5);
        assert!(got_f.is_empty());
        assert_eq!(rows_f, 0);
    }

    #[test]
    fn bound_fires_on_the_second_row_of_a_viable_start() {
        // Start 0 passes the gate (`sub(1, 1) = 0`) and its first row's
        // minimum is 0; the second row `[1, 1]` reaches tau = 1 and stops
        // the start 48 symbols early. Starts 1.. are gated.
        let mut p = vec![9u32; 50];
        p[0] = 1;
        let q = [1, 2];
        let (got, rows) = dtw_scan_all(&Lev, &p, &q, 1.0);
        assert!(got.is_empty());
        assert_eq!(rows, 2);
        // Fréchet's second row is `[1, 1]` too. Under a tau above every
        // cost nothing is gated or bounded, and every substring matches.
        let (got_f, rows_f) = frechet_scan_all(&Lev, &p, &q, 1.0);
        assert!(got_f.is_empty());
        assert_eq!(rows_f, 2);
        let (got_f, rows_f) = frechet_scan_all(&Lev, &p, &q, 1.5);
        assert_eq!(got_f.len(), 50 * 51 / 2);
        assert_eq!(rows_f, 50 * 51 / 2);
    }

    #[test]
    fn start_gate_is_strict_at_the_boundary() {
        // One start, one query symbol: the first cell is the distance.
        let p = [4];
        let q = [1];
        let c = Line.sub(4, 1);
        assert!(c > 0.0 && c != 0.3, "a cost with rounding in it");
        for scan in [dtw_scan_all::<Line>, frechet_scan_all::<Line>] {
            // `sub == tau` exactly: gated, and (Definition 3) not a match.
            assert_eq!(scan(&Line, &p, &q, c), (vec![], 0));
            // One ulp higher: the start is scanned and matches.
            let (got, rows) = scan(&Line, &p, &q, c.next_up());
            assert_eq!(bits(&got), vec![(0, 0, c.to_bits())]);
            assert_eq!(rows, 1);
        }
        // A NaN first cell is not gated: it takes its row, matches nothing,
        // and the row's bound (a minimum over no number) closes the start.
        struct Nan;
        impl CostModel for Nan {
            fn sub(&self, _: Sym, _: Sym) -> f64 {
                f64::NAN
            }
            fn ins(&self, _: Sym) -> f64 {
                1.0
            }
        }
        let (got, rows) = dtw_scan_all(&Nan, &[1, 2], &[1], 1.0);
        assert!(got.is_empty());
        assert_eq!(rows, 2);
    }

    #[test]
    fn strict_threshold_semantics() {
        // Distance exactly tau is not a match, mirroring Definition 2.
        let p = [1, 9, 3];
        let q = [1, 2, 3];
        assert_eq!(dtw_dist(&Lev, &p, &q), 1.0);
        let (at, _) = dtw_scan_all(&Lev, &p, &q, 1.0);
        assert!(at.iter().all(|m| (m.start, m.end) != (0, 2)));
        let (above, _) = dtw_scan_all(&Lev, &p, &q, 1.0 + 1e-9);
        assert!(above.iter().any(|m| (m.start, m.end) == (0, 2)));
    }
}
