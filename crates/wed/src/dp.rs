//! Dynamic programming for weighted edit distance (§2.2.1).
//!
//! `wed(P, Q)` fills the classic (m+1)×(n+1) table column by column; the
//! column primitive [`step_dp_into`] is Algorithm 6 of the paper.
//!
//! There are three kernels for that column, and one answer:
//!
//! * [`step_dp_into`] is the **reference**: it asks the cost model for
//!   `sub(p, q_j)` and `ins(q_j)` cell by cell. [`wed`], [`wed_within`],
//!   the Smith–Waterman scan ([`crate::metric::sw_scan_all`]) and the
//!   benchmark's kernel probe run it.
//! * [`step_dp_rows`] is what the **engine** runs for a cost model without
//!   unit costs: the same sweep over cost rows that are already numbers.
//!   Trie verification extends hundreds of columns per query over suffixes
//!   of one `Q`, so a [`SubProfile`] asks the model once per `(data symbol,
//!   query position)` and every column after that reads a contiguous slice.
//! * [`step_dp_bits`] is what the engine runs for a **unit-cost** model
//!   ([`CostModel::unit_costs`]: Levenshtein, EDR, NetEDR). Their columns
//!   are Levenshtein columns — neighbouring entries differ by −1, 0 or +1 —
//!   so a column is its depth `D[0]` plus two bit vectors of those vertical
//!   steps, 64 cells to a machine word, and one word of the profile's row
//!   says which cells match. This is Myers' bit-vector algorithm (J. ACM
//!   1999) in Hyyrö's form for global edit distance (2003). The profile
//!   builds those rows from the query's neighbourhoods `B(Q[j])`, without
//!   asking the model.
//!
//! All three produce the same column, minimum and last entry down to the
//! last bit: a unit-cost column holds small integers, which `f64` holds
//! exactly. `tests/properties.rs` holds the row and bit kernels equal to the
//! reference by `f64::to_bits` (a bit column rebuilt entry by entry with
//! [`bit_column_entries`]), so the engine and the reference cannot drift
//! apart.

use crate::cost::{CostModel, Sym, WedInstance};
use crate::hash::BuildMix;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The DP column for the empty data prefix: entry `j` is
/// `wed(ε, Q[..j]) = Σ_{j' ≤ j} ins(Q_{j'})`.
pub(crate) fn initial_column<M: CostModel + ?Sized>(m: &M, q: &[Sym]) -> Vec<f64> {
    let mut col = Vec::new();
    initial_column_into(m, q, &mut col);
    col
}

/// The DP column before any trajectory symbol, into a caller-owned buffer (cleared first), returning
/// the column minimum. With non-negative insertion costs the minimum is the
/// first entry (0.0), but the fold stays exact for any cost model.
pub fn initial_column_into<M: CostModel + ?Sized>(m: &M, q: &[Sym], out: &mut Vec<f64>) -> f64 {
    prefix_sums_into(q.iter().map(|&s| m.ins(s)), out)
}

/// `0, ins_0, ins_0 + ins_1, …` into `out` (cleared first), returning the
/// minimum.
fn prefix_sums_into(ins: impl ExactSizeIterator<Item = f64>, out: &mut Vec<f64>) -> f64 {
    out.clear();
    out.reserve(ins.len() + 1);
    let mut acc = 0.0f64;
    let mut min = 0.0f64;
    out.push(0.0);
    for cost in ins {
        acc += cost;
        min = min.min(acc);
        out.push(acc);
    }
    min
}

/// The smaller of two costs as one compare-select. Costs are never NaN and
/// never −0.0, so this is `f64::min` bit for bit, without the NaN handling
/// that lengthens the DP's loop-carried chain.
#[inline(always)]
fn min2(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Algorithm 6 (StepDP): extends column `a` (for data prefix `P[..k]`) by
/// one data symbol `p` into `out`, the column for `P[..k+1]`, and returns
/// its minimum — the reference kernel (see the module docs).
///
/// `a[j] = wed(P[..k], Q[..j])`; the output satisfies
/// `out[j] = wed(P[..k+1], Q[..j])`.
///
/// `del(p)` is hoisted out of the loop, the `left` dependency is carried in
/// a register instead of re-read from `out`, and the three-way min plus the
/// running column minimum are compare-selects. The returned minimum is the
/// Eq. (11) lower bound on every extension of the current data prefix,
/// fused into the sweep so callers do not re-scan the column.
pub fn step_dp_into<M: CostModel + ?Sized>(
    m: &M,
    q: &[Sym],
    p: Sym,
    a: &[f64],
    out: &mut [f64],
) -> f64 {
    debug_assert_eq!(a.len(), q.len() + 1);
    debug_assert_eq!(out.len(), a.len());
    let del_p = m.del(p);
    let mut left = a[0] + del_p;
    out[0] = left;
    let mut min = left;
    for (j, &qj) in q.iter().enumerate() {
        let diag = a[j] + m.sub(p, qj);
        let up = a[j + 1] + del_p;
        let v = min2(min2(diag, up), left + m.ins(qj));
        out[j + 1] = v;
        left = v;
        min = min2(min, v);
    }
    min
}

/// [`step_dp_into`] over cost rows instead of a cost model — the engine's
/// kernel for any cost model: `sub[j] = sub(p, q_j)`, `ins[j] = ins(q_j)`,
/// `del_p = del(p)`.
///
/// Operation for operation the same sweep, so column and minimum are
/// bit-identical to the reference whenever the rows hold what the model
/// would have answered.
pub fn step_dp_rows(sub: &[f64], ins: &[f64], del_p: f64, a: &[f64], out: &mut [f64]) -> f64 {
    let n = sub.len();
    // All four lengths checked once, here, so the loop's indexing needs no
    // per-cell bounds checks.
    assert!(ins.len() == n && a.len() == n + 1 && out.len() == n + 1);
    let mut left = a[0] + del_p;
    out[0] = left;
    let mut min = left;
    for j in 0..n {
        let diag = a[j] + sub[j];
        let up = a[j + 1] + del_p;
        let v = min2(min2(diag, up), left + ins[j]);
        out[j + 1] = v;
        left = v;
        min = min2(min, v);
    }
    min
}

// ---------------------------------------------------------------------------
// Bit-parallel columns for unit-cost models
// ---------------------------------------------------------------------------

/// The low `k` bits of a word (all of them from `k = 64` on).
fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1 << k) - 1
    }
}

/// Words in a **bit column** over a suffix of `n` query symbols.
///
/// A bit column is the DP column of a unit-cost model (see the module
/// docs): word 0 holds the depth `D[0] = k`, the number of data symbols
/// stepped in; then come `⌈n/64⌉` words of `VP` and as many of `VN`. Bit
/// `j` of `VP` (of `VN`) is set when `D[j+1] − D[j]` is `+1` (is `−1`); bits
/// from `n` up are zero.
pub fn bit_column_len(n: usize) -> usize {
    1 + 2 * n.div_ceil(64)
}

/// The bit column for the empty data prefix over `n` query symbols into
/// `out` (cleared first) — `D[j] = j`, what [`initial_column_into`] builds
/// under unit costs — returning its minimum and last entry, `(0, n)`.
pub fn initial_bit_column_into(n: usize, out: &mut Vec<u64>) -> (f64, f64) {
    let w = n.div_ceil(64);
    out.clear();
    out.push(0);
    out.extend((0..w).map(|i| low_bits(n - 64 * i)));
    out.resize(bit_column_len(n), 0);
    (0.0, n as f64)
}

/// StepDP for unit costs on [bit columns](bit_column_len): extends column
/// `a` over `n` query symbols by one data symbol into `out`, returning the
/// new column's minimum and last entry — what [`step_dp_into`] returns as
/// its minimum and leaves in its last cell, bit for bit.
///
/// Bit `j` of `eq` is set iff `sub(p, q_j) = 0`; bits from `n` up may hold
/// anything, since no bit of a word reaches a lower one. Each word takes
/// the horizontal step `D'[j] − D[j]` at the row above its first from the
/// word before it (`+1` into the first word: `D[0]` grows by one) and hands
/// on the step at its own last row.
pub fn step_dp_bits(eq: &[u64], n: usize, a: &[u64], out: &mut [u64]) -> (f64, f64) {
    let w = n.div_ceil(64);
    assert!(eq.len() == w && a.len() == bit_column_len(n) && out.len() == a.len());
    let depth = a[0] + 1;
    out[0] = depth;
    let (a_vp, a_vn) = a[1..].split_at(w);
    let (o_vp, o_vn) = out[1..].split_at_mut(w);
    // The horizontal step into the word, as two bits: `+1` (hp) or `−1`
    // (hn).
    let (mut hp, mut hn) = (1u64, 0u64);
    for i in 0..w {
        let (vp, vn) = (a_vp[i], a_vn[i]);
        let xv = eq[i] | vn;
        // A `−1` coming in from above acts as a match in the word's top row.
        let e = eq[i] | hn;
        let xh = ((e & vp).wrapping_add(vp) ^ vp) | e;
        let ph = vn | !(xh | vp);
        let mh = vp & xh;
        let (ph_out, mh_out) = (ph >> 63, mh >> 63);
        let ph = ph << 1 | hp;
        let mh = mh << 1 | hn;
        o_vp[i] = mh | !(xv | ph);
        o_vn[i] = ph & xv;
        (hp, hn) = (ph_out, mh_out);
    }
    if w > 0 {
        let top = low_bits(n - 64 * (w - 1));
        o_vp[w - 1] &= top;
        o_vn[w - 1] &= top;
    }
    bit_column_min_and_last(n, depth, o_vp, o_vn)
}

/// Per nibble of vertical steps, indexed by `vp | vn << 4`: the nibble's
/// total step and the least of its four prefix sums and zero.
const NIBBLE: [(i8, i8); 256] = {
    let mut t = [(0i8, 0i8); 256];
    let mut i = 0;
    while i < 256 {
        let (mut sum, mut min, mut b) = (0i8, 0i8, 0);
        while b < 4 {
            sum += ((i >> b) & 1) as i8 - ((i >> (b + 4)) & 1) as i8;
            if sum < min {
                min = sum;
            }
            b += 1;
        }
        t[i] = (sum, min);
        i += 1;
    }
    t
};

/// The least entry and the last entry of the column `depth`, `vp`, `vn`
/// over `n` query symbols: one pass over the column's nibbles, as many as
/// it has cells, so the loop's trip count is fixed by `n`.
fn bit_column_min_and_last(n: usize, depth: u64, vp: &[u64], vn: &[u64]) -> (f64, f64) {
    let mut d = depth as i64;
    let mut min = d;
    for (i, (&p, &m)) in vp.iter().zip(vn).enumerate() {
        let (mut p, mut m) = (p, m);
        for _ in 0..(n - 64 * i).min(64).div_ceil(4) {
            let (sum, low) = NIBBLE[(p & 15 | (m & 15) << 4) as usize];
            min = min.min(d + low as i64);
            d += sum as i64;
            (p, m) = (p >> 4, m >> 4);
        }
    }
    (min as f64, d as f64)
}

/// The entries `D[0..=n]` of a [bit column](bit_column_len) over `n` query
/// symbols, as the `f64` kernels hold them.
pub fn bit_column_entries(n: usize, col: &[u64]) -> Vec<f64> {
    let w = n.div_ceil(64);
    assert_eq!(col.len(), bit_column_len(n));
    let (vp, vn) = col[1..].split_at(w);
    let mut d = col[0] as i64;
    let mut out = vec![d as f64];
    for j in 0..n {
        let bit = |v: &[u64]| (v[j / 64] >> (j % 64) & 1) as i64;
        d += bit(vp) - bit(vn);
        out.push(d as f64);
    }
    out
}

/// A query suffix `Q^d` as a window into a [`SubProfile`]'s rows.
#[derive(Debug, Clone, Copy)]
pub struct Suffix {
    off: usize,
    len: usize,
}

impl Suffix {
    /// `|Q^d|`; a DP column over the suffix has one more entry.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The substitution-cost profile of one query: for every data symbol `p`,
/// the row `sub(p, Q[0]), …, sub(p, Q[n-1])`.
///
/// Bidirectional verification (§5) runs StepDP over `2·|Q'|` different
/// suffixes of the same `Q` — `Q[iq+1..]` forward of an anchor at `iq`,
/// `rev(Q[..iq])` backward of it. Each row is stored **forward and
/// reversed**, so either kind of suffix is one contiguous window of it
/// ([`SubProfile::forward`], [`SubProfile::backward`]). The two
/// `ins(Q[·])` rows and the symbols themselves are laid out the same way.
///
/// A row comes in one of two encodings, fixed by the model:
///
/// * `f64` costs for [`step_dp_rows`] ([`SubProfile::step`]), asked of the
///   model once per `(p, Q[j])` on `p`'s first touch, for a model without
///   unit costs;
/// * for a unit-cost model, one bit per symbol for [`step_dp_bits`]
///   ([`SubProfile::step_bits`]), built before any walk from the
///   neighbourhoods `B(Q[j])` without asking the model at all. With η = 0
///   (which [`check_filter_contract`](crate::cost::check_filter_contract)
///   holds every unit model to), `B(q)` is exactly the set of `p` with
///   `sub(q, p) = 0`, which by symmetry is `sub(p, q) = 0`; so bit `t` of
///   `p`'s row is `p ∈ B(Q[t])`, and a symbol in no neighbourhood reads one
///   shared all-zero row.
///
/// [`SubProfile::unit_costs`] says which. A profile borrows its cost model
/// and is never shared across models: the rows *are* that model's answers.
pub struct SubProfile<'a, M: CostModel + ?Sized> {
    model: &'a M,
    /// `Q` then `rev(Q)`: every suffix is a slice of this.
    syms: Vec<Sym>,
    /// `ins` of each of `syms`.
    ins: Vec<f64>,
    /// Data symbol → its row number. Unit rows number from 1: row 0 is the
    /// all-zero row of every symbol the map does not hold.
    index: HashMap<Sym, u32, BuildMix>,
    /// Rows back to back.
    rows: Rows,
}

/// A [`SubProfile`]'s rows in one of two encodings, fixed by the model.
enum Rows {
    /// `2n + 1` wide: `del(p)`, then `sub(p, ·)` over `syms`.
    Costs(Vec<f64>),
    /// `⌈2n/64⌉ + 1` words wide: bit `t` set iff `sub(p, syms[t]) = 0`, then
    /// a zero word, so any window's words can be read off two neighbours.
    /// `eq` holds the window [`step_dp_bits`] is handed.
    Matches { words: Vec<u64>, eq: Vec<u64> },
}

impl<'a, M: WedInstance + ?Sized> SubProfile<'a, M> {
    /// The profile of `q`, searching `B(s)` of each distinct symbol `s` of
    /// `q` itself when the model has unit costs — for callers that hold no
    /// filter plan.
    pub fn new(model: &'a M, q: &[Sym]) -> Self {
        let mut nbrs: HashMap<Sym, Vec<Sym>, BuildMix> = HashMap::default();
        if model.unit_costs() {
            for &s in q {
                nbrs.entry(s).or_insert_with(|| model.neighbors(s));
            }
        }
        Self::with_neighbors(model, q, |s| &nbrs[&s])
    }

    /// The profile of `q` given `nbrs(s) = B(s)` for every symbol `s` of
    /// `q`, as a filter plan has already found them; read only when the
    /// model has unit costs.
    pub fn with_neighbors<'b>(model: &'a M, q: &[Sym], nbrs: impl Fn(Sym) -> &'b [Sym]) -> Self {
        let syms: Vec<Sym> = q.iter().chain(q.iter().rev()).copied().collect();
        let ins = syms.iter().map(|&s| model.ins(s)).collect();
        let mut index = HashMap::default();
        let rows = if model.unit_costs() {
            debug_assert_eq!(model.eta(), 0.0, "a unit-cost model has η = 0");
            let n = q.len();
            let stride = match_stride(n);
            let mut words = vec![0; stride];
            for (t, &qt) in q.iter().enumerate() {
                for &p in nbrs(qt) {
                    let row = *index.entry(p).or_insert_with(|| {
                        words.resize(words.len() + stride, 0);
                        (words.len() / stride - 1) as u32
                    });
                    let at = row as usize * stride;
                    for bit in [t, 2 * n - 1 - t] {
                        words[at + bit / 64] |= 1 << (bit % 64);
                    }
                }
            }
            Rows::Matches {
                words,
                eq: Vec::new(),
            }
        } else {
            Rows::Costs(Vec::new())
        };
        SubProfile {
            model,
            syms,
            ins,
            index,
            rows,
        }
    }
}

/// Words per match row over `n` query symbols: `Q` and `rev(Q)`, then the
/// pad word.
fn match_stride(n: usize) -> usize {
    (2 * n).div_ceil(64) + 1
}

impl<M: CostModel + ?Sized> SubProfile<'_, M> {
    fn n(&self) -> usize {
        self.syms.len() / 2
    }

    /// True when the model has unit costs, so columns over this profile may
    /// be [bit columns](bit_column_len) extended by [`SubProfile::step_bits`].
    pub fn unit_costs(&self) -> bool {
        matches!(self.rows, Rows::Matches { .. })
    }

    /// The window of `Q[iq+1..]`, the suffix a forward trie at `iq` covers.
    pub fn forward(&self, iq: usize) -> Suffix {
        assert!(iq < self.n());
        Suffix {
            off: iq + 1,
            len: self.n() - 1 - iq,
        }
    }

    /// The window of `rev(Q[..iq])`, the suffix a backward trie at `iq`
    /// covers.
    pub fn backward(&self, iq: usize) -> Suffix {
        assert!(iq < self.n());
        Suffix {
            off: 2 * self.n() - iq,
            len: iq,
        }
    }

    /// The suffix's symbols.
    pub fn symbols(&self, s: Suffix) -> &[Sym] {
        &self.syms[s.off..s.off + s.len]
    }

    /// `sub(p, Q[iq])`: read off `p`'s row when the profile has one, asked
    /// of the model otherwise. A unit-cost profile always has one, so it
    /// never asks.
    pub fn sub(&self, p: Sym, iq: usize) -> f64 {
        let n = self.n();
        assert!(iq < n);
        let row = self.index.get(&p).map(|&r| r as usize);
        match (&self.rows, row) {
            (Rows::Costs(rows), Some(r)) => rows[r * (2 * n + 1) + 1 + iq],
            (Rows::Costs(_), None) => self.model.sub(p, self.syms[iq]),
            (Rows::Matches { words, .. }, r) => {
                let at = r.unwrap_or(0) * match_stride(n);
                if words[at + iq / 64] >> (iq % 64) & 1 == 1 {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }

    /// [`initial_column_into`] for the suffix, from the `ins` row.
    pub fn initial_column_into(&self, s: Suffix, out: &mut Vec<f64>) -> f64 {
        prefix_sums_into(self.ins[s.off..s.off + s.len].iter().copied(), out)
    }

    /// StepDP for data symbol `p` over the suffix: what
    /// `step_dp_into(model, symbols(s), p, a, out)` computes, bit for bit.
    /// Panics if the profile has [unit costs](SubProfile::unit_costs): its
    /// columns are bit columns, extended by [`SubProfile::step_bits`].
    pub fn step(&mut self, s: Suffix, p: Sym, a: &[f64], out: &mut [f64]) -> f64 {
        let at = self.row(p);
        let Rows::Costs(rows) = &self.rows else {
            panic!("a unit-cost profile steps bit columns");
        };
        let window = s.off..s.off + s.len;
        step_dp_rows(
            &rows[at + 1..][window.clone()],
            &self.ins[window],
            rows[at],
            a,
            out,
        )
    }

    /// StepDP for data symbol `p` over the suffix on [bit
    /// columns](bit_column_len), returning the new column's minimum and last
    /// entry: what `step_dp_into(model, symbols(s), p, …)` returns and leaves
    /// in its last cell, bit for bit. Panics unless the profile has [unit
    /// costs](SubProfile::unit_costs).
    pub fn step_bits(&mut self, s: Suffix, p: Sym, a: &[u64], out: &mut [u64]) -> (f64, f64) {
        let at = self.row(p);
        let Rows::Matches { words, eq, .. } = &mut self.rows else {
            panic!("bit columns need a unit-cost model");
        };
        let (base, shift) = (at + s.off / 64, s.off % 64);
        eq.clear();
        eq.extend((0..s.len.div_ceil(64)).map(|i| {
            let low = words[base + i] >> shift;
            if shift == 0 {
                low
            } else {
                low | words[base + i + 1] << (64 - shift)
            }
        }));
        step_dp_bits(eq, s.len, a, out)
    }

    /// Start of `p`'s row in the rows: a unit row is looked up (the zero
    /// row if `p` is in no neighbourhood), a cost row built on first touch.
    fn row(&mut self, p: Sym) -> usize {
        let n = self.n();
        let model = self.model;
        let syms = &self.syms[..n];
        match &mut self.rows {
            Rows::Matches { .. } => self
                .index
                .get(&p)
                .map_or(0, |&r| r as usize * match_stride(n)),
            Rows::Costs(rows) => match self.index.entry(p) {
                Entry::Occupied(e) => *e.get() as usize * (2 * n + 1),
                Entry::Vacant(v) => {
                    let at = rows.len();
                    rows.push(model.del(p));
                    rows.extend(syms.iter().map(|&qj| model.sub(p, qj)));
                    rows.extend_from_within(at + 1..at + 1 + n);
                    rows[at + 1 + n..].reverse();
                    v.insert((at / (2 * n + 1)) as u32);
                    at
                }
            },
        }
    }
}

/// Weighted edit distance `wed(P, Q)` (§2.2.1), O(|P|·|Q|) time,
/// O(|Q|) space (two ping-pong columns, no per-step allocation).
pub fn wed<M: CostModel + ?Sized>(m: &M, p: &[Sym], q: &[Sym]) -> f64 {
    let mut col = initial_column(m, q);
    let mut next = vec![0.0; col.len()];
    for &sym in p {
        step_dp_into(m, q, sym, &col, &mut next);
        std::mem::swap(&mut col, &mut next);
    }
    col[q.len()]
}

/// Threshold-bounded WED: returns `Some(wed(P, Q))` if it is `< tau`, and
/// `None` as soon as the Eq. (11) column-minimum lower bound certifies
/// `wed(P, Q) ≥ tau` — often after a small prefix of `P`.
///
/// Useful for verification-style workloads that only care about matches
/// below a threshold (DITA/ERP-index candidate checking uses it).
pub fn wed_within<M: CostModel + ?Sized>(m: &M, p: &[Sym], q: &[Sym], tau: f64) -> Option<f64> {
    let mut col = initial_column(m, q);
    let mut next = vec![0.0; col.len()];
    for &sym in p {
        let lb = step_dp_into(m, q, sym, &col, &mut next);
        std::mem::swap(&mut col, &mut next);
        if lb >= tau {
            return None;
        }
    }
    let d = col[q.len()];
    (d < tau).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Lev;

    #[test]
    fn empty_vs_empty_is_zero() {
        assert_eq!(wed(&Lev, &[], &[]), 0.0);
    }

    #[test]
    fn empty_vs_string_is_total_ins() {
        assert_eq!(wed(&Lev, &[], &[1, 2, 3]), 3.0);
        assert_eq!(wed(&Lev, &[1, 2, 3], &[]), 3.0);
    }

    #[test]
    fn identical_strings_are_zero() {
        assert_eq!(wed(&Lev, &[5, 6, 7], &[5, 6, 7]), 0.0);
    }

    #[test]
    fn lev_matches_known_values() {
        // kitten -> sitting analogue with numeric symbols:
        // [1,2,3,3,4,5] vs [6,2,3,3,2,5,7] has Levenshtein distance 3.
        let p = [1, 2, 3, 3, 4, 5];
        let q = [6, 2, 3, 3, 2, 5, 7];
        assert_eq!(wed(&Lev, &p, &q), 3.0);
    }

    #[test]
    fn paper_example_2() {
        // Example 2: P = ABCDE, Q = BFD, wed(P[2..4], Q) = 1 under Lev.
        let (a, b, c, d, f) = (0, 1, 2, 3, 5);
        let p2_4 = [b, c, d];
        let q = [b, f, d];
        assert_eq!(wed(&Lev, &p2_4, &q), 1.0);
        let p = [a, b, c, d, 4];
        assert_eq!(wed(&Lev, &p, &q), 3.0); // whole string is farther
    }

    #[test]
    fn symmetry_of_wed() {
        let p = [1, 2, 3, 4];
        let q = [2, 3, 5];
        assert_eq!(wed(&Lev, &p, &q), wed(&Lev, &q, &p));
    }

    #[test]
    fn step_dp_equals_recomputation() {
        let q = [1, 2, 3];
        let p = [4, 2, 3, 1];
        let mut col = initial_column(&Lev, &q);
        let mut next = col.clone();
        for (k, &sym) in p.iter().enumerate() {
            step_dp_into(&Lev, &q, sym, &col, &mut next);
            std::mem::swap(&mut col, &mut next);
            // col[j] must equal wed(P[..k+1], Q[..j]).
            for j in 0..=q.len() {
                assert_eq!(col[j], wed(&Lev, &p[..k + 1], &q[..j]), "k={k} j={j}");
            }
        }
    }

    #[test]
    fn initial_column_is_prefix_sums() {
        let col = initial_column(&Lev, &[7, 8]);
        assert_eq!(col, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn wed_within_agrees_with_full_dp() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for _ in 0..200 {
            let p: Vec<Sym> = (0..rng.gen_range(0..15))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let q: Vec<Sym> = (0..rng.gen_range(0..8))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let tau = rng.gen_range(0.5..6.0);
            let full = wed(&Lev, &p, &q);
            match wed_within(&Lev, &p, &q, tau) {
                Some(d) => {
                    assert!((d - full).abs() < 1e-12);
                    assert!(d < tau);
                }
                None => assert!(full >= tau, "early exit lied: wed {full} < tau {tau}"),
            }
        }
    }

    #[test]
    fn into_variants_return_exact_column_min() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for _ in 0..100 {
            let q: Vec<Sym> = (0..rng.gen_range(0..8))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let mut col = Vec::new();
            let min0 = initial_column_into(&Lev, &q, &mut col);
            assert_eq!(col, initial_column(&Lev, &q));
            assert_eq!(min0, col.iter().cloned().fold(f64::INFINITY, f64::min));
            let p: Sym = rng.gen_range(0..6);
            let mut next = vec![0.0; col.len()];
            let min = step_dp_into(&Lev, &q, p, &col, &mut next);
            assert_eq!(min, next.iter().cloned().fold(f64::INFINITY, f64::min));
        }
    }

    #[test]
    fn wed_within_early_exits_on_long_mismatch() {
        // Long all-mismatching data string: the bound must trip quickly (no
        // way to observe the cutoff directly, but the result must be None).
        let p = vec![9u32; 500];
        let q = vec![1u32, 2, 3];
        assert_eq!(wed_within(&Lev, &p, &q, 2.0), None);
    }
}
