//! Cost-model traits.
//!
//! [`CostModel`] captures the edit-operation costs of §2.2.1; every instance
//! must satisfy the paper's assumptions (checked by the unit tests'
//! `check_axioms_on_sample` and by property tests):
//!
//! * `sub(a, b) ≥ 0` for all `a, b` (non-negativity),
//! * `sub(a, b) = sub(b, a)` and hence `ins(a) = del(a)` (symmetry),
//! * `sub(a, a) = 0` (pseudo-positive definiteness).
//!
//! The triangle inequality is *not* required — the algorithms never use it.
//!
//! [`WedInstance`] adds what subsequence filtering needs, checked by
//! [`check_filter_contract`].

/// A symbol of the trajectory alphabet: a vertex id or an edge id.
pub type Sym = u32;

/// Edit-operation costs of a weighted edit distance (§2.2.1).
pub trait CostModel {
    /// Substitution cost `sub(a, b)`.
    fn sub(&self, a: Sym, b: Sym) -> f64;

    /// Insertion cost `ins(a)`; equals `sub(ε, a)`.
    fn ins(&self, a: Sym) -> f64;

    /// Deletion cost `del(a)`; equals `sub(a, ε)`. Symmetry forces
    /// `del = ins`, which the default honors.
    fn del(&self, a: Sym) -> f64 {
        self.ins(a)
    }

    /// Total insertion cost of a string, `Σ ins(qᵢ)` — the cost of matching
    /// against the empty string and the scale for the paper's
    /// `τ = τ_ratio · Σ c(q)`-style thresholds.
    fn total_ins(&self, s: &[Sym]) -> f64 {
        s.iter().map(|&q| self.ins(q)).sum()
    }

    /// True when the model promises **unit costs**: `sub(a, b) ∈ {0, 1}` and
    /// `ins(a) = del(a) = 1` for every `a, b`. A DP column of such a model
    /// is a Levenshtein column, so trie verification may store and extend
    /// it 64 cells to a machine word ([`crate::dp::step_dp_bits`]) with the
    /// same numbers as the `f64` kernels. A model that says so must keep the
    /// promise; the unit tests' `check_axioms_on_sample` checks it.
    fn unit_costs(&self) -> bool {
        false
    }
}

/// What a model's geometry knows around `q` ([`WedInstance::ball`]): a
/// superset `syms` of `B(q)` and a lower bound `beyond` on `sub(q, b)` for
/// every `b ∉ syms` (∞ when there is none).
#[derive(Debug, Clone, PartialEq)]
pub struct Ball {
    pub syms: Vec<Sym>,
    pub beyond: f64,
}

/// A WED instance that supports subsequence filtering (Theorem 1) through
/// `B(q) = {b ∈ Σ | sub(q, b) ≤ η}` (Definition 4, η fixed per instance) and
/// `c(q) = min_{q' ∈ Σ⁺ \ B(q)} sub(q, q')` (Eq. 7, `q' = ε` is deletion).
///
/// A model supplies only its [`Ball`]; both definitions are applied to its
/// own `sub` and `del`, so filtering cannot disagree with verification. A
/// ball is searched a relative slack wider than η (and a searched `beyond`
/// shrunk by as much): a kd-tree or Dijkstra sums a distance another way
/// than `sub` does, ≤ 1e-15 relative apart. Too wide costs time only.
pub trait WedInstance: CostModel {
    /// Human-readable name (used by the experiment harness).
    fn name(&self) -> &'static str;

    /// The neighbourhood threshold η of Definition 4.
    fn eta(&self) -> f64 {
        0.0
    }

    /// A superset of `B(q)` and a lower bound on `sub` outside it.
    fn ball(&self, q: Sym) -> Ball;

    /// `(B(q), c(q))` from one [`ball`](WedInstance::ball): the members with
    /// `sub(q, b) ≤ η`, and the least of `del(q)`, `beyond` and the `sub` of
    /// the members left out.
    fn neighborhood(&self, q: Sym) -> (Vec<Sym>, f64) {
        let Ball { mut syms, beyond } = self.ball(q);
        let eta = self.eta();
        let mut c = self.del(q).min(beyond);
        syms.retain(|&b| {
            let s = self.sub(q, b);
            if s > eta {
                c = c.min(s);
            }
            s <= eta
        });
        (syms, c)
    }

    /// `B(q)` alone; callers that also need `c(q)` call `neighborhood`.
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        self.neighborhood(q).0
    }

    /// `c(q)` alone.
    fn lower_cost(&self, q: Sym) -> f64 {
        self.neighborhood(q).1
    }
}

// Delegating impls so trait objects (`&dyn WedInstance`) can drive the
// generic engine; `del`/`total_ins` delegate explicitly to preserve
// overrides on the inner type.
impl<M: CostModel + ?Sized> CostModel for &M {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        (**self).sub(a, b)
    }
    fn ins(&self, a: Sym) -> f64 {
        (**self).ins(a)
    }
    fn del(&self, a: Sym) -> f64 {
        (**self).del(a)
    }
    fn total_ins(&self, s: &[Sym]) -> f64 {
        (**self).total_ins(s)
    }
    fn unit_costs(&self) -> bool {
        (**self).unit_costs()
    }
}

impl<M: WedInstance + ?Sized> WedInstance for &M {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn eta(&self) -> f64 {
        (**self).eta()
    }
    fn ball(&self, q: Sym) -> Ball {
        (**self).ball(q)
    }
}

/// Verifies, exactly, the filtering contract Theorem 1 rests on for every
/// `q` and `b` of a sample: `q ∈ B(q)`, `c(q) ≤ del(q)`,
/// `b ∈ B(q) ⇔ sub(q, b) ≤ η`, `c(q) ≤ sub(q, b)` for `b ∉ B(q)`, and
/// `beyond ≤ sub(q, b)` for `b` outside the ball. A unit-cost model must
/// have η = 0: then `B(q)` is exactly the set of zero-cost substitutes,
/// which is what [`SubProfile`](crate::dp::SubProfile) builds its match
/// rows from.
pub fn check_filter_contract(m: &dyn WedInstance, sample: &[Sym]) {
    let (name, eta) = (m.name(), m.eta());
    assert!(
        !m.unit_costs() || eta == 0.0,
        "{name}: a unit-cost model needs η = 0, not {eta}"
    );
    for &q in sample {
        let (mut ball, (mut nb, c)) = (m.ball(q), m.neighborhood(q));
        ball.syms.sort_unstable();
        nb.sort_unstable();
        let has = |set: &[Sym], b| set.binary_search(&b).is_ok();
        assert!(has(&nb, q) && c <= m.del(q), "{name}: q = {q}, c(q) = {c}");
        for &b in sample {
            let (s, inside) = (m.sub(q, b), has(&nb, b));
            let ok = inside == (s <= eta)
                && (inside || c <= s)
                && (has(&ball.syms, b) || ball.beyond <= s);
            assert!(ok, "{name}: q = {q}, b = {b}, sub = {s}, η = {eta}, b ∈ B(q): {inside}, c(q) = {c}, beyond = {}", ball.beyond);
        }
    }
}

/// Verifies the Proposition 1 assumptions on a sample of symbols, and the
/// unit-cost promise of a model that makes it ([`CostModel::unit_costs`]);
/// used by the unit tests of every model.
#[cfg(test)]
pub(crate) fn check_axioms_on_sample<M: CostModel>(m: &M, sample: &[Sym]) {
    let unit = m.unit_costs();
    for &a in sample {
        if unit {
            assert!(
                m.ins(a) == 1.0 && m.del(a) == 1.0,
                "unit costs: ins({a}) and del({a}) must be 1"
            );
        }
        assert!(m.sub(a, a).abs() < 1e-12, "sub({a},{a}) must be 0");
        assert!(m.ins(a) >= 0.0, "ins({a}) must be non-negative");
        assert!(
            (m.ins(a) - m.del(a)).abs() < 1e-12,
            "ins({a}) must equal del({a})"
        );
        for &b in sample {
            let (ab, ba) = (m.sub(a, b), m.sub(b, a));
            assert!(ab >= 0.0, "sub({a},{b}) must be non-negative");
            assert!(
                !unit || ab == 0.0 || ab == 1.0,
                "unit costs: sub({a},{b}) = {ab} must be 0 or 1"
            );
            assert!(
                (ab - ba).abs() < 1e-9,
                "sub must be symmetric: {ab} vs {ba}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal hand-rolled cost model for exercising the trait defaults.
    struct Unit;
    impl CostModel for Unit {
        fn sub(&self, a: Sym, b: Sym) -> f64 {
            if a == b {
                0.0
            } else {
                1.0
            }
        }
        fn ins(&self, _a: Sym) -> f64 {
            1.0
        }
        fn unit_costs(&self) -> bool {
            true
        }
    }

    #[test]
    fn default_del_equals_ins() {
        let m = Unit;
        assert_eq!(m.del(3), 1.0);
    }

    #[test]
    fn total_ins_sums() {
        let m = Unit;
        assert_eq!(m.total_ins(&[1, 2, 3]), 3.0);
        assert_eq!(m.total_ins(&[]), 0.0);
    }

    #[test]
    fn axiom_checker_accepts_unit_costs() {
        check_axioms_on_sample(&Unit, &[0, 1, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "must be 0")]
    fn axiom_checker_rejects_nonzero_diagonal() {
        struct Bad;
        impl CostModel for Bad {
            fn sub(&self, _a: Sym, _b: Sym) -> f64 {
                0.5
            }
            fn ins(&self, _a: Sym) -> f64 {
                1.0
            }
        }
        check_axioms_on_sample(&Bad, &[1]);
    }

    #[test]
    #[should_panic(expected = "unit costs: ins")]
    fn axiom_checker_rejects_a_false_unit_claim_on_ins() {
        /// Unit `sub`, but an insertion that costs two.
        struct DoubleIns;
        impl CostModel for DoubleIns {
            fn sub(&self, a: Sym, b: Sym) -> f64 {
                Unit.sub(a, b)
            }
            fn ins(&self, _a: Sym) -> f64 {
                2.0
            }
            fn unit_costs(&self) -> bool {
                true
            }
        }
        check_axioms_on_sample(&DoubleIns, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "unit costs: sub")]
    fn axiom_checker_rejects_a_false_unit_claim_on_sub() {
        /// Unit `ins`, but a substitution that costs half.
        struct HalfSub;
        impl CostModel for HalfSub {
            fn sub(&self, a: Sym, b: Sym) -> f64 {
                Unit.sub(a, b) / 2.0
            }
            fn ins(&self, _a: Sym) -> f64 {
                1.0
            }
            fn unit_costs(&self) -> bool {
                true
            }
        }
        check_axioms_on_sample(&HalfSub, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "needs η = 0")]
    fn filter_contract_rejects_a_unit_model_with_positive_eta() {
        /// Unit costs, but a neighbourhood that would admit `sub = 1`.
        struct WideUnit;
        impl CostModel for WideUnit {
            fn sub(&self, a: Sym, b: Sym) -> f64 {
                Unit.sub(a, b)
            }
            fn ins(&self, _a: Sym) -> f64 {
                1.0
            }
            fn unit_costs(&self) -> bool {
                true
            }
        }
        impl WedInstance for WideUnit {
            fn name(&self) -> &'static str {
                "WideUnit"
            }
            fn eta(&self) -> f64 {
                1.0
            }
            fn ball(&self, q: Sym) -> Ball {
                Ball {
                    syms: vec![q],
                    beyond: 1.0,
                }
            }
        }
        check_filter_contract(&WideUnit, &[0, 1]);
    }
}
