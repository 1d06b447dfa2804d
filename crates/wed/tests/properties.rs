//! Property-based tests of the WED layer: the engine's two StepDP kernels
//! against the reference, Proposition 1 axioms for every instance, DP
//! identities, Smith–Waterman consistency, and the Appendix F SURS/LORS
//! relation, all over network-backed cost models.

use proptest::prelude::*;
use rnet::{CityParams, HubLabels, NetworkKind, RoadNetwork};
use std::sync::Arc;
use wed::cost::check_filter_contract;
use wed::dp::{
    bit_column_entries, bit_column_len, initial_bit_column_into, initial_column_into, step_dp_into,
    SubProfile,
};
use wed::models::{Edr, Erp, Lev, Memo, NetEdr, NetErp, Surs};
use wed::nonwed::lors;
use wed::{sw_best, sw_scan_all, wed, wed_within, Sym, WedInstance};

fn net() -> Arc<RoadNetwork> {
    Arc::new(CityParams::tiny(NetworkKind::Grid).generate())
}

fn boxed_models() -> Vec<Box<dyn WedInstance>> {
    let n = net();
    let hubs = Arc::new(HubLabels::build(&n));
    vec![
        Box::new(Lev),
        Box::new(Edr::new(n.clone(), 130.0)),
        Box::new(Erp::new(n.clone(), 150.0)),
        Box::new(NetEdr::new(n.clone(), hubs.clone(), 130.0)),
        Box::new(NetErp::new(n.clone(), hubs.clone(), 2000.0, 130.0)),
    ]
}

/// Every cost model the engine is run with, the edge-alphabet SURS and a
/// memoised network model included (symbols below 32 are valid in all).
fn cost_models() -> Vec<(&'static str, Box<dyn WedInstance>)> {
    let n = net();
    let hubs = Arc::new(HubLabels::build(&n));
    let net_edr = || NetEdr::new(n.clone(), hubs.clone(), 130.0);
    vec![
        ("Lev", Box::new(Lev)),
        ("EDR", Box::new(Edr::new(n.clone(), 130.0))),
        ("ERP", Box::new(Erp::new(n.clone(), 150.0))),
        ("NetEDR", Box::new(net_edr())),
        (
            "NetERP",
            Box::new(NetErp::new(n.clone(), hubs.clone(), 2000.0, 130.0)),
        ),
        ("SURS", Box::new(Surs::new(n.clone()))),
        ("Memo<NetEDR>", Box::new(Memo::new(net_edr()))),
    ]
}

/// The unit-cost models the engine runs on bit columns.
fn unit_models() -> Vec<(&'static str, Box<dyn WedInstance>)> {
    cost_models()
        .into_iter()
        .filter(|(name, _)| ["Lev", "EDR", "Memo<NetEDR>"].contains(name))
        .collect()
}

fn bits(col: &[f64]) -> Vec<u64> {
    col.iter().map(|v| v.to_bits()).collect()
}

/// Suffix lengths around the word boundaries of a bit column.
const BIT_LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine's kernel against the reference: for either suffix of `Q`
    /// around an anchor `iq` — `Q[iq+1..]` and `rev(Q[..iq])` — the profile's
    /// window holds the suffix's symbols, its root column is
    /// `initial_column_into`'s, and `step_dp_rows` over its row slices
    /// returns `step_dp_into`'s column and minimum, all by `to_bits`, from
    /// any parent column, on a row's first touch and on its reuse.
    #[test]
    fn step_dp_rows_is_bit_identical_to_step_dp_into(
        q in proptest::collection::vec(0u32..32, 1..12),
        iq in 0usize..12,
        ps in proptest::collection::vec(0u32..32, 1..4),
        parent in proptest::collection::vec(0.0f64..3000.0, 12),
    ) {
        let iq = iq % q.len();
        let fwd: Vec<Sym> = q[iq + 1..].to_vec();
        let back: Vec<Sym> = q[..iq].iter().rev().copied().collect();
        for (name, m) in cost_models() {
            let mut costs = SubProfile::new(&*m, &q);
            let windows = [(costs.forward(iq), &fwd), (costs.backward(iq), &back)];
            for (suffix, qd) in windows {
                prop_assert_eq!(costs.symbols(suffix), &qd[..], "{}", name);
                let (mut want, mut got) = (Vec::new(), Vec::new());
                let want_min = initial_column_into(&*m, qd, &mut want);
                let got_min = costs.initial_column_into(suffix, &mut got);
                prop_assert_eq!(bits(&got), bits(&want), "{} root", name);
                prop_assert_eq!(got_min.to_bits(), want_min.to_bits(), "{} root", name);

                let a = &parent[..qd.len() + 1];
                for &p in ps.iter().chain(&ps) {
                    let want_min = step_dp_into(&*m, qd, p, a, &mut want);
                    let got_min = costs.step(suffix, p, a, &mut got);
                    prop_assert_eq!(bits(&got), bits(&want), "{} p={}", name, p);
                    prop_assert_eq!(got_min.to_bits(), want_min.to_bits(), "{} p={}", name, p);
                }
            }
        }
    }

    /// The profile's `sub(p, iq)` is the model's `sub(p, Q[iq])` by
    /// `to_bits` for every symbol of the sample alphabet: a unit-cost row
    /// built from the neighbourhoods `B(Q[·])` (the shared zero row for a
    /// symbol in none), a cost row before and after its first touch.
    #[test]
    fn profile_sub_is_the_models_sub(
        q in proptest::collection::vec(0u32..32, 1..12),
    ) {
        for (name, m) in cost_models() {
            let mut costs = SubProfile::new(&*m, &q);
            let suffix = costs.forward(0);
            let mut out = vec![0.0; suffix.len() + 1];
            for p in 0..32 {
                for touched in [false, true] {
                    if touched && !costs.unit_costs() {
                        costs.step(suffix, p, &vec![0.0; suffix.len() + 1], &mut out);
                    }
                    for (iq, &qj) in q.iter().enumerate() {
                        let (got, want) = (costs.sub(p, iq), m.sub(p, qj));
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} p={} iq={}", name, p, iq);
                    }
                }
            }
        }
    }

    /// The unit-cost kernel against the reference: for every suffix length
    /// in [`BIT_LENGTHS`], forward and backward, a walk from the root deeper
    /// than the suffix is long steps `step_bits` and `step_dp_into` side by
    /// side. Every entry of each bit column, rebuilt from its depth, `VP`
    /// and `VN`, its minimum and its last entry equal the reference by
    /// `to_bits`.
    #[test]
    fn step_dp_bits_is_bit_identical_to_step_dp_into(
        pool in proptest::collection::vec(0u32..16, 132),
        extra in 0usize..3,
        walk in proptest::collection::vec(0u32..16, 140),
        deeper in 1usize..8,
    ) {
        for (name, m) in unit_models() {
            for len in BIT_LENGTHS {
                let q = &pool[..len + 1 + extra];
                let mut costs = SubProfile::new(&*m, q);
                prop_assert!(costs.unit_costs(), "{}", name);
                let n = q.len();
                for suffix in [costs.forward(n - 1 - len), costs.backward(len)] {
                    let qd = costs.symbols(suffix).to_vec();
                    prop_assert_eq!(qd.len(), len);
                    let (mut want, mut want_next) = (Vec::new(), vec![0.0; len + 1]);
                    let want_min = initial_column_into(&*m, &qd, &mut want);
                    let mut got = Vec::new();
                    let (got_min, got_ed) = initial_bit_column_into(len, &mut got);
                    prop_assert_eq!(bits(&bit_column_entries(len, &got)), bits(&want));
                    prop_assert_eq!(got_min.to_bits(), want_min.to_bits());
                    prop_assert_eq!(got_ed.to_bits(), want[len].to_bits());

                    let mut got_next = vec![0; bit_column_len(len)];
                    for (k, &p) in walk[..len + deeper].iter().enumerate() {
                        let want_min = step_dp_into(&*m, &qd, p, &want, &mut want_next);
                        let (got_min, got_ed) = costs.step_bits(suffix, p, &got, &mut got_next);
                        std::mem::swap(&mut want, &mut want_next);
                        std::mem::swap(&mut got, &mut got_next);
                        let ctx = format!("{name} |Q^d|={len} depth {}", k + 1);
                        prop_assert_eq!(bits(&bit_column_entries(len, &got)), bits(&want), "{}", ctx);
                        prop_assert_eq!(got_min.to_bits(), want_min.to_bits(), "{}", ctx);
                        prop_assert_eq!(got_ed.to_bits(), want[len].to_bits(), "{}", ctx);
                    }
                }
            }
        }
    }

    /// Proposition 1 for every vertex-alphabet instance: non-negativity,
    /// symmetry, identity.
    #[test]
    fn proposition_1_holds(
        a in proptest::collection::vec(0u32..64, 0..10),
        b in proptest::collection::vec(0u32..64, 0..10),
    ) {
        for m in boxed_models() {
            let dab = wed(&*m, &a, &b);
            let dba = wed(&*m, &b, &a);
            prop_assert!(dab >= -1e-12, "{}: negative wed", m.name());
            prop_assert!((dab - dba).abs() < 1e-6, "{}: asymmetric {dab} vs {dba}", m.name());
            prop_assert!(wed(&*m, &a, &a).abs() < 1e-9, "{}: wed(a,a) != 0", m.name());
        }
    }

    /// Theorem 1 ingredient: the filtering contract on random pairs.
    #[test]
    fn lower_cost_is_a_lower_bound(q in 0u32..64, probe in 0u32..64) {
        for m in boxed_models() {
            check_filter_contract(&*m, &[q, probe]);
        }
    }

    /// sw_scan_all equals brute force for a continuous-cost model (ERP).
    #[test]
    fn sw_scan_matches_brute_force_under_erp(
        p in proptest::collection::vec(0u32..64, 1..10),
        q in proptest::collection::vec(0u32..64, 1..5),
        tau in 50.0f64..2000.0,
    ) {
        let erp = Erp::new(net(), 10.0);
        let mut got = sw_scan_all(&erp, &p, &q, tau);
        got.sort_by_key(|m| (m.start, m.end));
        let mut want = Vec::new();
        for s in 0..p.len() {
            for t in s..p.len() {
                let d = wed(&erp, &p[s..=t], &q);
                if d < tau {
                    want.push((s, t, d));
                }
            }
        }
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!((g.start, g.end), (w.0, w.1));
            prop_assert!((g.dist - w.2).abs() < 1e-6);
        }
    }

    /// sw_best returns the global substring minimum under EDR.
    #[test]
    fn sw_best_is_global_minimum_under_edr(
        p in proptest::collection::vec(0u32..64, 1..10),
        q in proptest::collection::vec(0u32..64, 1..5),
    ) {
        let edr = Edr::new(net(), 130.0);
        let best = sw_best(&edr, &p, &q).unwrap();
        let mut min = f64::INFINITY;
        for s in 0..p.len() {
            for t in s..p.len() {
                min = min.min(wed(&edr, &p[s..=t], &q));
            }
        }
        prop_assert!((best.dist - min).abs() < 1e-9);
    }

    /// wed_within agrees with the full DP under SURS (edge alphabet,
    /// continuous costs).
    #[test]
    fn wed_within_agrees_under_surs(
        p in proptest::collection::vec(0u32..32, 0..10),
        q in proptest::collection::vec(0u32..32, 0..8),
        tau in 10.0f64..5000.0,
    ) {
        let surs = Surs::new(net());
        let full = wed(&surs, &p, &q);
        match wed_within(&surs, &p, &q, tau) {
            Some(d) => prop_assert!((d - full).abs() < 1e-9 && d < tau),
            None => prop_assert!(full >= tau - 1e-9),
        }
    }

    /// Appendix F: SURS = w(x) + w(y) − 2·LORS on arbitrary edge strings.
    #[test]
    fn surs_equals_weight_minus_twice_lors(
        x in proptest::collection::vec(0u32..32, 0..12),
        y in proptest::collection::vec(0u32..32, 0..12),
    ) {
        let n = net();
        let surs = Surs::new(n.clone());
        let s = wed(&surs, &x, &y);
        let l = lors(&x, &y, |e: Sym| n.edge(e).length);
        let expect = surs.total_weight(&x) + surs.total_weight(&y) - 2.0 * l;
        prop_assert!((s - expect).abs() < 1e-6);
    }

    /// Edit-script upper bound: wed(P, Q) <= del(P) + ins(Q).
    #[test]
    fn wed_bounded_by_rewrite_cost(
        p in proptest::collection::vec(0u32..64, 0..10),
        q in proptest::collection::vec(0u32..64, 0..10),
    ) {
        for m in boxed_models() {
            let d = wed(&*m, &p, &q);
            let ub: f64 = m.total_ins(&p) + m.total_ins(&q);
            prop_assert!(d <= ub + 1e-9, "{}: {d} > {ub}", m.name());
        }
    }

    /// Contiguity: appending one symbol changes wed by at most the larger of
    /// its deletion cost (new symbol deleted) — monotone growth bound.
    #[test]
    fn single_symbol_extension_is_lipschitz(
        p in proptest::collection::vec(0u32..64, 0..8),
        q in proptest::collection::vec(0u32..64, 0..8),
        extra in 0u32..64,
    ) {
        for m in boxed_models() {
            let base = wed(&*m, &p, &q);
            let mut p2 = p.clone();
            p2.push(extra);
            let ext = wed(&*m, &p2, &q);
            prop_assert!(
                ext <= base + m.del(extra) + 1e-9,
                "{}: extension jumped {base} -> {ext}",
                m.name()
            );
        }
    }
}
