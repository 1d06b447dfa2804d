//! End-to-end engine behavior: planted matches are found, thresholds are
//! strict, temporal strategies agree, fallback stays exact, and statistics
//! are coherent.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::generator::random_walk;
use traj::{Trajectory, TrajectoryStore, TripConfig};
use trajsearch_bench::data::{Dataset, FuncKind};
use trajsearch_core::{EngineBuilder, Query, TemporalConstraint, TimeInterval, VerifyMode};
use wed::models::Lev;

/// Plants noisy copies of a query inside longer trajectories and checks the
/// engine finds every planted occurrence at the right positions.
#[test]
fn planted_occurrences_are_found() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(5).generate());
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let motif = random_walk(&net, &mut rng, 100, 12);
    assert_eq!(motif.len(), 12);

    let mut store = TrajectoryStore::new();
    let mut planted: Vec<(u32, usize)> = Vec::new();
    for i in 0..30 {
        // Prefix walk that happens to end where the motif starts.
        let mut path = random_walk(&net, &mut rng, motif[0], (i % 7) + 2);
        // Walk back to motif start if the walk drifted (cheap trick: start
        // the trajectory at the motif head instead).
        if *path.last().unwrap() != motif[0] {
            path = vec![motif[0]];
        }
        let at = path.len() - 1;
        path.extend_from_slice(&motif[1..]);
        let suffix_start = *path.last().unwrap();
        let suffix = random_walk(&net, &mut rng, suffix_start, 6);
        path.extend_from_slice(&suffix[1..]);
        let id = store.push(Trajectory::untimed(path));
        planted.push((id, at));
    }
    // Distractors.
    for _ in 0..50 {
        let start = rng.gen_range(0..net.num_vertices() as u32);
        store.push(Trajectory::untimed(random_walk(&net, &mut rng, start, 25)));
    }

    let engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();
    // exact occurrences only
    let out = engine
        .run(&Query::threshold(motif.clone(), 1.0).build().unwrap())
        .unwrap();
    for (id, at) in &planted {
        assert!(
            out.matches
                .iter()
                .any(|m| m.id == *id && m.start == *at && m.dist == 0.0),
            "planted motif in trajectory {id} at {at} not found"
        );
    }
}

#[test]
fn threshold_is_strict_and_monotone() {
    let d = Dataset::test_tiny();
    let model = d.model(FuncKind::Edr);
    let (store, alphabet) = d.store_for(FuncKind::Edr);
    let engine = EngineBuilder::new(&*model, store, alphabet).build();
    let q = d.sample_queries(FuncKind::Edr, 8, 1, 3).pop().unwrap();
    let mut last = 0usize;
    for ratio in [0.05, 0.1, 0.2, 0.4] {
        let tau = d.tau_for(&*model, &q, ratio);
        let out = engine
            .run(&Query::threshold(q.clone(), tau).build().unwrap())
            .unwrap();
        assert!(out.matches.len() >= last, "results must grow with tau");
        for m in &out.matches {
            assert!(
                m.dist < tau,
                "strict inequality violated: {} >= {tau}",
                m.dist
            );
        }
        last = out.matches.len();
    }
}

#[test]
fn temporal_strategies_agree_and_prune() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(8).generate());
    let store = TripConfig::default()
        .count(300)
        .lengths(10, 40)
        .seed(21)
        .generate(&net);
    let engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();
    let q = store.get(5).path()[2..=9].to_vec();

    let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, t) in store.iter() {
        tmin = tmin.min(t.departure());
        tmax = tmax.max(t.arrival());
    }
    for frac in [0.05, 0.25, 1.0] {
        let c = TemporalConstraint::overlaps(TimeInterval::new(tmin, tmin + frac * (tmax - tmin)));
        let tf = engine
            .run(
                &Query::threshold(q.clone(), 2.0)
                    .verify(VerifyMode::Trie)
                    .temporal(c)
                    .temporal_filter(true)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let no_tf = engine
            .run(
                &Query::threshold(q.clone(), 2.0)
                    .verify(VerifyMode::Trie)
                    .temporal(c)
                    .temporal_filter(false)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(
            tf.matches, no_tf.matches,
            "TF and no-TF must agree at frac={frac}"
        );
        assert!(tf.stats.candidates_after_temporal <= no_tf.stats.candidates_after_temporal);
        // Every reported span satisfies the constraint.
        for m in &tf.matches {
            let t = store.get(m.id);
            assert!(c.accepts(t.times()[m.start], t.times()[m.end]));
        }
    }
}

#[test]
fn within_predicate_is_stricter_than_overlap() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(9).generate());
    let store = TripConfig::default()
        .count(200)
        .lengths(10, 40)
        .seed(22)
        .generate(&net);
    let engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();
    let q = store.get(3).path()[1..=8].to_vec();
    let interval = TimeInterval::new(0.0, 43_200.0); // first half day
    let overlap = engine
        .run(
            &Query::threshold(q.clone(), 2.0)
                .verify(VerifyMode::Trie)
                .temporal(TemporalConstraint::overlaps(interval))
                .temporal_filter(true)
                .build()
                .unwrap(),
        )
        .unwrap();
    let within = engine
        .run(
            &Query::threshold(q.clone(), 2.0)
                .verify(VerifyMode::Trie)
                .temporal(TemporalConstraint::within(interval))
                .temporal_filter(true)
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(within.matches.len() <= overlap.matches.len());
    for m in &within.matches {
        assert!(overlap.matches.contains(m), "within ⊆ overlap violated");
    }
}

/// The §4.3 binary-search temporal postings must return exactly the same
/// result set as plain candidate generation, with no more candidates.
#[test]
fn temporal_postings_extension_is_equivalent() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(14).generate());
    let store = TripConfig::default()
        .count(400)
        .lengths(10, 40)
        .seed(33)
        .generate(&net);
    use trajsearch_core::PostingSource;
    let plain = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();
    let temporal = EngineBuilder::new(&Lev, &store, net.num_vertices())
        .temporal_postings(true)
        .build();
    assert!(temporal.index().has_temporal_postings());

    let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, t) in store.iter() {
        tmin = tmin.min(t.departure());
        tmax = tmax.max(t.arrival());
    }
    for (qi, frac) in [(2u32, 0.02), (9, 0.1), (23, 0.5)] {
        let q = store.get(qi).path()[1..=9].to_vec();
        let c = TemporalConstraint::overlaps(TimeInterval::new(tmin, tmin + frac * (tmax - tmin)));
        let base = plain
            .run(
                &Query::threshold(q.clone(), 2.0)
                    .verify(VerifyMode::Trie)
                    .temporal(c)
                    .temporal_filter(true)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let fast = temporal
            .run(
                &Query::threshold(q.clone(), 2.0)
                    .verify(VerifyMode::Trie)
                    .temporal(c)
                    // already pruned at generation, so no TF pass
                    .temporal_postings(true)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(base.matches, fast.matches, "frac={frac}");
        assert!(
            fast.stats.candidates <= base.stats.candidates,
            "binary-searched generation must not produce more candidates"
        );
    }
}

#[test]
fn top_k_agrees_with_exhaustive_ranking() {
    let d = Dataset::test_tiny();
    let model = d.model(FuncKind::Edr);
    let (store, alphabet) = d.store_for(FuncKind::Edr);
    let engine = EngineBuilder::new(&*model, store, alphabet).build();
    let q = d.sample_queries(FuncKind::Edr, 8, 1, 6).pop().unwrap();
    let max_tau = q.len() as f64 + 1.0;
    let k = 5;
    let top = engine
        .run(&Query::top_k(q.clone(), k, 0.5, max_tau).build().unwrap())
        .unwrap()
        .ranked();
    assert!(top.len() <= k);
    // Oracle: best distance per trajectory by exhaustive threshold search.
    let all = engine
        .run(&Query::threshold(q.clone(), max_tau).build().unwrap())
        .unwrap();
    let best = trajsearch_core::per_trajectory_best(&all.matches);
    let mut oracle: Vec<f64> = best.values().map(|m| m.dist).collect();
    oracle.sort_by(f64::total_cmp);
    for (i, entry) in top.iter().enumerate() {
        assert!(
            (entry.best.dist - oracle[i]).abs() < 1e-9,
            "rank {i}: {} vs oracle {}",
            entry.best.dist,
            oracle[i]
        );
        assert_eq!(entry.rank, i);
    }
}

#[test]
fn fallback_scan_equals_filtered_search_semantics() {
    // ERP with a huge tau forces FilterInfeasible; the fallback must return
    // the same set a plain scan does.
    let d = Dataset::test_tiny();
    let model = d.model(FuncKind::Erp);
    let small = d.store.prefix(10);
    let engine = EngineBuilder::new(&*model, &small, d.net.num_vertices()).build();
    let q = d.sample_queries(FuncKind::Erp, 5, 1, 4).pop().unwrap();
    let tau = 1e12;
    let out = engine
        .run(&Query::threshold(q.clone(), tau).build().unwrap())
        .unwrap();
    assert!(out.stats.fallback);
    let (want, _) = baselines::plain_sw_search(&&*model, &small, &q, tau);
    assert_eq!(out.matches.len(), want.len());
}

#[test]
fn stats_are_internally_consistent() {
    let d = Dataset::test_tiny();
    let model = d.model(FuncKind::Edr);
    let (store, alphabet) = d.store_for(FuncKind::Edr);
    let engine = EngineBuilder::new(&*model, store, alphabet).build();
    for q in d.sample_queries(FuncKind::Edr, 10, 5, 5) {
        let tau = d.tau_for(&*model, &q, 0.2);
        let out = engine
            .run(&Query::threshold(q.clone(), tau).build().unwrap())
            .unwrap();
        let s = &out.stats;
        assert_eq!(s.results, out.matches.len());
        assert!(s.stepdp_calls <= s.columns_passed);
        assert!(s.columns_passed <= s.sw_columns);
        assert!(s.tsubseq_len >= 1);
        assert!(s.candidates >= s.candidates_after_temporal);
        assert!(s.upr() <= 1.0 && s.cmr() <= 1.0);
    }
}
