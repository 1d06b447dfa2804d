//! Temporal subtrajectory search (§4.3): restrict matches to a rush-hour
//! window and compare the TF (pre-filter) and no-TF (post-process)
//! strategies — both return identical results, TF does less verification.
//!
//! ```sh
//! cargo run --release --example temporal_search
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, Query, TemporalConstraint, TimeInterval, VerifyMode};
use wed::models::Lev;

fn main() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(31).generate());
    let store = TripConfig::default()
        .count(1_500)
        .lengths(15, 50)
        .seed(13)
        .generate(&net);
    let engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();

    let q = store.get(42).path()[3..=14].to_vec();
    let tau = 3.0;

    // A two-hour window around the probe trip's departure (timestamps are
    // seconds from midnight), so the window is guaranteed non-empty.
    let depart = store.get(42).departure();
    let rush = TimeInterval::new((depart - 3600.0).max(0.0), depart + 3600.0);
    let constraint = TemporalConstraint::overlaps(rush);

    let tf = engine
        .run(
            &Query::threshold(q.clone(), tau)
                .verify(VerifyMode::Trie)
                .temporal(constraint)
                .temporal_filter(true)
                .build()
                .expect("valid query"),
        )
        .expect("run");
    let no_tf = engine
        .run(
            &Query::threshold(q.clone(), tau)
                .verify(VerifyMode::Trie)
                .temporal(constraint)
                .temporal_filter(false)
                .build()
                .expect("valid query"),
        )
        .expect("run");

    assert_eq!(
        tf.matches.len(),
        no_tf.matches.len(),
        "strategies must agree"
    );
    println!("query: {} vertices, tau = {tau}", q.len());
    println!("matches overlapping the window: {}", tf.matches.len());
    println!(
        "TF verified {} of {} candidates; no-TF verified all {}",
        tf.stats.candidates_after_temporal,
        tf.stats.candidates,
        no_tf.stats.candidates_after_temporal,
    );
    println!(
        "TF stepDP calls: {}   no-TF stepDP calls: {}",
        tf.stats.stepdp_calls, no_tf.stats.stepdp_calls
    );

    for m in tf.matches.iter().take(5) {
        let t = store.get(m.id);
        println!(
            "  trajectory {:>4} [{}..={}] departs {:>7.0}s wed={}",
            m.id,
            m.start,
            m.end,
            t.times()[m.start],
            m.dist
        );
    }

    // Without the temporal constraint there are at least as many matches.
    let unconstrained = engine
        .run(
            &Query::threshold(q.clone(), tau)
                .build()
                .expect("valid query"),
        )
        .expect("run");
    assert!(unconstrained.matches.len() >= tf.matches.len());
    println!(
        "without temporal constraint: {} matches",
        unconstrained.matches.len()
    );
}
