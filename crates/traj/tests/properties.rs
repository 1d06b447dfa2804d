//! Property-based tests of the trajectory substrate: generator invariants,
//! and representation round-trips.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rnet::{CityParams, NetworkKind};
use traj::edges::{store_to_edges, to_edge_trajectory, to_vertex_trajectory};
use traj::generator::{random_walk, RandomWalkConfig, TripConfig};
use traj::Trajectory;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated trip is a path with strictly increasing timestamps
    /// within the configured length bounds.
    #[test]
    fn trips_satisfy_model_invariants(seed in 0u64..64, min in 3usize..8, extra in 0usize..20) {
        let net = CityParams::tiny(NetworkKind::City).seed(seed % 8).generate();
        let max = min + extra;
        let store = TripConfig::default().count(10).lengths(min, max).seed(seed).generate(&net);
        prop_assert_eq!(store.len(), 10);
        for (_, t) in store.iter() {
            prop_assert!(net.is_path(t.path()));
            prop_assert!(t.len() >= min && t.len() <= max);
            prop_assert!(t.times().windows(2).all(|w| w[1] > w[0]));
        }
    }

    /// Random walks never leave the network and respect the target length.
    #[test]
    fn walks_are_paths(seed in 0u64..64, start in 0u32..64, target in 2usize..30) {
        let net = CityParams::tiny(NetworkKind::City).seed(seed % 8).generate();
        let start = start % net.num_vertices() as u32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = random_walk(&net, &mut rng, start, target);
        prop_assert!(net.is_path(&w));
        prop_assert_eq!(w.len(), target); // SCC pruning guarantees continuation
        prop_assert_eq!(w[0], start);
    }

    /// Vertex -> edge -> vertex round-trips recover the original path.
    #[test]
    fn representation_roundtrip(seed in 0u64..64, target in 2usize..25) {
        let net = CityParams::tiny(NetworkKind::Grid).generate();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let path = random_walk(&net, &mut rng, (seed % 64) as u32, target);
        let times: Vec<f64> = (0..path.len()).map(|i| i as f64 * 3.0).collect();
        let t = Trajectory::new(path.clone(), times);
        let e = to_edge_trajectory(&net, &t).unwrap();
        prop_assert_eq!(e.len(), t.len() - 1);
        let back = to_vertex_trajectory(&net, &e).unwrap();
        prop_assert_eq!(back.path(), t.path());
    }

    /// Store conversion preserves cardinality for stores of length-≥2 paths.
    #[test]
    fn store_conversion_preserves_count(seed in 0u64..32) {
        let net = CityParams::tiny(NetworkKind::City).seed(seed % 4).generate();
        let store = RandomWalkConfig::default().count(8).seed(seed).generate(&net);
        let edges = store_to_edges(&net, &store);
        prop_assert_eq!(edges.len(), store.len());
        for ((_, v), (_, e)) in store.iter().zip(edges.iter()) {
            prop_assert_eq!(e.len(), v.len() - 1);
        }
    }
}
