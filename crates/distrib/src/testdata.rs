//! Deterministic synthetic data shared by the cluster binaries and the
//! equivalence tests. Every process in a test cluster regenerates the
//! *same* store from the same `(n, len, seed)` — the shard servers index
//! their partition of it, the coordinator keeps it for verification — so
//! no dataset ever crosses the wire. A tiny splitmix/LCG generator keeps
//! the binaries free of the dev-only `rand` shim.

use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::{Metric, Query, TemporalConstraint, TimeInterval, VerifyMode};
use wed::Sym;

/// splitmix64 step: the state update is an LCG, the output is bit-mixed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, bound: usize) -> usize {
    (next(state) % bound.max(1) as u64) as usize
}

/// `n` random walks of length `len` over `alphabet` symbols, with
/// increasing per-trajectory timestamps. Identical output for identical
/// arguments on every platform.
pub fn store(n: usize, len: usize, seed: u64, alphabet: usize) -> TrajectoryStore {
    let mut state = seed ^ 0xD1B54A32D192ED03;
    let mut store = TrajectoryStore::new();
    for i in 0..n {
        let path: Vec<Sym> = (0..len)
            .map(|_| below(&mut state, alphabet) as u32)
            .collect();
        let t0 = (i * 7) as f64;
        let times: Vec<f64> = (0..len).map(|j| t0 + j as f64).collect();
        store.push(Trajectory::new(path, times));
    }
    store
}

/// A pattern copied out of the store (so matches exist), with one symbol
/// sometimes perturbed.
fn pattern_from(store: &TrajectoryStore, state: &mut u64, len: usize, alphabet: usize) -> Vec<Sym> {
    let id = below(state, store.len()) as u32;
    let path = store.get(id).path();
    let start = below(state, path.len().saturating_sub(len).max(1));
    let mut q: Vec<Sym> = path[start..(start + len).min(path.len())].to_vec();
    if below(state, 2) == 1 && !q.is_empty() {
        let at = below(state, q.len());
        q[at] = below(state, alphabet) as u32;
    }
    q
}

/// A mixed workload covering every distributed code path: plain and
/// Smith–Waterman thresholds, top-k, temporal filtering, by-departure
/// temporal postings (which the coordinator derives from cached postings
/// and the store's departures), a DTW query (which the
/// coordinator verifies itself, like every metric), and the exact fallback
/// scan (an infeasible threshold — postings cannot
/// prune, the engine scans the store it holds locally).
pub fn workload(store: &TrajectoryStore, n: usize, seed: u64, alphabet: usize) -> Vec<Query> {
    let mut state = seed ^ 0xA0761D6478BD642F;
    (0..n)
        .map(|i| {
            let q = pattern_from(store, &mut state, 4 + i % 4, alphabet);
            let tau = 1.0 + (i % 3) as f64 * 0.75;
            match i % 7 {
                0 => Query::threshold(q, tau).build().unwrap(),
                1 => Query::threshold(q, tau)
                    .verify(VerifyMode::Sw)
                    .build()
                    .unwrap(),
                2 => Query::top_k(q, 3, 0.5, 6.0).build().unwrap(),
                3 => Query::threshold(q, tau)
                    .verify(VerifyMode::Local)
                    .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 300.0)))
                    .temporal_filter(true)
                    .build()
                    .unwrap(),
                4 => Query::threshold(q, tau)
                    .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 250.0)))
                    .temporal_postings(true)
                    .build()
                    .unwrap(),
                5 => Query::threshold(q, tau)
                    .metric(Metric::Dtw)
                    .build()
                    .unwrap(),
                _ => {
                    // tau > |Q|: no tau-subsequence exists, forcing the
                    // exact fallback scan; the temporal post-check keeps
                    // the response small.
                    let scan_len = q.len().max(4);
                    Query::threshold(q, scan_len as f64 + 0.5)
                        .verify(VerifyMode::Sw)
                        .temporal(TemporalConstraint::within(TimeInterval::new(0.0, 30.0)))
                        .build()
                        .unwrap()
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = store(20, 12, 9, 16);
        let b = store(20, 12, 9, 16);
        assert_eq!(a.len(), 20);
        for id in 0..20u32 {
            assert_eq!(a.get(id).path(), b.get(id).path());
            assert_eq!(a.get(id).times(), b.get(id).times());
        }
        assert_eq!(workload(&a, 14, 3, 16), workload(&b, 14, 3, 16));
    }

    #[test]
    fn workload_covers_the_fallback_scan() {
        let s = store(20, 12, 9, 16);
        let w = workload(&s, 14, 3, 16);
        // i % 7 == 6 queries have tau > |Q| — the infeasible shape.
        assert!(w.len() >= 7);
    }
}
