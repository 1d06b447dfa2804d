//! In-memory trajectory dataset (the `T` of Definition 3).
//!
//! The store is append-only: a trajectory's id is its insertion index. It
//! also computes the per-dataset statistics of Table 2. The symbol frequencies
//! `n(q)` that MinCand prices a query with come from the index
//! (`PostingSource::freq` in `trajsearch-core`), not from the store.

use crate::model::{TrajId, Trajectory};

/// Dataset-level statistics (the columns of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    pub num_trajectories: usize,
    pub avg_length: f64,
    pub min_length: usize,
    pub max_length: usize,
    pub total_symbols: usize,
}

/// An append-only collection of trajectories addressed by dense [`TrajId`]s.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryStore {
    trajs: Vec<Trajectory>,
}

impl TrajectoryStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        TrajectoryStore {
            trajs: Vec::with_capacity(n),
        }
    }

    /// Appends a trajectory, returning its id.
    pub fn push(&mut self, t: Trajectory) -> TrajId {
        let id = self.trajs.len() as TrajId;
        self.trajs.push(t);
        id
    }

    pub fn len(&self) -> usize {
        self.trajs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trajs.is_empty()
    }

    pub fn get(&self, id: TrajId) -> &Trajectory {
        &self.trajs[id as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        self.trajs.iter().enumerate().map(|(i, t)| (i as TrajId, t))
    }

    /// A store containing only the first `n` trajectories (used by the
    /// dataset-size sweep of Figure 8 and Table 5's 25 % / 50 % rows).
    pub fn prefix(&self, n: usize) -> TrajectoryStore {
        TrajectoryStore {
            trajs: self.trajs[..n.min(self.trajs.len())].to_vec(),
        }
    }

    /// Statistics in the shape of Table 2.
    pub fn stats(&self) -> DatasetStats {
        let total: usize = self.trajs.iter().map(|t| t.len()).sum();
        let min = self.trajs.iter().map(|t| t.len()).min().unwrap_or(0);
        let max = self.trajs.iter().map(|t| t.len()).max().unwrap_or(0);
        DatasetStats {
            num_trajectories: self.trajs.len(),
            avg_length: if self.trajs.is_empty() {
                0.0
            } else {
                total as f64 / self.trajs.len() as f64
            },
            min_length: min,
            max_length: max,
            total_symbols: total,
        }
    }
}

impl FromIterator<Trajectory> for TrajectoryStore {
    fn from_iter<I: IntoIterator<Item = Trajectory>>(iter: I) -> Self {
        TrajectoryStore {
            trajs: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::untimed(vec![0, 1, 2]));
        s.push(Trajectory::untimed(vec![2, 1]));
        s.push(Trajectory::untimed(vec![1, 1, 1, 1]));
        s
    }

    #[test]
    fn push_and_get() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(1).path(), &[2, 1]);
        assert_eq!(s.iter().count(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn stats_match_contents() {
        let s = store();
        let st = s.stats();
        assert_eq!(st.num_trajectories, 3);
        assert_eq!(st.total_symbols, 9);
        assert_eq!(st.min_length, 2);
        assert_eq!(st.max_length, 4);
        assert!((st.avg_length - 3.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_takes_first_n() {
        let s = store();
        let p = s.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(0).path(), &[0, 1, 2]);
        assert_eq!(s.prefix(100).len(), 3);
        assert!(s.prefix(0).is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let s: TrajectoryStore = (0..5).map(|i| Trajectory::untimed(vec![i])).collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(4).path(), &[4]);
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = TrajectoryStore::new().stats();
        assert_eq!(st.num_trajectories, 0);
        assert_eq!(st.avg_length, 0.0);
    }
}
