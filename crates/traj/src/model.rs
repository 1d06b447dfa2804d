//! The trajectory data model (Definition 1 of the paper).
//!
//! A trajectory is a pair `(P, T)`: a path `P` on the road network and a
//! sequence `T` of timestamps, one per vertex. As in the paper, most of the
//! search machinery only looks at `P` (a string over the alphabet of vertex
//! or edge ids); timestamps come back into play for temporal constraints
//! (§2.3, §4.3).

/// Identifier of a trajectory within a [`crate::TrajectoryStore`].
pub type TrajId = u32;

/// A network-constrained trajectory: a symbol string plus timestamps.
///
/// `path` holds vertex ids in vertex representation or edge ids in edge
/// representation — the search algorithms are representation-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    path: Vec<u32>,
    times: Vec<f64>,
}

impl Trajectory {
    /// Creates a trajectory, validating the model invariants:
    /// equal lengths, non-empty, non-decreasing timestamps.
    pub fn new(path: Vec<u32>, times: Vec<f64>) -> Self {
        assert!(!path.is_empty(), "trajectory must be non-empty");
        assert_eq!(path.len(), times.len(), "one timestamp per element");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "timestamps must be non-decreasing"
        );
        Trajectory { path, times }
    }

    /// Creates a trajectory with all-zero timestamps (for tests and purely
    /// spatial workloads).
    pub fn untimed(path: Vec<u32>) -> Self {
        let times = vec![0.0; path.len()];
        Trajectory::new(path, times)
    }

    /// The symbol string `P`.
    pub fn path(&self) -> &[u32] {
        &self.path
    }

    /// The timestamp sequence `T`.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of symbols `|P|`.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    pub fn is_empty(&self) -> bool {
        false // enforced non-empty at construction
    }

    /// Departure (first) timestamp.
    pub fn departure(&self) -> f64 {
        self.times[0]
    }

    /// Arrival (last) timestamp.
    pub fn arrival(&self) -> f64 {
        *self.times.last().unwrap()
    }

    /// Time span `[T_1, T_n]` of the whole trajectory; candidates are pruned
    /// against this interval by temporal filtering (§4.3).
    pub fn span(&self) -> (f64, f64) {
        (self.departure(), self.arrival())
    }

    /// Travel time of the subtrajectory from position `i` to `j`
    /// (inclusive, 0-based); this is the quantity averaged by the
    /// travel-time-estimation experiment (§6.2.1).
    pub fn travel_time(&self, i: usize, j: usize) -> f64 {
        assert!(i <= j && j < self.len());
        self.times[j] - self.times[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_trajectory_roundtrips() {
        let t = Trajectory::new(vec![1, 2, 3], vec![0.0, 5.0, 9.0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.path(), &[1, 2, 3]);
        assert_eq!(t.departure(), 0.0);
        assert_eq!(t.arrival(), 9.0);
        assert_eq!(t.span(), (0.0, 9.0));
        assert_eq!(t.travel_time(0, 2), 9.0);
        assert_eq!(t.travel_time(1, 2), 4.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn untimed_has_zero_times() {
        let t = Trajectory::untimed(vec![4, 5]);
        assert_eq!(t.times(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_path_rejected() {
        Trajectory::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "one timestamp per element")]
    fn mismatched_lengths_rejected() {
        Trajectory::new(vec![1, 2], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_times_rejected() {
        Trajectory::new(vec![1, 2], vec![5.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn travel_time_out_of_range_panics() {
        let t = Trajectory::untimed(vec![1, 2]);
        t.travel_time(1, 2);
    }
}
