//! Trajectory substrate: the data model of §2.1 of the paper plus everything
//! needed to materialize realistic datasets.
//!
//! * [`model`] — trajectories as paths on the road network with per-vertex
//!   timestamps (Definition 1).
//! * [`dataset`] — an in-memory trajectory store with the statistics reported
//!   in Table 2 and symbol-frequency accounting used by MinCand.
//! * [`edges`] — vertex ⇄ edge representation conversion (§2.1 supports both).
//! * [`generator`] — synthetic trip generation (waypoint-routed paths with
//!   detours and congestion-noised timestamps) and random walks, substituting
//!   for the taxi GPS corpora of the paper. Every trajectory is a network
//!   path already, the input Definition 1 assumes, so no map matching is
//!   needed.

pub mod dataset;
pub mod edges;
pub mod generator;
pub mod model;

pub use dataset::{DatasetStats, TrajectoryStore};
pub use generator::{RandomWalkConfig, TripConfig};
pub use model::{TrajId, Trajectory};
