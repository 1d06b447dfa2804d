//! Per-query deadlines and cooperative cancellation.
//!
//! A serving deployment cannot let one heavy query hold a worker forever:
//! past its latency budget, a *typed timeout* is more useful than a late
//! answer. [`Deadline`] is the engine-side half of that contract — a point
//! in time after which execution should stop — and the pipeline checks it
//! at its natural quiescent points (**cooperative** cancellation, no thread
//! is ever killed):
//!
//! * before filtering starts and after candidate lookup,
//! * between whole-trajectory candidate groups during verification,
//! * between trajectories of the exact fallback scan,
//! * between threshold-growth rounds of a top-k query.
//!
//! Expiry surfaces as [`QueryError::DeadlineExceeded`] from
//! [`SearchEngine::execute`](crate::SearchEngine::execute)
//! (or [`run`](crate::SearchEngine::run), which derives the deadline from
//! [`Query::deadline_ms`](crate::Query::deadline_ms) at call time). Partial
//! results are never returned: a query either completes exactly or fails
//! with the typed error.
//!
//! [`Deadline::NONE`] costs one branch per checkpoint and never reads the
//! clock, so deadline-free queries are unaffected.

use crate::query::QueryError;
use std::time::{Duration, Instant};

/// A point in time after which a query should stop executing; see the
/// [module docs](self) for where the pipeline checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: every checkpoint passes without reading the clock.
    pub const NONE: Deadline = Deadline { at: None };

    /// Expires at `instant`.
    pub fn at(instant: Instant) -> Deadline {
        Deadline { at: Some(instant) }
    }

    /// Expires `budget` from now.
    pub fn within(budget: Duration) -> Deadline {
        Deadline::at(Instant::now() + budget)
    }

    /// The deadline of a query whose clock started at `epoch` — the wire
    /// semantics: a serving layer stamps `epoch` at admission, so time spent
    /// queued counts against the budget. `None` budget means no deadline.
    pub fn for_query(epoch: Instant, deadline_ms: Option<u64>) -> Deadline {
        match deadline_ms {
            Some(ms) => Deadline::at(epoch + Duration::from_millis(ms)),
            None => Deadline::NONE,
        }
    }

    /// True when no deadline is set.
    pub fn is_none(&self) -> bool {
        self.at.is_none()
    }

    /// True once the deadline has passed. `Deadline::NONE` never expires
    /// (and never reads the clock).
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// The checkpoint primitive: `Err(QueryError::DeadlineExceeded)` once
    /// expired, `Ok(())` before (or without) the deadline.
    pub fn check(&self) -> Result<(), QueryError> {
        if self.expired() {
            Err(QueryError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// Time left until expiry; `None` without a deadline, zero once past.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        assert!(Deadline::NONE.is_none());
        assert!(!Deadline::NONE.expired());
        assert!(Deadline::NONE.check().is_ok());
        assert_eq!(Deadline::NONE.remaining(), None);
        assert_eq!(Deadline::default(), Deadline::NONE);
    }

    #[test]
    fn past_deadline_is_expired() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.check().unwrap_err(), QueryError::DeadlineExceeded);
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_is_live() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.is_none());
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn for_query_counts_queue_time() {
        // A query admitted 10ms ago with a 1ms budget is already expired
        // even though "now + 1ms" would not be.
        let epoch = Instant::now() - Duration::from_millis(10);
        assert!(Deadline::for_query(epoch, Some(1)).expired());
        assert!(Deadline::for_query(epoch, None).is_none());
    }
}
