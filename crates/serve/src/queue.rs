//! The bounded admission queue between connection readers and the worker
//! pool.
//!
//! Backpressure is the whole point: a full queue **rejects at admission**
//! ([`PushError::Full`] → a typed `overloaded` reply) instead of buffering
//! without bound, so server memory is capped by `capacity × frame size`
//! regardless of client behavior. Closing the queue ([`BoundedQueue::close`])
//! makes the shutdown drain race-free, because "no new work" and "queue
//! empty" are decided under the same mutex: once a reader observes
//! [`PushError::Closed`], no push can interleave with a worker observing
//! the drained queue ([`BoundedQueue::pop`] returning `None`). Workers
//! **block** on the condvar — every push and the close notify it — so an
//! idle pool costs no wake-ups.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused; the item comes back to the caller either way.
#[derive(Debug)]
pub(crate) enum PushError<T> {
    /// At capacity — the backpressure signal.
    Full(T),
    /// Closed for shutdown — no new work is admitted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A mutex+condvar MPMC queue with a hard capacity; see the module docs for
/// the backpressure and drain contracts.
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admits `item` unless the queue is full or closed — never blocks.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until there is work. `None` means closed **and** empty: the
    /// drain is complete and the worker may exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue mutex poisoned");
        }
    }

    /// Closes admission. Queued items stay poppable (the drain); wakes all
    /// waiting workers so they can observe the transition.
    pub fn close(&self) {
        self.inner.lock().expect("queue mutex poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Current depth — the live gauge behind the metrics snapshot.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").items.len()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn rejects_when_full_and_after_close() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.len(), 2);
        q.close();
        assert!(matches!(q.try_push(4), Err(PushError::Closed(4))));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let q = BoundedQueue::new(0);
        assert!(matches!(q.try_push(1), Err(PushError::Full(1))));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn drain_pops_queued_items_then_reports_drained() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        // Drained is sticky.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_wakes_a_blocked_popper() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(99).unwrap();
        assert_eq!(h.join().unwrap(), Some(99));
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q: Arc<BoundedQueue<u8>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
