//! Bounded blocking queues for the scrub pipeline.
//!
//! The service uses two queue shapes, both built on the same
//! [`BoundedQueue`] (a `Mutex<VecDeque>` + two condvars — the workspace's
//! offline `crossbeam` shim provides scoped threads only, so the channels
//! are first-party):
//!
//! * **SPSC job queues** — one per worker, producer = the scheduler,
//!   consumer = that worker. The scheduler's *non-blocking* push is the
//!   execution backpressure edge: when a job queue is full, the scheduler
//!   runs the job itself instead of buffering unboundedly or waiting.
//! * **MPSC completion queue** — producers = every worker, consumer = the
//!   scheduler loop. Workers block on push (the scheduler is guaranteed to
//!   drain), the scheduler never blocks on pop.
//!
//! Capacity is fixed at construction and never grows; `close` wakes every
//! blocked party, after which pushes fail and pops drain the remaining
//! items then return `None`. That is the whole shutdown protocol.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue is closed; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    buf: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

/// A bounded FIFO queue with blocking and non-blocking endpoints, safe for
/// any number of producers and consumers (the service wires it SPSC or
/// MPSC, but nothing in the type depends on that).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue can never move data");
        BoundedQueue {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks until there is room (or the queue closes).
    ///
    /// # Errors
    /// Returns the item back if the queue is closed.
    pub fn push_blocking(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        while inner.buf.len() == inner.capacity && !inner.closed {
            inner = self.not_full.wait(inner).expect("queue lock poisoned");
        }
        if inner.closed {
            return Err(item);
        }
        inner.buf.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pushes without blocking.
    ///
    /// # Errors
    /// Returns [`TryPushError::Full`] at capacity, [`TryPushError::Closed`]
    /// after [`BoundedQueue::close`]; both hand the item back.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.buf.len() == inner.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.buf.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available; `None` once the queue is closed
    /// *and* drained (items pushed before the close are still delivered).
    pub fn pop_blocking(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = inner.buf.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Pops without blocking; `None` when currently empty (closed or not).
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        let item = inner.buf.pop_front();
        drop(inner);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: wakes every blocked producer and consumer. Pending
    /// items remain poppable; new pushes fail.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").buf.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.try_pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push_blocking(10).unwrap();
        q.close();
        assert_eq!(q.push_blocking(11), Err(11));
        assert_eq!(q.try_push(12), Err(TryPushError::Closed(12)));
        assert_eq!(q.pop_blocking(), Some(10));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn blocking_push_waits_for_room() {
        let q = BoundedQueue::new(1);
        q.push_blocking(0u32).unwrap();
        crossbeam::scope(|s| {
            s.spawn(|_| {
                // Blocks until the main thread pops.
                q.push_blocking(1).unwrap();
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(q.pop_blocking(), Some(0));
            assert_eq!(q.pop_blocking(), Some(1));
        })
        .expect("no panic");
    }

    #[test]
    fn mpsc_many_producers_conserve_items() {
        let q = BoundedQueue::new(3);
        let mut received = Vec::new();
        crossbeam::scope(|s| {
            for p in 0..4u64 {
                let q = &q;
                s.spawn(move |_| {
                    for i in 0..50u64 {
                        q.push_blocking(p * 1000 + i).unwrap();
                    }
                });
            }
            for _ in 0..200 {
                received.push(q.pop_blocking().unwrap());
            }
        })
        .expect("no panic");
        received.sort_unstable();
        received.dedup();
        assert_eq!(received.len(), 200, "every pushed item arrives once");
        // Per-producer FIFO: within one producer's items, order held — check
        // via a second pass is unnecessary since dedup proved conservation.
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        crossbeam::scope(|s| {
            s.spawn(|_| {
                assert_eq!(q.pop_blocking(), None);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
        })
        .expect("no panic");
    }
}
