//! The batch inbox: an unbounded multi-producer FIFO that moves
//! [`crate::Frame`]s between the threads of one process — other PEs and
//! the comm thread into a PE, the socket reader threads into the comm
//! thread.
//!
//! It is a mutexed deque with its length mirrored in an atomic, and not
//! `std::sync::mpsc`, for two operations std lacks. [`Receiver::is_empty`]
//! is one atomic load, so an idle PE pump probes its inbox without a
//! lock; and [`Receiver::try_recv_batch`] moves a whole burst out under
//! one lock acquisition.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct Inner<T> {
    q: Mutex<VecDeque<T>>,
    /// Queue length mirrored outside the lock so an emptiness probe is a
    /// single atomic load. Updated only while the lock is held; a probe
    /// that races a send may read the old length, so callers treat it as
    /// advisory (every sender wakes its receiver *after* the send, so a
    /// stale "empty" is always followed by a wake).
    len: AtomicUsize,
}

/// Sending half; cloneable (multi-producer).
pub struct Sender<T>(Arc<Inner<T>>);

/// Receiving half.
pub struct Receiver<T>(Arc<Inner<T>>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(self.0.clone())
    }
}

/// An unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        q: Mutex::new(VecDeque::new()),
        len: AtomicUsize::new(0),
    });
    (Sender(inner.clone()), Receiver(inner))
}

impl<T> Inner<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks. The queue lives as long as either
    /// half, so a send cannot fail.
    pub fn send(&self, value: T) {
        let mut q = self.0.lock();
        q.push_back(value);
        self.0.len.store(q.len(), Ordering::SeqCst);
    }
}

impl<T> Receiver<T> {
    /// Dequeue one value if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        let mut q = self.0.lock();
        let v = q.pop_front();
        self.0.len.store(q.len(), Ordering::SeqCst);
        v
    }

    /// Dequeue up to `max` values into `out` under one lock acquisition,
    /// returning how many were moved.
    pub fn try_recv_batch(&self, out: &mut VecDeque<T>, max: usize) -> usize {
        let mut q = self.0.lock();
        let n = max.min(q.len());
        if n == q.len() {
            // Common case: take the whole queue without popping.
            out.append(&mut q);
        } else {
            out.extend(q.drain(..n));
        }
        self.0.len.store(q.len(), Ordering::SeqCst);
        n
    }

    /// Whether the queue is currently empty (lock-free probe; see the
    /// note on `Inner::len`).
    pub fn is_empty(&self) -> bool {
        self.0.len.load(Ordering::SeqCst) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_clone() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1);
        tx2.send(2);
        assert!(!rx.is_empty());
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn batch_drain() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i);
        }
        let mut out = VecDeque::new();
        assert_eq!(rx.try_recv_batch(&mut out, 3), 3);
        assert_eq!(out, [0, 1, 2]);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 2);
        assert_eq!(out, [0, 1, 2, 3, 4]);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 0);
    }
}
