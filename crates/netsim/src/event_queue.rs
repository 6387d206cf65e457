//! Binary min-heap event queue over `(time, key)` pairs, the scheduler
//! shared by the packet-level DES ([`crate::simulate`]) and the serving
//! simulator in `pim_core`.
//!
//! Events dequeue in exactly ascending `(time, key)` order: time first,
//! then the caller's packed secondary key, so ties on time are broken
//! deterministically. Each event is stored as one `u128` with the time
//! in the high half, whose integer order is the `(time, key)` order, so
//! a heap comparison is a single integer compare. There is no per-event
//! allocation, and [`EventQueue::clear`] keeps the heap's capacity so
//! one queue can be reused across sweep cells without reallocating.
//!
//! # Examples
//!
//! ```
//! use netsim::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.push(30, 1);
//! q.push(10, 2);
//! q.push(10, 1);
//! assert_eq!(q.peek(), Some((10, 1)));
//! assert_eq!(q.pop(), Some((10, 1)));
//! assert_eq!(q.pop(), Some((10, 2)));
//! assert_eq!(q.pop(), Some((30, 1)));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-priority queue over `(time, key)` events.
///
/// Pops return events in ascending `(time, key)` order; duplicates are
/// allowed and all come out.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
}

/// Packs `(time, key)` so that integer order equals tuple order.
fn pack(time: u64, key: u64) -> u128 {
    (u128::from(time) << 64) | u128::from(key)
}

/// Inverse of [`pack`].
fn unpack(ev: u128) -> (u64, u64) {
    ((ev >> 64) as u64, ev as u64)
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Number of events stored.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every event but keeps the capacity, so the queue can be
    /// reused across runs without reallocating.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Inserts an event.
    pub fn push(&mut self, time: u64, key: u64) {
        self.heap.push(Reverse(pack(time, key)));
    }

    /// Removes and returns the minimum `(time, key)` event, or `None`
    /// when empty.
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(ev)| unpack(ev))
    }

    /// Returns the minimum `(time, key)` event without removing it, or
    /// `None` when empty: exactly the event the next [`pop`] returns.
    /// Lets a caller merge an external, already-sorted event stream
    /// against the queue without pushing it.
    ///
    /// [`pop`]: EventQueue::pop
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse(ev)| unpack(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference discipline: sort the events ascending by `(time, key)`.
    fn sorted(events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut out = events.to_vec();
        out.sort_unstable();
        out
    }

    fn queue_order(events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut q = EventQueue::new();
        for &(t, k) in events {
            q.push(t, k);
        }
        let out: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert!(q.is_empty());
        out
    }

    #[test]
    fn empty_pops_none() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn dequeues_in_time_then_key_order() {
        let events = [(5, 9), (1, 2), (5, 1), (0, 7), (100, 0), (1, 1)];
        assert_eq!(queue_order(&events), sorted(&events));
    }

    #[test]
    fn interleaved_push_pop_respects_order() {
        let mut q = EventQueue::new();
        q.push(10, 0);
        q.push(3, 1);
        assert_eq!(q.pop(), Some((3, 1)));
        // Push at the time of the last pop.
        q.push(3, 2);
        q.push(7, 0);
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((7, 0)));
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_resets_order() {
        let mut q = EventQueue::new();
        for t in 0..200 {
            q.push(t * 3, t);
        }
        q.clear();
        assert!(q.is_empty());
        q.push(5, 0);
        q.push(1, 0);
        assert_eq!(q.pop(), Some((1, 0)));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut q = EventQueue::new();
        for t in 0..1000 {
            q.push(t, t);
        }
        let cap = q.heap.capacity();
        assert!(cap >= 1000);
        q.clear();
        assert_eq!(q.heap.capacity(), cap);
        for t in 0..1000 {
            q.push(1000 - t, t);
        }
        assert_eq!(
            q.heap.capacity(),
            cap,
            "refilling a cleared queue must not grow it"
        );
    }

    #[test]
    fn peek_names_the_next_pop_without_removing_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        for (t, k) in [(9_000, 3), (12, 7), (9_000, 1), (500_000, 0)] {
            q.push(t, k);
        }
        assert_eq!(q.peek(), Some((12, 7)));
        assert_eq!(q.pop(), Some((12, 7)));
        assert_eq!(
            (q.peek(), q.peek(), q.len()),
            (Some((9_000, 1)), Some((9_000, 1)), 3)
        );
        // A push behind the last pop after a peek still surfaces first.
        q.push(5, 5);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, [(5, 5), (9_000, 1), (9_000, 3), (500_000, 0)]);
    }

    #[test]
    fn extreme_times_and_keys_keep_tuple_order() {
        // A key never spills into the time half of the packed event.
        let events = [
            (u64::MAX, u64::MAX),
            (1, 0),
            (0, u64::MAX),
            (u64::MAX, 0),
            (0, 0),
            (1 << 63, 1 << 63),
        ];
        assert_eq!(queue_order(&events), sorted(&events));
    }

    #[test]
    fn duplicate_times_and_keys_all_come_out() {
        let events = [(4, 4); 10];
        assert_eq!(queue_order(&events), vec![(4, 4); 10]);
    }
}
