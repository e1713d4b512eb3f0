//! A bounded, ring-buffered history: the most recent `capacity` items
//! plus a lifetime count.
//!
//! The workspace observes a flight through three bounded histories, and
//! all three are this one type: the crashed machine's last instructions
//! (`avr_sim::Trace`, read by forensics), the flight recorder's events
//! ([`crate::RingRecorder`]) and the ground station's MAVLink scroll-back
//! (`mavlink_lite::GroundStation`). Long campaigns run hundreds of boards
//! for billions of cycles, so each keeps only its tail while counting
//! every push, and rates and totals stay exact after old items fall off
//! the front.

use std::collections::VecDeque;
use std::ops::Index;

/// Default depth: a ground-station session's scroll-back, and the most a
/// ring reserves up front whatever its capacity.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A fixed-capacity ring of the most recent items plus a lifetime counter.
///
/// The read API mirrors the slice of `Vec` the rest of the workspace uses
/// (`len`, `iter`, `last`, indexing), so below its capacity a history
/// reads like the `Vec` of everything pushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History<T> {
    items: VecDeque<T>,
    capacity: usize,
    total: u64,
}

impl<T> Default for History<T> {
    fn default() -> Self {
        History::with_capacity(DEFAULT_CAPACITY)
    }
}

impl<T> History<T> {
    /// A ring retaining the latest `capacity` items (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        History {
            items: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity,
            total: 0,
        }
    }

    /// Append an item, evicting the oldest once at capacity.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
        self.total += 1;
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Lifetime count of items pushed, including evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Items that fell off the front of the ring.
    pub fn evicted(&self) -> u64 {
        self.total - self.items.len() as u64
    }

    /// Maximum number of retained items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate retained items, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        self.items.iter()
    }

    /// The most recent item.
    pub fn last(&self) -> Option<&T> {
        self.items.back()
    }

    /// Retained item by position (0 = oldest retained).
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.items.get(idx)
    }
}

impl<T> Index<usize> for History<T> {
    type Output = T;
    fn index(&self, idx: usize) -> &T {
        &self.items[idx]
    }
}

impl<'a, T> IntoIterator for &'a History<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_with_exact_totals() {
        let mut h: History<u32> = History::with_capacity(3);
        for i in 0..10 {
            h.push(i);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.total(), 10);
        assert_eq!(h.evicted(), 7);
        assert_eq!(h.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(h.last(), Some(&9));
        assert_eq!(h[0], 7);
        assert_eq!(h.get(3), None);
    }

    #[test]
    fn behaves_like_vec_below_capacity() {
        let mut h: History<u8> = History::default();
        assert!(h.is_empty());
        h.push(1);
        h.push(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.total(), 2);
        assert_eq!(h.evicted(), 0);
        assert_eq!(h.iter().next_back(), Some(&2));
        assert_eq!((&h).into_iter().count(), 2);
    }

    #[test]
    fn eviction_is_strictly_fifo_and_totals_are_lifetime_exact() {
        let mut h: History<u64> = History::with_capacity(4);
        for n in 0..100u64 {
            h.push(n);
            // The retained window is exactly the trailing `min(n+1, cap)`
            // pushes, oldest first — eviction order is strictly FIFO.
            let start = (n + 1).saturating_sub(4);
            let expect: Vec<u64> = (start..=n).collect();
            assert_eq!(h.iter().copied().collect::<Vec<_>>(), expect);
            // Lifetime invariants hold after every push.
            assert_eq!(h.total(), n + 1);
            assert_eq!(h.total(), h.evicted() + h.len() as u64);
            assert_eq!(h.last(), Some(&n));
        }
        // Oldest-to-newest and newest-to-oldest traversals agree.
        let fwd: Vec<u64> = h.iter().copied().collect();
        let mut rev: Vec<u64> = h.iter().rev().copied().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut h: History<u8> = History::with_capacity(0);
        h.push(1);
        h.push(2);
        assert_eq!(h.capacity(), 1);
        assert_eq!(h.iter().copied().collect::<Vec<_>>(), vec![2]);
    }
}
