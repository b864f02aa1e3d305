//! Color-class buckets for the reductions' deciding classes.
//!
//! Every reduction round recolors one class — the vertices (or edge
//! agents) whose color, or whose color's position within its palette
//! block, equals that round's key — and a recolored agent lands in a
//! class no later round of the same cascade or phase visits. An index
//! built once therefore stays exact, and a round visits its deciders in
//! O(|class|) instead of scanning every agent.

use std::ops::Range;

/// Agents bucketed by key, in ascending agent order within a bucket.
/// `take(k)` drains a class in O(|class|).
pub(crate) struct ClassIndex {
    /// Smallest key with a bucket.
    first: u64,
    /// `buckets[k - first]`: the agents keyed `k`.
    buckets: Vec<Vec<u32>>,
}

impl ClassIndex {
    /// Buckets agent `i` under `keys[i]` when that key lies in `classes`;
    /// agents keyed outside the range never decide and are left out.
    pub(crate) fn build(keys: impl Iterator<Item = u64>, classes: Range<u64>) -> Self {
        // lint: allow(cast, "the key range spans palette classes of an in-memory agent set, which fits usize")
        let mut buckets = vec![Vec::new(); classes.end.saturating_sub(classes.start) as usize];
        for (i, k) in keys.enumerate() {
            if classes.contains(&k) {
                // lint: allow(cast, "k - start is below the bucket count, and agent indices fit u32 workspace-wide (the CSR stores them as u32)")
                buckets[(k - classes.start) as usize].push(i as u32);
            }
        }
        ClassIndex {
            first: classes.start,
            buckets,
        }
    }

    /// Removes and returns the agents keyed `key` (empty when `key` is
    /// outside the built range or already taken).
    #[inline]
    pub(crate) fn take(&mut self, key: u64) -> Vec<u32> {
        key.checked_sub(self.first)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| self.buckets.get_mut(i))
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_only_the_requested_range_in_agent_order() {
        let keys = [5u64, 1, 3, 5, 9, 3];
        let mut idx = ClassIndex::build(keys.iter().copied(), 3..6);
        assert_eq!(idx.take(5), vec![0, 3]);
        assert_eq!(idx.take(5), Vec::<u32>::new(), "a class drains once");
        assert_eq!(idx.take(3), vec![2, 5]);
        assert_eq!(idx.take(1), Vec::<u32>::new(), "below the range");
        assert_eq!(idx.take(9), Vec::<u32>::new(), "above the range");
        assert_eq!(idx.take(4), Vec::<u32>::new());
    }
}
