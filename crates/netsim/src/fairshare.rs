//! Binary heap of links keyed by fair share.
//!
//! The progressive-filling loop of the max–min engine repeatedly needs the
//! link with the **smallest fair share** (`capacity / unfixed flow count`)
//! among the links that still carry unfixed flows. The seed engine
//! (`crate::baseline`) finds that link with a linear scan over every
//! touched link per bottleneck round, an O(touched²) inner loop per
//! rebalance. [`FairShareQueue`] answers the same question from a
//! [`BinaryHeap`] in O(log n) per update.
//!
//! The one property the fill needs from the queue is **exact `(share, link)`
//! minima**: the popped link has the smallest current share, and equal shares
//! resolve to the **lowest link index**, the link a linear scan's
//! `(share, link)` minimum selects. That makes the whole fill a pure function
//! of the active flow set: no matter in which order a rebalance seeds the
//! links, equal inputs produce bit-identical rates. Dirty-component flushes
//! depend on that — a flush re-seeds a component from its own flow list, and
//! a component whose flow set did not change must re-derive exactly the rates
//! it already has.
//!
//! Entries are `(share bits, link)` pairs. Shares are non-negative and finite,
//! so their IEEE-754 bit patterns order like the shares themselves. A per-link
//! array holds each queued link's live key; [`FairShareQueue::set`] pushes a
//! fresh entry and leaves the old one in the heap, and
//! [`FairShareQueue::pop_min`] drops entries whose key no longer matches the
//! live one (lazy deletion).
//!
//! The queue lives in the flush's fill scratch and is reused across fills:
//! [`FairShareQueue::clear`] keeps both allocations, so no allocation happens
//! after the first fills at a given scale.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Live key of a link that is not queued: a NaN pattern, which no share has.
const NOT_QUEUED: u64 = u64::MAX;

/// Min-heap of links keyed by fair share. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct FairShareQueue {
    /// Live key (share bits) per link, or [`NOT_QUEUED`]. While a link is
    /// queued, the heap holds an entry carrying its live key.
    key: Vec<u64>,
    /// `(share bits, link)` entries; one is stale once its key differs from
    /// the link's live key.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl FairShareQueue {
    /// Heap bytes held by this queue's tables (for the flush-scratch
    /// accounting in `Network::memory_footprint`).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.key.capacity() * size_of::<u64>()
            + self.heap.capacity() * size_of::<Reverse<(u64, u32)>>()
    }

    /// Grow the per-link table to cover `n` links (no-op once sized).
    pub(crate) fn ensure_links(&mut self, n: usize) {
        if self.key.len() < n {
            self.key.resize(n, NOT_QUEUED);
        }
    }

    /// Seed the queue with the fair share (`capacity / unfixed`) of every
    /// link in `links` that still carries unfixed flows. The per-link arrays
    /// are indexed like `Platform::links`; links with no unfixed flows are
    /// skipped. This is how a rebalance hands the queue a *subset* of the
    /// platform — the full touched set for a global recompute, or just one
    /// dirty component's links for a component-limited one.
    pub(crate) fn seed(&mut self, links: &[usize], capacity: &[f64], unfixed: &[u32]) {
        self.ensure_links(capacity.len());
        self.clear();
        for &l in links {
            let n = unfixed[l];
            if n > 0 {
                self.set(l, capacity[l] / n as f64);
            }
        }
    }

    /// Number of live links queued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.key.iter().filter(|&&k| k != NOT_QUEUED).count()
    }

    /// Forget every entry, in time proportional to the entries held. Every
    /// queued link has an entry, so unqueueing the link of each entry resets
    /// the whole per-link table.
    pub(crate) fn clear(&mut self) {
        for &Reverse((_, l)) in self.heap.iter() {
            self.key[l as usize] = NOT_QUEUED;
        }
        self.heap.clear();
    }

    /// Insert `link` or update its share. Keys are the non-negative, finite
    /// fair share in bytes/s; updates supersede earlier entries lazily.
    pub(crate) fn set(&mut self, link: usize, share: f64) {
        debug_assert!(
            share.is_sign_positive() && share.is_finite(),
            "share {share} out of domain"
        );
        let bits = share.to_bits();
        // An unchanged live key already has its entry.
        if self.key[link] != bits {
            self.key[link] = bits;
            self.heap.push(Reverse((bits, link as u32)));
        }
    }

    /// Drop `link` from the queue (its unfixed count reached zero). The
    /// stored entry is discarded lazily.
    pub(crate) fn remove(&mut self, link: usize) {
        self.key[link] = NOT_QUEUED;
    }

    /// Pop the link with the smallest current share. Exact, including ties:
    /// equal shares resolve to the lowest link index, so the fill is
    /// independent of the order the links were seeded in.
    pub(crate) fn pop_min(&mut self) -> Option<(usize, f64)> {
        while let Some(Reverse((bits, link))) = self.heap.pop() {
            let l = link as usize;
            if self.key[l] == bits {
                self.key[l] = NOT_QUEUED;
                return Some((l, f64::from_bits(bits)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(q: &mut FairShareQueue) -> Vec<(usize, f64)> {
        let mut out = vec![];
        while let Some(x) = q.pop_min() {
            out.push(x);
        }
        out
    }

    #[test]
    fn pops_in_nondecreasing_share_order() {
        let mut q = FairShareQueue::default();
        q.ensure_links(8);
        let shares = [125e6, 3.2e3, 9.9e8, 0.5, 77.0, 1.25e7, 3.1e3, 42.0];
        for (l, &s) in shares.iter().enumerate() {
            q.set(l, s);
        }
        assert_eq!(q.len(), 8);
        let popped = drain(&mut q);
        assert_eq!(popped.len(), 8);
        let keys: Vec<f64> = popped.iter().map(|&(_, s)| s).collect();
        let mut sorted = keys.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(keys, sorted, "pops must come out in share order");
        assert_eq!(popped[0], (3, 0.5));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn updates_supersede_earlier_entries() {
        let mut q = FairShareQueue::default();
        q.ensure_links(4);
        q.set(0, 10.0);
        q.set(1, 20.0);
        // Move link 0 up past link 1, then nudge it by a small step.
        q.set(0, 30.0);
        q.set(0, 30.5);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_min(), Some((1, 20.0)));
        assert_eq!(q.pop_min(), Some((0, 30.5)));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn removed_links_never_pop() {
        let mut q = FairShareQueue::default();
        q.ensure_links(3);
        q.set(0, 1.0);
        q.set(1, 2.0);
        q.set(2, 3.0);
        q.remove(1);
        q.remove(1); // idempotent
        let popped = drain(&mut q);
        assert_eq!(
            popped.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn shares_a_hair_apart_pop_in_exact_order() {
        let mut q = FairShareQueue::default();
        let n = 96;
        q.ensure_links(n);
        // Shares within 0.01% of each other, as the equal access links of a
        // star produce, still pop in exact share order.
        for l in 0..n {
            q.set(l, 1.0e6 + l as f64);
        }
        let popped = drain(&mut q);
        assert_eq!(popped.len(), n);
        for (i, &(l, s)) in popped.iter().enumerate() {
            assert_eq!(l, i, "exact min order among close shares");
            assert_eq!(s, 1.0e6 + i as f64);
        }
    }

    #[test]
    fn updates_and_inserts_between_pops_stay_exact() {
        let mut q = FairShareQueue::default();
        let n = 48;
        q.ensure_links(n + 1);
        for l in 0..n {
            q.set(l, 5.0e8 + l as f64);
        }
        // Pop a few, then raise a queued link and insert a fresh one below
        // every share popped so far.
        assert_eq!(q.pop_min(), Some((0, 5.0e8)));
        assert_eq!(q.pop_min(), Some((1, 5.0e8 + 1.0)));
        q.set(7, 5.0e8 + 1000.0);
        q.set(n, 1.0);
        assert_eq!(q.pop_min(), Some((n, 1.0)));
        assert_eq!(q.pop_min(), Some((2, 5.0e8 + 2.0)));
        // Link 7 pops at its updated key, after its old neighbours.
        let rest = drain(&mut q);
        let pos7 = rest.iter().position(|&(l, _)| l == 7).unwrap();
        assert_eq!(rest[pos7].1, 5.0e8 + 1000.0);
        assert_eq!(pos7, rest.len() - 1, "the raised link pops last");
        assert!(
            !rest.iter().take(pos7).any(|&(l, _)| l == 7),
            "no stale pop"
        );
    }

    #[test]
    fn clear_resets_cheaply_and_queue_is_reusable() {
        let mut q = FairShareQueue::default();
        q.ensure_links(64);
        for l in 0..64 {
            q.set(l, (l + 1) as f64 * 1e5);
        }
        for _ in 0..10 {
            q.pop_min();
        }
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop_min(), None);
        q.set(3, 9.0);
        q.set(5, 4.0);
        assert_eq!(q.pop_min(), Some((5, 4.0)));
        assert_eq!(q.pop_min(), Some((3, 9.0)));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn zero_shares_are_representable() {
        let mut q = FairShareQueue::default();
        q.ensure_links(2);
        q.set(0, 0.0);
        q.set(1, 1e9);
        assert_eq!(q.pop_min(), Some((0, 0.0)));
        assert_eq!(q.pop_min(), Some((1, 1e9)));
    }

    #[test]
    fn equal_shares_pop_lowest_link_first() {
        let mut q = FairShareQueue::default();
        q.ensure_links(12);
        // A fixed shuffle of the links, two share levels interleaved.
        for l in [7, 2, 11, 0, 9, 4, 5, 10, 1, 8, 3, 6] {
            q.set(l, if l % 2 == 0 { 2.5e6 } else { 1.25e6 });
        }
        let popped = drain(&mut q);
        let odd = (1..12).step_by(2).map(|l| (l, 1.25e6));
        let even = (0..12).step_by(2).map(|l| (l, 2.5e6));
        assert_eq!(popped, odd.chain(even).collect::<Vec<_>>());
    }

    /// One queue operation of the model test below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Set(usize, f64),
        Remove(usize),
        Pop,
        Clear,
    }

    const MODEL_LINKS: usize = 6;

    /// Few distinct shares, so ties, zero shares and a link returning to a
    /// key it held before are all common.
    fn op() -> impl Strategy<Value = Op> {
        let shares = vec![0.0, 1.0, 2.5, 2.5e6, 2.5e6 + 1.0, 1.0e9];
        (0u8..10, 0..MODEL_LINKS, prop::sample::select(shares)).prop_map(
            |(kind, l, s)| match kind {
                0..=4 => Op::Set(l, s),
                5 | 6 => Op::Remove(l),
                7 | 8 => Op::Pop,
                _ => Op::Clear,
            },
        )
    }

    proptest! {
        /// The queue pops exactly what a linear scan for the `(share bits,
        /// link)` minimum over the live keys selects.
        #[test]
        fn queue_matches_a_linear_scan_model(ops in prop::collection::vec(op(), 1..120)) {
            let mut q = FairShareQueue::default();
            q.ensure_links(MODEL_LINKS);
            let mut model: Vec<Option<u64>> = vec![None; MODEL_LINKS];
            for op in ops {
                match op {
                    Op::Set(l, s) => {
                        q.set(l, s);
                        model[l] = Some(s.to_bits());
                    }
                    Op::Remove(l) => {
                        q.remove(l);
                        model[l] = None;
                    }
                    Op::Pop => {
                        let want = (0..MODEL_LINKS)
                            .filter_map(|l| model[l].map(|k| (k, l)))
                            .min()
                            .map(|(k, l)| (l, f64::from_bits(k)));
                        prop_assert_eq!(q.pop_min(), want, "live keys {:?}", model);
                        if let Some((l, _)) = want {
                            model[l] = None;
                        }
                    }
                    Op::Clear => {
                        q.clear();
                        model.fill(None);
                    }
                }
                prop_assert_eq!(q.len(), model.iter().flatten().count());
            }
        }
    }
}
