//! Monotone bucket queue over link fair shares.
//!
//! The progressive-filling loop of the max–min engine repeatedly needs the
//! link with the **smallest fair share** (`capacity / unfixed flow count`)
//! among the links that still carry unfixed flows. The seed engine
//! (`crate::baseline`) finds that link with a linear scan over every
//! touched link per bottleneck iteration, an O(touched²) inner loop per
//! rebalance. [`FairShareQueue`] replaces the scan with a priority structure
//! tailored to how progressive filling behaves:
//!
//! * **Shares only grow.** Fixing the flows of the current bottleneck at
//!   share `s` turns every other affected link's share `C/n` into
//!   `(C − k·s)/(n − k) ≥ s` (because `C/n ≥ s` when `s` is the minimum), so
//!   the sequence of popped keys is non-decreasing — a *monotone* priority
//!   queue. A cursor walks an array of buckets from low keys to high and
//!   (almost) never moves backwards; the one exception is floating-point
//!   cancellation nudging a recomputed share a hair below the popped one,
//!   which the cursor handles by stepping back.
//! * **Buckets are keyed by the quantised share** — the top 16 bits of the
//!   share's IEEE-754 representation (sign ∉, exponent + 4 mantissa bits),
//!   so one bucket spans a ≈6 % relative range and the whole positive f64
//!   range fits in 32 768 buckets. Occupancy is tracked in a two-level
//!   bitmap, making "next non-empty bucket" a handful of word operations.
//! * **Pops are exact, not approximate.** Within a bucket the queue compares
//!   the *authoritative* per-link keys, so the popped link is the true
//!   minimum — the filling fixes flows at exactly the share a linear scan
//!   would have chosen. Ties between equal shares resolve to the **lowest
//!   link index**, which makes the whole fill a pure function of the active
//!   flow set: no matter in which order a rebalance seeds the links, equal
//!   inputs produce bit-identical rates. Dirty-component flushes depend on
//!   that — a flush re-seeds a component from
//!   its own flow list rather than from the global active order, and a
//!   component whose flow set did not change must re-derive exactly the
//!   rates it already has.
//! * **Dense buckets fall back to a pairing heap.** Regular topologies
//!   (every access link of a star has the same capacity and similar flow
//!   counts) can land *all* their links in one bucket, which would turn the
//!   within-bucket scan back into the O(k²) behaviour this structure exists
//!   to remove. A bucket whose backlog exceeds [`DENSE_SPILL`] entries is
//!   converted into an arena-allocated pairing heap; stale heap entries
//!   (superseded by a later [`FairShareQueue::set`]) are discarded lazily at
//!   pop time, the classic lazy-deletion discipline.
//!
//! The queue is owned by `Network` and reused across rebalances: `clear` is
//! O(buckets actually used), and no allocation happens after the first
//! rebalance at a given scale. Every per-component fill task gets its *own*
//! queue (components share no links, so per-task queues see disjoint key
//! sets and pop exactly the subsequence of minima a combined fill would
//! have popped for those links); the bucket array itself is allocated
//! lazily on first insert, so the per-task copies — and the
//! queue of a `Bottleneck`-mode network, which never fills — cost nothing
//! until used.

/// Sentinel for "this link holds no live entry".
const NO_BUCKET: u32 = u32::MAX;
/// Sentinel for "no node" in the pairing-heap arena.
const NO_NODE: u32 = u32::MAX;
/// Number of quantised key buckets (covers every non-negative finite f64).
const BUCKET_COUNT: usize = 1 << 15;
/// Sparse-bucket backlog beyond which the bucket converts to a pairing heap.
const DENSE_SPILL: usize = 24;

/// Quantise a non-negative share to its bucket index: IEEE-754 exponent plus
/// the top 4 mantissa bits, i.e. buckets of ≈6 % relative width.
#[inline]
fn bucket_index(key_bits: u64) -> usize {
    (key_bits >> 48) as usize
}

/// One pairing-heap node: an insertion-time key snapshot and a link id.
/// Nodes live in a shared arena and are thrown away wholesale on `clear`.
#[derive(Debug, Clone, Copy)]
struct HeapNode {
    key: u64,
    link: u32,
    child: u32,
    sibling: u32,
}

/// Arena-backed pairing heap keyed by the IEEE-754 bit pattern of the share
/// (bit order equals numeric order for non-negative floats), with the link
/// index as the tie-break so equal shares pop lowest-link-first — the same
/// rule the linear-scan engine applies, and one that is independent of the
/// order the rebalance seeded the links in.
#[derive(Debug, Default)]
struct PairingArena {
    nodes: Vec<HeapNode>,
}

impl PairingArena {
    fn alloc(&mut self, key: u64, link: u32) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(HeapNode {
            key,
            link,
            child: NO_NODE,
            sibling: NO_NODE,
        });
        id
    }

    /// Meld two heaps; the smaller-keyed root adopts the other as a child.
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NO_NODE {
            return b;
        }
        if b == NO_NODE {
            return a;
        }
        let ka = (self.nodes[a as usize].key, self.nodes[a as usize].link);
        let kb = (self.nodes[b as usize].key, self.nodes[b as usize].link);
        let (parent, child) = if ka <= kb { (a, b) } else { (b, a) };
        self.nodes[child as usize].sibling = self.nodes[parent as usize].child;
        self.nodes[parent as usize].child = child;
        parent
    }

    /// Remove the root and two-pass-merge its children into a new heap.
    fn pop_root(&mut self, root: u32) -> u32 {
        let mut head = self.nodes[root as usize].child;
        // First pass: meld children pairwise left to right.
        let mut pairs: u32 = NO_NODE; // reversed list of melded pairs, linked via sibling
        while head != NO_NODE {
            let a = head;
            let b = self.nodes[a as usize].sibling;
            if b == NO_NODE {
                self.nodes[a as usize].sibling = pairs;
                pairs = a;
                break;
            }
            let next = self.nodes[b as usize].sibling;
            self.nodes[a as usize].sibling = NO_NODE;
            self.nodes[b as usize].sibling = NO_NODE;
            let m = self.meld(a, b);
            self.nodes[m as usize].sibling = pairs;
            pairs = m;
            head = next;
        }
        // Second pass: meld the pairs right to left (list is already reversed).
        let mut merged = NO_NODE;
        while pairs != NO_NODE {
            let next = self.nodes[pairs as usize].sibling;
            self.nodes[pairs as usize].sibling = NO_NODE;
            merged = self.meld(merged, pairs);
            pairs = next;
        }
        merged
    }
}

/// Per-bucket storage: a plain vector of link ids until the backlog spills,
/// a pairing heap afterwards (for the lifetime of the current rebalance).
#[derive(Debug, Clone)]
struct Bucket {
    /// Sparse entries (link ids); validity is judged against `bucket_of`.
    sparse: Vec<u32>,
    /// Pairing-heap root, or [`NO_NODE`] while the bucket is sparse.
    dense: u32,
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            sparse: Vec::new(),
            dense: NO_NODE,
        }
    }
}

/// Monotone bucket queue of links keyed by fair share. See the module docs.
#[derive(Debug)]
pub(crate) struct FairShareQueue {
    /// Authoritative key (share bits) per link; meaningful only when the
    /// link's `bucket_of` entry is live.
    key: Vec<u64>,
    /// Bucket currently holding each link's live entry, or [`NO_BUCKET`].
    bucket_of: Vec<u32>,
    buckets: Vec<Bucket>,
    /// Level-0 occupancy bitmap: one bit per bucket.
    occupied: Vec<u64>,
    /// Level-1 bitmap: one bit per `occupied` word.
    summary: Vec<u64>,
    /// Buckets dirtied since the last `clear` (bounds the reset cost).
    used: Vec<u32>,
    arena: PairingArena,
    /// Number of live links queued.
    len: usize,
    /// Lower bound on the minimum occupied bucket (the monotone cursor).
    first: usize,
}

impl Default for FairShareQueue {
    fn default() -> Self {
        FairShareQueue::new()
    }
}

impl FairShareQueue {
    /// An empty queue. The bucket array and its occupancy bitmaps (~1 MB)
    /// are allocated lazily on the first [`FairShareQueue::set`]: a
    /// `Network` owns one queue per fill claimer on top of its own — and
    /// one even in `Bottleneck` mode, where no fill ever runs — so queues
    /// that never see an entry must cost nothing.
    pub(crate) fn new() -> Self {
        FairShareQueue {
            key: Vec::new(),
            bucket_of: Vec::new(),
            buckets: Vec::new(),
            occupied: Vec::new(),
            summary: Vec::new(),
            used: Vec::new(),
            arena: PairingArena::default(),
            len: 0,
            first: BUCKET_COUNT,
        }
    }

    /// Allocate the bucket array and bitmaps on first use.
    fn ensure_buckets(&mut self) {
        if self.buckets.is_empty() {
            self.buckets = vec![Bucket::default(); BUCKET_COUNT];
            self.occupied = vec![0; BUCKET_COUNT / 64];
            self.summary = vec![0; BUCKET_COUNT / 64 / 64];
        }
    }

    /// Heap bytes held by this queue's tables (for the pool-scratch
    /// accounting in `Network::memory_footprint`).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.key.capacity() * size_of::<u64>()
            + self.bucket_of.capacity() * size_of::<u32>()
            + self.buckets.capacity() * size_of::<Bucket>()
            + self
                .buckets
                .iter()
                .map(|b| b.sparse.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.occupied.capacity() * size_of::<u64>()
            + self.summary.capacity() * size_of::<u64>()
            + self.used.capacity() * size_of::<u32>()
            + self.arena.nodes.capacity() * size_of::<HeapNode>()
    }

    /// Grow the per-link tables to cover `n` links (no-op once sized).
    pub(crate) fn ensure_links(&mut self, n: usize) {
        if self.key.len() < n {
            self.key.resize(n, 0);
            self.bucket_of.resize(n, NO_BUCKET);
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
        self.len
    }

    /// Forget every entry, in time proportional to the buckets actually used.
    pub(crate) fn clear(&mut self) {
        for &b in &self.used {
            let bucket = &mut self.buckets[b as usize];
            bucket.sparse.clear();
            bucket.dense = NO_NODE;
        }
        self.used.clear();
        self.occupied.fill(0);
        self.summary.fill(0);
        self.arena.nodes.clear();
        self.first = BUCKET_COUNT;
        if self.len != 0 {
            // A fill that ran to completion pops or removes every link; this
            // path only triggers if a caller abandoned a fill midway.
            self.bucket_of.fill(NO_BUCKET);
            self.len = 0;
        }
    }

    #[inline]
    fn mark_occupied(&mut self, b: usize) {
        let (w, bit) = (b / 64, 1u64 << (b % 64));
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.summary[w / 64] |= 1u64 << (w % 64);
        }
    }

    /// First occupied bucket at or after `from`, via the two-level bitmap.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= BUCKET_COUNT {
            return None;
        }
        let mut w = from / 64;
        // Tail of the starting word.
        let head = self.occupied[w] & (!0u64 << (from % 64));
        if head != 0 {
            return Some(w * 64 + head.trailing_zeros() as usize);
        }
        w += 1;
        // Jump over empty words via the summary bitmap.
        let mut s = w / 64;
        if s >= self.summary.len() {
            return None;
        }
        let mut sum = self.summary[s] & (!0u64 << (w % 64));
        loop {
            if sum != 0 {
                let word = s * 64 + sum.trailing_zeros() as usize;
                let bits = self.occupied[word];
                debug_assert_ne!(bits, 0, "summary bit set over an empty word");
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            s += 1;
            if s >= self.summary.len() {
                return None;
            }
            sum = self.summary[s];
        }
    }

    /// Insert `link` or update its share. Keys are the non-negative, finite
    /// fair share in bytes/s; updates supersede earlier entries lazily.
    pub(crate) fn set(&mut self, link: usize, share: f64) {
        debug_assert!(
            share >= 0.0 && share.is_finite(),
            "share {share} out of domain"
        );
        self.ensure_buckets();
        let bits = share.to_bits();
        let b = bucket_index(bits);
        let prev = self.bucket_of[link];
        if prev == b as u32 {
            if self.key[link] == bits {
                return;
            }
            self.key[link] = bits;
            // Same bucket, new key: sparse entries read the authoritative
            // key at pop time and need nothing; heap entries are ordered by
            // their snapshot, so push a fresh one and let the old go stale.
            let bucket = &mut self.buckets[b];
            if bucket.dense != NO_NODE {
                let node = self.arena.alloc(bits, link as u32);
                bucket.dense = self.arena.meld(bucket.dense, node);
            }
            return;
        }
        if prev == NO_BUCKET {
            self.len += 1;
        }
        self.key[link] = bits;
        self.bucket_of[link] = b as u32;
        let bucket = &mut self.buckets[b];
        if bucket.dense == NO_NODE && bucket.sparse.is_empty() {
            self.used.push(b as u32);
        }
        if bucket.dense != NO_NODE {
            let node = self.arena.alloc(bits, link as u32);
            bucket.dense = self.arena.meld(bucket.dense, node);
        } else {
            bucket.sparse.push(link as u32);
            if bucket.sparse.len() > DENSE_SPILL {
                self.densify(b);
            }
        }
        self.mark_occupied(b);
        if b < self.first {
            self.first = b;
        }
    }

    /// Drop `link` from the queue (its unfixed count reached zero). The
    /// stored entry is discarded lazily.
    pub(crate) fn remove(&mut self, link: usize) {
        if self.bucket_of[link] != NO_BUCKET {
            self.bucket_of[link] = NO_BUCKET;
            self.len -= 1;
        }
    }

    /// Convert a spilling sparse bucket into a pairing heap.
    fn densify(&mut self, b: usize) {
        let entries = std::mem::take(&mut self.buckets[b].sparse);
        let mut root = NO_NODE;
        for &l in &entries {
            if self.bucket_of[l as usize] == b as u32 {
                let node = self.arena.alloc(self.key[l as usize], l);
                root = self.arena.meld(root, node);
            }
        }
        self.buckets[b].sparse = entries; // keep the allocation
        self.buckets[b].sparse.clear();
        self.buckets[b].dense = root;
    }

    /// Pop the link with the smallest current share. Exact, including ties:
    /// equal shares resolve to the lowest link index — the same link a
    /// linear scan's `(share, link)` minimum selects — so the fill is
    /// independent of the order the links were seeded in.
    pub(crate) fn pop_min(&mut self) -> Option<(usize, f64)> {
        if self.len == 0 {
            return None;
        }
        let mut b = self.first;
        loop {
            b = self.next_occupied(b)?;
            self.first = b;
            if self.buckets[b].dense != NO_NODE {
                if let Some(hit) = self.pop_dense(b) {
                    return Some(hit);
                }
            } else if let Some(hit) = self.pop_sparse(b) {
                return Some(hit);
            }
            // Bucket exhausted (only stale entries): clear its bit and move on.
            let (w, bit) = (b / 64, 1u64 << (b % 64));
            self.occupied[w] &= !bit;
            if self.occupied[w] == 0 {
                self.summary[w / 64] &= !(1u64 << (w % 64));
            }
            b += 1;
        }
    }

    /// Extract the valid minimum of a sparse bucket, compacting stale
    /// entries in place. `None` means the bucket held nothing live.
    fn pop_sparse(&mut self, b: usize) -> Option<(usize, f64)> {
        let mut entries = std::mem::take(&mut self.buckets[b].sparse);
        let mut best: Option<(usize, u64, u32)> = None; // (position, key, link)
        let mut i = 0;
        while i < entries.len() {
            let l = entries[i] as usize;
            if self.bucket_of[l] != b as u32 {
                entries.swap_remove(i); // stale (moved, removed, or duplicate)
                continue;
            }
            let k = self.key[l];
            if best.is_none_or(|(_, bk, bl)| (k, l as u32) < (bk, bl)) {
                best = Some((i, k, l as u32));
            }
            i += 1;
        }
        let hit = best.map(|(pos, k, _)| {
            let l = entries.swap_remove(pos) as usize;
            self.bucket_of[l] = NO_BUCKET;
            self.len -= 1;
            (l, f64::from_bits(k))
        });
        self.buckets[b].sparse = entries;
        hit
    }

    /// Extract the valid minimum of a dense bucket, discarding stale heap
    /// entries lazily.
    fn pop_dense(&mut self, b: usize) -> Option<(usize, f64)> {
        let mut root = self.buckets[b].dense;
        let hit = loop {
            if root == NO_NODE {
                break None;
            }
            let node = self.arena.nodes[root as usize];
            root = self.arena.pop_root(root);
            let l = node.link as usize;
            if self.bucket_of[l] == b as u32 && self.key[l] == node.key {
                self.bucket_of[l] = NO_BUCKET;
                self.len -= 1;
                break Some((l, f64::from_bits(node.key)));
            }
        };
        self.buckets[b].dense = root;
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut FairShareQueue) -> Vec<(usize, f64)> {
        let mut out = vec![];
        while let Some(x) = q.pop_min() {
            out.push(x);
        }
        out
    }

    #[test]
    fn pops_in_nondecreasing_share_order() {
        let mut q = FairShareQueue::new();
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
        let mut q = FairShareQueue::new();
        q.ensure_links(4);
        q.set(0, 10.0);
        q.set(1, 20.0);
        // Move link 0 up past link 1 (two bucket hops), then nudge it within
        // its final bucket (same-bucket key update).
        q.set(0, 30.0);
        q.set(0, 30.5);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_min(), Some((1, 20.0)));
        assert_eq!(q.pop_min(), Some((0, 30.5)));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn removed_links_never_pop() {
        let mut q = FairShareQueue::new();
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
    fn dense_buckets_spill_into_the_pairing_heap() {
        let mut q = FairShareQueue::new();
        let n = 4 * DENSE_SPILL;
        q.ensure_links(n);
        // All shares within one ≈6% bucket: identical exponent + top mantissa
        // bits. Base 1.0e6 with sub-per-mill spreads stays in one bucket.
        for l in 0..n {
            q.set(l, 1.0e6 + l as f64);
        }
        let popped = drain(&mut q);
        assert_eq!(popped.len(), n);
        for (i, &(l, s)) in popped.iter().enumerate() {
            assert_eq!(l, i, "exact min order inside a dense bucket");
            assert_eq!(s, 1.0e6 + i as f64);
        }
    }

    #[test]
    fn interleaved_updates_during_dense_pops_stay_exact() {
        let mut q = FairShareQueue::new();
        let n = 2 * DENSE_SPILL;
        q.ensure_links(n + 1);
        for l in 0..n {
            q.set(l, 5.0e8 + l as f64);
        }
        // Pop a few, then update a queued link within the same bucket and
        // insert a fresh one below everything.
        assert_eq!(q.pop_min(), Some((0, 5.0e8)));
        assert_eq!(q.pop_min(), Some((1, 5.0e8 + 1.0)));
        q.set(7, 5.0e8 + 1000.0);
        q.set(n, 1.0); // below the cursor: the queue must step back
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
        let mut q = FairShareQueue::new();
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
        let mut q = FairShareQueue::new();
        q.ensure_links(2);
        q.set(0, 0.0);
        q.set(1, 1e9);
        assert_eq!(q.pop_min(), Some((0, 0.0)));
        assert_eq!(q.pop_min(), Some((1, 1e9)));
    }
}
