//! Discrete-event scheduling core.
//!
//! The simulator is organised as a *world* (all mutable simulation state:
//! network flows, overlay nodes, replaying processes, …) plus a [`Scheduler`]
//! holding the pending events of that world. Keeping the two separate avoids
//! borrow conflicts: a world handler receives `&mut self` and `&mut
//! Scheduler<E>` and can freely schedule follow-up events while mutating its
//! own state.
//!
//! Events with equal timestamps are delivered in scheduling order (FIFO), so a
//! simulation is a deterministic function of its inputs. The network layer
//! leans on that guarantee for its batched rebalances: a sentinel scheduled
//! *at the current instant* is delivered after every event of the same
//! instant that was already pending, which is exactly the point at which the
//! whole batch can be processed at once.
//!
//! # Memory-lean storage: arena + calendar queue
//!
//! Events are kept once, in a typed arena (`slots` + free list), and every
//! ordering structure holds only 24-byte `(time, seq, slot)` records. The
//! records are organised in three tiers, totally ordered by `(time, seq)`:
//!
//! 1. **`cur`** — the sorted run currently being drained (one promoted
//!    calendar bucket, plus any entry scheduled below the run's ceiling,
//!    inserted in place to preserve FIFO order).
//! 2. **`buckets`** — a calendar-queue window of `NUM_BUCKETS` buckets of
//!    width `width` starting at `base`. Scheduling into the window is an
//!    O(1) push; a bucket is sorted only when it is promoted to `cur`. This
//!    is the completion-heavy fast path: no per-event heap sift, and the
//!    sort touches a small, cache-resident chunk.
//! 3. **`far`** — a binary min-heap for everything beyond the window (and
//!    the *sparse-horizon fallback*: while fewer than `CALENDAR_MIN`
//!    records are pending, the calendar is bypassed entirely and events pop
//!    in plain heap order, so tiny simulations never pay for bucketing).
//!
//! When the window drains, a new one is built from `far`: the next
//! `WINDOW_TARGET` records (by order statistic, robust against far-future
//! outliers such as ETA-capped bottleneck completions) choose the span, the
//! width is `span / NUM_BUCKETS`, and the in-window records are scattered in
//! O(n). Pop order is the pure `(time, seq)` minimum across the tiers, so
//! the structure is observably identical to the plain `BinaryHeap` it
//! replaced — the differential suites hold verbatim.

use p2p_common::{SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BinaryHeap;

/// Number of buckets in one calendar window.
const NUM_BUCKETS: usize = 256;
/// Below this many pending records the calendar is bypassed and `far` serves
/// pops directly (heap order for sparse horizons).
const CALENDAR_MIN: usize = 512;
/// Records a window rebuild aims to ingest; bounds both bucket occupancy
/// (`WINDOW_TARGET / NUM_BUCKETS` on average) and rebuild frequency.
const WINDOW_TARGET: usize = 64 * 1024;

/// A 24-byte ordering record: where an event sits in time and in the arena.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Rec {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Rec {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// `Rec` wrapper giving `BinaryHeap` (a max-heap) min-heap behaviour.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FarRec(Rec);

impl PartialOrd for FarRec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarRec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// The pending-event queue and simulated clock of one simulation.
///
/// ```
/// use netsim::Scheduler;
/// use p2p_common::{SimDuration, SimTime};
///
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_at(SimTime::from_millis(20), "late");
/// sched.schedule_in(SimDuration::from_millis(10), "early");
/// sched.schedule_at(SimTime::from_millis(20), "late-but-fifo-second");
///
/// // Events pop in (time, scheduling order); the clock follows them.
/// assert_eq!(sched.pop(), Some((SimTime::from_millis(10), "early")));
/// assert_eq!(sched.pop(), Some((SimTime::from_millis(20), "late")));
/// assert_eq!(sched.pop(), Some((SimTime::from_millis(20), "late-but-fifo-second")));
/// assert_eq!(sched.now(), SimTime::from_millis(20));
/// assert!(sched.is_empty());
/// ```
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    delivered: u64,
    /// Pending entries known to be stale (their producer superseded them).
    /// Maintained by producers through [`Scheduler::mark_dead`] /
    /// [`Scheduler::resolve_dead`]; makes the queue's live/dead ratio
    /// observable so callers can decide when to [`Scheduler::compact_pending`]
    /// (the netsim `Network` does so automatically, driven by its
    /// `CompactionPolicy`).
    dead: u64,
    /// Number of [`Scheduler::compact_pending`] passes run.
    compactions: u64,
    /// Total entries removed by those passes.
    compacted_entries: u64,

    // --- typed arena: events live here exactly once ---
    slots: Vec<Option<E>>,
    free: Vec<u32>,

    // --- tier 1: the sorted run being drained ---
    cur: Vec<Rec>,
    cur_pos: usize,
    /// Exclusive upper bound of `cur`: a new entry with `time < cur_ceiling`
    /// is insert-sorted into the run (preserving FIFO among equal times).
    /// `SimTime::ZERO` doubles as the "no run" sentinel — no schedulable
    /// time is below zero, so the collision is harmless.
    cur_ceiling: SimTime,

    // --- tier 2: the calendar window ---
    buckets: Vec<Vec<Rec>>,
    base: SimTime,
    /// Bucket width in nanoseconds; `0` means the window is inactive.
    width: u64,
    /// Exclusive end of the window (`base + NUM_BUCKETS * width`, clamped).
    window_end: SimTime,
    /// First bucket not yet promoted to `cur`.
    next_bucket: usize,
    /// Total records currently sitting in `buckets`.
    in_buckets: usize,

    // --- tier 3: beyond the window / sparse fallback ---
    far: BinaryHeap<FarRec>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            dead: 0,
            compactions: 0,
            compacted_entries: 0,
            slots: Vec::new(),
            free: Vec::new(),
            cur: Vec::new(),
            cur_pos: 0,
            cur_ceiling: SimTime::ZERO,
            buckets: Vec::new(),
            base: SimTime::ZERO,
            width: 0,
            window_end: SimTime::ZERO,
            next_bucket: 0,
            in_buckets: 0,
            far: BinaryHeap::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn pending(&self) -> usize {
        (self.cur.len() - self.cur_pos) + self.in_buckets + self.far.len()
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// True if no event is pending.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    fn alloc(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(event);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(event));
                i
            }
        }
    }

    fn release(&mut self, slot: u32) -> E {
        let e = self.slots[slot as usize]
            .take()
            .expect("arena slot double-freed");
        self.free.push(slot);
        e
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics (it would silently reorder causality otherwise).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({} < {})",
            at,
            self.now
        );
        let rec = Rec {
            time: at,
            seq: self.seq,
            slot: self.alloc(event),
        };
        self.seq += 1;
        if at < self.cur_ceiling {
            // Belongs to the run being drained: insert in (time, seq) position
            // among the not-yet-popped suffix. `seq` is larger than every
            // pending record's, so FIFO among equal timestamps is preserved.
            let pos =
                self.cur_pos + self.cur[self.cur_pos..].partition_point(|r| r.key() < rec.key());
            self.cur.insert(pos, rec);
        } else if self.width > 0 && at < self.window_end {
            let b = self.bucket_of(at);
            self.buckets[b].push(rec);
            self.in_buckets += 1;
        } else {
            self.far.push(FarRec(rec));
        }
        self.settle();
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    #[inline]
    fn bucket_of(&self, t: SimTime) -> usize {
        // The window end is clamped at u64::MAX, so the division can nominally
        // land past the last bucket; clamping keeps the record inside the
        // window (bucket ranges only need `start <= every member`, which the
        // floor division guarantees).
        (((t.as_nanos() - self.base.as_nanos()) / self.width) as usize).min(NUM_BUCKETS - 1)
    }

    /// Establish the invariant behind O(1) [`Scheduler::peek_time`]: whenever
    /// anything is pending, `cur[cur_pos]` is the global (time, seq) minimum.
    fn settle(&mut self) {
        loop {
            if self.cur_pos < self.cur.len() {
                return;
            }
            self.cur.clear();
            self.cur_pos = 0;
            if self.in_buckets > 0 {
                self.promote_next_bucket();
                continue;
            }
            // Window fully drained: deactivate it.
            self.width = 0;
            self.window_end = SimTime::ZERO;
            self.next_bucket = 0;
            self.cur_ceiling = SimTime::ZERO;
            if self.far.is_empty() {
                return;
            }
            if self.far.len() >= CALENDAR_MIN {
                self.rebuild_window();
                continue;
            }
            // Sparse horizon: plain heap order, one record at a time.
            let rec = self.far.pop().expect("checked non-empty").0;
            self.cur_ceiling = rec.time;
            self.cur.push(rec);
            return;
        }
    }

    fn promote_next_bucket(&mut self) {
        let b = (self.next_bucket..NUM_BUCKETS)
            .find(|&b| !self.buckets[b].is_empty())
            .expect("in_buckets > 0 implies a non-empty bucket");
        std::mem::swap(&mut self.cur, &mut self.buckets[b]);
        self.in_buckets -= self.cur.len();
        // seq is unique, so the unstable sort is deterministic.
        self.cur.sort_unstable_by_key(Rec::key);
        self.next_bucket = b + 1;
        let end = self.base.as_nanos() as u128 + (b as u128 + 1) * self.width as u128;
        self.cur_ceiling = SimTime::from_nanos(end.min(self.window_end.as_nanos() as u128) as u64);
    }

    /// Build a fresh calendar window from `far`. The span is chosen by order
    /// statistic — the `WINDOW_TARGET`-th smallest key — so a handful of
    /// far-future outliers (e.g. ETA-capped bottleneck completions) cannot
    /// inflate the bucket width and collapse the calendar into one bucket.
    fn rebuild_window(&mut self) {
        if self.buckets.is_empty() {
            self.buckets.resize_with(NUM_BUCKETS, Vec::new);
        }
        let mut v: Vec<Rec> = std::mem::take(&mut self.far)
            .into_vec()
            .into_iter()
            .map(|f| f.0)
            .collect();
        let base = v
            .iter()
            .map(|r| r.time)
            .min()
            .expect("rebuild of empty far");
        let span_end = if v.len() > WINDOW_TARGET {
            let (_, nth, _) = v.select_nth_unstable_by_key(WINDOW_TARGET, Rec::key);
            nth.time
        } else {
            v.iter().map(|r| r.time).max().expect("non-empty")
        };
        // Cover at least one nanosecond so a window of equal timestamps
        // still makes progress.
        let span = (span_end.as_nanos().saturating_sub(base.as_nanos())).max(1);
        self.width = span.div_ceil(NUM_BUCKETS as u64).max(1);
        let end = base.as_nanos() as u128 + NUM_BUCKETS as u128 * self.width as u128;
        self.base = base;
        self.window_end = SimTime::from_nanos(end.min(u64::MAX as u128) as u64);
        self.next_bucket = 0;
        self.cur_ceiling = base;
        let mut beyond = Vec::new();
        for rec in v {
            if rec.time < self.window_end {
                let b = self.bucket_of(rec.time);
                self.buckets[b].push(rec);
                self.in_buckets += 1;
            } else {
                beyond.push(FarRec(rec));
            }
        }
        self.far = BinaryHeap::from(beyond);
    }

    /// Record that one pending entry has become stale (its producer
    /// superseded it and will ignore it when it fires).
    pub fn mark_dead(&mut self) {
        self.dead += 1;
    }

    /// Record that a previously [`mark_dead`](Scheduler::mark_dead)ed entry
    /// has been popped and discarded.
    pub fn resolve_dead(&mut self) {
        self.dead = self.dead.saturating_sub(1);
    }

    /// Number of pending entries known to be stale.
    pub fn dead_pending(&self) -> u64 {
        self.dead
    }

    /// Number of pending entries believed live.
    pub fn live_pending(&self) -> usize {
        (self.pending() as u64).saturating_sub(self.dead) as usize
    }

    /// Drop every pending entry for which `keep` returns false, preserving
    /// the relative order (time, then scheduling order) of the survivors.
    /// Returns the number of entries removed.
    ///
    /// `keep` is treated as the *liveness oracle* for every pending entry, so
    /// the pass resynchronises the dead counter with ground truth: survivors
    /// are live by definition and the counter resets to zero (marks accrued
    /// after the pass count from there). Subtracting the removed count
    /// instead — as this used to do — silently corrupted `live_pending`
    /// whenever the predicate dropped entries that were never
    /// [`mark_dead`](Scheduler::mark_dead)ed, or kept entries that were.
    pub fn compact_pending(&mut self, mut keep: impl FnMut(&E) -> bool) -> usize {
        let mut all: Vec<Rec> = Vec::with_capacity(self.pending());
        all.extend_from_slice(&self.cur[self.cur_pos..]);
        for b in &mut self.buckets {
            all.append(b);
        }
        self.in_buckets = 0;
        all.extend(std::mem::take(&mut self.far).into_iter().map(|f| f.0));
        self.cur.clear();
        self.cur_pos = 0;
        self.cur_ceiling = SimTime::ZERO;
        self.width = 0;
        self.window_end = SimTime::ZERO;
        self.next_bucket = 0;

        let before = all.len();
        let mut survivors = Vec::with_capacity(before);
        for rec in all {
            let live = keep(
                self.slots[rec.slot as usize]
                    .as_ref()
                    .expect("pending record without arena slot"),
            );
            if live {
                survivors.push(FarRec(rec));
            } else {
                drop(self.release(rec.slot));
            }
        }
        let removed = before - survivors.len();
        self.far = BinaryHeap::from(survivors);
        self.dead = 0;
        self.compactions += 1;
        self.compacted_entries += removed as u64;
        self.settle();
        removed
    }

    /// Number of compaction passes run over this queue.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Total entries removed by compaction passes.
    pub fn compacted_entries(&self) -> u64 {
        self.compacted_entries
    }

    /// Approximate heap footprint of the queue in bytes: arena slots, free
    /// list, ordering records across all three tiers (including the calendar
    /// backbone itself). Telemetry for the memory gate; not an
    /// allocator-exact number.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Option<E>>()
            + self.free.capacity() * size_of::<u32>()
            + self.cur.capacity() * size_of::<Rec>()
            + self.buckets.capacity() * size_of::<Vec<Rec>>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * size_of::<Rec>())
                .sum::<usize>()
            + self.far.capacity() * size_of::<FarRec>()
    }

    /// Every pending event with its time, in pop order. The replay's
    /// period search reads the queue through it.
    pub(crate) fn pending_in_order(&self) -> Vec<(SimTime, &E)> {
        let mut recs: Vec<Rec> = Vec::with_capacity(self.pending());
        recs.extend_from_slice(&self.cur[self.cur_pos..]);
        for b in &self.buckets {
            recs.extend_from_slice(b);
        }
        recs.extend(self.far.iter().map(|f| f.0));
        recs.sort_unstable_by_key(Rec::key);
        recs.iter()
            .map(|rec| {
                let event = self.slots[rec.slot as usize]
                    .as_ref()
                    .expect("pending record without arena slot");
                (rec.time, event)
            })
            .collect()
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cur.get(self.cur_pos).map(|r| r.time)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let rec = *self.cur.get(self.cur_pos)?;
        self.cur_pos += 1;
        debug_assert!(rec.time >= self.now, "event queue went backwards");
        self.now = rec.time;
        self.delivered += 1;
        let event = self.release(rec.slot);
        self.settle();
        Some((rec.time, event))
    }
}

/// Checkpoint form: the counters plus every pending entry as a
/// `[time_ns, seq, event]` triple, sorted by `(time, seq)`.
///
/// The internal tier placement (sorted run / calendar bucket / far heap) is
/// deliberately **not** captured: pop order is the pure `(time, seq)` minimum
/// regardless of tier, so the restore may rebuild the tiers from scratch and
/// still replay the identical event sequence. Sorting the entries makes the
/// encoded bytes canonical — two schedulers with the same pending set and
/// counters serialize identically even if their calendar windows differ.
///
/// Each record's **original** `seq` is preserved (and the `seq` counter
/// restored), because FIFO order among equal timestamps is part of the
/// determinism contract: renumbering on restore would reorder same-instant
/// batches relative to entries scheduled after the restore.
///
/// ```
/// use netsim::Scheduler;
/// use p2p_common::SimTime;
/// use serde::{Deserialize, Serialize};
///
/// let mut sched: Scheduler<u32> = Scheduler::new();
/// sched.schedule_at(SimTime::from_millis(5), 1);
/// sched.schedule_at(SimTime::from_millis(5), 2); // same instant: FIFO
/// sched.pop();
///
/// let mut restored: Scheduler<u32> = Scheduler::from_value(&sched.to_value()).unwrap();
/// assert_eq!(restored.now(), sched.now());
/// assert_eq!(restored.pop(), sched.pop());
/// ```
impl<E: Serialize> Serialize for Scheduler<E> {
    fn to_value(&self) -> Value {
        let mut recs: Vec<Rec> = Vec::with_capacity(self.pending());
        recs.extend_from_slice(&self.cur[self.cur_pos..]);
        for b in &self.buckets {
            recs.extend_from_slice(b);
        }
        recs.extend(self.far.iter().map(|f| f.0));
        recs.sort_unstable_by_key(Rec::key);
        let pending: Vec<Value> = recs
            .into_iter()
            .map(|rec| {
                let event = self.slots[rec.slot as usize]
                    .as_ref()
                    .expect("pending record without arena slot");
                Value::Array(vec![
                    rec.time.as_nanos().to_value(),
                    rec.seq.to_value(),
                    event.to_value(),
                ])
            })
            .collect();
        Value::Object(vec![
            ("now".to_owned(), self.now.as_nanos().to_value()),
            ("seq".to_owned(), self.seq.to_value()),
            ("delivered".to_owned(), self.delivered.to_value()),
            ("dead".to_owned(), self.dead.to_value()),
            ("compactions".to_owned(), self.compactions.to_value()),
            (
                "compacted_entries".to_owned(),
                self.compacted_entries.to_value(),
            ),
            ("pending".to_owned(), Value::Array(pending)),
        ])
    }
}

impl<E: Deserialize> Deserialize for Scheduler<E> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Scheduler", v))?;
        let mut sched = Scheduler::new();
        sched.now = SimTime::from_nanos(serde::field(fields, "now", "Scheduler")?);
        sched.seq = serde::field(fields, "seq", "Scheduler")?;
        sched.delivered = serde::field(fields, "delivered", "Scheduler")?;
        sched.dead = serde::field(fields, "dead", "Scheduler")?;
        sched.compactions = serde::field(fields, "compactions", "Scheduler")?;
        sched.compacted_entries = serde::field(fields, "compacted_entries", "Scheduler")?;
        let pending = fields
            .iter()
            .find(|(k, _)| k == "pending")
            .map(|(_, v)| v)
            .ok_or_else(|| DeError::msg("missing field `pending` while deserializing Scheduler"))?;
        let entries = pending
            .as_array()
            .ok_or_else(|| DeError::expected("array", "Scheduler.pending", pending))?;
        let mut records = Vec::with_capacity(entries.len());
        for entry in entries {
            let triple = entry.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                DeError::expected("[time, seq, event] triple", "Scheduler.pending", entry)
            })?;
            let time = SimTime::from_nanos(u64::from_value(&triple[0])?);
            let seq = u64::from_value(&triple[1])?;
            if time < sched.now {
                return Err(DeError::msg(format!(
                    "Scheduler.pending: entry at {} predates the restored clock {}",
                    time, sched.now
                )));
            }
            if seq >= sched.seq {
                return Err(DeError::msg(format!(
                    "Scheduler.pending: entry seq {seq} not below the seq counter {}",
                    sched.seq
                )));
            }
            let slot = sched.alloc(E::from_value(&triple[2])?);
            records.push(FarRec(Rec { time, seq, slot }));
        }
        // Tier placement is irrelevant to pop order: drop everything into the
        // far heap and let `settle` rebuild the run/window lazily (the same
        // rebuild path `compact_pending` uses).
        sched.far = BinaryHeap::from(records);
        sched.settle();
        Ok(sched)
    }
}

/// A simulation world: everything that reacts to events.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event at the current simulated time. Follow-up events are
    /// scheduled through `sched`.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, event: Self::Event);
}

/// Run `world` until the event queue drains or the clock passes `until`
/// (events strictly after `until` are left unprocessed). Returns the time of
/// the last processed event (or the start time if none fired).
pub fn run_world<W: World>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    until: Option<SimTime>,
) -> SimTime {
    let mut last = sched.now();
    while let Some(next) = sched.peek_time() {
        if let Some(limit) = until {
            if next > limit {
                break;
            }
        }
        let (t, ev) = sched.pop().expect("peeked event must exist");
        world.handle(sched, ev);
        last = t;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_common::DetRng;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Tag(u32),
        Chain { tag: u32, remaining: u32 },
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
            match ev {
                Ev::Tag(t) => self.seen.push((sched.now(), t)),
                Ev::Chain { tag, remaining } => {
                    self.seen.push((sched.now(), tag));
                    if remaining > 0 {
                        sched.schedule_in(
                            SimDuration::from_millis(10),
                            Ev::Chain {
                                tag: tag + 1,
                                remaining: remaining - 1,
                            },
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut world = Recorder { seen: vec![] };
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::from_millis(30), Ev::Tag(3));
        sched.schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        sched.schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        run_world(&mut world, &mut sched, None);
        assert_eq!(
            world.seen,
            vec![
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(20), 2),
                (SimTime::from_millis(30), 3)
            ]
        );
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut world = Recorder { seen: vec![] };
        let mut sched = Scheduler::new();
        for i in 0..10 {
            sched.schedule_at(SimTime::from_secs(1), Ev::Tag(i));
        }
        run_world(&mut world, &mut sched, None);
        let tags: Vec<u32> = world.seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut world = Recorder { seen: vec![] };
        let mut sched = Scheduler::new();
        sched.schedule_at(
            SimTime::ZERO,
            Ev::Chain {
                tag: 0,
                remaining: 4,
            },
        );
        let end = run_world(&mut world, &mut sched, None);
        assert_eq!(world.seen.len(), 5);
        assert_eq!(end, SimTime::from_millis(40));
        assert_eq!(sched.delivered(), 5);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut world = Recorder { seen: vec![] };
        let mut sched = Scheduler::new();
        sched.schedule_at(
            SimTime::ZERO,
            Ev::Chain {
                tag: 0,
                remaining: 100,
            },
        );
        run_world(&mut world, &mut sched, Some(SimTime::from_millis(35)));
        assert_eq!(world.seen.len(), 4, "events after the horizon must not run");
        assert!(!sched.is_empty());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut world = Recorder { seen: vec![] };
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(1), Ev::Tag(0));
        run_world(&mut world, &mut sched, None);
        sched.schedule_at(SimTime::ZERO, Ev::Tag(1));
    }

    #[test]
    fn clock_does_not_move_without_events() {
        let mut world = Recorder { seen: vec![] };
        let mut sched: Scheduler<Ev> = Scheduler::new();
        let end = run_world(&mut world, &mut sched, None);
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(sched.pending(), 0);
    }

    /// Differential check against a plain sorted model through enough volume
    /// to exercise every tier: sparse heap order, calendar scatter/promote,
    /// window rebuilds, in-run insertion, and interleaved pops.
    #[test]
    fn matches_reference_order_through_all_tiers() {
        let mut rng = DetRng::new(0xCA1E_0D0E);
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut model: Vec<(SimTime, u64)> = Vec::new(); // (time, payload), kept sorted lazily
        let mut next_payload = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for round in 0..2_000u32 {
            // Burst-schedule: occasionally far beyond, mostly near-horizon,
            // sometimes at the exact current instant (the sentinel pattern).
            let burst = if round % 97 == 0 {
                700
            } else {
                rng.gen_range(0..8)
            };
            for _ in 0..burst {
                let offset = match rng.gen_range(0..10u32) {
                    0 => 0,
                    1..=7 => rng.gen_range(0..50_000u64),
                    8 => rng.gen_range(0..5_000_000u64),
                    _ => u64::MAX / 4,
                };
                let at = SimTime::from_nanos(sched.now().as_nanos().saturating_add(offset));
                sched.schedule_at(at, next_payload);
                model.push((at, next_payload));
                next_payload += 1;
            }
            for _ in 0..rng.gen_range(0..6) {
                match sched.pop() {
                    Some((t, p)) => popped.push((t, p)),
                    None => break,
                }
            }
            while expected.len() < popped.len() {
                // Model: stable min by (time, insertion order).
                let best = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, p))| (t, p))
                    .map(|(i, _)| i)
                    .expect("scheduler popped more than was scheduled");
                expected.push(model.swap_remove(best));
            }
            assert_eq!(&popped[..], &expected[..], "divergence at round {round}");
        }
        // Drain and compare the tail.
        while let Some((t, p)) = sched.pop() {
            popped.push((t, p));
        }
        model.sort_unstable_by_key(|&(t, p)| (t, p));
        expected.extend(model);
        assert_eq!(popped, expected);
        assert!(sched.is_empty());
        assert_eq!(sched.delivered() as usize, popped.len());
    }

    #[test]
    fn same_instant_entries_scheduled_mid_drain_stay_fifo() {
        // The batched-rebalance pattern: thousands of same-instant events so
        // the calendar activates, then entries scheduled *at the current
        // instant* while it drains must fire after all pending equal-time
        // entries — in-run insertion, not heap order.
        let mut sched: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..2_000u32 {
            sched.schedule_at(t, i);
        }
        let mut seen = Vec::new();
        for _ in 0..1_000 {
            seen.push(sched.pop().unwrap().1);
        }
        sched.schedule_at(t, 9_999); // the "sentinel"
        sched.schedule_at(SimTime::from_secs(2), 10_000);
        while let Some((_, p)) = sched.pop() {
            seen.push(p);
        }
        let mut expected: Vec<u32> = (0..2_000).collect();
        expected.push(9_999);
        expected.push(10_000);
        assert_eq!(seen, expected);
    }

    #[test]
    fn compaction_recounts_dead_from_the_predicate() {
        // A mix of marked and unmarked entries: the predicate (the liveness
        // oracle) drops two entries that were never marked dead and keeps
        // everything else. The old subtract-removed accounting would leave
        // dead == 1 here, deflating live_pending; the recount resets to the
        // oracle's ground truth.
        let mut sched: Scheduler<u32> = Scheduler::new();
        for i in 0..10u32 {
            sched.schedule_at(SimTime::from_millis(u64::from(i)), i);
        }
        for _ in 0..3 {
            sched.mark_dead(); // producer thinks three entries went stale…
        }
        // …but the compaction predicate says entries 8 and 9 are the only
        // disposable ones.
        let removed = sched.compact_pending(|&e| e < 8);
        assert_eq!(removed, 2);
        assert_eq!(sched.pending(), 8);
        assert_eq!(sched.dead_pending(), 0, "counter resyncs to the oracle");
        assert_eq!(sched.live_pending(), 8, "live view no longer skewed");
        assert_eq!(sched.compactions(), 1);
        assert_eq!(sched.compacted_entries(), 2);
        // Survivors keep their relative order.
        let order: Vec<u32> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_order_across_all_tiers() {
        let mut sched: Scheduler<u64> = Scheduler::new();
        // Enough volume for a calendar window plus far-future stragglers.
        for i in 0..4_000u64 {
            sched.schedule_at(SimTime::from_nanos(i * 37), i);
        }
        sched.schedule_at(SimTime::from_nanos(u64::MAX / 4), 4_000);
        for _ in 0..500 {
            sched.pop();
        }
        let removed = sched.compact_pending(|&e| e % 3 != 0);
        assert!(removed > 0);
        let mut last = None;
        let mut count = 0usize;
        while let Some((t, e)) = sched.pop() {
            assert!(e % 3 != 0);
            if let Some(prev) = last {
                assert!(t >= prev, "pop order regressed after compaction");
            }
            last = Some(t);
            count += 1;
        }
        assert_eq!(count + removed + 500, 4_001);
    }

    #[test]
    fn serde_round_trip_replays_identically_across_all_tiers() {
        // Enough volume for a calendar window plus far-future stragglers and
        // a partially drained run: every tier contributes pending entries.
        let mut sched: Scheduler<u64> = Scheduler::new();
        for i in 0..4_000u64 {
            sched.schedule_at(SimTime::from_nanos(i * 37), i);
        }
        sched.schedule_at(SimTime::from_nanos(u64::MAX / 4), 4_000);
        for _ in 0..500 {
            sched.pop();
        }
        sched.mark_dead();
        let mut restored: Scheduler<u64> = Scheduler::from_value(&sched.to_value()).unwrap();
        assert_eq!(restored.now(), sched.now());
        assert_eq!(restored.pending(), sched.pending());
        assert_eq!(restored.delivered(), sched.delivered());
        assert_eq!(restored.dead_pending(), sched.dead_pending());
        // Entries scheduled after the restore must interleave identically.
        sched.schedule_in(SimDuration::from_nanos(40_000), 5_000);
        restored.schedule_in(SimDuration::from_nanos(40_000), 5_000);
        loop {
            let (a, b) = (sched.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn serde_encoding_is_canonical_across_tier_layouts() {
        // Same pending set reached via different internal histories (one
        // scheduler went through a calendar window + partial drain, the other
        // scheduled the survivors directly) must encode identically.
        let mut a: Scheduler<u64> = Scheduler::new();
        for i in 0..2_000u64 {
            a.schedule_at(SimTime::from_nanos(1_000_000 + i * 13), i);
        }
        let mut b: Scheduler<u64> = Scheduler::new();
        for i in 0..2_000u64 {
            b.schedule_at(SimTime::from_nanos(1_000_000 + i * 13), i);
        }
        for _ in 0..700 {
            a.pop();
            b.pop();
        }
        // Force different tier layouts: rebuild b's tiers via compaction.
        b.compact_pending(|_| true);
        let (va, vb) = (a.to_value(), b.to_value());
        let pa = va.as_object().unwrap().iter().find(|(k, _)| k == "pending");
        let pb = vb.as_object().unwrap().iter().find(|(k, _)| k == "pending");
        assert_eq!(pa, pb, "pending encoding must not leak tier layout");
    }

    #[test]
    fn serde_rejects_corrupt_checkpoints() {
        let mut sched: Scheduler<u64> = Scheduler::new();
        sched.schedule_at(SimTime::from_millis(5), 7);
        let good = sched.to_value();
        // An entry behind the restored clock is refused (it could never pop).
        let tampered = match &good {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| {
                        if k == "now" {
                            (k.clone(), SimTime::from_secs(1).as_nanos().to_value())
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            ),
            _ => unreachable!(),
        };
        assert!(Scheduler::<u64>::from_value(&tampered).is_err());
        // A pending seq at/above the counter would break FIFO; refused too.
        let tampered = match &good {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| {
                        if k == "seq" {
                            (k.clone(), 0u64.to_value())
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            ),
            _ => unreachable!(),
        };
        assert!(Scheduler::<u64>::from_value(&tampered).is_err());
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut sched: Scheduler<u64> = Scheduler::new();
        for round in 0..50u64 {
            for i in 0..100 {
                sched.schedule_in(SimDuration::from_nanos(i + 1), round * 100 + i);
            }
            while sched.pop().is_some() {}
        }
        assert!(
            sched.slots.len() <= 200,
            "arena must recycle slots across drain cycles, got {}",
            sched.slots.len()
        );
        assert!(sched.footprint_bytes() < 64 * 1024);
    }
}
