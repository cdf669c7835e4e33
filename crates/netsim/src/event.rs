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
//! # Storage: arena + radix heap
//!
//! Events are kept once, in a typed arena (`slots` + free list), and the
//! ordering structure holds only 24-byte `(time, seq, slot)` records. It is a
//! radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990), which relies on
//! one property a simulation clock already has: nothing is scheduled before
//! `now`. `last` is the smallest pending time. Bucket 0 holds the records at
//! `last`, drained from `head`; bucket `i > 0` holds the records whose time
//! first differs from `last` at bit `i - 1`, so every record of a lower bucket
//! precedes every record of a higher one. Scheduling is a push. When bucket 0
//! runs dry, the lowest non-empty bucket supplies the new `last` and its
//! records are spread over the buckets below it; a record moves down at most
//! 64 times in its life.
//!
//! Records of one time always share a bucket, and sit there in `seq` order:
//! a new record carries the largest `seq`, and every move is stable. Pop
//! order is therefore the pure `(time, seq)` minimum.
//!
//! # Cancellation
//!
//! [`Scheduler::cancel`] withdraws a pending event by its [`EventId`]. The
//! record stays in its bucket, its `seq` goes into a set of cancelled ids,
//! and every reader skips it: a cancelled event never pops, never moves the
//! clock and never counts as pending or enters a checkpoint. Bucket 0's head
//! is kept live, so [`Scheduler::peek_time`] needs no mutation. Once
//! cancelled records outnumber live ones four times over, and there are at
//! least 64 of them, one sweep filters them out of every bucket; filtering
//! keeps each bucket's order, so pop order holds.

use p2p_common::{IdHasher, SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// One bucket per possible top differing bit of two `u64` times, plus the
/// bucket of records equal to `last`.
const BUCKETS: usize = 65;

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

/// A sweep runs when cancelled records exceed this many times the live ones…
const SWEEP_RATIO: usize = 4;
/// …and number at least this many, so that a small queue is not swept for
/// every cancel.
const SWEEP_MIN: usize = 64;

/// Handle of a scheduled event, for [`Scheduler::cancel`]. It wraps the
/// event's scheduling sequence number, which checkpoints and the replay's
/// periodic shift keep, so a handle stays valid across both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

/// The bucket of a record at `time` when the smallest pending time is `last`
/// (`time >= last`): 0 if equal, else one past the top differing bit.
#[inline]
fn bucket_of(time: SimTime, last: SimTime) -> usize {
    (u64::BITS - (time.as_nanos() ^ last.as_nanos()).leading_zeros()) as usize
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
    /// Sweeps run over the buckets.
    compactions: u64,
    /// Cancelled records those sweeps removed.
    compacted_entries: u64,
    /// `seq`s of the cancelled records still in the buckets.
    cancelled: HashSet<u64, BuildHasherDefault<IdHasher>>,

    // --- typed arena: events live here exactly once ---
    slots: Vec<Option<E>>,
    free: Vec<u32>,

    // --- radix heap over the arena ---
    /// Smallest pending time while anything is pending. It may run ahead of
    /// `now`: `pop` refills bucket 0 at once.
    last: SimTime,
    buckets: [Vec<Rec>; BUCKETS],
    /// First record of bucket 0 not yet popped. It is live whenever
    /// `len > 0`.
    head: usize,
    /// Number of records in the buckets, cancelled ones included.
    len: usize,
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
            compactions: 0,
            compacted_entries: 0,
            cancelled: HashSet::default(),
            slots: Vec::new(),
            free: Vec::new(),
            last: SimTime::ZERO,
            buckets: std::array::from_fn(|_| Vec::new()),
            head: 0,
            len: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn pending(&self) -> usize {
        self.len.saturating_sub(self.cancelled.len())
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// True if no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
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
        self.file(rec);
        EventId(rec.seq)
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Withdraw the pending event `id`: it will never pop, move the clock,
    /// count in [`pending`](Scheduler::pending) or enter a checkpoint.
    /// `id` must name an event that has not fired; cancelling one twice is
    /// harmless.
    ///
    /// ```
    /// use netsim::Scheduler;
    /// use p2p_common::SimTime;
    ///
    /// let mut sched: Scheduler<&str> = Scheduler::new();
    /// let stale = sched.schedule_at(SimTime::from_millis(30), "superseded");
    /// sched.schedule_at(SimTime::from_millis(20), "current");
    /// sched.cancel(stale);
    ///
    /// assert_eq!(sched.pending(), 1);
    /// assert_eq!(sched.pop(), Some((SimTime::from_millis(20), "current")));
    /// assert_eq!(sched.pop(), None);
    /// assert_eq!(sched.now(), SimTime::from_millis(20));
    /// ```
    pub fn cancel(&mut self, id: EventId) {
        debug_assert!(id.0 < self.seq, "event {} was never scheduled", id.0);
        if self.cancelled.insert(id.0) {
            self.settle();
            self.sweep_if_due();
        }
    }

    /// Drop cancelled records from the front of bucket 0, refilling it as
    /// it runs dry, until its head is live or nothing is left.
    fn settle(&mut self) {
        while !self.cancelled.is_empty() {
            let Some(&rec) = self.buckets[0].get(self.head) else {
                return;
            };
            if !self.cancelled.remove(&rec.seq) {
                return;
            }
            self.head += 1;
            self.len -= 1;
            drop(self.release(rec.slot));
            if self.head == self.buckets[0].len() {
                self.refill();
            }
        }
    }

    /// Filter every cancelled record out of the buckets. Filtering keeps
    /// each bucket's order, so the heap stays valid and the survivors pop
    /// as before. Returns the number removed.
    fn purge(&mut self) -> usize {
        if self.cancelled.is_empty() {
            return 0;
        }
        let cancelled = std::mem::take(&mut self.cancelled);
        let mut buckets = std::mem::replace(&mut self.buckets, std::array::from_fn(|_| Vec::new()));
        buckets[0].drain(..self.head);
        self.head = 0;
        for b in &mut buckets {
            b.retain(|rec| {
                let live = !cancelled.contains(&rec.seq);
                if !live {
                    drop(self.release(rec.slot));
                }
                live
            });
        }
        self.buckets = buckets;
        // Kept with its capacity: cancels go on at the same rate.
        self.cancelled = cancelled;
        self.cancelled.clear();
        let before = self.len;
        self.len = self.buckets.iter().map(Vec::len).sum();
        if self.buckets[0].is_empty() {
            self.refill();
        }
        before - self.len
    }

    /// Sweep if cancelled records number at least [`SWEEP_MIN`] and exceed
    /// [`SWEEP_RATIO`] times the live ones. Checked whenever either count
    /// moves the wrong way (a cancel, a pop), so the bound holds between
    /// any two calls.
    fn sweep_if_due(&mut self) {
        let cancelled = self.cancelled.len();
        if cancelled >= SWEEP_MIN && cancelled > SWEEP_RATIO * self.pending() {
            self.compacted_entries += self.purge() as u64;
            self.compactions += 1;
        }
    }

    /// Add `rec` to the heap. Its `seq` must exceed that of every pending
    /// record of the same time.
    fn file(&mut self, rec: Rec) {
        if self.len == 0 {
            self.last = rec.time;
        } else if rec.time < self.last {
            self.lower(rec.time);
        }
        self.buckets[bucket_of(rec.time, self.last)].push(rec);
        self.len += 1;
    }

    /// Make `t < last` the smallest pending time. With `h` the top bit in
    /// which `t` and `last` differ, every record of buckets `0..=h` differs
    /// from `t` first at bit `h`, so they all move to bucket `h + 1`, which
    /// is empty (its records would lie below `last`). Higher buckets keep
    /// their place.
    fn lower(&mut self, t: SimTime) {
        let target = bucket_of(t, self.last);
        let mut merged = std::mem::take(&mut self.buckets[target]);
        debug_assert!(merged.is_empty());
        merged.extend_from_slice(&self.buckets[0][self.head..]);
        self.buckets[0].clear();
        self.head = 0;
        for b in &mut self.buckets[1..target] {
            merged.append(b);
        }
        self.buckets[target] = merged;
        self.last = t;
    }

    /// Bucket 0 is drained: take `last` from the lowest non-empty bucket and
    /// spread that bucket's records, in order, over the buckets below it.
    fn refill(&mut self) {
        self.buckets[0].clear();
        self.head = 0;
        if self.len == 0 {
            return;
        }
        let i = (1..BUCKETS)
            .find(|&i| !self.buckets[i].is_empty())
            .expect("pending records sit in some bucket");
        let mut spread = std::mem::take(&mut self.buckets[i]);
        self.last = spread.iter().map(|r| r.time).min().expect("non-empty");
        for rec in spread.drain(..) {
            self.buckets[bucket_of(rec.time, self.last)].push(rec);
        }
        self.buckets[i] = spread;
    }

    /// Every pending record, sorted by `(time, seq)`.
    fn sorted(&self) -> Vec<Rec> {
        let live = |rec: &&Rec| !self.cancelled.contains(&rec.seq);
        let mut recs = Vec::with_capacity(self.pending());
        recs.extend(self.buckets[0][self.head..].iter().filter(live));
        for b in &self.buckets[1..] {
            recs.extend(b.iter().filter(live));
        }
        recs.sort_unstable_by_key(Rec::key);
        recs
    }

    /// Number of sweeps that removed cancelled records from the queue.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Total cancelled records removed by sweeps.
    pub fn compacted_entries(&self) -> u64 {
        self.compacted_entries
    }

    /// Cancelled records still held by the buckets.
    #[cfg(test)]
    pub(crate) fn cancelled_held(&self) -> usize {
        self.cancelled.len()
    }

    /// Approximate heap footprint of the queue in bytes: arena slots, free
    /// list, the records held by the buckets and the cancelled set.
    /// Telemetry for the memory gate; not an allocator-exact number.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Option<E>>()
            + self.free.capacity() * size_of::<u32>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * size_of::<Rec>())
                .sum::<usize>()
            + self.cancelled.capacity() * size_of::<u64>()
    }

    /// Every pending event with its time, in pop order. The replay's
    /// period search reads the queue through it.
    pub(crate) fn pending_in_order(&self) -> Vec<(SimTime, &E)> {
        self.sorted()
            .iter()
            .map(|rec| (rec.time, self.event(rec)))
            .collect()
    }

    /// Move the clock and every pending event forward by `by`, keeping
    /// every `seq` and so the pop order. The replay's periodic skip uses it.
    /// Cancelled records are dropped on the way.
    pub(crate) fn shift(&mut self, by: SimDuration) {
        self.purge();
        let recs = self.sorted();
        for b in &mut self.buckets {
            b.clear();
        }
        self.head = 0;
        self.len = 0;
        self.now += by;
        for rec in recs {
            self.file(Rec {
                time: rec.time + by,
                ..rec
            });
        }
    }

    fn event(&self, rec: &Rec) -> &E {
        self.slots[rec.slot as usize]
            .as_ref()
            .expect("pending record without arena slot")
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.buckets[0].get(self.head).map(|r| r.time)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let rec = *self.buckets[0].get(self.head)?;
        self.head += 1;
        self.len -= 1;
        if self.head == self.buckets[0].len() {
            self.refill();
        }
        self.settle();
        self.sweep_if_due();
        debug_assert!(rec.time >= self.now, "event queue went backwards");
        self.now = rec.time;
        self.delivered += 1;
        Some((rec.time, self.release(rec.slot)))
    }
}

/// Checkpoint form: the counters plus every pending entry as a
/// `[time_ns, seq, event]` triple, sorted by `(time, seq)`. Cancelled
/// records are left out, so the restored queue holds none.
///
/// The bucket layout is deliberately **not** captured: pop order is the pure
/// `(time, seq)` minimum regardless of where a record sits, so the restore
/// files the records afresh and still replays the identical event sequence.
/// Sorting the entries makes the encoded bytes canonical — two schedulers
/// with the same pending set and counters serialize identically whatever
/// their histories.
///
/// Each `seq` may appear once: it is the entry's [`EventId`].
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
        let pending: Vec<Value> = self
            .sorted()
            .iter()
            .map(|rec| {
                Value::Array(vec![
                    rec.time.as_nanos().to_value(),
                    rec.seq.to_value(),
                    self.event(rec).to_value(),
                ])
            })
            .collect();
        Value::Object(vec![
            ("now".to_owned(), self.now.as_nanos().to_value()),
            ("seq".to_owned(), self.seq.to_value()),
            ("delivered".to_owned(), self.delivered.to_value()),
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
            records.push(Rec { time, seq, slot });
        }
        let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        if let Some(w) = seqs.windows(2).find(|w| w[0] == w[1]) {
            return Err(DeError::msg(format!(
                "Scheduler.pending: seq {} appears twice",
                w[0]
            )));
        }
        // Filing in key order puts the records of one time into their bucket
        // in `seq` order, whatever order the file listed them in.
        records.sort_unstable_by_key(Rec::key);
        for rec in records {
            sched.file(rec);
        }
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
    /// to exercise every bucket: refills, lowering `last` below a refilled
    /// bucket 0, same-instant pushes, times at the top of the range, and
    /// interleaved pops.
    #[test]
    fn matches_a_sorted_model_under_random_schedules() {
        let mut rng = DetRng::new(0xCA1E_0D0E);
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut model: Vec<(SimTime, u64)> = Vec::new(); // (time, payload), kept sorted lazily
        let mut next_payload = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for round in 0..2_000u32 {
            // Burst-schedule: occasionally far beyond or at the last
            // representable instant, mostly near-horizon, sometimes at the
            // exact current instant (the sentinel pattern).
            let burst = if round % 97 == 0 {
                700
            } else {
                rng.gen_range(0..8)
            };
            for _ in 0..burst {
                let offset = match rng.gen_range(0..11u32) {
                    0 => 0,
                    1..=7 => rng.gen_range(0..50_000u64),
                    8 => rng.gen_range(0..5_000_000u64),
                    9 => u64::MAX / 4,
                    _ => u64::MAX - sched.now().as_nanos(),
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
        // The batched-rebalance pattern: thousands of same-instant events,
        // then entries scheduled *at the current instant* while they drain
        // must fire after all pending equal-time entries.
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
    fn cancelled_events_never_pop_move_the_clock_or_count() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..10u32)
            .map(|i| sched.schedule_at(SimTime::from_millis(u64::from(i)), i))
            .collect();
        // The head, a middle entry and the tail.
        for i in [0, 5, 9] {
            sched.cancel(ids[i]);
        }
        sched.cancel(ids[5]); // twice is harmless
        assert_eq!(sched.pending(), 7);
        assert_eq!(sched.peek_time(), Some(SimTime::from_millis(1)));
        let order: Vec<u32> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3, 4, 6, 7, 8]);
        assert_eq!(sched.now(), SimTime::from_millis(8), "the cancelled tail");
        assert_eq!(sched.delivered(), 7);
        assert!(sched.is_empty());
        assert_eq!(sched.cancelled_held(), 0);
    }

    #[test]
    fn compaction_preserves_pop_order() {
        let mut sched: Scheduler<u64> = Scheduler::new();
        // Thousands of near records spread over many buckets, plus a
        // far-future straggler.
        let mut ids: Vec<EventId> = (0..4_000u64)
            .map(|i| sched.schedule_at(SimTime::from_nanos(i * 37), i))
            .collect();
        ids.push(sched.schedule_at(SimTime::from_nanos(u64::MAX / 4), 4_000));
        for _ in 0..500 {
            sched.pop();
        }
        // Cancel every pending record but each tenth and the straggler:
        // the sweep rule is crossed at the 2,801st cancel (2,801 > 4 × 700).
        let cancelled: Vec<u64> = (500..4_000u64).filter(|e| e % 10 != 0).collect();
        for &e in &cancelled {
            sched.cancel(ids[e as usize]);
        }
        assert_eq!(sched.compactions(), 1, "one sweep");
        assert_eq!(sched.compacted_entries(), 2_801);
        assert_eq!(sched.cancelled_held(), cancelled.len() - 2_801);
        assert_eq!(sched.pending(), 351);
        let mut expected: Vec<u64> = (500..4_000).filter(|e| e % 10 == 0).collect();
        expected.push(4_000);
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, expected, "survivors pop in their old order");
        assert_eq!(sched.now(), SimTime::from_nanos(u64::MAX / 4));
    }

    #[test]
    fn serde_round_trip_replays_identically() {
        // Many buckets, a far-future straggler and a partially drained
        // bucket 0 all contribute pending entries.
        let mut sched: Scheduler<u64> = Scheduler::new();
        for i in 0..4_000u64 {
            sched.schedule_at(SimTime::from_nanos(i * 37), i);
        }
        sched.schedule_at(SimTime::from_nanos(u64::MAX / 4), 4_000);
        for _ in 0..500 {
            sched.pop();
        }
        let stale = sched.schedule_at(SimTime::from_nanos(1_000_000), 4_001);
        sched.cancel(stale);
        let mut restored: Scheduler<u64> = Scheduler::from_value(&sched.to_value()).unwrap();
        assert_eq!(restored.now(), sched.now());
        assert_eq!(restored.pending(), sched.pending());
        assert_eq!(restored.delivered(), sched.delivered());
        assert_eq!(restored.cancelled_held(), 0);
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
    fn serde_encoding_is_canonical_across_histories() {
        // Same pending set reached via different internal histories (one
        // scheduler only drained, the other also scheduled and cancelled
        // entries) must encode identically.
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
        // Force a different history: b holds cancelled records.
        for i in 0..100u64 {
            let id = b.schedule_at(SimTime::from_nanos(2_000_000 + i * 7), 10_000 + i);
            b.cancel(id);
        }
        assert!(b.cancelled_held() > 0);
        let (va, vb) = (a.to_value(), b.to_value());
        let pa = va.as_object().unwrap().iter().find(|(k, _)| k == "pending");
        let pb = vb.as_object().unwrap().iter().find(|(k, _)| k == "pending");
        assert_eq!(pa, pb, "pending encoding must not leak bucket layout");
        let seq = |v: &Value| {
            v.as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == "seq")
                .cloned()
        };
        assert_ne!(seq(&va), seq(&vb), "the seq counter still moved");
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
        // Two entries with one seq would share an `EventId`; refused too.
        sched.schedule_at(SimTime::from_millis(6), 8);
        let tampered = match sched.to_value() {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| match (k.as_str(), v) {
                        ("pending", Value::Array(mut entries)) => {
                            if let Value::Array(triple) = &mut entries[1] {
                                triple[1] = 0u64.to_value();
                            }
                            (k, Value::Array(entries))
                        }
                        (_, v) => (k, v),
                    })
                    .collect(),
            ),
            _ => unreachable!(),
        };
        let err = Scheduler::<u64>::from_value(&tampered).err().unwrap();
        assert!(err.to_string().contains("appears twice"), "got: {err}");
    }

    #[test]
    fn serde_restores_unsorted_entries_in_key_order() {
        // A hand-written checkpoint listing its entries out of order: the
        // restore must still pop them by (time, seq), FIFO within a time.
        let triple = |t: u64, seq: u64, e: u64| {
            Value::Array(vec![t.to_value(), seq.to_value(), e.to_value()])
        };
        let v = Value::Object(vec![
            ("now".to_owned(), 1u64.to_value()),
            ("seq".to_owned(), 10u64.to_value()),
            ("delivered".to_owned(), 0u64.to_value()),
            ("compactions".to_owned(), 0u64.to_value()),
            ("compacted_entries".to_owned(), 0u64.to_value()),
            (
                "pending".to_owned(),
                Value::Array(vec![
                    triple(9, 3, 93),
                    triple(2, 7, 27),
                    triple(9, 1, 91),
                    triple(2, 4, 24),
                    triple(5, 9, 59),
                    triple(9, 2, 92),
                ]),
            ),
        ]);
        let mut sched = Scheduler::<u64>::from_value(&v).unwrap();
        sched.schedule_at(SimTime::from_nanos(9), 100);
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![24, 27, 59, 91, 92, 93, 100]);
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
