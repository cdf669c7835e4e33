//! Flow-level communication model.
//!
//! A [`Network`] owns the [`Platform`] and the set of data transfers (flows)
//! currently in flight. Two sharing modes are provided:
//!
//! * [`SharingMode::Bottleneck`] — the analytic model SimGrid's MSG module
//!   uses by default for trace replay: a transfer of `size` bytes along a
//!   route takes `Σ latency + size / bottleneck_bandwidth`, independently of
//!   other traffic. Cheap and adequate when flows rarely overlap.
//! * [`SharingMode::MaxMinFair`] — concurrent flows crossing the same link
//!   share its capacity according to max–min fairness (progressive filling).
//!   Rates are recomputed whenever a flow starts or finishes. This is the
//!   model to use when many peers hammer a shared backbone (LAN Stage-2B) or
//!   a DSLAM uplink (xDSL Stage-2A).
//!
//! Control-plane messages of the P2PDC overlay are small and latency-bound;
//! [`Network::message_delay`] provides their delivery delay analytically
//! without materialising a flow.
//!
//! # The incremental max–min engine
//!
//! The seed recomputed max–min fairness from scratch with freshly allocated
//! `HashMap`s on every flow start/finish and rescheduled the completion of
//! **every** active flow on each rebalance. That engine survives as
//! [`crate::baseline`], the independent oracle the differential tests
//! compare against. This module computes the same fixed point (identical
//! per-link bottleneck shares, so identical simulated results) with one
//! incremental engine:
//!
//! * **Slab flow table** — flows live in a `Vec` of slots addressed by the
//!   low 32 bits of [`FlowId`]; the high 32 bits carry the slot *generation*
//!   ([`FlowId::from_parts`]) so recycled slots reject ids of their previous
//!   occupants in O(1) without any hashing.
//! * **Persistent link incidence** — `link_flows` maps every directed link
//!   (indexed like [`Platform::links`]) to the active flows crossing it,
//!   updated incrementally on activate/finish. Swap-remove with
//!   back-pointers (`FlowState::link_pos`) keeps removal O(route length).
//! * **Heap-driven progressive filling** — each filling round pops the
//!   minimum-fair-share link from a binary heap (the `fairshare` module)
//!   over epoch-stamped flat per-link arrays. The heap yields exact
//!   `(share, link)` minima: equal shares break by link index, so rates are
//!   a pure function of the flow set, independent of seeding order.
//! * **Batched same-timestamp rebalances** — flow arrivals and departures at
//!   one simulated instant are coalesced: the first request schedules one
//!   [`NetEvent::Rebalance`] at the current time (the scheduler's FIFO
//!   order for equal timestamps places it after every already-pending event
//!   of that instant), and a single flush covers the union of dirty links.
//!   Zero simulated time elapses inside a batch, so delivery timestamps are
//!   identical to rebalancing per event.
//! * **Per-flow completions** — a rebalance reschedules the completion of
//!   *only* the flows whose rate actually changed. Each flow keeps the
//!   [`EventId`] of its pending completion and cancels it
//!   ([`Scheduler::cancel`]) when it schedules the next, so the queue holds
//!   no superseded completion: none fires, moves the clock or enters a
//!   checkpoint. Progress (`remaining` bytes) is brought up to date lazily,
//!   only when a flow's rate is about to change.
//! * **Dirty-component flushes** — the max–min fixpoint factors over the
//!   connected components of the "shares a flow" relation on links. A
//!   union–find over links with per-component flow lists (the `component`
//!   module) tracks the partition incrementally, so a flush only refills the
//!   component(s) containing links touched since the last flush; flows in
//!   untouched components keep their rates *and* scheduled completions.
//! * **Warm-start filling** — after each component fill the engine persists
//!   the bottleneck sequence — which link saturated in which round, at what
//!   share, freezing which flows — in a per-component `FillRecord` keyed by
//!   the union–find component epoch. The next flush of that component
//!   computes the first saturation level the changed flows' path links can
//!   affect, keeps every flow frozen strictly below it untouched (rates
//!   *and* scheduled completions — those flows are not even walked), and
//!   resumes progressive filling from that level with the prefix's residual
//!   capacities restored bit-exactly from the record. Records die with
//!   component merges (the epoch moves) and through
//!   [`Network::invalidate_fill_records`]; an invalidated component simply
//!   fills cold once, re-recording as it goes, and produces the
//!   bit-identical allocation.
//! * **One serial flush** — every flush fills its dirty components one
//!   after another on the calling thread, each from its own record, on one
//!   reused set of fill tables. There is no second fill path and no engine
//!   option: the same flow set always takes the same code.
//!
//! The differential suites check two things on randomised workloads:
//! deliveries within 2 ns of [`crate::baseline`], and warm ≡ cold bit for
//! bit, where "cold" is the same engine with its fill records invalidated
//! before every event.

use crate::component::LinkComponents;
use crate::event::{EventId, Scheduler};
use crate::fairshare::FairShareQueue;
use crate::platform::{Platform, Route};
use p2p_common::{DataSize, FlowId, HostId, SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// How concurrent flows share link capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SharingMode {
    /// Independent flows, bottleneck-bandwidth analytic model.
    Bottleneck,
    /// Max–min fair sharing of every link's capacity.
    MaxMinFair,
}

/// Events the network schedules for itself. A world embeds them in its own
/// event type through `From<NetEvent>` and hands them back to
/// [`Network::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetEvent {
    /// The flow's latency has elapsed; it now competes for bandwidth.
    FlowActivate {
        /// The flow in question.
        flow: FlowId,
    },
    /// The flow has drained at its current rate. A rate change cancels
    /// the pending completion and schedules a new one.
    FlowCompletion {
        /// The flow in question.
        flow: FlowId,
    },
    /// Run the rate rebalance deferred by the current simulated instant.
    ///
    /// Every flow arrival or departure *requests* a rebalance instead of
    /// performing one; the first
    /// request at a given instant schedules this sentinel at the current
    /// time, and the scheduler's FIFO order for equal timestamps guarantees
    /// it fires after every event of that instant that was already pending —
    /// coalescing all of them into one batched pass.
    Rebalance,
}

/// Telemetry of the engine's flushes, for diagnostics and benchmark
/// analysis ([`Network::flush_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushStats {
    /// Dirty flushes run (rebalances that found at least one dirty link).
    pub flushes: u64,
    /// Total flows recomputed across all flushes (a from-scratch engine
    /// would have recomputed `flushes × active` instead).
    pub flushed_flows: u64,
    /// Component fills that resumed from a recorded saturation prefix
    /// instead of share level zero. Cold fills — no record, or a record
    /// invalidated since — are not counted, even though they record.
    pub warm_starts: u64,
    /// Flows kept frozen from recorded prefixes across all warm starts:
    /// their rates and scheduled completions were preserved without the
    /// flush walking them at all (a cold fill would have re-derived and
    /// compared every one).
    pub warm_prefix_flows: u64,
    /// Sum of the resume levels (recorded saturation rounds skipped) across
    /// all warm starts; `warm_resume_rounds / warm_starts` is the mean
    /// recorded-prefix depth a warm start preserved.
    pub warm_resume_rounds: u64,
    /// Fill records dropped by [`Network::invalidate_fill_records`].
    pub warm_invalidations: u64,
}

/// Notification that a flow has been fully delivered to its destination host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDelivery {
    /// The completed flow.
    pub flow: FlowId,
    /// Caller-supplied token identifying what this flow carried.
    pub token: u64,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Payload size.
    pub size: DataSize,
}

/// Aggregate transfer statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Flows started.
    pub flows_started: u64,
    /// Flows delivered.
    pub flows_completed: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Control-plane messages routed through [`Network::message_delay`].
    pub control_messages: u64,
    /// Bytes carried per directed link (indexed like `Platform::links`).
    pub link_bytes: Vec<u64>,
}

/// Heap-byte telemetry of the flow engine's per-flow structures
/// ([`Network::memory_footprint`]): the inputs to the bytes/flow figure the
/// million-flow benchmark records and `bench_gate` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Slab bytes: slot array, free list, per-flow `link_pos` slices.
    pub slab_bytes: usize,
    /// Incidence bytes: the per-link flow lists plus the active-flow index.
    pub incidence_bytes: usize,
    /// Component bytes: the union–find link partition, its intrusive flow
    /// node pool, and the dirty-tracking arrays. Checkpointed state, so it
    /// is counted — a restored simulation carries it all back.
    pub component_bytes: usize,
    /// Warm-start bytes: the per-component persisted fill records (rounds,
    /// frozen lists, residual-capacity histories) plus the arrival log.
    pub warm_bytes: usize,
    /// Flush scratch bytes: the fill tables (epoch-stamped capacity
    /// tables, the fair-share heap and its live-key array, rate buffers),
    /// the per-component task lists and the link → record-slot map —
    /// allocated once and reused across flushes, so the million-flow RSS
    /// gate must see it.
    pub scratch_bytes: usize,
    /// Live flows at measurement time (the divisor for bytes/flow).
    pub live_flows: usize,
}

impl MemoryFootprint {
    /// Total tracked bytes.
    pub fn total_bytes(&self) -> usize {
        self.slab_bytes
            + self.incidence_bytes
            + self.component_bytes
            + self.warm_bytes
            + self.scratch_bytes
    }

    /// Tracked bytes per live flow. `extra_bytes` folds in structures owned
    /// elsewhere — typically the event queue's
    /// [`Scheduler::footprint_bytes`](crate::Scheduler::footprint_bytes).
    pub fn bytes_per_flow(&self, extra_bytes: usize) -> f64 {
        if self.live_flows == 0 {
            0.0
        } else {
            (self.total_bytes() + extra_bytes) as f64 / self.live_flows as f64
        }
    }
}

/// Effectively infinite rate used for loopback (empty-route) flows.
const LOOPBACK_RATE: f64 = f64::MAX / 4.0;

/// Residual byte threshold below which a flow counts as drained (absorbs
/// floating-point error accumulated across rate recomputations).
const DRAIN_EPSILON: f64 = 1e-3;

/// Rates below this (bytes/s) are float dust left by capacity cancellation,
/// not real allocations; flows "allocated" less are treated as starved.
const MIN_RATE: f64 = 1e-6;

#[derive(Debug, Clone)]
struct FlowState {
    id: FlowId,
    src: HostId,
    dst: HostId,
    token: u64,
    size: DataSize,
    route: Arc<Route>,
    /// Payload bytes still to drain, exact as of `last_progress`.
    remaining: f64,
    /// Currently allocated rate in bytes/s (0 until activated).
    rate: f64,
    /// Last instant at which `remaining` was brought up to date.
    last_progress: SimTime,
    active: bool,
    /// The flow's pending completion event, if one is scheduled.
    completion: Option<EventId>,
    /// Position of this flow in `Network::active` (valid while active).
    active_pos: u32,
    /// For each hop `i` of `route.links`, this flow's position inside
    /// `Network::link_flows[route.links[i]]`. Empty iff the flow is not
    /// attached to the incidence lists: it is allocated when a max–min flow
    /// activates, so a `Bottleneck` flow (never attached) allocates none. A
    /// boxed slice, not a `Vec`: the exact-fit allocation drops the capacity
    /// word and any growth slack from the per-flow footprint.
    link_pos: Box<[u32]>,
    /// Scratch: epoch at which this flow was gathered into a dirty flush.
    comp_epoch: u64,
    /// Scratch: rate assigned by the in-progress recomputation.
    new_rate: f64,
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    state: Option<FlowState>,
}

/// The fill tables of the flush: every epoch-stamped table the
/// progressive fill writes, link- or slot-indexed and reused across fills
/// and flushes, so nothing allocates after the first flush at a given
/// scale. Every component fill of a flush runs on this one scratch in
/// turn, so its footprint does not grow with the number of dirty
/// components.
#[derive(Debug, Default)]
struct FillScratch {
    /// Monotone fill epoch of this scratch (independent of the network's).
    epoch: u64,
    link_capacity: Vec<f64>,
    link_unfixed: Vec<u32>,
    link_epoch: Vec<u64>,
    /// Record slot of each link seeded by the current fill (valid where
    /// `link_epoch` carries the epoch).
    link_slot: Vec<u32>,
    /// Links seeded by the current fill (deduplicated via `link_epoch`).
    touched_links: Vec<usize>,
    /// The bottleneck-selection queue.
    queue: FairShareQueue,
    link_round: Vec<u64>,
    affected: Vec<usize>,
    fill_round: u64,
    /// Participation stamp per slot: link incidence lists also hold
    /// prefix-frozen flows, which the replay must never re-fix.
    part: Vec<u64>,
    /// Epoch at which a slot's rate was fixed by this fill.
    flow_fixed: Vec<u64>,
    /// The rate this fill assigned per slot (valid where `flow_fixed`
    /// carries the epoch).
    flow_rate: Vec<f64>,
}

impl FillScratch {
    /// Grow the link- and slot-indexed tables to the network's size.
    fn ensure(&mut self, link_count: usize, slot_count: usize) {
        if self.link_capacity.len() < link_count {
            self.link_capacity.resize(link_count, 0.0);
            self.link_unfixed.resize(link_count, 0);
            self.link_epoch.resize(link_count, 0);
            self.link_slot.resize(link_count, 0);
            self.link_round.resize(link_count, 0);
        }
        if self.flow_fixed.len() < slot_count {
            self.part.resize(slot_count, 0);
            self.flow_fixed.resize(slot_count, 0);
            self.flow_rate.resize(slot_count, 0.0);
        }
    }

    /// Heap bytes held by this scratch, for
    /// [`MemoryFootprint::scratch_bytes`] — state that persists across
    /// flushes and would otherwise escape the RSS gate.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.link_capacity.capacity() * size_of::<f64>()
            + self.link_unfixed.capacity() * size_of::<u32>()
            + self.link_epoch.capacity() * size_of::<u64>()
            + self.link_slot.capacity() * size_of::<u32>()
            + self.touched_links.capacity() * size_of::<usize>()
            + self.queue.heap_bytes()
            + self.link_round.capacity() * size_of::<u64>()
            + self.affected.capacity() * size_of::<usize>()
            + self.part.capacity() * size_of::<u64>()
            + self.flow_fixed.capacity() * size_of::<u64>()
            + self.flow_rate.capacity() * size_of::<f64>()
    }
}

/// The link → record-slot map of one warm flush: for every link of every
/// record resumed by the flush, its position in that record's `links`.
/// Loaded once per warm task in the serial pre-pass (the resume-level
/// computation keys on it) and read by the fills. One generation covers the
/// whole flush: the flush's records belong to distinct components, and
/// components partition the links, so no two records share an entry.
#[derive(Debug, Default)]
struct RecordSlots {
    gen: u64,
    slot: Vec<u32>,
    epoch: Vec<u64>,
}

impl RecordSlots {
    /// Start a flush: forget every entry loaded by earlier flushes.
    fn begin(&mut self, link_count: usize) {
        self.gen += 1;
        if self.epoch.len() < link_count {
            self.epoch.resize(link_count, 0);
            self.slot.resize(link_count, 0);
        }
    }

    /// Register every link of `rec`.
    fn load(&mut self, rec: &FillRecord) {
        for (s, &l) in rec.links.iter().enumerate() {
            debug_assert_ne!(
                self.epoch[l as usize], self.gen,
                "records of distinct components share no link"
            );
            self.epoch[l as usize] = self.gen;
            self.slot[l as usize] = s as u32;
        }
    }

    /// Record slot of `link`, if the flush loaded a record holding it.
    fn get(&self, link: usize) -> Option<usize> {
        (self.epoch[link] == self.gen).then(|| self.slot[link] as usize)
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slot.capacity() * size_of::<u32>() + self.epoch.capacity() * size_of::<u64>()
    }
}

/// Sentinel for "this link never popped as a bottleneck" in
/// [`FillRecord::pop_round`].
const NO_ROUND: u32 = u32::MAX;

/// One saturation round of a recorded component fill: `link` popped as the
/// bottleneck at fair share `share`, freezing the flows
/// `frozen[prev.frozen_end..frozen_end]` of the owning record.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct FillRound {
    link: u32,
    share: f64,
    frozen_end: u32,
}

/// The persisted bottleneck sequence of one component's last progressive
/// fill, keyed by the union–find component epoch
/// (`LinkComponents::key_of_root`). This is what makes a warm start
/// possible: because the fill is a pure function of the flow set with
/// link-index tie-breaking, the recorded prefix of saturation rounds that a
/// change cannot affect is *bit-identical* to the corresponding prefix of a
/// cold fill of the changed flow set — so the next flush replays only the
/// suffix, seeded from the recorded residual capacities.
///
/// Invariant: after every flush of the component, the record is exactly
/// what a cold recorded fill of the component's current live flow set
/// would have produced (up to within-round `frozen` order, which nothing
/// consumes) — warm flushes maintain this by truncating the replaced
/// suffix and appending the replayed one, which is why records compose
/// across arbitrarily long churn sequences.
#[derive(Debug, Default, Serialize, Deserialize)]
struct FillRecord {
    /// Component epoch this record was made under; a mismatch against the
    /// current `key_of_root` (component merged, or region rebuilt) kills
    /// the record.
    key: u64,
    /// The saturation rounds in pop order; shares are non-decreasing
    /// (progressive filling's pop sequence is monotone), which is what the
    /// resume-level binary search relies on.
    rounds: Vec<FillRound>,
    /// Every flow fixed by the recorded fill, concatenated round by round
    /// (`FillRound::frozen_end` delimits). A prefix cut of this list is the
    /// set of flows a warm start leaves untouched.
    frozen: Vec<FlowId>,
    /// Every link the recorded fill seeded (global link ids); the parallel
    /// vectors below are indexed by position in this list ("record slots").
    links: Vec<u32>,
    /// Per record slot: live flows crossing the link as of the record's
    /// fill — the seed of the resume-level σ rule (a *higher* current count
    /// means net arrivals put the link's fresh fair share below recorded
    /// levels, bounding where the recorded sequence can first change).
    seed_unfixed: Vec<u32>,
    /// Per record slot: the round at which the link popped as bottleneck
    /// ([`NO_ROUND`] if it never did). A dirty link's pop round bounds the
    /// resume level from above: the round that froze a departed flow — and
    /// every later one — must be replayed.
    pop_round: Vec<u32>,
    /// Per record slot: residual-capacity history `(k, capacity after the
    /// first k rounds)`, first entry `(0, full capacity)`. Restoring "the
    /// state just before round k*" is a tail-truncation plus last-entry
    /// read — stored values, not re-derived arithmetic, so the restore is
    /// bit-exact (re-adding suffix shares would not be: float addition
    /// does not undo the recorded subtractions).
    hist: Vec<Vec<(u32, f64)>>,
}

impl FillRecord {
    /// Heap bytes held by this record (the boxed struct plus its vectors),
    /// for [`Network::memory_footprint`] telemetry.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<FillRecord>()
            + self.rounds.capacity() * size_of::<FillRound>()
            + self.frozen.capacity() * size_of::<FlowId>()
            + self.links.capacity() * size_of::<u32>()
            + self.seed_unfixed.capacity() * size_of::<u32>()
            + self.pop_round.capacity() * size_of::<u32>()
            + self.hist.capacity() * size_of::<Vec<(u32, f64)>>()
            + self
                .hist
                .iter()
                .map(|h| h.capacity() * size_of::<(u32, f64)>())
                .sum::<usize>()
    }

    /// First recorded round that a fresh queue entry `(share, link)` could
    /// preempt. Rounds strictly lex-below `(share, link)` pop before the
    /// entry can (per-link fair shares only ever grow as the fill
    /// progresses, so the entry's key never drops below `share`); the
    /// first round lex-above it is where the recorded sequence can first
    /// change. Recorded shares are non-decreasing, so binary-search the
    /// share, then resolve the equal-share run by the fill's link-index
    /// tie-break.
    fn first_preemptable_round(&self, share: f64, link: usize) -> usize {
        let mut i = self.rounds.partition_point(|r| r.share < share);
        while i < self.rounds.len() && self.rounds[i].share == share {
            if self.rounds[i].link as usize > link {
                return i;
            }
            i += 1;
        }
        i
    }
}

/// One component fill of a warm-start flush: a dirty root, its record (cold
/// fills start from a fresh one), the resume level, the participant flows
/// (recorded suffix survivors plus arrivals since the record — for a cold
/// fill, the whole gathered component) and, once the fill ran, their rates.
/// A task owns no fill tables: it runs on the flush's one [`FillScratch`].
/// Each task is exactly one component, because the record describes one.
#[derive(Debug, Default)]
struct WarmTask {
    /// The component's root link.
    root: u32,
    /// The component's record, moved in for the duration of the flush
    /// (appended to by the fill) and moved back at merge.
    rec: Option<Box<FillRecord>>,
    /// Resume level: recorded rounds `0..k_star` are kept verbatim, rounds
    /// `k_star..` are truncated and replayed. Zero for cold fills.
    k_star: u32,
    /// Participant slot indices (suffix survivors + arrivals, any order —
    /// the fill is order-independent).
    flows: Vec<u32>,
    /// The rate the fill assigned to each participant, parallel to `flows`.
    rates: Vec<f64>,
    /// Whether this flush resumed from a prior record. A warm task's
    /// participant list must be completed from the arrival log (the record
    /// cannot know about flows that arrived after it was made); a cold
    /// task's gathered list already holds every attached live flow.
    warm: bool,
}

impl WarmTask {
    /// Heap bytes held by this task's participant and rate lists (the
    /// record is accounted under `warm_bytes` — it lives in `warm_records`
    /// between flushes), for [`MemoryFootprint::scratch_bytes`].
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.flows.capacity() * size_of::<u32>() + self.rates.capacity() * size_of::<f64>()
    }

    /// Resume progressive filling from `k_star`: truncate the record's
    /// replaced suffix, seed the participants with the prefix's residual
    /// capacities restored from the record, and replay the fill while
    /// re-recording it. With `k_star == 0` and a fresh record this *is* a
    /// cold recorded fill.
    ///
    /// The warm ≡ cold and warm vs baseline checks in `tests/props.rs` pin
    /// the arithmetic: any change to the seeding, the dust rule or the
    /// link-index tie-breaking shows there.
    fn run(
        &mut self,
        s: &mut FillScratch,
        slots: &[Slot],
        link_flows: &[Vec<u32>],
        links: &[crate::platform::Link],
        rec_slots: &RecordSlots,
    ) {
        let mut rec = self.rec.take().expect("task holds its record");
        let k = self.k_star as usize;
        let cut = if k == 0 {
            0
        } else {
            rec.rounds[k - 1].frozen_end as usize
        };
        // Truncate everything the replay supersedes: rounds ≥ k*, the flows
        // they froze, the capacity-history tails they wrote, and the pop
        // marks of links that popped in the replaced suffix. Also refresh
        // every record link's seed count to the current incidence size —
        // after this flush the record must describe a fill of the *current*
        // flow set (counts cannot change mid-flush; departures already left
        // the incidence lists and arrivals already joined them).
        rec.rounds.truncate(k);
        rec.frozen.truncate(cut);
        for s in 0..rec.links.len() {
            let l = rec.links[s] as usize;
            let h = &mut rec.hist[s];
            while h.last().is_some_and(|&(r, _)| r as usize > k) {
                h.pop();
            }
            if rec.pop_round[s] != NO_ROUND && rec.pop_round[s] as usize >= k {
                rec.pop_round[s] = NO_ROUND;
            }
            rec.seed_unfixed[s] = link_flows[l].len() as u32;
        }
        // Seed the participants. A link's restored capacity is the last
        // surviving history entry (= its residual after the kept prefix,
        // bit-exact); links the record has never seen carried no flow when
        // it was made — no prefix round touched them — so they enter at
        // full capacity and are registered on the spot.
        s.ensure(links.len(), slots.len());
        s.epoch += 1;
        let epoch = s.epoch;
        s.touched_links.clear();
        let mut unfixed_flows = 0usize;
        for &slot_idx in &self.flows {
            let si = slot_idx as usize;
            let f = slots[si].state.as_ref().expect("participants are live");
            s.part[si] = epoch;
            s.flow_fixed[si] = 0;
            s.flow_rate[si] = 0.0;
            unfixed_flows += 1;
            for &l in &f.route.links {
                if s.link_epoch[l] != epoch {
                    s.link_epoch[l] = epoch;
                    let rs = rec_slots.get(l).unwrap_or_else(|| {
                        let full = links[l].bandwidth.bytes_per_sec();
                        rec.links.push(l as u32);
                        rec.seed_unfixed.push(link_flows[l].len() as u32);
                        rec.pop_round.push(NO_ROUND);
                        rec.hist.push(vec![(0, full)]);
                        rec.links.len() - 1
                    });
                    s.link_capacity[l] = rec.hist[rs].last().expect("hist keeps its seed entry").1;
                    s.link_slot[l] = rs as u32;
                    s.link_unfixed[l] = 0;
                    s.touched_links.push(l);
                }
                s.link_unfixed[l] += 1;
            }
        }
        s.queue
            .seed(&s.touched_links, &s.link_capacity, &s.link_unfixed);
        while unfixed_flows > 0 {
            let Some((bottleneck, share)) = s.queue.pop_min() else {
                break;
            };
            let round_idx = rec.rounds.len() as u32;
            s.fill_round += 1;
            let round = s.fill_round;
            s.affected.clear();
            let mut fixed = 0usize;
            for &slot_idx in &link_flows[bottleneck] {
                let si = slot_idx as usize;
                if s.part[si] != epoch || s.flow_fixed[si] == epoch {
                    continue;
                }
                s.flow_fixed[si] = epoch;
                // Float cancellation in the capacity subtractions can leave
                // a link with dust capacity; a "fair share" of dust is not a
                // real allocation. Treat it as starvation (rate 0, no event)
                // — the flow is revived by the next genuine rebalance —
                // instead of scheduling a completion centuries out.
                s.flow_rate[si] = if share < MIN_RATE { 0.0 } else { share };
                fixed += 1;
                let f = slots[si].state.as_ref().expect("participants are live");
                rec.frozen.push(f.id);
                for &l in &f.route.links {
                    s.link_capacity[l] = (s.link_capacity[l] - share).max(0.0);
                    s.link_unfixed[l] -= 1;
                    if s.link_round[l] != round {
                        s.link_round[l] = round;
                        s.affected.push(l);
                    }
                }
            }
            debug_assert!(fixed > 0, "a popped bottleneck fixes at least one flow");
            unfixed_flows -= fixed;
            rec.rounds.push(FillRound {
                link: bottleneck as u32,
                share,
                frozen_end: rec.frozen.len() as u32,
            });
            debug_assert_eq!(
                s.link_epoch[bottleneck], epoch,
                "popped links were seeded, hence registered"
            );
            let bs = s.link_slot[bottleneck] as usize;
            debug_assert_eq!(
                rec.pop_round[bs], NO_ROUND,
                "links that popped in the kept prefix carry no replay flows"
            );
            rec.pop_round[bs] = round_idx;
            for i in 0..s.affected.len() {
                let l = s.affected[i];
                debug_assert_eq!(
                    s.link_epoch[l], epoch,
                    "affected links were seeded, hence registered"
                );
                let rs = s.link_slot[l] as usize;
                rec.hist[rs].push((round_idx + 1, s.link_capacity[l]));
                if l == bottleneck {
                    continue;
                }
                let n = s.link_unfixed[l];
                if n == 0 {
                    s.queue.remove(l);
                } else {
                    s.queue.set(l, s.link_capacity[l] / n as f64);
                }
            }
        }
        s.queue.clear();
        self.rates.clear();
        self.rates
            .extend(self.flows.iter().map(|&si| s.flow_rate[si as usize]));
        self.rec = Some(rec);
    }
}

/// The flow-level network simulator state.
#[derive(Debug)]
pub struct Network {
    platform: Platform,
    mode: SharingMode,
    /// Slab flow table; `FlowId::slot()` indexes it directly.
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    live_flows: usize,
    /// Slot indices of currently *active* (draining) flows.
    active: Vec<u32>,
    /// Per directed link (indexed like `Platform::links`): slot indices of
    /// the active flows crossing it. Maintained incrementally.
    link_flows: Vec<Vec<u32>>,
    /// Flush epoch: stamps `comp_stamp` and `FlowState::comp_epoch`.
    epoch: u64,
    /// Link connectivity: union–find plus per-component flow lists,
    /// maintained on activate.
    comp: LinkComponents,
    /// Links whose flow set changed since the last flush, deduplicated via
    /// `dirty_mark[l] == dirty_gen`.
    dirty_links: Vec<usize>,
    dirty_mark: Vec<u64>,
    dirty_gen: u64,
    /// Scratch: epoch stamp per link marking already-gathered component roots.
    comp_stamp: Vec<u64>,
    /// Scratch: the task index of each dirty root, per link (valid where
    /// `comp_stamp` carries the flush epoch), so a dirty link or an arrival
    /// finds its task in O(1).
    root_task: Vec<u32>,
    /// Scratch: the distinct component roots of the current flush.
    dirty_roots: Vec<usize>,
    /// Scratch: the flow ids gathered from dirty components.
    comp_raw: Vec<FlowId>,
    /// Scratch: slot indices of the flows a dirty flush recomputes, ordered
    /// like `active` (so reschedules happen in the same order a full
    /// recompute would produce — equal-timestamp FIFO order is observable).
    comp_flows: Vec<u32>,
    /// Per-root fill records, indexed by root link (`None` for non-roots,
    /// never-filled components, and invalidated records).
    warm_records: Vec<Option<Box<FillRecord>>>,
    /// Flows activated since the last flush: a warm start never gathers
    /// its component's flow list, so arrivals reach the fill through this
    /// log instead. Cleared every flush — every
    /// arrival dirties its links, so its component is always flushed by
    /// the very flush that consumes the log.
    warm_arrivals: Vec<FlowId>,
    /// Per-component fill tasks (reused across flushes; grown to the
    /// dirty-root count on demand). They hold participant and rate lists
    /// only — the fill tables live in `fill_scratch`.
    warm_tasks: Vec<WarmTask>,
    /// The fill tables every component fill of a flush runs on.
    fill_scratch: FillScratch,
    /// The current warm flush's link → record-slot map.
    rec_slots: RecordSlots,
    /// Scratch: `(task index, link)` pairs grouping this flush's dirty
    /// links by dirty root, sorted by task, for the resume-level
    /// computation.
    warm_dirty: Vec<(u32, u32)>,
    /// Dirty-flush telemetry (see [`Network::flush_stats`]).
    flush_stats: FlushStats,
    /// True while a [`NetEvent::Rebalance`] sentinel is pending at the
    /// current instant (reset when it fires; sentinels never cross
    /// timestamps, so no time needs to be stored).
    rebalance_pending: bool,
    stats: NetStats,
}

impl Network {
    /// Wrap a platform in a network simulator.
    pub fn new(platform: Platform, mode: SharingMode) -> Self {
        let link_count = platform.links().len();
        Network {
            platform,
            mode,
            slots: Vec::new(),
            free_slots: Vec::new(),
            live_flows: 0,
            active: Vec::new(),
            link_flows: vec![Vec::new(); link_count],
            epoch: 0,
            comp: LinkComponents::new(link_count),
            dirty_links: Vec::new(),
            dirty_mark: vec![0; link_count],
            dirty_gen: 1,
            comp_stamp: vec![0; link_count],
            root_task: vec![0; link_count],
            dirty_roots: Vec::new(),
            flush_stats: FlushStats::default(),
            comp_raw: Vec::new(),
            comp_flows: Vec::new(),
            warm_records: {
                let mut v = Vec::new();
                v.resize_with(link_count, || None);
                v
            },
            warm_arrivals: Vec::new(),
            warm_tasks: Vec::new(),
            fill_scratch: FillScratch::default(),
            rec_slots: RecordSlots::default(),
            warm_dirty: Vec::new(),
            rebalance_pending: false,
            stats: NetStats {
                link_bytes: vec![0; link_count],
                ..NetStats::default()
            },
        }
    }

    /// Telemetry of the engine's flushes.
    pub fn flush_stats(&self) -> FlushStats {
        self.flush_stats
    }

    /// Drop every component's persisted fill record, forcing the next flush
    /// of each component to run cold. Rates are
    /// unaffected — a cold fill re-derives the identical allocation — so
    /// this is purely a safety valve for drivers that rewrite simulation
    /// state out of band (scripted topology changes, mass-failure
    /// injection). The engine's own correctness never depends on being
    /// told: records are keyed by the union–find component epoch and die
    /// with it, and every in-band arrival/departure bounds the resume
    /// level itself. Dropped records count toward
    /// [`FlushStats::warm_invalidations`].
    pub fn invalidate_fill_records(&mut self) {
        for r in &mut self.warm_records {
            if r.take().is_some() {
                self.flush_stats.warm_invalidations += 1;
            }
        }
    }

    /// The recorded bottleneck sequence for the component containing
    /// `link`, as `(link, fair share)` pairs in pop order — `None` when no
    /// current record exists (never filled, key expired by a merge, or
    /// invalidated).
    /// Introspection for telemetry and the resume-level boundary tests; the
    /// engine itself never reads records through this.
    pub fn fill_record_rounds(&mut self, link: usize) -> Option<Vec<(usize, f64)>> {
        let root = self.comp.find(link);
        let key = self.comp.key_of_root(root);
        let rec = self.warm_records[root].as_ref()?;
        (rec.key == key).then(|| {
            rec.rounds
                .iter()
                .map(|r| (r.link as usize, r.share))
                .collect()
        })
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Mutable access to the platform (route cache lives there).
    pub fn platform_mut(&mut self) -> &mut Platform {
        &mut self.platform
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The configured sharing mode.
    pub fn mode(&self) -> SharingMode {
        self.mode
    }

    /// Number of flows currently in flight (activated or not).
    pub fn flows_in_flight(&self) -> usize {
        self.live_flows
    }

    /// The caller tokens of the flows in flight, in slot order.
    pub(crate) fn flow_tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.state.as_ref())
            .map(|f| f.token)
    }

    /// The caller token and wire size of flow `id`, if it is in flight.
    pub(crate) fn flow_token(&self, id: FlowId) -> Option<(u64, DataSize)> {
        self.flow(id).map(|f| (f.token, f.size))
    }

    /// The pending completion of flow `id`: `None` if the flow is not in
    /// flight, `Some(None)` if it has no completion scheduled.
    pub(crate) fn completion_of(&self, id: FlowId) -> Option<Option<EventId>> {
        self.flow(id).map(|f| f.completion)
    }

    /// Number of flows in flight with a completion scheduled.
    pub(crate) fn scheduled_completions(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.state.as_ref())
            .filter(|f| f.completion.is_some())
            .count()
    }

    /// Resolve a flow id against the slab (generation-checked).
    fn flow(&self, id: FlowId) -> Option<&FlowState> {
        let slot = self.slots.get(id.slot() as usize)?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.state.as_ref()
    }

    fn flow_mut(&mut self, id: FlowId) -> Option<&mut FlowState> {
        let slot = self.slots.get_mut(id.slot() as usize)?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.state.as_mut()
    }

    /// Analytic one-way delivery delay of a small control message, without
    /// creating a flow: `Σ latency + size / bottleneck`.
    ///
    /// ```
    /// use netsim::{cluster_bordeplage, HostSpec, Network, SharingMode};
    /// use p2p_common::DataSize;
    ///
    /// let topo = cluster_bordeplage(4, HostSpec::default());
    /// let mut net = Network::new(topo.platform.clone(), SharingMode::Bottleneck);
    ///
    /// // Same rack: two 1 Gbps NIC hops at 100 µs each.
    /// let d = net.message_delay(topo.hosts[0], topo.hosts[1], DataSize::from_bytes(1250));
    /// assert_eq!(d.as_nanos(), 200_000 + 10_000); // 2 × latency + 1250 B / 125 MB/s
    /// assert_eq!(net.stats().control_messages, 1);
    /// ```
    pub fn message_delay(&mut self, src: HostId, dst: HostId, size: DataSize) -> SimDuration {
        self.stats.control_messages += 1;
        if src == dst {
            return SimDuration::ZERO;
        }
        let route = self.platform.route(src, dst);
        route.analytic_transfer_time(size)
    }

    /// Start a bulk transfer of `size` bytes from `src` to `dst`. The caller
    /// receives back a [`FlowDelivery`] carrying `token` from
    /// [`Network::on_event`] when the transfer completes.
    pub fn start_flow<E: From<NetEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        src: HostId,
        dst: HostId,
        size: DataSize,
        token: u64,
    ) -> FlowId {
        self.stats.flows_started += 1;
        self.live_flows += 1;
        let route = self.platform.route(src, dst);
        let now = sched.now();
        // Allocate a slab slot (recycle if possible).
        let slot_idx = match self.free_slots.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    state: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot_idx as usize].generation;
        let id = FlowId::from_parts(slot_idx, generation);
        let completion = match self.mode {
            // No interaction between flows: the one event is the completion,
            // at the analytic time.
            SharingMode::Bottleneck => schedule_in_range(
                sched,
                route.analytic_transfer_time(size),
                NetEvent::FlowCompletion { flow: id },
            ),
            // The flow starts competing for bandwidth after the route
            // latency (pipe-fill delay).
            SharingMode::MaxMinFair => {
                schedule_in_range(sched, route.latency, NetEvent::FlowActivate { flow: id });
                None
            }
        };
        self.slots[slot_idx as usize].state = Some(FlowState {
            id,
            src,
            dst,
            token,
            size,
            route,
            remaining: size.bytes() as f64,
            rate: 0.0,
            last_progress: now,
            active: false,
            completion,
            active_pos: 0,
            link_pos: Box::default(),
            comp_epoch: 0,
            new_rate: 0.0,
        });
        id
    }

    /// Feed a [`NetEvent`] back to the network. Returns the delivery that
    /// became final at the current time, if any: one event finishes at most
    /// one flow.
    pub fn on_event<E: From<NetEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        event: NetEvent,
    ) -> Option<FlowDelivery> {
        match (self.mode, event) {
            (SharingMode::Bottleneck, NetEvent::FlowCompletion { flow, .. }) => {
                let state = self.take_flow(flow)?;
                Some(self.finish_flow(state))
            }
            (SharingMode::Bottleneck, NetEvent::FlowActivate { .. }) => None,
            (_, NetEvent::Rebalance) => {
                // The batched flush of every rebalance requested at this
                // instant (never scheduled in Bottleneck mode).
                self.rebalance_pending = false;
                self.rebalance(sched);
                None
            }
            (SharingMode::MaxMinFair, NetEvent::FlowActivate { flow }) => {
                self.activate_flow(sched, flow);
                None
            }
            (SharingMode::MaxMinFair, NetEvent::FlowCompletion { flow }) => {
                self.complete_flow(sched, flow)
            }
        }
    }

    /// React to a change of the active flow set: coalesce into one batched
    /// pass at the current instant.
    fn request_rebalance<E: From<NetEvent>>(&mut self, sched: &mut Scheduler<E>) {
        if !self.rebalance_pending {
            self.rebalance_pending = true;
            sched.schedule_at(sched.now(), NetEvent::Rebalance.into());
        }
    }

    /// Record that `links`' flow sets changed since the last flush.
    fn mark_dirty(&mut self, links: &[usize]) {
        for &l in links {
            if self.dirty_mark[l] != self.dirty_gen {
                self.dirty_mark[l] = self.dirty_gen;
                self.dirty_links.push(l);
            }
        }
    }

    /// Handle a `FlowActivate`: enter the incidence structure and rebalance.
    fn activate_flow<E: From<NetEvent>>(&mut self, sched: &mut Scheduler<E>, flow: FlowId) {
        let now = sched.now();
        let slot_idx = flow.slot();
        let active_pos = self.active.len() as u32;
        let loopback = {
            let Some(f) = self.flow_mut(flow) else {
                return;
            };
            f.active = true;
            f.last_progress = now;
            f.active_pos = active_pos;
            if f.route.links.is_empty() {
                // Loopback transfer: drained as soon as it is active. It
                // holds no link capacity, so it skips the rebalance.
                f.remaining = 0.0;
                f.rate = LOOPBACK_RATE;
                true
            } else {
                false
            }
        };
        self.active.push(slot_idx);
        if loopback {
            let id = sched.schedule_at(now, NetEvent::FlowCompletion { flow }.into());
            self.flow_mut(flow).expect("flow just observed").completion = Some(id);
            return;
        }
        let route = Arc::clone(
            &self.slots[slot_idx as usize]
                .state
                .as_ref()
                .expect("flow just observed")
                .route,
        );
        // Attach: one incidence-list entry and one back-pointer per hop.
        let link_pos: Box<[u32]> = route
            .links
            .iter()
            .map(|&l| {
                let list = &mut self.link_flows[l];
                list.push(slot_idx);
                (list.len() - 1) as u32
            })
            .collect();
        self.slots[slot_idx as usize]
            .state
            .as_mut()
            .expect("flow just observed")
            .link_pos = link_pos;
        self.comp.attach(&route.links, flow);
        self.mark_dirty(&route.links);
        self.warm_arrivals.push(flow);
        self.request_rebalance(sched);
    }

    /// Handle a `FlowCompletion`: finish the flow. The event is the flow's
    /// current completion, since a superseded one is cancelled.
    fn complete_flow<E: From<NetEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        flow: FlowId,
    ) -> Option<FlowDelivery> {
        let now = sched.now();
        let f = self.flow_mut(flow)?;
        f.completion = None;
        progress_to(f, now);
        if f.remaining > DRAIN_EPSILON {
            // Paranoia against floating-point slack (the ceil in `drain_eta`
            // makes this unreachable in practice): reschedule at the
            // corrected drain time at the same rate — unless that is below
            // the clock's resolution, in which case the flow is drained for
            // every observable purpose.
            if f.rate <= 0.0 {
                return None; // starved; a rebalance will reschedule it
            }
            let eta = drain_eta(f.remaining, f.rate);
            if eta > SimDuration::ZERO {
                f.completion = schedule_in_range(sched, eta, NetEvent::FlowCompletion { flow });
                return None;
            }
        }
        self.detach_active(flow.slot());
        let state = self.take_flow(flow).expect("flow just observed");
        // The departed flow's links must be re-filled at the flush this
        // requests; its component-list entry goes stale (a later gather
        // reclaims it) and its component's live count drops now.
        if !state.route.links.is_empty() {
            self.comp.detach_one(state.route.links[0]);
            self.mark_dirty(&state.route.links);
        }
        let delivery = self.finish_flow(state);
        self.request_rebalance(sched);
        Some(delivery)
    }

    /// Remove a flow from the active list and the link incidence lists,
    /// fixing the back-pointers of the entries swapped into its places.
    fn detach_active(&mut self, slot_idx: u32) {
        let (active_pos, route, link_pos) = {
            let f = self.slots[slot_idx as usize]
                .state
                .as_mut()
                .expect("detaching a live flow");
            // The flow is destroyed by `take_flow` right after, so its
            // back-pointer vector can be taken rather than cloned.
            (
                f.active_pos as usize,
                Arc::clone(&f.route),
                std::mem::take(&mut f.link_pos),
            )
        };
        // Active list: swap-remove + back-pointer fix.
        self.active.swap_remove(active_pos);
        if let Some(&moved) = self.active.get(active_pos) {
            self.slots[moved as usize]
                .state
                .as_mut()
                .expect("active flows are live")
                .active_pos = active_pos as u32;
        }
        // Incidence lists: swap-remove at the recorded position per hop.
        for (&l, &pos) in route.links.iter().zip(&link_pos) {
            let list = &mut self.link_flows[l];
            list.swap_remove(pos as usize);
            if let Some(&moved) = list.get(pos as usize) {
                // The moved flow crosses link `l` at some hop: update that
                // hop's back-pointer (routes are a handful of links, so the
                // linear scan is cheap).
                let moved_state = self.slots[moved as usize]
                    .state
                    .as_mut()
                    .expect("incident flows are live");
                let hop = moved_state
                    .route
                    .links
                    .iter()
                    .position(|&ml| ml == l)
                    .expect("moved flow crosses the link it was listed on");
                moved_state.link_pos[hop] = pos;
            }
        }
    }

    /// Remove a flow from the slab, recycling its slot.
    fn take_flow(&mut self, id: FlowId) -> Option<FlowState> {
        let slot = self.slots.get_mut(id.slot() as usize)?;
        if slot.generation != id.generation() {
            return None;
        }
        let state = slot.state.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free_slots.push(id.slot());
        self.live_flows -= 1;
        Some(state)
    }

    fn finish_flow(&mut self, state: FlowState) -> FlowDelivery {
        self.stats.flows_completed += 1;
        // Byte totals saturate: a few flows near `u64::MAX` bytes (accepted
        // input, however absurd) must not overflow the telemetry.
        self.stats.bytes_delivered = self
            .stats
            .bytes_delivered
            .saturating_add(state.size.bytes());
        for &l in &state.route.links {
            self.stats.link_bytes[l] = self.stats.link_bytes[l].saturating_add(state.size.bytes());
        }
        FlowDelivery {
            flow: state.id,
            token: state.token,
            src: state.src,
            dst: state.dst,
            size: state.size,
        }
    }

    /// Recompute max–min rates for the dirty component(s) and reschedule
    /// completions — but only for the flows whose rate actually changed.
    fn rebalance<E: From<NetEvent>>(&mut self, sched: &mut Scheduler<E>) {
        let now = sched.now();
        if !self.recompute_rates_dirty() {
            return; // nothing dirty: no rate can have changed
        }
        let walk = std::mem::take(&mut self.comp_flows);
        for &slot_idx in &walk {
            self.reschedule_if_changed(sched, slot_idx as usize, now);
        }
        self.comp_flows = walk;
    }

    /// Apply one flow's freshly computed `new_rate`: if it differs from the
    /// current rate, bring the drain up to date, cancel the pending
    /// completion and schedule the new one.
    fn reschedule_if_changed<E: From<NetEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        slot_idx: usize,
        now: SimTime,
    ) {
        let f = self.slots[slot_idx]
            .state
            .as_mut()
            .expect("active flows are live");
        let old = f.rate;
        let new = f.new_rate;
        // Exact comparison on purpose: the fill is deterministic and
        // independent of seeding order (bottleneck ties break by link
        // index), so a flow whose allocation truly did not change
        // re-derives the *bit-identical* rate. A relative epsilon here would
        // freeze whatever intermediate rate an earlier flush happened to
        // assign first, making the final rate path-dependent — which is
        // exactly what would break the warm ≡ cold guarantee.
        if new == old {
            return;
        }
        // Bring the drain up to date under the old rate, then switch.
        progress_to(f, now);
        f.rate = new;
        if let Some(stale) = f.completion.take() {
            sched.cancel(stale);
        }
        let eta = if f.remaining <= DRAIN_EPSILON {
            SimDuration::ZERO
        } else if new <= 0.0 {
            return; // starved; rescheduled when a rebalance feeds it
        } else {
            drain_eta(f.remaining, new)
        };
        f.completion = schedule_in_range(sched, eta, NetEvent::FlowCompletion { flow: f.id });
    }

    /// Dirty-component–limited progressive filling: resolve the components
    /// containing a dirty link and refill just those (`flush_warm`).
    /// Returns `false` when nothing was dirty (no fill ran — no active
    /// flow's rate can have changed, because rates outside the dirty
    /// components are a function of state that did not change).
    ///
    /// The resolved set is *conservative*: union–find cannot split, so a
    /// component may still span flows that a departed flow used to bridge.
    /// Recomputing a superset is harmless — the fill is a pure function of
    /// each true component's flow set, so unbridged flows re-derive
    /// bit-identical rates and are not rescheduled.
    fn recompute_rates_dirty(&mut self) -> bool {
        if self.dirty_links.is_empty() {
            return false;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        // Resolve the distinct dirty component roots, one task each, and
        // group the dirty links by task (resolving each link once).
        self.dirty_roots.clear();
        self.warm_dirty.clear();
        for i in 0..self.dirty_links.len() {
            let l = self.dirty_links[i];
            let root = self.comp.find(l);
            if self.comp_stamp[root] != epoch {
                self.comp_stamp[root] = epoch;
                self.root_task[root] = self.dirty_roots.len() as u32;
                self.dirty_roots.push(root);
            }
            self.warm_dirty.push((self.root_task[root], l as u32));
        }
        self.warm_dirty.sort_unstable();
        self.flush_warm(epoch);
        self.dirty_links.clear();
        self.dirty_gen += 1;
        self.warm_arrivals.clear();
        true
    }

    /// The flush proper: one [`WarmTask`] per dirty component,
    /// each resuming progressive filling from its persisted `FillRecord`
    /// when the record's component key still matches (the component has not
    /// merged since), or running a cold *recorded* fill of the gathered
    /// component otherwise. The tasks run one after another on the one
    /// [`FillScratch`].
    ///
    /// The resume level k* is the minimum over the component's dirty links
    /// of two bounds (see ARCHITECTURE.md for the proofs):
    ///
    /// * the link's recorded pop round — a departure on the link can only
    ///   change rounds from the one that froze it onward, and that round is
    ///   at most the pop round of every route link (the freeze round *is*
    ///   the first such pop);
    /// * when the link's current flow count exceeds its recorded seed
    ///   count (net arrivals), the first recorded round lex-≥ the link's
    ///   fresh fair share `(full capacity / new count, link)` — rounds
    ///   strictly below that key pop before the re-seeded link possibly
    ///   can, because per-link fair shares only grow as the fill fixes
    ///   flows. (For net departures this bound is wrong — the stale, larger
    ///   σ proves nothing — but the pop-round bound already covers them.)
    ///
    /// Every round below k* has its bottleneck outside the dirty set, so
    /// the recorded prefix is bit-identical to the prefix a cold fill of
    /// the current flow set would produce: its flows keep their rates and
    /// scheduled completions *without even being walked* — they are absent
    /// from `comp_flows`, which is the engine's entire speedup.
    fn flush_warm(&mut self, epoch: u64) {
        self.flush_stats.flushes += 1;
        let n_tasks = self.dirty_roots.len();
        while self.warm_tasks.len() < n_tasks {
            self.warm_tasks.push(WarmTask::default());
        }
        // One map generation covers every record of the flush (they belong
        // to distinct components, so their links are disjoint).
        self.rec_slots.begin(self.link_flows.len());
        let mut total = 0usize;
        // `warm_dirty` is sorted by task, and every task has a dirty link.
        let mut dirty_start = 0usize;
        for t in 0..n_tasks {
            let dirty_end = self.warm_dirty.partition_point(|&(ti, _)| ti as usize <= t);
            let dirty = dirty_start..dirty_end;
            dirty_start = dirty_end;
            let root = self.dirty_roots[t];
            let mut task = std::mem::take(&mut self.warm_tasks[t]);
            task.root = root as u32;
            task.flows.clear();
            let key = self.comp.key_of_root(root);
            let rec_valid = self.warm_records[root]
                .as_ref()
                .is_some_and(|r| r.key == key);
            if !rec_valid {
                // No record, or the component merged since it was made (the
                // union bumped both keys). Keys come from one monotone
                // counter and are never reused, so a stale record parked on
                // a since-demoted root can never alias a future key — drop
                // silently and run a cold recorded fill over the gathered
                // component. (Gathering also reclaims the root's deferred
                // stale-entry debt.)
                self.warm_records[root] = None;
                task.warm = false;
                let start = self.comp_raw.len();
                {
                    let slots = &self.slots;
                    self.comp.gather(root, &mut self.comp_raw, |id| {
                        slots
                            .get(id.slot() as usize)
                            .is_some_and(|s| s.generation == id.generation() && s.state.is_some())
                    });
                }
                for i in start..self.comp_raw.len() {
                    task.flows.push(self.comp_raw[i].slot());
                }
                self.comp_raw.truncate(start);
                task.rec = Some(Box::new(FillRecord {
                    key,
                    ..FillRecord::default()
                }));
                task.k_star = 0;
            } else {
                task.warm = true;
                // A warm start never gathers, so the component's deferred
                // stale-entry debt would otherwise grow without bound; once
                // it passes the live population, pay one discard-gather
                // (unlinks the stale nodes — touches neither keys nor live
                // flows) to reclaim it.
                if self.comp.stale_of_root(root) > self.comp.live_of_root(root).max(64) {
                    let start = self.comp_raw.len();
                    let slots = &self.slots;
                    self.comp.gather(root, &mut self.comp_raw, |id| {
                        slots
                            .get(id.slot() as usize)
                            .is_some_and(|s| s.generation == id.generation() && s.state.is_some())
                    });
                    self.comp_raw.truncate(start);
                }
                task.rec = self.warm_records[root].take();
                let rec = task.rec.as_ref().expect("warm tasks hold records");
                self.rec_slots.load(rec);
                let mut k = rec.rounds.len();
                for &(_, l) in &self.warm_dirty[dirty] {
                    let l = l as usize;
                    let n_new = self.link_flows[l].len() as u32;
                    if let Some(rs) = self.rec_slots.get(l) {
                        if rec.pop_round[rs] != NO_ROUND {
                            k = k.min(rec.pop_round[rs] as usize);
                        }
                        if n_new > rec.seed_unfixed[rs] {
                            let sigma =
                                self.platform.links()[l].bandwidth.bytes_per_sec() / n_new as f64;
                            k = k.min(rec.first_preemptable_round(sigma, l));
                        }
                    } else if n_new > 0 {
                        // A link the record never saw carried no flows when
                        // it was made; flows on it now are net arrivals.
                        let sigma =
                            self.platform.links()[l].bandwidth.bytes_per_sec() / n_new as f64;
                        k = k.min(rec.first_preemptable_round(sigma, l));
                    }
                }
                task.k_star = k as u32;
                let cut = if k == 0 {
                    0
                } else {
                    rec.rounds[k - 1].frozen_end as usize
                };
                #[cfg(debug_assertions)]
                for &id in &rec.frozen[..cut] {
                    debug_assert!(
                        self.slots.get(id.slot() as usize).is_some_and(|s| {
                            s.generation == id.generation() && s.state.is_some()
                        }),
                        "a departed flow froze at a round ≥ k*, so prefix flows are alive"
                    );
                }
                // Participants: the survivors of the replaced suffix (the
                // departed ones are exactly why it is being replayed)…
                for i in cut..rec.frozen.len() {
                    let id = rec.frozen[i];
                    if self
                        .slots
                        .get(id.slot() as usize)
                        .is_some_and(|s| s.generation == id.generation() && s.state.is_some())
                    {
                        task.flows.push(id.slot());
                    }
                }
                self.flush_stats.warm_starts += 1;
                self.flush_stats.warm_prefix_flows += cut as u64;
                self.flush_stats.warm_resume_rounds += k as u64;
            }
            total += task.flows.len();
            self.warm_tasks[t] = task;
        }
        // …plus every flow that arrived since the records were made (the
        // arrival log; cleared by the caller once the flush is consumed).
        // An arrival's links are dirty, so its component is always among
        // the tasks; cold tasks gathered it already.
        for i in 0..self.warm_arrivals.len() {
            let id = self.warm_arrivals[i];
            let Some(slot) = self.slots.get(id.slot() as usize) else {
                continue;
            };
            if slot.generation != id.generation() {
                continue; // arrived and fully drained before the flush
            }
            let Some(f) = slot.state.as_ref() else {
                continue;
            };
            debug_assert!(!f.route.links.is_empty(), "loopback flows are not logged");
            let root = self.comp.find(f.route.links[0]);
            debug_assert_eq!(
                self.comp_stamp[root], epoch,
                "an arrival's component is dirty"
            );
            let task = &mut self.warm_tasks[self.root_task[root] as usize];
            if task.warm {
                task.flows.push(id.slot());
                total += 1;
            }
        }
        for task in &mut self.warm_tasks[..n_tasks] {
            task.run(
                &mut self.fill_scratch,
                &self.slots,
                &self.link_flows,
                self.platform.links(),
                &self.rec_slots,
            );
        }
        // Merge: store the refreshed records, apply the participant rates
        // and order the reschedule walk like `active` — the kept prefixes'
        // flows appear nowhere in it.
        self.comp_flows.clear();
        for t in 0..n_tasks {
            let task = &mut self.warm_tasks[t];
            let rec = task.rec.take().expect("the fill returns the record");
            self.warm_records[task.root as usize] = Some(rec);
            for (&slot_idx, &rate) in task.flows.iter().zip(&task.rates) {
                let f = self.slots[slot_idx as usize]
                    .state
                    .as_mut()
                    .expect("participants are live");
                f.new_rate = rate;
                f.comp_epoch = epoch;
                self.comp_flows.push(slot_idx);
            }
        }
        self.flush_stats.flushed_flows += total as u64;
        if self.comp_flows.len() * 8 >= self.active.len() {
            self.comp_flows.clear();
            for i in 0..self.active.len() {
                let slot_idx = self.active[i];
                let f = self.slots[slot_idx as usize]
                    .state
                    .as_ref()
                    .expect("active flows are live");
                if f.comp_epoch == epoch {
                    self.comp_flows.push(slot_idx);
                }
            }
        } else {
            let slots = &self.slots;
            self.comp_flows.sort_unstable_by_key(|&s| {
                slots[s as usize]
                    .state
                    .as_ref()
                    .expect("participants are live")
                    .active_pos
            });
        }
    }

    /// Approximate heap bytes held by the engine's persistent state: the
    /// flow slab and every flow's `link_pos` back-pointer slice, the link
    /// incidence lists, the union–find component partition and its dirty
    /// tracking, and the warm-start fill records — i.e. everything a
    /// checkpoint captures. Allocator overhead is not counted; the number
    /// is a comparable telemetry figure, not an RSS prediction.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let slab_bytes = self.slots.capacity() * size_of::<Slot>()
            + self.free_slots.capacity() * size_of::<u32>()
            + self
                .slots
                .iter()
                .filter_map(|s| s.state.as_ref())
                .map(|f| f.link_pos.len() * size_of::<u32>())
                .sum::<usize>();
        let incidence_bytes = self.link_flows.capacity() * size_of::<Vec<u32>>()
            + self
                .link_flows
                .iter()
                .map(|l| l.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.active.capacity() * size_of::<u32>();
        let component_bytes = self.comp.heap_bytes()
            + self.dirty_links.capacity() * size_of::<usize>()
            + self.dirty_mark.capacity() * size_of::<u64>()
            + self.comp_stamp.capacity() * size_of::<u64>()
            + self.root_task.capacity() * size_of::<u32>()
            + self.dirty_roots.capacity() * size_of::<usize>()
            + self.comp_raw.capacity() * size_of::<FlowId>()
            + self.comp_flows.capacity() * size_of::<u32>();
        let warm_bytes = self.warm_records.capacity() * size_of::<Option<Box<FillRecord>>>()
            + self
                .warm_records
                .iter()
                .flatten()
                .map(|r| r.heap_bytes())
                .sum::<usize>()
            + self.warm_arrivals.capacity() * size_of::<FlowId>();
        let scratch_bytes = self.warm_tasks.capacity() * size_of::<WarmTask>()
            + self
                .warm_tasks
                .iter()
                .map(WarmTask::heap_bytes)
                .sum::<usize>()
            + self.fill_scratch.heap_bytes()
            + self.rec_slots.heap_bytes()
            + self.warm_dirty.capacity() * size_of::<(u32, u32)>();
        MemoryFootprint {
            slab_bytes,
            incidence_bytes,
            component_bytes,
            warm_bytes,
            scratch_bytes,
            live_flows: self.live_flows,
        }
    }

    /// Current rate (bytes/s) of a flow, for tests and diagnostics.
    pub fn flow_rate(&self, flow: FlowId) -> Option<f64> {
        self.flow(flow).map(|f| f.rate)
    }

    /// Snapshot of the active flows — `(id, route, rate)` — for invariant
    /// checks and diagnostics.
    pub fn active_flows(&self) -> Vec<(FlowId, Arc<Route>, f64)> {
        self.active
            .iter()
            .map(|&s| {
                let f = self.slots[s as usize]
                    .state
                    .as_ref()
                    .expect("active flows are live");
                (f.id, Arc::clone(&f.route), f.rate)
            })
            .collect()
    }
}

/// Encode one live flow. The route is *not* stored: it is re-derived on
/// restore from `(src, dst)` through the platform's route cache, whose
/// deterministic Dijkstra yields the identical link sequence (and therefore
/// identical sharing behaviour). The fill scratch fields (`fixed_epoch`,
/// `comp_epoch`, `new_rate`) are dead between events — checkpoints happen
/// at event boundaries — and restart at zero.
fn flow_to_value(f: &FlowState) -> Value {
    Value::Object(vec![
        ("id".to_owned(), f.id.to_value()),
        ("src".to_owned(), f.src.to_value()),
        ("dst".to_owned(), f.dst.to_value()),
        ("token".to_owned(), f.token.to_value()),
        ("size".to_owned(), f.size.to_value()),
        ("remaining".to_owned(), f.remaining.to_value()),
        ("rate".to_owned(), f.rate.to_value()),
        ("last_progress".to_owned(), f.last_progress.to_value()),
        ("active".to_owned(), f.active.to_value()),
        (
            "completion".to_owned(),
            f.completion.map(|id| id.0).to_value(),
        ),
        ("active_pos".to_owned(), f.active_pos.to_value()),
        ("link_pos".to_owned(), f.link_pos.as_ref().to_value()),
    ])
}

/// Decode one live flow, re-deriving its route through the restored
/// platform's route cache: flows of one host pair share one [`Arc`], as in
/// the live run, and the cache is warm once the restore is done.
fn flow_from_value(v: &Value, platform: &mut Platform) -> Result<FlowState, DeError> {
    let fields = v
        .as_object()
        .ok_or_else(|| DeError::expected("object", "FlowState", v))?;
    let src: HostId = serde::field(fields, "src", "FlowState")?;
    let dst: HostId = serde::field(fields, "dst", "FlowState")?;
    for h in [src, dst] {
        if h.index() >= platform.host_count() {
            return Err(DeError::msg(format!(
                "FlowState: no route between hosts {src:?} and {dst:?} in the restored \
                 platform ({h} is not a host)"
            )));
        }
    }
    let route = platform.try_route(src, dst).ok_or_else(|| {
        DeError::msg(format!(
            "FlowState: no route between hosts {src:?} and {dst:?} in the restored platform"
        ))
    })?;
    let active: bool = serde::field(fields, "active", "FlowState")?;
    let mut link_pos: Vec<u32> = serde::field(fields, "link_pos", "FlowState")?;
    // An attached flow (active, with links to hold) carries one back-pointer
    // per hop; any other carries none. Older checkpoints stored a zeroed
    // per-hop vector for unattached flows too: accept and drop it.
    let attached = active && !route.links.is_empty();
    if link_pos.len() != route.links.len() && (attached || !link_pos.is_empty()) {
        return Err(DeError::msg(format!(
            "FlowState: link_pos has {} hops but the re-derived route has {}",
            link_pos.len(),
            route.links.len()
        )));
    }
    if !attached {
        link_pos.clear();
    }
    Ok(FlowState {
        id: serde::field(fields, "id", "FlowState")?,
        src,
        dst,
        token: serde::field(fields, "token", "FlowState")?,
        size: serde::field(fields, "size", "FlowState")?,
        route,
        remaining: serde::field(fields, "remaining", "FlowState")?,
        rate: serde::field(fields, "rate", "FlowState")?,
        last_progress: serde::field(fields, "last_progress", "FlowState")?,
        active,
        completion: serde::field::<Option<u64>>(fields, "completion", "FlowState")?.map(EventId),
        active_pos: serde::field(fields, "active_pos", "FlowState")?,
        link_pos: link_pos.into_boxed_slice(),
        comp_epoch: 0,
        new_rate: 0.0,
    })
}

/// Serialization captures every piece of state the simulation's *future*
/// depends on — the slab flow table (routes re-derived, not stored), the
/// link→flow incidence lists, the union–find component index verbatim (the
/// partition is history-dependent and the warm records key on its roots),
/// the pending dirty-link set, the per-component warm-start `FillRecord`s,
/// the arrival log and telemetry counters — and none of the
/// epoch-stamped fill scratch, which is dead between events and restarts
/// zeroed exactly as a fresh `Network` would.
///
/// Warm records are captured rather than dropped deliberately: a restore is
/// a *pause*, not a perturbation. Timestamps would come out identical either
/// way (a cold fill re-derives the same rates), but dropping the records
/// would change `FlushStats` telemetry and post-restore flush costs relative
/// to the uninterrupted run — observable drift the restore-identity suite
/// would have to carve exceptions for.
impl Serialize for Network {
    fn to_value(&self) -> Value {
        let slots: Vec<Value> = self
            .slots
            .iter()
            .map(|slot| {
                Value::Object(vec![
                    ("generation".to_owned(), slot.generation.to_value()),
                    (
                        "flow".to_owned(),
                        match &slot.state {
                            Some(f) => flow_to_value(f),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("platform".to_owned(), self.platform.to_value()),
            ("mode".to_owned(), self.mode.to_value()),
            ("slots".to_owned(), Value::Array(slots)),
            ("free_slots".to_owned(), self.free_slots.to_value()),
            ("active".to_owned(), self.active.to_value()),
            ("link_flows".to_owned(), self.link_flows.to_value()),
            ("comp".to_owned(), self.comp.to_value()),
            ("dirty_links".to_owned(), self.dirty_links.to_value()),
            (
                "rebalance_pending".to_owned(),
                self.rebalance_pending.to_value(),
            ),
            ("warm_records".to_owned(), self.warm_records.to_value()),
            ("warm_arrivals".to_owned(), self.warm_arrivals.to_value()),
            ("flush_stats".to_owned(), self.flush_stats.to_value()),
            ("stats".to_owned(), self.stats.to_value()),
        ])
    }
}

impl Deserialize for Network {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Network", v))?;
        let platform: Platform = serde::field(fields, "platform", "Network")?;
        let mode: SharingMode = serde::field(fields, "mode", "Network")?;
        let mut net = Network::new(platform, mode);
        let link_count = net.platform.links().len();

        let slots_v = fields
            .iter()
            .find(|(k, _)| k == "slots")
            .map(|(_, v)| v)
            .ok_or_else(|| DeError::msg("missing field `slots` while deserializing Network"))?;
        let slot_entries = slots_v
            .as_array()
            .ok_or_else(|| DeError::expected("array", "Network.slots", slots_v))?;
        let mut slots = Vec::with_capacity(slot_entries.len());
        let mut live_flows = 0usize;
        for (idx, entry) in slot_entries.iter().enumerate() {
            let slot_fields = entry
                .as_object()
                .ok_or_else(|| DeError::expected("object", "Network.slots", entry))?;
            let generation: u32 = serde::field(slot_fields, "generation", "Network.slots")?;
            let flow_v = slot_fields
                .iter()
                .find(|(k, _)| k == "flow")
                .map(|(_, v)| v)
                .ok_or_else(|| DeError::msg("Network.slots: missing `flow` field"))?;
            let state = match flow_v {
                Value::Null => None,
                other => {
                    let f = flow_from_value(other, &mut net.platform)?;
                    if f.id != FlowId::from_parts(idx as u32, generation) {
                        return Err(DeError::msg(format!(
                            "Network.slots: flow id {:?} does not match slot {idx} generation {generation}",
                            f.id
                        )));
                    }
                    live_flows += 1;
                    Some(f)
                }
            };
            slots.push(Slot { generation, state });
        }
        net.slots = slots;
        net.live_flows = live_flows;
        net.free_slots = serde::field(fields, "free_slots", "Network")?;
        net.active = serde::field(fields, "active", "Network")?;
        let link_flows: Vec<Vec<u32>> = serde::field(fields, "link_flows", "Network")?;
        if link_flows.len() != link_count {
            return Err(DeError::msg(format!(
                "Network: {} incidence lists for {} platform links",
                link_flows.len(),
                link_count
            )));
        }
        net.link_flows = link_flows;
        net.comp = serde::field(fields, "comp", "Network")?;
        let dirty_links: Vec<usize> = serde::field(fields, "dirty_links", "Network")?;
        for &l in &dirty_links {
            if l >= link_count {
                return Err(DeError::msg(format!(
                    "Network: dirty link {l} outside the platform's {link_count} links"
                )));
            }
            net.dirty_mark[l] = net.dirty_gen;
        }
        net.dirty_links = dirty_links;
        net.rebalance_pending = serde::field(fields, "rebalance_pending", "Network")?;
        let warm_records: Vec<Option<Box<FillRecord>>> =
            serde::field(fields, "warm_records", "Network")?;
        if warm_records.len() != link_count {
            return Err(DeError::msg(format!(
                "Network: {} warm-record slots for {} platform links",
                warm_records.len(),
                link_count
            )));
        }
        net.warm_records = warm_records;
        net.warm_arrivals = serde::field(fields, "warm_arrivals", "Network")?;
        net.flush_stats = serde::field(fields, "flush_stats", "Network")?;
        let stats: NetStats = serde::field(fields, "stats", "Network")?;
        if stats.link_bytes.len() != link_count {
            return Err(DeError::msg(format!(
                "Network: {} link-byte counters for {} platform links",
                stats.link_bytes.len(),
                link_count
            )));
        }
        net.stats = stats;
        Ok(net)
    }
}

/// Time to drain `remaining` bytes at `rate`, rounded **up** to the clock's
/// nanosecond resolution.
///
/// Rounding up matters: with round-to-nearest the scheduled instant can
/// undershoot the true drain time by up to half a nanosecond, leaving a
/// residual above [`DRAIN_EPSILON`] when the completion event fires — which
/// would force a degenerate zero-delay reschedule. Ceiling the conversion
/// guarantees the flow is fully drained when its event fires.
pub(crate) fn drain_eta(remaining: f64, rate: f64) -> SimDuration {
    debug_assert!(rate > 0.0);
    // Cap absurd ETAs well below the clock's range so `now + eta` cannot
    // overflow `SimTime`'s unchecked nanosecond addition (u64::MAX / 4 ns is
    // ~146 simulated years — unreachable by any legitimate workload).
    const ETA_CAP_NS: f64 = (u64::MAX / 4) as f64;
    let ns = (remaining / rate) * 1e9;
    if !ns.is_finite() || ns >= ETA_CAP_NS {
        return SimDuration::from_nanos(u64::MAX / 4);
    }
    SimDuration::from_nanos(ns.ceil().max(0.0) as u64)
}

/// Schedule `event` at `delay` from now, unless that lies past the largest
/// representable instant: such an event could never fire, so it is dropped
/// and its flow stays in flight (like a starved one) instead of overflowing
/// the clock. Returns the event's id if it was scheduled.
fn schedule_in_range<E: From<NetEvent>>(
    sched: &mut Scheduler<E>,
    delay: SimDuration,
    event: NetEvent,
) -> Option<EventId> {
    let at = sched.now().checked_add(delay)?;
    Some(sched.schedule_at(at, event.into()))
}

/// Advance one flow's `remaining` to `now` at its current rate.
///
/// Loopback flows (empty route) skip the elapsed-time arithmetic entirely:
/// they drain to zero at activation and their `remaining` never moves again.
fn progress_to(f: &mut FlowState, now: SimTime) {
    if !f.active || f.route.links.is_empty() {
        f.last_progress = now;
        return;
    }
    let dt = now.duration_since(f.last_progress).as_secs_f64();
    if dt > 0.0 && f.rate > 0.0 {
        f.remaining = (f.remaining - f.rate * dt).max(0.0);
    }
    f.last_progress = now;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{run_world, World};
    use crate::platform::{HostSpec, LinkSpec, PlatformBuilder};
    use p2p_common::Bandwidth;

    /// Minimal world recording flow deliveries.
    struct NetWorld {
        net: Network,
        deliveries: Vec<(SimTime, FlowDelivery)>,
    }

    #[derive(Debug, Clone, Copy, Serialize, Deserialize)]
    enum Ev {
        Net(NetEvent),
    }
    impl From<NetEvent> for Ev {
        fn from(e: NetEvent) -> Self {
            Ev::Net(e)
        }
    }
    impl World for NetWorld {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
            let Ev::Net(ne) = ev;
            let now = sched.now();
            if let Some(d) = self.net.on_event(sched, ne) {
                self.deliveries.push((now, d));
            }
        }
    }

    /// Two hosts joined through one switch: 100 Mbps access links, 100 us each.
    fn dumbbell(mode: SharingMode) -> NetWorld {
        let mut b = PlatformBuilder::new();
        let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
        let sw = b.add_router("sw");
        for i in 0..4 {
            let h = b.add_host(
                format!("h{i}"),
                format!("10.0.0.{}", i + 1).parse().unwrap(),
                HostSpec::default(),
            );
            b.add_host_link(format!("l{i}"), h, sw, spec);
        }
        NetWorld {
            net: Network::new(b.build(), mode),
            deliveries: vec![],
        }
    }

    #[test]
    fn bottleneck_single_flow_timing_is_analytic() {
        let mut w = dumbbell(SharingMode::Bottleneck);
        let mut sched = Scheduler::new();
        // 1.25 MB over 100 Mbps = 100 ms, plus 200 us of latency.
        w.net.start_flow(
            &mut sched,
            HostId::new(0),
            HostId::new(1),
            DataSize::from_bytes(1_250_000),
            7,
        );
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 1);
        let (t, d) = w.deliveries[0];
        assert_eq!(t, SimTime::from_micros(100_200));
        assert_eq!(d.token, 7);
        assert_eq!(d.size, DataSize::from_bytes(1_250_000));
        assert_eq!(w.net.stats().flows_completed, 1);
        assert_eq!(w.net.stats().bytes_delivered, 1_250_000);
    }

    #[test]
    fn maxmin_single_flow_matches_bottleneck() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        w.net.start_flow(
            &mut sched,
            HostId::new(0),
            HostId::new(1),
            DataSize::from_bytes(1_250_000),
            0,
        );
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 1);
        let (t, _) = w.deliveries[0];
        // Pipe-fill model: latency (200us) then drain at 100 Mbps (100ms).
        let expected = SimTime::from_micros(100_200);
        let err = (t.as_secs_f64() - expected.as_secs_f64()).abs();
        assert!(err < 1e-6, "got {t}, expected about {expected}");
    }

    #[test]
    fn maxmin_two_flows_share_a_common_link() {
        // Both flows have h0 as destination, so they share h0's access link.
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let size = DataSize::from_bytes(1_250_000); // 100 ms alone
        w.net
            .start_flow(&mut sched, HostId::new(1), HostId::new(0), size, 1);
        w.net
            .start_flow(&mut sched, HostId::new(2), HostId::new(0), size, 2);
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 2);
        let last = w.deliveries.iter().map(|&(t, _)| t).max().unwrap();
        // Sharing the 100 Mbps ingress link, the pair needs ~200 ms.
        let secs = last.as_secs_f64();
        assert!(secs > 0.19 && secs < 0.22, "two shared flows took {secs}s");
    }

    #[test]
    fn maxmin_disjoint_flows_do_not_interact() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let size = DataSize::from_bytes(1_250_000);
        w.net
            .start_flow(&mut sched, HostId::new(0), HostId::new(1), size, 1);
        w.net
            .start_flow(&mut sched, HostId::new(2), HostId::new(3), size, 2);
        run_world(&mut w, &mut sched, None);
        let last = w.deliveries.iter().map(|&(t, _)| t).max().unwrap();
        let secs = last.as_secs_f64();
        assert!(
            secs < 0.105,
            "disjoint flows must proceed at full rate, took {secs}s"
        );
    }

    #[test]
    fn bottleneck_flows_never_interact_by_construction() {
        let mut w = dumbbell(SharingMode::Bottleneck);
        let mut sched = Scheduler::new();
        let size = DataSize::from_bytes(1_250_000);
        w.net
            .start_flow(&mut sched, HostId::new(1), HostId::new(0), size, 1);
        w.net
            .start_flow(&mut sched, HostId::new(2), HostId::new(0), size, 2);
        run_world(&mut w, &mut sched, None);
        let last = w.deliveries.iter().map(|&(t, _)| t).max().unwrap();
        assert_eq!(last, SimTime::from_micros(100_200));
    }

    #[test]
    fn message_delay_is_analytic_and_counts_in_stats() {
        let mut w = dumbbell(SharingMode::Bottleneck);
        let d = w
            .net
            .message_delay(HostId::new(0), HostId::new(1), DataSize::from_bytes(1250));
        // 1250 B over 100 Mbps = 100 us, plus 200 us latency.
        assert_eq!(d, SimDuration::from_micros(300));
        assert_eq!(w.net.stats().control_messages, 1);
        assert_eq!(
            w.net
                .message_delay(HostId::new(2), HostId::new(2), DataSize::from_bytes(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn link_byte_accounting_covers_the_route() {
        let mut w = dumbbell(SharingMode::Bottleneck);
        let mut sched = Scheduler::new();
        w.net.start_flow(
            &mut sched,
            HostId::new(0),
            HostId::new(1),
            DataSize::from_bytes(1000),
            0,
        );
        run_world(&mut w, &mut sched, None);
        let carried: u64 = w.net.stats().link_bytes.iter().sum();
        assert_eq!(carried, 2000, "the payload crosses two directed links");
    }

    #[test]
    fn loopback_flow_delivers_immediately() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        w.net.start_flow(
            &mut sched,
            HostId::new(0),
            HostId::new(0),
            DataSize::from_bytes(1_000_000),
            9,
        );
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 1);
        assert_eq!(w.deliveries[0].0, SimTime::ZERO);
    }

    #[test]
    fn many_flows_all_complete() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        for i in 0..32u64 {
            let src = HostId::new((i % 4) as u32);
            let dst = HostId::new(((i + 1) % 4) as u32);
            w.net.start_flow(
                &mut sched,
                src,
                dst,
                DataSize::from_bytes(10_000 + i * 500),
                i,
            );
        }
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 32);
        assert_eq!(w.net.stats().flows_completed, 32);
        assert_eq!(w.net.flows_in_flight(), 0);
        let mut tokens: Vec<u64> = w.deliveries.iter().map(|(_, d)| d.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn slab_slots_are_recycled_with_fresh_generations() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let first = w.net.start_flow(
            &mut sched,
            HostId::new(0),
            HostId::new(1),
            DataSize::from_bytes(1000),
            0,
        );
        run_world(&mut w, &mut sched, None);
        let second = w.net.start_flow(
            &mut sched,
            HostId::new(0),
            HostId::new(1),
            DataSize::from_bytes(1000),
            1,
        );
        assert_eq!(first.slot(), second.slot(), "the slot must be recycled");
        assert_ne!(first.generation(), second.generation());
        assert_ne!(first, second, "recycled ids must not collide");
        assert!(w.net.flow_rate(first).is_none(), "the old id must be dead");
        assert!(w.net.flow_rate(second).is_some());
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 2);
    }

    #[test]
    fn unaffected_flows_keep_their_completion_events() {
        // h0->h1 and h2->h3 are disjoint: starting the second flow must not
        // cancel the first one's completion event.
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let size = DataSize::from_bytes(1_250_000);
        let first = w
            .net
            .start_flow(&mut sched, HostId::new(0), HostId::new(1), size, 1);
        // Past the activation and its rebalance: the completion is queued.
        run_world(&mut w, &mut sched, Some(SimTime::from_millis(1)));
        let scheduled = w.net.completion_of(first).flatten();
        assert!(scheduled.is_some());
        w.net
            .start_flow(&mut sched, HostId::new(2), HostId::new(3), size, 2);
        run_world(&mut w, &mut sched, Some(SimTime::from_millis(2)));
        assert_eq!(
            w.net.completion_of(first).flatten(),
            scheduled,
            "disjoint flows must not cancel each other's events"
        );
        assert_eq!(sched.cancelled_held(), 0);
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 2);
    }

    /// Start a flow into h0 and process its activation plus the rebalance
    /// it requests (two events), leaving its completion scheduled.
    fn start_and_activate(
        w: &mut NetWorld,
        sched: &mut Scheduler<Ev>,
        src: u32,
        token: u64,
    ) -> FlowId {
        let size = DataSize::from_bytes(12_500_000); // 1 s alone
        let flow = w
            .net
            .start_flow(sched, HostId::new(src), HostId::new(0), size, token);
        for _ in 0..2 {
            let (_, ev) = sched.pop().unwrap();
            w.handle(sched, ev);
        }
        flow
    }

    #[test]
    fn shared_bottleneck_cancels_the_superseded_completion() {
        // The second flow activates after the first one's rebalance, so its
        // own rebalance halves the first flow's rate and supersedes that
        // flow's completion event, which is cancelled on the spot.
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let first = start_and_activate(&mut w, &mut sched, 1, 1);
        let superseded = w.net.completion_of(first).flatten().unwrap();
        start_and_activate(&mut w, &mut sched, 2, 2);
        let current = w.net.completion_of(first).flatten().unwrap();
        assert_ne!(current, superseded);
        assert_eq!(sched.pending(), 2, "one live completion per flow");
        // It was the queue's head, so it left the queue at once.
        assert_eq!(sched.cancelled_held(), 0);
        let end = run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 2);
        assert_eq!(
            sched.delivered(),
            8,
            "two activations, rebalances and completions"
        );
        let last = w.deliveries.iter().map(|&(t, _)| t).max().unwrap();
        assert_eq!(end, last, "the superseded completion never fires");
        assert_eq!(sched.now(), last);
        assert_eq!(sched.cancelled_held(), 0);
    }

    #[test]
    fn batched_engine_coalesces_same_timestamp_activations() {
        // Both activations land at the same instant (equal route latencies)
        // and fold into one rebalance, so no completion is ever superseded —
        // where staggered activations cancel one (see
        // `shared_bottleneck_cancels_the_superseded_completion`).
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let size = DataSize::from_bytes(1_250_000);
        w.net
            .start_flow(&mut sched, HostId::new(1), HostId::new(0), size, 1);
        w.net
            .start_flow(&mut sched, HostId::new(2), HostId::new(0), size, 2);
        // Drain the activation instant: two activations plus the sentinel.
        let instant = sched.peek_time().unwrap();
        while sched.peek_time() == Some(instant) {
            let (_, ev) = sched.pop().unwrap();
            w.handle(&mut sched, ev);
        }
        assert_eq!(sched.cancelled_held(), 0, "one batch, nothing superseded");
        assert_eq!(sched.pending(), 2, "one live completion per flow");
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 2);
    }

    #[test]
    fn rates_track_the_fair_share_as_flows_come_and_go() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let size = DataSize::from_bytes(12_500_000); // 1 s alone
        let a = w
            .net
            .start_flow(&mut sched, HostId::new(1), HostId::new(0), size, 1);
        let b = w
            .net
            .start_flow(&mut sched, HostId::new(2), HostId::new(0), size, 2);
        // Drain the whole activation instant (both activations plus the
        // batched rebalance): each flow should hold half the 12.5 MB/s.
        let instant = sched.peek_time().unwrap();
        while sched.peek_time() == Some(instant) {
            let (_, ev) = sched.pop().unwrap();
            w.handle(&mut sched, ev);
        }
        let half = 12.5e6 / 2.0;
        assert!((w.net.flow_rate(a).unwrap() - half).abs() < 1.0);
        assert!((w.net.flow_rate(b).unwrap() - half).abs() < 1.0);
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 2);
    }

    #[test]
    fn compaction_keeps_live_bottleneck_completions() {
        // Bottleneck-mode flows schedule their single completion once and
        // never cancel it; a sweep of other cancelled entries must keep it
        // and the flow's stored id.
        let mut w = dumbbell(SharingMode::Bottleneck);
        let mut sched = Scheduler::new();
        let size = DataSize::from_bytes(1_250_000);
        let flows: Vec<FlowId> = (0..4)
            .map(|i| {
                w.net.start_flow(
                    &mut sched,
                    HostId::new(i % 4),
                    HostId::new((i + 1) % 4),
                    size,
                    u64::from(i),
                )
            })
            .collect();
        for i in 0..64 {
            let at = SimTime::from_secs(1 + i);
            let id = sched.schedule_at(at, NetEvent::Rebalance.into());
            sched.cancel(id);
        }
        assert_eq!(sched.compactions(), 1, "64 > 4 × 4 cancelled: one sweep");
        assert_eq!(sched.compacted_entries(), 64);
        assert_eq!(sched.pending(), 4);
        assert!(flows
            .iter()
            .all(|&f| w.net.completion_of(f).flatten().is_some()));
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 4);
    }

    /// The star churn workload of `tests/batching.rs`: 400 flows between
    /// index-derived pairs of a 32-host star, all started at t = 0.
    fn star_churn() -> (NetWorld, Scheduler<Ev>) {
        let hosts = 32usize;
        let mut b = PlatformBuilder::new();
        let sw = b.add_router("sw");
        let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
        for i in 0..hosts {
            let h = b.add_host(
                format!("h{i}"),
                format!("10.0.0.{}", i + 1).parse().unwrap(),
                HostSpec::default(),
            );
            b.add_host_link(format!("l{i}"), h, sw, spec);
        }
        let mut w = NetWorld {
            net: Network::new(b.build(), SharingMode::MaxMinFair),
            deliveries: vec![],
        };
        let mut sched = Scheduler::new();
        for i in 0..400usize {
            let src = (i * 5 + 1) % hosts;
            let dst = (i * 11 + hosts / 2) % hosts;
            let dst = if dst == src { (dst + 1) % hosts } else { dst };
            let size = DataSize::from_bytes(50_000 + (i as u64 * 17_977) % 450_000);
            w.net.start_flow(
                &mut sched,
                HostId::new(src as u32),
                HostId::new(dst as u32),
                size,
                i as u64,
            );
        }
        (w, sched)
    }

    #[test]
    fn auto_compaction_fires_once_the_policy_threshold_is_crossed() {
        // Cascading completions on the churn workload cancel completions
        // faster than they drain; the scheduler must sweep on its own, and
        // never hold more than max(64, 4 × live) cancelled entries after
        // an event.
        let (mut w, mut sched) = star_churn();
        let mut most = 0;
        while let Some((_, ev)) = sched.pop() {
            w.handle(&mut sched, ev);
            let cancelled = sched.cancelled_held();
            most = most.max(cancelled);
            assert!(
                cancelled <= 64.max(4 * sched.pending()),
                "{cancelled} cancelled against {} live",
                sched.pending()
            );
        }
        assert_eq!(w.deliveries.len(), 400);
        assert!(sched.compactions() > 0, "the churn must cross the rule");
        assert!(sched.compacted_entries() >= 64 * sched.compactions());
        assert!(most >= 64);
        assert_eq!(sched.cancelled_held(), 0, "the run ends with a clean queue");
    }

    #[test]
    fn serde_round_trip_mid_run_continues_bit_identically() {
        // Pause a congested run mid-flight via Network + Scheduler serde,
        // rebuild both from the encoded values, and drain the original and
        // the restored copy side by side: every remaining delivery must land
        // at the identical nanosecond.
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched: Scheduler<Ev> = Scheduler::new();
        for i in 0..10u64 {
            w.net.start_flow(
                &mut sched,
                HostId::new((i % 4) as u32),
                HostId::new(((i + 2) % 4) as u32),
                DataSize::from_bytes(400_000 + 150_000 * i),
                i,
            );
        }
        run_world(&mut w, &mut sched, Some(SimTime::from_millis(40)));
        assert!(w.net.flows_in_flight() > 0, "cut must land mid-run");

        let net_v = w.net.to_value();
        let sched_v = sched.to_value();
        // Canonical encoding: re-encoding the restored state is identical.
        let restored_net = Network::from_value(&net_v).unwrap();
        assert_eq!(
            serde_json::to_string(&net_v).unwrap(),
            serde_json::to_string(&restored_net.to_value()).unwrap()
        );
        let mut w2 = NetWorld {
            net: restored_net,
            deliveries: w.deliveries.clone(),
        };
        let mut sched2: Scheduler<Ev> = Scheduler::from_value(&sched_v).unwrap();

        run_world(&mut w, &mut sched, None);
        run_world(&mut w2, &mut sched2, None);
        assert_eq!(w.deliveries, w2.deliveries);
        assert_eq!(w.net.stats(), w2.net.stats());
    }

    #[test]
    fn serde_rejects_mismatched_flow_state() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched: Scheduler<Ev> = Scheduler::new();
        w.net.start_flow(
            &mut sched,
            HostId::new(0),
            HostId::new(1),
            DataSize::from_bytes(1_000_000),
            1,
        );
        let v = w.net.to_value();
        // Point the first live flow at a host outside the platform: the
        // restore must fail to re-derive its route, not panic.
        fn corrupt(v: &Value) -> Value {
            match v {
                Value::Object(fields) => Value::Object(
                    fields
                        .iter()
                        .map(|(k, inner)| {
                            if k == "dst" {
                                (k.clone(), Value::UInt(9_999))
                            } else {
                                (k.clone(), corrupt(inner))
                            }
                        })
                        .collect(),
                ),
                Value::Array(items) => Value::Array(items.iter().map(corrupt).collect()),
                other => other.clone(),
            }
        }
        let err = Network::from_value(&corrupt(&v)).unwrap_err();
        assert!(err.to_string().contains("route"), "got: {err}");
    }

    #[test]
    fn link_pos_is_held_exactly_while_attached() {
        // Two-hop routes on the star; flow 1 activates at 200 us, flow 2 is
        // still in its pipe-fill latency at the cut.
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched: Scheduler<Ev> = Scheduler::new();
        let size = DataSize::from_bytes(1_000_000);
        w.net
            .start_flow(&mut sched, HostId::new(0), HostId::new(1), size, 1);
        run_world(&mut w, &mut sched, Some(SimTime::from_micros(300)));
        w.net
            .start_flow(&mut sched, HostId::new(2), HostId::new(3), size, 2);
        let hops = |net: &Network| -> Vec<usize> {
            net.slots
                .iter()
                .filter_map(|s| s.state.as_ref())
                .map(|f| f.link_pos.len())
                .collect()
        };
        assert_eq!(hops(&w.net), [2, 0]);

        // Rewrite flow `token`'s encoded back-pointers.
        fn set_link_pos(v: &Value, token: u64, link_pos: &[u32]) -> Value {
            match v {
                Value::Object(fields) if fields.contains(&("token".into(), Value::UInt(token))) => {
                    Value::Object(
                        fields
                            .iter()
                            .map(|(k, inner)| match k.as_str() {
                                "link_pos" => (k.clone(), link_pos.to_value()),
                                _ => (k.clone(), inner.clone()),
                            })
                            .collect(),
                    )
                }
                Value::Object(fields) => Value::Object(
                    fields
                        .iter()
                        .map(|(k, inner)| (k.clone(), set_link_pos(inner, token, link_pos)))
                        .collect(),
                ),
                Value::Array(items) => Value::Array(
                    items
                        .iter()
                        .map(|i| set_link_pos(i, token, link_pos))
                        .collect(),
                ),
                other => other.clone(),
            }
        }
        let v = w.net.to_value();
        // The older layout's zeroed per-hop slice on an unattached flow is
        // accepted and dropped.
        let legacy = Network::from_value(&set_link_pos(&v, 2, &[0, 0])).unwrap();
        assert_eq!(hops(&legacy), [2, 0]);
        assert_eq!(legacy.to_value(), v);
        for (token, link_pos) in [(1, &[][..]), (1, &[0][..]), (2, &[0][..])] {
            let err = Network::from_value(&set_link_pos(&v, token, link_pos)).unwrap_err();
            assert!(err.to_string().contains("link_pos"), "got: {err}");
        }

        // Both flows still complete.
        run_world(&mut w, &mut sched, None);
        assert!(hops(&w.net).is_empty());
        assert_eq!(w.deliveries.len(), 2);
    }

    #[test]
    fn memory_footprint_tracks_the_flow_population() {
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        let empty = w.net.memory_footprint();
        assert_eq!(empty.live_flows, 0);
        assert_eq!(empty.bytes_per_flow(0), 0.0);
        let size = DataSize::from_bytes(1_000_000);
        for i in 0..4u64 {
            w.net.start_flow(
                &mut sched,
                HostId::new((i % 4) as u32),
                HostId::new(((i + 1) % 4) as u32),
                size,
                i,
            );
        }
        let fp = w.net.memory_footprint();
        assert_eq!(fp.live_flows, 4);
        // Four live flows occupy slab slots (and, once active, incidence
        // entries), so the per-flow figure must be meaningful and the total
        // must include both components after the flows activate.
        run_world(&mut w, &mut sched, Some(SimTime::from_millis(1)));
        let active = w.net.memory_footprint();
        assert!(active.slab_bytes > 0);
        assert!(active.incidence_bytes > 0);
        // Checkpointed structures count too: the union–find partition always,
        // the warm-start records once the network has flushed.
        assert!(active.component_bytes > 0);
        assert!(active.warm_bytes > 0);
        // So does the flush scratch the fills ran on.
        assert!(active.scratch_bytes > 0);
        assert_eq!(
            active.total_bytes(),
            active.slab_bytes
                + active.incidence_bytes
                + active.component_bytes
                + active.warm_bytes
                + active.scratch_bytes
        );
        assert!(active.bytes_per_flow(0) >= active.total_bytes() as f64 / 4.0 - 1.0);
        assert!(
            active.bytes_per_flow(sched.footprint_bytes()) > active.bytes_per_flow(0),
            "the scheduler extra must fold into the divisor's numerator"
        );
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.net.memory_footprint().live_flows, 0);
    }

    /// A flow too large to drain within the clock's range never overflows
    /// it: under max–min sharing its completion is never scheduled (it stays
    /// in flight), and the analytic model saturates at `SimTime::MAX`.
    #[test]
    fn transfers_past_the_clock_range_do_not_overflow_it() {
        let huge = DataSize::from_bytes(u64::MAX);
        let mut w = dumbbell(SharingMode::MaxMinFair);
        let mut sched = Scheduler::new();
        w.net
            .start_flow(&mut sched, HostId::new(0), HostId::new(1), huge, 0);
        run_world(&mut w, &mut sched, None);
        assert!(w.deliveries.is_empty());
        assert_eq!(w.net.flows_in_flight(), 1);

        let mut w = dumbbell(SharingMode::Bottleneck);
        let mut sched = Scheduler::new();
        w.net
            .start_flow(&mut sched, HostId::new(0), HostId::new(1), huge, 0);
        run_world(&mut w, &mut sched, None);
        assert_eq!(w.deliveries.len(), 1);
        assert_eq!(w.deliveries[0].0, SimTime::MAX);
    }
}
