//! Trace replay — the MSG-like simulation kernel.
//!
//! dPerf's prediction step "uses the MSG module for replaying trace files
//! based on a deployment platform defined by us" (paper §III-D.1). This module
//! is that replay kernel: every process (rank) owns a *script* of operations —
//! compute for some duration, send a message, wait for a message, repeat a
//! block of operations (the four [`ReplayOp`]s) — and the engine executes
//! all scripts against a [`Platform`], yielding the simulated makespan
//! `t_predicted`. A malformed script, or a malformed batch streamed into a
//! live replay, is a [`ScriptError`], never a panic.
//!
//! Message semantics are the eager/rendezvous-free semantics the P2PDC
//! obstacle code relies on: a `Send` is asynchronous (the sender continues
//! after paying the protocol's per-message CPU cost), a `Recv` blocks until a
//! matching message (same source rank and tag) has been fully delivered.
//! Per-message protocol costs ([`ProtocolCosts`]) model P2PSAP's header bytes
//! and send/receive processing time; charging the receive cost on the
//! receiving host serialises message handling at a coordinator exactly like
//! the real protocol stack would.
//!
//! Two entry points share the same kernel: [`replay`] runs a fixed script set
//! to completion (the batch shape dPerf's predictor uses), while
//! [`ReplaySession`] keeps the replay alive between calls — operations can be
//! streamed in with [`ReplaySession::push_ops`], virtual time advanced
//! incrementally, and the whole session checkpointed to disk and resumed
//! bit-identically through the [`checkpoint`](mod@crate::checkpoint) envelope.
//!
//! # Loops and the periodic fast-forward
//!
//! Scripts are loop-structured: a [`ReplayOp::Repeat`] header runs the ops
//! after it a given number of times, so a 900-sweep solver is one sweep long
//! on paper. Under [`SharingMode::Bottleneck`] the replay of such a loop is
//! a max-plus linear system, which turns periodic after a finite transient.
//! Each time rank 0 starts a new iteration of its outermost loop while every
//! rank is inside a loop, the kernel compares the whole replay state, with
//! every clock taken relative to the current instant, against a saved one
//! (Brent's cycle search picks which). When the two agree, everything that
//! follows repeats with a fixed time shift, so the kernel skips whole
//! periods at once: clocks move by the period's duration, every counter by
//! its per-period increment, and the remaining iterations and the ops after
//! the loop replay normally. The result is the one the event-by-event replay
//! gives, to the nanosecond and the byte. A pending delivery is named by its
//! flow's token in the checkpointed token table, so a restored session
//! searches from its first boundary on.

use crate::checkpoint::{self, CheckpointError};
use crate::event::{Scheduler, World};
use crate::network::{FlowDelivery, NetEvent, NetStats, Network, SharingMode};
use crate::platform::Platform;
use p2p_common::{DataSize, HostId, IdMap, SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::hash_map::Entry;
use std::path::Path;

/// One operation of a process script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayOp {
    /// Busy the CPU for the given duration (measured or modelled block time).
    Compute {
        /// How long the CPU is busy.
        duration: SimDuration,
    },
    /// Asynchronously send `bytes` to rank `to` with the given tag.
    Send {
        /// Destination rank.
        to: usize,
        /// Payload size on the wire (before protocol headers).
        bytes: u64,
        /// Message tag matched by the receiver.
        tag: u32,
    },
    /// Block until a message from rank `from` with the given tag arrives.
    Recv {
        /// Source rank to match.
        from: usize,
        /// Message tag to match.
        tag: u32,
    },
    /// Loop header: the next `len` ops of the script (the body) run `count`
    /// times, then the script goes on after them. A body may hold further
    /// headers (nested loops) but must not be empty; a zero `count` skips
    /// the body. [`ReplayOp::push_repeat`] writes a header and its body.
    Repeat {
        /// How many times the body runs.
        count: u64,
        /// Ops in the body, nested headers and their bodies included.
        len: usize,
    },
}

impl ReplayOp {
    /// Append a loop running `body` `count` times to `ops`.
    pub fn push_repeat(ops: &mut Vec<ReplayOp>, count: u64, body: &[ReplayOp]) {
        ops.push(ReplayOp::Repeat {
            count,
            len: body.len(),
        });
        ops.extend_from_slice(body);
    }
}

/// The full operation list of one rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessScript {
    /// The rank this script belongs to (must equal its index in the script list).
    pub rank: usize,
    /// Operations, executed in order.
    pub ops: Vec<ReplayOp>,
}

/// Per-message protocol overheads (models P2PSAP's channel stack).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolCosts {
    /// Header/control bytes added to every message on the wire.
    pub header_bytes: u64,
    /// CPU time charged at the sender per message.
    pub send_cpu: SimDuration,
    /// CPU time charged at the receiver per message, once it is consumed.
    pub recv_cpu: SimDuration,
}

impl ProtocolCosts {
    /// No overhead at all (raw network model).
    pub fn none() -> Self {
        ProtocolCosts {
            header_bytes: 0,
            send_cpu: SimDuration::ZERO,
            recv_cpu: SimDuration::ZERO,
        }
    }
}

impl Default for ProtocolCosts {
    fn default() -> Self {
        ProtocolCosts::none()
    }
}

/// Configuration of a replay run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Bandwidth-sharing model for bulk transfers.
    pub sharing: SharingMode,
    /// Per-message protocol costs.
    pub protocol: ProtocolCosts,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            sharing: SharingMode::Bottleneck,
            protocol: ProtocolCosts::none(),
        }
    }
}

/// Outcome of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Completion time of the slowest rank — the predicted execution time.
    pub makespan: SimDuration,
    /// Completion time of every rank.
    pub finish_times: Vec<SimTime>,
    /// Total CPU-busy time per rank (compute blocks + protocol processing).
    pub compute_time: Vec<SimDuration>,
    /// Total time each rank spent blocked in `Recv`.
    pub wait_time: Vec<SimDuration>,
    /// Number of messages sent across all ranks.
    pub messages_sent: u64,
    /// Network-level statistics.
    pub net_stats: NetStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum ProcState {
    /// Ready to execute the next operation.
    Ready,
    /// CPU busy (compute block or protocol processing) until a `Resume` fires.
    Busy,
    /// Blocked waiting for a message.
    Waiting { from: usize, tag: u32 },
    /// Script exhausted.
    Done,
}

/// One loop a rank is inside: the position of its `Repeat` header and the
/// iteration under way (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    head: usize,
    iter: u64,
}

/// The body end and trip count of the loop whose header sits at `head`.
fn loop_bounds(ops: &[ReplayOp], head: usize) -> (usize, u64) {
    match ops[head] {
        ReplayOp::Repeat { count, len } => (head + 1 + len, count),
        _ => unreachable!("a loop frame points at its Repeat header"),
    }
}

#[derive(Debug)]
struct Proc {
    host: HostId,
    ops: Vec<ReplayOp>,
    pc: usize,
    /// The loops the rank is inside, outermost first.
    loops: Vec<Frame>,
    state: ProcState,
    /// Delivered, not yet received messages: a count per `(from, tag)`.
    /// Payloads are not modelled, so a count describes the queue fully.
    /// Entries are removed when they reach zero.
    mailbox: IdMap<(usize, u32), u64>,
    finish: Option<SimTime>,
    compute_total: SimDuration,
    wait_total: SimDuration,
    wait_since: SimTime,
}

impl Proc {
    /// Occupy the CPU for `d` (a compute block or protocol processing); the
    /// rank resumes when it elapses.
    fn busy(&mut self, sched: &mut Scheduler<Ev>, rank: usize, d: SimDuration) {
        self.state = ProcState::Busy;
        self.compute_total += d;
        sched.schedule_in(d, Ev::Resume { rank });
    }

    /// Consume one queued message from `(from, tag)`, if there is one.
    fn take_message(&mut self, from: usize, tag: u32) -> bool {
        match self.mailbox.entry((from, tag)) {
            Entry::Occupied(mut e) => {
                if *e.get() > 1 {
                    *e.get_mut() -= 1;
                } else {
                    e.remove();
                }
                true
            }
            Entry::Vacant(_) => false,
        }
    }

    /// The mailbox as sorted `(from, tag, count)` triples.
    fn sorted_mailbox(&self) -> Vec<(usize, u32, u64)> {
        let mut mail: Vec<(usize, u32, u64)> = self
            .mailbox
            .iter()
            .map(|(&(from, tag), &n)| (from, tag, n))
            .collect();
        mail.sort_unstable();
        mail
    }
}

// Hand-written serde: the mailbox is keyed by `(usize, u32)` tuples, which
// the shim's map encoding cannot express as JSON object keys. Each count
// becomes a `[from, tag, count]` triple, sorted so the encoding is canonical
// regardless of hash iteration order. Open loops ride in a `loops` field of
// `[head, iter]` pairs, present only while the rank is inside a loop, so a
// loop-free replay encodes exactly as before loops existed.
impl Serialize for Proc {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("host".to_owned(), self.host.to_value()),
            ("ops".to_owned(), self.ops.to_value()),
            ("pc".to_owned(), self.pc.to_value()),
        ];
        if !self.loops.is_empty() {
            let loops = self
                .loops
                .iter()
                .map(|f| Value::Array(vec![f.head.to_value(), f.iter.to_value()]))
                .collect();
            fields.push(("loops".to_owned(), Value::Array(loops)));
        }
        fields.extend([
            ("state".to_owned(), self.state.to_value()),
            (
                "mailbox".to_owned(),
                Value::Array(
                    self.sorted_mailbox()
                        .into_iter()
                        .map(|(f, t, n)| {
                            Value::Array(vec![f.to_value(), t.to_value(), n.to_value()])
                        })
                        .collect(),
                ),
            ),
            ("finish".to_owned(), self.finish.to_value()),
            ("compute_total".to_owned(), self.compute_total.to_value()),
            ("wait_total".to_owned(), self.wait_total.to_value()),
            ("wait_since".to_owned(), self.wait_since.to_value()),
        ]);
        Value::Object(fields)
    }
}

impl Deserialize for Proc {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Proc", v))?;
        let ops: Vec<ReplayOp> = serde::field(fields, "ops", "Proc")?;
        let pc: usize = serde::field(fields, "pc", "Proc")?;
        if pc > ops.len() {
            return Err(DeError::msg(format!(
                "program counter {pc} is past the end of a {}-op script",
                ops.len()
            )));
        }
        let loops: Option<Vec<(usize, u64)>> = serde::field(fields, "loops", "Proc")?;
        let triples: Vec<(usize, u32, u64)> = serde::field(fields, "mailbox", "Proc")?;
        let mut mailbox: IdMap<(usize, u32), u64> = IdMap::default();
        for (from, tag, count) in triples {
            if count > 0 {
                mailbox.insert((from, tag), count);
            }
        }
        Ok(Proc {
            host: serde::field(fields, "host", "Proc")?,
            ops,
            pc,
            loops: loops
                .unwrap_or_default()
                .into_iter()
                .map(|(head, iter)| Frame { head, iter })
                .collect(),
            state: serde::field(fields, "state", "Proc")?,
            mailbox,
            finish: serde::field(fields, "finish", "Proc")?,
            compute_total: serde::field(fields, "compute_total", "Proc")?,
            wait_total: serde::field(fields, "wait_total", "Proc")?,
            wait_since: serde::field(fields, "wait_since", "Proc")?,
        })
    }
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum Ev {
    Net(NetEvent),
    Resume { rank: usize },
}

impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Self {
        Ev::Net(e)
    }
}

/// A message in flight, without the ids that name it: its ranks, its tag
/// and its size on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg {
    src: usize,
    dst: usize,
    tag: u32,
    size: DataSize,
}

/// What a pending event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Resume(usize),
    Deliver(Msg),
}

/// Rank whose outermost-loop iterations clock the period search.
const REFERENCE_RANK: usize = 0;

/// One rank in a [`Snapshot`].
#[derive(Debug)]
struct ProcSnap {
    pc: usize,
    loops: Vec<Frame>,
    state: ProcState,
    /// How long the rank has been blocked, if it is waiting.
    waited: SimDuration,
    mailbox: Vec<(usize, u32, u64)>,
    compute_total: SimDuration,
    wait_total: SimDuration,
}

/// The replay state at an iteration boundary of the reference rank, with
/// every clock relative to `now`, plus the counters a jump extrapolates.
#[derive(Debug)]
struct Snapshot {
    now: SimTime,
    /// The reference rank's outermost-loop iteration.
    ref_iter: u64,
    procs: Vec<ProcSnap>,
    /// Pending events in pop order, as `(time - now, effect)`.
    pending: Vec<(SimDuration, Pending)>,
    messages_sent: u64,
    stats: NetStats,
}

/// Brent's cycle search over the states seen at the reference rank's
/// iteration boundaries: the saved snapshot is replaced whenever `lam`
/// reaches `power`, which then doubles. One snapshot is held at a time, and
/// a period of any length is found within a few periods of the transient's
/// end.
#[derive(Debug, Default)]
struct Detector {
    saved: Option<Snapshot>,
    power: u64,
    lam: u64,
}

struct ReplayWorld {
    net: Network,
    procs: Vec<Proc>,
    protocol: ProtocolCosts,
    /// The `(src, dst, tag)` of each message in flight, keyed by the token
    /// its flow carries. Checkpointed, so the period search can name every
    /// pending delivery, flows started before a restore included.
    token_info: IdMap<u64, (usize, usize, u32)>,
    /// The token the next message's flow carries.
    next_token: u64,
    messages_sent: u64,
    /// Network counters skipped over by jumps, added to the network's own.
    jumped: NetStats,
    /// The period search; `None` under `MaxMinFair`, whose flows interact.
    detect: Option<Detector>,
    /// Set when the reference rank starts a new outermost-loop iteration.
    crossed: bool,
}

impl ReplayWorld {
    fn new(
        net: Network,
        procs: Vec<Proc>,
        protocol: ProtocolCosts,
        token_info: IdMap<u64, (usize, usize, u32)>,
        next_token: u64,
        messages_sent: u64,
        jumped: NetStats,
    ) -> Self {
        let detect = (net.mode() == SharingMode::Bottleneck).then(Detector::default);
        ReplayWorld {
            net,
            procs,
            protocol,
            token_info,
            next_token,
            messages_sent,
            jumped,
            detect,
            crossed: false,
        }
    }

    fn advance(&mut self, sched: &mut Scheduler<Ev>, rank: usize) {
        loop {
            let p = &mut self.procs[rank];
            if p.state == ProcState::Done {
                return;
            }
            if let Some(f) = p.loops.last_mut() {
                let (end, count) = loop_bounds(&p.ops, f.head);
                if p.pc == end {
                    f.iter += 1;
                    if f.iter < count {
                        p.pc = f.head + 1;
                        self.crossed |= rank == REFERENCE_RANK && p.loops.len() == 1;
                    } else {
                        p.loops.pop();
                    }
                    continue;
                }
            }
            let Some(&op) = p.ops.get(p.pc) else {
                p.state = ProcState::Done;
                p.finish = Some(sched.now());
                return;
            };
            match op {
                ReplayOp::Compute { duration } => {
                    p.pc += 1;
                    p.busy(sched, rank, duration);
                    return;
                }
                ReplayOp::Send { to, bytes, tag } => {
                    p.pc += 1;
                    self.post_send(sched, rank, to, bytes, tag);
                    let cpu = self.protocol.send_cpu;
                    if !cpu.is_zero() {
                        self.procs[rank].busy(sched, rank, cpu);
                        return;
                    }
                }
                ReplayOp::Recv { from, tag } => {
                    if !p.take_message(from, tag) {
                        p.state = ProcState::Waiting { from, tag };
                        p.wait_since = sched.now();
                        return;
                    }
                    p.pc += 1;
                    let cpu = self.protocol.recv_cpu;
                    if !cpu.is_zero() {
                        p.busy(sched, rank, cpu);
                        return;
                    }
                }
                ReplayOp::Repeat { count, len } => {
                    if count == 0 {
                        p.pc += 1 + len;
                    } else {
                        p.loops.push(Frame {
                            head: p.pc,
                            iter: 0,
                        });
                        p.pc += 1;
                    }
                }
            }
        }
    }

    fn post_send(
        &mut self,
        sched: &mut Scheduler<Ev>,
        from: usize,
        to: usize,
        bytes: u64,
        tag: u32,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.token_info.insert(token, (from, to, tag));
        self.messages_sent += 1;
        let size = DataSize::from_bytes(bytes + self.protocol.header_bytes);
        let src_host = self.procs[from].host;
        let dst_host = self.procs[to].host;
        self.net.start_flow(sched, src_host, dst_host, size, token);
    }

    fn deliver(&mut self, sched: &mut Scheduler<Ev>, delivery: FlowDelivery) {
        let (src, dst, tag) = self
            .token_info
            .remove(&delivery.token)
            .expect("delivery for unknown token");
        let p = &mut self.procs[dst];
        if p.state != (ProcState::Waiting { from: src, tag }) {
            *p.mailbox.entry((src, tag)).or_default() += 1;
            return;
        }
        // The message the rank is blocked on: consume it without queueing
        // and resume.
        p.wait_total += sched.now().duration_since(p.wait_since);
        p.pc += 1;
        let cpu = self.protocol.recv_cpu;
        if cpu.is_zero() {
            p.state = ProcState::Ready;
            self.advance(sched, dst);
        } else {
            p.busy(sched, dst, cpu);
        }
    }

    /// The pending events in pop order, relative to `now`; `None` if one of
    /// them is not a rank's resume or a live flow's completion.
    fn pending(&self, sched: &Scheduler<Ev>) -> Option<Vec<(SimDuration, Pending)>> {
        let now = sched.now();
        sched
            .pending_in_order()
            .into_iter()
            .map(|(t, ev)| {
                let effect = match *ev {
                    Ev::Resume { rank } => Pending::Resume(rank),
                    Ev::Net(NetEvent::FlowCompletion { flow }) => {
                        let (token, size) = self.net.flow_token(flow)?;
                        let &(src, dst, tag) = self.token_info.get(&token)?;
                        Pending::Deliver(Msg {
                            src,
                            dst,
                            tag,
                            size,
                        })
                    }
                    Ev::Net(_) => return None,
                };
                Some((t.duration_since(now), effect))
            })
            .collect()
    }

    fn snapshot(&self, sched: &Scheduler<Ev>) -> Option<Snapshot> {
        let now = sched.now();
        let procs = self
            .procs
            .iter()
            .map(|p| ProcSnap {
                pc: p.pc,
                loops: p.loops.clone(),
                state: p.state,
                waited: waited(p, now),
                mailbox: p.sorted_mailbox(),
                compute_total: p.compute_total,
                wait_total: p.wait_total,
            })
            .collect();
        Some(Snapshot {
            now,
            ref_iter: self.procs[REFERENCE_RANK].loops[0].iter,
            procs,
            pending: self.pending(sched)?,
            messages_sent: self.messages_sent,
            stats: self.net.stats().clone(),
        })
    }

    /// Whether the live state is `saved` advanced by `c` iterations of every
    /// rank's outermost loop: same positions, wait states, mailboxes and
    /// pending events, every clock at the same distance from the present.
    /// The cheap per-rank fields are compared first, so a state that drifts
    /// (a growing mailbox) is told apart without listing the event queue.
    fn repeats(&self, saved: &Snapshot, c: u64, sched: &Scheduler<Ev>) -> bool {
        let now = sched.now();
        let procs_agree = self.procs.iter().zip(&saved.procs).all(|(p, s)| {
            p.pc == s.pc
                && p.state == s.state
                && waited(p, now) == s.waited
                && p.loops.len() == s.loops.len()
                && p.loops
                    .iter()
                    .zip(&s.loops)
                    .enumerate()
                    .all(|(depth, (f, g))| {
                        let shift = if depth == 0 { c } else { 0 };
                        f.head == g.head && g.iter.checked_add(shift) == Some(f.iter)
                    })
                && p.mailbox.len() == s.mailbox.len()
                && s.mailbox
                    .iter()
                    .all(|&(from, tag, n)| p.mailbox.get(&(from, tag)) == Some(&n))
        });
        procs_agree && self.pending(sched).is_some_and(|q| q == saved.pending)
    }

    /// Called after an event in which the reference rank started a new
    /// outermost-loop iteration. Looks for a period and, if one is found,
    /// skips as many whole periods as every rank's loop and the horizon
    /// `limit` allow. Returns whether it jumped.
    fn on_boundary(&mut self, sched: &mut Scheduler<Ev>, limit: Option<SimTime>) -> bool {
        let Some(mut det) = self.detect.take() else {
            return false;
        };
        let jumped = self.search(&mut det, sched, limit);
        self.detect = Some(det);
        jumped
    }

    fn search(
        &mut self,
        det: &mut Detector,
        sched: &mut Scheduler<Ev>,
        limit: Option<SimTime>,
    ) -> bool {
        if self.procs.iter().any(|p| p.loops.is_empty()) {
            *det = Detector::default();
            return false;
        }
        let Frame {
            head,
            iter: ref_iter,
        } = self.procs[REFERENCE_RANK].loops[0];
        if let Some(saved) = &det.saved {
            // A new loop starts a new search.
            if saved.procs[REFERENCE_RANK].loops[0].head != head {
                *det = Detector::default();
            }
        }
        if let Some(saved) = &det.saved {
            let c = ref_iter.checked_sub(saved.ref_iter).filter(|&c| c > 0);
            if let Some(c) = c.filter(|&c| self.repeats(saved, c, sched)) {
                if let Some(m) = self.periods_to_skip(saved, c, sched, limit) {
                    let saved = det.saved.take().expect("matched against it");
                    self.skip(&saved, c, m, sched);
                    *det = Detector::default();
                    return true;
                }
            }
        }
        if det.saved.is_none() || det.lam == det.power {
            det.power = if det.saved.is_none() {
                1
            } else {
                det.power * 2
            };
            det.saved = self.snapshot(sched);
            det.lam = 0;
        }
        det.lam += 1;
        false
    }

    /// How many whole periods of `c` iterations (lasting `now - saved.now`)
    /// can be skipped: each rank must still be inside its outermost loop
    /// afterwards, the new clock must not pass `limit`, and no clock or
    /// counter may overflow. `None` when that is zero periods.
    fn periods_to_skip(
        &self,
        saved: &Snapshot,
        c: u64,
        sched: &Scheduler<Ev>,
        limit: Option<SimTime>,
    ) -> Option<u64> {
        let now = sched.now();
        let period = now.duration_since(saved.now).as_nanos();
        let mut m = u64::MAX;
        for p in &self.procs {
            let f = p.loops[0];
            let (_, count) = loop_bounds(&p.ops, f.head);
            m = m.min((count - 1 - f.iter) / c);
        }
        if let (Some(limit), true) = (limit, period > 0) {
            m = m.min(limit.duration_since(now).as_nanos() / period);
        }
        if m == 0 {
            return None;
        }
        // Every clock and every counter must stay representable.
        let shift = period.checked_mul(m)?;
        let latest = saved
            .pending
            .last()
            .map_or(0, |(offset, _)| offset.as_nanos());
        now.as_nanos().checked_add(latest)?.checked_add(shift)?;
        for (p, s) in self.procs.iter().zip(&saved.procs) {
            for (total, before) in [
                (p.compute_total, s.compute_total),
                (p.wait_total, s.wait_total),
            ] {
                let step = total.as_nanos() - before.as_nanos();
                step.checked_mul(m)?.checked_add(total.as_nanos())?;
            }
        }
        let step = self.messages_sent - saved.messages_sent;
        step.checked_mul(m)?.checked_add(self.messages_sent)?;
        Some(m)
    }

    /// Skip `m` periods: what `m` more rounds of the period from `saved` to
    /// now would do, in one step.
    fn skip(&mut self, saved: &Snapshot, c: u64, m: u64, sched: &mut Scheduler<Ev>) {
        let shift = SimDuration::from_nanos(sched.now().duration_since(saved.now).as_nanos() * m);
        let grow = |now: SimDuration, before: SimDuration| {
            now + SimDuration::from_nanos((now.as_nanos() - before.as_nanos()) * m)
        };
        for (p, s) in self.procs.iter_mut().zip(&saved.procs) {
            p.loops[0].iter += c * m;
            p.compute_total = grow(p.compute_total, s.compute_total);
            p.wait_total = grow(p.wait_total, s.wait_total);
            p.wait_since = p.wait_since.saturating_add(shift);
        }
        self.messages_sent += (self.messages_sent - saved.messages_sent) * m;
        let skipped = zip_stats(self.net.stats(), &saved.stats, |now, before| {
            (now - before).saturating_mul(m)
        });
        self.jumped = zip_stats(&self.jumped, &skipped, u64::saturating_add);
        sched.shift(shift);
    }
}

/// How long `p` has been blocked at `now` (zero unless it is waiting).
fn waited(p: &Proc, now: SimTime) -> SimDuration {
    match p.state {
        ProcState::Waiting { .. } => now.duration_since(p.wait_since),
        _ => SimDuration::ZERO,
    }
}

/// All-zero counters for a platform of `links` directed links.
fn zero_stats(links: usize) -> NetStats {
    NetStats {
        link_bytes: vec![0; links],
        ..NetStats::default()
    }
}

/// `f` applied to each pair of counters of `a` and `b`.
fn zip_stats(a: &NetStats, b: &NetStats, f: impl Fn(u64, u64) -> u64) -> NetStats {
    NetStats {
        flows_started: f(a.flows_started, b.flows_started),
        flows_completed: f(a.flows_completed, b.flows_completed),
        bytes_delivered: f(a.bytes_delivered, b.bytes_delivered),
        control_messages: f(a.control_messages, b.control_messages),
        link_bytes: a
            .link_bytes
            .iter()
            .zip(&b.link_bytes)
            .map(|(&x, &y)| f(x, y))
            .collect(),
    }
}

impl World for ReplayWorld {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, event: Ev) {
        match event {
            Ev::Resume { rank } => {
                self.procs[rank].state = ProcState::Ready;
                self.advance(sched, rank);
            }
            Ev::Net(ne) => {
                if let Some(d) = self.net.on_event(sched, ne) {
                    self.deliver(sched, d);
                }
            }
        }
    }
}

/// Check rank `rank`'s ops `ops` for a replay of `ranks` ranks: every peer
/// is a rank, every loop body is non-empty and ends inside the body (or
/// script) around it, and the number of ops the replay runs, loops
/// unrolled, fits a `u64`. Reports the first fault, with positions counted
/// from the start of `ops`. Nesting is walked with an explicit stack, so no
/// depth of loops can overflow the call stack.
fn check_ops(ops: &[ReplayOp], rank: usize, ranks: usize) -> Result<(), ScriptError> {
    // Loops around `pc`: (end of the enclosing body, trip count, ops counted
    // in the enclosing body before the header).
    let mut open: Vec<(usize, u64, u64)> = Vec::new();
    let (mut pc, mut end, mut total) = (0usize, ops.len(), 0u64);
    let too_long = ScriptError::TooLong { rank };
    loop {
        while pc == end {
            let Some((outer_end, count, before)) = open.pop() else {
                return Ok(());
            };
            total = total
                .checked_mul(count)
                .and_then(|n| n.checked_add(before))
                .ok_or(too_long)?;
            end = outer_end;
        }
        match ops[pc] {
            ReplayOp::Compute { .. } => {}
            ReplayOp::Send { to: peer, .. } | ReplayOp::Recv { from: peer, .. } => {
                if peer >= ranks {
                    return Err(ScriptError::UnknownPeer { rank, op: pc, peer });
                }
            }
            ReplayOp::Repeat { count, len } => {
                if len == 0 {
                    return Err(ScriptError::EmptyRepeat { rank, op: pc });
                }
                if len > end - pc - 1 {
                    return Err(ScriptError::RepeatOverrun { rank, op: pc });
                }
                open.push((end, count, total));
                (end, total) = (pc + 1 + len, 0);
                pc += 1;
                continue;
            }
        }
        total = total.checked_add(1).ok_or(too_long)?;
        pc += 1;
    }
}

/// Why a script set cannot be replayed ([`ReplaySession::new`], [`replay`])
/// or a batch of ops cannot be appended ([`ReplaySession::push_ops`]). For a
/// batch, `rank` is the rank it was pushed to and `op` counts from the start
/// of the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptError {
    /// The number of host mappings differs from the number of scripts.
    HostCount {
        /// Host mappings given.
        hosts: usize,
        /// Scripts given.
        scripts: usize,
    },
    /// Script `index` declares another rank.
    Misnumbered {
        /// Position of the script in the list.
        index: usize,
        /// The rank it declares.
        rank: usize,
    },
    /// A batch was pushed to `rank`, which is not a rank of the replay.
    UnknownRank {
        /// The rank pushed to.
        rank: usize,
    },
    /// A rank maps to a host the platform does not have.
    UnknownHost {
        /// The rank.
        rank: usize,
        /// The host it maps to.
        host: HostId,
    },
    /// Op `op` of rank `rank`'s script names `peer`, which is not a rank.
    UnknownPeer {
        /// The rank whose script it is.
        rank: usize,
        /// Position of the op in the script.
        op: usize,
        /// The peer it names.
        peer: usize,
    },
    /// Op `op` of rank `rank`'s script is a `Repeat` with an empty body.
    EmptyRepeat {
        /// The rank whose script it is.
        rank: usize,
        /// Position of the header in the script.
        op: usize,
    },
    /// Op `op` of rank `rank`'s script is a `Repeat` whose body runs past
    /// the end of the body or script around it.
    RepeatOverrun {
        /// The rank whose script it is.
        rank: usize,
        /// Position of the header in the script.
        op: usize,
    },
    /// Rank `rank`'s script, loops unrolled, has more than `u64::MAX` ops.
    TooLong {
        /// The rank whose script it is.
        rank: usize,
    },
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ScriptError::HostCount { hosts, scripts } => {
                write!(f, "{scripts} scripts but {hosts} host mappings")
            }
            ScriptError::Misnumbered { index, rank } => {
                write!(f, "script {index} declares rank {rank}")
            }
            ScriptError::UnknownRank { rank } => write!(f, "rank {rank} is not in the replay"),
            ScriptError::UnknownHost { rank, host } => {
                write!(f, "rank {rank} maps to {host}, which the platform lacks")
            }
            ScriptError::UnknownPeer { rank, op, peer } => write!(
                f,
                "rank {rank}: op {op} names rank {peer}, which is not in the replay"
            ),
            ScriptError::EmptyRepeat { rank, op } => {
                write!(f, "rank {rank}: op {op} repeats an empty body")
            }
            ScriptError::RepeatOverrun { rank, op } => {
                write!(
                    f,
                    "rank {rank}: the body of op {op} runs past its enclosing body"
                )
            }
            ScriptError::TooLong { rank } => {
                write!(
                    f,
                    "rank {rank}: the unrolled script overflows a u64 op count"
                )
            }
        }
    }
}

impl std::error::Error for ScriptError {}

/// Check that the open loops `loops` and the program counter `pc` describe
/// a place in `ops`: each frame is a `Repeat` header inside the body of the
/// one before, on an iteration below its count, `pc` lies in the innermost
/// body (its end included), and no loop without a frame encloses a frame's
/// header or `pc`.
fn check_frames(ops: &[ReplayOp], pc: usize, loops: &[Frame]) -> Result<(), String> {
    // Step over whole loops from `at` to `target`: one that straddles
    // `target` encloses it without a frame.
    let walk = |mut at: usize, target: usize| {
        while at < target {
            match ops[at] {
                ReplayOp::Repeat { len, .. } if at + 1 + len > target => {
                    return Err(format!("op {at} encloses op {target} without a frame"));
                }
                ReplayOp::Repeat { len, .. } => at += 1 + len,
                _ => at += 1,
            }
        }
        Ok(())
    };
    let (mut start, mut end) = (0, ops.len());
    for f in loops {
        if f.head < start || f.head >= end {
            return Err(format!(
                "loop at op {} lies outside its enclosing body",
                f.head
            ));
        }
        walk(start, f.head)?;
        let ReplayOp::Repeat { count, len } = ops[f.head] else {
            return Err(format!("loop frame at op {} is not a Repeat", f.head));
        };
        if f.iter >= count {
            return Err(format!(
                "loop at op {} is on iteration {} of {count}",
                f.head, f.iter
            ));
        }
        (start, end) = (f.head + 1, f.head + 1 + len);
    }
    if pc < start || pc > end {
        return Err(format!(
            "program counter {pc} is outside its innermost loop"
        ));
    }
    walk(start, pc)
}

/// An interruptible, checkpointable replay.
///
/// [`replay`] runs a script set to completion in one call; a session keeps
/// the same kernel alive between calls so the embedding service can
///
/// * advance virtual time in increments ([`ReplaySession::run_until`]),
/// * append operations to a rank's script while the replay is live
///   ([`ReplaySession::push_ops`] — the streaming front end),
/// * pause the whole thing to disk ([`ReplaySession::save`]) and resume it
///   later ([`ReplaySession::load`]) with bit-identical timing.
///
/// ```
/// use netsim::replay::{ProcessScript, ReplayConfig, ReplayOp, ReplaySession};
/// use netsim::{cluster_bordeplage, HostSpec};
///
/// let topo = cluster_bordeplage(2, HostSpec::default());
/// let scripts = vec![
///     ProcessScript { rank: 0, ops: vec![ReplayOp::Send { to: 1, bytes: 12_500, tag: 0 }] },
///     ProcessScript { rank: 1, ops: vec![ReplayOp::Recv { from: 0, tag: 0 }] },
/// ];
/// let mut session = ReplaySession::new(
///     topo.platform, &topo.hosts[..2], &scripts, &ReplayConfig::default()).unwrap();
/// session.run_until(None);
///
/// // Checkpoint at the end, restore, and stream a loop of work into rank 0.
/// let snapshot = session.checkpoint();
/// let mut resumed = ReplaySession::restore(&snapshot).unwrap();
/// let mut ops = Vec::new();
/// ReplayOp::push_repeat(&mut ops, 3, &[ReplayOp::Compute {
///     duration: p2p_common::SimDuration::from_millis(5) }]);
/// resumed.push_ops(0, &ops).unwrap();
/// resumed.run_until(None);
/// assert!(resumed.result().makespan > session.result().makespan);
/// ```
pub struct ReplaySession {
    world: ReplayWorld,
    sched: Scheduler<Ev>,
}

impl ReplaySession {
    /// Set up a replay of `scripts` on `platform`, mapping rank `i` to
    /// `rank_hosts[i]`, without running it. Every rank is primed with a
    /// wake-up at `t = 0`.
    ///
    /// Fails if the number of scripts and host mappings differ, a script's
    /// `rank` field does not match its position, a rank maps to a host the
    /// platform lacks, or a script is malformed (see [`ScriptError`]).
    pub fn new(
        platform: Platform,
        rank_hosts: &[HostId],
        scripts: &[ProcessScript],
        cfg: &ReplayConfig,
    ) -> Result<Self, ScriptError> {
        if rank_hosts.len() != scripts.len() {
            return Err(ScriptError::HostCount {
                hosts: rank_hosts.len(),
                scripts: scripts.len(),
            });
        }
        let ranks = scripts.len();
        for (i, (s, &host)) in scripts.iter().zip(rank_hosts).enumerate() {
            if s.rank != i {
                return Err(ScriptError::Misnumbered {
                    index: i,
                    rank: s.rank,
                });
            }
            if host.index() >= platform.host_count() {
                return Err(ScriptError::UnknownHost { rank: i, host });
            }
            check_ops(&s.ops, i, ranks)?;
        }
        let procs: Vec<Proc> = scripts
            .iter()
            .zip(rank_hosts)
            .map(|(s, &h)| Proc {
                host: h,
                ops: s.ops.clone(),
                pc: 0,
                loops: Vec::new(),
                state: ProcState::Ready,
                mailbox: IdMap::default(),
                finish: None,
                compute_total: SimDuration::ZERO,
                wait_total: SimDuration::ZERO,
                wait_since: SimTime::ZERO,
            })
            .collect();
        let net = Network::new(platform, cfg.sharing);
        let jumped = zero_stats(net.stats().link_bytes.len());
        let world = ReplayWorld::new(net, procs, cfg.protocol, IdMap::default(), 0, 0, jumped);
        let mut sched: Scheduler<Ev> = Scheduler::new();
        // Kick every rank off at t = 0.
        for rank in 0..world.procs.len() {
            sched.schedule_at(SimTime::ZERO, Ev::Resume { rank });
        }
        Ok(ReplaySession { world, sched })
    }

    /// Run until the event queue is empty, or (with `Some(limit)`) until the
    /// next event would fire past `limit`. Returns the timestamp of the last
    /// event processed. Under `Bottleneck` sharing, whole periods of a loop
    /// may be skipped in one step (see the module docs); a skip never
    /// carries the clock past `limit`.
    pub fn run_until(&mut self, limit: Option<SimTime>) -> SimTime {
        let mut last = self.sched.now();
        while let Some(next) = self.sched.peek_time() {
            if limit.is_some_and(|limit| next > limit) {
                break;
            }
            let (t, ev) = self.sched.pop().expect("peeked event must exist");
            self.world.handle(&mut self.sched, ev);
            last = t;
            if std::mem::take(&mut self.world.crossed)
                && self.world.on_boundary(&mut self.sched, limit)
            {
                last = self.sched.now();
            }
        }
        last
    }

    /// The session's virtual clock.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Events still queued. Zero means every rank is `Done` or deadlocked
    /// waiting for a message no one will send.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Number of ranks in the replay.
    pub fn ranks(&self) -> usize {
        self.world.procs.len()
    }

    /// True once every rank has run off the end of its script.
    pub fn finished(&self) -> bool {
        self.world.procs.iter().all(|p| p.finish.is_some())
    }

    /// Append operations to rank `rank`'s script while the replay is live —
    /// the streaming entry point. The batch is checked on its own exactly
    /// as a script is in [`ReplaySession::new`]. A rank that had already
    /// finished is revived: its finish time is cleared and it resumes at
    /// the current virtual time.
    ///
    /// Rejects the whole batch, leaving the session unchanged, if `rank` or
    /// a peer named by one of `ops` is not a rank of the replay, or a loop
    /// in the batch is malformed ([`ScriptError::UnknownRank`], or the
    /// error [`ReplaySession::new`] gives, with `op` counted from the start
    /// of the batch).
    pub fn push_ops(&mut self, rank: usize, ops: &[ReplayOp]) -> Result<(), ScriptError> {
        let ranks = self.world.procs.len();
        if rank >= ranks {
            return Err(ScriptError::UnknownRank { rank });
        }
        check_ops(ops, rank, ranks)?;
        if let Some(det) = &mut self.world.detect {
            *det = Detector::default();
        }
        let p = &mut self.world.procs[rank];
        p.ops.extend_from_slice(ops);
        if p.state == ProcState::Done {
            p.state = ProcState::Ready;
            p.finish = None;
            self.sched
                .schedule_at(self.sched.now(), Ev::Resume { rank });
        }
        Ok(())
    }

    /// Summarise the replay. Panics (with the blocked rank's position) if a
    /// rank has not finished — call after [`ReplaySession::run_until`] has
    /// drained the queue.
    pub fn result(&self) -> ReplayResult {
        for (i, p) in self.world.procs.iter().enumerate() {
            assert!(
                p.finish.is_some(),
                "rank {i} never finished (blocked at pc {} of {}): unmatched receive?",
                p.pc,
                p.ops.len()
            );
        }
        let finish_times: Vec<SimTime> =
            self.world.procs.iter().map(|p| p.finish.unwrap()).collect();
        let makespan = finish_times
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .duration_since(SimTime::ZERO);
        ReplayResult {
            makespan,
            finish_times,
            compute_time: self.world.procs.iter().map(|p| p.compute_total).collect(),
            wait_time: self.world.procs.iter().map(|p| p.wait_total).collect(),
            messages_sent: self.world.messages_sent,
            net_stats: zip_stats(
                self.world.net.stats(),
                &self.world.jumped,
                u64::saturating_add,
            ),
        }
    }

    /// Encode the full session into a checkpoint envelope [`Value`]. The
    /// process table, in-flight message tokens and protocol costs ride in
    /// the envelope's `world` slot alongside the network and scheduler,
    /// and, once periods have been skipped, the network counters they
    /// account for (`jumped`).
    pub fn checkpoint(&self) -> Value {
        let mut world = vec![
            ("procs".to_owned(), self.world.procs.to_value()),
            ("protocol".to_owned(), self.world.protocol.to_value()),
            ("token_info".to_owned(), self.world.token_info.to_value()),
            ("next_token".to_owned(), self.world.next_token.to_value()),
            (
                "messages_sent".to_owned(),
                self.world.messages_sent.to_value(),
            ),
        ];
        let jumped = &self.world.jumped;
        if *jumped != zero_stats(jumped.link_bytes.len()) {
            world.push(("jumped".to_owned(), jumped.to_value()));
        }
        checkpoint::encode(&self.world.net, &self.sched, Value::Object(world))
    }

    /// Rebuild a session from an envelope produced by
    /// [`ReplaySession::checkpoint`].
    pub fn restore(v: &Value) -> Result<Self, CheckpointError> {
        let (net, sched, world) = checkpoint::decode_state::<Ev>(v)?;
        let fields = world.and_then(Value::as_object).ok_or_else(|| {
            CheckpointError::Format("replay session world slot is not an object".to_owned())
        })?;
        let procs: Vec<Proc> = serde::field(fields, "procs", "ReplaySession")?;
        let hosts = net.platform().host_count();
        let ranks = procs.len();
        for (i, p) in procs.iter().enumerate() {
            if p.host.index() >= hosts {
                return Err(CheckpointError::Format(format!(
                    "rank {i} maps to {} but the platform has {hosts} hosts",
                    p.host
                )));
            }
            check_ops(&p.ops, i, ranks).map_err(|e| CheckpointError::Format(e.to_string()))?;
            check_frames(&p.ops, p.pc, &p.loops)
                .map_err(|e| CheckpointError::Format(format!("rank {i}: {e}")))?;
            if let ProcState::Waiting { from, .. } = p.state {
                if from >= ranks {
                    return Err(CheckpointError::Format(format!(
                        "rank {i}: waits for rank {from} outside the {ranks}-rank replay"
                    )));
                }
            }
        }
        let token_info: IdMap<u64, (usize, usize, u32)> =
            serde::field(fields, "token_info", "ReplaySession")?;
        let next_token: u64 = serde::field(fields, "next_token", "ReplaySession")?;
        for (token, &(src, dst, _)) in &token_info {
            if src >= ranks || dst >= ranks {
                return Err(CheckpointError::Format(format!(
                    "in-flight message {token} references a rank outside the {ranks}-rank replay"
                )));
            }
            if *token >= next_token {
                return Err(CheckpointError::Format(format!(
                    "in-flight message {token} is not below the next token {next_token}"
                )));
            }
        }
        if let Some(token) = net.flow_tokens().find(|t| !token_info.contains_key(t)) {
            return Err(CheckpointError::Format(format!(
                "a flow in flight carries token {token}, which names no message"
            )));
        }
        let links = net.stats().link_bytes.len();
        let jumped: Option<NetStats> = serde::field(fields, "jumped", "ReplaySession")?;
        let jumped = jumped.unwrap_or_else(|| zero_stats(links));
        if jumped.link_bytes.len() != links {
            return Err(CheckpointError::Format(format!(
                "skipped-period counters cover {} links, the platform has {links}",
                jumped.link_bytes.len()
            )));
        }
        let world = ReplayWorld::new(
            net,
            procs,
            serde::field(fields, "protocol", "ReplaySession")?,
            token_info,
            next_token,
            serde::field(fields, "messages_sent", "ReplaySession")?,
            jumped,
        );
        Ok(ReplaySession { world, sched })
    }

    /// Write the session to a checkpoint file.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = serde_json::to_string(&self.checkpoint())
            .map_err(|e| CheckpointError::Format(e.to_string()))?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Resume a session from a file written by [`ReplaySession::save`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let s = std::fs::read_to_string(path)?;
        let v: Value =
            serde_json::from_str(&s).map_err(|e| CheckpointError::Format(e.to_string()))?;
        Self::restore(&v)
    }
}

/// Replay `scripts` on `platform`, mapping rank `i` to `rank_hosts[i]`.
///
/// Fails like [`ReplaySession::new`] on a malformed script set.
pub fn replay(
    platform: Platform,
    rank_hosts: &[HostId],
    scripts: &[ProcessScript],
    cfg: &ReplayConfig,
) -> Result<ReplayResult, ScriptError> {
    let mut session = ReplaySession::new(platform, rank_hosts, scripts, cfg)?;
    session.run_until(None);
    Ok(session.result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{HostSpec, LinkSpec, PlatformBuilder};
    use p2p_common::Bandwidth;

    fn star_platform(n: usize) -> (Platform, Vec<HostId>) {
        let mut b = PlatformBuilder::new();
        let sw = b.add_router("sw");
        let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
        let hosts: Vec<HostId> = (0..n)
            .map(|i| {
                let h = b.add_host(
                    format!("h{i}"),
                    format!("10.0.0.{}", i + 1).parse().unwrap(),
                    HostSpec::default(),
                );
                b.add_host_link(format!("l{i}"), h, sw, spec);
                h
            })
            .collect();
        (b.build(), hosts)
    }

    fn compute(ms: u64) -> ReplayOp {
        ReplayOp::Compute {
            duration: SimDuration::from_millis(ms),
        }
    }

    /// Send to `to`, then wait for a message from `from`: a halo exchange.
    fn exchange(to: usize, from: usize, bytes: u64, tag: u32) -> [ReplayOp; 2] {
        [
            ReplayOp::Send { to, bytes, tag },
            ReplayOp::Recv { from, tag },
        ]
    }

    #[test]
    fn pure_compute_makespan_is_the_slowest_rank() {
        let (p, hosts) = star_platform(3);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![compute(10)],
            },
            ProcessScript {
                rank: 1,
                ops: vec![compute(30)],
            },
            ProcessScript {
                rank: 2,
                ops: vec![compute(20), compute(5)],
            },
        ];
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        assert_eq!(res.makespan, SimDuration::from_millis(30));
        assert_eq!(res.compute_time[2], SimDuration::from_millis(25));
        assert_eq!(res.messages_sent, 0);
    }

    #[test]
    fn ping_message_timing_is_exact() {
        let (p, hosts) = star_platform(2);
        // 12500 bytes over 100 Mbps = 1 ms, plus 200 us of route latency.
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![ReplayOp::Send {
                    to: 1,
                    bytes: 12_500,
                    tag: 0,
                }],
            },
            ProcessScript {
                rank: 1,
                ops: vec![ReplayOp::Recv { from: 0, tag: 0 }],
            },
        ];
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        assert_eq!(res.makespan, SimDuration::from_micros(1200));
        assert_eq!(res.wait_time[1], SimDuration::from_micros(1200));
        assert_eq!(res.wait_time[0], SimDuration::ZERO);
        assert_eq!(res.messages_sent, 1);
    }

    #[test]
    fn sendrecv_exchange_does_not_deadlock() {
        let (p, hosts) = star_platform(2);
        let xchg = |other: usize, first: u64| {
            [
                &[compute(first)],
                &exchange(other, other, 9600, 7)[..],
                &[compute(1)],
            ]
            .concat()
        };
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: xchg(1, 1),
            },
            ProcessScript {
                rank: 1,
                ops: xchg(0, 2),
            },
        ];
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        // Rank 1 computes 2 ms, exchanges (~0.968 ms), computes 1 ms more.
        assert!(res.makespan > SimDuration::from_millis(3));
        assert!(res.makespan < SimDuration::from_millis(5));
    }

    #[test]
    fn recv_before_send_blocks_until_delivery() {
        let (p, hosts) = star_platform(2);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![
                    compute(50),
                    ReplayOp::Send {
                        to: 1,
                        bytes: 100,
                        tag: 1,
                    },
                ],
            },
            ProcessScript {
                rank: 1,
                ops: vec![ReplayOp::Recv { from: 0, tag: 1 }],
            },
        ];
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        assert!(res.wait_time[1] >= SimDuration::from_millis(50));
        assert!(res.makespan >= SimDuration::from_millis(50));
    }

    #[test]
    fn tags_disambiguate_messages() {
        let (p, hosts) = star_platform(2);
        // Rank 0 sends tag 2 then tag 1; rank 1 waits for tag 1 first. Since
        // matching is by (source, tag) the replay must not mis-deliver.
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![
                    ReplayOp::Send {
                        to: 1,
                        bytes: 50_000,
                        tag: 2,
                    },
                    ReplayOp::Send {
                        to: 1,
                        bytes: 100,
                        tag: 1,
                    },
                ],
            },
            ProcessScript {
                rank: 1,
                ops: vec![
                    ReplayOp::Recv { from: 0, tag: 1 },
                    ReplayOp::Recv { from: 0, tag: 2 },
                ],
            },
        ];
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        assert_eq!(res.messages_sent, 2);
        assert!(res.finish_times[1] > SimTime::ZERO);
    }

    #[test]
    fn protocol_costs_are_charged_and_serialised() {
        let (p, hosts) = star_platform(3);
        let protocol = ProtocolCosts {
            header_bytes: 64,
            send_cpu: SimDuration::from_micros(50),
            recv_cpu: SimDuration::from_micros(50),
        };
        // Ranks 1 and 2 both send to rank 0, which receives both.
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![
                    ReplayOp::Recv { from: 1, tag: 0 },
                    ReplayOp::Recv { from: 2, tag: 0 },
                ],
            },
            ProcessScript {
                rank: 1,
                ops: vec![ReplayOp::Send {
                    to: 0,
                    bytes: 8,
                    tag: 0,
                }],
            },
            ProcessScript {
                rank: 2,
                ops: vec![ReplayOp::Send {
                    to: 0,
                    bytes: 8,
                    tag: 0,
                }],
            },
        ];
        let cfg = ReplayConfig {
            sharing: SharingMode::Bottleneck,
            protocol,
        };
        let res = replay(p, &hosts, &scripts, &cfg).unwrap();
        // Receiver pays 2 * 50 us of protocol processing.
        assert_eq!(res.compute_time[0], SimDuration::from_micros(100));
        assert_eq!(res.compute_time[1], SimDuration::from_micros(50));
        // Headers inflate the wire size.
        assert_eq!(res.net_stats.bytes_delivered, 2 * (8 + 64));
    }

    #[test]
    #[should_panic(expected = "never finished")]
    fn unmatched_receive_is_reported() {
        let (p, hosts) = star_platform(2);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![],
            },
            ProcessScript {
                rank: 1,
                ops: vec![ReplayOp::Recv { from: 0, tag: 9 }],
            },
        ];
        replay(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
    }

    #[test]
    fn ring_pipeline_over_many_ranks_completes() {
        let n = 16;
        let (p, hosts) = star_platform(n);
        let mut scripts = Vec::new();
        for r in 0..n {
            let mut ops = vec![compute(1)];
            if r > 0 {
                ops.push(ReplayOp::Recv {
                    from: r - 1,
                    tag: 0,
                });
            }
            if r + 1 < n {
                ops.push(ReplayOp::Send {
                    to: r + 1,
                    bytes: 1000,
                    tag: 0,
                });
            }
            scripts.push(ProcessScript { rank: r, ops });
        }
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        assert_eq!(res.messages_sent, (n - 1) as u64);
        // The token must travel through all ranks: makespan well above a single hop.
        assert!(res.makespan > SimDuration::from_millis(3));
    }

    #[test]
    fn session_checkpoint_mid_replay_restores_bit_identically() {
        // A congested max–min run with protocol costs, paused part-way.
        let n = 8;
        let (p, hosts) = star_platform(n);
        let mut scripts = Vec::new();
        for r in 0..n {
            let mut ops = vec![compute(1 + r as u64)];
            for _ in 0..3 {
                ops.push(ReplayOp::Send {
                    to: (r + 1) % n,
                    bytes: 400_000,
                    tag: 5,
                });
                ops.push(ReplayOp::Recv {
                    from: (r + n - 1) % n,
                    tag: 5,
                });
            }
            scripts.push(ProcessScript { rank: r, ops });
        }
        let cfg = ReplayConfig {
            sharing: SharingMode::MaxMinFair,
            protocol: ProtocolCosts {
                header_bytes: 64,
                send_cpu: SimDuration::from_micros(20),
                recv_cpu: SimDuration::from_micros(20),
            },
        };

        let mut uninterrupted = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg).unwrap();
        uninterrupted.run_until(None);
        let want = uninterrupted.result();

        let mut paused = ReplaySession::new(p, &hosts, &scripts, &cfg).unwrap();
        paused.run_until(Some(SimTime::from_millis(20)));
        let snapshot = paused.checkpoint();
        // Serialization is canonical: a second snapshot of the same state is
        // byte-identical.
        assert_eq!(
            serde_json::to_string(&snapshot).unwrap(),
            serde_json::to_string(&paused.checkpoint()).unwrap()
        );
        let mut resumed = ReplaySession::restore(&snapshot).unwrap();
        resumed.run_until(None);
        let got = resumed.result();

        assert_eq!(got.finish_times, want.finish_times);
        assert_eq!(got.compute_time, want.compute_time);
        assert_eq!(got.wait_time, want.wait_time);
        assert_eq!(got.messages_sent, want.messages_sent);
        assert_eq!(got.net_stats, want.net_stats);
    }

    /// A 4-rank ring of 4 MB sends on the Bordeplage cluster under the
    /// paper's `Bottleneck` mode, with protocol costs.
    fn bottleneck_ring() -> (Platform, Vec<HostId>, Vec<ProcessScript>, ReplayConfig) {
        let topo = crate::topology::cluster_bordeplage(4, HostSpec::default());
        let n = 4;
        let scripts = (0..n)
            .map(|r| {
                let mut ops = vec![compute(1)];
                for _ in 0..2 {
                    ops.extend(exchange((r + 1) % n, (r + n - 1) % n, 4_000_000, 2));
                }
                ProcessScript { rank: r, ops }
            })
            .collect();
        let cfg = ReplayConfig {
            protocol: ProtocolCosts {
                header_bytes: 64,
                send_cpu: SimDuration::from_micros(20),
                recv_cpu: SimDuration::from_micros(20),
            },
            ..ReplayConfig::default()
        };
        (topo.platform, topo.hosts[..n].to_vec(), scripts, cfg)
    }

    #[test]
    fn bottleneck_session_restores_with_messages_in_flight() {
        let (p, hosts, scripts, cfg) = bottleneck_ring();
        assert_eq!(cfg.sharing, SharingMode::Bottleneck);
        let mut uninterrupted = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg).unwrap();
        uninterrupted.run_until(None);
        let want = uninterrupted.result();

        let mut paused = ReplaySession::new(p, &hosts, &scripts, &cfg).unwrap();
        paused.run_until(Some(SimTime::from_millis(1)));
        assert_eq!(
            paused.world.token_info.len(),
            4,
            "every rank's send is in flight"
        );
        let text = serde_json::to_string(&paused.checkpoint()).unwrap();
        let snapshot: Value = serde_json::from_str(&text).unwrap();
        let mut resumed = ReplaySession::restore(&snapshot).unwrap();
        assert_eq!(serde_json::to_string(&resumed.checkpoint()).unwrap(), text);
        resumed.run_until(None);
        let got = resumed.result();

        assert_eq!(got.makespan, want.makespan);
        assert_eq!(got.finish_times, want.finish_times);
        assert_eq!(got.compute_time, want.compute_time);
        assert_eq!(got.wait_time, want.wait_time);
        assert_eq!(got.messages_sent, want.messages_sent);
        assert_eq!(got.net_stats, want.net_stats);
    }

    /// The Bottleneck ring cut at 1 ms, decoded from its checkpoint text
    /// after replacing the first occurrence of each `(from, to)` pair.
    fn edited_ring_checkpoint(edits: &[(&str, &str)]) -> Value {
        let (p, hosts, scripts, cfg) = bottleneck_ring();
        let mut s = ReplaySession::new(p, &hosts, &scripts, &cfg).unwrap();
        s.run_until(Some(SimTime::from_millis(1)));
        let mut text = serde_json::to_string(&s.checkpoint()).unwrap();
        for (from, to) in edits {
            assert!(text.contains(from), "checkpoint lacks `{from}`");
            text = text.replacen(from, to, 1);
        }
        serde_json::from_str(&text).unwrap()
    }

    fn restore_err(v: &Value) -> String {
        match ReplaySession::restore(v) {
            Ok(_) => panic!("malformed checkpoint restored"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn restore_rejects_a_send_to_an_unknown_rank() {
        let v = edited_ring_checkpoint(&[(r#"{"Send":{"to":1,"#, r#"{"Send":{"to":4,"#)]);
        assert!(restore_err(&v).contains("names rank 4"));
    }

    #[test]
    fn restore_rejects_a_recv_from_an_unknown_rank() {
        let v = edited_ring_checkpoint(&[(r#"{"Recv":{"from":3,"#, r#"{"Recv":{"from":9,"#)]);
        assert!(restore_err(&v).contains("names rank 9"));
    }

    #[test]
    fn restore_rejects_a_stored_sendrecv() {
        let v = edited_ring_checkpoint(&[(
            r#"{"Recv":{"from":3,"tag":2}}"#,
            r#"{"SendRecv":{"to":1,"from":7,"bytes":1,"tag":2}}"#,
        )]);
        assert!(restore_err(&v).contains("unknown ReplayOp variant SendRecv"));
    }

    #[test]
    fn restore_rejects_a_flow_whose_token_names_no_message() {
        // Tokens 0..4 are the four ring sends in flight at the cut.
        let renamed = (r#""token_info":{"0":"#, r#""token_info":{"7":"#);
        let v = edited_ring_checkpoint(&[renamed]);
        assert!(restore_err(&v).contains("is not below the next token"));
        let v = edited_ring_checkpoint(&[renamed, (r#""next_token":4"#, r#""next_token":8"#)]);
        assert!(restore_err(&v).contains("carries token 0"));
    }

    #[test]
    fn restore_rejects_waiting_on_an_unknown_rank() {
        let (p, hosts) = star_platform(2);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![compute(5)],
            },
            ProcessScript {
                rank: 1,
                ops: vec![ReplayOp::Recv { from: 0, tag: 3 }],
            },
        ];
        let mut s = ReplaySession::new(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        s.run_until(Some(SimTime::from_millis(1)));
        let text = serde_json::to_string(&s.checkpoint()).unwrap();
        let waiting = r#"{"Waiting":{"from":0,"tag":3}}"#;
        assert!(text.contains(waiting));
        let v = serde_json::from_str(&text.replace(waiting, r#"{"Waiting":{"from":2,"tag":3}}"#))
            .unwrap();
        assert!(restore_err(&v).contains("waits for rank 2"));
    }

    #[test]
    fn push_ops_streams_work_into_a_live_session() {
        let (p, hosts) = star_platform(2);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![compute(1)],
            },
            ProcessScript {
                rank: 1,
                ops: vec![],
            },
        ];
        let mut s = ReplaySession::new(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        s.run_until(None);
        assert!(s.finished());
        let first = s.result().makespan;

        // Revive both ranks with a streamed message exchange.
        s.push_ops(
            0,
            &[ReplayOp::Send {
                to: 1,
                bytes: 12_500,
                tag: 3,
            }],
        )
        .unwrap();
        s.push_ops(1, &[ReplayOp::Recv { from: 0, tag: 3 }])
            .unwrap();
        s.run_until(None);
        assert!(s.finished());
        let second = s.result();
        assert!(second.makespan > first);
        assert_eq!(second.messages_sent, 1);
    }

    /// A finished two-rank session, and the result of streaming one message
    /// exchange into it after a push was rejected (or not).
    fn session_after(rejected: impl FnOnce(&mut ReplaySession)) -> ReplayResult {
        let (p, hosts) = star_platform(2);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![compute(1)],
            },
            ProcessScript {
                rank: 1,
                ops: vec![],
            },
        ];
        let mut s = ReplaySession::new(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        s.run_until(None);
        rejected(&mut s);
        assert!(s.finished(), "a rejected push revives no rank");
        s.push_ops(0, &exchange(1, 1, 12_500, 3)).unwrap();
        s.push_ops(
            1,
            &[
                ReplayOp::Recv { from: 0, tag: 3 },
                ReplayOp::Send {
                    to: 0,
                    bytes: 1,
                    tag: 3,
                },
            ],
        )
        .unwrap();
        s.run_until(None);
        s.result()
    }

    #[test]
    fn push_ops_rejects_an_unknown_target_rank() {
        let clean = session_after(|_| {});
        let after = session_after(|s| {
            let err = s.push_ops(2, &[compute(1)]).unwrap_err();
            assert_eq!(err, ScriptError::UnknownRank { rank: 2 });
            assert!(err.to_string().contains("rank 2"));
        });
        assert_eq!(after.finish_times, clean.finish_times);
        assert_eq!(after.wait_time, clean.wait_time);
        assert_eq!((after.messages_sent, clean.messages_sent), (2, 2));
    }

    #[test]
    fn push_ops_rejects_a_peer_outside_the_world() {
        let clean = session_after(|_| {});
        let after = session_after(|s| {
            let send = ReplayOp::Send {
                to: 5,
                bytes: 1,
                tag: 0,
            };
            let err = s.push_ops(0, &[compute(1), send]).unwrap_err();
            assert_eq!(
                err,
                ScriptError::UnknownPeer {
                    rank: 0,
                    op: 1,
                    peer: 5
                }
            );
            assert!(err.to_string().contains("names rank 5"));
            let recv = ReplayOp::Recv { from: 3, tag: 0 };
            assert!(s.push_ops(1, &[recv]).is_err());
            let err = s.push_ops(0, &exchange(1, 9, 1, 0)).unwrap_err();
            assert_eq!(
                err,
                ScriptError::UnknownPeer {
                    rank: 0,
                    op: 1,
                    peer: 9
                }
            );
        });
        assert_eq!(after.finish_times, clean.finish_times);
        assert_eq!(after.wait_time, clean.wait_time);
        assert_eq!((after.messages_sent, clean.messages_sent), (2, 2));
    }

    #[test]
    fn maxmin_and_bottleneck_agree_for_sparse_traffic() {
        let (p, hosts) = star_platform(2);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![ReplayOp::Send {
                    to: 1,
                    bytes: 125_000,
                    tag: 0,
                }],
            },
            ProcessScript {
                rank: 1,
                ops: vec![ReplayOp::Recv { from: 0, tag: 0 }],
            },
        ];
        let a = replay(p.clone(), &hosts, &scripts, &ReplayConfig::default()).unwrap();
        let cfg = ReplayConfig {
            sharing: SharingMode::MaxMinFair,
            protocol: ProtocolCosts::none(),
        };
        let b = replay(p, &hosts, &scripts, &cfg).unwrap();
        let rel =
            (a.makespan.as_secs_f64() - b.makespan.as_secs_f64()).abs() / a.makespan.as_secs_f64();
        assert!(rel < 0.01, "models disagree by {rel}");
    }

    /// `ops` with every loop written out: the flat script a loop-free
    /// replay takes as its oracle.
    fn unroll(ops: &[ReplayOp]) -> Vec<ReplayOp> {
        let mut out = Vec::new();
        let mut pc = 0;
        while pc < ops.len() {
            match ops[pc] {
                ReplayOp::Repeat { count, len } => {
                    let body = unroll(&ops[pc + 1..pc + 1 + len]);
                    for _ in 0..count {
                        out.extend_from_slice(&body);
                    }
                    pc += 1 + len;
                }
                op => {
                    out.push(op);
                    pc += 1;
                }
            }
        }
        out
    }

    fn unrolled(scripts: &[ProcessScript]) -> Vec<ProcessScript> {
        scripts
            .iter()
            .map(|s| ProcessScript {
                rank: s.rank,
                ops: unroll(&s.ops),
            })
            .collect()
    }

    /// The event-by-event replay: the same kernel with the period search
    /// switched off.
    fn full_replay(
        p: Platform,
        hosts: &[HostId],
        scripts: &[ProcessScript],
        cfg: &ReplayConfig,
    ) -> ReplayResult {
        let mut s = ReplaySession::new(p, hosts, scripts, cfg).unwrap();
        s.world.detect = None;
        s.run_until(None);
        s.result()
    }

    /// A stencil sweep with a gather/broadcast reduction on `n` ranks of
    /// the Bordeplage cluster, `sweeps` times, with uneven compute, a
    /// prefix before the loop and a tail after it.
    fn sweeps(n: usize, sweeps: u64) -> (Platform, Vec<HostId>, Vec<ProcessScript>) {
        let topo = crate::topology::cluster_bordeplage(n, HostSpec::default());
        let scripts = (0..n)
            .map(|r| {
                let mut body = vec![ReplayOp::Compute {
                    duration: SimDuration::from_micros(900 + 130 * r as u64),
                }];
                for peer in [r.wrapping_sub(1), r + 1] {
                    if peer < n {
                        body.extend(exchange(peer, peer, 9_600, 1));
                    }
                }
                if r == 0 {
                    body.extend((1..n).map(|from| ReplayOp::Recv { from, tag: 2 }));
                    body.extend((1..n).map(|to| ReplayOp::Send {
                        to,
                        bytes: 8,
                        tag: 2,
                    }));
                } else {
                    body.push(ReplayOp::Send {
                        to: 0,
                        bytes: 8,
                        tag: 2,
                    });
                    body.push(ReplayOp::Recv { from: 0, tag: 2 });
                }
                let mut ops = vec![compute(1 + r as u64)];
                ReplayOp::push_repeat(&mut ops, sweeps, &body);
                ops.push(compute(2));
                ProcessScript { rank: r, ops }
            })
            .collect();
        (topo.platform, topo.hosts[..n].to_vec(), scripts)
    }

    fn with_costs() -> ProtocolCosts {
        ProtocolCosts {
            header_bytes: 64,
            send_cpu: SimDuration::from_micros(20),
            recv_cpu: SimDuration::from_micros(20),
        }
    }

    #[test]
    fn repeat_scripts_replay_like_their_unrolled_form() {
        // Nested loops, an exchange inside a body, a skipped loop, and a
        // loop at the very end of a script.
        let (p, hosts) = star_platform(3);
        let mut scripts = Vec::new();
        for r in 0..3 {
            let mut inner = Vec::new();
            ReplayOp::push_repeat(&mut inner, 3, &[compute(1 + r as u64)]);
            // Shift around the ring one way, then the other.
            let mut body = inner.clone();
            body.extend(exchange((r + 1) % 3, (r + 2) % 3, 40_000, 4));
            body.extend(exchange((r + 2) % 3, (r + 1) % 3, 40_000, 4));
            let mut ops = Vec::new();
            ReplayOp::push_repeat(&mut ops, 0, &[compute(50)]);
            ReplayOp::push_repeat(&mut ops, 4, &body);
            ReplayOp::push_repeat(&mut ops, 2, &inner);
            scripts.push(ProcessScript { rank: r, ops });
        }
        let (sp, shosts, sscripts) = sweeps(5, 40);
        for sharing in [SharingMode::Bottleneck, SharingMode::MaxMinFair] {
            for protocol in [ProtocolCosts::none(), with_costs()] {
                let cfg = ReplayConfig { sharing, protocol };
                for (p, hosts, scripts) in [
                    (p.clone(), &hosts, &scripts),
                    (sp.clone(), &shosts, &sscripts),
                ] {
                    let want = replay(p.clone(), hosts, &unrolled(scripts), &cfg).unwrap();
                    assert_eq!(replay(p.clone(), hosts, scripts, &cfg).unwrap(), want);
                    assert_eq!(full_replay(p, hosts, scripts, &cfg), want);
                }
            }
        }
    }

    #[test]
    fn bottleneck_sweeps_skip_periods_and_keep_every_count() {
        for protocol in [ProtocolCosts::none(), with_costs()] {
            let cfg = ReplayConfig {
                protocol,
                ..ReplayConfig::default()
            };
            let (p, hosts, scripts) = sweeps(6, 900);
            let mut s = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg).unwrap();
            s.run_until(None);
            assert!(s.world.jumped.flows_started > 0, "no period was skipped");
            assert!(s.world.jumped.link_bytes.iter().any(|&b| b > 0));
            assert_eq!(s.result(), full_replay(p, &hosts, &scripts, &cfg));
        }
    }

    #[test]
    fn maxmin_replays_never_search_for_a_period() {
        let (p, hosts, scripts) = sweeps(4, 30);
        let cfg = ReplayConfig {
            sharing: SharingMode::MaxMinFair,
            protocol: ProtocolCosts::none(),
        };
        let mut s = ReplaySession::new(p, &hosts, &scripts, &cfg).unwrap();
        assert!(s.world.detect.is_none());
        s.run_until(None);
        assert_eq!(s.world.jumped, zero_stats(s.world.jumped.link_bytes.len()));
    }

    #[test]
    fn a_growing_mailbox_is_never_periodic() {
        // Rank 0 sends two messages per sweep, rank 1 takes one: rank 1's
        // mailbox grows every sweep, so nothing repeats, and the backlog is
        // drained after the loop.
        let (p, hosts) = star_platform(2);
        let send = ReplayOp::Send {
            to: 1,
            bytes: 1_000,
            tag: 0,
        };
        let mut zero = Vec::new();
        ReplayOp::push_repeat(&mut zero, 200, &[compute(1), send, send]);
        let mut one = Vec::new();
        ReplayOp::push_repeat(
            &mut one,
            200,
            &[compute(1), ReplayOp::Recv { from: 0, tag: 0 }],
        );
        ReplayOp::push_repeat(&mut one, 200, &[ReplayOp::Recv { from: 0, tag: 0 }]);
        let scripts = vec![
            ProcessScript { rank: 0, ops: zero },
            ProcessScript { rank: 1, ops: one },
        ];
        let cfg = ReplayConfig::default();
        let mut s = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg).unwrap();
        s.run_until(None);
        assert_eq!(s.world.jumped.flows_started, 0);
        assert_eq!(s.result(), full_replay(p, &hosts, &scripts, &cfg));
    }

    #[test]
    fn a_loop_after_a_long_aperiodic_one_is_still_skipped() {
        // 300 sweeps in which rank 1's mailbox grows, then 150 periodic
        // ping-pongs: the search restarts with the second loop, instead of
        // waiting out the first loop's Brent power (256).
        let (p, hosts) = star_platform(2);
        let send = |to: usize, tag: u32| ReplayOp::Send {
            to,
            bytes: 1_000,
            tag,
        };
        let recv = |from: usize, tag: u32| ReplayOp::Recv { from, tag };
        let mut zero = Vec::new();
        ReplayOp::push_repeat(&mut zero, 300, &[compute(1), send(1, 0), send(1, 0)]);
        ReplayOp::push_repeat(&mut zero, 150, &[compute(1), send(1, 1), recv(1, 1)]);
        let mut one = Vec::new();
        ReplayOp::push_repeat(&mut one, 300, &[compute(1), recv(0, 0)]);
        ReplayOp::push_repeat(&mut one, 150, &[recv(0, 1), compute(2), send(0, 1)]);
        ReplayOp::push_repeat(&mut one, 300, &[recv(0, 0)]);
        let scripts = vec![
            ProcessScript { rank: 0, ops: zero },
            ProcessScript { rank: 1, ops: one },
        ];
        let cfg = ReplayConfig::default();
        let mut s = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg).unwrap();
        s.run_until(None);
        assert!(s.world.jumped.flows_started > 0, "no period was skipped");
        assert_eq!(s.result(), full_replay(p, &hosts, &scripts, &cfg));
    }

    #[test]
    fn a_horizon_stops_a_skip_short_and_increments_add_up() {
        let (p, hosts, scripts) = sweeps(4, 900);
        let cfg = ReplayConfig::default();
        let want = full_replay(p.clone(), &hosts, &scripts, &cfg);
        let mut s = ReplaySession::new(p, &hosts, &scripts, &cfg).unwrap();
        let step = SimDuration::from_nanos(want.makespan.as_nanos() / 7);
        let mut limit = SimTime::ZERO;
        while s.pending() > 0 {
            limit += step;
            let last = s.run_until(Some(limit));
            assert!(last <= limit && s.now() <= limit, "ran past the horizon");
        }
        assert!(s.world.jumped.flows_started > 0, "no period was skipped");
        assert_eq!(s.result(), want);
    }

    #[test]
    fn checkpoints_mid_loop_and_after_a_skip_restore_to_the_same_result() {
        let (p, hosts, scripts) = sweeps(5, 600);
        let cfg = ReplayConfig {
            protocol: with_costs(),
            ..ReplayConfig::default()
        };
        let want = full_replay(p.clone(), &hosts, &scripts, &cfg);
        // Cut in the transient, after a skip up to the cut, and near the
        // end, after the skip of the whole loop.
        let early = SimTime::from_millis(3);
        let mid = SimTime::from_millis(40);
        let late = SimTime::from_nanos(want.makespan.as_nanos() / 10 * 9);
        for cut in [early, mid, late] {
            let mut s = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg).unwrap();
            s.run_until(Some(cut));
            let skipped = s.world.jumped.flows_started > 0;
            assert_eq!(skipped, cut != early);
            let text = serde_json::to_string(&s.checkpoint()).unwrap();
            assert!(text.contains(r#""loops":[["#));
            assert_eq!(text.contains(r#""jumped":"#), skipped);
            let mut resumed =
                ReplaySession::restore(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(serde_json::to_string(&resumed.checkpoint()).unwrap(), text);
            resumed.run_until(None);
            assert_eq!(resumed.result(), want);
        }
    }

    #[test]
    fn a_restored_session_searches_from_its_first_boundary() {
        // Rank 1 sends rank 0 a message every 1 ms that takes 3.2 ms to
        // arrive, so messages from earlier iterations are in flight at each
        // of rank 0's iteration boundaries, and across the cut.
        let (p, hosts) = star_platform(2);
        let send = ReplayOp::Send {
            to: 0,
            bytes: 37_500,
            tag: 0,
        };
        let mut zero = Vec::new();
        ReplayOp::push_repeat(
            &mut zero,
            60,
            &[compute(1), ReplayOp::Recv { from: 1, tag: 0 }],
        );
        let mut one = Vec::new();
        ReplayOp::push_repeat(&mut one, 60, &[compute(1), send]);
        let scripts = vec![
            ProcessScript { rank: 0, ops: zero },
            ProcessScript { rank: 1, ops: one },
        ];
        let cfg = ReplayConfig::default();
        let want = full_replay(p.clone(), &hosts, &scripts, &cfg);
        let mut cut = ReplaySession::new(p, &hosts, &scripts, &cfg).unwrap();
        cut.run_until(Some(SimTime::from_micros(10_500)));
        assert!(!cut.world.token_info.is_empty(), "messages are in flight");
        let mut s = ReplaySession::restore(&cut.checkpoint()).unwrap();
        let first_new = s.world.next_token;
        // Step to the first boundary after the restore.
        while s.world.detect.as_ref().unwrap().lam == 0 {
            let next = s.sched.peek_time().expect("rank 0 is still in its loop");
            s.run_until(Some(next));
        }
        assert!(
            s.world.net.flow_tokens().any(|t| t < first_new),
            "a message sent before the cut is still in flight"
        );
        assert!(
            s.world.detect.as_ref().unwrap().saved.is_some(),
            "the first boundary saved no snapshot"
        );
        s.run_until(None);
        assert!(s.world.jumped.flows_started > 0, "no period was skipped");
        assert_eq!(s.result(), want);
    }

    #[test]
    fn malformed_scripts_are_errors() {
        let (p, hosts) = star_platform(2);
        let cfg = ReplayConfig::default();
        let new = |scripts: &[ProcessScript], hosts: &[HostId]| {
            ReplaySession::new(p.clone(), hosts, scripts, &cfg).err()
        };
        let script = |rank: usize, ops: Vec<ReplayOp>| ProcessScript { rank, ops };
        let fine = || vec![script(0, vec![compute(1)]), script(1, vec![])];
        assert_eq!(
            new(&fine(), &hosts[..1]),
            Some(ScriptError::HostCount {
                hosts: 1,
                scripts: 2
            })
        );
        let mut swapped = fine();
        swapped[1].rank = 0;
        assert_eq!(
            new(&swapped, &hosts),
            Some(ScriptError::Misnumbered { index: 1, rank: 0 })
        );
        let nowhere = [hosts[0], HostId::new(99)];
        assert!(matches!(
            new(&fine(), &nowhere),
            Some(ScriptError::UnknownHost { rank: 1, .. })
        ));
        // A peer outside the world, also inside a loop body.
        let mut ops = Vec::new();
        ReplayOp::push_repeat(
            &mut ops,
            2,
            &[compute(1), ReplayOp::Recv { from: 2, tag: 0 }],
        );
        let bad = vec![script(0, vec![]), script(1, ops)];
        assert_eq!(
            new(&bad, &hosts),
            Some(ScriptError::UnknownPeer {
                rank: 1,
                op: 2,
                peer: 2
            })
        );
        let empty = vec![
            script(0, vec![ReplayOp::Repeat { count: 3, len: 0 }]),
            script(1, vec![]),
        ];
        assert_eq!(
            new(&empty, &hosts),
            Some(ScriptError::EmptyRepeat { rank: 0, op: 0 })
        );
        // The inner body runs past the outer one.
        let overrun = vec![
            script(
                0,
                vec![
                    ReplayOp::Repeat { count: 2, len: 2 },
                    ReplayOp::Repeat { count: 2, len: 2 },
                    compute(1),
                    compute(1),
                ],
            ),
            script(1, vec![]),
        ];
        assert_eq!(
            new(&overrun, &hosts),
            Some(ScriptError::RepeatOverrun { rank: 0, op: 1 })
        );
        let huge = |len: usize| ReplayOp::Repeat {
            count: u64::MAX,
            len,
        };
        let too_long = vec![
            script(0, vec![]),
            script(1, vec![huge(2), huge(1), compute(1)]),
        ];
        assert_eq!(
            new(&too_long, &hosts),
            Some(ScriptError::TooLong { rank: 1 })
        );
        let err = replay(p.clone(), &hosts, &too_long, &cfg).unwrap_err();
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn push_ops_checks_and_runs_loops() {
        let clean = session_after(|_| {});
        let after = session_after(|s| {
            let empty = [ReplayOp::Repeat { count: 2, len: 0 }];
            assert_eq!(
                s.push_ops(0, &empty),
                Err(ScriptError::EmptyRepeat { rank: 0, op: 0 })
            );
            let overrun = [ReplayOp::Repeat { count: 2, len: 2 }, compute(1)];
            assert_eq!(
                s.push_ops(0, &overrun),
                Err(ScriptError::RepeatOverrun { rank: 0, op: 0 })
            );
            let stray = [
                ReplayOp::Repeat { count: 2, len: 1 },
                ReplayOp::Send {
                    to: 7,
                    bytes: 1,
                    tag: 0,
                },
            ];
            assert_eq!(
                s.push_ops(1, &stray),
                Err(ScriptError::UnknownPeer {
                    rank: 1,
                    op: 1,
                    peer: 7
                })
            );
        });
        assert_eq!(after, clean);
        // A pushed loop runs like its unrolled form.
        let (p, hosts) = star_platform(2);
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![],
            },
            ProcessScript {
                rank: 1,
                ops: vec![],
            },
        ];
        let cfg = ReplayConfig::default();
        let body = [&[compute(2)], &exchange(1, 1, 5_000, 1)[..]].concat();
        let mirror = [&exchange(0, 0, 5_000, 1)[..], &[compute(1)]].concat();
        let mut looped = [Vec::new(), Vec::new()];
        ReplayOp::push_repeat(&mut looped[0], 300, &body);
        ReplayOp::push_repeat(&mut looped[1], 300, &mirror);
        let run = |ops: &[Vec<ReplayOp>; 2]| {
            let mut s = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg).unwrap();
            s.run_until(None);
            s.push_ops(0, &ops[0]).unwrap();
            s.push_ops(1, &ops[1]).unwrap();
            s.run_until(None);
            s.result()
        };
        let flat = [unroll(&looped[0]), unroll(&looped[1])];
        assert_eq!(run(&looped), run(&flat));
    }

    #[test]
    fn restore_rejects_loop_state_that_does_not_fit_the_script() {
        let (p, hosts, scripts) = sweeps(3, 50);
        let mut s = ReplaySession::new(p, &hosts, &scripts, &ReplayConfig::default()).unwrap();
        s.run_until(Some(SimTime::from_millis(8)));
        let text = serde_json::to_string(&s.checkpoint()).unwrap();
        let frame = text
            .find(r#""loops":[[1,"#)
            .expect("rank 0 is inside its loop");
        let iter_at = frame + r#""loops":[[1,"#.len();
        let iter_end = iter_at + text[iter_at..].find(']').unwrap();
        let edited = |replacement: &str| {
            let t = format!("{}{}{}", &text[..frame], replacement, &text[iter_end + 2..]);
            restore_err(&serde_json::from_str(&t).unwrap())
        };
        assert!(edited(r#""loops":[[1,50]]"#).contains("iteration 50 of 50"));
        assert!(edited(r#""loops":[[0,3]]"#).contains("is not a Repeat"));
        assert!(edited(r#""loops":[]"#).contains("without a frame"));
        assert!(edited(r#""loops":[[1,3],[1,3]]"#).contains("outside its enclosing body"));
    }
}
