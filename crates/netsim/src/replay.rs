//! Trace replay — the MSG-like simulation kernel.
//!
//! dPerf's prediction step "uses the MSG module for replaying trace files
//! based on a deployment platform defined by us" (paper §III-D.1). This module
//! is that replay kernel: every process (rank) owns a *script* of operations —
//! compute for some duration, send a message, wait for a message — and the
//! engine executes all scripts against a [`Platform`], yielding the simulated
//! makespan `t_predicted`.
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

use crate::checkpoint::{self, CheckpointError};
use crate::event::{run_world, Scheduler, World};
use crate::network::{FlowDelivery, NetEvent, NetStats, NetWorldEvent, Network, SharingMode};
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
    /// Convenience: send to `to`, then wait for a message from `from`
    /// (the classic halo exchange). Expanded to `Send` + `Recv` internally.
    SendRecv {
        /// Destination rank of the send half.
        to: usize,
        /// Source rank the receive half waits for.
        from: usize,
        /// Payload size of the send half.
        bytes: u64,
        /// Tag used by both halves.
        tag: u32,
    },
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
#[derive(Debug, Clone)]
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

#[derive(Debug)]
struct Proc {
    host: HostId,
    ops: Vec<ReplayOp>,
    pc: usize,
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
}

// Hand-written serde: the mailbox is keyed by `(usize, u32)` tuples, which
// the shim's map encoding cannot express as JSON object keys. Each count
// becomes a `[from, tag, count]` triple, sorted so the encoding is canonical
// regardless of hash iteration order.
impl Serialize for Proc {
    fn to_value(&self) -> Value {
        let mut mail: Vec<(usize, u32, u64)> = self
            .mailbox
            .iter()
            .map(|(&(from, tag), &n)| (from, tag, n))
            .collect();
        mail.sort_unstable();
        Value::Object(vec![
            ("host".to_owned(), self.host.to_value()),
            ("ops".to_owned(), self.ops.to_value()),
            ("pc".to_owned(), self.pc.to_value()),
            ("state".to_owned(), self.state.to_value()),
            (
                "mailbox".to_owned(),
                Value::Array(
                    mail.into_iter()
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
        ])
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

impl NetWorldEvent for Ev {
    fn as_net_event(&self) -> Option<NetEvent> {
        match self {
            Ev::Net(e) => Some(*e),
            Ev::Resume { .. } => None,
        }
    }
}

struct ReplayWorld {
    net: Network,
    procs: Vec<Proc>,
    protocol: ProtocolCosts,
    token_info: IdMap<u64, (usize, usize, u32)>, // token -> (src, dst, tag)
    next_token: u64,
    messages_sent: u64,
}

impl ReplayWorld {
    fn advance(&mut self, sched: &mut Scheduler<Ev>, rank: usize) {
        loop {
            let p = &mut self.procs[rank];
            if p.state == ProcState::Done {
                return;
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
                ReplayOp::SendRecv { .. } => {
                    unreachable!("SendRecv is expanded before the replay starts")
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
        assert!(to < self.procs.len(), "send to unknown rank {to}");
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
                if let Some(d) = self.net.handle_event(sched, ne) {
                    self.deliver(sched, d);
                }
            }
        }
    }
}

/// Expand `SendRecv` into `Send` followed by `Recv`.
fn expand_ops(ops: &[ReplayOp]) -> Vec<ReplayOp> {
    let mut out = Vec::with_capacity(ops.len());
    for &op in ops {
        match op {
            ReplayOp::SendRecv {
                to,
                from,
                bytes,
                tag,
            } => {
                out.push(ReplayOp::Send { to, bytes, tag });
                out.push(ReplayOp::Recv { from, tag });
            }
            other => out.push(other),
        }
    }
    out
}

/// Why [`ReplaySession::push_ops`] rejected a batch of operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The target rank is not a rank of the replay.
    UnknownRank {
        /// The offending rank.
        rank: usize,
    },
    /// Operation `op` of the batch names `peer`, which is not a rank of the
    /// replay.
    UnknownPeer {
        /// Position of the operation in the batch.
        op: usize,
        /// The peer it names.
        peer: usize,
    },
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::UnknownRank { rank } => write!(f, "rank {rank} is not in the replay"),
            PushError::UnknownPeer { op, peer } => {
                write!(f, "op {op} names rank {peer}, which is not in the replay")
            }
        }
    }
}

impl std::error::Error for PushError {}

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
///     topo.platform, &topo.hosts[..2], &scripts, &ReplayConfig::default());
/// session.run_until(None);
///
/// // Checkpoint at the end, restore, and stream more work into rank 0.
/// let snapshot = session.checkpoint();
/// let mut resumed = ReplaySession::restore(&snapshot).unwrap();
/// resumed.push_ops(0, &[ReplayOp::Compute {
///     duration: p2p_common::SimDuration::from_millis(5) }]).unwrap();
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
    /// Panics if the number of scripts and host mappings differ, or if a
    /// script's `rank` field does not match its position.
    pub fn new(
        platform: Platform,
        rank_hosts: &[HostId],
        scripts: &[ProcessScript],
        cfg: &ReplayConfig,
    ) -> Self {
        assert_eq!(
            rank_hosts.len(),
            scripts.len(),
            "need exactly one host per process script"
        );
        for (i, s) in scripts.iter().enumerate() {
            assert_eq!(s.rank, i, "script {i} declares rank {}", s.rank);
        }
        let procs: Vec<Proc> = scripts
            .iter()
            .zip(rank_hosts)
            .map(|(s, &h)| Proc {
                host: h,
                ops: expand_ops(&s.ops),
                pc: 0,
                state: ProcState::Ready,
                mailbox: IdMap::default(),
                finish: None,
                compute_total: SimDuration::ZERO,
                wait_total: SimDuration::ZERO,
                wait_since: SimTime::ZERO,
            })
            .collect();
        let net = Network::new(platform, cfg.sharing);
        let world = ReplayWorld {
            net,
            procs,
            protocol: cfg.protocol,
            token_info: IdMap::default(),
            next_token: 0,
            messages_sent: 0,
        };
        let mut sched: Scheduler<Ev> = Scheduler::new();
        // Kick every rank off at t = 0.
        for rank in 0..world.procs.len() {
            sched.schedule_at(SimTime::ZERO, Ev::Resume { rank });
        }
        ReplaySession { world, sched }
    }

    /// Run until the event queue is empty, or (with `Some(limit)`) until the
    /// next event would fire past `limit`. Returns the timestamp of the last
    /// event processed.
    pub fn run_until(&mut self, limit: Option<SimTime>) -> SimTime {
        run_world(&mut self.world, &mut self.sched, limit)
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
    /// the streaming entry point. `SendRecv` is expanded exactly as in
    /// [`ReplaySession::new`]. A rank that had already finished is revived:
    /// its finish time is cleared and it resumes at the current virtual time.
    ///
    /// Rejects the whole batch, leaving the session unchanged, if `rank` or
    /// a peer named by one of `ops` is not a rank of the replay.
    pub fn push_ops(&mut self, rank: usize, ops: &[ReplayOp]) -> Result<(), PushError> {
        let ranks = self.world.procs.len();
        if rank >= ranks {
            return Err(PushError::UnknownRank { rank });
        }
        for (op, &o) in ops.iter().enumerate() {
            let peers = match o {
                ReplayOp::Compute { .. } => continue,
                ReplayOp::Send { to, .. } => [to; 2],
                ReplayOp::Recv { from, .. } => [from; 2],
                ReplayOp::SendRecv { to, from, .. } => [to, from],
            };
            if let Some(peer) = peers.into_iter().find(|&p| p >= ranks) {
                return Err(PushError::UnknownPeer { op, peer });
            }
        }
        let expanded = expand_ops(ops);
        let p = &mut self.world.procs[rank];
        p.ops.extend(expanded);
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
            net_stats: self.world.net.stats().clone(),
        }
    }

    /// Encode the full session into a checkpoint envelope [`Value`]. The
    /// process table, in-flight message tokens and protocol costs ride in
    /// the envelope's `world` slot alongside the network and scheduler.
    pub fn checkpoint(&self) -> Value {
        let world = Value::Object(vec![
            ("procs".to_owned(), self.world.procs.to_value()),
            ("protocol".to_owned(), self.world.protocol.to_value()),
            ("token_info".to_owned(), self.world.token_info.to_value()),
            ("next_token".to_owned(), self.world.next_token.to_value()),
            (
                "messages_sent".to_owned(),
                self.world.messages_sent.to_value(),
            ),
        ]);
        checkpoint::encode(&self.world.net, &self.sched, world)
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
        let bad = |i: usize, what: String| {
            Err(CheckpointError::Format(format!(
                "rank {i}: {what} outside the {ranks}-rank replay"
            )))
        };
        for (i, p) in procs.iter().enumerate() {
            if p.host.index() >= hosts {
                return Err(CheckpointError::Format(format!(
                    "rank {i} maps to {} but the platform has {hosts} hosts",
                    p.host
                )));
            }
            for (pc, op) in p.ops.iter().enumerate() {
                let peer = match *op {
                    ReplayOp::Compute { .. } => continue,
                    ReplayOp::Send { to, .. } => to,
                    ReplayOp::Recv { from, .. } => from,
                    // Scripts are stored expanded; the kernel never runs one.
                    ReplayOp::SendRecv { .. } => {
                        return Err(CheckpointError::Format(format!(
                            "rank {i}: op {pc} is an unexpanded SendRecv"
                        )));
                    }
                };
                if peer >= ranks {
                    return bad(i, format!("op {pc} names rank {peer}"));
                }
            }
            if let ProcState::Waiting { from, .. } = p.state {
                if from >= ranks {
                    return bad(i, format!("waits for rank {from}"));
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
        Ok(ReplaySession {
            world: ReplayWorld {
                net,
                procs,
                protocol: serde::field(fields, "protocol", "ReplaySession")?,
                token_info,
                next_token,
                messages_sent: serde::field(fields, "messages_sent", "ReplaySession")?,
            },
            sched,
        })
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
/// Panics if the number of scripts and host mappings differ, or if a script's
/// `rank` field does not match its position.
pub fn replay(
    platform: Platform,
    rank_hosts: &[HostId],
    scripts: &[ProcessScript],
    cfg: &ReplayConfig,
) -> ReplayResult {
    let mut session = ReplaySession::new(platform, rank_hosts, scripts, cfg);
    session.run_until(None);
    session.result()
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
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default());
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
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default());
        assert_eq!(res.makespan, SimDuration::from_micros(1200));
        assert_eq!(res.wait_time[1], SimDuration::from_micros(1200));
        assert_eq!(res.wait_time[0], SimDuration::ZERO);
        assert_eq!(res.messages_sent, 1);
    }

    #[test]
    fn sendrecv_exchange_does_not_deadlock() {
        let (p, hosts) = star_platform(2);
        let xchg = |other: usize| ReplayOp::SendRecv {
            to: other,
            from: other,
            bytes: 9600,
            tag: 7,
        };
        let scripts = vec![
            ProcessScript {
                rank: 0,
                ops: vec![compute(1), xchg(1), compute(1)],
            },
            ProcessScript {
                rank: 1,
                ops: vec![compute(2), xchg(0), compute(1)],
            },
        ];
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default());
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
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default());
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
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default());
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
        let res = replay(p, &hosts, &scripts, &cfg);
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
        replay(p, &hosts, &scripts, &ReplayConfig::default());
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
        let res = replay(p, &hosts, &scripts, &ReplayConfig::default());
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

        let mut uninterrupted = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg);
        uninterrupted.run_until(None);
        let want = uninterrupted.result();

        let mut paused = ReplaySession::new(p, &hosts, &scripts, &cfg);
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
                    ops.push(ReplayOp::SendRecv {
                        to: (r + 1) % n,
                        from: (r + n - 1) % n,
                        bytes: 4_000_000,
                        tag: 2,
                    });
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
        let mut uninterrupted = ReplaySession::new(p.clone(), &hosts, &scripts, &cfg);
        uninterrupted.run_until(None);
        let want = uninterrupted.result();

        let mut paused = ReplaySession::new(p, &hosts, &scripts, &cfg);
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
        let mut s = ReplaySession::new(p, &hosts, &scripts, &cfg);
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
        assert!(restore_err(&v).contains("unexpanded SendRecv"));
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
        let mut s = ReplaySession::new(p, &hosts, &scripts, &ReplayConfig::default());
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
        let mut s = ReplaySession::new(p, &hosts, &scripts, &ReplayConfig::default());
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
        let mut s = ReplaySession::new(p, &hosts, &scripts, &ReplayConfig::default());
        s.run_until(None);
        rejected(&mut s);
        assert!(s.finished(), "a rejected push revives no rank");
        let exchange = ReplayOp::SendRecv {
            to: 1,
            from: 1,
            bytes: 12_500,
            tag: 3,
        };
        s.push_ops(0, &[exchange]).unwrap();
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
            assert_eq!(err, PushError::UnknownRank { rank: 2 });
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
            assert_eq!(err, PushError::UnknownPeer { op: 1, peer: 5 });
            assert!(err.to_string().contains("names rank 5"));
            let recv = ReplayOp::Recv { from: 3, tag: 0 };
            assert!(s.push_ops(1, &[recv]).is_err());
            let exchange = ReplayOp::SendRecv {
                to: 1,
                from: 9,
                bytes: 1,
                tag: 0,
            };
            let err = s.push_ops(0, &[exchange]).unwrap_err();
            assert_eq!(err, PushError::UnknownPeer { op: 0, peer: 9 });
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
        let a = replay(p.clone(), &hosts, &scripts, &ReplayConfig::default());
        let cfg = ReplayConfig {
            sharing: SharingMode::MaxMinFair,
            protocol: ProtocolCosts::none(),
        };
        let b = replay(p, &hosts, &scripts, &cfg);
        let rel =
            (a.makespan.as_secs_f64() - b.makespan.as_secs_f64()).abs() / a.makespan.as_secs_f64();
        assert!(rel < 0.01, "models disagree by {rel}");
    }
}
