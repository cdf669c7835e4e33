//! Versioned checkpoint envelope: pause a running simulation to disk and
//! restore it bit-identically.
//!
//! A checkpoint captures the complete [`Network`] state (flow slab, link
//! incidence, union–find components, warm-start fill records — see the
//! `Serialize` impl on [`Network`]) plus the [`Scheduler`]'s clock, counters
//! and pending events, wrapped in a self-describing envelope:
//!
//! ```json
//! {
//!   "format": "netsim-checkpoint",
//!   "version": 5,
//!   "network": { ... },
//!   "scheduler": { ... },
//!   "world": ...
//! }
//! ```
//!
//! The `world` slot is an opaque [`Value`] for whatever state the embedding
//! world carries beyond the network — replaying process scripts, fault
//! plans, RNG streams. The envelope does not interpret it; it only
//! round-trips it, so one file checkpoints the whole simulation.
//!
//! **Restore-determinism contract.** A simulation restored from a checkpoint
//! taken at an event boundary produces the same deliveries at the same
//! timestamps as the uninterrupted run — the restore-identity suites
//! (`tests/checkpoint.rs`, the workspace `checkpoint_restore` test) enforce
//! this on randomised workloads and cut points. The on-disk layout and
//! the invariants behind that guarantee are specified field by field in
//! `docs/CHECKPOINT.md`.
//!
//! Compatibility is strict: [`decode`] rejects any envelope whose `format`
//! or `version` does not match this build ([`FORMAT`], [`VERSION`]) rather
//! than guessing at field migrations — a checkpoint is a precise bit-level
//! contract, not a config file.
//!
//! [`decode`] also checks that the network and the queue agree on the
//! pending completions: each pending `FlowCompletion` must name a flow in
//! flight whose stored completion is that entry's `seq`, and each stored
//! completion must be such an entry.

use crate::event::{EventId, Scheduler};
use crate::network::{NetEvent, Network};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;

/// The envelope's `format` discriminator.
pub const FORMAT: &str = "netsim-checkpoint";

/// The envelope layout version this build reads and writes. Bumped on any
/// change to the encoded state layout; see `docs/CHECKPOINT.md` for the
/// versioning and invalidation rules.
///
/// History: v1 encoded the threading knobs as separate `engine` /
/// `shard_threads` / `parallel_min_flows` network fields; v2 replaced them
/// with one `engine_config` object and
/// added the pool counters to `flush_stats` (`park_wakeups` always encodes
/// as 0 — it is an OS-scheduling artifact, not simulation state); v3 drops
/// `engine_config.engine` (one engine remains) and `flush_stats.rebuilds`;
/// v4 drops `engine_config` (the flush is serial and has no knobs),
/// `attached_flows` (it only fed the deleted dense-flush decision) and the
/// pool and dense-flush counters of `flush_stats`; v5 drops the network's
/// `compaction` policy and `compactions` counter and the scheduler's `dead`
/// counter (superseded completions are cancelled, not left queued), and
/// stores each flow's pending completion as its `seq` (`completion`) in
/// place of a rate version and a pending flag.
pub const VERSION: u64 = 5;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The bytes were not a checkpoint this build understands: malformed
    /// JSON, a foreign `format`, a mismatched `version`, or state fields
    /// that fail validation (the message says which).
    Format(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DeError> for CheckpointError {
    fn from(e: DeError) -> Self {
        CheckpointError::Format(e.to_string())
    }
}

/// A decoded checkpoint: the simulation state plus the embedding world's
/// opaque extra state, if the writer stored any.
pub struct Restored<E> {
    /// The network, exactly as checkpointed (routes re-derived).
    pub network: Network,
    /// The event queue: clock, counters and every pending event.
    pub scheduler: Scheduler<E>,
    /// The writer's `world` slot ([`Value::Null`] when none was stored).
    pub world: Value,
}

/// Encode a network + scheduler pair into a versioned envelope, with an
/// opaque `world` slot for the embedding layer's own state (pass
/// [`Value::Null`] if there is none).
pub fn encode<E: Serialize>(net: &Network, sched: &Scheduler<E>, world: Value) -> Value {
    Value::Object(vec![
        ("format".to_owned(), FORMAT.to_owned().to_value()),
        ("version".to_owned(), VERSION.to_value()),
        ("network".to_owned(), net.to_value()),
        ("scheduler".to_owned(), sched.to_value()),
        ("world".to_owned(), world),
    ])
}

/// Decode an envelope produced by [`encode`], verifying `format` and
/// `version` before touching any state field, and the pending completions
/// against the flows after.
///
/// `E` must encode its embedded [`NetEvent`]s as a derived newtype variant
/// does (or be `NetEvent` itself), so that they can be found in the
/// queue's encoding.
pub fn decode<E: Serialize + Deserialize + From<NetEvent>>(
    v: &Value,
) -> Result<Restored<E>, CheckpointError> {
    let (network, scheduler, world) = decode_state(v)?;
    Ok(Restored {
        network,
        scheduler,
        world: world.cloned().unwrap_or(Value::Null),
    })
}

/// [`decode`] without the copy of the `world` slot: the slot is returned
/// borrowed from `v` (`None` when the writer stored none), for embedders
/// that read their own state straight out of the envelope.
pub(crate) fn decode_state<E: Serialize + Deserialize + From<NetEvent>>(
    v: &Value,
) -> Result<(Network, Scheduler<E>, Option<&Value>), CheckpointError> {
    let fields = v
        .as_object()
        .ok_or_else(|| CheckpointError::Format("envelope is not an object".to_owned()))?;
    let format: String = serde::field(fields, "format", "checkpoint")?;
    if format != FORMAT {
        return Err(CheckpointError::Format(format!(
            "format is {format:?}, expected {FORMAT:?}"
        )));
    }
    let version: u64 = serde::field(fields, "version", "checkpoint")?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "version {version} is not supported by this build (expected {VERSION})"
        )));
    }
    let network: Network = serde::field(fields, "network", "checkpoint")?;
    let scheduler: Scheduler<E> = serde::field(fields, "scheduler", "checkpoint")?;
    let pending = fields
        .iter()
        .find(|(k, _)| k == "scheduler")
        .and_then(|(_, v)| v.as_object())
        .and_then(|s| s.iter().find(|(k, _)| k == "pending"))
        .and_then(|(_, v)| v.as_array())
        .expect("a scheduler that decoded has a `pending` array");
    check_completions::<E>(&network, pending)?;
    let world = fields.iter().find(|(k, _)| k == "world").map(|(_, v)| v);
    Ok((network, scheduler, world))
}

/// Check that the queue's pending `FlowCompletion`s (`[time, seq, event]`
/// triples, already decoded once) and the flows' stored completions name
/// each other one to one.
fn check_completions<E: Serialize + From<NetEvent>>(
    net: &Network,
    pending: &[Value],
) -> Result<(), CheckpointError> {
    let bad = |m: String| Err(CheckpointError::Format(m));
    // The keys of the single-key objects `E` wraps a `NetEvent` in, read
    // off a probe's encoding.
    let mut keys = Vec::new();
    let mut probe = E::from(NetEvent::Rebalance).to_value();
    let target = NetEvent::Rebalance.to_value();
    while probe != target {
        match probe {
            Value::Object(mut fields) if fields.len() == 1 => {
                let (key, inner) = fields.pop().expect("one field");
                keys.push(key);
                probe = inner;
            }
            _ => return bad("the event type does not encode network events as a newtype".into()),
        }
    }
    let mut found = 0usize;
    'entries: for entry in pending {
        let triple = entry.as_array().expect("decoded entries are triples");
        let seq = triple[1].as_u64().expect("decoded seqs are integers");
        let mut event = &triple[2];
        for key in &keys {
            match event.as_object() {
                Some([(k, inner)]) if k == key => event = inner,
                _ => continue 'entries,
            }
        }
        let Ok(NetEvent::FlowCompletion { flow }) = NetEvent::from_value(event) else {
            continue;
        };
        if net.completion_of(flow) != Some(Some(EventId(seq))) {
            return bad(format!(
                "pending completion {seq} names flow {flow:?}, which is not in flight with \
                 that completion scheduled"
            ));
        }
        found += 1;
    }
    let scheduled = net.scheduled_completions();
    if found != scheduled {
        return bad(format!(
            "{scheduled} flows have a completion scheduled, but {found} are pending"
        ));
    }
    Ok(())
}

/// Serialize an envelope to a JSON string (one line, stable field order —
/// two checkpoints of identical state compare byte-equal).
pub fn to_json<E: Serialize>(
    net: &Network,
    sched: &Scheduler<E>,
    world: Value,
) -> Result<String, CheckpointError> {
    serde_json::to_string(&encode(net, sched, world))
        .map_err(|e| CheckpointError::Format(e.to_string()))
}

/// Parse and decode a JSON checkpoint produced by [`to_json`].
pub fn from_json<E: Serialize + Deserialize + From<NetEvent>>(
    s: &str,
) -> Result<Restored<E>, CheckpointError> {
    let v: Value = serde_json::from_str(s).map_err(|e| CheckpointError::Format(e.to_string()))?;
    decode(&v)
}

/// Write a checkpoint file.
///
/// ```
/// use netsim::{checkpoint, cluster_bordeplage, HostSpec, NetEvent, Network, Scheduler,
///              SharingMode};
/// use p2p_common::DataSize;
/// use serde::Value;
///
/// let topo = cluster_bordeplage(4, HostSpec::default());
/// let mut net = Network::new(topo.platform.clone(), SharingMode::MaxMinFair);
/// let mut sched: Scheduler<NetEvent> = Scheduler::new();
/// net.start_flow(&mut sched, topo.hosts[0], topo.hosts[1], DataSize::from_bytes(125_000), 7);
///
/// let dir = std::env::temp_dir().join("netsim-checkpoint-doctest");
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("sim.ckpt");
/// checkpoint::save(&path, &net, &sched, Value::Null).unwrap();
///
/// let restored = checkpoint::load::<NetEvent>(&path).unwrap();
/// assert_eq!(restored.scheduler.now(), sched.now());
/// assert_eq!(restored.scheduler.pending(), sched.pending());
/// assert_eq!(restored.network.flows_in_flight(), 1);
/// # std::fs::remove_file(&path).ok();
/// ```
pub fn save<E: Serialize>(
    path: &Path,
    net: &Network,
    sched: &Scheduler<E>,
    world: Value,
) -> Result<(), CheckpointError> {
    let json = to_json(net, sched, world)?;
    std::fs::write(path, json)?;
    Ok(())
}

/// Read a checkpoint file written by [`save`].
pub fn load<E: Serialize + Deserialize + From<NetEvent>>(
    path: &Path,
) -> Result<Restored<E>, CheckpointError> {
    let s = std::fs::read_to_string(path)?;
    from_json(&s)
}
