//! Streaming simulation sessions: feed arrivals to a live network instead of
//! scripting them up front.
//!
//! [`replay`](mod@crate::replay) executes a *fixed* script; this module is the
//! open-ended counterpart. A [`StreamSession`] owns a [`Network`] plus its
//! [`Scheduler`] and accepts flow arrivals one at a time — from a socket, a
//! trace file being tailed, or an interactive prompt — while the simulation
//! is running. Between arrivals the caller advances virtual time with
//! [`StreamSession::advance_to`] or drains it with
//! [`StreamSession::quiesce`], collecting the [`FlowDelivery`] records
//! (predicted completion times) as they fall out.
//!
//! Sessions checkpoint and restore through the [`checkpoint`](mod@crate::checkpoint)
//! envelope: [`StreamSession::save`] writes the full session (network, event
//! queue, delivery log) and [`StreamSession::load`] resumes it
//! bit-identically, so a long-running prediction service can be stopped and
//! restarted without perturbing a single timestamp. The `simd` service binary
//! in `crates/bench` is a thin JSONL front end over exactly this API.
//!
//! ```
//! use netsim::{cluster_bordeplage, HostSpec, SharingMode, StreamSession};
//! use p2p_common::{DataSize, SimTime};
//!
//! let topo = cluster_bordeplage(4, HostSpec::default());
//! let mut s = StreamSession::new(topo.platform, SharingMode::MaxMinFair);
//!
//! // Two arrivals injected while the clock runs, not scripted in advance.
//! s.inject(SimTime::ZERO, topo.hosts[0], topo.hosts[1], DataSize::from_bytes(125_000), 1)
//!     .unwrap();
//! let first = s.quiesce();
//! s.inject(s.now(), topo.hosts[2], topo.hosts[3], DataSize::from_bytes(125_000), 2)
//!     .unwrap();
//! let second = s.quiesce();
//!
//! assert_eq!(first.len(), 1);
//! assert_eq!(second.len(), 1);
//! assert!(second[0].completed_at > first[0].completed_at);
//! ```

use crate::checkpoint::{self, CheckpointError};
use crate::event::Scheduler;
use crate::network::{FlowDelivery, NetEvent, Network, SharingMode};
use crate::platform::Platform;
use p2p_common::{DataSize, HostId, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Event type of a [`StreamSession`]: internal network bookkeeping plus
/// arrivals injected for a future instant.
///
/// Arrivals are events (not immediate `start_flow` calls) so that a caller
/// may inject them out of order — the scheduler sorts them back into
/// timestamp order, and a checkpoint taken before an arrival fires captures
/// it like any other pending event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamEvent {
    /// A network-internal event (activation, completion, rebalance).
    Net(NetEvent),
    /// A flow arrival scheduled via [`StreamSession::inject`].
    Arrive {
        /// Source host.
        src: HostId,
        /// Destination host.
        dst: HostId,
        /// Payload size.
        size: DataSize,
        /// Caller token, echoed in the resulting [`FlowDelivery`].
        token: u64,
    },
}

impl From<NetEvent> for StreamEvent {
    fn from(e: NetEvent) -> Self {
        StreamEvent::Net(e)
    }
}

/// A live, checkpointable simulation accepting streamed arrivals.
///
/// See the [module docs](self) for the intended shape; the key invariant is
/// that a session is always *at an event boundary* between public calls, so
/// [`StreamSession::save`] may be called at any point and the restored
/// session continues bit-identically.
pub struct StreamSession {
    net: Network,
    sched: Scheduler<StreamEvent>,
    deliveries: Vec<FlowDelivery>,
}

impl StreamSession {
    /// Create a session over `platform`.
    pub fn new(platform: Platform, mode: SharingMode) -> Self {
        StreamSession {
            net: Network::new(platform, mode),
            sched: Scheduler::new(),
            deliveries: Vec::new(),
        }
    }

    /// The session's virtual clock.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Events still queued (arrivals not yet fired plus network bookkeeping).
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Flows currently in flight in the network.
    pub fn flows_in_flight(&self) -> usize {
        self.net.flows_in_flight()
    }

    /// The underlying network (stats, footprint, topology).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Schedule a flow arrival at virtual time `at`.
    ///
    /// Fails if `at` is already in the past (the clock only moves forward)
    /// or if either endpoint is not a host of the platform.
    pub fn inject(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        size: DataSize,
        token: u64,
    ) -> Result<(), StreamError> {
        if at < self.sched.now() {
            return Err(StreamError::PastArrival {
                at,
                now: self.sched.now(),
            });
        }
        let hosts = self.net.platform().host_count();
        for h in [src, dst] {
            if h.index() >= hosts {
                return Err(StreamError::UnknownHost { host: h, hosts });
            }
        }
        self.sched.schedule_at(
            at,
            StreamEvent::Arrive {
                src,
                dst,
                size,
                token,
            },
        );
        Ok(())
    }

    /// Run the simulation up to and including virtual time `limit`. Returns
    /// the deliveries that completed in the advanced window, in completion
    /// order.
    pub fn advance_to(&mut self, limit: SimTime) -> Vec<DeliveryRecord> {
        self.run(Some(limit))
    }

    /// Run until no events remain (all injected arrivals delivered).
    pub fn quiesce(&mut self) -> Vec<DeliveryRecord> {
        self.run(None)
    }

    fn run(&mut self, limit: Option<SimTime>) -> Vec<DeliveryRecord> {
        let mut out = Vec::new();
        while let Some(next) = self.sched.peek_time() {
            if let Some(l) = limit {
                if next > l {
                    break;
                }
            }
            let (_, ev) = self.sched.pop().expect("peeked event must exist");
            let delivery = match ev {
                StreamEvent::Net(ne) => self.net.on_event(&mut self.sched, ne),
                StreamEvent::Arrive {
                    src,
                    dst,
                    size,
                    token,
                } => {
                    self.net.start_flow(&mut self.sched, src, dst, size, token);
                    None
                }
            };
            let at = self.sched.now();
            if let Some(d) = delivery {
                out.push(DeliveryRecord {
                    token: d.token,
                    src: d.src,
                    dst: d.dst,
                    size: d.size,
                    completed_at: at,
                });
                self.deliveries.push(d);
            }
        }
        out
    }

    /// Every delivery the session has produced since creation (or restore).
    pub fn deliveries(&self) -> &[FlowDelivery] {
        &self.deliveries
    }

    /// Encode the full session into a checkpoint envelope [`Value`].
    pub fn checkpoint(&self) -> Value {
        let world = Value::Object(vec![(
            "deliveries".to_owned(),
            Value::Array(self.deliveries.iter().map(delivery_to_value).collect()),
        )]);
        checkpoint::encode(&self.net, &self.sched, world)
    }

    /// Rebuild a session from an envelope produced by
    /// [`StreamSession::checkpoint`].
    pub fn restore(v: &Value) -> Result<Self, CheckpointError> {
        let (net, sched, world) = checkpoint::decode_state::<StreamEvent>(v)?;
        let deliveries = match world.and_then(Value::as_object) {
            Some(fields) => {
                let arr = fields
                    .iter()
                    .find(|(k, _)| k == "deliveries")
                    .and_then(|(_, v)| v.as_array())
                    .ok_or_else(|| {
                        CheckpointError::Format(
                            "stream session world slot lacks a `deliveries` array".to_owned(),
                        )
                    })?;
                arr.iter()
                    .map(delivery_from_value)
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => Vec::new(),
        };
        Ok(StreamSession {
            net,
            sched,
            deliveries,
        })
    }

    /// Write the session to a checkpoint file.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = serde_json::to_string(&self.checkpoint())
            .map_err(|e| CheckpointError::Format(e.to_string()))?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Resume a session from a file written by [`StreamSession::save`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let s = std::fs::read_to_string(path)?;
        let v: Value =
            serde_json::from_str(&s).map_err(|e| CheckpointError::Format(e.to_string()))?;
        Self::restore(&v)
    }
}

/// A completed transfer with its predicted completion time — what the
/// streaming front end reports back per arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeliveryRecord {
    /// Caller token from [`StreamSession::inject`].
    pub token: u64,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Payload size.
    pub size: DataSize,
    /// Virtual time at which the last byte arrived.
    pub completed_at: SimTime,
}

/// Why an arrival could not be injected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamError {
    /// The requested arrival time is before the session clock.
    PastArrival {
        /// Requested arrival instant.
        at: SimTime,
        /// Current session clock.
        now: SimTime,
    },
    /// An endpoint is not a host of the platform.
    UnknownHost {
        /// The offending id.
        host: HostId,
        /// Number of hosts in the platform.
        hosts: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::PastArrival { at, now } => write!(
                f,
                "arrival at {:?} predates the session clock {:?}",
                at, now
            ),
            StreamError::UnknownHost { host, hosts } => {
                write!(f, "{host} is not a host (platform has {hosts})")
            }
        }
    }
}

impl std::error::Error for StreamError {}

fn delivery_to_value(d: &FlowDelivery) -> Value {
    Value::Object(vec![
        ("flow".to_owned(), d.flow.to_value()),
        ("token".to_owned(), d.token.to_value()),
        ("src".to_owned(), d.src.to_value()),
        ("dst".to_owned(), d.dst.to_value()),
        ("size".to_owned(), d.size.to_value()),
    ])
}

fn delivery_from_value(v: &Value) -> Result<FlowDelivery, DeError> {
    let fields = v
        .as_object()
        .ok_or_else(|| DeError::expected("object", "FlowDelivery", v))?;
    Ok(FlowDelivery {
        flow: serde::field(fields, "flow", "FlowDelivery")?,
        token: serde::field(fields, "token", "FlowDelivery")?,
        src: serde::field(fields, "src", "FlowDelivery")?,
        dst: serde::field(fields, "dst", "FlowDelivery")?,
        size: serde::field(fields, "size", "FlowDelivery")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::HostSpec;
    use crate::topology::cluster_bordeplage;

    fn session() -> (StreamSession, Vec<HostId>) {
        let topo = cluster_bordeplage(8, HostSpec::default());
        (
            StreamSession::new(topo.platform, SharingMode::MaxMinFair),
            topo.hosts,
        )
    }

    #[test]
    fn streamed_arrivals_match_scripted_start_flows() {
        // The same arrival pattern fed through the streaming session and
        // through direct start_flow calls must produce identical completion
        // times.
        let (mut s, hosts) = session();
        for i in 0..6usize {
            s.inject(
                SimTime::from_millis(10 * i as u64),
                hosts[i % 4],
                hosts[4 + (i % 4)],
                DataSize::from_bytes(2_000_000),
                i as u64,
            )
            .unwrap();
        }
        let streamed = s.quiesce();
        assert_eq!(streamed.len(), 6);

        // Reference: direct scripted run over an identical network.
        let topo = cluster_bordeplage(8, HostSpec::default());
        let mut net = Network::new(topo.platform, SharingMode::MaxMinFair);
        let mut sched: Scheduler<StreamEvent> = Scheduler::new();
        for i in 0..6usize {
            sched.schedule_at(
                SimTime::from_millis(10 * i as u64),
                StreamEvent::Arrive {
                    src: topo.hosts[i % 4],
                    dst: topo.hosts[4 + (i % 4)],
                    size: DataSize::from_bytes(2_000_000),
                    token: i as u64,
                },
            );
        }
        let mut reference = Vec::new();
        while let Some((_, ev)) = sched.pop() {
            match ev {
                StreamEvent::Net(ne) => {
                    if let Some(d) = net.on_event(&mut sched, ne) {
                        reference.push((d.token, sched.now()));
                    }
                }
                StreamEvent::Arrive {
                    src,
                    dst,
                    size,
                    token,
                } => {
                    net.start_flow(&mut sched, src, dst, size, token);
                }
            }
        }
        let got: Vec<_> = streamed.iter().map(|d| (d.token, d.completed_at)).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn save_and_load_resume_bit_identically() {
        let (mut a, hosts) = session();
        let (mut b, _) = session();
        for s in [&mut a, &mut b] {
            for i in 0..8usize {
                s.inject(
                    SimTime::from_millis(3 * i as u64),
                    hosts[i % 8],
                    hosts[(i + 3) % 8],
                    DataSize::from_bytes(1_500_000 + 10_000 * i as u64),
                    i as u64,
                )
                .unwrap();
            }
        }
        // Advance both part-way, checkpoint/restore one, then drain both.
        let cut = SimTime::from_millis(40);
        let head_a = a.advance_to(cut);
        let head_b = b.advance_to(cut);
        assert_eq!(head_a, head_b);

        let dir = std::env::temp_dir().join("netsim-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.ckpt");
        a.save(&path).unwrap();
        let mut restored = StreamSession::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.now(), b.now());
        assert_eq!(restored.pending(), b.pending());
        assert_eq!(restored.deliveries(), b.deliveries());

        // Post-restore injections land identically too.
        for s in [&mut restored, &mut b] {
            let at = s.now();
            s.inject(at, hosts[0], hosts[7], DataSize::from_bytes(777_000), 99)
                .unwrap();
        }
        let tail_r = restored.quiesce();
        let tail_b = b.quiesce();
        assert_eq!(tail_r, tail_b);
    }

    /// Two flows into h0 of a 100 Mbps star, activating together: the
    /// first departure doubles the second flow's rate and supersedes its
    /// completion at 400.2 ms with one at 300.2 ms. Draining the session
    /// must leave the clock at the last delivery, not at the superseded
    /// completion.
    #[test]
    fn quiesce_stops_the_clock_at_the_last_delivery() {
        use crate::platform::{LinkSpec, PlatformBuilder};
        use p2p_common::{Bandwidth, SimDuration};
        let mut b = PlatformBuilder::new();
        let sw = b.add_router("sw");
        let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
        let hosts: Vec<HostId> = (0..3)
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
        let mut s = StreamSession::new(b.build(), SharingMode::MaxMinFair);
        for (token, bytes) in [(1, 1_250_000), (2, 2_500_000)] {
            let src = hosts[token as usize];
            s.inject(
                SimTime::ZERO,
                src,
                hosts[0],
                DataSize::from_bytes(bytes),
                token,
            )
            .unwrap();
        }
        let done = s.quiesce();
        assert_eq!(done.len(), 2);
        let last = done.iter().map(|d| d.completed_at).max().unwrap();
        assert_eq!(last, SimTime::from_micros(300_200));
        assert_eq!(s.now(), last);
        assert_eq!(s.pending(), 0);
        let later = last + SimDuration::from_millis(1);
        s.inject(later, hosts[1], hosts[0], DataSize::from_bytes(1), 3)
            .unwrap();
    }

    #[test]
    fn inject_rejects_past_times_and_foreign_hosts() {
        let (mut s, hosts) = session();
        s.inject(
            SimTime::from_millis(5),
            hosts[0],
            hosts[1],
            DataSize::from_bytes(1_000),
            0,
        )
        .unwrap();
        s.quiesce();
        assert!(matches!(
            s.inject(
                SimTime::ZERO,
                hosts[0],
                hosts[1],
                DataSize::from_bytes(1),
                1
            ),
            Err(StreamError::PastArrival { .. })
        ));
        assert!(matches!(
            s.inject(
                s.now(),
                HostId::new(10_000),
                hosts[1],
                DataSize::from_bytes(1),
                2
            ),
            Err(StreamError::UnknownHost { .. })
        ));
    }
}
