//! # netsim — a flow-level discrete-event network simulator
//!
//! This crate is the reproduction's substitute for the SimGrid framework the
//! paper uses for trace-based simulation (paper §III-D: "From Simgrid
//! framework, we use the MSG module for replaying trace files based on a
//! deployment platform defined by us").
//!
//! It provides:
//!
//! * [`event`] — a deterministic discrete-event [`Scheduler`] and the
//!   [`World`] trait that higher layers implement.
//! * [`platform`] — the platform description: hosts, routers, full-duplex
//!   links with bandwidth and latency, and shortest-path routing, mirroring
//!   SimGrid's platform files.
//! * [`network`] — the flow-level communication model. Two sharing modes are
//!   available: the classic *bottleneck* model (`T = Σ latency + size /
//!   min-bandwidth`, SimGrid MSG's default analytic assumption) and a
//!   *max–min fair* bandwidth-sharing model for congested scenarios, whose
//!   rates one serial, per-component, warm-start flush keeps up to date.
//! * [`topology`] — builders for the three platforms of the paper's
//!   evaluation: the Grid'5000 Bordeplage cluster (Stage-1), the xDSL Daisy
//!   topology of Fig. 8 (Stage-2A) and the campus LAN (Stage-2B).
//! * [`replay`](mod@replay) — the MSG-like trace replay engine: per-process scripts of
//!   compute / send / receive operations are executed against a platform and
//!   yield the simulated makespan. dPerf converts its trace files into these
//!   scripts to obtain `t_predicted`.
//! * [`baseline`] — the seed's from-scratch max–min engine, kept as the
//!   independent oracle the differential tests and benchmarks compare the
//!   incremental engine in [`network`] against.
//! * [`checkpoint`](mod@checkpoint) — versioned checkpoint envelope: pause a
//!   running simulation to disk and restore it bit-identically (format spec
//!   in `docs/CHECKPOINT.md`).
//! * [`stream`](mod@stream) — streaming sessions: feed arrivals to a live
//!   network one at a time instead of scripting them up front, with
//!   checkpoint/resume; the front end behind the `simd` prediction service.
//!
//! # Example: two flows over a shared access link
//!
//! A world embeds the network's events in its own event type (via
//! [`NetWorldEvent`]) and feeds them back from its [`World::handle`]:
//!
//! ```
//! use netsim::{
//!     run_world, HostSpec, LinkSpec, NetEvent, NetWorldEvent, Network, PlatformBuilder,
//!     Scheduler, SharingMode, World,
//! };
//! use p2p_common::{Bandwidth, DataSize, HostId, SimDuration};
//!
//! #[derive(Debug, Clone, Copy)]
//! struct Ev(NetEvent);
//! impl From<NetEvent> for Ev {
//!     fn from(e: NetEvent) -> Self {
//!         Ev(e)
//!     }
//! }
//! impl NetWorldEvent for Ev {
//!     fn as_net_event(&self) -> Option<NetEvent> {
//!         Some(self.0)
//!     }
//! }
//!
//! struct Sim {
//!     net: Network,
//!     delivered: u64,
//! }
//! impl World for Sim {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
//!         self.delivered += self.net.on_event(sched, ev.0).len() as u64;
//!     }
//! }
//!
//! // Three hosts on one switch, 100 Mbps access links.
//! let mut b = PlatformBuilder::new();
//! let sw = b.add_router("sw");
//! let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
//! for i in 0..3 {
//!     let h = b.add_host(format!("h{i}"), format!("10.0.0.{}", i + 1).parse().unwrap(),
//!                        HostSpec::default());
//!     b.add_host_link(format!("l{i}"), h, sw, spec);
//! }
//! let mut sim = Sim { net: Network::new(b.build(), SharingMode::MaxMinFair), delivered: 0 };
//! let mut sched = Scheduler::new();
//!
//! // Both flows funnel into h0, so they share h0's access link max–min fairly.
//! let size = DataSize::from_bytes(1_250_000); // 100 ms alone
//! sim.net.start_flow(&mut sched, HostId::new(1), HostId::new(0), size, 1);
//! sim.net.start_flow(&mut sched, HostId::new(2), HostId::new(0), size, 2);
//! let end = run_world(&mut sim, &mut sched, None);
//!
//! assert_eq!(sim.delivered, 2);
//! // Sharing the 100 Mbps ingress, the pair needs ~200 ms (plus latency).
//! assert!(end.as_secs_f64() > 0.19 && end.as_secs_f64() < 0.22);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub(crate) mod component;
pub mod event;
pub(crate) mod fairshare;
pub mod network;
pub mod platform;
pub mod replay;
pub mod stream;
pub mod topology;

pub use event::{run_world, Scheduler, World};
pub use network::{
    CompactionPolicy, FlowDelivery, FlushStats, MemoryFootprint, NetEvent, NetStats, NetWorldEvent,
    Network, SharingMode,
};
pub use platform::{HostSpec, Link, LinkSpec, Node, NodeKind, Platform, PlatformBuilder, Route};
pub use replay::{
    replay, ProcessScript, ProtocolCosts, PushError, ReplayConfig, ReplayOp, ReplayResult,
    ReplaySession, ScriptError,
};
pub use stream::{DeliveryRecord, StreamError, StreamEvent, StreamSession};
pub use topology::{
    cluster_bordeplage, daisy_xdsl, dslam_forest, dslam_forest_mirrored, isp_hierarchy, lan,
    IspHierarchyParams, PlacementPolicy, Topology, TopologyKind,
};
