//! # p2p-common
//!
//! Shared foundational types for the `p2p-perf` workspace, a reproduction of
//! *"Performance Prediction in a Decentralized Environment for Peer-to-Peer
//! Computing"* (Cornea, Bourgeois, Nguyen, El-Baz — IPDPS 2011).
//!
//! This crate deliberately contains no simulation or protocol logic; it only
//! defines the vocabulary every other crate speaks:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`], [`SimDuration`]).
//! * [`ids`] — strongly-typed identifiers for hosts, peers, trackers, tasks, flows…
//! * [`ip`] — IPv4-style addresses and the *longest common prefix* proximity
//!   metric used by the P2PDC hybrid topology manager (paper §III-A.2).
//! * [`units`] — data sizes and bandwidths with transfer-time arithmetic.
//! * [`resources`] — the resource descriptor peers publish to their tracker
//!   (processor, memory, hard disk, current usage state — paper §III-A.1).
//! * [`rng`] — a deterministic, forkable random number generator so that every
//!   experiment in the repository is reproducible bit-for-bit.
//! * [`stats`] — online statistics and simple histograms used by benches and
//!   the tracker statistics reports.
//! * [`hash`] — a deterministic integer hasher for the simulator's hot maps.

#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod ids;
pub mod ip;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use error::CommonError;
pub use hash::{IdHasher, IdMap};
pub use ids::{ChannelId, FlowId, HostId, NodeId, PeerId, ProcId, TaskId, TrackerId};
pub use ip::IpAddr;
pub use resources::{PeerResources, ResourceRequirements, UsageState};
pub use rng::DetRng;
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, DataSize};
