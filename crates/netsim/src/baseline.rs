//! The seed's from-scratch max–min flow engine, retained verbatim (modulo
//! naming) as a differential baseline.
//!
//! [`BaselineNetwork`] is the algorithm `network.rs` shipped with before the
//! incremental refactor: a `HashMap` flow table, per-rebalance `HashMap`
//! allocations inside the progressive-filling loop, a *global* version
//! counter that invalidates every scheduled completion on every rebalance,
//! and an O(F) `progress_all` sweep per event. It schedules its own
//! [`BaselineEvent`]s, which carry that version: stale completions stay
//! queued and are recognised when they fire, as in the seed.
//!
//! It exists for two reasons:
//!
//! * the property tests assert that the incremental engine produces
//!   **identical simulated results** (delivery timestamps, counts, stats) on
//!   randomised workloads — the refactor's correctness contract;
//! * `crates/bench/benches/perf_flow_engine.rs` measures the incremental
//!   engine's speedup against it (the recorded baseline lives in
//!   `BENCH_flow_engine.json`).
//!
//! Do not use it for anything else — it is deliberately the slow path.

use crate::event::Scheduler;
use crate::network::drain_eta;
use crate::network::{FlowDelivery, NetStats, SharingMode};
use crate::platform::{Platform, Route};
use p2p_common::{DataSize, FlowId, HostId, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Events the baseline schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineEvent {
    /// The flow's latency has elapsed; it now competes for bandwidth.
    FlowActivate {
        /// The flow in question.
        flow: FlowId,
    },
    /// A flow may have finished draining; stale if `version` is outdated.
    FlowCompletion {
        /// The flow in question.
        flow: FlowId,
        /// The global rate version this event was scheduled under.
        version: u64,
    },
}

#[derive(Debug, Clone)]
struct FlowState {
    id: FlowId,
    src: HostId,
    dst: HostId,
    token: u64,
    size: DataSize,
    route: Arc<Route>,
    remaining: f64,
    rate: f64,
    last_progress: SimTime,
    active: bool,
}

/// The seed's flow-level network simulator (see the module docs).
#[derive(Debug)]
pub struct BaselineNetwork {
    platform: Platform,
    mode: SharingMode,
    flows: HashMap<FlowId, FlowState>,
    next_flow: u64,
    /// Bumped whenever rates change; stale completion events are ignored.
    version: u64,
    stats: NetStats,
}

const DRAIN_EPSILON: f64 = 1e-3;

impl BaselineNetwork {
    /// Wrap a platform in the baseline simulator.
    pub fn new(platform: Platform, mode: SharingMode) -> Self {
        let link_count = platform.links().len();
        BaselineNetwork {
            platform,
            mode,
            flows: HashMap::new(),
            next_flow: 0,
            version: 0,
            stats: NetStats {
                link_bytes: vec![0; link_count],
                ..NetStats::default()
            },
        }
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Number of flows currently in flight.
    pub fn flows_in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Start a bulk transfer (seed semantics, including the needless version
    /// bump per Bottleneck flow the satellite fix removed from the real
    /// engine).
    pub fn start_flow<E: From<BaselineEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        src: HostId,
        dst: HostId,
        size: DataSize,
        token: u64,
    ) -> FlowId {
        let id = FlowId::new(self.next_flow);
        self.next_flow += 1;
        self.stats.flows_started += 1;
        let route = self.platform.route(src, dst);
        let now = sched.now();
        let state = FlowState {
            id,
            src,
            dst,
            token,
            size,
            route: Arc::clone(&route),
            remaining: size.bytes() as f64,
            rate: 0.0,
            last_progress: now,
            active: false,
        };
        self.flows.insert(id, state);
        match self.mode {
            SharingMode::Bottleneck => {
                let total = route.analytic_transfer_time(size);
                self.version += 1;
                sched.schedule_in(
                    total,
                    BaselineEvent::FlowCompletion {
                        flow: id,
                        version: self.version,
                    }
                    .into(),
                );
            }
            SharingMode::MaxMinFair => {
                sched.schedule_in(
                    route.latency,
                    BaselineEvent::FlowActivate { flow: id }.into(),
                );
            }
        }
        id
    }

    /// Feed a [`BaselineEvent`] back (seed semantics).
    pub fn on_event<E: From<BaselineEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        event: BaselineEvent,
    ) -> Vec<FlowDelivery> {
        match (self.mode, event) {
            (SharingMode::Bottleneck, BaselineEvent::FlowCompletion { flow, .. }) => {
                match self.flows.remove(&flow) {
                    Some(state) => vec![self.finish_flow(state)],
                    None => vec![],
                }
            }
            (SharingMode::Bottleneck, BaselineEvent::FlowActivate { .. }) => vec![],
            (SharingMode::MaxMinFair, BaselineEvent::FlowActivate { flow }) => {
                let now = sched.now();
                self.progress_all(now);
                if let Some(f) = self.flows.get_mut(&flow) {
                    f.active = true;
                    f.last_progress = now;
                }
                self.rebalance(sched);
                vec![]
            }
            (SharingMode::MaxMinFair, BaselineEvent::FlowCompletion { flow: _, version }) => {
                if version != self.version {
                    return vec![]; // stale: rates changed since this was scheduled
                }
                let now = sched.now();
                self.progress_all(now);
                let mut done: Vec<FlowId> = self
                    .flows
                    .values()
                    .filter(|f| f.active && f.remaining <= DRAIN_EPSILON)
                    .map(|f| f.id)
                    .collect();
                // The seed iterated a HashMap here, which made the delivery
                // order of simultaneous completions depend on the hash seed;
                // sort so differential tests compare a canonical order.
                done.sort_unstable();
                let mut deliveries = Vec::with_capacity(done.len());
                for id in done {
                    let state = self.flows.remove(&id).expect("flow just observed");
                    deliveries.push(self.finish_flow(state));
                }
                if !deliveries.is_empty() {
                    self.rebalance(sched);
                }
                deliveries
            }
        }
    }

    fn finish_flow(&mut self, state: FlowState) -> FlowDelivery {
        self.stats.flows_completed += 1;
        self.stats.bytes_delivered += state.size.bytes();
        for &l in &state.route.links {
            self.stats.link_bytes[l] += state.size.bytes();
        }
        FlowDelivery {
            flow: state.id,
            token: state.token,
            src: state.src,
            dst: state.dst,
            size: state.size,
        }
    }

    fn progress_all(&mut self, now: SimTime) {
        for f in self.flows.values_mut() {
            if !f.active {
                continue;
            }
            if f.route.links.is_empty() {
                f.remaining = 0.0;
            }
            let dt = now.duration_since(f.last_progress).as_secs_f64();
            if dt > 0.0 && f.rate > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            f.last_progress = now;
        }
    }

    /// Recompute rates from scratch and reschedule *every* active flow.
    fn rebalance<E: From<BaselineEvent>>(&mut self, sched: &mut Scheduler<E>) {
        self.version += 1;
        self.compute_max_min_rates();
        let now = sched.now();
        for f in self.flows.values() {
            if !f.active {
                continue;
            }
            // Same ceil-to-nanosecond ETA as the incremental engine (see
            // `drain_eta`): with round-to-nearest the seed could leave a
            // sub-resolution residual and strand the flow until the next
            // rebalance — a timing artefact, not part of the algorithm under
            // comparison.
            let eta = if f.remaining <= DRAIN_EPSILON {
                SimDuration::ZERO
            } else if f.rate <= 0.0 {
                continue;
            } else {
                drain_eta(f.remaining, f.rate)
            };
            sched.schedule_at(
                now + eta,
                BaselineEvent::FlowCompletion {
                    flow: f.id,
                    version: self.version,
                }
                .into(),
            );
        }
    }

    /// Progressive filling over freshly allocated hash maps (the seed's
    /// exact algorithm).
    fn compute_max_min_rates(&mut self) {
        let mut capacity: HashMap<usize, f64> = HashMap::new();
        let mut flows_on_link: HashMap<usize, Vec<FlowId>> = HashMap::new();
        let mut unfixed: Vec<FlowId> = Vec::new();
        for f in self.flows.values_mut() {
            if !f.active {
                continue;
            }
            f.rate = 0.0;
            if f.route.links.is_empty() {
                f.rate = f64::MAX / 4.0;
                continue;
            }
            unfixed.push(f.id);
            for &l in &f.route.links {
                capacity
                    .entry(l)
                    .or_insert_with(|| self.platform.links()[l].bandwidth.bytes_per_sec());
                flows_on_link.entry(l).or_default().push(f.id);
            }
        }
        let mut fixed: HashMap<FlowId, f64> = HashMap::new();
        while !unfixed.is_empty() {
            let mut best: Option<(usize, f64)> = None;
            for (&l, flows) in &flows_on_link {
                let n_unfixed = flows.iter().filter(|f| !fixed.contains_key(f)).count();
                if n_unfixed == 0 {
                    continue;
                }
                let share = capacity[&l] / n_unfixed as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
            let Some((bottleneck_link, share)) = best else {
                break;
            };
            let to_fix: Vec<FlowId> = flows_on_link[&bottleneck_link]
                .iter()
                .copied()
                .filter(|f| !fixed.contains_key(f))
                .collect();
            for fid in to_fix {
                fixed.insert(fid, share);
                let route = Arc::clone(&self.flows[&fid].route);
                for &l in &route.links {
                    if let Some(c) = capacity.get_mut(&l) {
                        *c = (*c - share).max(0.0);
                    }
                }
            }
            unfixed.retain(|f| !fixed.contains_key(f));
        }
        for (fid, rate) in fixed {
            if let Some(f) = self.flows.get_mut(&fid) {
                f.rate = rate;
            }
        }
    }
}
