//! The robustness scenario: heavy correlated churn on a `dslam_forest`.
//!
//! This is the harness behind the `robustness_churn` bench, the root
//! `tests/robustness_churn.rs` suite and the CI `robustness` job. One run
//! simulates, on a disconnected DSLAM forest:
//!
//! 1. a P2PDC overlay with one tracker per tree and one peer per host,
//!    exchanging **heartbeats as real netsim flows** (peer → tracker, inside
//!    each tree), so failure detection latency includes genuine transfer
//!    time;
//! 2. a scripted [`FaultPlan`]: one correlated **mass failure** that
//!    crash-stops every peer of one tree at once (DSLAM power loss), plus a
//!    sprinkle of individual peer crashes in the surviving trees;
//! 3. P2PSAP sessions rooted at each tree's first host; when a heartbeat
//!    timeout declares a session's remote dead, the session **re-routes
//!    through a surviving relay** with a bounded retry/backoff budget — or
//!    fails deterministically, never wedging.
//!
//! The run is fully deterministic: identical [`RobustnessConfig`]s produce
//! identical [`RobustnessReport`]s — the CI matrix enforces this in debug
//! and release.

use netsim::{
    dslam_forest, run_world, HostSpec, NetEvent, NetStats, Network, Scheduler, SharingMode,
    Topology, World,
};
use p2p_common::{
    DataSize, HostId, IpAddr, PeerId, PeerResources, SimDuration, SimTime, TrackerId,
};
use p2pdc::{FaultEvent, FaultPlan, HeartbeatConfig, HeartbeatManager, Overlay, OverlayConfig};
use p2psap::{IterativeScheme, RerouteOutcome, RetryPolicy, Socket};
use std::collections::BTreeMap;

/// Everything one robustness run depends on. Two equal configs produce
/// byte-identical [`RobustnessReport`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessConfig {
    /// Trees of the DSLAM forest (= disconnected platform components).
    pub trees: usize,
    /// End hosts per tree.
    pub nodes_per_tree: usize,
    /// Seed of the randomised last-mile bandwidths.
    pub seed: u64,
    /// Heartbeat timing (beat period, miss threshold, beat size).
    pub heartbeat: HeartbeatConfig,
    /// Session reroute retry/backoff budget.
    pub retry: RetryPolicy,
    /// Which tree the correlated mass failure kills.
    pub kill_component: usize,
    /// When the mass failure strikes.
    pub kill_at: SimTime,
    /// Individual peer crashes injected into the *surviving* trees (these
    /// are what exercises relay re-routing: a whole-tree kill leaves no
    /// surviving local endpoint to re-route).
    pub extra_peer_crashes: usize,
    /// When the first individual crash strikes (subsequent ones follow every
    /// 10 s).
    pub crash_start: SimTime,
    /// Simulated horizon: heartbeat rounds stop after this instant.
    pub horizon: SimTime,
    /// Bandwidth-sharing model for the heartbeat flows.
    pub sharing: SharingMode,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            trees: 4,
            nodes_per_tree: 16,
            seed: 5,
            heartbeat: HeartbeatConfig::default(),
            retry: RetryPolicy::default(),
            kill_component: 1,
            kill_at: SimTime::from_secs(20),
            extra_peer_crashes: 3,
            crash_start: SimTime::from_secs(60),
            horizon: SimTime::from_secs(180),
            sharing: SharingMode::MaxMinFair,
        }
    }
}

/// What one robustness run observed. Deterministic given the config.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Peers killed by the correlated mass failure.
    pub mass_victims: usize,
    /// How many of them a heartbeat timeout detected by the horizon.
    pub mass_detected: usize,
    /// Mass-failure instant → last victim detected.
    pub mass_detection_latency: SimDuration,
    /// Individual crash victims in surviving trees.
    pub crash_victims: usize,
    /// Sessions that re-routed through a surviving relay.
    pub rerouted_sessions: usize,
    /// Sessions that exhausted their retry budget and failed.
    pub failed_sessions: usize,
    /// Detected-dead remotes whose session is still `Direct` — must be zero
    /// ("no wedged sessions").
    pub wedged_sessions: usize,
    /// All peers declared dead by heartbeat timeout (mass + individual).
    pub peers_detected: usize,
    /// Trackers declared dead by missed line beats.
    pub trackers_detected: usize,
    /// Heartbeat flows injected into the network.
    pub heartbeat_flows: u64,
    /// Heartbeat flows fully delivered.
    pub heartbeat_deliveries: u64,
    /// Overlay invariant violations after the run — must be empty.
    pub invariant_violations: Vec<String>,
    /// Live (non-crashed) peers left in the overlay.
    pub live_peers: usize,
    /// Total peers still in the overlay's maps (live + undetected dead).
    pub overlay_peers: usize,
    /// Total overlay protocol messages (joins, repairs, detections).
    pub overlay_messages: u64,
    /// Hosts whose peer is still live, per tree (feeds the post-churn
    /// prediction-accuracy check).
    pub survivor_hosts: Vec<Vec<HostId>>,
    /// Flow-engine statistics of the heartbeat traffic.
    pub net_stats: NetStats,
    /// Time of the last processed event.
    pub finished_at: SimTime,
}

/// The event alphabet of the robustness world.
enum Ev {
    /// Flow-engine bookkeeping.
    Net(NetEvent),
    /// One heartbeat round: inject beats, run detection, process failures.
    Beat,
    /// Deliver the faults scheduled at this instant.
    Fault,
}

impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Self {
        Ev::Net(e)
    }
}

struct RobustWorld<'a> {
    cfg: RobustnessConfig,
    net: Network,
    /// Called on the network before every event (see
    /// [`run_robustness_with`]).
    before_event: &'a mut dyn FnMut(&mut Network),
    overlay: Overlay,
    hb: HeartbeatManager,
    plan: FaultPlan,
    /// One socket per tree, rooted at the tree's first host.
    sockets: Vec<Socket>,
    /// Tree index of every host.
    component_of: BTreeMap<HostId, usize>,
    /// Host → its peer, and back.
    peer_of_host: BTreeMap<HostId, PeerId>,
    host_of_peer: BTreeMap<PeerId, HostId>,
    /// Host each tracker is co-located on (heartbeat flow destination).
    tracker_host: BTreeMap<TrackerId, HostId>,
    /// Peers killed by the mass failure, with detection bookkeeping.
    mass_victims: Vec<PeerId>,
    mass_detected: usize,
    mass_last_detection: SimTime,
    crash_victims: usize,
    rerouted: usize,
    failed: usize,
    wedged: usize,
    peers_detected: usize,
    trackers_detected: usize,
    beat_deliveries: u64,
}

impl RobustWorld<'_> {
    /// Sync the overlay's logical clock to the scheduler clock.
    fn sync_clock(&mut self, now: SimTime) {
        let dt = now.duration_since(self.overlay.now());
        if !dt.is_zero() {
            self.overlay.advance_time(dt);
        }
    }

    /// Hosts of tree `c` whose peer is currently live, in host order.
    fn live_hosts_of(&self, c: usize) -> Vec<HostId> {
        self.component_of
            .iter()
            .filter(|&(h, &hc)| {
                hc == c
                    && self
                        .peer_of_host
                        .get(h)
                        .map(|&p| {
                            self.overlay.peer(p).is_some() && !self.overlay.is_peer_crashed(p)
                        })
                        .unwrap_or(false)
            })
            .map(|(&h, _)| h)
            .collect()
    }

    /// A heartbeat timeout declared `peer` dead: if a surviving socket holds
    /// a session towards its host, re-route (or fail) that session now.
    fn react_to_dead_peer(&mut self, peer: PeerId) {
        self.peers_detected += 1;
        if let Some(pos) = self.mass_victims.iter().position(|&v| v == peer) {
            // Count each mass victim once.
            self.mass_victims.swap_remove(pos);
            self.mass_victims.push(peer); // keep the id, mark via counter
            self.mass_detected += 1;
            self.mass_last_detection = self.overlay.now();
            // The whole tree died with it — nobody local survives to
            // re-route; sessions of that tree died with their endpoints.
            return;
        }
        let Some(&host) = self.host_of_peer.get(&peer) else {
            return;
        };
        let c = self.component_of[&host];
        let survivors = self.live_hosts_of(c);
        let socket = &mut self.sockets[c];
        let root = socket.local();
        let candidates: Vec<HostId> = survivors
            .into_iter()
            .filter(|&h| h != root && h != host)
            .collect();
        match socket.handle_remote_failure(self.net.platform_mut(), host, &candidates) {
            Some((RerouteOutcome::Rerouted { .. }, _)) => self.rerouted += 1,
            Some((RerouteOutcome::Failed, _)) => self.failed += 1,
            Some((RerouteOutcome::Retrying { .. }, _)) => {
                unreachable!("reroute_until_resolved only returns terminal outcomes")
            }
            None => {}
        }
    }
}

impl World for RobustWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, event: Ev) {
        let now = sched.now();
        (self.before_event)(&mut self.net);
        match event {
            Ev::Net(ne) => {
                if let Some(d) = self.net.on_event(sched, ne) {
                    self.beat_deliveries += 1;
                    self.hb.record_peer_beat(PeerId::new(d.token), now);
                }
            }
            Ev::Fault => {
                self.sync_clock(now);
                let impact = self.plan.deliver_due(&mut self.overlay, now);
                if now == self.cfg.kill_at {
                    self.mass_victims = impact.crashed_peers.clone();
                    // A correlated kill rewrites a whole component's traffic
                    // at once: drop the fill records rather than warm-start
                    // across it. Purely conservative — the records are keyed
                    // and churn-bounded, so warm and cold fills agree bit
                    // for bit either way (proven by
                    // `tests/warm_faults.rs`) — but a cold fill is the
                    // faster path for a change this shape anyway.
                    self.net.invalidate_fill_records();
                } else {
                    self.crash_victims += impact.crashed_peers.len();
                }
            }
            Ev::Beat => {
                self.sync_clock(now);
                // Live peers beat their tracker through the real network.
                for beat in self.hb.due_peer_beats(&self.overlay) {
                    let Some(&dst) = self.tracker_host.get(&beat.tracker) else {
                        continue;
                    };
                    // Trees are disconnected: a beat can only ride a flow
                    // inside its own tree (re-homing keeps peers in-tree by
                    // IP proximity, but guard rather than panic on a route
                    // miss).
                    if self.component_of.get(&beat.src) != self.component_of.get(&dst) {
                        continue;
                    }
                    self.net.start_flow(
                        sched,
                        beat.src,
                        dst,
                        DataSize::from_bytes(beat.bytes),
                        beat.peer.raw(),
                    );
                }
                // Tracker line beats are management-plane (the line spans
                // disconnected trees, so they can't be netsim flows).
                self.hb.note_tracker_beats(&self.overlay, now);
                let detections = self.hb.detect(&mut self.overlay, now);
                self.trackers_detected += detections.trackers.len();
                for peer in detections.peers {
                    self.react_to_dead_peer(peer);
                }
                if now.saturating_add(self.cfg.heartbeat.beat_period) <= self.cfg.horizon {
                    sched.schedule_in(self.cfg.heartbeat.beat_period, Ev::Beat);
                }
            }
        }
    }
}

/// Build the forest, overlay, heartbeats, fault plan and sessions, run the
/// scenario to its horizon, and report what happened.
pub fn run_robustness(cfg: &RobustnessConfig) -> RobustnessReport {
    run_robustness_with(cfg, |_| {})
}

/// [`run_robustness`] with `before_event` applied to the network before
/// every event — e.g. `Network::invalidate_fill_records`, which makes every
/// flush fill cold for the warm ≡ cold check.
pub fn run_robustness_with(
    cfg: &RobustnessConfig,
    mut before_event: impl FnMut(&mut Network),
) -> RobustnessReport {
    assert!(
        cfg.trees >= 2,
        "need a surviving tree next to the killed one"
    );
    assert!(
        cfg.kill_component < cfg.trees,
        "kill_component out of range"
    );
    let topo: Topology = dslam_forest(cfg.trees, cfg.nodes_per_tree, HostSpec::default(), cfg.seed);

    // One tracker per tree, on a reserved IP close (by IP distance) to the
    // tree's own 10.t.x.y block, co-located with the tree's first host.
    let tracker_ips: Vec<IpAddr> = (0..cfg.trees)
        .map(|t| IpAddr::from_octets(10, t as u8, 0, 250))
        .collect();
    let mut overlay = Overlay::bootstrap(OverlayConfig::default(), &tracker_ips);
    let mut tracker_host = BTreeMap::new();
    for (t, ip) in tracker_ips.iter().enumerate() {
        let id = overlay
            .trackers()
            .find(|tr| tr.ip == *ip)
            .expect("bootstrap created this tracker")
            .id;
        tracker_host.insert(id, topo.hosts[topo.components[t].start]);
    }

    // The plan captures the component → host map before the platform moves
    // into the network.
    let mut plan = FaultPlan::for_topology(&topo);

    let mut net = Network::new(topo.platform, cfg.sharing);

    // One peer per host, carrying its platform binding.
    let mut component_of = BTreeMap::new();
    let mut peer_of_host = BTreeMap::new();
    let mut host_of_peer = BTreeMap::new();
    for (c, range) in topo.components.iter().enumerate() {
        for &host in &topo.hosts[range.clone()] {
            let ip = net.platform().host(host).ip.expect("hosts have IPs");
            let (peer, _) = overlay.peer_join(ip, Some(host), PeerResources::xeon_em64t());
            component_of.insert(host, c);
            peer_of_host.insert(host, peer);
            host_of_peer.insert(peer, host);
        }
    }
    debug_assert!(overlay.check_invariants().is_empty());

    // Sessions: each tree's first host talks to every other host of its tree.
    let mut sockets = Vec::with_capacity(cfg.trees);
    for range in &topo.components {
        let hosts = &topo.hosts[range.clone()];
        let mut socket =
            Socket::new(hosts[0], IterativeScheme::Synchronous).with_retry_policy(cfg.retry);
        for &h in &hosts[1..] {
            socket.session(net.platform_mut(), h);
        }
        sockets.push(socket);
    }

    // The fault plan: the correlated kill plus staggered individual crashes
    // in surviving trees (never a tree's first host — that is the session
    // root whose death would void the re-routing exercise).
    plan.schedule(
        cfg.kill_at,
        FaultEvent::MassFailure {
            component: cfg.kill_component,
        },
    );
    let mut fault_times = vec![cfg.kill_at];
    let surviving: Vec<usize> = (0..cfg.trees)
        .filter(|&c| c != cfg.kill_component)
        .collect();
    for k in 0..cfg.extra_peer_crashes {
        let c = surviving[k % surviving.len()];
        let range = &topo.components[c];
        let back = 1 + k / surviving.len();
        if range.start + back >= range.end {
            break; // tree too small for another victim
        }
        let host = topo.hosts[range.end - back];
        let at = cfg
            .crash_start
            .saturating_add(SimDuration::from_secs(10 * k as u64));
        plan.schedule(at, FaultEvent::PeerCrash(peer_of_host[&host]));
        fault_times.push(at);
    }

    let mut hb = HeartbeatManager::new(cfg.heartbeat);
    hb.observe(&overlay, overlay.now());

    let mut world = RobustWorld {
        cfg: *cfg,
        net,
        before_event: &mut before_event,
        overlay,
        hb,
        plan,
        sockets,
        component_of,
        peer_of_host,
        host_of_peer,
        tracker_host,
        mass_victims: Vec::new(),
        mass_detected: 0,
        mass_last_detection: SimTime::ZERO,
        crash_victims: 0,
        rerouted: 0,
        failed: 0,
        wedged: 0,
        peers_detected: 0,
        trackers_detected: 0,
        beat_deliveries: 0,
    };
    let mut sched: Scheduler<Ev> = Scheduler::new();
    sched.schedule_in(cfg.heartbeat.beat_period, Ev::Beat);
    for at in fault_times {
        sched.schedule_at(at, Ev::Fault);
    }
    let finished_at = run_world(&mut world, &mut sched, None);

    // A session is wedged if its remote was declared dead but it neither
    // re-routed nor failed: every individually-crashed victim that was
    // detected must have produced a terminal reroute outcome. (Mass victims
    // take their whole tree — and the local session endpoint — with them, so
    // they have no session left to wedge.)
    let mut wedged = 0;
    let resolved = world.rerouted + world.failed;
    let individual_detected = world.peers_detected - world.mass_detected;
    if individual_detected > resolved {
        wedged = individual_detected - resolved;
    }
    world.wedged = wedged;

    let survivor_hosts: Vec<Vec<HostId>> = (0..cfg.trees).map(|c| world.live_hosts_of(c)).collect();
    let mass_detection_latency = if world.mass_detected > 0 {
        world.mass_last_detection.duration_since(cfg.kill_at)
    } else {
        SimDuration::ZERO
    };

    RobustnessReport {
        mass_victims: world.mass_victims.len(),
        mass_detected: world.mass_detected,
        mass_detection_latency,
        crash_victims: world.crash_victims,
        rerouted_sessions: world.rerouted,
        failed_sessions: world.failed,
        wedged_sessions: world.wedged,
        peers_detected: world.peers_detected,
        trackers_detected: world.trackers_detected,
        heartbeat_flows: world.hb.beats_sent,
        heartbeat_deliveries: world.beat_deliveries,
        invariant_violations: world.overlay.check_invariants(),
        live_peers: world.overlay.live_peer_count(),
        overlay_peers: world.overlay.peer_count(),
        overlay_messages: world.overlay.total_messages,
        survivor_hosts,
        net_stats: world.net.stats().clone(),
        finished_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RobustnessConfig {
        RobustnessConfig {
            trees: 3,
            nodes_per_tree: 8,
            horizon: SimTime::from_secs(120),
            ..RobustnessConfig::default()
        }
    }

    #[test]
    fn mass_failure_is_detected_within_the_heartbeat_window() {
        let cfg = quick();
        let report = run_robustness(&cfg);
        assert_eq!(report.mass_victims, cfg.nodes_per_tree);
        assert_eq!(report.mass_detected, report.mass_victims);
        // Worst case: the crash lands just after a beat round, the timeout
        // elapses, and one more beat round runs detection.
        let window = cfg.heartbeat.timeout() + cfg.heartbeat.beat_period.saturating_mul(2);
        assert!(
            report.mass_detection_latency <= window,
            "latency {} exceeds the detection window {}",
            report.mass_detection_latency,
            window
        );
        assert!(report.mass_detection_latency >= cfg.heartbeat.timeout());
    }

    #[test]
    fn no_session_wedges_and_invariants_hold() {
        let report = run_robustness(&quick());
        assert_eq!(report.wedged_sessions, 0);
        assert_eq!(report.crash_victims, 3);
        assert_eq!(
            report.rerouted_sessions + report.failed_sessions,
            report.crash_victims,
            "every broken session must resolve"
        );
        assert!(report.rerouted_sessions > 0, "relays exist in 8-host trees");
        assert!(
            report.invariant_violations.is_empty(),
            "{:?}",
            report.invariant_violations
        );
    }

    #[test]
    fn identical_configs_reproduce_identical_reports() {
        let a = run_robustness(&quick());
        let b = run_robustness(&quick());
        assert_eq!(a, b);
    }

    #[test]
    fn heartbeats_flow_and_survivors_remain() {
        let cfg = quick();
        let report = run_robustness(&cfg);
        assert!(report.heartbeat_flows > 0);
        assert!(report.heartbeat_deliveries > 0);
        assert_eq!(report.net_stats.flows_started, report.heartbeat_flows);
        // The killed tree has no live peers; surviving trees keep all but
        // the individual crash victims.
        assert!(report.survivor_hosts[cfg.kill_component].is_empty());
        let total_live: usize = report.survivor_hosts.iter().map(Vec::len).sum();
        assert_eq!(
            total_live,
            (cfg.trees - 1) * cfg.nodes_per_tree - cfg.extra_peer_crashes
        );
        assert_eq!(report.live_peers, total_live);
    }
}
