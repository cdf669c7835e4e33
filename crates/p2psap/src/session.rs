//! Sessions and sockets.
//!
//! A [`Session`] is the data-plane object between two peers: it knows the
//! current network context, the application scheme, and the channel
//! configuration the adaptation controller picked, and it accounts for the
//! traffic it carried. A [`Socket`] is a peer's bundle of sessions, opened
//! lazily towards each remote peer — this is the API surface the P2PDC
//! executor talks to.
//!
//! Reconfiguration is the "self-adaptive" part: when the application switches
//! scheme mid-computation (e.g. synchronous → asynchronous once the residual
//! is small) the socket renegotiates every session, paying one handshake per
//! affected channel.
//!
//! Robustness is the other half of self-adaptation: when the remote peer
//! crash-stops mid-session, [`Session::reroute`] tries to keep the data
//! flowing through a surviving *relay* peer ([`SessionPath::Relayed`]), with
//! a bounded exponential-backoff retry budget ([`RetryPolicy`]). Once the
//! budget is spent the session fails deterministically
//! ([`SessionPath::Failed`]) — it never wedges.

use crate::adaptation::AdaptationController;
use crate::channel::ChannelConfig;
use crate::context::NetworkContext;
use crate::scheme::IterativeScheme;
use netsim::{Platform, ProtocolCosts};
use p2p_common::{HostId, SimDuration};
use std::collections::HashMap;

/// Bounded retry/backoff budget for re-routing a broken session.
///
/// Attempt `k` (zero-based) waits `base_backoff × multiplier^k` before
/// probing for a relay; after `budget` attempts the session fails
/// deterministically. The defaults (4 attempts, 500 ms base, ×2) give up
/// after 500 ms + 1 s + 2 s + 4 s = 7.5 s of simulated effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum reroute attempts before the session is declared failed.
    pub budget: u32,
    /// Backoff before the first attempt.
    pub base_backoff: SimDuration,
    /// Exponential growth factor between consecutive attempts.
    pub multiplier: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 4,
            base_backoff: SimDuration::from_millis(500),
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// Backoff paid before zero-based attempt `attempt`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let mut factor = 1u64;
        for _ in 0..attempt {
            factor = factor.saturating_mul(self.multiplier);
        }
        self.base_backoff.saturating_mul(factor)
    }

    /// Total simulated time a session can spend retrying before it fails.
    pub fn max_total_backoff(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for k in 0..self.budget {
            total += self.backoff(k);
        }
        total
    }
}

/// One wire hop a recorded send traverses: `bytes` cross the network from
/// `src` to `dst`.
///
/// [`Session::record_send`] returns one leg for a direct session and two for
/// a relayed one (local → relay, relay → remote). A caller that drives a real
/// [`netsim`] platform starts one flow per leg, so the detour's bytes cross
/// the simulated wire exactly as they are accounted in [`SessionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendLeg {
    /// Host the leg leaves from.
    pub src: HostId,
    /// Host the leg arrives at.
    pub dst: HostId,
    /// Wire bytes carried on this leg (payload + channel header).
    pub bytes: u64,
}

/// The current data path of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPath {
    /// Traffic flows directly to the remote peer.
    Direct,
    /// The direct path died; traffic is relayed through a surviving peer.
    Relayed {
        /// The relay host.
        via: HostId,
    },
    /// The retry budget is spent: the transfer was abandoned. Terminal.
    Failed,
}

/// Result of one [`Session::reroute`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerouteOutcome {
    /// A surviving relay was found; the session carries on through it.
    Rerouted {
        /// The relay host now carrying the traffic.
        via: HostId,
        /// Backoff paid before this attempt succeeded.
        backoff: SimDuration,
    },
    /// No viable relay this attempt; budget remains — try again after the
    /// backoff.
    Retrying {
        /// Backoff to pay before the next attempt.
        backoff: SimDuration,
    },
    /// The retry budget is exhausted; the session is failed (terminal).
    Failed,
}

/// One configured channel between a local and a remote peer.
#[derive(Debug, Clone)]
pub struct Session {
    /// Local endpoint.
    pub local: HostId,
    /// Remote endpoint.
    pub remote: HostId,
    /// Network context the channel was configured for.
    pub context: NetworkContext,
    /// Scheme the channel was configured for.
    pub scheme: IterativeScheme,
    /// The selected channel configuration.
    pub config: ChannelConfig,
    /// Current data path (direct, relayed, or failed).
    pub path: SessionPath,
    reconfigurations: u32,
    reroute_attempts: u32,
    messages_sent: u64,
    bytes_sent: u64,
}

impl Session {
    /// Open a session: classify the route and ask the controller for a
    /// configuration.
    pub fn open(
        platform: &mut Platform,
        controller: &mut AdaptationController,
        local: HostId,
        remote: HostId,
        scheme: IterativeScheme,
    ) -> Session {
        let context = NetworkContext::classify(platform, local, remote);
        let config = controller.select(scheme, context);
        Session {
            local,
            remote,
            context,
            scheme,
            config,
            path: SessionPath::Direct,
            reconfigurations: 0,
            reroute_attempts: 0,
            messages_sent: 0,
            bytes_sent: 0,
        }
    }

    /// Time to establish (or re-establish) the channel: one route round-trip
    /// per handshake exchange. A relayed session handshakes with its relay; a
    /// failed session has nothing left to establish.
    pub fn handshake_delay(&self, platform: &mut Platform) -> SimDuration {
        let far_end = match self.path {
            SessionPath::Direct => self.remote,
            SessionPath::Relayed { via } => via,
            SessionPath::Failed => return SimDuration::ZERO,
        };
        if self.local == far_end {
            return SimDuration::ZERO;
        }
        let route = platform.route(self.local, far_end);
        route
            .latency
            .saturating_mul(2 * self.config.handshake_rtts() as u64)
    }

    /// One attempt to re-route a session whose current path died (the remote
    /// peer — or the relay — crash-stopped mid-transfer).
    ///
    /// The attempt pays `policy.backoff(attempts_so_far)`, then scans
    /// `candidates` in the given order for the first host with a live route
    /// from the local endpoint (candidates equal to either endpoint are
    /// skipped). On success the channel is re-classified and re-configured
    /// for the relay leg; once `policy.budget` attempts are spent the session
    /// transitions to [`SessionPath::Failed`] and stays there. Fully
    /// deterministic: outcome depends only on the candidate order and the
    /// platform, never on iteration order of any hash map.
    pub fn reroute(
        &mut self,
        platform: &mut Platform,
        controller: &mut AdaptationController,
        policy: &RetryPolicy,
        candidates: &[HostId],
    ) -> RerouteOutcome {
        if self.path == SessionPath::Failed {
            return RerouteOutcome::Failed;
        }
        if self.reroute_attempts >= policy.budget {
            self.path = SessionPath::Failed;
            return RerouteOutcome::Failed;
        }
        let backoff = policy.backoff(self.reroute_attempts);
        self.reroute_attempts += 1;
        let relay = candidates.iter().copied().find(|&c| {
            c != self.local && c != self.remote && platform.route_uncached(self.local, c).is_some()
        });
        match relay {
            Some(via) => {
                self.path = SessionPath::Relayed { via };
                // The relay leg may cross a different network context than
                // the dead direct path; adapt the channel to it.
                let context = NetworkContext::classify(platform, self.local, via);
                self.context = context;
                let new_config = controller.select(self.scheme, context);
                if new_config != self.config {
                    self.config = new_config;
                    self.reconfigurations += 1;
                }
                RerouteOutcome::Rerouted { via, backoff }
            }
            None if self.reroute_attempts >= policy.budget => {
                self.path = SessionPath::Failed;
                RerouteOutcome::Failed
            }
            None => RerouteOutcome::Retrying { backoff },
        }
    }

    /// Re-route until the session is either relayed or failed, accumulating
    /// the backoff a time-stepped caller would have paid. Terminates after at
    /// most `policy.budget` attempts — a broken session can never wedge.
    pub fn reroute_until_resolved(
        &mut self,
        platform: &mut Platform,
        controller: &mut AdaptationController,
        policy: &RetryPolicy,
        candidates: &[HostId],
    ) -> (RerouteOutcome, SimDuration) {
        let mut waited = SimDuration::ZERO;
        loop {
            match self.reroute(platform, controller, policy, candidates) {
                RerouteOutcome::Retrying { backoff } => waited += backoff,
                done => {
                    if let RerouteOutcome::Rerouted { backoff, .. } = done {
                        waited += backoff;
                    }
                    return (done, waited);
                }
            }
        }
    }

    /// Number of reroute attempts consumed from the retry budget.
    pub fn reroute_attempts(&self) -> u32 {
        self.reroute_attempts
    }

    /// Switch the session to a new scheme. Returns `true` (and bumps the
    /// reconfiguration counter) if the channel configuration actually changed.
    pub fn reconfigure(
        &mut self,
        controller: &mut AdaptationController,
        scheme: IterativeScheme,
    ) -> bool {
        self.scheme = scheme;
        let new_config = controller.select(scheme, self.context);
        if new_config != self.config {
            self.config = new_config;
            self.reconfigurations += 1;
            true
        } else {
            false
        }
    }

    /// Account for one application message of `payload_bytes` and describe
    /// the wire legs it traverses.
    ///
    /// A direct session pays one leg (local → remote). A **relayed** session
    /// pays the detour: the same wire bytes on the local → relay leg *and*
    /// again on the relay → remote leg, so relayed traffic always costs at
    /// least as much as the direct path would for the same payload. A failed
    /// session carries nothing — no legs, no accounting.
    ///
    /// Callers that drive a real [`netsim`] platform start one flow per
    /// returned [`SendLeg`]; the per-session counters reported by
    /// [`Session::traffic`] are the sum over those same legs.
    pub fn record_send(&mut self, payload_bytes: u64) -> Vec<SendLeg> {
        let wire = payload_bytes + self.config.header_bytes();
        let legs = match self.path {
            SessionPath::Direct => vec![SendLeg {
                src: self.local,
                dst: self.remote,
                bytes: wire,
            }],
            SessionPath::Relayed { via } => vec![
                SendLeg {
                    src: self.local,
                    dst: via,
                    bytes: wire,
                },
                SendLeg {
                    src: via,
                    dst: self.remote,
                    bytes: wire,
                },
            ],
            SessionPath::Failed => Vec::new(),
        };
        if !legs.is_empty() {
            self.messages_sent += 1;
            self.bytes_sent += wire * legs.len() as u64;
        }
        legs
    }

    /// Per-message costs of the current configuration.
    pub fn costs(&self) -> ProtocolCosts {
        self.config.protocol_costs()
    }

    /// Number of times the channel was reconfigured.
    pub fn reconfigurations(&self) -> u32 {
        self.reconfigurations
    }

    /// Messages and wire bytes sent so far.
    pub fn traffic(&self) -> (u64, u64) {
        (self.messages_sent, self.bytes_sent)
    }
}

/// Aggregate statistics over a socket's sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Open sessions.
    pub sessions: usize,
    /// Application messages sent.
    pub messages_sent: u64,
    /// Wire bytes sent (payload + headers).
    pub bytes_sent: u64,
    /// Total channel reconfigurations.
    pub reconfigurations: u64,
    /// Sessions currently running through a relay.
    pub relayed: usize,
    /// Sessions that exhausted their retry budget and failed.
    pub failed: usize,
    /// Total reroute attempts consumed across all sessions.
    pub reroute_attempts: u64,
}

/// A peer's bundle of sessions.
#[derive(Debug)]
pub struct Socket {
    local: HostId,
    scheme: IterativeScheme,
    controller: AdaptationController,
    retry_policy: RetryPolicy,
    sessions: HashMap<HostId, Session>,
}

impl Socket {
    /// Create a socket for a peer running the given scheme.
    pub fn new(local: HostId, scheme: IterativeScheme) -> Self {
        Socket {
            local,
            scheme,
            controller: AdaptationController::new(),
            retry_policy: RetryPolicy::default(),
            sessions: HashMap::new(),
        }
    }

    /// Override the reroute retry policy (builder style).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// The socket's reroute retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
    }

    /// Local endpoint.
    pub fn local(&self) -> HostId {
        self.local
    }

    /// Current scheme.
    pub fn scheme(&self) -> IterativeScheme {
        self.scheme
    }

    /// Get (opening lazily) the session towards `remote`.
    pub fn session(&mut self, platform: &mut Platform, remote: HostId) -> &mut Session {
        if !self.sessions.contains_key(&remote) {
            let s = Session::open(
                platform,
                &mut self.controller,
                self.local,
                remote,
                self.scheme,
            );
            self.sessions.insert(remote, s);
        }
        self.sessions.get_mut(&remote).expect("just inserted")
    }

    /// Switch every open session to a new scheme. Returns how many channels
    /// actually changed configuration.
    pub fn set_scheme(&mut self, scheme: IterativeScheme) -> usize {
        self.scheme = scheme;
        let mut changed = 0;
        for s in self.sessions.values_mut() {
            if s.reconfigure(&mut self.controller, scheme) {
                changed += 1;
            }
        }
        changed
    }

    /// The remote peer at `remote` crash-stopped: re-route the session to it
    /// (if one is open) until it is relayed or failed, burning retry budget
    /// and simulated backoff time. Returns the outcome and the total backoff
    /// paid, or `None` if no session towards `remote` was open.
    pub fn handle_remote_failure(
        &mut self,
        platform: &mut Platform,
        remote: HostId,
        survivors: &[HostId],
    ) -> Option<(RerouteOutcome, SimDuration)> {
        let policy = self.retry_policy;
        let session = self.sessions.get_mut(&remote)?;
        Some(session.reroute_until_resolved(platform, &mut self.controller, &policy, survivors))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SessionStats {
        let mut st = SessionStats {
            sessions: self.sessions.len(),
            ..SessionStats::default()
        };
        for s in self.sessions.values() {
            let (m, b) = s.traffic();
            st.messages_sent += m;
            st.bytes_sent += b;
            st.reconfigurations += s.reconfigurations() as u64;
            st.reroute_attempts += u64::from(s.reroute_attempts());
            match s.path {
                SessionPath::Relayed { .. } => st.relayed += 1,
                SessionPath::Failed => st.failed += 1,
                SessionPath::Direct => {}
            }
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{cluster_bordeplage, daisy_xdsl, HostSpec};

    #[test]
    fn sessions_classify_their_context_on_open() {
        let mut cluster = cluster_bordeplage(4, HostSpec::default());
        let mut ctl = AdaptationController::new();
        let s = Session::open(
            &mut cluster.platform,
            &mut ctl,
            cluster.hosts[0],
            cluster.hosts[1],
            IterativeScheme::Synchronous,
        );
        assert_eq!(s.context, NetworkContext::IntraCluster);
        assert_eq!(ctl.decisions(), 1);
    }

    #[test]
    fn handshake_delay_scales_with_route_latency() {
        let mut cluster = cluster_bordeplage(4, HostSpec::default());
        let mut xdsl = daisy_xdsl(16, HostSpec::default(), 1);
        let mut ctl = AdaptationController::new();
        let near = Session::open(
            &mut cluster.platform,
            &mut ctl,
            cluster.hosts[0],
            cluster.hosts[1],
            IterativeScheme::Synchronous,
        );
        let far = Session::open(
            &mut xdsl.platform,
            &mut ctl,
            xdsl.hosts[0],
            xdsl.hosts[10],
            IterativeScheme::Synchronous,
        );
        assert!(
            far.handshake_delay(&mut xdsl.platform) > near.handshake_delay(&mut cluster.platform)
        );
    }

    #[test]
    fn socket_opens_sessions_lazily_and_caches_them() {
        let mut topo = cluster_bordeplage(4, HostSpec::default());
        let mut sock = Socket::new(topo.hosts[0], IterativeScheme::Synchronous);
        let cfg1 = sock
            .session(&mut topo.platform, topo.hosts[1])
            .config
            .clone();
        sock.session(&mut topo.platform, topo.hosts[1])
            .record_send(100);
        sock.session(&mut topo.platform, topo.hosts[2])
            .record_send(200);
        let cfg2 = sock
            .session(&mut topo.platform, topo.hosts[1])
            .config
            .clone();
        assert_eq!(cfg1, cfg2);
        let st = sock.stats();
        assert_eq!(st.sessions, 2);
        assert_eq!(st.messages_sent, 2);
        assert!(st.bytes_sent > 300, "headers must be accounted for");
    }

    #[test]
    fn scheme_switch_reconfigures_channels() {
        let mut topo = daisy_xdsl(8, HostSpec::default(), 3);
        let mut sock = Socket::new(topo.hosts[0], IterativeScheme::Synchronous);
        sock.session(&mut topo.platform, topo.hosts[1]);
        sock.session(&mut topo.platform, topo.hosts[2]);
        let changed = sock.set_scheme(IterativeScheme::Asynchronous);
        assert_eq!(changed, 2);
        assert_eq!(sock.stats().reconfigurations, 2);
        // Switching to the same scheme again changes nothing.
        assert_eq!(sock.set_scheme(IterativeScheme::Asynchronous), 0);
    }

    #[test]
    fn reroute_picks_the_first_reachable_relay_deterministically() {
        let mut topo = daisy_xdsl(8, HostSpec::default(), 3);
        let mut ctl = AdaptationController::new();
        let mut s = Session::open(
            &mut topo.platform,
            &mut ctl,
            topo.hosts[0],
            topo.hosts[1],
            IterativeScheme::Synchronous,
        );
        let policy = RetryPolicy::default();
        // Candidates include both endpoints (must be skipped) and two valid
        // relays; the first valid one in order must win, every time.
        let candidates = [topo.hosts[0], topo.hosts[1], topo.hosts[5], topo.hosts[3]];
        let out = s.reroute(&mut topo.platform, &mut ctl, &policy, &candidates);
        assert_eq!(
            out,
            RerouteOutcome::Rerouted {
                via: topo.hosts[5],
                backoff: policy.backoff(0)
            }
        );
        assert_eq!(s.path, SessionPath::Relayed { via: topo.hosts[5] });
        assert_eq!(s.reroute_attempts(), 1);
    }

    #[test]
    fn reroute_fails_deterministically_after_the_budget() {
        let mut topo = daisy_xdsl(8, HostSpec::default(), 3);
        let mut ctl = AdaptationController::new();
        let mut s = Session::open(
            &mut topo.platform,
            &mut ctl,
            topo.hosts[0],
            topo.hosts[1],
            IterativeScheme::Synchronous,
        );
        let policy = RetryPolicy {
            budget: 3,
            base_backoff: SimDuration::from_millis(100),
            multiplier: 2,
        };
        // No survivors at all: every attempt retries, then the budget runs out.
        let (out, waited) = s.reroute_until_resolved(&mut topo.platform, &mut ctl, &policy, &[]);
        assert_eq!(out, RerouteOutcome::Failed);
        assert_eq!(s.path, SessionPath::Failed);
        assert_eq!(s.reroute_attempts(), 3);
        // 100ms + 200ms for the two Retrying attempts; the third attempt
        // fails terminally without waiting.
        assert_eq!(waited, SimDuration::from_millis(300));
        assert!(waited <= policy.max_total_backoff());
        // Failed is terminal: further attempts change nothing.
        assert_eq!(
            s.reroute(&mut topo.platform, &mut ctl, &policy, &[topo.hosts[2]]),
            RerouteOutcome::Failed
        );
        assert_eq!(s.handshake_delay(&mut topo.platform), SimDuration::ZERO);
    }

    #[test]
    fn socket_reroutes_its_broken_session_and_reports_stats() {
        let mut topo = daisy_xdsl(8, HostSpec::default(), 3);
        let mut sock = Socket::new(topo.hosts[0], IterativeScheme::Synchronous);
        sock.session(&mut topo.platform, topo.hosts[1]);
        sock.session(&mut topo.platform, topo.hosts[2]);
        let survivors = [topo.hosts[4]];
        let (out, _) = sock
            .handle_remote_failure(&mut topo.platform, topo.hosts[1], &survivors)
            .expect("session exists");
        assert!(matches!(out, RerouteOutcome::Rerouted { .. }));
        // No session towards an unknown remote: nothing to re-route.
        assert!(sock
            .handle_remote_failure(&mut topo.platform, topo.hosts[7], &survivors)
            .is_none());
        let st = sock.stats();
        assert_eq!(st.sessions, 2);
        assert_eq!(st.relayed, 1);
        assert_eq!(st.failed, 0);
        assert_eq!(st.reroute_attempts, 1);
    }

    #[test]
    fn relayed_sessions_charge_the_detour_not_just_the_direct_path() {
        let mut topo = daisy_xdsl(8, HostSpec::default(), 3);
        let mut ctl = AdaptationController::new();
        let payload = 1_000u64;

        // Direct baseline.
        let mut direct = Session::open(
            &mut topo.platform,
            &mut ctl,
            topo.hosts[0],
            topo.hosts[1],
            IterativeScheme::Synchronous,
        );
        let direct_legs = direct.record_send(payload);
        assert_eq!(direct_legs.len(), 1);
        let (_, direct_bytes) = direct.traffic();

        // Same endpoints, same payload, but through a relay.
        let mut relayed = Session::open(
            &mut topo.platform,
            &mut ctl,
            topo.hosts[0],
            topo.hosts[1],
            IterativeScheme::Synchronous,
        );
        let policy = RetryPolicy::default();
        let out = relayed.reroute(&mut topo.platform, &mut ctl, &policy, &[topo.hosts[5]]);
        assert!(matches!(out, RerouteOutcome::Rerouted { .. }));
        let legs = relayed.record_send(payload);
        assert_eq!(legs.len(), 2, "a relayed send pays both hops");
        assert_eq!((legs[0].src, legs[0].dst), (topo.hosts[0], topo.hosts[5]));
        assert_eq!((legs[1].src, legs[1].dst), (topo.hosts[5], topo.hosts[1]));
        assert_eq!(legs[0].bytes, legs[1].bytes);

        let (_, relayed_bytes) = relayed.traffic();
        assert!(
            relayed_bytes >= direct_bytes,
            "relayed wire bytes ({relayed_bytes}) must be at least the direct \
             cost ({direct_bytes}) for the same payload"
        );
        // Both hops carry payload + header; the relay leg's header may differ
        // from the original channel's because the channel was re-configured
        // for the relay context, but it is charged for *two* crossings.
        assert_eq!(relayed_bytes, 2 * (payload + relayed.config.header_bytes()));
    }

    #[test]
    fn failed_sessions_carry_nothing() {
        let mut topo = daisy_xdsl(8, HostSpec::default(), 3);
        let mut ctl = AdaptationController::new();
        let mut s = Session::open(
            &mut topo.platform,
            &mut ctl,
            topo.hosts[0],
            topo.hosts[1],
            IterativeScheme::Synchronous,
        );
        let policy = RetryPolicy {
            budget: 1,
            ..RetryPolicy::default()
        };
        let (out, _) = s.reroute_until_resolved(&mut topo.platform, &mut ctl, &policy, &[]);
        assert_eq!(out, RerouteOutcome::Failed);
        assert!(s.record_send(1_000).is_empty());
        assert_eq!(s.traffic(), (0, 0));
    }

    #[test]
    fn relayed_sends_drive_one_netsim_flow_per_leg() {
        use netsim::{run_world, NetEvent, Network, Scheduler, SharingMode, World};
        use p2p_common::DataSize;

        let mut topo = daisy_xdsl(8, HostSpec::default(), 3);
        let mut ctl = AdaptationController::new();
        let mut s = Session::open(
            &mut topo.platform,
            &mut ctl,
            topo.hosts[0],
            topo.hosts[1],
            IterativeScheme::Synchronous,
        );
        let policy = RetryPolicy::default();
        s.reroute(&mut topo.platform, &mut ctl, &policy, &[topo.hosts[5]]);
        let legs = s.record_send(10_000);
        assert_eq!(legs.len(), 2);

        #[derive(Debug, Clone, Copy)]
        struct Ev(NetEvent);
        impl From<NetEvent> for Ev {
            fn from(e: NetEvent) -> Self {
                Ev(e)
            }
        }
        struct Sim {
            net: Network,
            delivered: Vec<(HostId, HostId, u64)>,
        }
        impl World for Sim {
            type Event = Ev;
            fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
                if let Some(d) = self.net.on_event(sched, ev.0) {
                    self.delivered.push((d.src, d.dst, d.size.bytes()));
                }
            }
        }

        let mut sim = Sim {
            net: Network::new(topo.platform, SharingMode::MaxMinFair),
            delivered: Vec::new(),
        };
        let mut sched = Scheduler::new();
        for (i, leg) in legs.iter().enumerate() {
            sim.net.start_flow(
                &mut sched,
                leg.src,
                leg.dst,
                DataSize::from_bytes(leg.bytes),
                i as u64,
            );
        }
        run_world(&mut sim, &mut sched, None);
        // Both hops of the detour crossed the simulated wire, and the bytes
        // delivered match the bytes the session accounted.
        assert_eq!(sim.delivered.len(), 2);
        let wire: u64 = sim.delivered.iter().map(|&(_, _, b)| b).sum();
        assert_eq!(wire, s.traffic().1);
    }

    #[test]
    fn loopback_session_has_no_handshake_cost() {
        let mut topo = cluster_bordeplage(2, HostSpec::default());
        let mut ctl = AdaptationController::new();
        let s = Session::open(
            &mut topo.platform,
            &mut ctl,
            topo.hosts[0],
            topo.hosts[0],
            IterativeScheme::Synchronous,
        );
        assert_eq!(s.handshake_delay(&mut topo.platform), SimDuration::ZERO);
    }
}
