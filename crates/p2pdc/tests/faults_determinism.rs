//! Determinism and distribution guarantees of the fault model.
//!
//! The CI `robustness` matrix runs this binary in debug and release: a churn
//! sequence is part of a scenario's identity, so the same seed must yield
//! the *identical* event sequence everywhere — build profile and allocation
//! pattern must both be invisible to the RNG stream.

use p2p_common::{IpAddr, PeerResources, SimDuration, SimTime};
use p2pdc::{ChurnEvent, ChurnInjector, FaultEvent, FaultPlan, Overlay, OverlayConfig, TimedFault};

fn overlay_with(peers: usize, trackers: usize) -> Overlay {
    let tracker_ips: Vec<IpAddr> = (0..trackers)
        .map(|t| IpAddr::from_octets(10, t as u8, 0, 250))
        .collect();
    let mut overlay = Overlay::bootstrap(OverlayConfig::default(), &tracker_ips);
    for p in 0..peers {
        let ip = IpAddr::from_octets(10, (p % trackers) as u8, 1, (p % 200) as u8 + 1);
        overlay.peer_join(ip, None, PeerResources::xeon_em64t());
    }
    overlay
}

/// Drive `n` injector events against a fixed overlay population and record
/// the full (event, gap) sequence.
fn sequence(seed: u64, n: usize) -> Vec<(ChurnEvent, SimDuration)> {
    let overlay = overlay_with(40, 4);
    let mut injector = ChurnInjector::new(seed);
    (0..n).map(|_| injector.next_event(&overlay)).collect()
}

#[test]
fn same_seed_yields_the_identical_event_sequence() {
    let a = sequence(7, 200);
    let b = sequence(7, 200);
    assert_eq!(a, b);
    // Distinct seeds diverge (overwhelmingly) — a frozen RNG would make the
    // determinism assertion above vacuous.
    let c = sequence(8, 200);
    assert_ne!(a, c);
}

#[test]
fn sequences_are_stable_under_interleaved_queries() {
    // Consuming the injector in two chunks (as a simulation loop would,
    // with arbitrary other work between draws) gives the same stream as
    // consuming it at once: the injector owns all of its randomness.
    let overlay = overlay_with(40, 4);
    let mut one_shot = ChurnInjector::new(31);
    let all: Vec<_> = (0..100).map(|_| one_shot.next_event(&overlay)).collect();

    let mut chunked = ChurnInjector::new(31);
    let mut split: Vec<_> = (0..37).map(|_| chunked.next_event(&overlay)).collect();
    split.extend((37..100).map(|_| chunked.next_event(&overlay)));
    assert_eq!(all, split);
}

#[test]
fn event_mix_follows_the_configured_fractions() {
    // Distribution sanity: with tracker_fraction = 0.1 and
    // departure_fraction = 0.5, a long run must show roughly that mix.
    let events = sequence(12345, 4000);
    let n = events.len() as f64;
    let trackers = events
        .iter()
        .filter(|(e, _)| matches!(e, ChurnEvent::TrackerJoin(_) | ChurnEvent::TrackerCrash(_)))
        .count() as f64;
    let departures = events
        .iter()
        .filter(|(e, _)| matches!(e, ChurnEvent::PeerLeave(_) | ChurnEvent::TrackerCrash(_)))
        .count() as f64;
    let tracker_rate = trackers / n;
    let departure_rate = departures / n;
    assert!(
        (0.07..=0.13).contains(&tracker_rate),
        "tracker mix {tracker_rate} strays from 0.1"
    );
    assert!(
        (0.45..=0.55).contains(&departure_rate),
        "departure mix {departure_rate} strays from 0.5"
    );
    // Gaps follow the exponential with the configured 10 s mean.
    let mean_gap: f64 = events.iter().map(|(_, g)| g.as_secs_f64()).sum::<f64>() / n;
    assert!(
        (8.0..=12.0).contains(&mean_gap),
        "mean inter-arrival {mean_gap}s strays from 10s"
    );
}

#[test]
fn injector_never_targets_the_dead_even_when_a_plan_runs_concurrently() {
    // A FaultPlan crash-stops peers/trackers mid-stream; the injector draws
    // from the live population only, so it must never emit a departure for
    // an id the plan already killed.
    let mut overlay = overlay_with(30, 3);
    let mut injector = ChurnInjector::new(99);
    injector.departure_fraction = 1.0; // force departures: worst case

    // Kill a third of the peers and one tracker through a plan.
    let victims: Vec<_> = overlay.peers().map(|p| p.id).step_by(3).collect();
    let doomed_tracker = overlay.trackers().map(|t| t.id).nth(1).unwrap();
    let mut plan = FaultPlan::new();
    for (k, &v) in victims.iter().enumerate() {
        plan.schedule(SimTime::from_secs(k as u64), FaultEvent::PeerCrash(v));
    }
    plan.schedule(
        SimTime::from_secs(victims.len() as u64),
        FaultEvent::TrackerCrash(doomed_tracker),
    );

    // Interleave: one plan step, then a burst of injector draws.
    let horizon = SimTime::from_secs(victims.len() as u64 + 1);
    let mut t = SimTime::ZERO;
    while t <= horizon {
        overlay.advance_time(t.duration_since(overlay.now()));
        let impact = plan.deliver_due(&mut overlay, t);
        for _ in 0..20 {
            let (event, _) = injector.next_event(&overlay);
            match event {
                ChurnEvent::PeerLeave(id) => {
                    assert!(!overlay.is_peer_crashed(id), "injector picked crashed {id}");
                }
                ChurnEvent::TrackerCrash(id) => {
                    assert!(
                        !overlay.is_tracker_crashed(id),
                        "injector picked crashed {id}"
                    );
                }
                _ => {}
            }
        }
        let _ = impact;
        t = t.saturating_add(SimDuration::from_secs(1));
    }
    // The plan really did run.
    assert_eq!(overlay.live_peer_count(), 30 - victims.len());
}

#[test]
fn fault_plans_replay_identically() {
    // A plan is data: delivering the same plan against identically-built
    // overlays produces the same impacts and the same final population.
    let build = || {
        let mut overlay = overlay_with(24, 3);
        let ids: Vec<_> = overlay.peers().map(|p| p.id).collect();
        let plan = FaultPlan::new()
            .with_fault(SimTime::from_secs(5), FaultEvent::PeerCrash(ids[3]))
            .with_fault(SimTime::from_secs(5), FaultEvent::PeerCrash(ids[17]))
            .with_fault(
                SimTime::from_secs(9),
                FaultEvent::TrackerCrash(overlay.trackers().next().unwrap().id),
            );
        overlay.advance_time(SimDuration::from_secs(10));
        (overlay, plan)
    };
    let (mut o1, mut p1) = build();
    let (mut o2, mut p2) = build();
    let i1 = p1.deliver_due(&mut o1, SimTime::from_secs(10));
    let i2 = p2.deliver_due(&mut o2, SimTime::from_secs(10));
    assert_eq!(i1, i2);
    assert_eq!(o1.live_peer_count(), o2.live_peer_count());
    assert_eq!(o1.check_invariants(), o2.check_invariants());
    assert!(o1.check_invariants().is_empty());
}

#[test]
fn timed_faults_expose_their_schedule() {
    let plan = FaultPlan::new()
        .with_fault(
            SimTime::from_secs(8),
            FaultEvent::PeerCrash(p2p_common::PeerId::new(1)),
        )
        .with_fault(
            SimTime::from_secs(3),
            FaultEvent::PeerCrash(p2p_common::PeerId::new(2)),
        );
    assert_eq!(plan.len(), 2);
    assert_eq!(plan.next_at(), Some(SimTime::from_secs(3)));
    let first = TimedFault {
        at: SimTime::from_secs(3),
        event: FaultEvent::PeerCrash(p2p_common::PeerId::new(2)),
    };
    let _ = first; // construction compiles: the type is public data
}
