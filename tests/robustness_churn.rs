//! Robustness integration suite: heavy correlated churn on a DSLAM forest.
//!
//! Drives the `p2pdc_bench::robustness` scenario (the same harness the
//! `robustness_churn` bench and the CI `robustness` job run) and asserts the
//! acceptance properties of the fault model end to end:
//!
//! * a correlated whole-component kill is detected via heartbeat timeout
//!   within the configured window;
//! * every affected session either re-routes through a surviving relay or
//!   terminates after its retry budget — no wedged sessions;
//! * the overlay re-converges: line consistent, no orphaned peers;
//! * the outcome is identical across seeds' repeated runs (the CI matrix
//!   additionally varies debug/release around this binary).
//!
//! The seed can be pinned from the environment (`ROBUSTNESS_SEED`) so the CI
//! job runs the same binary over several seeds without recompiling.

use p2p_common::{SimDuration, SimTime};
use p2pdc::HeartbeatConfig;
use p2pdc_bench::robustness::{run_robustness, RobustnessConfig, RobustnessReport};

/// Scenario used by every test: 4 trees × 16 hosts, tree 1 mass-killed at
/// t=20 s, three individual crashes in surviving trees from t=60 s.
fn scenario(seed: u64) -> RobustnessConfig {
    RobustnessConfig {
        seed,
        ..RobustnessConfig::default()
    }
}

fn seed_from_env() -> u64 {
    std::env::var("ROBUSTNESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
}

fn report() -> RobustnessReport {
    run_robustness(&scenario(seed_from_env()))
}

#[test]
fn correlated_kill_is_detected_within_the_heartbeat_window() {
    let cfg = scenario(seed_from_env());
    let r = report();
    // The whole tree died at once...
    assert_eq!(r.mass_victims, cfg.nodes_per_tree);
    // ...and every victim was declared dead by heartbeat timeout,
    assert_eq!(r.mass_detected, r.mass_victims);
    // within timeout + two beat periods (worst-case phase alignment).
    let window = cfg.heartbeat.timeout() + cfg.heartbeat.beat_period.saturating_mul(2);
    assert!(
        r.mass_detection_latency <= window,
        "detection took {} (window {})",
        r.mass_detection_latency,
        window
    );
    // Never faster than the timeout itself: detection needs real misses.
    assert!(r.mass_detection_latency >= cfg.heartbeat.timeout());
}

#[test]
fn no_session_wedges_under_churn() {
    let cfg = scenario(seed_from_env());
    let r = report();
    assert_eq!(r.crash_victims, cfg.extra_peer_crashes);
    assert_eq!(r.wedged_sessions, 0, "wedged sessions: {r:?}");
    // Every broken session reached a terminal outcome...
    assert_eq!(
        r.rerouted_sessions + r.failed_sessions,
        r.crash_victims,
        "unresolved session outcomes: {r:?}"
    );
    // ...and with 16-host trees a surviving relay always exists.
    assert_eq!(r.rerouted_sessions, r.crash_victims);
    assert_eq!(r.failed_sessions, 0);
}

#[test]
fn overlay_reconverges_after_churn() {
    let cfg = scenario(seed_from_env());
    let r = report();
    // Line consistent, no orphaned peers, zones well-formed.
    assert!(
        r.invariant_violations.is_empty(),
        "{:?}",
        r.invariant_violations
    );
    // Every detected departure was flushed out of the overlay maps: what
    // remains is exactly the live population.
    assert_eq!(r.overlay_peers, r.live_peers);
    let expected_live = (cfg.trees - 1) * cfg.nodes_per_tree - cfg.extra_peer_crashes;
    assert_eq!(r.live_peers, expected_live);
    // The killed tree is empty; survivor lists cover the rest.
    assert!(r.survivor_hosts[cfg.kill_component].is_empty());
    let listed: usize = r.survivor_hosts.iter().map(Vec::len).sum();
    assert_eq!(listed, expected_live);
}

#[test]
fn heartbeats_are_real_network_traffic() {
    let r = report();
    assert!(r.heartbeat_flows > 0);
    assert_eq!(r.net_stats.flows_started, r.heartbeat_flows);
    assert!(r.heartbeat_deliveries > 0);
    // Crashed peers stop beating, so some flows outlive their usefulness
    // but none are conjured from nowhere.
    assert!(r.heartbeat_deliveries <= r.heartbeat_flows);
    assert!(r.net_stats.bytes_delivered > 0);
}

#[test]
fn outcome_is_deterministic_for_a_seed() {
    let cfg = scenario(seed_from_env());
    let a = run_robustness(&cfg);
    let b = run_robustness(&cfg);
    assert_eq!(a, b, "same config must reproduce the same report");
}

#[test]
fn distinct_seeds_change_traffic_but_not_guarantees() {
    // Different last-mile draws shift timings, yet the acceptance
    // properties hold for every seed.
    for seed in [5, 17, 99] {
        let cfg = scenario(seed);
        let r = run_robustness(&cfg);
        assert_eq!(r.mass_detected, r.mass_victims, "seed {seed}");
        assert_eq!(r.wedged_sessions, 0, "seed {seed}");
        assert!(r.invariant_violations.is_empty(), "seed {seed}");
    }
}

#[test]
fn tighter_heartbeats_detect_faster() {
    let base = scenario(5);
    let slow = run_robustness(&base);
    let fast_cfg = RobustnessConfig {
        heartbeat: HeartbeatConfig {
            beat_period: SimDuration::from_secs(2),
            miss_threshold: 2,
            ..base.heartbeat
        },
        ..base
    };
    let fast = run_robustness(&fast_cfg);
    assert!(
        fast.mass_detection_latency < slow.mass_detection_latency,
        "2s×2 beats ({}) should detect before 5s×3 beats ({})",
        fast.mass_detection_latency,
        slow.mass_detection_latency
    );
    // Tighter beats mean more heartbeat traffic over the same horizon.
    assert!(fast.heartbeat_flows > slow.heartbeat_flows);
}

#[test]
fn a_longer_horizon_only_adds_heartbeats() {
    let short = run_robustness(&scenario(5));
    let long_cfg = RobustnessConfig {
        horizon: SimTime::from_secs(300),
        ..scenario(5)
    };
    let long = run_robustness(&long_cfg);
    // All churn is over well before either horizon: detection results and
    // session outcomes agree; only keep-alive traffic grows.
    assert_eq!(short.mass_detected, long.mass_detected);
    assert_eq!(short.mass_detection_latency, long.mass_detection_latency);
    assert_eq!(short.rerouted_sessions, long.rerouted_sessions);
    assert_eq!(short.live_peers, long.live_peers);
    assert!(long.heartbeat_flows > short.heartbeat_flows);
}
