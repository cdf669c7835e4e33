//! The P2PDC reference's sweep loop against its unrolled form.
//!
//! `p2pdc::executor::iteration_scripts` writes the sweeps of the obstacle
//! solver as one `Repeat`. Under `Bottleneck` sharing the replay skips the
//! periods of the synchronous scheme once they repeat; the asynchronous
//! scheme's mailboxes grow every sweep, so it never repeats and replays in
//! full. Either way the result must be the unrolled script's, field for
//! field.

use netsim::replay::{replay, ProcessScript, ReplayConfig, ReplayOp, ReplayResult};
use netsim::{ReplaySession, SharingMode};
use obstacle::ObstacleApp;
use p2p_perf::{PlatformKind, Scenario};
use p2pdc::executor::{iteration_scripts, ExecutionConfig};
use p2psap::{AdaptationController, IterativeScheme, NetworkContext};

/// `ops` with every loop written out.
fn unroll(ops: &[ReplayOp]) -> Vec<ReplayOp> {
    let mut out = Vec::new();
    let mut pc = 0;
    while pc < ops.len() {
        match ops[pc] {
            ReplayOp::Repeat { count, len } => {
                let body = unroll(&ops[pc + 1..pc + 1 + len]);
                for _ in 0..count {
                    out.extend_from_slice(&body);
                }
                pc += 1 + len;
            }
            op => {
                out.push(op);
                pc += 1;
            }
        }
    }
    out
}

/// The loop replay of the small obstacle app's sweeps on Grid5000, the
/// unrolled replay, and whether the loop replay skipped a period.
fn replay_both(scheme: IterativeScheme) -> (ReplayResult, ReplayResult, bool) {
    let s = Scenario::new(PlatformKind::Grid5000, 16)
        .with_app(ObstacleApp::small())
        .with_scheme(scheme);
    let topology = s.build_topology();
    let hosts = s.pick_hosts(&topology);
    let exec = ExecutionConfig {
        scheme,
        ..ExecutionConfig::default()
    };
    let scripts = iteration_scripts(&s.app, &topology, &hosts, &exec);
    assert!(scripts
        .iter()
        .all(|s| matches!(s.ops[0], ReplayOp::Repeat { .. })));
    // The channel `run_reference` picks for this context.
    let mut platform = topology.platform.clone();
    let context = NetworkContext::classify(&mut platform, hosts[0], hosts[1]);
    let cfg = ReplayConfig {
        sharing: SharingMode::Bottleneck,
        protocol: AdaptationController::decide(scheme, context).protocol_costs(),
    };
    let mut session =
        ReplaySession::new(topology.platform.clone(), &hosts, &scripts, &cfg).unwrap();
    session.run_until(None);
    let skipped = session
        .checkpoint()
        .get("world")
        .and_then(|w| w.get("jumped"))
        .is_some();
    let flat: Vec<ProcessScript> = scripts
        .iter()
        .map(|s| ProcessScript {
            rank: s.rank,
            ops: unroll(&s.ops),
        })
        .collect();
    let want = replay(topology.platform, &hosts, &flat, &cfg).unwrap();
    (session.result(), want, skipped)
}

#[test]
fn synchronous_sweeps_skip_periods_and_match_the_unrolled_replay() {
    let (got, want, skipped) = replay_both(IterativeScheme::Synchronous);
    assert!(skipped, "the synchronous sweeps are periodic");
    assert_eq!(got, want);
}

#[test]
fn asynchronous_sweeps_never_repeat_and_replay_in_full() {
    let (got, want, skipped) = replay_both(IterativeScheme::Asynchronous);
    assert!(!skipped, "growing mailboxes cannot repeat");
    assert_eq!(got, want);
}
