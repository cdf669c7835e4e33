//! Prediction-accuracy integration tests (the Fig. 10 claim) plus trace-file
//! round-trips through the on-disk format, and the engine-interchangeability
//! guarantee the prediction pipeline rests on.

use dperf::{predict_traces, OptLevel, TraceSet};
use netsim::SharingMode;
use obstacle::ObstacleApp;
use p2p_perf::{PlatformKind, Scenario};
use p2psap::IterativeScheme;

fn tiny() -> ObstacleApp {
    ObstacleApp {
        n: 160,
        sweeps: 50,
        flops_per_point: 21.0,
    }
}

#[test]
fn prediction_matches_reference_within_tolerance_on_every_platform() {
    for platform in [
        PlatformKind::Grid5000,
        PlatformKind::Lan,
        PlatformKind::Xdsl,
    ] {
        let scenario = Scenario::new(platform, 4)
            .with_app(tiny())
            .with_opt(OptLevel::O0);
        let reference = scenario.run_reference();
        let prediction = scenario.predict();
        let r = reference.execution_time.as_secs_f64();
        let p = prediction.total.as_secs_f64();
        let err = (r - p).abs() / r;
        assert!(
            err < 0.25,
            "{}: prediction {p:.3}s vs reference {r:.3}s (error {:.1}%)",
            platform.label(),
            err * 100.0
        );
    }
}

#[test]
fn prediction_is_deterministic() {
    let scenario = Scenario::new(PlatformKind::Xdsl, 8).with_app(tiny());
    let a = scenario.predict();
    let b = scenario.predict();
    assert_eq!(a.total, b.total);
    assert_eq!(a.messages, b.messages);
    // A different platform seed changes the random xDSL last miles and hence
    // the prediction.
    let c = scenario.clone().with_seed(7).predict();
    assert_ne!(a.total, c.total);
}

#[test]
fn traces_survive_the_on_disk_format_and_predict_identically() {
    let scenario = Scenario::new(PlatformKind::Grid5000, 4).with_app(tiny());
    let traces = scenario.traces();
    let dir = std::env::temp_dir().join("p2p-perf-test-traces");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("obstacle-4.json");
    traces.write_to(&path).unwrap();
    let reloaded = TraceSet::read_from(&path).unwrap();
    assert_eq!(traces, reloaded);
    std::fs::remove_file(&path).ok();

    let topology = scenario.build_topology();
    let hosts = scenario.pick_hosts(&topology);
    let from_memory = predict_traces(
        &traces,
        &topology,
        &hosts,
        IterativeScheme::Synchronous,
        SharingMode::Bottleneck,
    );
    let from_disk = predict_traces(
        &reloaded,
        &topology,
        &hosts,
        IterativeScheme::Synchronous,
        SharingMode::Bottleneck,
    );
    assert_eq!(from_memory.total, from_disk.total);
}

#[test]
fn compute_bound_lower_bound_holds() {
    // The predicted time can never be smaller than the largest per-rank
    // compute time contained in the traces.
    for nprocs in [2usize, 4, 8] {
        let scenario = Scenario::new(PlatformKind::Lan, nprocs).with_app(tiny());
        let traces = scenario.traces();
        let prediction = scenario.predict();
        assert!(
            prediction.total >= traces.max_compute_time(),
            "nprocs={nprocs}"
        );
    }
}

#[test]
fn sharing_model_choice_only_matters_under_contention() {
    // With 2 peers on the cluster there is no contention: both models agree.
    let base = Scenario::new(PlatformKind::Grid5000, 2).with_app(tiny());
    let analytic = base.clone().with_sharing(SharingMode::Bottleneck).predict();
    let fair = base.with_sharing(SharingMode::MaxMinFair).predict();
    let rel = (analytic.total.as_secs_f64() - fair.total.as_secs_f64()).abs()
        / analytic.total.as_secs_f64();
    assert!(rel < 0.05, "models diverge by {rel} without contention");
}

/// The fault-model counterpart of the Fig. 10 claim: after heavy correlated
/// churn (one whole DSLAM tree killed, plus individual peer crashes in the
/// surviving trees), dPerf predictions on the *surviving* hosts must still
/// track the reference execution within the paper's envelope. Churn must not
/// silently degrade the predictor — the survivors form an ordinary (smaller)
/// platform.
#[test]
fn prediction_tracks_the_reference_on_churn_survivors() {
    use netsim::{dslam_forest, HostSpec};
    use p2pdc::ExecutionConfig;
    use p2pdc_bench::robustness::{run_robustness, RobustnessConfig};

    let churn = RobustnessConfig {
        trees: 3,
        nodes_per_tree: 8,
        ..RobustnessConfig::default()
    };
    let report = run_robustness(&churn);
    assert!(
        report.invariant_violations.is_empty(),
        "{:?}",
        report.invariant_violations
    );

    // Pick four live hosts from a surviving tree (deterministic: survivor
    // lists are in host order).
    let survivors = report
        .survivor_hosts
        .iter()
        .enumerate()
        .find(|(c, hosts)| *c != churn.kill_component && hosts.len() >= 4)
        .map(|(_, hosts)| hosts.clone())
        .expect("a surviving tree keeps at least four peers");
    let hosts = survivors[..4].to_vec();

    // The forest build is deterministic, so the prediction pipeline can
    // reconstruct the exact platform the churn scenario ran on.
    let topology = dslam_forest(
        churn.trees,
        churn.nodes_per_tree,
        HostSpec::default(),
        churn.seed,
    );

    let scenario = Scenario::new(PlatformKind::Xdsl, 4)
        .with_app(tiny())
        .with_opt(OptLevel::O0);
    let traces = scenario.traces();
    let prediction = predict_traces(
        &traces,
        &topology,
        &hosts,
        IterativeScheme::Synchronous,
        SharingMode::Bottleneck,
    );
    let cfg = ExecutionConfig {
        opt_factor: OptLevel::O0.time_factor(),
        ..ExecutionConfig::default()
    };
    let reference = p2pdc::run_reference(&tiny(), &topology, &hosts, &cfg);

    let r = reference.execution_time.as_secs_f64();
    let p = prediction.total.as_secs_f64();
    let err = (r - p).abs() / r;
    assert!(
        err < 0.25,
        "post-churn survivors: prediction {p:.3}s vs reference {r:.3}s (error {:.1}%)",
        err * 100.0
    );
}

/// The prediction pipeline replays traces through `netsim::replay`. A
/// predicted time is a function of its inputs only: two replays of a
/// synchronous halo-exchange workload crossing shared links, under either
/// sharing mode, produce the identical result.
#[test]
fn replay_result_is_identical_across_runs() {
    use netsim::{daisy_xdsl, replay, HostSpec, ProcessScript, ReplayConfig, ReplayOp};
    use p2p_common::SimDuration;

    let topo = daisy_xdsl(16, HostSpec::default(), 9);
    let hosts: Vec<_> = topo.hosts[..8].to_vec();
    // Two rounds of compute + ring halo exchange over the shared DSLAM
    // fabric: enough concurrent transfers that max–min sharing (and thus
    // the flush machinery) actually decides the timing.
    let scripts: Vec<ProcessScript> = (0..8)
        .map(|rank| {
            let mut ops = vec![];
            for round in 0..2u64 {
                ops.push(ReplayOp::Compute {
                    duration: SimDuration::from_millis(3 + rank as u64 + round),
                });
                ops.push(ReplayOp::Send {
                    to: (rank + 1) % 8,
                    bytes: 400_000,
                    tag: round as u32,
                });
                ops.push(ReplayOp::Recv {
                    from: (rank + 7) % 8,
                    tag: round as u32,
                });
            }
            ProcessScript { rank, ops }
        })
        .collect();

    for sharing in [SharingMode::MaxMinFair, SharingMode::Bottleneck] {
        let cfg = ReplayConfig {
            sharing,
            ..ReplayConfig::default()
        };
        let results: Vec<_> = (0..2)
            .map(|_| replay(topo.platform.clone(), &hosts, &scripts, &cfg).unwrap())
            .collect();
        assert!(results[0].makespan > SimDuration::ZERO);
        for r in &results[1..] {
            assert_eq!(results[0].makespan, r.makespan, "makespan diverged");
            assert_eq!(
                results[0].finish_times, r.finish_times,
                "per-rank finish times diverged ({sharing:?})"
            );
            assert_eq!(results[0].net_stats, r.net_stats);
        }
    }
}
