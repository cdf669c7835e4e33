//! The reference executor: running an application with P2PDC.
//!
//! This is the code path that produces `t_normal_execution`, the reference
//! time of the paper's figures: the submitter collects peers through the
//! overlay (§III-B), builds the hierarchical allocation (§III-C), ships the
//! subtask inputs, runs the distributed iteration loop over P2PSAP channels on
//! the simulated platform, and gathers the results back through the
//! coordinators.
//!
//! The iteration loop is simulated with the same flow-level network model the
//! dPerf prediction uses (that is the whole point of trace-based prediction:
//! the network model is shared), but the executor derives its behaviour
//! directly from the [`IterativeApp`] description — allocation, input
//! shipping and result collection are extra phases dPerf does not predict,
//! which is why reference and predicted times are close but not identical
//! (Fig. 10).

use crate::allocation::{build_allocation, hierarchical_cost, AllocationGraph, CMAX};
use crate::app::IterativeApp;
use crate::overlay::{Overlay, OverlayConfig};
use crate::proximity::GroupCandidate;
use netsim::{
    replay, Network, PlacementPolicy, ProcessScript, ReplayConfig, ReplayOp, SharingMode, Topology,
};
use p2p_common::{
    DataSize, HostId, PeerId, PeerResources, ResourceRequirements, SimDuration, TaskId,
};
use p2psap::{AdaptationController, IterativeScheme, NetworkContext};
use std::collections::HashMap;

/// Tag used by halo-exchange messages.
const TAG_HALO: u32 = 1;
/// Tag used by the convergence reduction.
const TAG_REDUCE: u32 = 2;
/// Tag used by the final synchronisation of the asynchronous scheme.
const TAG_FINAL: u32 = 3;
/// Size of an overlay control message on the wire.
const CONTROL_MSG_BYTES: u64 = 256;

/// Configuration of a reference run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// Compute-time multiplier of the compiler optimisation level
    /// (1.0 = `-O3`; see `dperf::OptLevel::time_factor`).
    pub opt_factor: f64,
    /// Iterative scheme announced to P2PSAP.
    pub scheme: IterativeScheme,
    /// Bandwidth-sharing model of the network simulation.
    pub sharing: SharingMode,
    /// Resource requirements attached to the peer request.
    pub requirements: ResourceRequirements,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            opt_factor: 1.0,
            scheme: IterativeScheme::Synchronous,
            sharing: SharingMode::Bottleneck,
            requirements: ResourceRequirements::none(),
        }
    }
}

/// Outcome of a reference run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total time from task submission to results at the submitter.
    pub total: SimDuration,
    /// Time spent collecting peers through the overlay.
    pub collection_time: SimDuration,
    /// Time spent building groups and shipping subtask inputs.
    pub allocation_time: SimDuration,
    /// Time of the distributed iteration loop (the part dPerf predicts).
    pub execution_time: SimDuration,
    /// Time spent returning results through the coordinators.
    pub result_time: SimDuration,
    /// Overlay control messages exchanged (collection + allocation).
    pub overlay_messages: u64,
    /// Application messages exchanged during the iteration loop.
    pub app_messages: u64,
    /// Number of peers that computed.
    pub peers: usize,
}

/// Run `app` with P2PDC on the given hosts of `topology` and report the
/// reference execution time. `hosts[0]` acts as the submitter and as rank 0.
pub fn run_reference(
    app: &dyn IterativeApp,
    topology: &Topology,
    hosts: &[HostId],
    cfg: &ExecutionConfig,
) -> RunReport {
    assert!(!hosts.is_empty(), "a run needs at least one host");
    let nprocs = hosts.len();
    let mut network = Network::new(topology.platform.clone(), cfg.sharing);

    // ---- Overlay construction: trackers + peer joins -----------------------
    let tracker_ips: Vec<_> = hosts
        .iter()
        .step_by(CMAX)
        .map(|&h| topology.platform.host(h).ip.expect("hosts have IPs"))
        .collect();
    let mut overlay = Overlay::bootstrap(OverlayConfig::default(), &tracker_ips);
    let mut peer_of_host: HashMap<HostId, PeerId> = HashMap::new();
    let mut host_of_peer: HashMap<PeerId, HostId> = HashMap::new();
    for &h in hosts {
        let ip = topology.platform.host(h).ip.expect("hosts have IPs");
        let speed = topology.platform.host(h).speed_flops;
        let resources = PeerResources {
            cpu_flops: speed,
            ..PeerResources::xeon_em64t()
        };
        let (pid, _) = overlay.peer_join(ip, Some(h), resources);
        peer_of_host.insert(h, pid);
        host_of_peer.insert(pid, h);
    }
    let submitter_host = hosts[0];
    let submitter = peer_of_host[&submitter_host];

    // Representative control-message hop delay on this platform.
    let probe_host = hosts[hosts.len() / 2];
    let hop_delay = network.message_delay(
        submitter_host,
        probe_host,
        DataSize::from_bytes(CONTROL_MSG_BYTES),
    );

    // ---- Peer collection (§III-B) ------------------------------------------
    let task = TaskId::new(1);
    let (collected, collect_cost) = if nprocs > 1 {
        overlay.collect_peers(submitter, nprocs - 1, &cfg.requirements, task)
    } else {
        (Vec::new(), Default::default())
    };
    assert_eq!(
        collected.len(),
        nprocs - 1,
        "the overlay could not supply enough peers matching the requirements"
    );
    let collection_time = hop_delay.saturating_mul(collect_cost.critical_hops as u64);

    // ---- Hierarchical allocation + subtask inputs (§III-C) ------------------
    let candidates: Vec<GroupCandidate> = collected
        .iter()
        .map(|&pid| {
            let p = overlay.peer(pid).expect("collected peers exist");
            GroupCandidate {
                id: pid,
                ip: p.ip,
                resources: p.resources,
            }
        })
        .collect();
    let graph = build_allocation(submitter, &candidates, CMAX);
    let allocation_time = input_distribution_time(
        app,
        &graph,
        submitter_host,
        &host_of_peer,
        &mut network,
        nprocs,
    );
    let alloc_cost = hierarchical_cost(&graph);

    // ---- The distributed iteration loop -------------------------------------
    let context = if nprocs >= 2 {
        NetworkContext::classify(network.platform_mut(), hosts[0], hosts[1])
    } else {
        NetworkContext::IntraCluster
    };
    let channel = AdaptationController::decide(cfg.scheme, context);
    let scripts = iteration_scripts(app, topology, hosts, cfg);
    let replay_cfg = ReplayConfig {
        sharing: cfg.sharing,
        protocol: channel.protocol_costs(),
    };
    let exec = replay(topology.platform.clone(), hosts, &scripts, &replay_cfg)
        .expect("the iteration-loop scripts are well formed");

    // ---- Result collection through the coordinators -------------------------
    let result_time = result_collection_time(
        app,
        &graph,
        submitter_host,
        &host_of_peer,
        &mut network,
        nprocs,
    );

    overlay.release_peers(task);

    RunReport {
        total: collection_time + allocation_time + exec.makespan + result_time,
        collection_time,
        allocation_time,
        execution_time: exec.makespan,
        result_time,
        overlay_messages: collect_cost.messages + alloc_cost.messages,
        app_messages: exec.messages_sent,
        peers: nprocs,
    }
}

/// The per-rank scripts of the iteration loop [`run_reference`] replays
/// for `app` on `hosts`: the sweeps are one [`ReplayOp::Repeat`], not an
/// unrolled copy per sweep.
pub fn iteration_scripts(
    app: &dyn IterativeApp,
    topology: &Topology,
    hosts: &[HostId],
    cfg: &ExecutionConfig,
) -> Vec<ProcessScript> {
    let nprocs = hosts.len();
    let iterations = app.iterations_for(cfg.scheme);
    let reduction_every = app.reduction_interval().max(1);
    let reduces = app.reduction_bytes() > 0 && nprocs > 1;
    let mut scripts = Vec::with_capacity(nprocs);
    for (rank, &host) in hosts.iter().enumerate() {
        let speed = topology.platform.host(host).speed_flops;
        let compute =
            SimDuration::from_secs_f64(app.compute_flops(rank, nprocs) / speed * cfg.opt_factor);
        let neighbors = app.neighbors(rank, nprocs);
        let halo = app.halo_bytes();
        // One sweep, ending in the convergence reduction if `reduce`.
        let sweep = |ops: &mut Vec<ReplayOp>, reduce: bool| {
            ops.push(ReplayOp::Compute { duration: compute });
            // Post every boundary row first: waiting in between would
            // serialise the peer chain every sweep.
            for &n in &neighbors {
                ops.push(ReplayOp::Send {
                    to: n,
                    bytes: halo,
                    tag: TAG_HALO,
                });
            }
            // The synchronous scheme then waits for the neighbours' rows;
            // the asynchronous one fires and forgets.
            if cfg.scheme == IterativeScheme::Synchronous {
                for &n in &neighbors {
                    ops.push(ReplayOp::Recv {
                        from: n,
                        tag: TAG_HALO,
                    });
                }
                if reduce {
                    push_reduction(ops, rank, nprocs, app.reduction_bytes(), TAG_REDUCE);
                }
            }
        };
        // Sweep `i` reduces when `i % reduction_every == 0`: a body of
        // `reduction_every` sweeps, the first one reducing, repeats, and
        // the sweeps left over follow it.
        let mut body = Vec::new();
        for i in 0..reduction_every {
            sweep(&mut body, reduces && i == 0);
        }
        let mut ops = Vec::new();
        let rounds = iterations / reduction_every;
        if rounds > 0 {
            ReplayOp::push_repeat(&mut ops, u64::from(rounds), &body);
        }
        for i in 0..iterations % reduction_every {
            sweep(&mut ops, reduces && i == 0);
        }
        if cfg.scheme == IterativeScheme::Asynchronous && nprocs > 1 {
            // One final synchronisation so that termination is detected.
            push_reduction(
                &mut ops,
                rank,
                nprocs,
                app.reduction_bytes().max(8),
                TAG_FINAL,
            );
        }
        scripts.push(ProcessScript { rank, ops });
    }
    scripts
}

/// Gather-to-rank-0 followed by broadcast (the convergence test / barrier).
fn push_reduction(ops: &mut Vec<ReplayOp>, rank: usize, nprocs: usize, bytes: u64, tag: u32) {
    if rank == 0 {
        for r in 1..nprocs {
            ops.push(ReplayOp::Recv { from: r, tag });
        }
        for r in 1..nprocs {
            ops.push(ReplayOp::Send { to: r, bytes, tag });
        }
    } else {
        ops.push(ReplayOp::Send { to: 0, bytes, tag });
        ops.push(ReplayOp::Recv { from: 0, tag });
    }
}

/// Time to ship subtask inputs: the submitter serialises over the
/// coordinators, the coordinators relay to their members in parallel.
fn input_distribution_time(
    app: &dyn IterativeApp,
    graph: &AllocationGraph,
    submitter_host: HostId,
    host_of_peer: &HashMap<PeerId, HostId>,
    network: &mut Network,
    nprocs: usize,
) -> SimDuration {
    let mut submitter_phase = SimDuration::ZERO;
    let mut slowest_group = SimDuration::ZERO;
    for group in &graph.groups {
        let coord_host = host_of_peer[&group.coordinator];
        let group_bytes: u64 = group
            .members
            .iter()
            .map(|_| app.input_bytes(0, nprocs))
            .sum();
        submitter_phase += network.message_delay(
            submitter_host,
            coord_host,
            DataSize::from_bytes(group_bytes + CONTROL_MSG_BYTES),
        );
        let mut group_phase = SimDuration::ZERO;
        for member in group.workers() {
            let member_host = host_of_peer[&member];
            group_phase += network.message_delay(
                coord_host,
                member_host,
                DataSize::from_bytes(app.input_bytes(0, nprocs) + CONTROL_MSG_BYTES),
            );
        }
        slowest_group = slowest_group.max(group_phase);
    }
    submitter_phase + slowest_group
}

/// Time to return results: members send to their coordinator (coordinators in
/// parallel, serialising within a group), then the coordinators forward the
/// aggregated results to the submitter one after the other.
fn result_collection_time(
    app: &dyn IterativeApp,
    graph: &AllocationGraph,
    submitter_host: HostId,
    host_of_peer: &HashMap<PeerId, HostId>,
    network: &mut Network,
    nprocs: usize,
) -> SimDuration {
    let mut slowest_group = SimDuration::ZERO;
    let mut submitter_phase = SimDuration::ZERO;
    for group in &graph.groups {
        let coord_host = host_of_peer[&group.coordinator];
        let mut group_phase = SimDuration::ZERO;
        let mut group_bytes = app.result_bytes(0, nprocs);
        for member in group.workers() {
            let member_host = host_of_peer[&member];
            group_phase += network.message_delay(
                member_host,
                coord_host,
                DataSize::from_bytes(app.result_bytes(0, nprocs)),
            );
            group_bytes += app.result_bytes(0, nprocs);
        }
        slowest_group = slowest_group.max(group_phase);
        submitter_phase += network.message_delay(
            coord_host,
            submitter_host,
            DataSize::from_bytes(group_bytes),
        );
    }
    slowest_group + submitter_phase
}

/// Convenience: pick hosts of a topology with a placement policy and run.
pub fn run_reference_on(
    app: &dyn IterativeApp,
    topology: &Topology,
    nprocs: usize,
    placement: PlacementPolicy,
    cfg: &ExecutionConfig,
) -> RunReport {
    let hosts = topology.pick_hosts(nprocs, placement);
    run_reference(app, topology, &hosts, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SyntheticApp;
    use netsim::{cluster_bordeplage, daisy_xdsl, HostSpec};

    fn app() -> SyntheticApp {
        SyntheticApp {
            total_flops_per_iter: 4.0e7,
            iters: 60,
            halo: 9600,
            input: 64 * 1024,
            result: 64 * 1024,
        }
    }

    #[test]
    fn report_components_add_up_and_are_positive() {
        let topo = cluster_bordeplage(8, HostSpec::default());
        let report = run_reference(&app(), &topo, &topo.hosts, &ExecutionConfig::default());
        assert_eq!(report.peers, 8);
        assert!(report.execution_time > SimDuration::ZERO);
        assert!(report.collection_time > SimDuration::ZERO);
        assert!(report.allocation_time > SimDuration::ZERO);
        assert!(report.result_time > SimDuration::ZERO);
        assert_eq!(
            report.total,
            report.collection_time
                + report.allocation_time
                + report.execution_time
                + report.result_time
        );
        assert!(report.overlay_messages > 0);
        assert!(report.app_messages > 0);
    }

    #[test]
    fn more_cluster_peers_reduce_the_execution_time() {
        let topo = cluster_bordeplage(16, HostSpec::default());
        let t2 = run_reference(&app(), &topo, &topo.hosts[..2], &ExecutionConfig::default());
        let t8 = run_reference(&app(), &topo, &topo.hosts[..8], &ExecutionConfig::default());
        assert!(
            t8.execution_time < t2.execution_time,
            "8 peers ({}) must beat 2 peers ({})",
            t8.execution_time,
            t2.execution_time
        );
    }

    #[test]
    fn higher_opt_factor_slows_the_run_down() {
        let topo = cluster_bordeplage(4, HostSpec::default());
        let o3 = run_reference(&app(), &topo, &topo.hosts, &ExecutionConfig::default());
        let o0 = run_reference(
            &app(),
            &topo,
            &topo.hosts,
            &ExecutionConfig {
                opt_factor: 3.1,
                ..ExecutionConfig::default()
            },
        );
        let ratio = o0.execution_time.as_secs_f64() / o3.execution_time.as_secs_f64();
        assert!(ratio > 1.5, "O0 must be clearly slower (ratio {ratio})");
    }

    #[test]
    fn xdsl_runs_are_much_slower_than_cluster_runs() {
        let cluster = cluster_bordeplage(4, HostSpec::default());
        let xdsl = daisy_xdsl(64, HostSpec::default(), 5);
        let c = run_reference(
            &app(),
            &cluster,
            &cluster.hosts,
            &ExecutionConfig::default(),
        );
        let x = run_reference_on(
            &app(),
            &xdsl,
            4,
            PlacementPolicy::Spread,
            &ExecutionConfig::default(),
        );
        assert!(
            x.execution_time > c.execution_time * 3u64,
            "xDSL {} vs cluster {}",
            x.execution_time,
            c.execution_time
        );
    }

    #[test]
    fn asynchronous_scheme_avoids_waiting_on_slow_links() {
        let xdsl = daisy_xdsl(64, HostSpec::default(), 5);
        let hosts = xdsl.pick_hosts(4, PlacementPolicy::Spread);
        let sync = run_reference(&app(), &xdsl, &hosts, &ExecutionConfig::default());
        let asyn = run_reference(
            &app(),
            &xdsl,
            &hosts,
            &ExecutionConfig {
                scheme: IterativeScheme::Asynchronous,
                ..ExecutionConfig::default()
            },
        );
        assert!(
            asyn.execution_time < sync.execution_time,
            "async ({}) should win over sync ({}) on xDSL despite extra iterations",
            asyn.execution_time,
            sync.execution_time
        );
    }

    #[test]
    fn single_peer_run_degenerates_gracefully() {
        let topo = cluster_bordeplage(1, HostSpec::default());
        let report = run_reference(&app(), &topo, &topo.hosts, &ExecutionConfig::default());
        assert_eq!(report.peers, 1);
        assert_eq!(report.app_messages, 0);
        assert_eq!(report.collection_time, SimDuration::ZERO);
        assert!(report.execution_time > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "could not supply enough peers")]
    fn impossible_requirements_abort_the_run() {
        let topo = cluster_bordeplage(4, HostSpec::default());
        let cfg = ExecutionConfig {
            requirements: ResourceRequirements {
                min_cpu_flops: 1e15,
                min_memory_mb: 0,
                min_disk_gb: 0,
            },
            ..ExecutionConfig::default()
        };
        run_reference(&app(), &topo, &topo.hosts, &cfg);
    }

    #[test]
    fn sweeps_reduce_every_interval_with_the_remainder_after_the_loop() {
        /// The synthetic app, reducing every third of its ten sweeps.
        struct EveryThird(SyntheticApp);
        impl IterativeApp for EveryThird {
            fn name(&self) -> &str {
                "every-third"
            }
            fn iterations(&self) -> u32 {
                10
            }
            fn compute_flops(&self, rank: usize, nprocs: usize) -> f64 {
                self.0.compute_flops(rank, nprocs)
            }
            fn neighbors(&self, rank: usize, nprocs: usize) -> Vec<usize> {
                self.0.neighbors(rank, nprocs)
            }
            fn halo_bytes(&self) -> u64 {
                self.0.halo_bytes()
            }
            fn reduction_interval(&self) -> u32 {
                3
            }
            fn input_bytes(&self, rank: usize, nprocs: usize) -> u64 {
                self.0.input_bytes(rank, nprocs)
            }
            fn result_bytes(&self, rank: usize, nprocs: usize) -> u64 {
                self.0.result_bytes(rank, nprocs)
            }
        }
        let topo = cluster_bordeplage(4, HostSpec::default());
        let scripts = iteration_scripts(
            &EveryThird(app()),
            &topo,
            &topo.hosts,
            &ExecutionConfig::default(),
        );
        // Three rounds of a three-sweep body, then one sweep.
        let ops = &scripts[1].ops;
        let ReplayOp::Repeat { count: 3, len } = ops[0] else {
            panic!("the sweeps start with a loop: {ops:?}");
        };
        // Which sweeps of the unrolled run end in a reduction.
        let sweeps = |ops: &[ReplayOp]| {
            let mut reduced = Vec::new();
            for op in ops {
                match op {
                    ReplayOp::Compute { .. } => reduced.push(false),
                    ReplayOp::Send {
                        tag: TAG_REDUCE, ..
                    } => *reduced.last_mut().unwrap() = true,
                    _ => {}
                }
            }
            reduced
        };
        let body = sweeps(&ops[1..1 + len]);
        let mut unrolled = [body.clone(), body.clone(), body].concat();
        unrolled.extend(sweeps(&ops[1 + len..]));
        let every_third: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        assert_eq!(unrolled, every_third);
    }
}
