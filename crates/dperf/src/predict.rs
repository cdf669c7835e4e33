//! The prediction step: trace-based simulation.
//!
//! "The trace files obtained earlier are given at input to Simgrid, but not
//! before configuring the distributed network to be simulated. … With Simgrid
//! we calculate the necessary time for communicating over the network. To this
//! time, Simgrid adds the computation time already present in the trace file.
//! The output is the total predicted time `t_predicted` for the input
//! application." (§III-D.2)
//!
//! [`predict_traces`] is exactly that: it maps ranks to hosts of a platform,
//! derives the P2PSAP per-message costs from the network context and the
//! application scheme, and replays the traces with `netsim`.

use crate::bench_block::ModeledBencher;
use crate::compiler::OptLevel;
use crate::ir::{ParamEnv, Program};
use crate::machine::MachineModel;
use crate::trace::TraceSet;
use crate::tracegen::{generate_traces, RankEnv};
use netsim::{replay, ReplayConfig, SharingMode, Topology};
use p2p_common::{HostId, SimDuration, SimTime};
use p2psap::{AdaptationController, IterativeScheme, NetworkContext};

/// Result of a prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted total execution time (`t_predicted`).
    pub total: SimDuration,
    /// Largest per-rank CPU-busy time (compute blocks + protocol processing).
    pub max_compute: SimDuration,
    /// Largest per-rank time spent blocked on receives.
    pub max_wait: SimDuration,
    /// Messages exchanged.
    pub messages: u64,
    /// Per-rank completion times.
    pub finish_times: Vec<SimTime>,
}

impl Prediction {
    /// Fraction of the critical path spent communicating (0 when the run is
    /// entirely compute-bound).
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total.as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (total - self.max_compute.as_secs_f64()).max(0.0) / total
    }
}

/// Replay `traces` on `topology`, mapping rank `i` to `hosts[i]`.
///
/// The P2PSAP channel configuration (and therefore the per-message protocol
/// cost applied during replay) is chosen by the adaptation controller from
/// `scheme` and the network context of the participating hosts.
pub fn predict_traces(
    traces: &TraceSet,
    topology: &Topology,
    hosts: &[HostId],
    scheme: IterativeScheme,
    sharing: SharingMode,
) -> Prediction {
    assert_eq!(
        hosts.len(),
        traces.nprocs,
        "need one host per traced process"
    );
    let mut platform = topology.platform.clone();
    // Representative context: the first pair of distinct hosts (a computation
    // placed on a single host has no network context to speak of).
    let context = if hosts.len() >= 2 {
        NetworkContext::classify(&mut platform, hosts[0], hosts[1])
    } else {
        NetworkContext::IntraCluster
    };
    let config = AdaptationController::decide(scheme, context);
    let replay_cfg = ReplayConfig {
        sharing,
        protocol: config.protocol_costs(),
    };
    let scripts = traces.to_replay_scripts();
    let result = replay(platform, hosts, &scripts, &replay_cfg);
    Prediction {
        total: result.makespan,
        max_compute: result
            .compute_time
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO),
        max_wait: result
            .wait_time
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO),
        messages: result.messages_sent,
        finish_times: result.finish_times,
    }
}

/// End-to-end convenience wrapper: static analysis inputs in, prediction out.
#[derive(Clone)]
pub struct Predictor<'p> {
    /// The analysed program.
    pub program: &'p Program,
    /// Machine model of the nodes the traces are "measured" on.
    pub machine: MachineModel,
    /// Compiler optimisation level.
    pub opt: OptLevel,
    /// Iterative scheme announced to P2PSAP.
    pub scheme: IterativeScheme,
    /// Bandwidth-sharing model used during the replay.
    pub sharing: SharingMode,
}

impl<'p> Predictor<'p> {
    /// A predictor with the paper's defaults: Bordeplage machine model,
    /// synchronous scheme, bottleneck (SimGrid-analytic) sharing.
    pub fn new(program: &'p Program, opt: OptLevel) -> Self {
        Predictor {
            program,
            machine: MachineModel::xeon_em64t_3ghz(),
            opt,
            scheme: IterativeScheme::Synchronous,
            sharing: SharingMode::Bottleneck,
        }
    }

    /// Generate the trace set for `nprocs` ranks (the block-benchmarking +
    /// instrumented-run stage).
    pub fn traces(&self, env: &ParamEnv, nprocs: usize, rank_env: Option<RankEnv<'_>>) -> TraceSet {
        let bencher = ModeledBencher::new(self.machine.clone(), self.opt);
        generate_traces(
            self.program,
            env,
            nprocs,
            &bencher,
            rank_env,
            self.opt.label(),
        )
    }

    /// Full pipeline: traces + replay on `topology` over the given hosts.
    pub fn predict(
        &self,
        env: &ParamEnv,
        topology: &Topology,
        hosts: &[HostId],
        rank_env: Option<RankEnv<'_>>,
    ) -> Prediction {
        let traces = self.traces(env, hosts.len(), rank_env);
        predict_traces(&traces, topology, hosts, self.scheme, self.sharing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CollectiveKind, ComputeBlock, Expr, Guard, Target};
    use netsim::{cluster_bordeplage, daisy_xdsl, HostSpec, PlacementPolicy};

    fn stencil(iters: f64) -> Program {
        Program::builder("stencil")
            .param("N", 2000.0)
            .param("iters", iters)
            .loop_(Expr::p("iters"), |b| {
                b.compute(ComputeBlock::new(
                    "sweep",
                    Expr::c(5.0).mul(Expr::p("N")).mul(Expr::p("my_rows")),
                ))
                .if_(
                    Guard::HasUpNeighbor,
                    |t| t.sendrecv(Target::RelativeRank(-1), Expr::c(8.0).mul(Expr::p("N")), 7),
                    |e| e,
                )
                .if_(
                    Guard::HasDownNeighbor,
                    |t| t.sendrecv(Target::RelativeRank(1), Expr::c(8.0).mul(Expr::p("N")), 7),
                    |e| e,
                )
                .collective(CollectiveKind::AllReduce, Expr::c(8.0), 9)
            })
            .build()
    }

    fn rows(rank: usize, nprocs: usize, env: &ParamEnv) -> ParamEnv {
        let n = env.get("N").unwrap_or(0.0) as usize;
        let base = n / nprocs;
        let extra = usize::from(rank < n % nprocs);
        ParamEnv::new().with("my_rows", (base + extra) as f64)
    }

    #[test]
    fn prediction_exceeds_pure_compute_time_but_not_absurdly() {
        let p = stencil(50.0);
        let predictor = Predictor::new(&p, OptLevel::O3);
        let topo = cluster_bordeplage(4, HostSpec::default());
        let traces = predictor.traces(&ParamEnv::new(), 4, Some(&rows));
        let pred = predict_traces(
            &traces,
            &topo,
            &topo.hosts,
            IterativeScheme::Synchronous,
            SharingMode::Bottleneck,
        );
        let compute_floor = traces.max_compute_time();
        assert!(pred.total >= compute_floor);
        assert!(pred.total.as_secs_f64() < compute_floor.as_secs_f64() * 3.0 + 1.0);
        assert!(pred.comm_fraction() > 0.0 && pred.comm_fraction() < 1.0);
    }

    #[test]
    fn more_peers_means_less_time_on_a_cluster() {
        let p = stencil(50.0);
        let predictor = Predictor::new(&p, OptLevel::O0);
        let topo = cluster_bordeplage(16, HostSpec::default());
        let t2 = predictor
            .predict(&ParamEnv::new(), &topo, &topo.hosts[..2], Some(&rows))
            .total;
        let t8 = predictor
            .predict(&ParamEnv::new(), &topo, &topo.hosts[..8], Some(&rows))
            .total;
        assert!(
            t8 < t2,
            "scaling must help on a fast network ({t2} -> {t8})"
        );
    }

    #[test]
    fn xdsl_predictions_are_slower_than_cluster_predictions() {
        let p = stencil(30.0);
        let predictor = Predictor::new(&p, OptLevel::O3);
        let cluster = cluster_bordeplage(4, HostSpec::default());
        let xdsl = daisy_xdsl(64, HostSpec::default(), 42);
        let env = ParamEnv::new();
        let t_cluster = predictor
            .predict(&env, &cluster, &cluster.hosts, Some(&rows))
            .total;
        let xdsl_hosts = xdsl.pick_hosts(4, PlacementPolicy::Spread);
        let t_xdsl = predictor
            .predict(&env, &xdsl, &xdsl_hosts, Some(&rows))
            .total;
        assert!(
            t_xdsl > t_cluster * 2u64,
            "xDSL ({t_xdsl}) must be far slower than the cluster ({t_cluster})"
        );
    }

    #[test]
    fn single_host_prediction_equals_compute_time() {
        let p = stencil(10.0);
        let predictor = Predictor::new(&p, OptLevel::O3);
        let topo = cluster_bordeplage(1, HostSpec::default());
        let traces = predictor.traces(&ParamEnv::new(), 1, Some(&rows));
        let pred = predict_traces(
            &traces,
            &topo,
            &topo.hosts,
            IterativeScheme::Synchronous,
            SharingMode::Bottleneck,
        );
        assert_eq!(pred.messages, 0);
        assert_eq!(pred.total, traces.max_compute_time());
        assert_eq!(pred.comm_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one host per traced process")]
    fn mismatched_host_count_is_rejected() {
        let p = stencil(5.0);
        let predictor = Predictor::new(&p, OptLevel::O3);
        let topo = cluster_bordeplage(4, HostSpec::default());
        let traces = predictor.traces(&ParamEnv::new(), 4, Some(&rows));
        predict_traces(
            &traces,
            &topo,
            &topo.hosts[..2],
            IterativeScheme::Synchronous,
            SharingMode::Bottleneck,
        );
    }
}
