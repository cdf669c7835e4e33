//! Max–min flow-engine throughput: the incremental engine (`warm`) vs the
//! seed baseline.
//!
//! Measures complete simulation runs of N concurrent flows (every flow
//! started at t = 0, run until the event queue drains) on two topologies:
//!
//! * a 64-host star ("dumbbell" access pattern: many flows funnel into a few
//!   destinations, so every arrival/departure rebalances a shared link), and
//! * the paper's xDSL Daisy DSLAM topology (deep routes, shared uplinks).
//!
//! * `baseline` — the seed engine (`netsim::baseline`): HashMap flow table,
//!   from-scratch rebalances, global version counter — O(F) reschedules per
//!   flow event. Skipped above 1000 flows (it is quadratic in flow events
//!   and takes minutes there).
//! * `warm` — the incremental engine: batched, serial
//!   dirty-component flushes whose component fills resume from their
//!   persisted bottleneck records instead of replaying from round zero.
//!
//! The heavy-churn scenario (`warm_dslam_churn/10000`) runs 10 000
//! concurrent flows over a 256-host DSLAM platform whose metro ring couples
//! every flow into one giant component. `warm_dslam_skew` is the same
//! component, skewed so the churning cohort resumes above a 9600-flow
//! recorded prefix.
//!
//! The multi-component scenarios (`flow_engine_multi`, 10 000 flows over a
//! 16-tree forest) cover both ends of the component spread.
//! `warm_forest_churn` ([`dslam_forest`]) concentrates churn in one tree
//! while 15 others carry long-lived background traffic: each flush touches
//! one tree's component. `warm_mirror_churn` ([`dslam_forest_mirrored`])
//! puts arrivals and departures in lock-step across all 16 trees, so every
//! batched flush spans 16 dirty components, each resuming from its own
//! record.
//!
//! Recorded reference numbers live in `BENCH_flow_engine.json` at the
//! repository root (regenerate with `CRITERION_SHIM_JSON=... cargo bench
//! --bench perf_flow_engine`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::baseline::{BaselineEvent, BaselineNetwork};
use netsim::{
    daisy_xdsl, dslam_forest, dslam_forest_mirrored, HostSpec, LinkSpec, NetEvent, Network,
    Platform, PlatformBuilder, Scheduler, SharingMode, Topology,
};
use p2p_common::{Bandwidth, DataSize, HostId, SimDuration};

#[derive(Debug, Clone, Copy)]
enum Ev {
    Net(NetEvent),
}
impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Self {
        Ev::Net(e)
    }
}

/// A star of `n` hosts around one switch — the dumbbell access pattern.
fn star(n: usize) -> Platform {
    let mut b = PlatformBuilder::new();
    let sw = b.add_router("sw");
    let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
    for i in 0..n {
        let h = b.add_host(
            format!("h{i}"),
            format!("10.{}.{}.{}", i / 62500, (i / 250) % 250, i % 250 + 1)
                .parse()
                .unwrap(),
            HostSpec::default(),
        );
        b.add_host_link(format!("l{i}"), h, sw, spec);
    }
    b.build()
}

fn dslam(hosts: usize) -> Topology {
    daisy_xdsl(hosts.clamp(8, 1024), HostSpec::default(), 42)
}

/// The workload: `flows` transfers between pseudo-random host pairs, all
/// started at t = 0 (worst case for rebalance churn: every arrival and every
/// completion triggers a rebalance while all other flows are in flight).
fn flow_list(hosts: usize, flows: usize) -> Vec<(HostId, HostId, DataSize)> {
    (0..flows)
        .map(|i| {
            let src = (i * 7 + 1) % hosts;
            let dst = (i * 13 + hosts / 2) % hosts;
            let dst = if dst == src { (dst + 1) % hosts } else { dst };
            (
                HostId::new(src as u32),
                HostId::new(dst as u32),
                DataSize::from_bytes(200_000 + (i as u64 * 37_411) % 800_000),
            )
        })
        .collect()
}

/// Run the workload through the incremental engine; returns delivered
/// count.
fn run_incremental(platform: Platform, flows: &[(HostId, HostId, DataSize)]) -> u64 {
    let mut net = Network::new(platform, SharingMode::MaxMinFair);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for (i, &(src, dst, size)) in flows.iter().enumerate() {
        net.start_flow(&mut sched, src, dst, size, i as u64);
    }
    let mut delivered = 0u64;
    while let Some((_, Ev::Net(ne))) = sched.pop() {
        delivered += u64::from(net.on_event(&mut sched, ne).is_some());
    }
    assert_eq!(delivered, flows.len() as u64);
    delivered
}

/// Run the workload through the incremental engine until `stop` deliveries,
/// leaving the remaining flows in flight — sustained churn against a static
/// background; returns delivered count.
fn run_incremental_until(
    platform: Platform,
    flows: &[(HostId, HostId, DataSize)],
    stop: u64,
) -> u64 {
    let mut net = Network::new(platform, SharingMode::MaxMinFair);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for (i, &(src, dst, size)) in flows.iter().enumerate() {
        net.start_flow(&mut sched, src, dst, size, i as u64);
    }
    let mut delivered = 0u64;
    while delivered < stop {
        let Some((_, Ev::Net(ne))) = sched.pop() else {
            panic!("drained before {stop} deliveries");
        };
        delivered += u64::from(net.on_event(&mut sched, ne).is_some());
    }
    assert_eq!(delivered, stop);
    delivered
}

/// Run the workload through the retained seed engine; returns delivered count.
fn run_baseline(platform: Platform, flows: &[(HostId, HostId, DataSize)]) -> u64 {
    let mut net = BaselineNetwork::new(platform, SharingMode::MaxMinFair);
    let mut sched: Scheduler<BaselineEvent> = Scheduler::new();
    for (i, &(src, dst, size)) in flows.iter().enumerate() {
        net.start_flow(&mut sched, src, dst, size, i as u64);
    }
    let mut delivered = 0u64;
    while let Some((_, ev)) = sched.pop() {
        delivered += net.on_event(&mut sched, ev).len() as u64;
    }
    assert_eq!(delivered, flows.len() as u64);
    delivered
}

fn bench_flow_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_engine");
    group.sample_size(10);
    for &n_flows in &[10usize, 100, 1000] {
        let hosts = 64;
        let flows = flow_list(hosts, n_flows);
        // Dumbbell / star.
        let star_platform = star(hosts);
        group.bench_with_input(
            BenchmarkId::new("warm_star", n_flows),
            &flows,
            |b, flows| b.iter(|| run_incremental(star_platform.clone(), flows)),
        );
        group.bench_with_input(
            BenchmarkId::new("baseline_star", n_flows),
            &flows,
            |b, flows| b.iter(|| run_baseline(star_platform.clone(), flows)),
        );
        // xDSL DSLAM topology (routes through DSLAM + metro + ring links).
        let topo = dslam(hosts);
        let dslam_flows: Vec<_> = flows
            .iter()
            .map(|&(s, d, size)| (topo.hosts[s.index()], topo.hosts[d.index()], size))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("warm_dslam", n_flows),
            &dslam_flows,
            |b, flows| b.iter(|| run_incremental(topo.platform.clone(), flows)),
        );
        group.bench_with_input(
            BenchmarkId::new("baseline_dslam", n_flows),
            &dslam_flows,
            |b, flows| b.iter(|| run_baseline(topo.platform.clone(), flows)),
        );
    }
    group.finish();

    // Heavy churn: 10k concurrent flows over a 256-host DSLAM platform. The
    // seed baseline is omitted — it is O(F) reschedules per flow event and
    // needs minutes per run at this scale. The metro ring couples (nearly)
    // every flow into one giant component.
    let mut churn = c.benchmark_group("flow_engine_churn");
    churn.sample_size(5);
    let hosts = 256;
    let n_flows = 10_000;
    let topo = dslam(hosts);
    let churn_flows: Vec<_> = flow_list(hosts, n_flows)
        .iter()
        .map(|&(s, d, size)| (topo.hosts[s.index()], topo.hosts[d.index()], size))
        .collect();
    churn.bench_with_input(
        BenchmarkId::new("warm_dslam_churn", n_flows),
        &churn_flows,
        |b, flows| b.iter(|| run_incremental(topo.platform.clone(), flows)),
    );
    // The same single coupled component, but skewed — 9600 static heavy
    // flows pin the low saturation levels while 400 small flows churn at
    // the high ones, measured until the churn cohort drains. Every
    // departure's resume level sits above the whole static population, so
    // each flush replays a few hundred flows where a cold fill would replay
    // all 10 000.
    let skew_flows = skewed_workload(&topo);
    churn.bench_with_input(
        BenchmarkId::new("warm_dslam_skew", n_flows),
        &skew_flows,
        |b, flows| b.iter(|| run_incremental_until(topo.platform.clone(), flows, 400)),
    );
    churn.finish();

    // Multi-component heavy churn: 10k flows over a 16-tree DSLAM forest.
    // 9600 long background flows spread over trees 1..15 stay in flight for
    // most of the run; 400 small churning flows concentrate in tree 0, so
    // each flush touches only the component (tree) that changed.
    let mut multi = c.benchmark_group("flow_engine_multi");
    multi.sample_size(5);
    let forest = dslam_forest(16, 64, HostSpec::default(), 42);
    let multi_flows = forest_churn_workload(&forest, 9600, 400);
    assert_eq!(multi_flows.len(), n_flows);
    multi.bench_with_input(
        BenchmarkId::new("warm_forest_churn", multi_flows.len()),
        &multi_flows,
        |b, flows| b.iter(|| run_incremental(forest.platform.clone(), flows)),
    );
    // 10k flows mirrored across a 16-tree replica forest — identical trees,
    // identical per-tree flow pattern, so every arrival and departure
    // happens in all 16 trees at the same instant and every flush spans 16
    // dirty components.
    let mirror = dslam_forest_mirrored(16, 64, HostSpec::default(), 42);
    let mirror_flows = mirrored_workload(&mirror, n_flows);
    assert_eq!(mirror_flows.len(), n_flows);
    multi.bench_with_input(
        BenchmarkId::new("warm_mirror_churn", n_flows),
        &mirror_flows,
        |b, flows| b.iter(|| run_incremental(mirror.platform.clone(), flows)),
    );
    multi.finish();
}

/// The mirrored-churn workload: the same index-derived intra-tree flow
/// pattern replicated into every tree of the replica forest, sizes
/// staggered so completions cascade. Every simulated instant that sees an
/// event in one tree sees the same event in all of them.
fn mirrored_workload(forest: &Topology, total: usize) -> Vec<(HostId, HostId, DataSize)> {
    let trees = forest.components.len();
    let per_tree = total / trees;
    let mut flows = Vec::with_capacity(trees * per_tree);
    for t in 0..trees {
        let tree = forest.component_hosts(t);
        for i in 0..per_tree {
            let src = (i * 7 + 1) % tree.len();
            let dst = (i * 13 + tree.len() / 2) % tree.len();
            let dst = if dst == src {
                (dst + 1) % tree.len()
            } else {
                dst
            };
            flows.push((
                tree[src],
                tree[dst],
                DataSize::from_bytes(200_000 + (i as u64 * 37_411) % 800_000),
            ));
        }
    }
    flows
}

/// The skewed single-component workload: 9600 effectively-permanent heavy
/// flows among the first 128 hosts (their access and DSLAM uplinks saturate
/// at the low fill levels and stay saturated), plus 400 small churning
/// flows among the second 128 hosts, whose lightly-loaded uplinks saturate
/// at the high levels. The metro ring still couples everything into one
/// component. Measured with `run_incremental_until(.., 400)`: the churn
/// cohort drains, the background never does.
fn skewed_workload(topo: &Topology) -> Vec<(HostId, HostId, DataSize)> {
    let pick = |base: usize, span: usize, i: usize, m: (usize, usize)| {
        let src = base + (i * m.0 + 1) % span;
        let dst = base + (i * m.1 + span / 2) % span;
        let dst = if dst == src {
            base + (dst - base + 1) % span
        } else {
            dst
        };
        (topo.hosts[src], topo.hosts[dst])
    };
    let mut flows = Vec::with_capacity(10_000);
    for i in 0..9600 {
        let (s, d) = pick(0, 128, i, (7, 13));
        flows.push((s, d, DataSize::from_bytes(1_000_000_000_000)));
    }
    for i in 0..400 {
        let (s, d) = pick(128, 128, i, (5, 11));
        flows.push((
            s,
            d,
            DataSize::from_bytes(200_000 + (i as u64 * 37_411) % 400_000),
        ));
    }
    flows
}

/// The multi-component workload: `background` large flows spread round-robin
/// over trees 1.., `churn` small flows inside tree 0, all intra-tree (the
/// forest is disconnected). Background flows are ~40× larger, so they are
/// still draining while the churn tree's arrivals and departures force flush
/// after flush.
fn forest_churn_workload(
    forest: &Topology,
    background: usize,
    churn: usize,
) -> Vec<(HostId, HostId, DataSize)> {
    let trees = forest.components.len();
    let mut flows = Vec::with_capacity(background + churn);
    for i in 0..background {
        let tree = forest.component_hosts(1 + i % (trees - 1));
        let src = (i * 7 + 1) % tree.len();
        let dst = (i * 13 + tree.len() / 2) % tree.len();
        let dst = if dst == src {
            (dst + 1) % tree.len()
        } else {
            dst
        };
        flows.push((
            tree[src],
            tree[dst],
            DataSize::from_bytes(8_000_000 + (i as u64 * 97_003) % 8_000_000),
        ));
    }
    let tree = forest.component_hosts(0);
    for i in 0..churn {
        let src = (i * 5 + 1) % tree.len();
        let dst = (i * 11 + tree.len() / 2) % tree.len();
        let dst = if dst == src {
            (dst + 1) % tree.len()
        } else {
            dst
        };
        flows.push((
            tree[src],
            tree[dst],
            DataSize::from_bytes(200_000 + (i as u64 * 37_411) % 400_000),
        ));
    }
    flows
}

criterion_group!(benches, bench_flow_engine);
criterion_main!(benches);
