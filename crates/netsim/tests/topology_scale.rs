//! Scale-layer topology properties: the ISP hierarchy generator and host
//! placement.
//!
//! Three families of guarantees:
//!
//! * **Topology contract** — for randomised fan-outs, [`isp_hierarchy`]
//!   honours the contract every [`Topology`] builder promises: `components`
//!   partitions `hosts` into contiguous creation-order ranges, and every
//!   src/dst pair inside one component has a route (the hierarchy is
//!   connected, so that is *every* pair).
//! * **Placement** — [`Topology::pick_hosts`] returns exactly `n` distinct
//!   hosts for every (n, platform-size, policy) combination; the `Spread`
//!   stride wrapping around the host list must never manufacture
//!   duplicates (the historical `Vec::dedup` bug only removed *adjacent*
//!   ones).
//! * **Determinism smoke** — a scaled-down hierarchy workload is bit-
//!   identical warm and cold (fill records invalidated before every event)
//!   and across re-builds. The build seed comes from `ROBUSTNESS_SEED`, so
//!   the CI seed × profile matrix sweeps this whole file into a
//!   determinism proof for the scale layer.

use netsim::{
    isp_hierarchy, FlowDelivery, HostSpec, IspHierarchyParams, NetEvent, Network, PlacementPolicy,
    Scheduler, SharingMode, Topology,
};
use p2p_common::{DataSize, SimTime};
use proptest::prelude::*;

/// Build seed, pinned from the environment by the CI robustness matrix.
fn seed() -> u64 {
    std::env::var("ROBUSTNESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Net(NetEvent),
}
impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Self {
        Ev::Net(e)
    }
}

/// The contract shared by every topology builder: component ranges are
/// contiguous, in order, and cover `hosts` exactly once.
fn assert_components_partition_hosts(topo: &Topology) {
    let mut next = 0usize;
    for range in &topo.components {
        assert_eq!(range.start, next, "component ranges must be contiguous");
        assert!(range.end > range.start, "empty component");
        next = range.end;
    }
    assert_eq!(next, topo.hosts.len(), "components must cover every host");
}

/// A deterministic sample of host pairs inside one component: all pairs for
/// tiny components, strided pairs (coprime multipliers) for larger ones.
fn sample_pairs(len: usize, cap: usize) -> Vec<(usize, usize)> {
    if len < 2 {
        return Vec::new();
    }
    if len * (len - 1) <= cap {
        return (0..len)
            .flat_map(|a| (0..len).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
    }
    (0..cap)
        .map(|i| {
            let a = (i * 7 + 1) % len;
            let b = (i * 13 + len / 2) % len;
            (a, if a == b { (b + 1) % len } else { b })
        })
        .collect()
}

proptest! {
    /// For randomised fan-outs: host/component bookkeeping is consistent and
    /// every sampled intra-component pair has a route.
    #[test]
    fn isp_hierarchy_upholds_the_topology_contract(
        backbones in 1usize..=3,
        metros in 1usize..=3,
        dslams in 1usize..=3,
        hosts_per in 2usize..=5,
        salt in 0u64..1024,
    ) {
        let params = IspHierarchyParams {
            backbones,
            metros_per_backbone: metros,
            dslams_per_metro: dslams,
            hosts_per_dslam: hosts_per,
        };
        let topo = isp_hierarchy(params, HostSpec::default(), seed() ^ salt);
        prop_assert_eq!(topo.hosts.len(), params.host_count());
        assert_components_partition_hosts(&topo);
        // The hierarchy is connected: one component, routed end to end.
        prop_assert_eq!(topo.components.len(), 1);
        let platform = topo.platform.clone();
        for (a, b) in sample_pairs(topo.hosts.len(), 64) {
            let route = platform
                .route_uncached(topo.hosts[a], topo.hosts[b])
                .unwrap_or_else(|| panic!("no route between hosts {a} and {b}"));
            prop_assert!(!route.links.is_empty());
        }
    }

    /// Placement returns exactly `n` distinct hosts for every policy at
    /// every (n, platform-size) combination.
    #[test]
    fn pick_hosts_returns_n_distinct_hosts(
        metros in 1usize..=2,
        dslams in 1usize..=3,
        hosts_per in 2usize..=5,
        percent in 0usize..=100,
    ) {
        let params = IspHierarchyParams {
            backbones: 1,
            metros_per_backbone: metros,
            dslams_per_metro: dslams,
            hosts_per_dslam: hosts_per,
        };
        let topo = isp_hierarchy(params, HostSpec::default(), seed());
        let size = topo.hosts.len();
        let n = size * percent / 100;
        for policy in [PlacementPolicy::Packed, PlacementPolicy::Spread] {
            let picks = topo.pick_hosts(n, policy);
            prop_assert_eq!(picks.len(), n);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), n, "duplicate hosts from {:?}", policy);
        }
    }
}

/// Run a fixed churn workload on a hierarchy, warm or cold (fill records
/// invalidated before every event); returns every delivery (instant +
/// token) plus the final clock.
fn run_hierarchy_workload(topo: &Topology, cold: bool) -> (Vec<(SimTime, u64)>, SimTime) {
    let mut net = Network::new(topo.platform.clone(), SharingMode::MaxMinFair);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let n = topo.hosts.len();
    for i in 0..(4 * n) {
        let src = topo.hosts[(i * 7 + 1) % n];
        let dst = topo.hosts[(i * 13 + n / 2) % n];
        let dst = if dst == src {
            topo.hosts[(i * 13 + n / 2 + 1) % n]
        } else {
            dst
        };
        let size = DataSize::from_bytes(40_000 + (i as u64 * 9_973) % 160_000);
        net.start_flow(&mut sched, src, dst, size, i as u64);
    }
    let mut deliveries = Vec::with_capacity(4 * n);
    let mut end = SimTime::ZERO;
    while let Some((at, Ev::Net(ne))) = sched.pop() {
        if cold {
            net.invalidate_fill_records();
        }
        if let Some(d) = net.on_event(&mut sched, ne) {
            let FlowDelivery { token, .. } = d;
            deliveries.push((at, token));
        }
        end = at;
    }
    assert_eq!(deliveries.len(), 4 * n);
    (deliveries, end)
}

/// The scaled-down determinism smoke for the CI seed × profile matrix: the
/// same hierarchy workload is bit-identical across re-builds from one seed
/// and warm vs cold.
#[test]
fn hierarchy_workload_is_deterministic_warm_cold_and_across_rebuilds() {
    let params = IspHierarchyParams {
        backbones: 2,
        metros_per_backbone: 2,
        dslams_per_metro: 4,
        hosts_per_dslam: 8,
    };
    let topo = isp_hierarchy(params, HostSpec::default(), seed());
    let rebuilt = isp_hierarchy(params, HostSpec::default(), seed());
    assert_eq!(topo.hosts, rebuilt.hosts, "rebuild must be identical");

    let (reference, end) = run_hierarchy_workload(&topo, false);
    assert!(end > SimTime::ZERO);
    let (cold, cold_end) = run_hierarchy_workload(&topo, true);
    assert_eq!(reference, cold, "cold diverged from warm");
    assert_eq!(end, cold_end);
    // And across the rebuild, for good measure.
    let (again, _) = run_hierarchy_workload(&rebuilt, false);
    assert_eq!(reference, again);
}
