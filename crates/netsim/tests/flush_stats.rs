//! Assertions over [`Network::flush_stats`] — the flush telemetry. These
//! tests nail down when each counter ticks:
//!
//! * `flushes` — every rebalance that found a dirty link;
//! * `flushed_flows` — the work metric dirty-component flushes exist to
//!   shrink;
//! * `warm_starts` / `warm_prefix_flows` / `warm_resume_rounds` /
//!   `warm_invalidations` — warm-start resumes and record drops.
//!
//! It also pins the flush scratch in [`Network::memory_footprint`]: counted
//! in the total, and sized by the network, not by how many components one
//! flush spans.

use netsim::event::{run_world, Scheduler, World};
use netsim::network::{FlowDelivery, FlushStats, NetEvent, Network, SharingMode};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use netsim::StreamSession;
use p2p_common::{Bandwidth, DataSize, HostId, SimDuration, SimTime};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Net(NetEvent),
}
impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Self {
        Ev::Net(e)
    }
}

struct NetWorld {
    net: Network,
    deliveries: Vec<(SimTime, FlowDelivery)>,
    /// Invalidate the fill records before every event (every flush cold).
    cold: bool,
}
impl World for NetWorld {
    type Event = Ev;
    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        let Ev::Net(ne) = ev;
        if self.cold {
            self.net.invalidate_fill_records();
        }
        let now = sched.now();
        if let Some(d) = self.net.on_event(sched, ne) {
            self.deliveries.push((now, d));
        }
    }
}

/// A forest of `groups` disjoint stars; per-group latency staggers flushes
/// when `staggered`, identical latencies synchronise them otherwise.
fn forest(groups: usize, hosts_per: usize, staggered: bool) -> Platform {
    let mut b = PlatformBuilder::new();
    for g in 0..groups {
        let sw = b.add_router(format!("sw{g}"));
        let lat = if staggered { 100 * (g as u64 + 1) } else { 100 };
        let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(lat));
        for i in 0..hosts_per {
            let h = b.add_host(
                format!("g{g}h{i}"),
                format!("10.{g}.0.{}", i + 1).parse().unwrap(),
                HostSpec::default(),
            );
            b.add_host_link(format!("g{g}l{i}"), h, sw, spec);
        }
    }
    b.build()
}

/// `per_group` flows inside every group, all funnelling into the group's
/// host 0 (one component per group, globally coupled *within* the group).
fn funnel_flows(
    groups: usize,
    hosts_per: usize,
    per_group: usize,
) -> Vec<(HostId, HostId, DataSize, u64)> {
    let mut flows = Vec::new();
    for g in 0..groups {
        let base = (g * hosts_per) as u32;
        for i in 0..per_group {
            flows.push((
                HostId::new(base + (i % (hosts_per - 1) + 1) as u32),
                HostId::new(base),
                DataSize::from_bytes(40_000 + (i as u64 * 13_007) % 300_000),
                (g * per_group + i) as u64,
            ));
        }
    }
    flows
}

fn run(
    platform: Platform,
    mode: SharingMode,
    cold: bool,
    flows: &[(HostId, HostId, DataSize, u64)],
) -> NetWorld {
    let mut world = NetWorld {
        net: Network::new(platform, mode),
        deliveries: vec![],
        cold,
    };
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &(src, dst, size, token) in flows {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    run_world(&mut world, &mut sched, None);
    assert_eq!(world.deliveries.len(), flows.len());
    world
}

fn by_token(deliveries: &[(SimTime, FlowDelivery)]) -> BTreeMap<u64, u64> {
    deliveries
        .iter()
        .map(|&(t, d)| (d.token, t.duration_since(SimTime::ZERO).as_nanos()))
        .collect()
}

/// Synchronised multi-component traffic (mirrored groups, one funnel
/// component each): every flush spans several dirty components, and each
/// resumes from its own record — none is ever dropped, so the churn stays
/// warm flush after flush and matches a cold run exactly.
#[test]
fn mirrored_traffic_keeps_its_fill_records() {
    let groups = 6;
    let flows = funnel_flows(groups, 8, 40);
    let warm = run(
        forest(groups, 8, false),
        SharingMode::MaxMinFair,
        false,
        &flows,
    );
    let s = warm.net.flush_stats();
    assert!(s.flushes > 0, "rebalances with dirty links must count");
    assert!(s.flushed_flows > 0);
    assert!(
        s.warm_starts >= 2 * (s.flushes - 1),
        "after the first fill every flush warm-starts each of its groups: {s:?}"
    );
    assert_eq!(s.warm_invalidations, 0, "no flush drops a record: {s:?}");
    let cold = run(
        forest(groups, 8, false),
        SharingMode::MaxMinFair,
        true,
        &flows,
    );
    assert_eq!(
        by_token(&warm.deliveries),
        by_token(&cold.deliveries),
        "warm and cold runs must deliver identically"
    );
}

/// Globally coupled traffic — four mirrored funnels, so every flush's
/// dirty components cover all attached flows — still runs the
/// component-wise warm fill: the flushes recompute (and count) the active
/// set, the groups resume from their records, and no record is dropped.
#[test]
fn globally_coupled_traffic_keeps_the_warm_fill() {
    let flows = funnel_flows(4, 8, 30);
    let w = run(forest(4, 8, false), SharingMode::MaxMinFair, false, &flows);
    let s = w.net.flush_stats();
    assert!(s.flushes > 0, "rebalances with dirty links must count");
    assert!(
        s.flushed_flows > 0,
        "flushes recompute (and count) the active set"
    );
    assert!(s.warm_starts > 0, "recorded groups must warm-start: {s:?}");
    assert_eq!(s.warm_invalidations, 0, "no flush drops a record: {s:?}");
}

/// Component-local churn on a staggered forest (each flush's component
/// covers a fraction of the attached flows) recomputes far fewer flows
/// than `flushes × active` would.
#[test]
fn gathered_flushes_stay_component_local() {
    let groups = 6;
    let per_group = 40;
    let flows = funnel_flows(groups, 8, per_group);
    let w = run(
        forest(groups, 8, true),
        SharingMode::MaxMinFair,
        false,
        &flows,
    );
    let s = w.net.flush_stats();
    assert!(s.flushes > 0);
    // Work bound: a from-scratch engine recomputes every active flow per
    // flush; on this workload each flush touches about one group of six.
    assert!(
        s.flushed_flows < s.flushes * (groups * per_group) as u64 / 2,
        "flushes must stay component-local: {s:?}"
    );
}

/// The warm counters tick on single-component churn: each completion's
/// flush resumes from the record.
#[test]
fn warm_counters_tick_on_single_component_churn() {
    let flows = funnel_flows(1, 8, 60);
    let w = run(forest(1, 8, false), SharingMode::MaxMinFair, false, &flows);
    let s = w.net.flush_stats();
    assert!(s.flushes > 0);
    assert!(
        s.warm_starts > 0,
        "churn must resume from the record: {s:?}"
    );
    assert!(
        s.warm_starts < s.flushes,
        "the first recording fill is cold"
    );
    assert_eq!(s.warm_invalidations, 0, "no merge or explicit drop");
    // The funnel sink saturates at round 0 and freezes every flow there, so
    // resumes happen but keep nothing — the boundary tests in
    // `tests/warm.rs` cover non-trivial prefixes.
    assert!(s.warm_resume_rounds <= s.warm_starts * 2);
}

/// Invalidating the records before every event makes every flush cold:
/// the same churn never warm-starts, and every drop is counted.
#[test]
fn cold_runs_never_warm_start() {
    let flows = funnel_flows(1, 8, 60);
    let w = run(forest(1, 8, false), SharingMode::MaxMinFair, true, &flows);
    let s = w.net.flush_stats();
    assert!(s.flushes > 0);
    assert_eq!(s.warm_starts, 0);
    assert_eq!(s.warm_prefix_flows, 0);
    assert_eq!(s.warm_resume_rounds, 0);
    assert!(s.warm_invalidations > 0);
}

/// Bottleneck mode never rebalances, so the telemetry stays untouched.
#[test]
fn flush_stats_stay_zero_in_bottleneck_mode() {
    let flows = funnel_flows(2, 8, 30);
    let w = run(forest(2, 8, false), SharingMode::Bottleneck, false, &flows);
    assert_eq!(w.net.flush_stats(), Default::default());
}

/// The flush scratch shows up in the memory footprint once flushes have
/// run, and the total includes it.
#[test]
fn fill_scratch_is_accounted_in_the_footprint() {
    let flows = funnel_flows(4, 8, 30);
    let w = run(forest(4, 8, true), SharingMode::MaxMinFair, false, &flows);
    let fp = w.net.memory_footprint();
    assert!(
        fp.scratch_bytes > 0,
        "the fill tables must be accounted after flushes: {fp:?}"
    );
    assert_eq!(
        fp.total_bytes(),
        fp.slab_bytes + fp.incidence_bytes + fp.component_bytes + fp.warm_bytes + fp.scratch_bytes
    );
}

/// Background flows in tree 0 of the forest below (identical in both runs).
const BACKGROUND: usize = 32;
/// Flows of the measured arrival wave.
const WAVE: usize = 60;
const TREES: usize = 16;

/// Scratch bytes and flush statistics right after a flush that fills one
/// arrival wave of `WAVE` flows on a 16-tree DSLAM forest: spread over
/// trees 1..16 (fifteen dirty components) or confined to tree 1 (one). A
/// background load parked in tree 0 beforehand is flushed first. Every
/// route crosses both DSLAMs of its tree, so each wave activates at one
/// instant and lands in one flush.
fn wave_scratch_bytes(spread: bool) -> (usize, FlushStats) {
    let topo = netsim::dslam_forest(TREES, 16, HostSpec::default(), 7);
    let pair = |tree: usize, i: usize| {
        let hosts = topo.component_hosts(tree);
        (hosts[i % 8], hosts[8 + (i * 3) % 8])
    };
    let mut s = StreamSession::new(topo.platform.clone(), SharingMode::MaxMinFair);
    let big = DataSize::from_bytes(100_000_000);
    for i in 0..BACKGROUND {
        let (src, dst) = pair(0, i);
        s.inject(SimTime::ZERO, src, dst, big, i as u64).unwrap();
    }
    let wave_at = SimTime::ZERO + SimDuration::from_millis(100);
    for i in 0..WAVE {
        let tree = if spread { 1 + i % (TREES - 1) } else { 1 };
        let (src, dst) = pair(tree, i);
        s.inject(wave_at, src, dst, big, (BACKGROUND + i) as u64)
            .unwrap();
    }
    assert!(s.advance_to(wave_at + SimDuration::from_secs(1)).is_empty());
    let stats = s.network().flush_stats();
    assert_eq!(
        stats.flushes, 2,
        "background and wave must each fill in one flush: {stats:?}"
    );
    (s.network().memory_footprint().scratch_bytes, stats)
}

/// Fill scratch is sized by the network, not by dirty component: a flush
/// over fifteen components runs every fill on the same tables, so its
/// scratch bytes stay within twice those of a one-component flush of the
/// same flows.
#[test]
fn fill_scratch_does_not_grow_with_dirty_components() {
    let (spread, _) = wave_scratch_bytes(true);
    let (confined, _) = wave_scratch_bytes(false);
    assert!(
        spread <= 2 * confined,
        "spreading the wave over {} trees took {spread} scratch bytes, \
         confining it to one took {confined}",
        TREES - 1
    );
}
