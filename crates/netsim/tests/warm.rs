//! Warm-start–specific differential generators and resume-level boundary
//! tests.
//!
//! `tests/props.rs` proves warm ≡ cold and warm vs the seed oracle on
//! generic workloads; this file aims the generators straight at the
//! warm-start machinery's moving parts:
//!
//! * **Cold-fill oracle, per flush** — a lockstep run of a warm network
//!   against a cold one (the same engine with its fill records invalidated
//!   before every event) on the *same* event stream, comparing every active
//!   flow's rate **bit for bit after every event** (not just final
//!   deliveries), while flows arrive mid-run, depart, and the warm side's
//!   `Network::invalidate_fill_records` fires at generator-chosen points.
//!   Any stale warm start — a record surviving a merge, a resume level one
//!   round too high, a capacity restored inexactly — shows up as a rate
//!   mismatch at the exact flush that produced it.
//! * **Resume-level boundaries** — table-driven scenarios on a hand-built
//!   access → shared-middle → access chain where the recorded saturation
//!   sequence is known analytically, asserting the *exact* resume level
//!   and kept-prefix size through [`netsim::network::FlushStats`],
//!   including the adversaries that land exactly **on** a recorded
//!   saturation level from both sides of the link-index tie-break; plus a
//!   proptest over random multi-hop paths asserting the contract of the
//!   issue — a change whose path link saturated at recorded level k must
//!   resume at ≤ k.
//! * **Record invalidation** — merges (key expiry) and explicit
//!   invalidation force cold fills, then re-record, without disturbing a
//!   single rate.
//! * **Wide and deep flushes** — two fixed workloads at the extremes of one
//!   flush: a mirrored forest whose every flush spans sixteen dirty
//!   components, and a funnel star whose one component carries thousands
//!   of flows on a single bottleneck link. Both must deliver bit-identically
//!   warm and cold.
//!
//! Like `props.rs`, failing proptest cases persist to
//! `tests/regressions/warm__<test>.txt` and replay before fresh cases.

use netsim::event::{run_world, Scheduler, World};
use netsim::network::{FlowDelivery, NetEvent, Network, SharingMode};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use p2p_common::{Bandwidth, DataSize, FlowId, HostId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A star of `n` hosts around one switch (100 Mbps access links).
fn star(n: usize) -> Platform {
    let mut b = PlatformBuilder::new();
    let sw = b.add_router("sw");
    let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
    for i in 0..n {
        let h = b.add_host(
            format!("h{i}"),
            format!("10.0.{}.{}", i / 250, i % 250 + 1).parse().unwrap(),
            HostSpec::default(),
        );
        b.add_host_link(format!("l{i}"), h, sw, spec);
    }
    b.build()
}

/// A forest of `groups` disjoint stars (same shape as the props-suite
/// forest: per-group latencies stagger the churn across components).
fn star_forest(groups: usize, hosts_per: usize) -> Platform {
    let mut b = PlatformBuilder::new();
    for g in 0..groups {
        let sw = b.add_router(format!("sw{g}"));
        let spec = LinkSpec::new(
            Bandwidth::from_mbps(100.0),
            SimDuration::from_micros(100 * (g as u64 + 1)),
        );
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

/// A line of routers with one host hanging off each, inter-router
/// capacities given per hop: host i → host j crosses `|i − j| + 2` links,
/// so arrivals and departures dirty genuinely multi-link paths.
fn router_chain(caps_mbps: &[u32]) -> Platform {
    let m = caps_mbps.len() + 1;
    let mut b = PlatformBuilder::new();
    let routers: Vec<_> = (0..m).map(|i| b.add_router(format!("r{i}"))).collect();
    for (i, &mbps) in caps_mbps.iter().enumerate() {
        b.add_link(
            format!("c{i}"),
            routers[i],
            routers[i + 1],
            LinkSpec::new(
                Bandwidth::from_mbps(5.0 + (mbps % 200) as f64),
                SimDuration::from_micros(50),
            ),
        );
    }
    for (i, &r) in routers.iter().enumerate() {
        let h = b.add_host(
            format!("h{i}"),
            format!("10.0.{}.{}", i / 250, i % 250 + 1).parse().unwrap(),
            HostSpec::default(),
        );
        b.add_host_link(
            format!("l{i}"),
            h,
            r,
            LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100)),
        );
    }
    b.build()
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

struct NewWorld {
    net: Network,
    deliveries: Vec<(SimTime, FlowDelivery)>,
    /// Invalidate the fill records before every event, so every flush
    /// fills cold — the reference side of the warm ≡ cold check.
    cold: bool,
}
impl World for NewWorld {
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

/// A world over `platform`, warm or cold.
fn world_for(platform: Platform, cold: bool) -> NewWorld {
    NewWorld {
        net: Network::new(platform, SharingMode::MaxMinFair),
        deliveries: vec![],
        cold,
    }
}

/// A forest of `groups` disjoint stars with **identical** access latency in
/// every group, so mirrored flows activate and complete at the same
/// instants across groups and every flush spans every group still busy.
fn mirrored_forest(groups: usize, hosts_per: usize) -> Platform {
    let mut b = PlatformBuilder::new();
    let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
    for g in 0..groups {
        let sw = b.add_router(format!("sw{g}"));
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

/// The same churn pattern replicated in every group of a mirrored forest
/// (intra-group flows only; the forest is disconnected).
fn mirrored_workload(
    groups: usize,
    hosts_per: usize,
    per_group: usize,
) -> Vec<(HostId, HostId, DataSize, u64)> {
    let mut flows = Vec::with_capacity(groups * per_group);
    for g in 0..groups {
        let base = (g * hosts_per) as u32;
        for i in 0..per_group {
            let src = (i * 5 + 1) % hosts_per;
            let dst = (i * 11 + hosts_per / 2) % hosts_per;
            let dst = if dst == src {
                (dst + 1) % hosts_per
            } else {
                dst
            };
            flows.push((
                HostId::new(base + src as u32),
                HostId::new(base + dst as u32),
                DataSize::from_bytes(50_000 + (i as u64 * 17_977) % 450_000),
                (g * per_group + i) as u64,
            ));
        }
    }
    flows
}

/// `flows` transfers from the other hosts of a star into `h0`: `h0`'s
/// ingress couples them all into one component whose bottleneck link
/// carries every flow.
fn funnel_workload(hosts: usize, flows: usize) -> Vec<(HostId, HostId, DataSize, u64)> {
    (0..flows)
        .map(|i| {
            (
                HostId::new((i % (hosts - 1) + 1) as u32),
                HostId::new(0),
                DataSize::from_bytes(50_000 + (i as u64 * 17_977) % 450_000),
                i as u64,
            )
        })
        .collect()
}

/// Run `flows` on `platform` to completion, warm or cold.
fn run_to_end(
    platform: Platform,
    flows: &[(HostId, HostId, DataSize, u64)],
    cold: bool,
) -> NewWorld {
    let mut world = world_for(platform, cold);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &(src, dst, size, token) in flows {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    run_world(&mut world, &mut sched, None);
    assert_eq!(world.deliveries.len(), flows.len());
    world
}

/// Map raw quadruples onto intra-group flows of a star forest.
fn forest_workload(
    groups: usize,
    hosts_per: usize,
    raw: &[(u32, u32, u32, u64)],
) -> Vec<(HostId, HostId, DataSize, u64)> {
    raw.iter()
        .enumerate()
        .map(|(i, &(g, a, b, size))| {
            let base = (g % groups as u32) * hosts_per as u32;
            (
                HostId::new(base + a % hosts_per as u32),
                HostId::new(base + b % hosts_per as u32),
                DataSize::from_bytes(1 + size % 5_000_000),
                i as u64,
            )
        })
        .collect()
}

/// Every active flow's rate, bit-cast — the oracle comparison's unit.
fn rates(net: &Network) -> BTreeMap<FlowId, u64> {
    net.active_flows()
        .iter()
        .map(|(id, _, rate)| (*id, rate.to_bits()))
        .collect()
}

fn by_token(deliveries: &[(SimTime, FlowDelivery)]) -> BTreeMap<u64, u64> {
    deliveries
        .iter()
        .map(|&(t, d)| (d.token, t.duration_since(SimTime::ZERO).as_nanos()))
        .collect()
}

/// Pop events until the network has performed at least `target` flushes.
/// Panics if the scheduler drains first — scenarios must make that
/// impossible (pending completions keep it populated).
fn settle(world: &mut NewWorld, sched: &mut Scheduler<Ev>, target: u64) {
    while world.net.flush_stats().flushes < target {
        let Some((_, ev)) = sched.pop() else {
            panic!("scheduler drained before flush {target}");
        };
        world.handle(sched, ev);
    }
}

/// Pop every event scheduled before `horizon` — used to drain activation
/// bursts (and near-instant loopback completions) while leaving far-future
/// completions of long-lived flows untouched.
fn drain_until(world: &mut NewWorld, sched: &mut Scheduler<Ev>, horizon: SimTime) {
    while sched.peek_time().is_some_and(|t| t < horizon) {
        let (_, ev) = sched.pop().expect("peeked");
        world.handle(sched, ev);
    }
}

proptest! {
    /// The per-flush cold-fill oracle: warm and cold runs of one event
    /// stream stay rate-identical after **every** event, under
    /// any interleaving of initial flows, mid-run arrivals, departures
    /// (completions) and explicit record invalidation. The final delivery
    /// schedule must match bit for bit too.
    #[test]
    fn warm_rates_match_cold_oracle_after_every_event(
        raw in prop::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()),
            4..60,
        ),
        groups in 1usize..4,
        hosts_per in 2usize..6,
        inject_gap in 1usize..6,
        invalidate_every in 0usize..4,
    ) {
        let flows = forest_workload(groups, hosts_per, &raw);
        let split = flows.len().div_ceil(2);
        let mut warm = world_for(star_forest(groups, hosts_per), false);
        let mut cold = world_for(star_forest(groups, hosts_per), true);
        let mut ws: Scheduler<Ev> = Scheduler::new();
        let mut cs: Scheduler<Ev> = Scheduler::new();
        for &(src, dst, size, token) in &flows[..split] {
            warm.net.start_flow(&mut ws, src, dst, size, token);
            cold.net.start_flow(&mut cs, src, dst, size, token);
        }
        let mut pending = flows[split..].iter();
        let mut steps = 0usize;
        loop {
            match (ws.pop(), cs.pop()) {
                (None, None) => {
                    // Both drained: inject the next straggler (so every
                    // flow runs even when the gap outlasts the events), or
                    // finish.
                    match pending.next() {
                        Some(&(src, dst, size, token)) => {
                            warm.net.start_flow(&mut ws, src, dst, size, token);
                            cold.net.start_flow(&mut cs, src, dst, size, token);
                        }
                        None => break,
                    }
                }
                (Some((tw, ew)), Some((tc, ec))) => {
                    prop_assert_eq!(tw, tc, "event streams diverged in time");
                    warm.handle(&mut ws, ew);
                    cold.handle(&mut cs, ec);
                    steps += 1;
                    prop_assert!(steps < 200_000, "runaway event loop");
                    // The oracle: after every event, every active flow's
                    // rate is bit-identical to the cold run's.
                    prop_assert_eq!(
                        rates(&warm.net),
                        rates(&cold.net),
                        "rates diverged after step {}",
                        steps
                    );
                    if steps.is_multiple_of(inject_gap) {
                        if let Some(&(src, dst, size, token)) = pending.next() {
                            warm.net.start_flow(&mut ws, src, dst, size, token);
                            cold.net.start_flow(&mut cs, src, dst, size, token);
                        }
                    }
                    if invalidate_every > 0 && steps.is_multiple_of(5 * invalidate_every) {
                        // Only the warm side: invalidation must be a pure
                        // perf event, never an observable one.
                        warm.net.invalidate_fill_records();
                    }
                }
                _ => prop_assert!(false, "event streams diverged in length"),
            }
        }
        prop_assert_eq!(warm.net.flows_in_flight(), 0, "every warm flow must finish");
        prop_assert_eq!(by_token(&warm.deliveries), by_token(&cold.deliveries));
    }

    /// The issue's resume-level contract on random multi-hop paths: when a
    /// warm flush is caused by an arrival whose path links include one that
    /// saturated at recorded round k, the flush resumes at ≤ k (measured
    /// through the `warm_resume_rounds` counter). Merges and recordless
    /// components make the flush cold — trivially within the bound — so the
    /// assertion triggers exactly on the warm flushes.
    #[test]
    fn arrival_resumes_at_or_below_its_path_links_recorded_rounds(
        caps in prop::collection::vec(any::<u32>(), 2..6),
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 2..12),
        arrival in (any::<u32>(), any::<u32>()),
    ) {
        let n_hosts = caps.len() + 1;
        let mut world = world_for(router_chain(&caps), false);
        let mut sched: Scheduler<Ev> = Scheduler::new();
        let huge = DataSize::from_bytes(5_000_000_000_000_000); // outlives the test
        for (i, &(a, b)) in raw.iter().enumerate() {
            let src = HostId::new(a % n_hosts as u32);
            let dst = HostId::new(b % n_hosts as u32);
            world.net.start_flow(&mut sched, src, dst, huge, i as u64);
        }
        // Drain the activation burst (plus any near-instant loopback
        // completions); the huge flows' own completions sit years of
        // simulated time away, far past the horizon.
        let horizon = sched.now() + SimDuration::from_micros(3_600_000_000);
        drain_until(&mut world, &mut sched, horizon);
        // Pre-change snapshot: stats, and each link's recorded sequence.
        let links = world.net.platform().links().len();
        let rounds_before: Vec<Option<Vec<(usize, f64)>>> =
            (0..links).map(|l| world.net.fill_record_rounds(l)).collect();
        let stats0 = world.net.flush_stats();
        // The change: one arrival on a random (non-loopback) path.
        let (a, b) = arrival;
        let src = a % n_hosts as u32;
        let dst = (src + 1 + b % (n_hosts as u32 - 1)) % n_hosts as u32;
        let id = world.net.start_flow(
            &mut sched,
            HostId::new(src),
            HostId::new(dst),
            huge,
            u64::MAX,
        );
        settle(&mut world, &mut sched, stats0.flushes + 1);
        let stats1 = world.net.flush_stats();
        if stats1.warm_starts == stats0.warm_starts + 1 {
            // The flush warm-started, so the arrival did not merge
            // components: its whole route lies in one component whose
            // record we snapshotted.
            let route = world
                .net
                .active_flows()
                .into_iter()
                .find(|(fid, _, _)| *fid == id)
                .expect("the arrival is active")
                .1;
            let recorded = rounds_before[route.links[0]]
                .as_ref()
                .expect("a warm start implies a recorded component");
            let k_min = route
                .links
                .iter()
                .filter_map(|&l| recorded.iter().position(|&(rl, _)| rl == l))
                .min();
            if let Some(k_min) = k_min {
                let resumed = stats1.warm_resume_rounds - stats0.warm_resume_rounds;
                prop_assert!(
                    resumed as usize <= k_min,
                    "resumed at {} but a path link saturated at recorded round {}",
                    resumed,
                    k_min
                );
            }
            // Recorded shares stay non-decreasing — the monotonicity the
            // resume-level binary search relies on.
            let after = world
                .net
                .fill_record_rounds(route.links[0])
                .expect("a warm flush re-records");
            for w in after.windows(2) {
                prop_assert!(w[0].1 <= w[1].1, "recorded shares must be monotone");
            }
        }
    }
}

/// The hand-built boundary scenarios share this platform: five sources
/// with chosen access capacities on one router, 1 Gbps sinks on the other,
/// a 10 Gbps link between the routers — every flow `s_i → d_i` crosses
/// exactly three links, and each carries one long-lived flow from the
/// start, so every later arrival rides links already inside the one
/// recorded component (a fresh link would merge a singleton in, expire the
/// key and force a cold fill — covered by the merge test instead). Sources
/// and their uplinks are created first, in index order, so link-index
/// tie-breaks between access links follow source order.
///
/// With access capacities 10/40/20/40/80 Mbps the cold fill records
///
/// ```text
/// round 0: s0's uplink @ 10 Mbps   (freezes f0)
/// round 1: s2's uplink @ 20 Mbps   (freezes f2)
/// round 2: s1's uplink @ 40 Mbps   (freezes f1; ties s3, lower index)
/// round 3: s3's uplink @ 40 Mbps   (freezes f3)
/// round 4: s4's uplink @ 80 Mbps   (freezes f4)
/// ```
///
/// (the middle link and the sinks never saturate). A second flow on
/// source i halves that access link's fresh fair share to cap/2, landing
/// at an analytically chosen spot in the recorded sequence — including
/// exactly *on* a recorded level from either side of the link-index
/// tie-break.
struct ChainRig {
    world: NewWorld,
    sched: Scheduler<Ev>,
}

const SRC_CAPS: [f64; 5] = [10.0, 40.0, 20.0, 40.0, 80.0];
const HUGE: u64 = 5_000_000_000_000_000;

fn chain_rig(cold: bool, sizes: [u64; 5]) -> ChainRig {
    let mut b = PlatformBuilder::new();
    let r0 = b.add_router("r0");
    let r1 = b.add_router("r1");
    for (i, &mbps) in SRC_CAPS.iter().enumerate() {
        let h = b.add_host(
            format!("s{i}"),
            format!("10.0.0.{}", i + 1).parse().unwrap(),
            HostSpec::default(),
        );
        b.add_host_link(
            format!("s{i}l"),
            h,
            r0,
            LinkSpec::new(Bandwidth::from_mbps(mbps), SimDuration::from_micros(100)),
        );
    }
    b.add_link(
        "mid",
        r0,
        r1,
        LinkSpec::new(
            Bandwidth::from_mbps(10_000.0),
            SimDuration::from_micros(100),
        ),
    );
    for i in 0..SRC_CAPS.len() {
        let h = b.add_host(
            format!("d{i}"),
            format!("10.0.1.{}", i + 1).parse().unwrap(),
            HostSpec::default(),
        );
        b.add_host_link(
            format!("d{i}l"),
            h,
            r1,
            LinkSpec::new(Bandwidth::from_mbps(1000.0), SimDuration::from_micros(100)),
        );
    }
    let mut world = world_for(b.build(), cold);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let n = SRC_CAPS.len() as u32;
    for (i, &size) in sizes.iter().enumerate() {
        world.net.start_flow(
            &mut sched,
            HostId::new(i as u32),
            HostId::new(n + i as u32),
            DataSize::from_bytes(size),
            i as u64,
        );
    }
    // All five routes have identical latency, so the activations coalesce
    // into one cold recording flush of the single shared component.
    settle(&mut world, &mut sched, 1);
    assert_eq!(
        world.net.flush_stats().warm_starts,
        0,
        "the first fill is cold"
    );
    ChainRig { world, sched }
}

/// Run one boundary scenario: `change` perturbs the rig, then the next
/// flush must warm-start at exactly `expect_k` with exactly
/// `expect_prefix` flows kept un-walked.
fn assert_resume(
    rig: &mut ChainRig,
    expect_k: u64,
    expect_prefix: u64,
    change: impl FnOnce(&mut ChainRig),
) {
    let s0 = rig.world.net.flush_stats();
    change(rig);
    settle(&mut rig.world, &mut rig.sched, s0.flushes + 1);
    let s1 = rig.world.net.flush_stats();
    assert_eq!(
        s1.warm_starts,
        s0.warm_starts + 1,
        "the flush must warm-start"
    );
    assert_eq!(
        s1.warm_resume_rounds - s0.warm_resume_rounds,
        expect_k,
        "resume level"
    );
    assert_eq!(
        s1.warm_prefix_flows - s0.warm_prefix_flows,
        expect_prefix,
        "kept-prefix flows"
    );
}

/// A second huge flow on source `src`, riding the same three links as the
/// rig's initial flow there.
fn arrive(rig: &mut ChainRig, src: u32) {
    let n = SRC_CAPS.len() as u32;
    rig.world.net.start_flow(
        &mut rig.sched,
        HostId::new(src),
        HostId::new(n + src),
        DataSize::from_bytes(HUGE),
        100 + src as u64,
    );
}

/// Arrival on the top-level bottleneck (s4, saturated at round 4): its
/// halved fresh share 80/2 = 40 ties rounds 2 and 3 but loses both
/// link-index tie-breaks (s4's uplink is above s1's and s3's), so the
/// whole recorded sequence below its own pop round survives.
#[test]
fn arrival_on_the_top_bottleneck_resumes_at_its_round() {
    let mut rig = chain_rig(false, [HUGE; 5]);
    assert_resume(&mut rig, 4, 4, |r| arrive(r, 4));
}

/// Arrival on the bottom bottleneck (s0, saturated at round 0): the fresh
/// share 10/2 = 5 undercuts everything — nothing can be kept.
#[test]
fn arrival_on_the_bottom_bottleneck_replays_everything() {
    let mut rig = chain_rig(false, [HUGE; 5]);
    assert_resume(&mut rig, 0, 0, |r| arrive(r, 0));
}

/// Tie adversary, low side: a second flow on s1 halves its share to
/// 40/2 = 20, landing exactly on round 1's recorded level — and s1's
/// uplink index is *below* round 1's link (s2's uplink), so it wins the
/// tie-break and preempts that round: resume at 1, keeping only f0.
#[test]
fn tie_on_a_recorded_level_from_a_lower_link_preempts_it() {
    let mut rig = chain_rig(false, [HUGE; 5]);
    assert_resume(&mut rig, 1, 1, |r| arrive(r, 1));
}

/// Tie adversary, high side: the same 20 Mbps fresh share from s3 — uplink
/// index *above* s2's — loses the tie-break, so round 1 survives and the
/// fill resumes at round 2 (s3's own pop round, 3, is not the binding
/// bound).
#[test]
fn tie_on_a_recorded_level_from_a_higher_link_keeps_that_round() {
    let mut rig = chain_rig(false, [HUGE; 5]);
    assert_resume(&mut rig, 2, 2, |r| arrive(r, 3));
}

/// Pop-round bound: a second flow on s2 ties round 0's 10 Mbps level and
/// loses to s0's uplink, so round 0 survives — and s2's own recorded pop
/// round (1) then binds: resume at 1.
#[test]
fn tie_on_a_recorded_level_from_a_higher_link_binds_by_pop_round() {
    let mut rig = chain_rig(false, [HUGE; 5]);
    assert_resume(&mut rig, 1, 1, |r| arrive(r, 2));
}

/// Departure of the round-0 flow: its freeze round bounds the resume level
/// at 0 — full replay.
#[test]
fn departure_of_the_bottom_flow_replays_everything() {
    // f0 completes after ~0.8 s at its 10 Mbps allocation; the others
    // outlive the test.
    let mut rig = chain_rig(false, [1_000_000, HUGE, HUGE, HUGE, HUGE]);
    assert_resume(&mut rig, 0, 0, |_| {});
}

/// Departure of the round-4 flow keeps all four lower rounds frozen.
#[test]
fn departure_of_the_top_flow_keeps_the_lower_rounds() {
    let mut rig = chain_rig(false, [HUGE, HUGE, HUGE, HUGE, 1_000_000]);
    assert_resume(&mut rig, 4, 4, |_| {});
}

/// After a warm resume the record must describe the *new* flow set: the
/// top-bottleneck arrival rewrites round 4 from 80 Mbps to the shared
/// 40 Mbps while rounds 0–3 survive verbatim.
#[test]
fn a_warm_flush_rewrites_the_record_suffix() {
    let mut rig = chain_rig(false, [HUGE; 5]);
    let probe = rig
        .world
        .net
        .active_flows()
        .first()
        .expect("flows are active")
        .1
        .links[0];
    let before = rig.world.net.fill_record_rounds(probe).expect("recorded");
    let shares = |r: &[(usize, f64)]| r.iter().map(|&(_, s)| s).collect::<Vec<_>>();
    assert_eq!(
        shares(&before),
        vec![1.25e6, 2.5e6, 5e6, 5e6, 1e7],
        "10/20/40/40/80 Mbps in bytes per second"
    );
    assert_resume(&mut rig, 4, 4, |r| arrive(r, 4));
    let after = rig
        .world
        .net
        .fill_record_rounds(probe)
        .expect("re-recorded");
    assert_eq!(shares(&after), vec![1.25e6, 2.5e6, 5e6, 5e6, 5e6]);
    assert_eq!(&after[..4], &before[..4], "rounds 0–3 survive verbatim");
}

/// A merge expires the records of both components (their union–find keys
/// die), so the flush after a bridging arrival is cold — and re-records
/// the merged component for the next change. The two components are built
/// in *separate* flushes: a first flush spanning both would take the dense
/// fast path and never record at all.
#[test]
fn merges_expire_both_records_and_the_flush_goes_cold() {
    let mut world = world_for(star(6), false);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let huge = DataSize::from_bytes(HUGE);
    // Two disjoint components: h0→h1 and h2→h3 (directed links, so the
    // components share nothing).
    let f1 = world
        .net
        .start_flow(&mut sched, HostId::new(0), HostId::new(1), huge, 0);
    settle(&mut world, &mut sched, 1);
    world
        .net
        .start_flow(&mut sched, HostId::new(2), HostId::new(3), huge, 1);
    settle(&mut world, &mut sched, 2);
    let route1 = world
        .net
        .active_flows()
        .into_iter()
        .find(|&(id, _, _)| id == f1)
        .expect("f1 active")
        .1;
    assert!(world.net.fill_record_rounds(route1.links[0]).is_some());
    let s0 = world.net.flush_stats();
    // h0→h3 bridges the two components (h0's uplink + h3's downlink): the
    // union at attach bumps both keys, so the single merged dirty root
    // finds its record expired and runs a cold recorded fill.
    world
        .net
        .start_flow(&mut sched, HostId::new(0), HostId::new(3), huge, 2);
    settle(&mut world, &mut sched, s0.flushes + 1);
    let s1 = world.net.flush_stats();
    assert_eq!(
        s1.warm_starts, s0.warm_starts,
        "a merged flush must run cold"
    );
    assert!(
        world.net.fill_record_rounds(route1.links[0]).is_some(),
        "the cold fill re-records the merged component"
    );
    // The next change rides existing links only (h2's uplink, h1's
    // downlink) and warm-starts off the re-recorded merged component.
    let s1 = world.net.flush_stats();
    world
        .net
        .start_flow(&mut sched, HostId::new(2), HostId::new(1), huge, 3);
    settle(&mut world, &mut sched, s1.flushes + 1);
    assert_eq!(world.net.flush_stats().warm_starts, s1.warm_starts + 1);
}

/// `invalidate_fill_records` drops records (counted) and forces the next
/// flush cold; the one after that warm-starts again. All arrivals repeat
/// the h0→h1 pair so no flush ever merges a fresh link in.
#[test]
fn explicit_invalidation_forces_one_cold_flush() {
    let mut world = world_for(star(4), false);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let huge = DataSize::from_bytes(HUGE);
    world
        .net
        .start_flow(&mut sched, HostId::new(0), HostId::new(1), huge, 0);
    settle(&mut world, &mut sched, 1);
    let s0 = world.net.flush_stats();
    world.net.invalidate_fill_records();
    assert_eq!(
        world.net.flush_stats().warm_invalidations,
        s0.warm_invalidations + 1
    );
    world
        .net
        .start_flow(&mut sched, HostId::new(0), HostId::new(1), huge, 1);
    settle(&mut world, &mut sched, s0.flushes + 1);
    let s1 = world.net.flush_stats();
    assert_eq!(
        s1.warm_starts, s0.warm_starts,
        "post-invalidation flush is cold"
    );
    world
        .net
        .start_flow(&mut sched, HostId::new(0), HostId::new(1), huge, 2);
    settle(&mut world, &mut sched, s1.flushes + 1);
    assert_eq!(world.net.flush_stats().warm_starts, s1.warm_starts + 1);
}

/// The canonical workload — sustained churn inside one component — must
/// actually take the warm path (records reused flush after flush, prefixes
/// genuinely kept), not silently fall back to cold fills. End-state
/// equality with a cold run is asserted on top. Sizes are staggered
/// so the five flows complete one at a time, each departure driving one
/// warm flush; the round-4 flow finishes first, so its flush keeps a
/// four-flow prefix.
#[test]
fn single_component_churn_stays_on_the_warm_path() {
    let sizes = [4_000_000, 30_000_000, 10_000_000, 40_000_000, 10_000_000];
    let run = |cold| {
        let mut rig = chain_rig(cold, sizes);
        run_world(&mut rig.world, &mut rig.sched, None);
        rig.world
    };
    let warm = run(false);
    let cold = run(true);
    assert_eq!(by_token(&warm.deliveries), by_token(&cold.deliveries));
    assert_eq!(warm.net.flows_in_flight(), 0);
    let stats = warm.net.flush_stats();
    assert!(
        stats.warm_starts >= 4,
        "each departure warm-starts: {stats:?}"
    );
    assert!(
        stats.warm_prefix_flows >= 4,
        "prefixes must be kept: {stats:?}"
    );
}

/// Sixteen mirrored groups: every flush spans every group still busy, and
/// each group's fill resumes from its own record — so the flushes stay
/// warm, and deliver bit-identically to a run with every flush cold.
#[test]
fn mirrored_forest_flushes_warm_start_every_component() {
    const GROUPS: usize = 16;
    let flows = mirrored_workload(GROUPS, 8, 40);
    let warm = run_to_end(mirrored_forest(GROUPS, 8), &flows, false);
    let cold = run_to_end(mirrored_forest(GROUPS, 8), &flows, true);
    assert_eq!(by_token(&warm.deliveries), by_token(&cold.deliveries));
    assert_eq!(warm.net.stats(), cold.net.stats());
    let stats = warm.net.flush_stats();
    assert!(
        stats.warm_starts >= GROUPS as u64 * (stats.flushes - 1),
        "every flush after the first warm-starts all sixteen groups: {stats:?}"
    );
    assert_eq!(stats.warm_invalidations, 0, "no flush drops a record");
    assert_eq!(cold.net.flush_stats().warm_starts, 0);
}

/// One funnel component with 2048 flows on its bottleneck link: warm and
/// cold deliver bit-identically.
#[test]
fn funnel_star_warm_matches_cold() {
    let flows = funnel_workload(48, 2048);
    let warm = run_to_end(star(48), &flows, false);
    let cold = run_to_end(star(48), &flows, true);
    assert_eq!(by_token(&warm.deliveries), by_token(&cold.deliveries));
    assert_eq!(warm.net.stats(), cold.net.stats());
    assert!(warm.net.flush_stats().warm_starts > 0);
}

/// A small star whose eighty flows all funnel into `h0`: every flush
/// spans that one component, so it resumes at most one record, and the
/// warm run delivers bit-identically to a cold one.
#[test]
fn single_component_star_warm_matches_cold() {
    let flows = funnel_workload(8, 80);
    let warm = run_to_end(star(8), &flows, false);
    let cold = run_to_end(star(8), &flows, true);
    assert_eq!(by_token(&warm.deliveries), by_token(&cold.deliveries));
    let stats = warm.net.flush_stats();
    assert!(stats.warm_starts > 0, "churn must warm-start: {stats:?}");
    assert!(
        stats.warm_starts <= stats.flushes,
        "one component resumes at most once per flush: {stats:?}"
    );
}
