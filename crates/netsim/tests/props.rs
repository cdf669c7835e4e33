//! Property-based tests of the incremental max–min flow engine.
//!
//! Three families of properties:
//!
//! * **Max–min invariants** — after every event of a randomised workload,
//!   the per-link sum of active flow rates stays within capacity (up to
//!   floating-point slack), and every active non-loopback flow with a
//!   non-empty route holds a non-negative rate.
//! * **Warm vs the seed oracle** — the engine and the retained seed engine
//!   ([`netsim::baseline::BaselineNetwork`]) produce identical simulated
//!   results on randomised flow workloads: completion counts and byte/link
//!   statistics are bit-identical, and per-token delivery timestamps agree
//!   to within two nanosecond clock ticks. (The slack exists because the
//!   engines associate the floating-point drain arithmetic differently: the
//!   seed progresses every flow at every event, the incremental engine only
//!   when a flow's rate changes, so `remaining` can differ by ulps at
//!   completion time, and the ceil-to-nanosecond of each reschedule can
//!   land one tick apart twice over a flow's lifetime — adversarial
//!   workloads at high `PROPTEST_CASES` do reach two ticks.)
//! * **Warm ≡ cold** — the same engine with its fill records invalidated
//!   before every event (every flush then fills cold) must agree **bit for
//!   bit**: bottleneck ties break by link index in every fill, making rates
//!   a pure function of the active flow set, and a warm start replays only
//!   the suffix of the recorded bottleneck sequence a change can reach, the
//!   kept prefix being bit-identical to what a cold fill would recompute
//!   (see the "Warm-start filling" section of ARCHITECTURE.md;
//!   `tests/warm.rs` holds the warm-specific generators).
//!
//! The multi-component properties run on a *forest of stars* — disjoint
//! star platforms in one [`Platform`] — because that is where dirty-component
//! flushes matter: churn in one star must leave every other star's rates and
//! scheduled completions untouched. Two fixed inputs sit at the extremes of
//! one flush: a mirrored forest whose every flush spans sixteen dirty
//! components, and a funnel star with hundreds of flows on one bottleneck
//! link.
//!
//! The property names predate the single engine and are pinned: the
//! regression corpus and the deterministic per-test RNG key hang on them.

use netsim::baseline::{BaselineEvent, BaselineNetwork};
use netsim::event::{run_world, Scheduler, World};
use netsim::network::{FlowDelivery, NetEvent, Network, SharingMode};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use p2p_common::{Bandwidth, DataSize, HostId, SimDuration, SimTime};
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

/// A forest of `groups` disjoint stars, `hosts_per` hosts each. Hosts are
/// numbered group-major (`g * hosts_per + i`), and every group gets its own
/// access latency so activations land at *different* instants per group —
/// interleaving rebalances of unrelated components, the adversarial case
/// for dirty-component flushes.
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

struct OldWorld {
    net: BaselineNetwork,
    deliveries: Vec<(SimTime, FlowDelivery)>,
}
impl World for OldWorld {
    type Event = BaselineEvent;
    fn handle(&mut self, sched: &mut Scheduler<BaselineEvent>, ev: BaselineEvent) {
        let now = sched.now();
        for d in self.net.on_event(sched, ev) {
            self.deliveries.push((now, d));
        }
    }
}

/// Map host/size triples onto a concrete workload of (src, dst, size, token).
fn workload(n_hosts: usize, raw: &[(u32, u32, u64)]) -> Vec<(HostId, HostId, DataSize, u64)> {
    raw.iter()
        .enumerate()
        .map(|(i, &(a, b, size))| {
            (
                HostId::new(a % n_hosts as u32),
                HostId::new(b % n_hosts as u32),
                DataSize::from_bytes(1 + size % 5_000_000),
                i as u64,
            )
        })
        .collect()
}

/// Map raw quadruples onto intra-group flows of a star forest. Every flow
/// stays inside its group (the platform is disconnected by construction, so
/// cross-group routes do not exist), giving several independent components
/// with churn in each.
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

/// Run `flows` to completion on `platform`, warm or cold.
fn run_engine(
    platform: Platform,
    flows: &[(HostId, HostId, DataSize, u64)],
    cold: bool,
) -> NewWorld {
    let mut world = NewWorld {
        net: Network::new(platform, SharingMode::MaxMinFair),
        deliveries: vec![],
        cold,
    };
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &(src, dst, size, token) in flows {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    run_world(&mut world, &mut sched, None);
    world
}

/// Run `flows` to completion on the seed engine.
fn run_baseline(platform: Platform, flows: &[(HostId, HostId, DataSize, u64)]) -> OldWorld {
    let mut world = OldWorld {
        net: BaselineNetwork::new(platform, SharingMode::MaxMinFair),
        deliveries: vec![],
    };
    let mut sched: Scheduler<BaselineEvent> = Scheduler::new();
    for &(src, dst, size, token) in flows {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    run_world(&mut world, &mut sched, None);
    world
}

/// Per-token delivery timestamps (nanoseconds) of a finished run.
fn by_token(deliveries: &[(SimTime, FlowDelivery)]) -> BTreeMap<u64, u64> {
    deliveries
        .iter()
        .map(|&(t, d)| (d.token, t.duration_since(SimTime::ZERO).as_nanos()))
        .collect()
}

/// Every token of `old` delivered in `new` within two nanosecond ticks
/// (see the module docs for why two).
fn assert_within_two_ticks(new: &[(SimTime, FlowDelivery)], old: &[(SimTime, FlowDelivery)]) {
    let (new, old) = (by_token(new), by_token(old));
    prop_assert_eq!(new.len(), old.len(), "every token must be delivered");
    for (token, &old_ns) in &old {
        let Some(&new_ns) = new.get(token) else {
            panic!("token {token} missing from the engine's deliveries");
        };
        prop_assert!(
            new_ns.abs_diff(old_ns) <= 2,
            "token {} delivered at {} vs baseline {} (>2ns apart)",
            token,
            new_ns,
            old_ns
        );
    }
}

proptest! {
    /// Per-link Σ rates never exceeds capacity, at every step of the run.
    #[test]
    fn maxmin_rates_respect_link_capacity(
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 1..40),
        n_hosts in 2usize..8,
    ) {
        let platform = star(n_hosts);
        let capacities: Vec<f64> = platform
            .links()
            .iter()
            .map(|l| l.bandwidth.bytes_per_sec())
            .collect();
        let mut world = NewWorld {
            net: Network::new(platform, SharingMode::MaxMinFair),
            deliveries: vec![],
            cold: false,
        };
        let mut sched: Scheduler<Ev> = Scheduler::new();
        for &(src, dst, size, token) in &workload(n_hosts, &raw) {
            world.net.start_flow(&mut sched, src, dst, size, token);
        }
        let mut steps = 0u32;
        while let Some((_, ev)) = sched.pop() {
            world.handle(&mut sched, ev);
            steps += 1;
            prop_assert!(steps < 100_000, "runaway event loop");
            // Invariant: per-link allocated rate within capacity.
            let mut per_link: Vec<f64> = vec![0.0; capacities.len()];
            for (_, route, rate) in world.net.active_flows() {
                if route.links.is_empty() {
                    continue; // loopback holds no link capacity
                }
                prop_assert!(rate >= 0.0, "negative rate");
                for &l in &route.links {
                    per_link[l] += rate;
                }
            }
            for (l, &used) in per_link.iter().enumerate() {
                prop_assert!(
                    used <= capacities[l] * (1.0 + 1e-9) + 1e-6,
                    "link {l} oversubscribed: {used} > {}",
                    capacities[l]
                );
            }
        }
        prop_assert_eq!(world.net.flows_in_flight(), 0, "every flow must finish");
        prop_assert_eq!(world.deliveries.len(), raw.len());
    }

    /// The engine reproduces the seed engine's simulated results on
    /// randomised workloads: per-token timestamps within two ticks, counts
    /// and bytes exactly.
    #[test]
    fn incremental_engines_match_seed_engine(
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 1..40),
        n_hosts in 2usize..8,
    ) {
        let flows = workload(n_hosts, &raw);
        let old = run_baseline(star(n_hosts), &flows);
        let new = run_engine(star(n_hosts), &flows, false);
        prop_assert_eq!(old.deliveries.len(), flows.len(), "the baseline must deliver");
        assert_within_two_ticks(&new.deliveries, &old.deliveries);
        prop_assert_eq!(new.net.stats().flows_completed, old.net.stats().flows_completed);
        prop_assert_eq!(new.net.stats().bytes_delivered, old.net.stats().bytes_delivered);
        prop_assert_eq!(&new.net.stats().link_bytes, &old.net.stats().link_bytes);
    }

    /// Warm ≡ cold on one star: a warm start resumes from a recorded prefix
    /// that is bit-identical to the cold fill's, so per-token delivery
    /// timestamps and statistics must match exactly, not merely within the
    /// slack granted against the seed engine.
    #[test]
    fn batched_and_per_event_rebalances_deliver_identically(
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 1..40),
        n_hosts in 2usize..8,
    ) {
        let flows = workload(n_hosts, &raw);
        let warm = run_engine(star(n_hosts), &flows, false);
        let cold = run_engine(star(n_hosts), &flows, true);
        prop_assert_eq!(by_token(&warm.deliveries), by_token(&cold.deliveries));
        prop_assert_eq!(warm.net.stats(), cold.net.stats());
    }

    /// Both checks on multi-component topologies (a forest of disjoint
    /// stars, per-group latencies staggering the churn) with random
    /// intra-group flows: warm ≡ cold bit for bit, and both within two
    /// ticks of the seed engine.
    #[test]
    fn three_way_engines_agree_on_multi_component_churn(
        raw in prop::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()),
            1..60,
        ),
        groups in 2usize..5,
        hosts_per in 2usize..6,
    ) {
        let flows = forest_workload(groups, hosts_per, &raw);
        let old = run_baseline(star_forest(groups, hosts_per), &flows);
        prop_assert_eq!(old.deliveries.len(), flows.len(), "the baseline must deliver");
        let warm = run_engine(star_forest(groups, hosts_per), &flows, false);
        let cold = run_engine(star_forest(groups, hosts_per), &flows, true);
        prop_assert_eq!(
            by_token(&warm.deliveries),
            by_token(&cold.deliveries),
            "warm vs cold diverged"
        );
        prop_assert_eq!(warm.net.stats().flows_completed, old.net.stats().flows_completed);
        prop_assert_eq!(&warm.net.stats().link_bytes, &old.net.stats().link_bytes);
        assert_within_two_ticks(&warm.deliveries, &old.deliveries);
    }

    /// Bottleneck mode is trivially identical between the two engines (same
    /// analytic formula), and schedules one completion per flow that
    /// nothing cancels.
    #[test]
    fn bottleneck_mode_matches_seed_engine(
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 1..30),
        n_hosts in 2usize..6,
    ) {
        let flows = workload(n_hosts, &raw);
        let mut new_world = NewWorld {
            net: Network::new(star(n_hosts), SharingMode::Bottleneck),
            deliveries: vec![],
            cold: false,
        };
        let mut sched: Scheduler<Ev> = Scheduler::new();
        for &(src, dst, size, token) in &flows {
            new_world.net.start_flow(&mut sched, src, dst, size, token);
        }
        run_world(&mut new_world, &mut sched, None);
        prop_assert_eq!(
            sched.delivered(),
            flows.len() as u64,
            "one completion per flow, never cancelled"
        );

        let mut old_world = OldWorld {
            net: BaselineNetwork::new(star(n_hosts), SharingMode::Bottleneck),
            deliveries: vec![],
        };
        let mut old_sched: Scheduler<BaselineEvent> = Scheduler::new();
        for &(src, dst, size, token) in &flows {
            old_world.net.start_flow(&mut old_sched, src, dst, size, token);
        }
        run_world(&mut old_world, &mut old_sched, None);
        prop_assert_eq!(by_token(&new_world.deliveries), by_token(&old_world.deliveries));
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

/// The same churn pattern replicated in every group of a mirrored forest.
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

/// `flows` transfers from the other hosts of a star into `h0`, all on
/// `h0`'s ingress link.
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

/// Warm ≡ cold bit for bit, and warm within two ticks of the seed engine,
/// on one fixed workload.
fn assert_three_way(platform: impl Fn() -> Platform, flows: &[(HostId, HostId, DataSize, u64)]) {
    let old = run_baseline(platform(), flows);
    assert_eq!(
        old.deliveries.len(),
        flows.len(),
        "the baseline must deliver"
    );
    let warm = run_engine(platform(), flows, false);
    let cold = run_engine(platform(), flows, true);
    assert_eq!(
        by_token(&warm.deliveries),
        by_token(&cold.deliveries),
        "warm vs cold diverged"
    );
    assert_eq!(warm.net.stats(), cold.net.stats());
    assert_eq!(&warm.net.stats().link_bytes, &old.net.stats().link_bytes);
    assert_within_two_ticks(&warm.deliveries, &old.deliveries);
}

/// Sixteen mirrored groups: every flush spans sixteen dirty components.
/// (Twelve flows per group keep the quadratic seed engine quick;
/// `tests/warm.rs` runs warm ≡ cold at forty.)
#[test]
fn three_way_engines_agree_on_the_mirrored_forest() {
    assert_three_way(|| mirrored_forest(16, 8), &mirrored_workload(16, 8, 12));
}

/// One component with 512 flows on its bottleneck link. (The seed engine
/// reschedules every flow on every event, so it is quadratic in the flow
/// count: 2048 flows take over a minute in a debug build. `tests/warm.rs`
/// runs warm ≡ cold on the 2048-flow funnel.)
#[test]
fn three_way_engines_agree_on_the_funnel_star() {
    assert_three_way(|| star(48), &funnel_workload(48, 512));
}
