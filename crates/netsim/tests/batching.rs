//! Regression tests of batched same-timestamp rebalances and the automatic
//! event-heap compaction policy, pinned on a deterministic high-churn
//! workload (no property-testing randomness — the workload is closed-form,
//! so a failure here bisects cleanly).

use netsim::event::{run_world, Scheduler, World};
use netsim::network::{
    CompactionPolicy, FlowDelivery, NetEvent, NetWorldEvent, Network, SharingMode,
};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use p2p_common::{Bandwidth, DataSize, FlowId, HostId, SimDuration, SimTime};
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
impl NetWorldEvent for Ev {
    fn as_net_event(&self) -> Option<NetEvent> {
        let Ev::Net(e) = self;
        Some(*e)
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
        for d in self.net.on_event(sched, ne) {
            self.deliveries.push((now, d));
        }
    }
}

/// A 32-host star: every flow funnels through the central switch, so any
/// pair of flows with a common endpoint shares a link and churns rates.
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

/// Deterministic high-churn workload: `flows` transfers between index-derived
/// host pairs with staggered sizes, all started at t = 0, every one crossing
/// the shared star core. Arrivals all activate at the same instant (equal
/// route latencies) and completions cascade — worst case for rebalances.
fn churn_workload(hosts: usize, flows: usize) -> Vec<(HostId, HostId, DataSize, u64)> {
    (0..flows)
        .map(|i| {
            let src = (i * 5 + 1) % hosts;
            let dst = (i * 11 + hosts / 2) % hosts;
            let dst = if dst == src { (dst + 1) % hosts } else { dst };
            (
                HostId::new(src as u32),
                HostId::new(dst as u32),
                DataSize::from_bytes(50_000 + (i as u64 * 17_977) % 450_000),
                i as u64,
            )
        })
        .collect()
}

fn run(cold: bool, policy: Option<CompactionPolicy>) -> (NetWorld, Scheduler<Ev>) {
    let hosts = 32;
    let mut world = NetWorld {
        net: Network::new(star(hosts), SharingMode::MaxMinFair),
        deliveries: vec![],
        cold,
    };
    if let Some(p) = policy {
        world.net.set_compaction_policy(p);
    }
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &(src, dst, size, token) in &churn_workload(hosts, 400) {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    run_world(&mut world, &mut sched, None);
    (world, sched)
}

fn by_token(deliveries: &[(SimTime, FlowDelivery)]) -> BTreeMap<u64, u64> {
    deliveries
        .iter()
        .map(|&(t, d)| (d.token, t.duration_since(SimTime::ZERO).as_nanos()))
        .collect()
}

/// Warm ≡ cold on the high-churn workload: the index-derived src→dst
/// pairs decompose into many small link components, so flushes span
/// several of them and resume each from its own record — and every token
/// must still land on the same nanosecond as a run with every flush filled
/// cold.
#[test]
fn warm_flushes_match_cold_ones_on_star_churn() {
    let (warm, _) = run(false, None);
    assert!(warm.net.flush_stats().warm_starts > 0);
    let (cold, _) = run(true, None);
    assert_eq!(warm.deliveries.len(), 400);
    assert_eq!(
        by_token(&warm.deliveries),
        by_token(&cold.deliveries),
        "warm starts must be observationally invisible"
    );
    assert_eq!(warm.net.stats(), cold.net.stats());
}

/// Coalescing is not a no-op: the whole arrival wave activates at one
/// instant, so the network runs far fewer flushes than there are arrivals
/// and departures.
#[test]
fn batching_coalesces_same_instant_rebalances() {
    let (world, _) = run(false, None);
    let flushes = world.net.flush_stats().flushes;
    assert!(
        flushes < 2 * 400,
        "400 arrivals and 400 departures must share flushes: {flushes}"
    );
}

/// The automatic compaction policy fires on the high-churn workload and
/// brings the dead/live ratio back under its threshold each time.
#[test]
fn auto_compaction_triggers_and_restores_the_ratio() {
    let policy = CompactionPolicy {
        dead_per_live: 1,
        min_dead: 16,
    };
    let (world, sched) = run(false, Some(policy));
    assert_eq!(world.deliveries.len(), 400);
    assert!(
        world.net.auto_compactions() > 0,
        "the cascading completions of 400 churning flows must cross dead/live > 1"
    );
    assert_eq!(
        sched.compactions(),
        world.net.auto_compactions(),
        "every compaction of this run was policy-driven"
    );
    assert!(
        sched.compacted_entries() >= 16 * world.net.auto_compactions(),
        "each pass reclaims at least min_dead entries"
    );
    assert_eq!(sched.dead_pending(), 0, "the drained heap ends clean");
}

/// White-box check of the policy threshold itself: with compaction disabled,
/// run the same workload and replay the policy decision at every step —
/// whenever the network *would* have compacted, verify a manual
/// `compact_events` drops the dead count to zero (dead/live falls from
/// above the threshold to 0 ≤ threshold after the pass).
#[test]
fn compaction_pass_drops_dead_below_the_threshold() {
    let hosts = 32;
    let policy = CompactionPolicy {
        dead_per_live: 1,
        min_dead: 16,
    };
    let mut world = NetWorld {
        net: Network::new(star(hosts), SharingMode::MaxMinFair),
        deliveries: vec![],
        cold: false,
    };
    // Never auto-compact: this test drives the pass by hand.
    world.net.set_compaction_policy(CompactionPolicy {
        dead_per_live: u32::MAX,
        min_dead: u64::MAX,
    });
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &(src, dst, size, token) in &churn_workload(hosts, 400) {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    let mut exercised = 0u32;
    while let Some((_, ev)) = sched.pop() {
        world.handle(&mut sched, ev);
        let dead = sched.dead_pending();
        let live = sched.live_pending() as u64;
        if dead >= policy.min_dead && dead > live * u64::from(policy.dead_per_live) {
            let removed = world.net.compact_events(&mut sched);
            assert_eq!(removed as u64, dead, "exactly the stale entries go");
            assert_eq!(sched.dead_pending(), 0, "dead/live drops below threshold");
            assert_eq!(sched.live_pending(), live as usize, "live entries survive");
            exercised += 1;
        }
    }
    assert!(exercised > 0, "the workload must cross the threshold");
    assert_eq!(world.deliveries.len(), 400, "compaction loses nothing");
}

/// Schedule `n` events the compaction predicate always keeps (the batching
/// sentinel) — synthetic "live" heap entries for policy boundary tests.
fn schedule_live(sched: &mut Scheduler<Ev>, n: usize) {
    for _ in 0..n {
        sched.schedule_at(SimTime::from_secs(1), Ev::Net(NetEvent::Rebalance));
    }
}

/// Schedule `n` completion events for flows that never existed and mark each
/// dead — synthetic "dead" heap entries the predicate will drop.
fn schedule_dead(sched: &mut Scheduler<Ev>, n: usize) {
    for i in 0..n {
        sched.schedule_at(
            SimTime::from_secs(2),
            Ev::Net(NetEvent::FlowCompletion {
                flow: FlowId::from_parts(40_000 + i as u32, 7),
                version: 0,
            }),
        );
        sched.mark_dead();
    }
}

/// Boundary case: the ratio trigger is *strict*. With `dead_per_live = 2`,
/// a heap holding exactly dead == live·2 must not compact; one more dead
/// entry must.
#[test]
fn compaction_ratio_boundary_is_strict() {
    let mut net = Network::new(star(4), SharingMode::MaxMinFair);
    net.set_compaction_policy(CompactionPolicy {
        dead_per_live: 2,
        min_dead: 1,
    });
    let mut sched: Scheduler<Ev> = Scheduler::new();
    schedule_live(&mut sched, 4);
    schedule_dead(&mut sched, 8);
    assert_eq!(sched.dead_pending(), 8);
    assert_eq!(sched.live_pending(), 4);
    assert!(
        !net.compact_if_due(&mut sched),
        "dead == live × ratio exactly must not compact"
    );
    assert_eq!(sched.pending(), 12, "no entry may have been dropped");
    assert_eq!(net.auto_compactions(), 0);
    schedule_dead(&mut sched, 1);
    assert!(
        net.compact_if_due(&mut sched),
        "dead == live × ratio + 1 must compact"
    );
    assert_eq!(net.auto_compactions(), 1);
    assert_eq!(sched.dead_pending(), 0, "every dead entry was reclaimed");
    assert_eq!(sched.pending(), 4, "every live entry survived");
}

/// Boundary case: the `min_dead` floor gates the ratio. With a zero ratio
/// (any dead entry outnumbers live × 0) the policy must still hold off until
/// the heap holds `min_dead` dead entries — and fire at exactly that count.
#[test]
fn compaction_min_dead_floor_is_inclusive() {
    let mut net = Network::new(star(4), SharingMode::MaxMinFair);
    net.set_compaction_policy(CompactionPolicy {
        dead_per_live: 0,
        min_dead: 4,
    });
    let mut sched: Scheduler<Ev> = Scheduler::new();
    schedule_dead(&mut sched, 3);
    assert!(
        !net.compact_if_due(&mut sched),
        "dead == min_dead − 1 must not compact, whatever the ratio says"
    );
    schedule_dead(&mut sched, 1);
    assert!(
        net.compact_if_due(&mut sched),
        "dead == min_dead exactly is enough (the floor is inclusive)"
    );
    assert_eq!(sched.pending(), 0);
    assert_eq!(sched.dead_pending(), 0);
}

/// Compaction while a batched rebalance is *in flight* — its sentinel
/// scheduled but not yet fired — must keep the sentinel (and the activated
/// flows' state), or the whole instant's rate update would be lost.
#[test]
fn compaction_preserves_an_in_flight_batched_rebalance() {
    let mut world = NetWorld {
        net: Network::new(star(8), SharingMode::MaxMinFair),
        deliveries: vec![],
        cold: false,
    };
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let size = DataSize::from_bytes(1_250_000);
    world
        .net
        .start_flow(&mut sched, HostId::new(1), HostId::new(0), size, 1);
    world
        .net
        .start_flow(&mut sched, HostId::new(2), HostId::new(0), size, 2);
    // Deliver exactly the two activations; the first one schedules the
    // sentinel at the same instant, so it is now the only pending event.
    for _ in 0..2 {
        let (_, ev) = sched.pop().unwrap();
        world.handle(&mut sched, ev);
    }
    assert_eq!(sched.pending(), 1, "only the rebalance sentinel is pending");
    // Neither a policy-driven check nor a manual pass may touch it.
    world.net.set_compaction_policy(CompactionPolicy {
        dead_per_live: 0,
        min_dead: 1,
    });
    assert!(
        !world.net.compact_if_due(&mut sched),
        "nothing is dead, so the policy must decline"
    );
    assert_eq!(
        world.net.compact_events(&mut sched),
        0,
        "a manual pass must keep the pending sentinel"
    );
    assert_eq!(sched.pending(), 1);
    run_world(&mut world, &mut sched, None);
    assert_eq!(
        world.deliveries.len(),
        2,
        "the batched rebalance still fired and both flows completed"
    );
}
