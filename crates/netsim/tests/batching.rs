//! Regression tests of batched same-timestamp rebalances and of the
//! scheduler's cancellation of superseded completions, pinned on a
//! deterministic high-churn workload (no property-testing randomness — the
//! workload is closed-form, so a failure here bisects cleanly).

use netsim::checkpoint;
use netsim::event::{run_world, EventId, Scheduler, World};
use netsim::network::{FlowDelivery, NetEvent, Network, SharingMode};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use p2p_common::{Bandwidth, DataSize, HostId, SimDuration, SimTime};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Ev {
    Net(NetEvent),
    /// A world event the network never sees.
    Tick(u32),
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
    /// Every event handled, in order.
    log: Vec<(SimTime, Ev)>,
}
impl World for NetWorld {
    type Event = Ev;
    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        let now = sched.now();
        self.log.push((now, ev));
        let Ev::Net(ne) = ev else {
            return;
        };
        if self.cold {
            self.net.invalidate_fill_records();
        }
        if let Some(d) = self.net.on_event(sched, ne) {
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

fn world(hosts: usize, cold: bool) -> NetWorld {
    NetWorld {
        net: Network::new(star(hosts), SharingMode::MaxMinFair),
        deliveries: vec![],
        cold,
        log: vec![],
    }
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

/// The churn workload started but not run.
fn start(cold: bool) -> (NetWorld, Scheduler<Ev>) {
    let hosts = 32;
    let mut world = world(hosts, cold);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &(src, dst, size, token) in &churn_workload(hosts, 400) {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    (world, sched)
}

fn run(cold: bool) -> (NetWorld, Scheduler<Ev>) {
    let (mut world, mut sched) = start(cold);
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
    let (warm, _) = run(false);
    assert!(warm.net.flush_stats().warm_starts > 0);
    let (cold, _) = run(true);
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
    let (world, _) = run(false);
    let flushes = world.net.flush_stats().flushes;
    assert!(
        flushes < 2 * 400,
        "400 arrivals and 400 departures must share flushes: {flushes}"
    );
}

/// Superseded completions leave no trace: on the churn workload only a
/// flow's current completion ever pops (so each one finishes its flow),
/// and a checkpoint taken between events lists exactly the pending events
/// and decodes, which it does only if its completions and the flows'
/// stored ones name each other.
#[test]
fn cancelled_completions_never_pop_count_or_enter_a_checkpoint() {
    let (mut world, mut sched) = start(false);
    let mut checked = 0;
    while let Some((_, ev)) = sched.pop() {
        world.handle(&mut sched, ev);
        if world.log.len() % 7 != 0 {
            continue;
        }
        let v = checkpoint::encode(&world.net, &sched, Value::Null);
        let field = |v: &Value, key: &str| {
            let fields = v.as_object().unwrap();
            fields.iter().find(|(k, _)| k == key).unwrap().1.clone()
        };
        let listed = field(&field(&v, "scheduler"), "pending");
        assert_eq!(listed.as_array().unwrap().len(), sched.pending());
        let restored = checkpoint::decode::<Ev>(&v).expect("completions match the flows");
        assert_eq!(restored.scheduler.pending(), sched.pending());
        checked += 1;
    }
    assert!(checked > 100);
    assert_eq!(world.deliveries.len(), 400);
    let completions = world
        .log
        .iter()
        .filter(|(_, ev)| matches!(ev, Ev::Net(NetEvent::FlowCompletion { .. })))
        .count();
    assert_eq!(completions, 400, "each popped completion finished its flow");
    assert!(
        sched.compacted_entries() > 0,
        "the churn superseded completions, and sweeps removed them"
    );
    assert_eq!(sched.delivered(), world.log.len() as u64);
}

/// The churn cancels completions faster than they drain, so the scheduler
/// sweeps on its own, with no call from the network: every pass reclaims
/// at least the 64-entry floor, and the drained queue ends empty with every
/// flow delivered.
#[test]
fn auto_compaction_triggers_and_restores_the_ratio() {
    let (mut world, mut sched) = start(false);
    let mut passes = 0;
    while let Some((_, ev)) = sched.pop() {
        let before = (sched.compactions(), sched.compacted_entries());
        world.handle(&mut sched, ev);
        let new = sched.compactions() - before.0;
        assert!(
            sched.compacted_entries() - before.1 >= 64 * new,
            "a pass reclaims at least the floor"
        );
        passes += new;
    }
    assert_eq!(world.deliveries.len(), 400);
    assert!(passes > 0, "the churn must cross the sweep rule");
    assert_eq!(sched.compactions(), passes);
    assert!(sched.compacted_entries() >= 64 * sched.compactions());
    assert_eq!(sched.pending(), 0);
}

/// Schedule `live` ticks at 1 s and `doomed` ticks at 2 s, returning the
/// ids of the doomed ones. Nothing doomed sits at the queue's head, so
/// cancelling it leaves it in the queue until a sweep.
fn ticks(sched: &mut Scheduler<Ev>, live: u32, doomed: u32) -> Vec<EventId> {
    for i in 0..live {
        sched.schedule_at(SimTime::from_secs(1), Ev::Tick(i));
    }
    (0..doomed)
        .map(|i| sched.schedule_at(SimTime::from_secs(2), Ev::Tick(live + i)))
        .collect()
}

/// Boundary case: the ratio trigger is *strict*. A queue holding exactly
/// four cancelled entries per live one is not swept; one more cancel (which
/// also removes a live entry) sweeps it.
#[test]
fn compaction_ratio_boundary_is_strict() {
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let doomed = ticks(&mut sched, 15, 65);
    for &id in &doomed[..64] {
        sched.cancel(id);
    }
    assert_eq!(sched.pending(), 16);
    assert_eq!(sched.compactions(), 0, "64 == 4 × 16 must not sweep");
    sched.cancel(doomed[64]);
    assert_eq!(sched.compactions(), 1, "65 > 4 × 15 must sweep");
    assert_eq!(sched.compacted_entries(), 65);
    assert_eq!(sched.pending(), 15);
    let order: Vec<Ev> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, (0..15).map(Ev::Tick).collect::<Vec<_>>());
}

/// Boundary case: the floor of 64 cancelled entries gates the ratio. With
/// four live entries the ratio holds from the 17th cancel on, but the queue
/// is swept only at the 64th.
#[test]
fn compaction_min_dead_floor_is_inclusive() {
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let doomed = ticks(&mut sched, 4, 64);
    for &id in &doomed[..63] {
        sched.cancel(id);
    }
    assert_eq!(
        sched.compactions(),
        0,
        "63 cancelled, whatever the ratio says"
    );
    sched.cancel(doomed[63]);
    assert_eq!(sched.compactions(), 1, "64 cancelled is enough");
    assert_eq!(sched.compacted_entries(), 64);
    assert_eq!(sched.pending(), 4);
}

/// A sweep takes every cancelled entry out, not just enough to fall under
/// the rule: after the first pass it takes another full 64 cancels to
/// trigger the next one, and the live entries survive both.
#[test]
fn compaction_pass_drops_dead_below_the_threshold() {
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &id in &ticks(&mut sched, 4, 64) {
        sched.cancel(id);
    }
    assert_eq!(sched.compactions(), 1);
    assert_eq!(sched.compacted_entries(), 64);
    let doomed: Vec<EventId> = (0..64)
        .map(|i| sched.schedule_at(SimTime::from_secs(3), Ev::Tick(100 + i)))
        .collect();
    for &id in &doomed[..63] {
        sched.cancel(id);
    }
    assert_eq!(sched.compactions(), 1, "the pass left no cancelled entry");
    sched.cancel(doomed[63]);
    assert_eq!(sched.compactions(), 2);
    assert_eq!(sched.compacted_entries(), 128);
    assert_eq!(sched.pending(), 4);
    let order: Vec<Ev> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, (0..4).map(Ev::Tick).collect::<Vec<_>>());
}

/// A sweep while a batched rebalance is *in flight* — its sentinel
/// scheduled but not yet fired — keeps the survivors in their pop order,
/// the sentinel first, so the instant's rate update still happens.
#[test]
fn compaction_preserves_an_in_flight_batched_rebalance() {
    let size = DataSize::from_bytes(1_250_000);
    let drive = |ticks: bool| {
        let mut world = world(8, false);
        let mut sched: Scheduler<Ev> = Scheduler::new();
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
        let t0 = sched.now();
        if ticks {
            // 100 ticks 1 ms apart from the sentinel's instant on; all but
            // each tenth are cancelled, and the 64th cancel sweeps.
            let ids: Vec<EventId> = (0..100u32)
                .map(|i| sched.schedule_at(t0 + SimDuration::from_millis(i.into()), Ev::Tick(i)))
                .collect();
            for i in (0..100).filter(|i| i % 10 != 0) {
                sched.cancel(ids[i]);
            }
            assert_eq!(sched.compactions(), 1);
            assert_eq!(sched.pending(), 11);
        }
        run_world(&mut world, &mut sched, None);
        (t0, world)
    };
    let (t0, swept) = drive(true);
    assert_eq!(swept.log[2], (t0, Ev::Net(NetEvent::Rebalance)));
    assert_eq!(swept.log[3], (t0, Ev::Tick(0)));
    let ticks: Vec<(SimTime, Ev)> = swept
        .log
        .iter()
        .copied()
        .filter(|(_, ev)| matches!(ev, Ev::Tick(_)))
        .collect();
    let expected: Vec<(SimTime, Ev)> = (0..10u32)
        .map(|k| {
            (
                t0 + SimDuration::from_millis((10 * k).into()),
                Ev::Tick(10 * k),
            )
        })
        .collect();
    assert_eq!(
        ticks, expected,
        "the surviving ticks pop in their old order"
    );
    let (_, plain) = drive(false);
    assert_eq!(swept.deliveries.len(), 2);
    assert_eq!(
        swept.deliveries, plain.deliveries,
        "the batched rebalance still fired and both flows completed on time"
    );
}
