//! Pins for the persistent worker pool and the level-split stealing path.
//!
//! `parallel.rs` proves the *fan-out* side (whole component fills
//! dispatched onto workers) is worker-budget invariant. This file pins the *split* side:
//! when one dominant component's progressive fill is work-stolen across the
//! pool at same-share-level granularity, deliveries and statistics stay
//! bit-identical to a serial, every-flush-cold fill at **every** worker
//! budget — and the
//! stolen rounds really happen (`FlushStats::steals > 0`). It also pins the
//! checkpoint contract under an active pool: envelopes are byte-identical
//! across runs (the nondeterministic `park_wakeups` counter encodes as 0)
//! and a mid-run restore continues bit-identically.

use netsim::event::{run_world, Scheduler, World};
use netsim::network::{FlowDelivery, FlushStats, NetEvent, NetWorldEvent, Network, SharingMode};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use netsim::{EngineConfig, StreamSession};
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

const HOSTS: usize = 48;
const FLOWS: usize = 320;

/// One shared star: every flow funnels into `h0`, so `h0`'s ingress link
/// couples the whole workload into a *single* component whose bottleneck
/// incidence list holds hundreds of flows — the shape the component
/// fan-out cannot spread and only level-split stealing can parallelise.
fn funnel_star() -> Platform {
    let mut b = PlatformBuilder::new();
    let sw = b.add_router("sw");
    let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(100));
    for i in 0..HOSTS {
        let h = b.add_host(
            format!("h{i}"),
            format!("10.0.{}.{}", i / 200, i % 200 + 1).parse().unwrap(),
            HostSpec::default(),
        );
        b.add_host_link(format!("l{i}"), h, sw, spec);
    }
    b.build()
}

fn funnel_workload() -> Vec<(HostId, HostId, DataSize, u64)> {
    (0..FLOWS)
        .map(|i| {
            (
                HostId::new((i % (HOSTS - 1) + 1) as u32),
                HostId::new(0),
                DataSize::from_bytes(50_000 + (i as u64 * 17_977) % 450_000),
                i as u64,
            )
        })
        .collect()
}

/// Run the funnel workload under `config`, warm or cold. Progressive
/// completions churn the single component flush after flush, so the
/// warm-start records and the split machinery are exercised across many
/// saturation levels.
fn run(config: EngineConfig, cold: bool) -> NetWorld {
    let mut world = NetWorld {
        net: Network::with_config(funnel_star(), SharingMode::MaxMinFair, config),
        deliveries: vec![],
        cold,
    };
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for &(src, dst, size, token) in &funnel_workload() {
        world.net.start_flow(&mut sched, src, dst, size, token);
    }
    run_world(&mut world, &mut sched, None);
    assert_eq!(world.deliveries.len(), FLOWS);
    world
}

fn by_token(deliveries: &[(SimTime, FlowDelivery)]) -> BTreeMap<u64, u64> {
    deliveries
        .iter()
        .map(|&(t, d)| (d.token, t.duration_since(SimTime::ZERO).as_nanos()))
        .collect()
}

/// Force splitting on every round with at least two incident flows.
fn split_config(workers: usize) -> EngineConfig {
    EngineConfig::default()
        .workers(workers)
        .parallel_threshold(0)
        .split_min_flows(2)
}

/// The central pin: forced work-stolen split fills are bit-identical to a
/// serial, every-flush-cold fill at every worker budget — one (no pool,
/// pure serial), a few, the CI matrix's eight, and an oversubscribed
/// sixty-four — and the stolen rounds really happen.
#[test]
fn split_fills_are_worker_budget_invariant() {
    let reference = run(EngineConfig::default().workers(1), true);
    let reference_times = by_token(&reference.deliveries);
    let mut steals_seen = Vec::new();
    for workers in [1usize, 2, 3, 8, 64] {
        let split = run(split_config(workers), false);
        assert_eq!(
            by_token(&split.deliveries),
            reference_times,
            "deliveries diverged at {workers} workers"
        );
        assert_eq!(
            split.net.stats(),
            reference.net.stats(),
            "statistics diverged at {workers} workers"
        );
        let stats = split.net.flush_stats();
        if workers >= 2 {
            assert!(
                stats.steals > 0,
                "{workers} workers must work-steal the funnel's dominant bottleneck: {stats:?}"
            );
            assert!(
                stats.flushes_dispatched >= stats.steals,
                "every stolen round rides one pool dispatch: {stats:?}"
            );
            steals_seen.push(stats.steals);
        } else {
            assert_eq!(
                stats.steals, 0,
                "a one-worker budget has no pool and must never split"
            );
            assert_eq!(stats.flushes_dispatched, 0);
        }
    }
    // Which rounds split depends only on the threshold and the flow set —
    // never on how many workers share the round — so the steal count is
    // one number across the whole budget sweep.
    steals_seen.dedup();
    assert_eq!(
        steals_seen.len(),
        1,
        "steal counts must not depend on the worker budget"
    );
}

/// Below the split threshold a pooled network never steals and matches the
/// serial one exactly — the pool is pure overhead insurance, not a
/// behaviour switch.
#[test]
fn no_rounds_split_below_the_threshold() {
    let split = run(
        EngineConfig::default()
            .workers(8)
            .parallel_threshold(0)
            .split_min_flows(usize::MAX),
        false,
    );
    assert_eq!(split.net.flush_stats().steals, 0);
    let reference = run(EngineConfig::default().workers(1), false);
    assert_eq!(by_token(&split.deliveries), by_token(&reference.deliveries));
}

/// The pool's scratch shows up in the memory footprint once the pool has
/// run, and the total includes it.
#[test]
fn pool_scratch_is_accounted_in_the_footprint() {
    let pooled = run(split_config(4), false);
    let fp = pooled.net.memory_footprint();
    assert!(
        fp.pool_bytes > 0,
        "split scratch must be accounted after stolen rounds: {fp:?}"
    );
    assert!(fp.total_bytes() >= fp.pool_bytes + fp.slab_bytes);
}

/// Background flows in tree 0 of the forest below (identical in both runs).
const BACKGROUND: usize = 32;
/// Flows of the measured arrival wave.
const WAVE: usize = 60;
const TREES: usize = 16;

/// Pool scratch bytes and flush statistics right after a flush that fills one arrival wave of
/// `WAVE` flows on a 16-tree DSLAM forest: spread over trees 1..16
/// (fifteen dirty components) or confined to tree 1 (one). A background
/// load parked in tree 0 beforehand keeps the wave below the dense-takeover
/// cover, so the wave fills component by component at every worker budget.
/// Every route crosses both DSLAMs of its tree, so each wave activates at
/// one instant and lands in one flush.
fn wave_pool_bytes(config: EngineConfig, spread: bool) -> (usize, FlushStats) {
    let topo = netsim::dslam_forest(TREES, 16, HostSpec::default(), 7);
    let pair = |tree: usize, i: usize| {
        let hosts = topo.component_hosts(tree);
        (hosts[i % 8], hosts[8 + (i * 3) % 8])
    };
    let mut s = StreamSession::with_config(topo.platform.clone(), SharingMode::MaxMinFair, config);
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
        (stats.flushes, stats.fast_flushes),
        (2, 0),
        "background and wave must each fill per component in one flush: {stats:?}"
    );
    (s.network().memory_footprint().pool_bytes, stats)
}

/// Fill scratch is sized by claimer, not by dirty component: a flush over
/// fifteen components holds at most one scratch per pool claimer, so its
/// pool bytes stay within twice those of a one-component flush of the same
/// flows — serially and on a dispatching two-worker pool.
#[test]
fn fill_scratch_does_not_grow_with_dirty_components() {
    for config in [
        EngineConfig::default().workers(1),
        EngineConfig::default().workers(2).parallel_threshold(0),
    ] {
        let (spread, stats) = wave_pool_bytes(config, true);
        let (confined, _) = wave_pool_bytes(config, false);
        assert_eq!(
            stats.parallel_flushes,
            u64::from(config.workers >= 2),
            "only the pooled spread wave dispatches: {stats:?}"
        );
        assert!(
            spread <= 2 * confined,
            "{config:?}: spreading the wave over {} trees took {spread} pool bytes, \
             confining it to one took {confined}",
            TREES - 1
        );
    }
}

fn streamed(config: EngineConfig) -> StreamSession {
    let mut s = StreamSession::with_config(funnel_star(), SharingMode::MaxMinFair, config);
    for (i, &(src, dst, size, token)) in funnel_workload().iter().enumerate() {
        // Staggered arrivals keep the session mid-churn for the cut.
        s.inject(
            SimTime::ZERO + SimDuration::from_micros(50 * i as u64),
            src,
            dst,
            size,
            token,
        )
        .expect("arrival in the future");
    }
    s
}

/// Checkpoint bytes are a pure function of simulation state even with a
/// live pool: the `park_wakeups` counter — which depends on OS scheduling —
/// encodes as zero, so two identical runs produce byte-equal envelopes.
#[test]
fn checkpoint_bytes_are_deterministic_under_a_live_pool() {
    let cut = SimTime::ZERO + SimDuration::from_millis(40);
    let mut a = streamed(split_config(8));
    let mut b = streamed(split_config(8));
    a.advance_to(cut);
    b.advance_to(cut);
    assert!(
        a.network().flush_stats().steals > 0,
        "the cut must land mid-churn with stolen rounds behind it"
    );
    let ja = serde_json::to_string(&a.checkpoint()).unwrap();
    let jb = serde_json::to_string(&b.checkpoint()).unwrap();
    assert_eq!(ja, jb, "identical runs must checkpoint byte-identically");
}

/// A session cut mid-run under an active pool (stolen rounds already
/// behind it, more ahead) restores and finishes bit-identically to the
/// uninterrupted run, and the engine configuration survives the envelope.
#[test]
fn mid_run_restore_under_pool_is_bit_identical() {
    let config = split_config(8);
    let mut uninterrupted = streamed(config);
    let mut tail = uninterrupted.quiesce();

    let cut = SimTime::ZERO + SimDuration::from_secs(2);
    let mut original = streamed(config);
    let mut head = original.advance_to(cut);
    assert!(
        !head.is_empty() && head.len() < FLOWS,
        "the cut must land mid-run ({} deliveries)",
        head.len()
    );
    let mut restored = StreamSession::restore(&original.checkpoint()).expect("restore");
    assert_eq!(
        restored.network().config(),
        config,
        "the engine configuration must round-trip through the envelope"
    );
    assert_eq!(
        restored.network().flush_stats().park_wakeups,
        0,
        "park wakeups are an OS artifact and restore zeroed"
    );
    head.extend(restored.quiesce());

    let key = |d: &netsim::DeliveryRecord| (d.token, d.completed_at);
    tail.sort_by_key(key);
    head.sort_by_key(key);
    assert_eq!(
        head.len(),
        tail.len(),
        "restored run must deliver every flow"
    );
    for (x, y) in head.iter().zip(&tail) {
        assert_eq!(key(x), key(y), "restored deliveries diverged");
    }
}
