//! Restore identity under a scripted fault plan — the workspace-level
//! checkpoint scenario.
//!
//! The netsim-local suite (`crates/netsim/tests/checkpoint.rs`) proves
//! restore identity for pure traffic. This scenario layers on the pieces a
//! real capacity-planning service would checkpoint alongside the network:
//!
//! * a [`FaultPlan`] scripted against a DSLAM forest's components — a mass
//!   failure that kills a whole tree's hosts mid-run, plus staggered
//!   individual host crashes afterwards;
//! * a [`DetRng`] that keeps generating fresh traffic *after* the cut, so
//!   the restored run only matches if the RNG stream position survived the
//!   checkpoint exactly;
//! * the periodic traffic/fault machinery itself (cursor into the plan,
//!   dead-host set), riding in the checkpoint envelope's `world` slot.
//!
//! The interrupted run is cut mid-simulation — between the mass failure
//! and the trailing individual crashes — serialized through the JSON text
//! path, restored into fresh objects, and drained. Every delivery after the
//! cut must land at the identical nanosecond, warm and cold (fill records
//! invalidated before every event) — and warm ≡ cold on the whole run.

use netsim::checkpoint;
use netsim::event::Scheduler;
use netsim::network::{NetEvent, Network, SharingMode};
use netsim::platform::HostSpec;
use netsim::topology::dslam_forest;
use p2p_common::{DataSize, DetRng, HostId, PeerId, SimDuration, SimTime};
use p2pdc::{FaultEvent, FaultPlan};
use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum Ev {
    Net(NetEvent),
    /// Periodic traffic tick: the RNG draws a batch of fresh flows.
    Traffic,
    /// Scripted fault injection instant (the plan cursor says which).
    Fault,
}

impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Self {
        Ev::Net(e)
    }
}

/// Everything beyond the network that the scenario checkpoints: the traffic
/// RNG, the fault script and its delivery cursor, and which hosts are dead.
#[derive(Serialize, Deserialize)]
struct Extra {
    rng: DetRng,
    plan: FaultPlan,
    next_fault: usize,
    dead: Vec<bool>,
    next_token: u64,
}

struct Scenario {
    net: Network,
    sched: Scheduler<Ev>,
    extra: Extra,
    deliveries: Vec<(u64, u64)>,
    /// host → component index, rebuilt from the plan (derived state).
    comp_of: Vec<usize>,
    /// Invalidate the fill records before every event (every flush cold).
    cold: bool,
}

fn comp_of_hosts(plan: &FaultPlan, hosts: usize) -> Vec<usize> {
    let mut comp_of = vec![0usize; hosts];
    for c in 0..plan.component_count() {
        for &h in plan.component_hosts(c) {
            comp_of[h.index()] = c;
        }
    }
    comp_of
}

const TRAFFIC_PERIOD: SimDuration = SimDuration::from_millis(5);
const HORIZON: SimTime = SimTime::from_millis(400);

impl Scenario {
    fn new(cold: bool, seed: u64) -> Scenario {
        let topo = dslam_forest(3, 5, HostSpec::default(), seed);
        // Script: tree 1 dies wholesale at 60 ms, then two individual host
        // crashes at 150 ms and 250 ms (PeerId doubles as a host index here —
        // the scenario has no overlay, only hosts).
        let plan = FaultPlan::for_topology(&topo)
            .with_fault(
                SimTime::from_millis(60),
                FaultEvent::MassFailure { component: 1 },
            )
            .with_fault(
                SimTime::from_millis(150),
                FaultEvent::PeerCrash(PeerId::new(0)),
            )
            .with_fault(
                SimTime::from_millis(250),
                FaultEvent::PeerCrash(PeerId::new(7)),
            );
        let hosts = topo.hosts.len();
        let mut sched: Scheduler<Ev> = Scheduler::new();
        sched.schedule_at(SimTime::ZERO, Ev::Traffic);
        for f in plan.faults() {
            sched.schedule_at(f.at, Ev::Fault);
        }
        let comp_of = comp_of_hosts(&plan, hosts);
        Scenario {
            net: Network::new(topo.platform, SharingMode::MaxMinFair),
            sched,
            extra: Extra {
                rng: DetRng::new(seed).fork(0xFA017),
                plan,
                next_fault: 0,
                dead: vec![false; hosts],
                next_token: 0,
            },
            deliveries: Vec::new(),
            comp_of,
            cold,
        }
    }

    /// Pick two distinct live hosts in the same component (trees are
    /// disjoint platform components, so cross-tree routes do not exist).
    fn live_pair(&mut self) -> Option<(HostId, HostId)> {
        let live: Vec<u32> = (0..self.extra.dead.len() as u32)
            .filter(|&h| !self.extra.dead[h as usize])
            .collect();
        if live.is_empty() {
            return None;
        }
        let src = live[self.extra.rng.gen_range(0..live.len())];
        let peers: Vec<u32> = live
            .iter()
            .copied()
            .filter(|&h| h != src && self.comp_of[h as usize] == self.comp_of[src as usize])
            .collect();
        if peers.is_empty() {
            return None;
        }
        let dst = peers[self.extra.rng.gen_range(0..peers.len())];
        Some((HostId::new(src), HostId::new(dst)))
    }

    fn handle(&mut self, ev: Ev) {
        if self.cold {
            self.net.invalidate_fill_records();
        }
        match ev {
            Ev::Net(ne) => {
                let now = self.sched.now();
                if let Some(d) = self.net.on_event(&mut self.sched, ne) {
                    self.deliveries.push((d.token, now.as_nanos()));
                }
            }
            Ev::Traffic => {
                // A couple of fresh flows between random live hosts.
                for _ in 0..2 {
                    let Some((src, dst)) = self.live_pair() else {
                        continue;
                    };
                    let bytes = self.extra.rng.gen_range(50_000..600_000u64);
                    let token = self.extra.next_token;
                    self.extra.next_token += 1;
                    self.net.start_flow(
                        &mut self.sched,
                        src,
                        dst,
                        DataSize::from_bytes(bytes),
                        token,
                    );
                }
                let next = self.sched.now().saturating_add(TRAFFIC_PERIOD);
                if next <= HORIZON {
                    self.sched.schedule_at(next, Ev::Traffic);
                }
            }
            Ev::Fault => {
                let now = self.sched.now();
                while let Some(f) = self.extra.plan.faults().get(self.extra.next_fault) {
                    if f.at > now {
                        break;
                    }
                    match f.event.clone() {
                        FaultEvent::MassFailure { component } => {
                            for &h in self.extra.plan.component_hosts(component) {
                                self.extra.dead[h.index()] = true;
                            }
                            // The conservative product path at a correlated
                            // kill (mirrors the robustness harness).
                            self.net.invalidate_fill_records();
                        }
                        FaultEvent::PeerCrash(id) => {
                            let h = id.index() % self.extra.dead.len();
                            self.extra.dead[h] = true;
                        }
                        FaultEvent::TrackerCrash(_) => {}
                    }
                    self.extra.next_fault += 1;
                }
            }
        }
    }

    /// Pop and handle events; stop after `limit` if given.
    fn run(&mut self, limit: Option<SimTime>) {
        while let Some(next) = self.sched.peek_time() {
            if let Some(l) = limit {
                if next > l {
                    break;
                }
            }
            let (_, ev) = self.sched.pop().expect("peeked event must exist");
            self.handle(ev);
        }
    }

    fn checkpoint_json(&self) -> String {
        let world = Value::Object(vec![
            ("extra".to_owned(), self.extra.to_value()),
            (
                "deliveries".to_owned(),
                self.deliveries
                    .iter()
                    .map(|&(t, ns)| (t, ns))
                    .collect::<Vec<_>>()
                    .to_value(),
            ),
        ]);
        checkpoint::to_json(&self.net, &self.sched, world).expect("encodable")
    }

    fn restore_json(json: &str, cold: bool) -> Scenario {
        let restored = checkpoint::from_json::<Ev>(json).expect("valid checkpoint");
        let fields = restored.world.as_object().expect("world slot object");
        let extra: Extra = serde::field(fields, "extra", "Scenario").expect("extra state");
        let deliveries: Vec<(u64, u64)> =
            serde::field(fields, "deliveries", "Scenario").expect("delivery log");
        let comp_of = comp_of_hosts(&extra.plan, extra.dead.len());
        Scenario {
            net: restored.network,
            sched: restored.scheduler,
            extra,
            deliveries,
            comp_of,
            cold,
        }
    }
}

#[test]
fn faulted_run_restores_bit_identically_warm_and_cold() {
    let seed = 11;
    let mut warm_deliveries = None;
    for cold in [false, true] {
        // Uninterrupted reference.
        let mut reference = Scenario::new(cold, seed);
        reference.run(None);
        assert!(
            reference.deliveries.len() > 20,
            "scenario must generate real traffic (cold: {cold})"
        );
        assert_eq!(
            reference.extra.next_fault,
            reference.extra.plan.len(),
            "all scripted faults must fire (cold: {cold})"
        );
        // Warm ≡ cold over the whole faulted run.
        let warm = warm_deliveries.get_or_insert_with(|| reference.deliveries.clone());
        assert_eq!(*warm, reference.deliveries, "warm vs cold diverged");

        // Interrupted: cut between the mass failure and the later crashes,
        // round-trip through JSON text, drain the restored copy.
        let mut paused = Scenario::new(cold, seed);
        paused.run(Some(SimTime::from_millis(110)));
        assert!(
            paused.extra.next_fault >= 1,
            "mass failure fired before cut"
        );
        assert!(
            paused.extra.next_fault < paused.extra.plan.len(),
            "crashes remain after cut"
        );
        let json = paused.checkpoint_json();
        let mut resumed = Scenario::restore_json(&json, cold);
        assert_eq!(resumed.deliveries, paused.deliveries);
        resumed.run(None);

        assert_eq!(
            resumed.deliveries, reference.deliveries,
            "cold: {cold}: post-restore deliveries diverged from the uninterrupted run"
        );
        assert_eq!(
            resumed.net.stats(),
            reference.net.stats(),
            "cold: {cold}: network statistics diverged"
        );
        assert_eq!(resumed.extra.next_token, reference.extra.next_token);
        assert_eq!(resumed.extra.dead, reference.extra.dead);
    }
}

#[test]
fn rng_stream_position_survives_the_checkpoint() {
    // Same scenario, but compare against a *fresh* RNG restart to prove the
    // checkpoint is actually carrying the mid-stream position: a reseeded
    // run diverges, the restored run does not.
    let seed = 23;
    let mut reference = Scenario::new(false, seed);
    reference.run(None);

    let mut paused = Scenario::new(false, seed);
    paused.run(Some(SimTime::from_millis(110)));
    let json = paused.checkpoint_json();

    // Restored: identical.
    let mut resumed = Scenario::restore_json(&json, false);
    resumed.run(None);
    assert_eq!(resumed.deliveries, reference.deliveries);

    // Tampered: reset the RNG inside the checkpoint to its seed-fresh state
    // and the continuation visibly diverges — the stream position matters.
    let fresh = DetRng::new(seed).fork(0xFA017);
    let fresh_json = {
        let v: Value = serde_json::from_str(&json).unwrap();
        fn swap_rng(v: &Value, fresh: &Value) -> Value {
            match v {
                Value::Object(fields) => Value::Object(
                    fields
                        .iter()
                        .map(|(k, inner)| {
                            if k == "rng" {
                                (k.clone(), fresh.clone())
                            } else {
                                (k.clone(), swap_rng(inner, fresh))
                            }
                        })
                        .collect(),
                ),
                Value::Array(items) => {
                    Value::Array(items.iter().map(|i| swap_rng(i, fresh)).collect())
                }
                other => other.clone(),
            }
        }
        serde_json::to_string(&swap_rng(&v, &fresh.to_value())).unwrap()
    };
    let mut reseeded = Scenario::restore_json(&fresh_json, false);
    reseeded.run(None);
    assert_ne!(
        reseeded.deliveries, reference.deliveries,
        "a reseeded RNG must visibly diverge — otherwise this scenario \
         would not be testing the RNG capture at all"
    );
}
