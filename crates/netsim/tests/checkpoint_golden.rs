//! Golden checkpoint bytes.
//!
//! `docs/CHECKPOINT.md` promises canonical bytes: a given state always
//! encodes to the same text, and the layout changes only with a `VERSION`
//! bump. These tests pin that promise for two fixed sessions, each cut
//! mid-run with flows in flight: a max–min network with warm-start fill
//! records present, and a `SharingMode::Bottleneck` replay of the kind the
//! paper's predictions run. The constants are the length and FNV-1a hash
//! of the checkpoint text of checkpoint v4. Each v4 text equals its v3
//! predecessor with `engine_config`, `attached_flows` and the deleted
//! `flush_stats` counters removed and the version bumped: the simulated
//! state itself did not change.
//!
//! A mismatch means the encoder, the JSON writer or the simulation itself
//! changed what a checkpoint holds. If that is intended, bump
//! `checkpoint::VERSION` and re-record the constants in the same change.

use netsim::checkpoint;
use netsim::event::Scheduler;
use netsim::network::{Network, SharingMode};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use netsim::replay::{ProcessScript, ProtocolCosts, ReplayConfig, ReplayOp, ReplaySession};
use netsim::stream::StreamEvent;
use p2p_common::{Bandwidth, DataSize, HostId, SimDuration, SimTime};
use serde::Value;

/// 64-bit FNV-1a: a fixed, dependency-free digest of the checkpoint text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two racks of four hosts joined by a core link, with a slower second
/// core link between the rack switches: routes of one to three hops.
fn two_racks() -> (Platform, Vec<HostId>) {
    let mut b = PlatformBuilder::new();
    let access = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_micros(50));
    let core = LinkSpec::new(Bandwidth::from_mbps(250.0), SimDuration::from_micros(200));
    let backup = LinkSpec::new(Bandwidth::from_mbps(40.0), SimDuration::from_micros(900));
    let racks = [b.add_router("sw0"), b.add_router("sw1")];
    let mut hosts = Vec::new();
    for (r, &sw) in racks.iter().enumerate() {
        for i in 0..4 {
            let ip = format!("10.0.{r}.{}", i + 1).parse().unwrap();
            let h = b.add_host(format!("r{r}h{i}"), ip, HostSpec::default());
            b.add_host_link(format!("r{r}l{i}"), h, sw, access);
            hosts.push(h);
        }
    }
    b.add_link("core", racks[0], racks[1], core);
    b.add_link("backup", racks[0], racks[1], backup);
    (b.build(), hosts)
}

/// Entries of the encoded network's array field `name` that are not null.
fn non_null(envelope: &Value, name: &str) -> usize {
    envelope
        .get("network")
        .and_then(|n| n.get(name))
        .and_then(Value::as_array)
        .expect("network array field")
        .iter()
        .filter(|e| match e {
            Value::Null => false,
            Value::Object(_) => e.get("flow").is_none_or(|f| *f != Value::Null),
            _ => true,
        })
        .count()
}

fn assert_golden(text: &str, len: usize, hash: u64) {
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (len, hash),
        "checkpoint bytes changed (length, FNV-1a)"
    );
}

#[test]
fn maxmin_checkpoint_bytes_are_pinned() {
    let (platform, hosts) = two_racks();
    let mut net = Network::new(platform, SharingMode::MaxMinFair);
    let mut sched: Scheduler<StreamEvent> = Scheduler::new();
    for i in 0..24u64 {
        let src = hosts[(i as usize * 3) % 8];
        let dst = hosts[(i as usize * 5 + 1) % 8];
        if src == dst {
            continue;
        }
        sched.schedule_at(
            SimTime::from_micros(400 * i),
            StreamEvent::Arrive {
                src,
                dst,
                size: DataSize::from_bytes(150_000 + 37_000 * i),
                token: i,
            },
        );
    }
    for _ in 0..60 {
        let (_, ev) = sched.pop().expect("the cut lands mid-run");
        match ev {
            StreamEvent::Net(ne) => {
                net.on_event(&mut sched, ne);
            }
            StreamEvent::Arrive {
                src,
                dst,
                size,
                token,
            } => {
                net.start_flow(&mut sched, src, dst, size, token);
            }
        }
    }
    assert!(net.flows_in_flight() > 0);
    assert!(net.memory_footprint().warm_bytes > 0);

    let text = checkpoint::to_json(&net, &sched, Value::Null).unwrap();
    let envelope: Value = serde_json::from_str(&text).unwrap();
    assert!(non_null(&envelope, "slots") > 0, "flows in flight");
    assert!(non_null(&envelope, "warm_records") > 0, "warm records");
    assert_golden(&text, 13_441, 0x0327_7081_16dc_433f);

    let restored = checkpoint::from_json::<StreamEvent>(&text).unwrap();
    let again = checkpoint::to_json(&restored.network, &restored.scheduler, restored.world);
    assert_eq!(
        again.unwrap(),
        text,
        "a restore re-encodes to the same bytes"
    );
}

#[test]
fn bottleneck_replay_checkpoint_bytes_are_pinned() {
    let (platform, hosts) = two_racks();
    let n = 6;
    let scripts: Vec<ProcessScript> = (0..n)
        .map(|r| {
            let mut ops = vec![ReplayOp::Compute {
                duration: SimDuration::from_micros(300 + 70 * r as u64),
            }];
            for step in 0..3 {
                ops.push(ReplayOp::SendRecv {
                    to: (r + 1 + step) % n,
                    from: (r + n - 1 - step) % n,
                    bytes: 900_000 + 100_000 * r as u64,
                    tag: step as u32,
                });
            }
            ProcessScript { rank: r, ops }
        })
        .collect();
    let cfg = ReplayConfig {
        protocol: ProtocolCosts {
            header_bytes: 64,
            send_cpu: SimDuration::from_micros(20),
            recv_cpu: SimDuration::from_micros(20),
        },
        ..ReplayConfig::default()
    };
    assert_eq!(cfg.sharing, SharingMode::Bottleneck);
    let mut session = ReplaySession::new(platform, &hosts[..n], &scripts, &cfg).unwrap();
    session.run_until(Some(SimTime::from_micros(500)));
    assert!(!session.finished());

    let text = serde_json::to_string(&session.checkpoint()).unwrap();
    let envelope: Value = serde_json::from_str(&text).unwrap();
    assert!(non_null(&envelope, "slots") > 0, "messages in flight");
    assert_golden(&text, 7_282, 0x2e69_e799_34d0_60ef);

    let restored = ReplaySession::restore(&envelope).unwrap();
    let again = serde_json::to_string(&restored.checkpoint()).unwrap();
    assert_eq!(again, text, "a restore re-encodes to the same bytes");
}
