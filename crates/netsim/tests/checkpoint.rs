//! Restore-identity differential suite.
//!
//! The checkpoint contract (`docs/CHECKPOINT.md`) is that a simulation
//! restored from a checkpoint taken at *any* event boundary produces the
//! same deliveries at the same nanosecond timestamps as the uninterrupted
//! run. This suite proves it the same way the differential suite in
//! `tests/props.rs` proves warm ≡ cold: randomised workloads, an
//! adversarially chosen cut point, and bit-exact comparison of everything
//! observable afterwards.
//!
//! Each case runs the workload twice, under either sharing mode: once
//! uninterrupted, once popped to a random mid-run event index, serialized
//! through the *full JSON text path* (`checkpoint::to_json` →
//! `checkpoint::from_json`, so float formatting exactness is on trial too,
//! not just the in-memory `Value` tree), and then drained. Token →
//! completion-nanosecond maps must match exactly, as must the final network
//! statistics. The same cut is also restored from the older flow layout,
//! which stored a zeroed back-pointer per hop for flows not yet attached to
//! the link incidence lists.
//!
//! Two fixed workloads at the extremes of one flush — a funnel star whose
//! one component carries every flow, and a mirrored forest whose every
//! flush spans sixteen components — are cut mid-run as stream sessions
//! and must finish bit-identically after the restore.
//!
//! Decoding is also on trial against malformed input: truncated and
//! byte-mutated copies of a real mid-run checkpoint must come back as an
//! `Err` or a successful restore, never a panic.

use netsim::checkpoint;
use netsim::event::Scheduler;
use netsim::network::{Network, SharingMode};
use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder};
use netsim::stream::{StreamEvent, StreamSession};
use p2p_common::{Bandwidth, DataSize, HostId, SimDuration, SimTime};
use proptest::prelude::*;
use serde::Value;
use std::sync::OnceLock;

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

/// One randomised arrival: (arrival ms, src pick, dst offset, bytes).
type Arrival = (u64, usize, usize, u64);

/// Seed the scheduler with the workload's arrivals as events, so a cut can
/// land before an arrival has even fired and the checkpoint must carry it.
fn seed(sched: &mut Scheduler<StreamEvent>, workload: &[Arrival], hosts: usize) {
    for (token, &(ms, s, d, bytes)) in workload.iter().enumerate() {
        let src = s % hosts;
        let dst = (src + 1 + d % (hosts - 1)) % hosts;
        sched.schedule_at(
            SimTime::from_millis(ms),
            StreamEvent::Arrive {
                src: HostId::new(src as u32),
                dst: HostId::new(dst as u32),
                size: DataSize::from_bytes(bytes),
                token: token as u64,
            },
        );
    }
}

/// Pop and handle up to `max_events` events; record deliveries as
/// (token, completion nanos).
fn run(
    net: &mut Network,
    sched: &mut Scheduler<StreamEvent>,
    out: &mut Vec<(u64, u64)>,
    max_events: Option<usize>,
) {
    let mut n = 0usize;
    while let Some((_, ev)) = sched.pop() {
        match ev {
            StreamEvent::Net(ne) => {
                if let Some(d) = net.on_event(sched, ne) {
                    out.push((d.token, sched.now().as_nanos()));
                }
            }
            StreamEvent::Arrive {
                src,
                dst,
                size,
                token,
            } => {
                net.start_flow(sched, src, dst, size, token);
            }
        }
        n += 1;
        if Some(n) == max_events {
            return;
        }
    }
}

proptest! {
    /// Checkpoint at a random event index, restore through the JSON text
    /// path, drain: deliveries and stats must be bit-identical to the
    /// uninterrupted run.
    #[test]
    fn checkpoint_at_any_event_boundary_restores_bit_identically(
        workload in prop::collection::vec(
            (0u64..60, 0usize..64, 0usize..64, 50_000u64..1_500_000), 3..16),
        cut in 1usize..120,
        n_hosts in 3usize..7,
        bottleneck in any::<bool>(),
    ) {
        let mode = if bottleneck { SharingMode::Bottleneck } else { SharingMode::MaxMinFair };
        // Uninterrupted reference run.
        let mut net = Network::new(star(n_hosts), mode);
        let mut sched: Scheduler<StreamEvent> = Scheduler::new();
        seed(&mut sched, &workload, n_hosts);
        let mut want = Vec::new();
        run(&mut net, &mut sched, &mut want, None);
        let want_stats = net.stats().clone();

        // Interrupted run: stop after `cut` events, checkpoint through the
        // JSON text round-trip, resume in fresh objects.
        let mut net_a = Network::new(star(n_hosts), mode);
        let mut sched_a: Scheduler<StreamEvent> = Scheduler::new();
        seed(&mut sched_a, &workload, n_hosts);
        let mut before_cut = Vec::new();
        run(&mut net_a, &mut sched_a, &mut before_cut, Some(cut));

        let json = checkpoint::to_json(&net_a, &sched_a, Value::Null).unwrap();
        // Every route on the star has two hops (source access link, then
        // destination access link) and sources never equal destinations.
        let legacy = json.replace("\"link_pos\":[]", "\"link_pos\":[0,0]");
        for text in [&json, &legacy] {
            let restored = checkpoint::from_json::<StreamEvent>(text).unwrap();
            let mut net_b = restored.network;
            let mut sched_b = restored.scheduler;
            prop_assert_eq!(sched_b.now(), sched_a.now());
            prop_assert_eq!(&checkpoint::to_json(&net_b, &sched_b, Value::Null).unwrap(), &json,
                "restore did not re-encode canonically at event {}", cut);

            let mut got = before_cut.clone();
            run(&mut net_b, &mut sched_b, &mut got, None);
            prop_assert_eq!(&got, &want, "diverged after restore at event {}", cut);
            prop_assert_eq!(net_b.stats(), &want_stats,
                "stats diverged after restore at event {}", cut);
        }
    }

    /// Checkpoint bytes are canonical: checkpointing, restoring, and
    /// checkpointing again yields the identical JSON text.
    #[test]
    fn checkpoint_encoding_is_stable_across_a_round_trip(
        workload in prop::collection::vec(
            (0u64..40, 0usize..64, 0usize..64, 50_000u64..800_000), 2..10),
        cut in 1usize..60,
    ) {
        let hosts = 5;
        let mut net = Network::new(star(hosts), SharingMode::MaxMinFair);
        let mut sched: Scheduler<StreamEvent> = Scheduler::new();
        seed(&mut sched, &workload, hosts);
        let mut sink = Vec::new();
        run(&mut net, &mut sched, &mut sink, Some(cut));

        let first = checkpoint::to_json(&net, &sched, Value::Null).unwrap();
        let restored = checkpoint::from_json::<StreamEvent>(&first).unwrap();
        let second = checkpoint::to_json(
            &restored.network, &restored.scheduler, Value::Null).unwrap();
        prop_assert_eq!(first, second);
    }

    /// Malformed checkpoints fail cleanly: every truncated prefix and
    /// single-byte mutation of a real mid-run checkpoint's JSON, fed through
    /// both `checkpoint::from_json` and `StreamSession::restore`, yields an
    /// `Err` or a successful restore — never a panic.
    #[test]
    fn malformed_checkpoints_are_rejected_without_panicking(
        cuts in prop::collection::vec(any::<u64>(), 4..8),
        mutations in prop::collection::vec((any::<u64>(), 0usize..MUTANTS.len()), 4..8),
    ) {
        let text = mid_run_checkpoint();
        for &c in &cuts {
            decode_both(&text[..(c % text.len() as u64) as usize]);
        }
        for &(at, with) in &mutations {
            let mut bytes = text.as_bytes().to_vec();
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] = MUTANTS[with];
            // The checkpoint text is ASCII, so a one-byte ASCII swap keeps
            // it valid UTF-8.
            decode_both(std::str::from_utf8(&bytes).expect("ASCII stays UTF-8"));
        }
    }
}

/// Replacement bytes for the mutation property: JSON structure, digits,
/// signs, exponents and letters that turn keywords into garbage.
const MUTANTS: &[u8] = b"0123456789-+.eE\"{}[],: nulftrx";

/// JSON text of a stream session checkpointed mid-run on a six-host star:
/// flows in flight, warm records, pending arrivals and completions.
fn mid_run_checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let hosts = 6;
        let mut s = StreamSession::new(star(hosts), SharingMode::MaxMinFair);
        for i in 0..12u64 {
            let src = (i as usize) % hosts;
            let dst = (src + 1 + (i as usize * 7) % (hosts - 1)) % hosts;
            s.inject(
                SimTime::from_millis(4 * i),
                HostId::new(src as u32),
                HostId::new(dst as u32),
                DataSize::from_bytes(200_000 + 90_000 * i),
                i,
            )
            .unwrap();
        }
        s.advance_to(SimTime::from_millis(30));
        assert!(s.flows_in_flight() > 0, "the cut must land mid-run");
        let text = serde_json::to_string(&s.checkpoint()).unwrap();
        assert!(text.is_ascii());
        text
    })
}

/// Decode `text` both ways; any outcome but a panic is acceptable.
fn decode_both(text: &str) {
    let _ = checkpoint::from_json::<StreamEvent>(text);
    if let Ok(v) = serde_json::from_str::<Value>(text) {
        let _ = StreamSession::restore(&v);
    }
}

/// The envelope is strict about identity: foreign formats and versions are
/// refused before any state field is parsed.
#[test]
fn foreign_envelopes_are_rejected() {
    let net = Network::new(star(3), SharingMode::MaxMinFair);
    let sched: Scheduler<StreamEvent> = Scheduler::new();
    let json = checkpoint::to_json(&net, &sched, Value::Null).unwrap();

    let current = format!("\"version\":{}", checkpoint::VERSION);
    assert!(json.contains(&current), "envelope must carry the version");
    let wrong_version = json.replace(&current, "\"version\":999");
    let err = match checkpoint::from_json::<StreamEvent>(&wrong_version) {
        Err(e) => e,
        Ok(_) => panic!("foreign version must be rejected"),
    };
    assert!(err.to_string().contains("version"), "got: {err}");

    let wrong_format = json.replace("netsim-checkpoint", "someone-elses-format");
    let err = match checkpoint::from_json::<StreamEvent>(&wrong_format) {
        Err(e) => e,
        Ok(_) => panic!("foreign format must be rejected"),
    };
    assert!(err.to_string().contains("format"), "got: {err}");
}

/// Older layouts are strictly rejected by their version stamp alone —
/// decode never guesses at field migrations. v1 carried separate `engine` /
/// `shard_threads` / `parallel_min_flows` network fields; v2 carried
/// `engine_config.engine` and `flush_stats.rebuilds`.
#[test]
fn v1_and_v2_envelopes_are_rejected_not_migrated() {
    let net = Network::new(star(3), SharingMode::MaxMinFair);
    let sched: Scheduler<StreamEvent> = Scheduler::new();
    let json = checkpoint::to_json(&net, &sched, Value::Null).unwrap();
    assert_eq!(checkpoint::VERSION, 5, "update this test on a version bump");
    for old in [1u64, 2] {
        let downgraded = json.replace(
            &format!("\"version\":{}", checkpoint::VERSION),
            &format!("\"version\":{old}"),
        );
        let err = match checkpoint::from_json::<StreamEvent>(&downgraded) {
            Err(e) => e,
            Ok(_) => panic!("v{old} envelope must be rejected"),
        };
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {old}")) && msg.contains("expected 5"),
            "rejection must name both versions: {msg}"
        );
    }
}

/// Add `(key, value)` to the object at `path` inside `v`.
fn insert_at(v: &mut Value, path: &[&str], key: &str, value: Value) {
    let Value::Object(fields) = v else {
        panic!("not an object");
    };
    match path.split_first() {
        None => fields.push((key.to_owned(), value)),
        Some((head, rest)) => {
            let (_, inner) = fields
                .iter_mut()
                .find(|(k, _)| k == head)
                .expect("path exists");
            insert_at(inner, rest, key, value);
        }
    }
}

/// A v3-shaped envelope — version 3, with v3's `engine_config`,
/// `attached_flows` and pool counters present (abridged) — is rejected
/// with an `Err` naming both versions, not decoded by ignoring the extra
/// fields.
#[test]
fn v3_envelopes_are_rejected_not_migrated() {
    let mut v: Value = serde_json::from_str(mid_run_checkpoint()).unwrap();
    let Value::Object(fields) = &mut v else {
        panic!("envelope is an object");
    };
    for (k, val) in fields.iter_mut() {
        if k == "version" {
            *val = Value::UInt(3);
        }
    }
    let engine_config = Value::Object(vec![
        ("workers".to_owned(), Value::UInt(0)),
        ("split_min_flows".to_owned(), Value::UInt(0)),
    ]);
    insert_at(&mut v, &["network"], "engine_config", engine_config);
    insert_at(&mut v, &["network"], "attached_flows", Value::UInt(3));
    for counter in [
        "parallel_flushes",
        "shards_dispatched",
        "flushes_dispatched",
        "steals",
        "park_wakeups",
    ] {
        insert_at(&mut v, &["network", "flush_stats"], counter, Value::UInt(0));
    }
    let text = serde_json::to_string(&v).unwrap();
    let err = match checkpoint::from_json::<StreamEvent>(&text) {
        Err(e) => e,
        Ok(_) => panic!("a v3 envelope must be rejected"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("version 3") && msg.contains("expected 5"),
        "rejection must name both versions: {msg}"
    );
    assert!(StreamSession::restore(&v).is_err());
}

/// The value at `path` inside `v`.
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, key| {
        let Value::Object(fields) = v else {
            panic!("not an object");
        };
        &mut fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("path exists")
            .1
    })
}

/// The encoded flows in flight of an envelope.
fn flows(v: &mut Value) -> Vec<&mut Value> {
    let Value::Array(slots) = at(v, &["network", "slots"]) else {
        panic!("slots is an array");
    };
    slots
        .iter_mut()
        .map(|slot| at(slot, &["flow"]))
        .filter(|f| **f != Value::Null)
        .collect()
}

/// A v4-shaped envelope — version 4, with the network's `compaction` and
/// `compactions`, the scheduler's `dead` counter, and each flow's `version`
/// and `pending_completion` in place of `completion` — is rejected with an
/// `Err` naming both versions, not decoded by ignoring or defaulting the
/// fields.
#[test]
fn v4_envelopes_are_rejected_not_migrated() {
    let mut v: Value = serde_json::from_str(mid_run_checkpoint()).unwrap();
    *at(&mut v, &["version"]) = Value::UInt(4);
    let policy = Value::Object(vec![
        ("dead_per_live".to_owned(), Value::UInt(4)),
        ("min_dead".to_owned(), Value::UInt(64)),
    ]);
    insert_at(&mut v, &["network"], "compaction", policy);
    insert_at(&mut v, &["network"], "compactions", Value::UInt(0));
    insert_at(&mut v, &["scheduler"], "dead", Value::UInt(0));
    for flow in flows(&mut v) {
        let Value::Object(fields) = flow else {
            panic!("a flow is an object");
        };
        let pending = fields
            .iter()
            .any(|(k, c)| k == "completion" && *c != Value::Null);
        fields.retain(|(k, _)| k != "completion");
        fields.push(("version".to_owned(), Value::UInt(1)));
        fields.push(("pending_completion".to_owned(), Value::Bool(pending)));
    }
    let text = serde_json::to_string(&v).unwrap();
    let err = match checkpoint::from_json::<StreamEvent>(&text) {
        Err(e) => e,
        Ok(_) => panic!("a v4 envelope must be rejected"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("version 4") && msg.contains("expected 5"),
        "rejection must name both versions: {msg}"
    );
    assert!(StreamSession::restore(&v).is_err());
}

/// A restore checks the pending completions against the flows both ways:
/// a pending `FlowCompletion` must name a flow in flight whose stored
/// `completion` is that entry's seq, and every stored completion must be
/// pending. Each tampered copy of a real mid-run checkpoint is refused.
#[test]
fn restore_rejects_completions_that_do_not_match_the_flows() {
    let good: Value = serde_json::from_str(mid_run_checkpoint()).unwrap();
    assert!(checkpoint::decode::<StreamEvent>(&good).is_ok());
    // The first pending completion: its index, seq and flow.
    let mut probe = good.clone();
    let Value::Array(pending) = at(&mut probe, &["scheduler", "pending"]) else {
        panic!("pending is an array");
    };
    let (index, seq, flow) = pending
        .iter()
        .enumerate()
        .find_map(|(i, e)| {
            let flow = e.as_array()?[2]
                .get("Net")?
                .get("FlowCompletion")?
                .get("flow")?;
            Some((i, e.as_array()?[1].as_u64()?, flow.as_u64()?))
        })
        .expect("the cut has a completion pending");
    fn completion_of(v: &mut Value, flow: u64) -> &mut Value {
        let f = flows(v)
            .into_iter()
            .find(|f| f.get("id").and_then(Value::as_u64) == Some(flow))
            .expect("the flow is in flight");
        at(f, &["completion"])
    }
    assert_eq!(completion_of(&mut probe, flow).as_u64(), Some(seq));
    let seq_counter = at(&mut probe, &["scheduler", "seq"]).as_u64().unwrap();

    type Tamper = Box<dyn Fn(&mut Value)>;
    let cases: Vec<(&str, Tamper)> = vec![
        (
            "the flow stores another seq",
            Box::new(move |v| *completion_of(v, flow) = Value::UInt(seq_counter + 5)),
        ),
        (
            "the flow stores none",
            Box::new(move |v| *completion_of(v, flow) = Value::Null),
        ),
        (
            "the entry is missing",
            Box::new(move |v| {
                let Value::Array(pending) = at(v, &["scheduler", "pending"]) else {
                    panic!("pending is an array");
                };
                pending.remove(index);
            }),
        ),
        (
            "a second entry names the flow",
            Box::new(move |v| {
                *at(v, &["scheduler", "seq"]) = Value::UInt(seq_counter + 1);
                let Value::Array(pending) = at(v, &["scheduler", "pending"]) else {
                    panic!("pending is an array");
                };
                let mut extra = pending[index].clone();
                let Value::Array(triple) = &mut extra else {
                    panic!("an entry is a triple");
                };
                triple[1] = Value::UInt(seq_counter);
                pending.push(extra);
            }),
        ),
        (
            "the entry names a flow not in flight",
            Box::new(move |v| {
                let Value::Array(pending) = at(v, &["scheduler", "pending"]) else {
                    panic!("pending is an array");
                };
                let Value::Array(triple) = &mut pending[index] else {
                    panic!("an entry is a triple");
                };
                *at(&mut triple[2], &["Net", "FlowCompletion", "flow"]) =
                    Value::UInt(flow + (1 << 32));
            }),
        ),
    ];
    for (what, tamper) in cases {
        let mut v = good.clone();
        tamper(&mut v);
        let err = match checkpoint::decode::<StreamEvent>(&v) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{what}: the checkpoint must be rejected"),
        };
        assert!(err.contains("completion"), "{what}: {err}");
        assert!(StreamSession::restore(&v).is_err(), "{what}");
    }
}

/// One arrival of a fixed workload: (src, dst, bytes, arrival µs).
type Timed = (HostId, HostId, u64, u64);

/// A session with `flows` injected as arrivals.
fn streamed(platform: Platform, flows: &[Timed]) -> StreamSession {
    let mut s = StreamSession::new(platform, SharingMode::MaxMinFair);
    for (i, &(src, dst, bytes, at_us)) in flows.iter().enumerate() {
        s.inject(
            SimTime::ZERO + SimDuration::from_micros(at_us),
            src,
            dst,
            DataSize::from_bytes(bytes),
            i as u64,
        )
        .expect("arrival in the future");
    }
    s
}

/// Cut a session mid-run, restore it and finish it: every delivery must
/// match the uninterrupted run's to the nanosecond, and two identical runs
/// must checkpoint to identical bytes.
fn assert_mid_run_restore(platform: impl Fn() -> Platform, flows: &[Timed]) {
    let mut uninterrupted = streamed(platform(), flows);
    let mut tail = uninterrupted.quiesce();

    let cut = SimTime::ZERO + SimDuration::from_millis(40);
    let mut original = streamed(platform(), flows);
    let mut twin = streamed(platform(), flows);
    let mut head = original.advance_to(cut);
    twin.advance_to(cut);
    assert!(
        original.flows_in_flight() > 0 && original.network().flush_stats().warm_starts > 0,
        "the cut must land mid-churn, with warm starts behind it"
    );
    let envelope = original.checkpoint();
    assert_eq!(
        serde_json::to_string(&envelope).unwrap(),
        serde_json::to_string(&twin.checkpoint()).unwrap(),
        "identical runs must checkpoint byte-identically"
    );
    let mut restored = StreamSession::restore(&envelope).expect("restore");
    assert_eq!(
        restored.network().flush_stats(),
        original.network().flush_stats()
    );
    head.extend(restored.quiesce());

    let key = |d: &netsim::DeliveryRecord| (d.token, d.completed_at);
    tail.sort_by_key(key);
    head.sort_by_key(key);
    assert_eq!(
        head.len(),
        flows.len(),
        "restored run must deliver every flow"
    );
    assert_eq!(tail.len(), flows.len());
    for (x, y) in head.iter().zip(&tail) {
        assert_eq!(key(x), key(y), "restored deliveries diverged");
    }
}

/// One funnel component: every flow from a 48-host star into `h0`,
/// arriving 50 µs apart.
fn funnel_star_flows() -> Vec<Timed> {
    (0..320u64)
        .map(|i| {
            (
                HostId::new((i % 47 + 1) as u32),
                HostId::new(0),
                50_000 + (i * 17_977) % 450_000,
                50 * i,
            )
        })
        .collect()
}

#[test]
fn mid_run_restore_is_bit_identical_on_the_funnel_star() {
    assert_mid_run_restore(|| star(48), &funnel_star_flows());
}

/// Checkpoint bytes are a pure function of simulation state: two runs of
/// the funnel star cut at the same instant — mid-churn, with warm starts
/// and their records behind them — encode byte-identically.
#[test]
fn checkpoint_bytes_are_deterministic_on_the_funnel_star() {
    let flows = funnel_star_flows();
    let cut = SimTime::ZERO + SimDuration::from_millis(40);
    let mut a = streamed(star(48), &flows);
    let mut b = streamed(star(48), &flows);
    a.advance_to(cut);
    b.advance_to(cut);
    assert!(
        a.flows_in_flight() > 0 && a.network().flush_stats().warm_starts > 0,
        "the cut must land mid-churn, with warm starts behind it"
    );
    let ja = serde_json::to_string(&a.checkpoint()).unwrap();
    let jb = serde_json::to_string(&b.checkpoint()).unwrap();
    assert_eq!(ja, jb, "identical runs must checkpoint byte-identically");
}

/// Sixteen identical trees with the same flow pattern and arrival times:
/// every flush spans every tree still busy.
#[test]
fn mid_run_restore_is_bit_identical_on_the_mirrored_forest() {
    let topo = || netsim::dslam_forest_mirrored(16, 8, HostSpec::default(), 3);
    let forest = topo();
    let mut flows = Vec::new();
    for t in 0..forest.components.len() {
        let tree = forest.component_hosts(t);
        for i in 0..20usize {
            let src = (i * 5 + 1) % tree.len();
            let dst = (i * 11 + tree.len() / 2) % tree.len();
            let dst = if dst == src {
                (dst + 1) % tree.len()
            } else {
                dst
            };
            let bytes = 50_000 + (i as u64 * 17_977) % 450_000;
            flows.push((tree[src], tree[dst], bytes, 500 * i as u64));
        }
    }
    assert_mid_run_restore(|| topo().platform, &flows);
}
