//! Trace files.
//!
//! Running the instrumented code produces "a set of trace files for each
//! execution and per participating process or node. Traces contain computation
//! time measured using hardware counters and expressed in nanoseconds,
//! followed by relevant parameters for communication calls" (§III-D.2).
//!
//! [`TraceSet`] is that set of files: one [`ProcessTrace`] per rank, each a
//! list of [`TraceEvent`]s. Traces are loop-structured: an instrumented loop
//! is one [`TraceEvent::Repeat`] holding the events of a single iteration and
//! the trip count, because dPerf benchmarks each block once per loop and
//! scales it by how often it runs (§III-D.2). A 900-sweep solver therefore
//! writes one sweep, not 900. The counting methods ([`TraceSet::event_count`],
//! [`ProcessTrace::sends`], …) report the unrolled figures. Traces serialise
//! to JSON (human-readable and diffable — the reproduction's analogue of
//! dPerf's text trace format; flat traces without loops read as before) and
//! convert directly into `netsim` replay scripts, loops included.

use netsim::{ProcessScript, ReplayOp};
use p2p_common::SimDuration;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// One event of a process trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The process computed for `ns` nanoseconds inside block `block`.
    Compute {
        /// Measured/modelled duration in nanoseconds.
        ns: u64,
        /// Name of the block (instrumentation site). Interned: every event
        /// of a block shares one allocation instead of cloning a `String`
        /// per event (compute events dominate large traces).
        block: Arc<str>,
    },
    /// The process sent `bytes` bytes to rank `to` with tag `tag`.
    Send {
        /// Destination rank.
        to: usize,
        /// Payload bytes.
        bytes: u64,
        /// Message tag.
        tag: u32,
    },
    /// The process waited for a message from rank `from` with tag `tag`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u32,
    },
    /// The events of `body` happened `count` times in a row: one
    /// instrumented loop, its blocks benchmarked once.
    Repeat {
        /// Trip count of the loop.
        count: u64,
        /// The events of one iteration.
        body: Vec<TraceEvent>,
    },
}

/// Sum `f` over `events` with loops unrolled: a loop contributes its body's
/// sum times its trip count (saturating).
fn unrolled_sum(events: &[TraceEvent], f: &impl Fn(&TraceEvent) -> u64) -> u64 {
    events
        .iter()
        .map(|e| match e {
            TraceEvent::Repeat { count, body } => unrolled_sum(body, f).saturating_mul(*count),
            other => f(other),
        })
        .fold(0, u64::saturating_add)
}

/// Append the replay ops of `events` to `ops`, one `Repeat` per loop.
/// Loops with nothing to replay are dropped.
fn push_replay_ops(events: &[TraceEvent], ops: &mut Vec<ReplayOp>) {
    for e in events {
        match e {
            TraceEvent::Compute { ns, .. } => ops.push(ReplayOp::Compute {
                duration: SimDuration::from_nanos(*ns),
            }),
            TraceEvent::Send { to, bytes, tag } => ops.push(ReplayOp::Send {
                to: *to,
                bytes: *bytes,
                tag: *tag,
            }),
            TraceEvent::Recv { from, tag } => ops.push(ReplayOp::Recv {
                from: *from,
                tag: *tag,
            }),
            TraceEvent::Repeat { count, body } => {
                let head = ops.len();
                ops.push(ReplayOp::Repeat {
                    count: *count,
                    len: 0,
                });
                push_replay_ops(body, ops);
                let body_len = ops.len() - head - 1;
                if body_len == 0 {
                    ops.pop();
                } else {
                    ops[head] = ReplayOp::Repeat {
                        count: *count,
                        len: body_len,
                    };
                }
            }
        }
    }
}

/// The trace of one process (rank).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessTrace {
    /// Rank of the process.
    pub rank: usize,
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

impl ProcessTrace {
    /// Number of events, loops unrolled.
    pub fn event_count(&self) -> u64 {
        unrolled_sum(&self.events, &|_| 1)
    }

    /// Total recorded computation time.
    pub fn compute_time(&self) -> SimDuration {
        SimDuration::from_nanos(unrolled_sum(&self.events, &|e| match e {
            TraceEvent::Compute { ns, .. } => *ns,
            _ => 0,
        }))
    }

    /// Number of messages this rank sends.
    pub fn sends(&self) -> usize {
        unrolled_sum(&self.events, &|e| {
            u64::from(matches!(e, TraceEvent::Send { .. }))
        }) as usize
    }

    /// Number of receives this rank posts.
    pub fn recvs(&self) -> usize {
        unrolled_sum(&self.events, &|e| {
            u64::from(matches!(e, TraceEvent::Recv { .. }))
        }) as usize
    }

    /// The events with every loop written out, for tests to search.
    #[cfg(test)]
    pub(crate) fn unrolled(&self) -> Vec<TraceEvent> {
        fn unroll(events: &[TraceEvent], out: &mut Vec<TraceEvent>) {
            for e in events {
                match e {
                    TraceEvent::Repeat { count, body } => {
                        for _ in 0..*count {
                            unroll(body, out);
                        }
                    }
                    other => out.push(other.clone()),
                }
            }
        }
        let mut out = Vec::new();
        unroll(&self.events, &mut out);
        out
    }

    /// Convert to a `netsim` replay script.
    pub fn to_replay_script(&self) -> ProcessScript {
        let mut ops = Vec::new();
        push_replay_ops(&self.events, &mut ops);
        ProcessScript {
            rank: self.rank,
            ops,
        }
    }
}

/// A complete set of traces for one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSet {
    /// Application name.
    pub app: String,
    /// Number of processes.
    pub nprocs: usize,
    /// GCC optimisation level label the traced binary was built with.
    pub opt_level: String,
    /// One trace per rank (index = rank).
    pub traces: Vec<ProcessTrace>,
}

impl TraceSet {
    /// Total number of events across all ranks, loops unrolled.
    pub fn event_count(&self) -> usize {
        self.traces.iter().map(|t| t.event_count() as usize).sum()
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> usize {
        self.traces.iter().map(|t| t.sends()).sum()
    }

    /// The largest per-rank compute time (lower bound on the execution time).
    pub fn max_compute_time(&self) -> SimDuration {
        self.traces
            .iter()
            .map(|t| t.compute_time())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Convert every trace to a replay script, ordered by rank.
    pub fn to_replay_scripts(&self) -> Vec<ProcessScript> {
        self.traces.iter().map(|t| t.to_replay_script()).collect()
    }

    /// Serialise to a pretty JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace sets always serialise")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<TraceSet, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Write the trace set to a file.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Read a trace set back from a file.
    pub fn read_from(path: impl AsRef<Path>) -> io::Result<TraceSet> {
        let text = fs::read_to_string(path)?;
        TraceSet::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Basic consistency checks: ranks are dense and in order, every send has
    /// a matching receive (same pair and tag, equal multiplicity) and vice
    /// versa. Returns a list of human-readable problems (empty = consistent).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.traces.len() != self.nprocs {
            problems.push(format!(
                "declared {} processes but contains {} traces",
                self.nprocs,
                self.traces.len()
            ));
        }
        for (i, t) in self.traces.iter().enumerate() {
            if t.rank != i {
                problems.push(format!("trace {i} declares rank {}", t.rank));
            }
        }
        use std::collections::HashMap;
        /// Add `times` × each message of `events` to the balance: +1 per
        /// send, −1 per receive, keyed by `(from, to, tag)`.
        fn tally(
            rank: usize,
            events: &[TraceEvent],
            times: i128,
            sends: &mut HashMap<(usize, usize, u32), i128>,
        ) {
            for e in events {
                match e {
                    TraceEvent::Send { to, tag, .. } => {
                        *sends.entry((rank, *to, *tag)).or_default() += times;
                    }
                    TraceEvent::Recv { from, tag } => {
                        *sends.entry((*from, rank, *tag)).or_default() -= times;
                    }
                    TraceEvent::Repeat { count, body } => {
                        tally(rank, body, times.saturating_mul(i128::from(*count)), sends);
                    }
                    TraceEvent::Compute { .. } => {}
                }
            }
        }
        let mut sends = HashMap::new();
        for t in &self.traces {
            tally(t.rank, &t.events, 1, &mut sends);
        }
        for ((from, to, tag), balance) in sends {
            if balance != 0 {
                problems.push(format!(
                    "unbalanced messages {from} -> {to} tag {tag}: {balance:+}"
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSet {
        TraceSet {
            app: "demo".into(),
            nprocs: 2,
            opt_level: "3".into(),
            traces: vec![
                ProcessTrace {
                    rank: 0,
                    events: vec![
                        TraceEvent::Compute {
                            ns: 1_000_000,
                            block: "sweep".into(),
                        },
                        TraceEvent::Send {
                            to: 1,
                            bytes: 9600,
                            tag: 1,
                        },
                        TraceEvent::Recv { from: 1, tag: 1 },
                    ],
                },
                ProcessTrace {
                    rank: 1,
                    events: vec![
                        TraceEvent::Compute {
                            ns: 2_000_000,
                            block: "sweep".into(),
                        },
                        TraceEvent::Send {
                            to: 0,
                            bytes: 9600,
                            tag: 1,
                        },
                        TraceEvent::Recv { from: 0, tag: 1 },
                    ],
                },
            ],
        }
    }

    #[test]
    fn aggregates_are_computed() {
        let ts = sample();
        assert_eq!(ts.event_count(), 6);
        assert_eq!(ts.total_messages(), 2);
        assert_eq!(ts.max_compute_time(), SimDuration::from_millis(2));
        assert_eq!(ts.traces[0].sends(), 1);
        assert_eq!(ts.traces[0].recvs(), 1);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let ts = sample();
        let json = ts.to_json();
        let back = TraceSet::from_json(&json).unwrap();
        assert_eq!(ts, back);
    }

    #[test]
    fn file_round_trip() {
        let ts = sample();
        let dir = std::env::temp_dir().join("dperf-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.json");
        ts.write_to(&path).unwrap();
        let back = TraceSet::read_from(&path).unwrap();
        assert_eq!(ts, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_scripts_mirror_the_events() {
        let ts = sample();
        let scripts = ts.to_replay_scripts();
        assert_eq!(scripts.len(), 2);
        assert_eq!(scripts[0].rank, 0);
        assert_eq!(scripts[0].ops.len(), 3);
        assert!(matches!(scripts[0].ops[0], ReplayOp::Compute { .. }));
        assert!(matches!(
            scripts[0].ops[1],
            ReplayOp::Send {
                to: 1,
                bytes: 9600,
                tag: 1
            }
        ));
        assert!(matches!(
            scripts[0].ops[2],
            ReplayOp::Recv { from: 1, tag: 1 }
        ));
    }

    #[test]
    fn validate_accepts_balanced_traces_and_flags_imbalance() {
        let ts = sample();
        assert!(ts.validate().is_empty());
        let mut broken = ts.clone();
        broken.traces[0].events.push(TraceEvent::Send {
            to: 1,
            bytes: 1,
            tag: 9,
        });
        let problems = broken.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("tag 9"));
        let mut misnumbered = ts;
        misnumbered.traces[1].rank = 5;
        assert!(!misnumbered.validate().is_empty());
    }

    /// The two-rank sample as a 50-sweep loop between a set-up block and
    /// a final exchange, with a nested inner loop in rank 1's sweep.
    fn looped() -> TraceSet {
        let mut ts = sample();
        for t in &mut ts.traces {
            let sweep = std::mem::take(&mut t.events);
            let mut body = sweep.clone();
            if t.rank == 1 {
                body.insert(
                    0,
                    TraceEvent::Repeat {
                        count: 3,
                        body: vec![TraceEvent::Compute {
                            ns: 7_000,
                            block: "inner".into(),
                        }],
                    },
                );
            }
            t.events = vec![
                TraceEvent::Compute {
                    ns: 5_000,
                    block: "setup".into(),
                },
                TraceEvent::Repeat { count: 50, body },
                TraceEvent::Repeat {
                    count: 0,
                    body: sweep.clone(),
                },
            ];
            t.events.extend(sweep);
        }
        ts
    }

    fn flattened(ts: &TraceSet) -> TraceSet {
        let mut flat = ts.clone();
        for t in &mut flat.traces {
            t.events = t.unrolled();
        }
        flat
    }

    #[test]
    fn a_flat_trace_file_from_before_loops_still_reads() {
        let json = r#"{"app":"demo","nprocs":2,"opt_level":"3","traces":[{"rank":0,"events":[{"Compute":{"ns":1000000,"block":"sweep"}},{"Send":{"to":1,"bytes":9600,"tag":1}},{"Recv":{"from":1,"tag":1}}]},{"rank":1,"events":[{"Compute":{"ns":2000000,"block":"sweep"}},{"Send":{"to":0,"bytes":9600,"tag":1}},{"Recv":{"from":0,"tag":1}}]}]}"#;
        assert_eq!(TraceSet::from_json(json).unwrap(), sample());
    }

    #[test]
    fn loop_traces_round_trip_and_count_like_their_unrolled_form() {
        let ts = looped();
        let flat = flattened(&ts);
        assert_eq!(TraceSet::from_json(&ts.to_json()).unwrap(), ts);
        assert_eq!(ts.event_count(), flat.event_count());
        assert_eq!(ts.event_count(), 1 + 50 * 3 + 3 + 1 + 50 * 3 + 3 + 50 * 3);
        assert_eq!(ts.total_messages(), flat.total_messages());
        assert_eq!(ts.max_compute_time(), flat.max_compute_time());
        for (t, f) in ts.traces.iter().zip(&flat.traces) {
            assert_eq!(t.event_count(), f.events.len() as u64);
            assert_eq!(t.sends(), f.sends());
            assert_eq!(t.recvs(), f.recvs());
            assert_eq!(t.compute_time(), f.compute_time());
        }
        assert!(ts.validate().is_empty());
        // An unmatched send inside the loop counts 50 times.
        let mut broken = ts.clone();
        if let TraceEvent::Repeat { body, .. } = &mut broken.traces[0].events[1] {
            body.push(TraceEvent::Send {
                to: 1,
                bytes: 1,
                tag: 9,
            });
        }
        assert_eq!(
            broken.validate(),
            vec!["unbalanced messages 0 -> 1 tag 9: +50"]
        );
    }

    #[test]
    fn loop_traces_replay_like_their_unrolled_form() {
        use netsim::{cluster_bordeplage, replay, HostSpec, ReplayConfig};
        let ts = looped();
        let scripts = ts.to_replay_scripts();
        // The empty-count loop is kept; the rest is one header per loop.
        assert!(matches!(
            scripts[0].ops[1],
            ReplayOp::Repeat { count: 50, len: 3 }
        ));
        let topo = cluster_bordeplage(2, HostSpec::default());
        let cfg = ReplayConfig::default();
        let got = replay(topo.platform.clone(), &topo.hosts, &scripts, &cfg).unwrap();
        let want = replay(
            topo.platform,
            &topo.hosts,
            &flattened(&ts).to_replay_scripts(),
            &cfg,
        )
        .unwrap();
        assert_eq!(got.finish_times, want.finish_times);
        assert_eq!(got.compute_time, want.compute_time);
        assert_eq!(got.wait_time, want.wait_time);
        assert_eq!(got.messages_sent, want.messages_sent);
        assert_eq!(got.net_stats, want.net_stats);
    }
}
