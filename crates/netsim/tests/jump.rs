//! The periodic fast-forward against the event-by-event replay.
//!
//! A `Bottleneck` replay of a loop-structured script may skip whole periods
//! of its outermost loop once the replay state repeats (see the module docs
//! of `netsim::replay`). The oracle is the same script with every loop
//! written out: a loop-free replay never searches for a period, so it runs
//! every event. Both must agree in every field of the `ReplayResult`, to
//! the nanosecond and the byte.
//!
//! The scripts are the communication shapes of iterative solvers — rings,
//! halo-exchange stencils, gather/broadcast reductions, and stencils with a
//! reduction (the paper's obstacle solver) — with uneven per-rank compute,
//! optionally a nested inner loop, work before and after the loop, and
//! P2PSAP-like protocol costs. Trip counts cover the edges: 0, 1, a few
//! iterations (inside the transient, or one past it) and 900, the paper's
//! sweep count.

use netsim::replay::{replay, ProcessScript, ProtocolCosts, ReplayConfig, ReplayOp, ReplayResult};
use netsim::{cluster_bordeplage, daisy_xdsl, HostSpec, ReplaySession};
use p2p_common::SimDuration;
use proptest::prelude::*;

/// `ops` with every loop written out.
fn unroll(ops: &[ReplayOp]) -> Vec<ReplayOp> {
    let mut out = Vec::new();
    let mut pc = 0;
    while pc < ops.len() {
        match ops[pc] {
            ReplayOp::Repeat { count, len } => {
                let body = unroll(&ops[pc + 1..pc + 1 + len]);
                for _ in 0..count {
                    out.extend_from_slice(&body);
                }
                pc += 1 + len;
            }
            op => {
                out.push(op);
                pc += 1;
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Ring,
    Stencil,
    Reduction,
    StencilReduction,
}

/// One iteration of `shape` for rank `r` of `n`.
fn body(shape: Shape, r: usize, n: usize, compute: SimDuration, bytes: u64) -> Vec<ReplayOp> {
    let mut ops = vec![ReplayOp::Compute { duration: compute }];
    let halo = |ops: &mut Vec<ReplayOp>| {
        let peers: Vec<usize> = [r.wrapping_sub(1), r + 1]
            .into_iter()
            .filter(|&p| p < n)
            .collect();
        for &to in &peers {
            ops.push(ReplayOp::Send { to, bytes, tag: 1 });
        }
        for &from in &peers {
            ops.push(ReplayOp::Recv { from, tag: 1 });
        }
    };
    let reduce = |ops: &mut Vec<ReplayOp>| {
        if r == 0 {
            ops.extend((1..n).map(|from| ReplayOp::Recv { from, tag: 2 }));
            ops.extend((1..n).map(|to| ReplayOp::Send {
                to,
                bytes: 8,
                tag: 2,
            }));
        } else {
            ops.push(ReplayOp::Send {
                to: 0,
                bytes: 8,
                tag: 2,
            });
            ops.push(ReplayOp::Recv { from: 0, tag: 2 });
        }
    };
    match shape {
        Shape::Ring => {
            ops.push(ReplayOp::Send {
                to: (r + 1) % n,
                bytes,
                tag: 3,
            });
            ops.push(ReplayOp::Recv {
                from: (r + n - 1) % n,
                tag: 3,
            });
        }
        Shape::Stencil => halo(&mut ops),
        Shape::Reduction => reduce(&mut ops),
        Shape::StencilReduction => {
            halo(&mut ops);
            reduce(&mut ops);
        }
    }
    ops
}

/// A case: `n` ranks running `count` iterations of `shape`.
#[derive(Debug, Clone)]
struct Case {
    shape: Shape,
    n: usize,
    count: u64,
    compute_us: Vec<u64>,
    bytes: u64,
    costs: bool,
    nested: bool,
    around: bool,
    xdsl: bool,
}

impl Case {
    fn scripts(&self) -> Vec<ProcessScript> {
        (0..self.n)
            .map(|r| {
                let compute = SimDuration::from_micros(self.compute_us[r]);
                let mut one = body(self.shape, r, self.n, compute, self.bytes);
                if self.nested {
                    let mut inner = Vec::new();
                    ReplayOp::push_repeat(
                        &mut inner,
                        2 + r as u64 % 3,
                        &[ReplayOp::Compute {
                            duration: SimDuration::from_micros(40),
                        }],
                    );
                    one.splice(1..1, inner);
                }
                let mut ops = Vec::new();
                if self.around {
                    ops.push(ReplayOp::Compute {
                        duration: SimDuration::from_micros(100 * r as u64),
                    });
                }
                ReplayOp::push_repeat(&mut ops, self.count, &one);
                if self.around {
                    ops.extend(body(self.shape, r, self.n, compute * 2, self.bytes / 2));
                }
                ProcessScript { rank: r, ops }
            })
            .collect()
    }

    /// The loop replay, the unrolled replay, and whether a period was
    /// skipped (a checkpoint of a session that skipped carries `jumped`).
    fn run(&self) -> (ReplayResult, ReplayResult, bool) {
        let topo = if self.xdsl {
            daisy_xdsl(16, HostSpec::default(), 3)
        } else {
            cluster_bordeplage(self.n, HostSpec::default())
        };
        let hosts = &topo.hosts[..self.n];
        let cfg = ReplayConfig {
            protocol: if self.costs {
                ProtocolCosts {
                    header_bytes: 64,
                    send_cpu: SimDuration::from_micros(20),
                    recv_cpu: SimDuration::from_micros(20),
                }
            } else {
                ProtocolCosts::none()
            },
            ..ReplayConfig::default()
        };
        let scripts = self.scripts();
        let mut session = ReplaySession::new(topo.platform.clone(), hosts, &scripts, &cfg).unwrap();
        session.run_until(None);
        let skipped = session
            .checkpoint()
            .get("world")
            .and_then(|w| w.get("jumped"))
            .is_some();
        let flat: Vec<ProcessScript> = scripts
            .iter()
            .map(|s| ProcessScript {
                rank: s.rank,
                ops: unroll(&s.ops),
            })
            .collect();
        let want = replay(topo.platform, hosts, &flat, &cfg).unwrap();
        (session.result(), want, skipped)
    }
}

fn case() -> impl Strategy<Value = Case> {
    let shape = prop::sample::select(vec![
        Shape::Ring,
        Shape::Stencil,
        Shape::Reduction,
        Shape::StencilReduction,
    ]);
    let size = (
        2usize..9,
        prop::sample::select(vec![0u64, 1, 2, 3, 5, 17, 900]),
        prop::collection::vec(200u64..3_000, 8..9),
        prop::sample::select(vec![8u64, 9_600, 250_000]),
    );
    let flags = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    (shape, size, flags).prop_map(
        |(shape, (n, count, compute_us, bytes), (costs, nested, around, xdsl))| Case {
            shape,
            n,
            count,
            compute_us,
            bytes,
            costs,
            nested,
            around,
            xdsl,
        },
    )
}

proptest! {
    /// Skipping periods gives the unrolled replay's result in every field.
    #[test]
    fn skipping_periods_matches_the_full_replay(c in case()) {
        let (got, want, _) = c.run();
        assert_eq!(got, want);
    }
}

/// The paper's 900-sweep shapes do skip: without that the property above
/// would compare the full replay with itself.
#[test]
fn every_shape_skips_at_paper_scale() {
    for shape in [
        Shape::Ring,
        Shape::Stencil,
        Shape::Reduction,
        Shape::StencilReduction,
    ] {
        for (costs, nested, around, xdsl) in [
            (false, false, false, false),
            (true, true, true, false),
            (true, false, true, true),
        ] {
            let c = Case {
                shape,
                n: 6,
                count: 900,
                compute_us: vec![900, 1_300, 700, 2_100, 1_000, 1_600, 800, 1_200],
                bytes: 9_600,
                costs,
                nested,
                around,
                xdsl,
            };
            let (got, want, skipped) = c.run();
            assert!(skipped, "{c:?} skipped no period");
            assert_eq!(got, want);
        }
    }
}
