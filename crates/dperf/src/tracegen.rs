//! Trace generation — "running the instrumented code".
//!
//! The original dPerf compiles the instrumented source and runs it once per
//! process to collect trace files. In the reproduction the equivalent step is
//! a per-rank symbolic execution of the IR: loop counts and guards are
//! resolved for each rank, every compute block is timed by the configured
//! [`BlockBencher`] (modelled or really measured), and every communication
//! call is recorded with its resolved peer, size and tag.
//!
//! Collectives are expanded into the point-to-point pattern P2PDC uses at run
//! time: everything funnels through the coordinator (rank 0), which is exactly
//! why the reduction acts as a synchronisation point and why its cost grows
//! with the number of peers — the effect that bends the xDSL curve of Fig. 11.
//!
//! ### Tag conventions
//!
//! Message matching in the replay is by `(source rank, tag)`. A `SendRecv`
//! exchange uses the *same* tag on both sides, so the two ranks of a halo
//! exchange must name the same tag for the pattern to match (the obstacle
//! application uses a single halo tag).

use crate::bench_block::BlockBencher;
use crate::ir::{CollectiveKind, CommKind, ParamEnv, Program, RankContext, Stmt};
use crate::trace::{ProcessTrace, TraceEvent, TraceSet};
use std::collections::HashMap;
use std::sync::Arc;

/// Interns compute-block names so every event of a block shares one
/// allocation (an `Arc<str>` refcount bump per event instead of a `String`
/// clone). One interner serves all ranks of a generation run: block names
/// come from the program, which is shared.
#[derive(Default)]
struct BlockNames<'p> {
    map: HashMap<&'p str, Arc<str>>,
}

impl<'p> BlockNames<'p> {
    fn intern(&mut self, name: &'p str) -> Arc<str> {
        Arc::clone(self.map.entry(name).or_insert_with(|| Arc::from(name)))
    }
}

/// Optional per-rank parameter hook: given `(rank, nprocs, global env)` return
/// extra bindings (e.g. `my_rows` for a 1-D block decomposition).
pub type RankEnv<'a> = &'a dyn Fn(usize, usize, &ParamEnv) -> ParamEnv;

/// Generate the trace set of `program` for `nprocs` ranks.
///
/// `base_env` overlays the program defaults; `rank_env` (if given) overlays
/// rank-specific bindings on top of that. The bencher supplies per-block
/// durations; its optimisation level is recorded in the returned set through
/// `opt_label`.
pub fn generate_traces(
    program: &Program,
    base_env: &ParamEnv,
    nprocs: usize,
    bencher: &dyn BlockBencher,
    rank_env: Option<RankEnv<'_>>,
    opt_label: &str,
) -> TraceSet {
    assert!(nprocs > 0, "need at least one process");
    let global = program.defaults.overlaid_with(base_env);
    let mut traces = Vec::with_capacity(nprocs);
    let mut names = BlockNames::default();
    for rank in 0..nprocs {
        let ctx = RankContext { rank, nprocs };
        let mut env = global
            .clone()
            .with("rank", rank as f64)
            .with("nprocs", nprocs as f64);
        if let Some(f) = rank_env {
            env = env.overlaid_with(&f(rank, nprocs, &global));
        }
        let mut events = Vec::new();
        emit_stmts(&program.body, ctx, &env, bencher, &mut names, &mut events);
        traces.push(ProcessTrace { rank, events });
    }
    TraceSet {
        app: program.name.clone(),
        nprocs,
        opt_level: opt_label.to_string(),
        traces,
    }
}

fn emit_stmts<'p>(
    stmts: &'p [Stmt],
    ctx: RankContext,
    env: &ParamEnv,
    bencher: &dyn BlockBencher,
    names: &mut BlockNames<'p>,
    out: &mut Vec<TraceEvent>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Compute(block) => {
                let t = bencher.block_time(block, env);
                out.push(TraceEvent::Compute {
                    ns: t.as_nanos(),
                    block: names.intern(&block.name),
                });
            }
            Stmt::Comm(call) => {
                let Some(peer) = call.peer.resolve(ctx) else {
                    continue; // boundary rank without that neighbour
                };
                if peer == ctx.rank {
                    continue; // self-messages are meaningless
                }
                let bytes = call.bytes.eval_count(env);
                match call.kind {
                    CommKind::Send => out.push(TraceEvent::Send {
                        to: peer,
                        bytes,
                        tag: call.tag,
                    }),
                    CommKind::Recv => out.push(TraceEvent::Recv {
                        from: peer,
                        tag: call.tag,
                    }),
                    CommKind::SendRecv => {
                        out.push(TraceEvent::Send {
                            to: peer,
                            bytes,
                            tag: call.tag,
                        });
                        out.push(TraceEvent::Recv {
                            from: peer,
                            tag: call.tag,
                        });
                    }
                }
            }
            Stmt::Collective(coll) => {
                let bytes = coll.bytes.eval_count(env);
                expand_collective(coll.kind, bytes, coll.tag, ctx, out);
            }
            Stmt::Loop { count, body } => {
                // One iteration's events and the trip count: each block of
                // the loop is benchmarked once, as dPerf does (§III-D.2).
                let trips = count.eval_count(env);
                if trips == 0 {
                    continue;
                }
                let mut once = Vec::new();
                emit_stmts(body, ctx, env, bencher, names, &mut once);
                if !once.is_empty() {
                    out.push(TraceEvent::Repeat {
                        count: trips,
                        body: once,
                    });
                }
            }
            Stmt::If {
                guard,
                then_branch,
                else_branch,
            } => {
                if guard.eval(ctx, env) {
                    emit_stmts(then_branch, ctx, env, bencher, names, out);
                } else {
                    emit_stmts(else_branch, ctx, env, bencher, names, out);
                }
            }
        }
    }
}

fn expand_collective(
    kind: CollectiveKind,
    bytes: u64,
    tag: u32,
    ctx: RankContext,
    out: &mut Vec<TraceEvent>,
) {
    if ctx.nprocs == 1 {
        return; // a lone rank has nobody to talk to
    }
    let coordinator = 0usize;
    match kind {
        CollectiveKind::Gather => {
            if ctx.is_coordinator() {
                for r in 1..ctx.nprocs {
                    out.push(TraceEvent::Recv { from: r, tag });
                }
            } else {
                out.push(TraceEvent::Send {
                    to: coordinator,
                    bytes,
                    tag,
                });
            }
        }
        CollectiveKind::Broadcast => {
            if ctx.is_coordinator() {
                for r in 1..ctx.nprocs {
                    out.push(TraceEvent::Send { to: r, bytes, tag });
                }
            } else {
                out.push(TraceEvent::Recv {
                    from: coordinator,
                    tag,
                });
            }
        }
        CollectiveKind::AllReduce => {
            expand_collective(CollectiveKind::Gather, bytes, tag, ctx, out);
            expand_collective(CollectiveKind::Broadcast, bytes, tag, ctx, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_block::ModeledBencher;
    use crate::compiler::OptLevel;
    use crate::ir::{CollectiveKind, ComputeBlock, Expr, Guard, Target};
    use crate::machine::MachineModel;

    fn bencher(opt: OptLevel) -> ModeledBencher {
        ModeledBencher::new(MachineModel::xeon_em64t_3ghz(), opt)
    }

    /// A halo-exchange stencil with a per-iteration reduction, the same shape
    /// as the obstacle program.
    fn stencil() -> Program {
        Program::builder("stencil")
            .param("N", 100.0)
            .param("iters", 3.0)
            .loop_(Expr::p("iters"), |b| {
                b.compute(ComputeBlock::new(
                    "sweep",
                    Expr::c(5.0).mul(Expr::p("N")).mul(Expr::p("my_rows")),
                ))
                .if_(
                    Guard::HasUpNeighbor,
                    |t| t.sendrecv(Target::RelativeRank(-1), Expr::c(8.0).mul(Expr::p("N")), 7),
                    |e| e,
                )
                .if_(
                    Guard::HasDownNeighbor,
                    |t| t.sendrecv(Target::RelativeRank(1), Expr::c(8.0).mul(Expr::p("N")), 7),
                    |e| e,
                )
                .collective(CollectiveKind::AllReduce, Expr::c(8.0), 9)
            })
            .build()
    }

    fn rows(rank: usize, nprocs: usize, env: &ParamEnv) -> ParamEnv {
        let n = env.get("N").unwrap_or(0.0) as usize;
        let base = n / nprocs;
        let extra = usize::from(rank < n % nprocs);
        ParamEnv::new().with("my_rows", (base + extra) as f64)
    }

    #[test]
    fn traces_are_balanced_and_validate() {
        let p = stencil();
        let ts = generate_traces(
            &p,
            &ParamEnv::new(),
            4,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        assert_eq!(ts.nprocs, 4);
        assert_eq!(ts.traces.len(), 4);
        assert!(ts.validate().is_empty(), "{:?}", ts.validate());
        // 3 iterations, interior ranks exchange with 2 neighbours each.
        assert_eq!(ts.traces[1].sends(), 3 * (2 + 1)); // 2 halos + 1 gather contribution
        assert_eq!(ts.traces[0].sends(), 3 * (1 + 3)); // 1 halo + broadcast to 3
    }

    #[test]
    fn boundary_ranks_skip_their_missing_neighbour() {
        let p = stencil();
        let ts = generate_traces(
            &p,
            &ParamEnv::new(),
            4,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        // Rank 0 has no up neighbour, rank 3 no down neighbour: count the
        // halo-exchange sends (tag 7) only, ignoring the reduction traffic.
        let halo_sends = |rank: usize| {
            ts.traces[rank]
                .unrolled()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Send { tag: 7, .. }))
                .count()
        };
        assert_eq!(
            halo_sends(0),
            3,
            "boundary rank exchanges with one neighbour"
        );
        assert_eq!(
            halo_sends(1),
            6,
            "interior rank exchanges with two neighbours"
        );
        assert_eq!(halo_sends(3), 3);
        let last = &ts.traces[3];
        let sends_to: Vec<usize> = last
            .unrolled()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert!(
            sends_to.iter().all(|&t| t == 2 || t == 0),
            "rank 3 talks only to 2 and the coordinator"
        );
    }

    #[test]
    fn opt_level_scales_compute_but_not_messages() {
        let p = stencil();
        let fast = generate_traces(
            &p,
            &ParamEnv::new(),
            2,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        let slow = generate_traces(
            &p,
            &ParamEnv::new(),
            2,
            &bencher(OptLevel::O0),
            Some(&rows),
            "0",
        );
        assert_eq!(fast.total_messages(), slow.total_messages());
        let ratio = slow.max_compute_time().as_secs_f64() / fast.max_compute_time().as_secs_f64();
        assert!(
            (ratio - OptLevel::O0.time_factor()).abs() < 0.05,
            "ratio {ratio}"
        );
        assert_eq!(slow.opt_level, "0");
    }

    #[test]
    fn work_is_split_across_ranks() {
        let p = stencil();
        let one = generate_traces(
            &p,
            &ParamEnv::new(),
            1,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        let four = generate_traces(
            &p,
            &ParamEnv::new(),
            4,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        let t1 = one.max_compute_time().as_secs_f64();
        let t4 = four.max_compute_time().as_secs_f64();
        assert!(
            t4 < t1 / 3.0,
            "4-way split must cut per-rank compute time, {t1} vs {t4}"
        );
    }

    #[test]
    fn block_names_are_interned_across_events_and_ranks() {
        use crate::trace::TraceEvent;
        let p = stencil();
        let ts = generate_traces(
            &p,
            &ParamEnv::new(),
            4,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        let unrolled: Vec<TraceEvent> = ts.traces.iter().flat_map(|t| t.unrolled()).collect();
        let blocks: Vec<&std::sync::Arc<str>> = unrolled
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Compute { block, .. } => Some(block),
                _ => None,
            })
            .collect();
        assert!(
            blocks.len() > 4,
            "the stencil has compute events on every rank"
        );
        let first = blocks[0];
        assert!(
            blocks.iter().all(|b| std::sync::Arc::ptr_eq(b, first)),
            "every event of the same block must share one allocation"
        );
    }

    #[test]
    fn single_rank_has_no_communication() {
        let p = stencil();
        let ts = generate_traces(
            &p,
            &ParamEnv::new(),
            1,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        assert_eq!(ts.total_messages(), 0);
        assert!(ts.validate().is_empty());
    }

    #[test]
    fn replaying_generated_traces_yields_a_finite_time() {
        use netsim::{cluster_bordeplage, replay, HostSpec, ReplayConfig};
        let p = stencil();
        let ts = generate_traces(
            &p,
            &ParamEnv::new(),
            4,
            &bencher(OptLevel::O3),
            Some(&rows),
            "3",
        );
        let topo = cluster_bordeplage(4, HostSpec::default());
        let scripts = ts.to_replay_scripts();
        let res = replay(
            topo.platform,
            &topo.hosts,
            &scripts,
            &ReplayConfig::default(),
        )
        .unwrap();
        assert!(res.makespan >= ts.max_compute_time());
        assert_eq!(res.messages_sent as usize, ts.total_messages());
    }

    #[test]
    fn each_block_is_benchmarked_once_per_loop() {
        struct Counting(std::cell::Cell<usize>, ModeledBencher);
        impl BlockBencher for Counting {
            fn block_time(&self, block: &ComputeBlock, env: &ParamEnv) -> p2p_common::SimDuration {
                self.0.set(self.0.get() + 1);
                self.1.block_time(block, env)
            }
        }
        let bencher = Counting(std::cell::Cell::new(0), bencher(OptLevel::O3));
        let p = stencil();
        let ts = generate_traces(&p, &ParamEnv::new(), 4, &bencher, Some(&rows), "3");
        // One compute block in the loop body, four ranks: four benchmarks,
        // not 3 × 4.
        assert_eq!(bencher.0.get(), 4);
        for t in &ts.traces {
            assert!(matches!(
                t.events[..],
                [TraceEvent::Repeat { count: 3, .. }]
            ));
        }
        assert_eq!(
            ts.traces[1].event_count(),
            ts.traces[1].unrolled().len() as u64
        );
    }
}
