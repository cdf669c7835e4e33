//! Instrumentation of the program IR.
//!
//! In the original tool the AST "is modified so that lines of code will be
//! injected into the source code for instrumentation purposes … calls to the
//! PAPI library for obtaining accurate measurement of time duration"
//! (§III-D.2), after which the AST is unparsed back to source. Here the same
//! step attaches a numbered probe to every compute block and communication
//! call, and [`InstrumentedProgram::unparse`] renders the transformed
//! "source" as text so tests and humans can inspect what was injected.

use crate::analysis::traversal::{walk, Visitor};
use crate::ir::{Collective, CommCall, CommKind, ComputeBlock, Guard, Program, Stmt};
use serde::{Deserialize, Serialize};

/// What a probe instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeKind {
    /// Timer around a compute block.
    BlockTimer,
    /// Record of a communication call's parameters.
    CommRecord,
}

/// One injected probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Probe {
    /// Probe number (dense, starting at 0, in program order).
    pub id: u32,
    /// What it instruments.
    pub kind: ProbeKind,
    /// Label of the instrumented site (block name or `comm(tag=…)`).
    pub site: String,
}

/// A program plus its injected probes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstrumentedProgram {
    /// The (unmodified) program; probes are kept alongside rather than woven
    /// into the tree so the original is still available.
    pub program: Program,
    /// All probes, in program order.
    pub probes: Vec<Probe>,
}

impl InstrumentedProgram {
    /// Instrument every compute block and communication call of `program`.
    pub fn instrument(program: &Program) -> InstrumentedProgram {
        struct Collector {
            probes: Vec<Probe>,
        }
        impl Visitor for Collector {
            fn visit_compute(&mut self, block: &ComputeBlock, _depth: usize) {
                self.probes.push(Probe {
                    id: self.probes.len() as u32,
                    kind: ProbeKind::BlockTimer,
                    site: block.name.clone(),
                });
            }
            fn visit_comm(&mut self, call: &CommCall, _depth: usize) {
                self.probes.push(Probe {
                    id: self.probes.len() as u32,
                    kind: ProbeKind::CommRecord,
                    site: format!("comm(tag={})", call.tag),
                });
            }
            fn visit_collective(&mut self, coll: &Collective, _depth: usize) {
                self.probes.push(Probe {
                    id: self.probes.len() as u32,
                    kind: ProbeKind::CommRecord,
                    site: format!("collective(tag={})", coll.tag),
                });
            }
        }
        let mut collector = Collector { probes: vec![] };
        walk(&program.body, &mut collector);
        InstrumentedProgram {
            program: program.clone(),
            probes: collector.probes,
        }
    }

    /// Number of block-timer probes.
    pub fn block_probe_count(&self) -> usize {
        self.probes
            .iter()
            .filter(|p| p.kind == ProbeKind::BlockTimer)
            .count()
    }

    /// Render the instrumented program as pseudo-source, the analogue of the
    /// unparsing step. Every probe shows up as a `probe_start`/`probe_stop`
    /// or `probe_comm` line.
    pub fn unparse(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("// instrumented: {}\n", self.program.name));
        let mut next_probe = 0u32;
        unparse_stmts(&self.program.body, 0, &mut next_probe, &mut out);
        out
    }
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

fn unparse_stmts(stmts: &[Stmt], depth: usize, next_probe: &mut u32, out: &mut String) {
    for stmt in stmts {
        match stmt {
            Stmt::Compute(block) => {
                let id = *next_probe;
                *next_probe += 1;
                out.push_str(&format!("{}probe_start({id});\n", indent(depth)));
                out.push_str(&format!(
                    "{}{}();            // {} flops\n",
                    indent(depth),
                    block.name,
                    block.flops
                ));
                out.push_str(&format!("{}probe_stop({id});\n", indent(depth)));
            }
            Stmt::Comm(call) => {
                let id = *next_probe;
                *next_probe += 1;
                let verb = match call.kind {
                    CommKind::Send => "sap_send",
                    CommKind::Recv => "sap_recv",
                    CommKind::SendRecv => "sap_sendrecv",
                };
                out.push_str(&format!(
                    "{}probe_comm({id}); {verb}(peer={:?}, bytes={}, tag={});\n",
                    indent(depth),
                    call.peer,
                    call.bytes,
                    call.tag
                ));
            }
            Stmt::Collective(coll) => {
                let id = *next_probe;
                *next_probe += 1;
                out.push_str(&format!(
                    "{}probe_comm({id}); sap_{:?}(bytes={}, tag={});\n",
                    indent(depth),
                    coll.kind,
                    coll.bytes,
                    coll.tag
                ));
            }
            Stmt::Loop { count, body } => {
                out.push_str(&format!(
                    "{}for (i = 0; i < {count}; i++) {{\n",
                    indent(depth)
                ));
                unparse_stmts(body, depth + 1, next_probe, out);
                out.push_str(&format!("{}}}\n", indent(depth)));
            }
            Stmt::If {
                guard,
                then_branch,
                else_branch,
            } => {
                out.push_str(&format!("{}if ({}) {{\n", indent(depth), guard_text(guard)));
                unparse_stmts(then_branch, depth + 1, next_probe, out);
                if !else_branch.is_empty() {
                    out.push_str(&format!("{}}} else {{\n", indent(depth)));
                    unparse_stmts(else_branch, depth + 1, next_probe, out);
                }
                out.push_str(&format!("{}}}\n", indent(depth)));
            }
        }
    }
}

fn guard_text(guard: &Guard) -> String {
    match guard {
        Guard::IsCoordinator => "rank == 0".to_string(),
        Guard::IsWorker => "rank != 0".to_string(),
        Guard::HasUpNeighbor => "rank > 0".to_string(),
        Guard::HasDownNeighbor => "rank < nprocs - 1".to_string(),
        Guard::NonZero(e) => format!("{e} != 0"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CollectiveKind, Expr, Target};

    fn sample() -> Program {
        Program::builder("probe-me")
            .compute(ComputeBlock::new("init", Expr::c(10.0)))
            .loop_(Expr::p("iters"), |b| {
                b.compute(ComputeBlock::new("sweep", Expr::p("N")))
                    .sendrecv(Target::RelativeRank(1), Expr::c(800.0), 4)
                    .collective(CollectiveKind::AllReduce, Expr::c(8.0), 5)
            })
            .build()
    }

    #[test]
    fn every_block_and_comm_site_gets_a_probe() {
        let ins = InstrumentedProgram::instrument(&sample());
        assert_eq!(ins.probes.len(), 4);
        assert_eq!(ins.block_probe_count(), 2);
        assert_eq!(ins.probes[0].site, "init");
        assert_eq!(ins.probes[0].id, 0);
        assert_eq!(ins.probes[3].kind, ProbeKind::CommRecord);
        // Probe ids are dense and ordered.
        let ids: Vec<u32> = ins.probes.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unparse_mentions_probes_and_structure() {
        let ins = InstrumentedProgram::instrument(&sample());
        let src = ins.unparse();
        assert!(src.contains("probe_start(0)"));
        assert!(src.contains("probe_stop(0)"));
        assert!(src.contains("for (i = 0; i < iters; i++)"));
        assert!(src.contains("sap_sendrecv"));
        assert!(src.contains("AllReduce"));
        // One start and one stop per block probe.
        assert_eq!(src.matches("probe_start").count(), 2);
        assert_eq!(src.matches("probe_stop").count(), 2);
        assert_eq!(src.matches("probe_comm").count(), 2);
    }

    #[test]
    fn instrumentation_does_not_change_the_program() {
        let p = sample();
        let ins = InstrumentedProgram::instrument(&p);
        assert_eq!(ins.program, p);
    }
}
