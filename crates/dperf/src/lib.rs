//! # dperf — distributed performance prediction
//!
//! This crate reproduces **dPerf**, the performance-prediction environment of
//! the paper. dPerf is a *hybrid* predictor (profile-based + simulation-based,
//! §II-B): it statically analyses the input program, decomposes it into
//! blocks, benchmarks the blocks, instruments the code, runs it to obtain one
//! trace file per process, and finally replays the traces on a simulated
//! network platform to obtain the predicted execution time `t_predicted`.
//!
//! The original tool analyses C/C++/Fortran sources through the ROSE compiler
//! and measures blocks through PAPI hardware counters. Neither is available
//! (or desirable) in a pure-Rust reproduction, so:
//!
//! * programs are described in a small explicit IR ([`ir`]) carrying exactly
//!   the information ROSE's AST/DDG/CDG traversals extract — block structure,
//!   loop nests, symbolic work expressions and communication calls;
//! * block benchmarking ([`bench_block`]) models each block on a machine
//!   model in flop/s, deterministically, in place of PAPI's measurements;
//! * the GCC optimisation levels 0/1/2/3/s of the evaluation are a per-block
//!   cost model ([`compiler`]).
//!
//! The prediction pipeline ([`predict`]) then mirrors the paper exactly:
//! traces ([`trace`]) are generated per rank ([`tracegen`]) and replayed with
//! `netsim` on any platform (Grid'5000 cluster, xDSL Daisy, LAN), and the
//! equivalence search ([`equivalence`]) answers the paper's headline question:
//! *how many peers over xDSL or LAN match the computing power of the
//! cluster?* (Table I).

#![warn(missing_docs)]

pub mod analysis;
pub mod bench_block;
pub mod compiler;
pub mod equivalence;
pub mod instrument;
pub mod ir;
pub mod machine;
pub mod predict;
pub mod report;
pub mod trace;
pub mod tracegen;

pub use bench_block::{BlockBencher, ModeledBencher};
pub use compiler::OptLevel;
pub use equivalence::{Comparison, EquivalenceRow, EquivalenceTable, PerfCurve, PerfPoint};
pub use instrument::{InstrumentedProgram, Probe};
pub use ir::{
    Collective, CollectiveKind, CommCall, CommKind, ComputeBlock, Expr, Guard, ParamEnv, Program,
    ProgramBuilder, Stmt, Target,
};
pub use machine::MachineModel;
pub use predict::{predict_traces, Prediction};
pub use trace::{ProcessTrace, TraceEvent, TraceSet};
pub use tracegen::{generate_traces, RankEnv};
