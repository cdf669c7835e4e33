//! # obstacle — the obstacle problem application
//!
//! The paper's experiments "are performed on a source code for the obstacle
//! problem … developed in the framework of the ANR CIP project" (§IV-A.1),
//! solved with the projected (parallel asynchronous) Richardson method of
//! Spitéri & Chau. This crate is a self-contained Rust implementation of that
//! application, plus the bindings that let P2PDC run it and dPerf predict it:
//!
//! * [`grid`] — a dense 2-D grid with halo-aware indexing.
//! * [`problem`] — the discretised obstacle problem: find `u ≥ ψ` with
//!   `A u ≥ f` and `(u − ψ)ᵀ(A u − f) = 0` on the unit square (the classic
//!   elastic-membrane-over-an-obstacle formulation).
//! * [`richardson`] — the projected Richardson iteration, sequentially and
//!   with a convergence criterion.
//! * [`decomposition`] — 1-D block-row domain decomposition and halo
//!   bookkeeping.
//! * [`schemes`] — deterministic single-threaded models of the parallel
//!   synchronous (block-Jacobi with halo exchange) and asynchronous (seeded
//!   bounded-delay chaotic relaxation) schemes, used to validate the
//!   decomposition against the sequential solver.
//! * [`app`] — [`ObstacleApp`]: the paper-calibrated
//!   workload description implementing `p2pdc::IterativeApp` and producing
//!   the dPerf IR program of the obstacle code.

#![warn(missing_docs)]

pub mod app;
pub mod decomposition;
pub mod grid;
pub mod problem;
pub mod richardson;
pub mod schemes;

pub use app::ObstacleApp;
pub use decomposition::BlockRows;
pub use grid::Grid2D;
pub use problem::ObstacleProblem;
pub use richardson::{solve_sequential, RichardsonParams, SolveStats};
