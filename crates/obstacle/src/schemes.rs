//! Deterministic models of the parallel synchronous and asynchronous schemes.
//!
//! The obstacle code of the paper runs the projected Richardson method over
//! block rows, one block per peer. This module runs both schemes on one
//! thread over a [`BlockRows`] decomposition. Each rank keeps its own copy of
//! the grid and sees its neighbours' rows only through halo copies:
//!
//! * **Synchronous** ([`solve_synchronous`]): a block-Jacobi sweep, then a
//!   halo exchange. It equals [`solve_sequential`](crate::solve_sequential)
//!   sweep for sweep.
//! * **Asynchronous** ([`solve_asynchronous`]): chaotic relaxation with
//!   bounded delays (Chazan and Miranker 1969; Baudet 1978). Each round a
//!   seeded [`DetRng`] picks the rank order and how stale each halo is. Each
//!   rank runs `inner_sweeps` relaxations and publishes its block. After the
//!   round a central check, like P2PDC's coordinator, stops the run once one
//!   full sweep of the published iterate is within the tolerance. The sweep
//!   counts depend on the seed only, never on the machine.

use crate::decomposition::BlockRows;
use crate::grid::Grid2D;
use crate::problem::ObstacleProblem;
use crate::richardson::{sweep_rows, RichardsonParams, SolveStats};
use p2p_common::DetRng;
use std::collections::VecDeque;

/// The oldest halo the asynchronous scheme reads, counted in publications of
/// the neighbour's block (0 is the newest).
const MAX_HALO_DELAY: usize = 2;

/// One rank's copy of the grid. Only its owned rows `begin..end` and the two
/// halo rows around them are ever read.
struct Rank {
    begin: usize,
    end: usize,
    local: Grid2D,
}

impl Rank {
    /// One projected Richardson sweep of the owned rows against the halos as
    /// they stand. The new rows are published to `shared` and copied back
    /// into the local grid. Returns the max-norm of the update.
    fn relax(&mut self, problem: &ObstacleProblem, shared: &mut Grid2D, omega: f64) -> f64 {
        let diff = sweep_rows(problem, &self.local, shared, self.begin, self.end, omega);
        for i in self.begin..self.end {
            self.local.set_row(i, shared.row(i));
        }
        diff
    }
}

fn ranks(problem: &ObstacleProblem, nranks: usize) -> Vec<Rank> {
    let decomp = BlockRows::new(problem.n, nranks);
    let local = problem.initial_guess();
    let rank = |(begin, end)| Rank {
        begin,
        end,
        local: local.clone(),
    };
    (0..nranks).map(|k| rank(decomp.row_range(k))).collect()
}

/// Solve with the synchronous scheme on `nranks` ranks. Equivalent to the
/// sequential solver sweep for sweep.
pub fn solve_synchronous(
    problem: &ObstacleProblem,
    params: &RichardsonParams,
    nranks: usize,
) -> (Grid2D, SolveStats) {
    let mut ranks = ranks(problem, nranks);
    let mut shared = problem.initial_guess();
    let (mut sweeps, mut diff) = (0, f64::INFINITY);
    while sweeps < params.max_sweeps && diff > params.tol {
        sweeps += 1;
        diff = 0.0;
        for r in &mut ranks {
            diff = diff.max(r.relax(problem, &mut shared, params.omega));
        }
        // Halo exchange: every rank copies its neighbours' new edge rows.
        for r in &mut ranks {
            r.local.set_row(r.begin - 1, shared.row(r.begin - 1));
            r.local.set_row(r.end, shared.row(r.end));
        }
    }
    let stats = SolveStats {
        sweeps,
        final_diff: diff,
        converged: diff <= params.tol,
    };
    (shared, stats)
}

/// Solve with the asynchronous scheme on `nranks` ranks, each running
/// `inner_sweeps` relaxations per round on the schedule drawn from `seed`.
/// Returns the published iterate, the per-rank sweep counts (whose maximum is
/// the asynchronous iteration count) and the solve statistics.
pub fn solve_asynchronous(
    problem: &ObstacleProblem,
    params: &RichardsonParams,
    nranks: usize,
    inner_sweeps: u32,
    seed: u64,
) -> (Grid2D, Vec<u32>, SolveStats) {
    assert!(inner_sweeps > 0, "each round needs at least one sweep");
    let mut ranks = ranks(problem, nranks);
    let mut scratch = problem.initial_guess();
    let mut shared = problem.initial_guess();
    // Each rank's published first and last owned rows, newest first.
    let edges = |r: &Rank| {
        [
            r.local.row(r.begin).to_vec(),
            r.local.row(r.end - 1).to_vec(),
        ]
    };
    let mut history: Vec<VecDeque<[Vec<f64>; 2]>> =
        ranks.iter().map(|r| VecDeque::from([edges(r)])).collect();
    let mut rng = DetRng::new(seed);
    let mut order: Vec<usize> = (0..nranks).collect();
    let mut counts = vec![0u32; nranks];
    let mut final_diff = f64::INFINITY;
    for _round in 0..(params.max_sweeps / inner_sweeps).max(1) {
        rng.shuffle(&mut order);
        for &k in &order {
            let r = &mut ranks[k];
            if k > 0 {
                let h = &history[k - 1];
                r.local
                    .set_row(r.begin - 1, &h[rng.gen_range(0..h.len())][1]);
            }
            if k + 1 < nranks {
                let h = &history[k + 1];
                r.local.set_row(r.end, &h[rng.gen_range(0..h.len())][0]);
            }
            for _ in 0..inner_sweeps {
                r.relax(problem, &mut shared, params.omega);
            }
            counts[k] += inner_sweeps;
            history[k].push_front(edges(r));
            history[k].truncate(MAX_HALO_DELAY + 1);
        }
        final_diff = sweep_rows(
            problem,
            &shared,
            &mut scratch,
            1,
            problem.n + 1,
            params.omega,
        );
        if final_diff <= params.tol {
            break;
        }
    }
    let stats = SolveStats {
        sweeps: counts.iter().copied().max().unwrap_or(0),
        final_diff,
        converged: final_diff <= params.tol,
    };
    (shared, counts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::richardson::solve_sequential;

    fn small() -> (ObstacleProblem, RichardsonParams) {
        (
            ObstacleProblem::membrane(24),
            RichardsonParams {
                tol: 1e-7,
                max_sweeps: 20_000,
                ..Default::default()
            },
        )
    }

    #[test]
    fn synchronous_scheme_matches_sequential_exactly() {
        let (p, params) = small();
        let (seq, seq_stats) = solve_sequential(&p, &params);
        let (par, par_stats) = solve_synchronous(&p, &params, 3);
        assert_eq!(seq_stats.sweeps, par_stats.sweeps, "same sweep count");
        assert!(par_stats.converged);
        assert!(
            seq.max_abs_diff(&par) < 1e-12,
            "synchronous scheme must be bit-compatible with the sequential sweep"
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn synchronous_scheme_with_one_rank_is_the_sequential_solver() {
        let (p, params) = small();
        let (seq, _) = solve_sequential(&p, &params);
        let (par, _) = solve_synchronous(&p, &params, 1);
        assert!(seq.max_abs_diff(&par) < 1e-15);
    }

    #[test]
    fn asynchronous_scheme_converges_to_the_same_solution_with_more_sweeps() {
        let (p, params) = small();
        let (seq, seq_stats) = solve_sequential(&p, &params);
        let (asy, counts, asy_stats) = solve_asynchronous(&p, &params, 3, 25, 7);
        assert!(asy_stats.converged, "asynchronous solve did not converge");
        assert!(
            seq.max_abs_diff(&asy) < 1e-4,
            "asynchronous solution drifted: {}",
            seq.max_abs_diff(&asy)
        );
        assert_eq!(p.constraint_violations(&asy, 1e-6), 0);
        let max_async = *counts.iter().max().unwrap();
        assert!(
            max_async >= seq_stats.sweeps,
            "chaotic relaxation cannot need fewer sweeps ({max_async} vs {})",
            seq_stats.sweeps
        );
    }

    #[test]
    fn sweep_counts_are_reported_per_rank() {
        let (p, params) = small();
        let (_sol, counts, _stats) = solve_asynchronous(&p, &params, 4, 10, 7);
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn asynchronous_scheme_is_a_function_of_its_seed() {
        let (p, params) = small();
        let (first, first_counts, first_stats) = solve_asynchronous(&p, &params, 3, 25, 11);
        let (again, again_counts, again_stats) = solve_asynchronous(&p, &params, 3, 25, 11);
        assert_eq!(first, again, "same seed, same grid bit for bit");
        assert_eq!(first_counts, again_counts);
        assert_eq!(first_stats, again_stats);
        let (other, _, _) = solve_asynchronous(&p, &params, 3, 25, 12);
        assert_ne!(first, other, "the seed drives the schedule");
    }
}
