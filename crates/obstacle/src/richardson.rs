//! The projected Richardson method (sequential reference solver).
//!
//! One sweep updates every interior point with a damped Jacobi step and
//! projects the result onto the constraint set `u ≥ ψ`:
//!
//! ```text
//! u*   = (1 − ω) u(i,j) + ω (u(i−1,j) + u(i+1,j) + u(i,j−1) + u(i,j+1) − f h²) / 4
//! u'   = max(ψ(i,j), u*)
//! ```
//!
//! For `0 < ω ≤ 1` the iteration is a contraction and converges to the unique
//! solution of the discrete obstacle problem (Spitéri & Chau 2002). The
//! scheme models in [`crate::schemes`] run exactly the same sweep on row
//! blocks, so sequential and block results can be compared bit-for-bit
//! after the same number of sweeps (synchronous scheme) or up to the
//! convergence tolerance (asynchronous scheme).

use crate::grid::Grid2D;
use crate::problem::ObstacleProblem;

/// Parameters of the projected Richardson iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RichardsonParams {
    /// Damping factor ω ∈ (0, 1].
    pub omega: f64,
    /// Convergence tolerance on the max-norm of the update.
    pub tol: f64,
    /// Hard cap on the number of sweeps.
    pub max_sweeps: u32,
}

impl Default for RichardsonParams {
    fn default() -> Self {
        RichardsonParams {
            omega: 0.95,
            tol: 1e-7,
            max_sweeps: 20_000,
        }
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Sweeps actually performed.
    pub sweeps: u32,
    /// Max-norm of the last update.
    pub final_diff: f64,
    /// Whether the tolerance was reached before the sweep cap.
    pub converged: bool,
}

/// Apply one projected Richardson sweep over the interior rows
/// `[row_begin, row_end)` (1-based interior rows, i.e. valid values are
/// `1 ..= n`). Reads `u_old`, writes `u_new`, returns the max-norm of the
/// change over the swept rows. `u_new`'s other rows are left untouched.
pub fn sweep_rows(
    problem: &ObstacleProblem,
    u_old: &Grid2D,
    u_new: &mut Grid2D,
    row_begin: usize,
    row_end: usize,
    omega: f64,
) -> f64 {
    let n = problem.n;
    debug_assert!(row_begin >= 1 && row_end <= n + 1 && row_begin <= row_end);
    let mut max_diff = 0.0f64;
    for i in row_begin..row_end {
        for j in 1..=n {
            let neighbours =
                u_old[(i - 1, j)] + u_old[(i + 1, j)] + u_old[(i, j - 1)] + u_old[(i, j + 1)];
            let jacobi = (neighbours - problem.rhs[(i, j)]) / 4.0;
            let relaxed = (1.0 - omega) * u_old[(i, j)] + omega * jacobi;
            let projected = relaxed.max(problem.psi[(i, j)]);
            max_diff = max_diff.max((projected - u_old[(i, j)]).abs());
            u_new[(i, j)] = projected;
        }
    }
    max_diff
}

/// Solve the obstacle problem sequentially. Returns the final iterate and the
/// solve statistics.
pub fn solve_sequential(
    problem: &ObstacleProblem,
    params: &RichardsonParams,
) -> (Grid2D, SolveStats) {
    assert!(
        params.omega > 0.0 && params.omega <= 1.0,
        "omega must be in (0, 1]"
    );
    let mut u_old = problem.initial_guess();
    let mut u_new = u_old.clone();
    let mut stats = SolveStats {
        sweeps: 0,
        final_diff: f64::INFINITY,
        converged: false,
    };
    for sweep in 1..=params.max_sweeps {
        let diff = sweep_rows(problem, &u_old, &mut u_new, 1, problem.n + 1, params.omega);
        std::mem::swap(&mut u_old, &mut u_new);
        stats.sweeps = sweep;
        stats.final_diff = diff;
        if diff <= params.tol {
            stats.converged = true;
            break;
        }
    }
    (u_old, stats)
}

/// Run exactly `sweeps` sweeps without a convergence test (the performance
/// runs of the paper iterate a fixed number of relaxations). Returns the
/// iterate after the last sweep.
pub fn run_fixed_sweeps(problem: &ObstacleProblem, sweeps: u32, omega: f64) -> Grid2D {
    let mut u_old = problem.initial_guess();
    let mut u_new = u_old.clone();
    for _ in 0..sweeps {
        sweep_rows(problem, &u_old, &mut u_new, 1, problem.n + 1, omega);
        std::mem::swap(&mut u_old, &mut u_new);
    }
    u_old
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_converges_on_a_small_instance() {
        let p = ObstacleProblem::membrane(24);
        let (u, stats) = solve_sequential(&p, &RichardsonParams::default());
        assert!(
            stats.converged,
            "no convergence after {} sweeps",
            stats.sweeps
        );
        assert!(stats.final_diff <= 1e-7);
        // The solution respects the obstacle and the boundary conditions.
        assert_eq!(p.constraint_violations(&u, 1e-9), 0);
    }

    #[test]
    fn contact_region_touches_the_obstacle_and_free_region_solves_the_pde() {
        let p = ObstacleProblem::membrane(32);
        let params = RichardsonParams {
            tol: 1e-9,
            ..RichardsonParams::default()
        };
        let (u, stats) = solve_sequential(&p, &params);
        assert!(stats.converged);
        let mid = (p.n + 2) / 2;
        // In the middle the obstacle binds: u == psi.
        assert!(
            (u[(mid, mid)] - p.psi[(mid, mid)]).abs() < 1e-6,
            "centre must be in contact"
        );
        // Near the boundary the membrane is free: the PDE residual is ~0 and
        // the membrane sits strictly above the (very negative) obstacle.
        assert!(u[(2, 2)] > p.psi[(2, 2)] + 0.1);
        assert!(p.free_residual(&u, 2, 2).abs() < 1e-5);
    }

    #[test]
    fn unconstrained_problem_reduces_to_the_poisson_membrane() {
        let p = ObstacleProblem::unconstrained(16);
        let (u, stats) = solve_sequential(
            &p,
            &RichardsonParams {
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(stats.converged);
        // With a positive load the unconstrained membrane dips below zero.
        let mid = (p.n + 2) / 2;
        assert!(u[(mid, mid)] < 0.0);
        assert_eq!(p.constraint_violations(&u, 1e-9), 0);
    }

    #[test]
    fn more_sweeps_never_hurt() {
        let p = ObstacleProblem::membrane(16);
        let coarse = run_fixed_sweeps(&p, 50, 0.95);
        let fine = run_fixed_sweeps(&p, 500, 0.95);
        let (converged, _) = solve_sequential(
            &p,
            &RichardsonParams {
                tol: 1e-10,
                ..Default::default()
            },
        );
        assert!(fine.max_abs_diff(&converged) <= coarse.max_abs_diff(&converged));
    }

    #[test]
    fn partial_sweeps_only_touch_their_rows() {
        let p = ObstacleProblem::membrane(10);
        let u_old = p.initial_guess();
        let mut u_new = Grid2D::filled(12, 12, 42.0);
        sweep_rows(&p, &u_old, &mut u_new, 3, 6, 0.9);
        assert_eq!(u_new[(1, 5)], 42.0, "rows outside the range are untouched");
        assert_ne!(u_new[(3, 5)], 42.0);
        assert_ne!(u_new[(5, 5)], 42.0);
        assert_eq!(u_new[(6, 5)], 42.0);
    }

    #[test]
    #[should_panic(expected = "omega")]
    fn invalid_omega_is_rejected() {
        let p = ObstacleProblem::membrane(8);
        solve_sequential(
            &p,
            &RichardsonParams {
                omega: 1.5,
                ..Default::default()
            },
        );
    }
}
