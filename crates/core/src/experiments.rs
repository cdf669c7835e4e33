//! Regeneration of every figure and table of the paper's evaluation (§IV).
//!
//! Each function returns the plotted data (a [`Figure`] of series, or an
//! [`EquivalenceTable`]) so the benches, the `experiments` binary, the
//! examples and the integration tests all share the same code path. The
//! functions accept the application so tests can use the scaled-down instance;
//! the `experiments` binary runs the paper-scale workload.
//!
//! Each point of a sweep — a peer count within a curve, an optimisation level
//! within Fig. 9, a platform within Fig. 11 — is an independent simulation of
//! an independent [`Scenario`], run in order on the calling thread. Since the
//! periodic replays are fast-forwarded, the whole paper-scale set takes under
//! a tenth of a second, too little for a thread map to pay for itself.

use crate::scenario::{PlatformKind, Scenario};
use dperf::equivalence::Tolerance;
use dperf::report::{Figure, Series};
use dperf::{EquivalenceTable, OptLevel, PerfCurve};
use obstacle::ObstacleApp;

/// The peer counts of the paper's evaluation: 2^n for n in 1..=5.
pub const PAPER_PEER_COUNTS: [usize; 5] = [2, 4, 8, 16, 32];

/// Which time a curve plots: the P2PDC reference execution
/// (`t_normal_execution`) or the dPerf prediction (`t_predicted`).
#[derive(Clone, Copy)]
enum Run {
    Reference,
    Prediction,
}

/// One curve of a figure: a run of the application on a platform, at one
/// optimisation level, over a list of peer counts.
type Curve<'a> = (Run, PlatformKind, OptLevel, &'a [usize]);

/// Simulate every point of every curve, in order.
fn run_curves<const N: usize>(app: &ObstacleApp, curves: &[Curve; N]) -> [PerfCurve; N] {
    curves.each_ref().map(|&(run, platform, opt, sizes)| {
        let points: Vec<(usize, f64)> = sizes
            .iter()
            .map(|&n| {
                let scenario = Scenario::new(platform, n)
                    .with_app(app.clone())
                    .with_opt(opt);
                let time = match run {
                    Run::Reference => scenario.run_reference().total,
                    Run::Prediction => scenario.predict().total,
                };
                (n, time.as_secs_f64())
            })
            .collect();
        PerfCurve::from_secs(platform.label(), &points)
    })
}

/// Reference execution-time curve (`t_normal_execution`) of the application
/// on a platform, at one optimisation level.
pub fn reference_curve(
    app: &ObstacleApp,
    platform: PlatformKind,
    sizes: &[usize],
    opt: OptLevel,
) -> PerfCurve {
    let [curve] = run_curves(app, &[(Run::Reference, platform, opt, sizes)]);
    curve
}

/// dPerf prediction curve (`t_predicted`) of the application on a platform,
/// at one optimisation level.
pub fn prediction_curve(
    app: &ObstacleApp,
    platform: PlatformKind,
    sizes: &[usize],
    opt: OptLevel,
) -> PerfCurve {
    let [curve] = run_curves(app, &[(Run::Prediction, platform, opt, sizes)]);
    curve
}

fn curve_to_series(label: impl Into<String>, curve: &PerfCurve) -> Series {
    let points: Vec<(usize, f64)> = curve
        .points
        .iter()
        .map(|p| (p.nprocs, p.time.as_secs_f64()))
        .collect();
    Series::new(label, &points)
}

/// **Fig. 9** — Stage-1 reference execution time of the obstacle problem on
/// the Bordeplage cluster for every GCC optimisation level.
pub fn fig9_reference_times(app: &ObstacleApp, sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "Fig. 9 — Stage-1 reference execution time, obstacle problem in the P2PDC environment",
    );
    let levels = OptLevel::all();
    let curves = levels.map(|opt| (Run::Reference, PlatformKind::Grid5000, opt, sizes));
    for (opt, curve) in levels.iter().zip(run_curves(app, &curves)) {
        fig.push(curve_to_series(
            format!("optimization level {}", opt.label()),
            &curve,
        ));
    }
    fig
}

/// **Fig. 10** — Stage-1 reference time compared to the dPerf prediction on
/// the identical cluster platform (GCC optimisation level 3 in the paper).
pub fn fig10_prediction_accuracy(app: &ObstacleApp, sizes: &[usize], opt: OptLevel) -> Figure {
    let mut fig = Figure::new(format!(
        "Fig. 10 — Stage-1 reference vs dPerf prediction, GCC optimization level {}",
        opt.label()
    ));
    let curves =
        [Run::Reference, Run::Prediction].map(|run| (run, PlatformKind::Grid5000, opt, sizes));
    let [reference, prediction] = run_curves(app, &curves);
    fig.push(curve_to_series("reference time", &reference));
    fig.push(curve_to_series("prediction with dPerf", &prediction));
    fig
}

/// **Fig. 11** — reference time compared to the dPerf predictions for the
/// Grid'5000 cluster, the xDSL Daisy grid and the LAN (optimisation level 0 in
/// the paper).
pub fn fig11_topology_comparison(app: &ObstacleApp, sizes: &[usize], opt: OptLevel) -> Figure {
    let mut fig = Figure::new(format!(
        "Fig. 11 — reference vs dPerf predictions for Grid5000, xDSL and LAN, optimization level {}",
        opt.label()
    ));
    let [reference, predictions @ ..] = run_curves(
        app,
        &[
            (Run::Reference, PlatformKind::Grid5000, opt, sizes),
            (Run::Prediction, PlatformKind::Grid5000, opt, sizes),
            (Run::Prediction, PlatformKind::Xdsl, opt, sizes),
            (Run::Prediction, PlatformKind::Lan, opt, sizes),
        ],
    );
    fig.push(curve_to_series("reference time", &reference));
    for curve in &predictions {
        fig.push(curve_to_series(
            format!("dPerf prediction for {}", curve.label),
            curve,
        ));
    }
    fig
}

/// **Table I** — equivalent computing power: for each cluster size, the
/// smallest xDSL / LAN configuration whose predicted performance is
/// comparable, with the paper's "higher / same / slightly lower" wording.
pub fn equivalence_table(
    app: &ObstacleApp,
    reference_sizes: &[usize],
    candidate_sizes: &[usize],
    opt: OptLevel,
) -> EquivalenceTable {
    let [reference, xdsl, lan] = run_curves(
        app,
        &[
            (
                Run::Prediction,
                PlatformKind::Grid5000,
                opt,
                reference_sizes,
            ),
            (Run::Prediction, PlatformKind::Xdsl, opt, candidate_sizes),
            (Run::Prediction, PlatformKind::Lan, opt, candidate_sizes),
        ],
    );
    EquivalenceTable::build(
        &reference,
        reference_sizes,
        &[&xdsl, &lan],
        Tolerance::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ObstacleApp {
        // Scaled-down instance: small enough to keep the tests fast, large
        // enough that compute still dominates the constant per-run overheads
        // (otherwise the scaling shape the assertions check disappears).
        ObstacleApp {
            n: 600,
            sweeps: 90,
            flops_per_point: 21.0,
        }
    }

    #[test]
    fn fig9_has_five_levels_that_scale_down_with_peers() {
        let fig = fig9_reference_times(&tiny(), &[2, 4, 8]);
        assert_eq!(fig.series.len(), 5);
        for series in &fig.series {
            assert!(
                series.at(8).unwrap() < series.at(2).unwrap(),
                "{}",
                series.label
            );
        }
        // Level 0 is the slowest, level 3 the fastest.
        let o0 = fig.series.iter().find(|s| s.label.ends_with(" 0")).unwrap();
        let o3 = fig.series.iter().find(|s| s.label.ends_with(" 3")).unwrap();
        assert!(o0.at(2).unwrap() > 2.0 * o3.at(2).unwrap());
    }

    #[test]
    fn fig10_prediction_is_close_to_reference() {
        let fig = fig10_prediction_accuracy(&tiny(), &[2, 4], OptLevel::O3);
        let reference = &fig.series[0];
        let prediction = &fig.series[1];
        for &n in &[2usize, 4] {
            let r = reference.at(n).unwrap();
            let p = prediction.at(n).unwrap();
            assert!(
                (r - p).abs() / r < 0.2,
                "n={n}: reference {r} vs prediction {p}"
            );
        }
    }

    #[test]
    fn fig11_xdsl_is_the_slowest_platform() {
        let fig = fig11_topology_comparison(&tiny(), &[2, 4], OptLevel::O0);
        let grid = fig
            .series
            .iter()
            .find(|s| s.label.contains("Grid5000"))
            .unwrap();
        let xdsl = fig
            .series
            .iter()
            .find(|s| s.label.contains("xDSL"))
            .unwrap();
        let lan = fig.series.iter().find(|s| s.label.contains("LAN")).unwrap();
        for &n in &[2usize, 4] {
            assert!(
                xdsl.at(n).unwrap() > lan.at(n).unwrap(),
                "xDSL must trail LAN at n={n}"
            );
            assert!(
                lan.at(n).unwrap() >= grid.at(n).unwrap(),
                "LAN cannot beat the cluster at n={n}"
            );
        }
    }
}
