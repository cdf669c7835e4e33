//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [fig9|fig10|fig11|table1|all] [--small]
//! ```
//!
//! Without `--small` the paper-scale obstacle workload is used (1200² grid,
//! 900 sweeps); the full set takes about 35–50 ms on a 2-core Xeon VM, since
//! the periodic replays are fast-forwarded. `--small` runs the reduced
//! workload the Criterion benches use (same shapes, smaller grid).

use dperf::OptLevel;
use p2p_perf::experiments::{
    equivalence_table, fig10_prediction_accuracy, fig11_topology_comparison, fig9_reference_times,
    PAPER_PEER_COUNTS,
};
use p2pdc_bench::{bench_app, paper_app};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let app = if small { bench_app() } else { paper_app() };
    let sizes: Vec<usize> = PAPER_PEER_COUNTS.to_vec();

    let run_fig9 = || {
        let fig = fig9_reference_times(&app, &sizes);
        println!("{}", fig.render());
    };
    let run_fig10 = || {
        let fig = fig10_prediction_accuracy(&app, &sizes, OptLevel::O3);
        println!("{}", fig.render());
    };
    let run_fig11 = || {
        let fig = fig11_topology_comparison(&app, &sizes, OptLevel::O0);
        println!("{}", fig.render());
    };
    let run_table1 = || {
        let table = equivalence_table(&app, &[2, 4, 8], &sizes, OptLevel::O0);
        println!("# Table I — equivalent computing power (optimization level 0)");
        println!("{}", table.render());
    };

    match which.as_str() {
        "fig9" => run_fig9(),
        "fig10" => run_fig10(),
        "fig11" => run_fig11(),
        "table1" => run_table1(),
        "all" => {
            run_fig9();
            run_fig10();
            run_fig11();
            run_table1();
        }
        other => {
            eprintln!("unknown experiment {other:?}; expected fig9|fig10|fig11|table1|all");
            std::process::exit(2);
        }
    }
}
