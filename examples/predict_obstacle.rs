//! The dPerf pipeline, step by step.
//!
//! ```text
//! cargo run --release --example predict_obstacle
//! ```
//!
//! Walks through every stage of Fig. 6 for the obstacle problem: static
//! analysis of the program, block decomposition and dependence graph,
//! instrumentation (and the unparsed instrumented pseudo-source), block
//! benchmarking, per-process trace generation, and finally trace-based
//! simulation on the three platforms of the evaluation.

use dperf::analysis::{analyze, build_dependence_graph, DepKind};
use dperf::ir::RankContext;
use dperf::{
    generate_traces, predict_traces, InstrumentedProgram, MachineModel, ModeledBencher, OptLevel,
};
use netsim::{cluster_bordeplage, daisy_xdsl, lan, HostSpec, PlacementPolicy, SharingMode};
use obstacle::ObstacleApp;
use p2psap::IterativeScheme;

fn main() {
    let app = ObstacleApp::small();
    let nprocs = 4;
    let program = app.program();

    // 1. Automatic static analysis (per rank).
    let env = ObstacleApp::rank_env(1, nprocs, &program.defaults);
    let report = analyze(&program, &env, RankContext { rank: 1, nprocs });
    println!("== static analysis (rank 1 of {nprocs}) ==");
    println!(
        "  statements: {}, loop depth: {}",
        report.stmt_count, report.max_loop_depth
    );
    println!(
        "  communication sites: {} point-to-point, {} collective",
        report.comm_sites, report.collective_sites
    );
    println!(
        "  dynamic work: {:.2e} flops, {} messages",
        report.total_flops, report.dynamic_messages
    );

    // 2. Dependence graphs (the DDG/CDG of Fig. 7).
    let ddg = build_dependence_graph(&program);
    println!("\n== dependence graph ==");
    println!(
        "  {} nodes, {} flow edges, {} control edges",
        ddg.node_count(),
        ddg.edges_of_kind(DepKind::Flow).len(),
        ddg.edges_of_kind(DepKind::Control).len()
    );

    // 3. Instrumentation and unparsing.
    let instrumented = InstrumentedProgram::instrument(&program);
    println!(
        "\n== instrumented pseudo-source ({} probes) ==",
        instrumented.probes.len()
    );
    for line in instrumented.unparse().lines().take(12) {
        println!("  {line}");
    }
    println!("  ...");

    // 4. Block benchmarking + trace generation (one trace file per process).
    let bencher = ModeledBencher::new(MachineModel::xeon_em64t_3ghz(), OptLevel::O0);
    let traces = generate_traces(
        &program,
        &app.base_env(),
        nprocs,
        &bencher,
        Some(&ObstacleApp::rank_env),
        "0",
    );
    println!("\n== traces ==");
    println!(
        "  {} processes, {} events, {} messages, max per-rank compute {}",
        traces.nprocs,
        traces.event_count(),
        traces.total_messages(),
        traces.max_compute_time()
    );

    // 5. Trace-based simulation on each platform.
    println!("\n== predictions (optimization level 0, {nprocs} peers) ==");
    let host = HostSpec::xeon_em64t_3ghz();
    let platforms = [
        ("Grid5000", cluster_bordeplage(nprocs, host)),
        ("LAN", lan(64, host)),
        ("xDSL", daisy_xdsl(64, host, 42)),
    ];
    for (name, topo) in platforms {
        let hosts = topo.pick_hosts(nprocs, PlacementPolicy::Spread);
        let pred = predict_traces(
            &traces,
            &topo,
            &hosts,
            IterativeScheme::Synchronous,
            SharingMode::Bottleneck,
        );
        println!(
            "  {name:<9} t_predicted = {:>9.3} s   (compute {:>7.3} s, waiting {:>7.3} s, {} messages)",
            pred.total.as_secs_f64(),
            pred.max_compute.as_secs_f64(),
            pred.max_wait.as_secs_f64(),
            pred.messages
        );
    }
}
