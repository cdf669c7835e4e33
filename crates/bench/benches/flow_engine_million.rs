//! Million-flow scale: 1M concurrent flows with churn on the ISP hierarchy.
//!
//! The paper's evaluation tops out at ~1024-node xDSL platforms; the ROADMAP
//! north star is "millions of users". Above 10k flows the bottleneck moves
//! from the fill (solved by the engine PRs) to the *event core*: heap
//! footprint, bytes per flow, and the cost of keeping a million pending
//! completion events ordered. This bench pins that regime:
//!
//! * topology: [`isp_hierarchy`] at its default fan-outs — 4 backbones × 8
//!   metros × 16 DSLAMs × 40 subscribers = 20 480 hosts behind 5–10 Mbps
//!   last miles;
//! * workload: 1 000 000 flows between fixed subscriber pairs (8 disjoint
//!   pairs per DSLAM, ~244 flows each), all started at t = 0, then run to
//!   drain with a churn cohort: the first 50 000 completions each start a
//!   replacement flow on their pair. Equal-size flows on a pair complete in
//!   the same simulated instant, so the drain is completion-heavy: large
//!   same-instant cohorts for the radix-heap scheduler;
//! * engine: [`Network::new`] — the one serial flush, which has no options.
//!
//! Besides wall clock, the bench records telemetry through the criterion
//! shim's metric lines (`{"id":…,"metric":…,"value":…}`):
//!
//! * `peak_rss_bytes` — kernel high-water mark (`VmHWM`) over the run;
//! * `bytes_per_flow` — the engine's own accounting
//!   ([`Network::memory_footprint`] plus [`Scheduler::footprint_bytes`])
//!   divided by the live population, sampled at full population;
//! * `events_per_sec` — scheduler events delivered per wall-clock second
//!   over the whole start + drain.
//!
//! `bench_gate` fails CI when `peak_rss_bytes` or `bytes_per_flow` exceed
//! 1.5× their recorded baselines — memory regressions gate the same way
//! speed regressions do. Recorded numbers live in `BENCH_flow_engine.json`
//! (regenerate with `CRITERION_SHIM_JSON=… cargo bench --bench
//! flow_engine_million`); they come from a 1-core VM, so treat events/sec
//! as a floor, not a ceiling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{
    isp_hierarchy, HostSpec, IspHierarchyParams, NetEvent, Network, Scheduler, SharingMode,
    Topology,
};
use p2p_common::{DataSize, HostId};
use p2pdc_bench::telemetry;
use std::cell::Cell;
use std::time::Instant;

/// Concurrent flows at t = 0.
const TOTAL_FLOWS: usize = 1_000_000;
/// Completions that each start a replacement flow on their pair.
const CHURN: u64 = 50_000;
/// Disjoint subscriber pairs per DSLAM (16 of the 40 hosts).
const PAIRS_PER_DSLAM: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Net(NetEvent),
}
impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Self {
        Ev::Net(e)
    }
}

/// The fixed subscriber pairs: `PAIRS_PER_DSLAM` disjoint (src, dst) host
/// pairs inside every DSLAM. Keeping the pair count small (4096) bounds the
/// route-cache and Dijkstra cost; keeping pairs disjoint keeps each pair's
/// last-mile links — and therefore its fill component — independent, so the
/// load on the *event core* (a million pending completions) dominates.
fn dslam_pairs(topo: &Topology, params: IspHierarchyParams) -> Vec<(HostId, HostId)> {
    let per_dslam = params.hosts_per_dslam;
    assert!(per_dslam >= 2 * PAIRS_PER_DSLAM, "need 16 hosts per DSLAM");
    let dslams = topo.hosts.len() / per_dslam;
    let mut pairs = Vec::with_capacity(dslams * PAIRS_PER_DSLAM);
    for d in 0..dslams {
        let base = d * per_dslam;
        for j in 0..PAIRS_PER_DSLAM {
            pairs.push((topo.hosts[base + 2 * j], topo.hosts[base + 2 * j + 1]));
        }
    }
    pairs
}

#[derive(Debug, Clone, Copy, Default)]
struct MillionStats {
    bytes_per_flow: f64,
    events_per_sec: f64,
    live_at_peak: usize,
}

/// One full run: start `TOTAL_FLOWS`, drain with the churn cohort, return
/// the telemetry sampled along the way.
fn run_million(topo: &Topology, pairs: &[(HostId, HostId)]) -> MillionStats {
    let started = Instant::now();
    let mut net = Network::new(topo.platform.clone(), SharingMode::MaxMinFair);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for f in 0..TOTAL_FLOWS {
        let p = f % pairs.len();
        let (src, dst) = pairs[p];
        // Equal sizes within a pair (one completion cohort per pair),
        // staggered across the 8 pairs of a DSLAM.
        let size = DataSize::from_bytes(100_000 * (1 + (p % PAIRS_PER_DSLAM) as u64));
        net.start_flow(&mut sched, src, dst, size, f as u64);
    }
    let mut stats = MillionStats::default();
    let mut delivered = 0u64;
    let mut churned = 0u64;
    let mut measured = false;
    while let Some((_, Ev::Net(ne))) = sched.pop() {
        let done = net.on_event(&mut sched, ne);
        if !measured && done.is_some() {
            // First completion: every flow has activated, the population is
            // at its peak — sample the per-flow footprint here.
            let fp = net.memory_footprint();
            stats.bytes_per_flow = fp.bytes_per_flow(sched.footprint_bytes());
            stats.live_at_peak = fp.live_flows;
            measured = true;
        }
        if let Some(d) = done {
            delivered += 1;
            if churned < CHURN && d.token < TOTAL_FLOWS as u64 {
                let p = (d.token as usize) % pairs.len();
                let (src, dst) = pairs[p];
                net.start_flow(
                    &mut sched,
                    src,
                    dst,
                    DataSize::from_bytes(50_000),
                    TOTAL_FLOWS as u64 + churned,
                );
                churned += 1;
            }
        }
    }
    assert_eq!(delivered, TOTAL_FLOWS as u64 + churned);
    assert_eq!(churned, CHURN);
    stats.events_per_sec = sched.delivered() as f64 / started.elapsed().as_secs_f64();
    stats
}

fn bench_flow_engine_million(c: &mut Criterion) {
    let params = IspHierarchyParams::default();
    let mut topo = isp_hierarchy(params, HostSpec::default(), 42);
    let pairs = dslam_pairs(&topo, params);
    // Warm the route cache once: 4096 Dijkstras over the 21k-node graph are
    // topology cost, not engine cost, and every per-iteration platform clone
    // inherits the warmed cache.
    for &(src, dst) in &pairs {
        topo.platform.route(src, dst);
    }

    // Reset the kernel's peak-RSS water mark so the recorded peak reflects
    // the simulation, not the topology build. If the container forbids the
    // reset, the whole-process peak is reported instead (conservative).
    let _ = telemetry::reset_peak_rss();

    let stats = Cell::new(MillionStats::default());
    let mut group = c.benchmark_group("flow_engine_million");
    group.sample_size(1);
    group.bench_with_input(
        BenchmarkId::new("warm_hierarchy", TOTAL_FLOWS),
        &pairs,
        |b, pairs| b.iter(|| stats.set(run_million(&topo, pairs))),
    );
    group.finish();

    let id = format!("flow_engine_million/warm_hierarchy/{TOTAL_FLOWS}");
    let s = stats.get();
    assert!(
        s.live_at_peak > TOTAL_FLOWS * 9 / 10,
        "peak population lost"
    );
    c.record_metric(&id, "bytes_per_flow", s.bytes_per_flow);
    c.record_metric(&id, "events_per_sec", s.events_per_sec);
    if let Some(peak) = telemetry::peak_rss_bytes() {
        c.record_metric(&id, "peak_rss_bytes", peak as f64);
    }
}

criterion_group!(benches, bench_flow_engine_million);
criterion_main!(benches);
