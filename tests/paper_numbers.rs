//! The paper's own numbers, pinned to the nanosecond at paper scale.
//!
//! Every simulated time of the Fig. 9–11 / Table I pipeline is a pure
//! function of the scenario, so a change to the replay kernel, the network
//! model or the trace generator that moves any prediction or reference run
//! shows up here as an exact mismatch, not a tolerance drift. The expected
//! values are copied from `perfbench/recorded.json` (the `paper_grid`
//! workload's record); the points are the small ones of the grid so the
//! test stays fast in a debug build.

use dperf::OptLevel;
use p2p_perf::{PlatformKind, Scenario};

fn scenario(platform: PlatformKind, opt: OptLevel, nprocs: usize) -> Scenario {
    Scenario::new(platform, nprocs).with_opt(opt)
}

fn predicted_ns(platform: PlatformKind, opt: OptLevel, nprocs: usize) -> u64 {
    scenario(platform, opt, nprocs).predict().total.as_nanos()
}

fn reference_ns(platform: PlatformKind, opt: OptLevel, nprocs: usize) -> u64 {
    scenario(platform, opt, nprocs)
        .run_reference()
        .total
        .as_nanos()
}

#[test]
fn grid5000_o3_prediction_and_reference_match_the_record() {
    // Fig. 10: dPerf prediction against the P2PDC reference.
    assert_eq!(
        predicted_ns(PlatformKind::Grid5000, OptLevel::O3, 2),
        14_188_592_872
    );
    assert_eq!(
        reference_ns(PlatformKind::Grid5000, OptLevel::O3, 2),
        14_187_888_384
    );
    assert_eq!(
        predicted_ns(PlatformKind::Grid5000, OptLevel::O3, 8),
        4_593_517_872
    );
    assert_eq!(
        reference_ns(PlatformKind::Grid5000, OptLevel::O3, 8),
        4_597_620_488
    );
}

#[test]
fn grid5000_o0_reference_matches_the_record() {
    // Fig. 9: the reference run at -O0.
    assert_eq!(
        reference_ns(PlatformKind::Grid5000, OptLevel::O0, 4),
        21_998_039_880
    );
}

#[test]
fn p2p_platform_predictions_match_the_record() {
    // Fig. 11 / Table I: -O0 predictions on the xDSL and LAN platforms.
    assert_eq!(
        predicted_ns(PlatformKind::Xdsl, OptLevel::O0, 4),
        113_226_866_530
    );
    assert_eq!(
        predicted_ns(PlatformKind::Lan, OptLevel::O0, 4),
        24_810_937_620
    );
}
