//! CI bench-regression gate.
//!
//! Compares the criterion shim's `--test`-mode minimal JSON (one line per
//! benchmark: `{"id":…,"ns":…}`, written via `CRITERION_SHIM_TEST_JSON`)
//! against the recorded baselines in `BENCH_flow_engine.json` and fails —
//! exit code 1 — when any scenario ran more than `tolerance` times slower
//! than its recorded mean, or when a recorded scenario did not run at all
//! (bench bit-rot: a renamed or dropped benchmark means the baseline file
//! needs regenerating).
//!
//! The tolerance is deliberately wide (default 3×): the test-mode number is
//! a single cold run with no warm-up, CI runners are slower and noisier
//! than the recording machine, and the gate exists to catch *catastrophic*
//! slowdowns and rot — not to re-measure. Scenarios present in the test run
//! but absent from the baseline (freshly added benches) are reported but do
//! not fail the gate; they start gating once the baseline is regenerated.
//!
//! **Memory gating.** Baseline records may carry a `metrics` object (e.g.
//! `{"peak_rss_bytes":…,"bytes_per_flow":…,"events_per_sec":…}`), matched
//! against the shim's metric lines (`{"id":…,"metric":…,"value":…}`). The
//! *memory* metrics — `peak_rss_bytes` and `bytes_per_flow` — fail the gate
//! at a fixed 1.5× over their recorded value: unlike wall clock they are
//! near-deterministic for a fixed workload, so the band is tight. A recorded
//! metric that did not run counts as a missing scenario, exactly like a
//! missing timing. Other metrics (throughput) are reported but do not gate —
//! they scale with the runner, not the code.
//!
//! ```text
//! usage: bench_gate <baseline.json> <test-run.jsonl> [tolerance]
//! ```

use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Memory metrics are near-deterministic for a fixed workload, so they gate
/// at a fixed tight band instead of the (CLI-tunable) wall-clock tolerance.
const MEM_TOLERANCE: f64 = 1.5;

/// The metrics that gate. Everything else (e.g. `events_per_sec`) is
/// reported for the record but scales with the runner, not the code.
fn is_memory_metric(name: &str) -> bool {
    matches!(name, "peak_rss_bytes" | "bytes_per_flow")
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench_gate: {msg}");
    eprintln!("usage: bench_gate <baseline.json> <test-run.jsonl> [tolerance]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 || args.len() > 4 {
        return fail("expected a baseline file and a test-run file");
    }
    let tolerance: f64 = match args.get(3).map(|t| t.parse()) {
        None => 3.0,
        Some(Ok(t)) if t > 1.0 => t,
        Some(_) => return fail("tolerance must be a number above 1.0"),
    };

    // Baseline: the checked-in measurement file; `results` is a list of
    // `{id, samples, mean_ns, min_ns, max_ns}` records.
    let baseline_text = match std::fs::read_to_string(&args[1]) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read baseline {}: {e}", args[1])),
    };
    let baseline: Value = match serde_json::from_str(&baseline_text) {
        Ok(v) => v,
        Err(e) => return fail(&format!("baseline {} is not JSON: {e}", args[1])),
    };
    let mut recorded: BTreeMap<String, f64> = BTreeMap::new();
    // Recorded telemetry, keyed by "<id>@<metric>".
    let mut recorded_metrics: BTreeMap<String, f64> = BTreeMap::new();
    let Some(results) = baseline.get("results").and_then(Value::as_array) else {
        return fail(&format!("baseline {} has no `results` array", args[1]));
    };
    for r in results {
        let (Some(id), Some(mean)) = (
            r.get("id").and_then(Value::as_str),
            r.get("mean_ns").and_then(Value::as_f64),
        ) else {
            return fail("baseline record without `id` + `mean_ns`");
        };
        recorded.insert(id.to_string(), mean);
        if let Some(metrics) = r.get("metrics").and_then(Value::as_object) {
            for (name, v) in metrics {
                let Some(v) = v.as_f64() else {
                    return fail(&format!("baseline metric {id}@{name} is not a number"));
                };
                recorded_metrics.insert(format!("{id}@{name}"), v);
            }
        }
    }

    // Test run: one minimal JSON object per line.
    let run_text = match std::fs::read_to_string(&args[2]) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read test run {}: {e}", args[2])),
    };
    let mut observed: BTreeMap<String, f64> = BTreeMap::new();
    let mut observed_metrics: BTreeMap<String, f64> = BTreeMap::new();
    for line in run_text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => return fail(&format!("test-run line is not JSON ({e}): {line}")),
        };
        let Some(id) = v.get("id").and_then(Value::as_str) else {
            return fail(&format!("test-run line without `id`: {line}"));
        };
        // Two line schemas share the sink: timings ({"id","ns"}) and
        // telemetry ({"id","metric","value"}).
        if let Some(metric) = v.get("metric").and_then(Value::as_str) {
            let Some(value) = v.get("value").and_then(Value::as_f64) else {
                return fail(&format!("metric line without numeric `value`: {line}"));
            };
            observed_metrics.insert(format!("{id}@{metric}"), value);
        } else if let Some(ns) = v.get("ns").and_then(Value::as_f64) {
            observed.insert(id.to_string(), ns);
        } else {
            return fail(&format!("test-run line without `ns` or `metric`: {line}"));
        }
    }
    if observed.is_empty() {
        return fail(&format!(
            "test run {} is empty — was CRITERION_SHIM_TEST_JSON set?",
            args[2]
        ));
    }

    let mut violations = 0usize;
    let mut missing = 0usize;
    for (id, &mean) in &recorded {
        match observed.get(id) {
            None => {
                println!("MISSING  {id:<55} recorded but did not run (regenerate the baseline?)");
                missing += 1;
            }
            Some(&ns) if mean > 0.0 && ns > mean * tolerance => {
                println!(
                    "FAIL     {id:<55} {:>12.0} ns vs recorded mean {:>12.0} ns ({:.2}x > {tolerance}x)",
                    ns,
                    mean,
                    ns / mean
                );
                violations += 1;
            }
            Some(&ns) => {
                println!(
                    "ok       {id:<55} {:>12.0} ns vs recorded mean {:>12.0} ns ({:.2}x)",
                    ns,
                    mean,
                    if mean > 0.0 { ns / mean } else { 0.0 }
                );
            }
        }
    }
    for (key, &mean) in &recorded_metrics {
        let (_, name) = key.split_once('@').expect("key built with '@'");
        match observed_metrics.get(key) {
            None => {
                println!("MISSING  {key:<55} recorded but did not run (regenerate the baseline?)");
                missing += 1;
            }
            Some(&v) if is_memory_metric(name) && mean > 0.0 && v > mean * MEM_TOLERANCE => {
                println!(
                    "FAIL     {key:<55} {v:>12.0} vs recorded {mean:>12.0} ({:.2}x > {MEM_TOLERANCE}x)",
                    v / mean
                );
                violations += 1;
            }
            Some(&v) => {
                let band = if is_memory_metric(name) {
                    format!("gated at {MEM_TOLERANCE}x")
                } else {
                    "informational".to_string()
                };
                println!(
                    "ok       {key:<55} {v:>12.0} vs recorded {mean:>12.0} ({:.2}x, {band})",
                    if mean > 0.0 { v / mean } else { 0.0 }
                );
            }
        }
    }
    for id in observed.keys() {
        if !recorded.contains_key(id) {
            println!("new      {id:<55} not in the baseline yet (gates after regeneration)");
        }
    }
    for key in observed_metrics.keys() {
        if !recorded_metrics.contains_key(key) {
            println!("new      {key:<55} not in the baseline yet (gates after regeneration)");
        }
    }

    println!(
        "bench_gate: {} scenario(s) + {} metric(s) checked, {violations} over tolerance, {missing} missing",
        recorded.len(),
        recorded_metrics.len(),
    );
    if violations > 0 || missing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
