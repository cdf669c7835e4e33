//! Process-level memory telemetry for the memory-gated benches.
//!
//! The million-flow bench records its peak resident set alongside the
//! engine's own bytes/flow accounting, so `bench_gate` can fail CI on memory
//! regressions the same way it fails on wall-clock regressions. The numbers
//! come from the kernel — `VmHWM` in `/proc/self/status` — because that is
//! the one observer that sees every allocation (arenas, slabs, allocator
//! slack) without instrumenting the allocator.
//!
//! On non-Linux targets (no procfs) the probes return `None`/`false` and the
//! bench simply skips the RSS metric; the bytes/flow metric, computed by the
//! engine itself, is portable and always recorded.

/// Reset the kernel's peak-RSS water mark (`VmHWM`) for this process by
/// writing `5` to `/proc/self/clear_refs`, so a subsequent
/// [`peak_rss_bytes`] reading reflects only allocations made after this
/// call. Returns `false` when the kernel refuses (procfs absent, or the
/// container forbids the write) — callers then report the conservative
/// whole-process peak instead.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_and_plausible() {
        let peak = peak_rss_bytes().expect("procfs available on Linux");
        // A running test binary holds at least a megabyte and (on any
        // machine this repo targets) under a terabyte.
        assert!(peak > 1 << 20, "peak {peak} implausibly small");
        assert!(peak < 1 << 40, "peak {peak} implausibly large");
    }

    #[test]
    fn peak_rss_tracks_new_allocations() {
        // Whether or not the reset is permitted, touching a fresh 64 MiB
        // buffer must push the water mark to at least that size.
        let _ = reset_peak_rss();
        // black_box: release builds would otherwise elide the unread buffer.
        let buf = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = peak_rss_bytes().expect("procfs available on Linux");
        assert!(peak >= (buf.len() as u64), "peak {peak} below live buffer");
        assert_eq!(buf[buf.len() - 1], 1);
    }
}
