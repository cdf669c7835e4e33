//! Data sizes and link bandwidths.
//!
//! The platform descriptions in the paper mix units freely (1 Gbps NICs,
//! 10 Gbps backbones, 5–10 Mbps xDSL last miles, kilobyte-sized halo
//! exchanges); these newtypes keep the arithmetic honest. Bandwidths are in
//! bits per second, sizes in bytes, matching networking convention.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// An amount of data, in bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DataSize(u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// Build from a byte count.
    pub const fn from_bytes(b: u64) -> Self {
        DataSize(b)
    }

    /// Build from binary kilobytes (KiB).
    pub const fn from_kib(k: u64) -> Self {
        DataSize(k * 1024)
    }

    /// Build from binary megabytes (MiB).
    pub const fn from_mib(m: u64) -> Self {
        DataSize(m * 1024 * 1024)
    }

    /// Byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Bit count.
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }
}

impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 + rhs.0)
    }
}

impl AddAssign for DataSize {
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for DataSize {
    type Output = DataSize;
    fn mul(self, rhs: u64) -> DataSize {
        DataSize(self.0 * rhs)
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> Self {
        DataSize(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 < 1024 {
            write!(f, "{}B", self.0)
        } else if self.0 < 1024 * 1024 {
            write!(f, "{:.2}KiB", b / 1024.0)
        } else if self.0 < 1024 * 1024 * 1024 {
            write!(f, "{:.2}MiB", b / (1024.0 * 1024.0))
        } else {
            write!(f, "{:.2}GiB", b / (1024.0 * 1024.0 * 1024.0))
        }
    }
}

/// A link bandwidth, in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Build from raw bits per second.
    pub fn from_bps(b: f64) -> Self {
        assert!(
            b >= 0.0 && b.is_finite(),
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(b)
    }

    /// Build from kilobits per second (10^3 bits/s).
    pub fn from_kbps(k: f64) -> Self {
        Bandwidth::from_bps(k * 1e3)
    }

    /// Build from megabits per second (10^6 bits/s).
    pub fn from_mbps(m: f64) -> Self {
        Bandwidth::from_bps(m * 1e6)
    }

    /// Build from gigabits per second (10^9 bits/s).
    pub fn from_gbps(g: f64) -> Self {
        Bandwidth::from_bps(g * 1e9)
    }

    /// Bits per second.
    pub fn bps(self) -> f64 {
        self.0
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// Serialization time of `size` at this bandwidth. A zero bandwidth yields
    /// [`SimDuration::MAX`] (the transfer never completes).
    pub fn transfer_time(self, size: DataSize) -> SimDuration {
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        // Scale in floating point: `bits()` overflows above 2^61 bytes, and
        // multiplying by 8 after the conversion rounds identically.
        SimDuration::from_secs_f64(size.bytes() as f64 * 8.0 / self.0)
    }

    /// The smaller of two bandwidths (used to find a route's bottleneck).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2}Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2}Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_size_conversions() {
        assert_eq!(DataSize::from_kib(2).bytes(), 2048);
        assert_eq!(DataSize::from_mib(1).bytes(), 1 << 20);
        assert_eq!(DataSize::from_bytes(10).bits(), 80);
        assert_eq!(
            DataSize::from_kib(1) + DataSize::from_bytes(24),
            DataSize::from_bytes(1048)
        );
    }

    #[test]
    fn data_size_display() {
        assert_eq!(DataSize::from_bytes(100).to_string(), "100B");
        assert_eq!(DataSize::from_kib(1).to_string(), "1.00KiB");
        assert_eq!(DataSize::from_mib(3).to_string(), "3.00MiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        // 1 Gbps moving 125 MB takes exactly one second.
        let bw = Bandwidth::from_gbps(1.0);
        let size = DataSize::from_bytes(125_000_000);
        assert_eq!(bw.transfer_time(size), SimDuration::from_secs(1));
        // 9600 bytes over 100 Mbps = 768 microseconds.
        let t = Bandwidth::from_mbps(100.0).transfer_time(DataSize::from_bytes(9600));
        assert_eq!(t, SimDuration::from_micros(768));
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        let bw = Bandwidth::from_bps(0.0);
        assert_eq!(bw.transfer_time(DataSize::from_bytes(1)), SimDuration::MAX);
    }

    #[test]
    fn bandwidth_min_and_display() {
        let a = Bandwidth::from_mbps(100.0);
        let b = Bandwidth::from_gbps(1.0);
        assert_eq!(a.min(b), a);
        assert_eq!(b.to_string(), "1.00Gbps");
        assert_eq!(Bandwidth::from_kbps(512.0).to_string(), "512.00Kbps");
    }

    #[test]
    fn data_size_sums() {
        let total: DataSize = (0..4).map(|_| DataSize::from_bytes(100)).sum();
        assert_eq!(total, DataSize::from_bytes(400));
    }
}
