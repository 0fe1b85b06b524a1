//! Latency parameters for the simulated hardware.

use crate::clock::Micros;

/// Latency parameters charged to the [`crate::VirtualClock`].
///
/// The presets are calibrated to the *relative* magnitudes that drive the
/// paper's Figure 4, not to absolute 2004 hardware numbers: random page I/O
/// is orders of magnitude slower than CPU work, sequential log appends are
/// cheap per byte but each commit pays a synchronous force, and a LAN round
/// trip sits between CPU and disk cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Random page read on a buffer-pool miss.
    pub page_read: Micros,
    /// Write-back of an evicted dirty page.
    pub page_write: Micros,
    /// Touching a page already cached in the buffer pool.
    pub buffer_hit: Micros,
    /// Synchronous log force (fsync) at commit.
    pub log_force: Micros,
    /// Sequential log append cost per byte, in nanoseconds.
    pub log_append_per_byte_ns: u64,
    /// Fixed CPU cost of parsing/planning/dispatching one statement.
    pub cpu_per_statement: Micros,
    /// CPU cost per row touched by a statement.
    pub cpu_per_row: Micros,
    /// Fixed client↔server round-trip latency.
    pub network_rtt: Micros,
    /// Network transfer cost per byte, in nanoseconds.
    pub network_per_byte_ns: u64,
}

impl CostModel {
    /// All costs zero — functional tests only.
    pub fn free() -> Self {
        Self {
            page_read: Micros::ZERO,
            page_write: Micros::ZERO,
            buffer_hit: Micros::ZERO,
            log_force: Micros::ZERO,
            log_append_per_byte_ns: 0,
            cpu_per_statement: Micros::ZERO,
            cpu_per_row: Micros::ZERO,
            network_rtt: Micros::ZERO,
            network_per_byte_ns: 0,
        }
    }

    /// A disk-bound OLTP profile modelled on the paper's testbed
    /// (7200 RPM server disk ≈ 8 ms random I/O, commodity 100 Mbps LAN
    /// ≈ 200 µs RTT + 80 ns/byte, log force ≈ 2 ms thanks to sequential
    /// placement).
    pub fn disk_bound_oltp() -> Self {
        Self {
            page_read: Micros::new(8_000),
            page_write: Micros::new(8_000),
            buffer_hit: Micros::new(2),
            log_force: Micros::new(2_000),
            log_append_per_byte_ns: 25,
            cpu_per_statement: Micros::new(60),
            cpu_per_row: Micros::new(4),
            network_rtt: Micros::new(200),
            network_per_byte_ns: 80,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::disk_bound_oltp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let m = CostModel::disk_bound_oltp();
        assert!(m.page_read > m.log_force, "random I/O dwarfs a log force");
        assert!(m.log_force > m.network_rtt);
        assert!(m.network_rtt > m.cpu_per_statement);
        assert!(m.cpu_per_statement > m.buffer_hit);
    }

    #[test]
    fn default_is_disk_bound() {
        assert_eq!(CostModel::default(), CostModel::disk_bound_oltp());
    }
}
