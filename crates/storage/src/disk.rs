//! Disk timing model and per-disk statistics.
//!
//! Disks do not sleep — they *account*. Every operation adds its modeled
//! service time (positioning + transfer) to an atomic busy-time counter.
//! The cost model later reads these to compute phase I/O times at paper
//! scale. The defaults reproduce the paper's measured drives: Seagate
//! Barracuda 7200.10, "peak I/O rates between 60 and 71 MiB/s, in
//! average 67 MiB/s" with ~8 ms average positioning time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Timing model for one simulated disk, with optional zoned (ZBR)
/// bandwidth: real drives transfer faster on outer tracks (low block
/// addresses) than inner ones — the paper lists "worse performance of
/// tracks closer to the center of a disk (when disks fill up)" among
/// the reasons measured bandwidth fell below peak.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskModel {
    /// Average positioning (seek + rotational) latency per block access,
    /// in nanoseconds. Sequential scans of large blocks amortize this;
    /// it is charged per block operation, which matches the paper's
    /// block-granular access pattern.
    pub seek_ns: u64,
    /// Sustained transfer bandwidth on the outermost zone (bytes/s).
    pub bytes_per_sec: u64,
    /// Bandwidth on the innermost zone as a fraction of the outermost
    /// (`1.0` = no zoning). Typical 3.5" drives: ~0.5.
    pub inner_zone_fraction: f64,
    /// Slot count at which the innermost zone is reached (`0` disables
    /// zoning regardless of the fraction).
    pub zone_span_slots: u64,
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl DiskModel {
    /// The paper's measured drive: 67 MiB/s sustained, ~8 ms
    /// positioning, no zoning (zoning is opt-in via [`Self::zoned`]
    /// because experiments usually fold the slowdown into the cost
    /// model's sustained rate instead).
    pub fn paper() -> Self {
        Self {
            seek_ns: 8_000_000,
            bytes_per_sec: 67 * 1024 * 1024,
            inner_zone_fraction: 1.0,
            zone_span_slots: 0,
        }
    }

    /// The paper's drive with zoned bandwidth: 71 MiB/s on the outer
    /// tracks falling linearly to ~53% of that on the inner ones over
    /// `span_slots` block slots (Seagate 7200.10-like).
    pub fn zoned(span_slots: u64) -> Self {
        Self {
            seek_ns: 8_000_000,
            bytes_per_sec: 71 * 1024 * 1024,
            inner_zone_fraction: 0.53,
            zone_span_slots: span_slots,
        }
    }

    /// Effective bandwidth at block address `slot`.
    #[inline]
    pub fn bytes_per_sec_at(&self, slot: u64) -> f64 {
        if self.zone_span_slots == 0 || self.inner_zone_fraction >= 1.0 {
            return self.bytes_per_sec as f64;
        }
        let depth = (slot as f64 / self.zone_span_slots as f64).min(1.0);
        let fraction = 1.0 - depth * (1.0 - self.inner_zone_fraction);
        self.bytes_per_sec as f64 * fraction
    }

    /// Service time for transferring `bytes` in one operation at block
    /// address `slot`.
    #[inline]
    pub fn service_ns_at(&self, bytes: usize, slot: u64) -> u64 {
        self.seek_ns + (bytes as f64 * 1e9 / self.bytes_per_sec_at(slot)) as u64
    }

    /// Service time on the outermost zone (back-compat path used where
    /// the address is irrelevant).
    #[inline]
    pub fn service_ns(&self, bytes: usize) -> u64 {
        self.service_ns_at(bytes, 0)
    }
}

/// Lock-free per-disk counters, updated as requests are submitted.
#[derive(Debug, Default)]
pub struct DiskStats {
    /// Bytes read from this disk.
    pub bytes_read: AtomicU64,
    /// Bytes written to this disk.
    pub bytes_written: AtomicU64,
    /// Read operations.
    pub reads: AtomicU64,
    /// Write operations.
    pub writes: AtomicU64,
    /// Accumulated modeled service time (ns).
    pub busy_ns: AtomicU64,
}

impl DiskStats {
    /// Record a read of `bytes` with modeled service time `service_ns`.
    pub fn record_read(&self, bytes: usize, service_ns: u64) {
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
    }

    /// Record a write of `bytes` with modeled service time `service_ns`.
    pub fn record_write(&self, bytes: usize, service_ns: u64) {
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot (individual counters are exact;
    /// cross-counter skew is harmless for reporting).
    pub fn snapshot(&self) -> DiskStatsSnapshot {
        DiskStatsSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`DiskStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DiskStatsSnapshot {
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Modeled busy time (ns).
    pub busy_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_scales_with_bytes() {
        let m = DiskModel {
            seek_ns: 1_000_000,
            bytes_per_sec: 100 * 1024 * 1024,
            inner_zone_fraction: 1.0,
            zone_span_slots: 0,
        };
        let t_small = m.service_ns(4096);
        let t_big = m.service_ns(8 << 20);
        assert!(t_big > t_small);
        // 8 MiB at 100 MiB/s = 80 ms transfer + 1 ms seek
        let expected = 1_000_000 + (8u64 << 20) * 1_000_000_000 / (100 << 20);
        assert_eq!(t_big, expected);
    }

    #[test]
    fn zoned_bandwidth_falls_toward_inner_tracks() {
        let m = DiskModel::zoned(1000);
        let outer = m.bytes_per_sec_at(0);
        let mid = m.bytes_per_sec_at(500);
        let inner = m.bytes_per_sec_at(1000);
        assert!(outer > mid && mid > inner, "{outer} > {mid} > {inner}");
        assert_eq!(m.bytes_per_sec_at(5000), inner, "clamped past the span");
        let frac = inner / outer;
        assert!((frac - 0.53).abs() < 1e-9, "innermost fraction: {frac}");
        // Service time follows suit.
        assert!(m.service_ns_at(8 << 20, 1000) > m.service_ns_at(8 << 20, 0));
    }

    #[test]
    fn unzoned_model_is_address_independent() {
        let m = DiskModel::paper();
        assert_eq!(m.service_ns_at(4096, 0), m.service_ns_at(4096, 1 << 30));
    }

    #[test]
    fn paper_disk_rate() {
        let m = DiskModel::paper();
        // one 8 MiB block: ~119 ms transfer + 8 ms seek → ~127 ms,
        // i.e. ~63 MiB/s effective — within the measured 60..71 band.
        let t = m.service_ns(8 << 20);
        let eff_mib_s = (8u64 << 20) as f64 / (t as f64 / 1e9) / (1024.0 * 1024.0);
        assert!((55.0..67.5).contains(&eff_mib_s), "effective {eff_mib_s} MiB/s");
    }

    #[test]
    fn stats_accumulate() {
        let s = DiskStats::default();
        s.record_read(100, 5);
        s.record_read(200, 7);
        s.record_write(50, 3);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 300);
        assert_eq!(snap.bytes_written, 50);
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.busy_ns, 15);
    }
}
