//! Per-PE, per-phase resource counters.
//!
//! The substrates (storage, net) and algorithms record *what actually
//! happened* — bytes moved per disk, bytes on the wire, elements
//! processed — and the `demsort-simcost` crate converts those measured
//! volumes into cluster phase times under a hardware profile. Figure 5
//! of the paper is read directly off [`IoCounters`]; Figures 2/3/4/6
//! additionally use the cost model.

use std::collections::BTreeMap;

/// The four phases of CANONICALMERGESORT as reported in Figures 2–6.
/// The striped algorithm and baselines map their work onto the nearest
/// equivalents.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Phase 1: run formation (read input, distributed sort, write runs).
    RunFormation,
    /// Phase 2a: multiway selection of exact splitters.
    MultiwaySelection,
    /// Phase 2b: external all-to-all redistribution.
    AllToAll,
    /// Phase 3: final local merge.
    FinalMerge,
}

impl Phase {
    /// All phases in algorithm order.
    pub const ALL: [Phase; 4] =
        [Phase::RunFormation, Phase::MultiwaySelection, Phase::AllToAll, Phase::FinalMerge];

    /// Short human-readable name (matches the figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::RunFormation => "Run formation",
            Phase::MultiwaySelection => "Multiway Selection",
            Phase::AllToAll => "All-to-all",
            Phase::FinalMerge => "Final merge",
        }
    }

    /// Stable snake_case key used in machine-readable output (trace
    /// journals, the `benchmark/` reports).
    pub fn key(&self) -> &'static str {
        match self {
            Phase::RunFormation => "run_formation",
            Phase::MultiwaySelection => "multiway_selection",
            Phase::AllToAll => "all_to_all",
            Phase::FinalMerge => "final_merge",
        }
    }

    /// Inverse of [`Phase::key`].
    pub fn from_key(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.key() == s)
    }

    /// Position of this phase in [`Phase::ALL`] (algorithm order).
    pub fn index(&self) -> usize {
        Phase::ALL.iter().position(|p| p == self).expect("phase in ALL")
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Disk traffic counters for one PE (summed over its local disks, with
/// the per-disk maximum of simulated busy time kept separately since
/// local disks run in parallel).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct IoCounters {
    /// Bytes read from local disks.
    pub bytes_read: u64,
    /// Bytes written to local disks.
    pub bytes_written: u64,
    /// Block read operations.
    pub blocks_read: u64,
    /// Block write operations.
    pub blocks_written: u64,
    /// Simulated busy time of the *busiest* local disk, in nanoseconds
    /// (local disks operate concurrently, so the busiest disk bounds the
    /// PE's I/O time).
    pub max_disk_busy_ns: u64,
}

impl IoCounters {
    /// Total bytes moved (read + written).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Counter-wise sum. Busy time sums too: merging accumulates
    /// sequential intervals (phases, runs) of the same disks, so their
    /// busiest-disk times add up.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            blocks_read: self.blocks_read + other.blocks_read,
            blocks_written: self.blocks_written + other.blocks_written,
            max_disk_busy_ns: self.max_disk_busy_ns + other.max_disk_busy_ns,
        }
    }

    /// Difference `self - earlier` (for phase deltas from cumulative
    /// counters).
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            blocks_read: self.blocks_read - earlier.blocks_read,
            blocks_written: self.blocks_written - earlier.blocks_written,
            max_disk_busy_ns: self.max_disk_busy_ns.saturating_sub(earlier.max_disk_busy_ns),
        }
    }
}

/// Network traffic counters for one PE.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CommCounters {
    /// Payload bytes sent to other PEs (self-messages are free and not
    /// counted, matching MPI practice of memcpy for self sends).
    pub bytes_sent: u64,
    /// Payload bytes received from other PEs.
    pub bytes_recv: u64,
    /// Number of point-to-point messages sent (collectives decompose).
    pub messages: u64,
}

impl CommCounters {
    /// Counter-wise sum.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            messages: self.messages + other.messages,
        }
    }

    /// Difference `self - earlier`.
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_recv: self.bytes_recv - earlier.bytes_recv,
            messages: self.messages - earlier.messages,
        }
    }
}

/// CPU work counters for one PE.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CpuCounters {
    /// Elements passed through comparison-based sorting
    /// (`n` of an `n log n` local sort).
    pub elements_sorted: u64,
    /// Sum over sort calls of `n · ⌈log2 n⌉` — the comparison count
    /// proxy for sorting. The cost model scales it exactly: sorting
    /// `s·n` elements costs `s·(n log n + n log s)`.
    pub sort_work: u64,
    /// Elements passed through k-way merging (`n` of an `n log k`
    /// merge).
    pub elements_merged: u64,
    /// Sum over merge calls of `elements · ⌈log2 k⌉` — the comparison
    /// count proxy for merging.
    pub merge_work: u64,
    /// Sequence probes spent by multiway *split* selections (the range
    /// splitters of the in-node parallel merge). Kept separate from
    /// `merge_work` so the `n · ⌈log2 k⌉` merge-comparison bound stays
    /// exact regardless of how many threads the merge ran on.
    pub split_probes: u64,
    /// Wall-clock nanoseconds actually spent on this phase on the host
    /// machine (sanity signal; the cost model uses the work counters).
    pub host_wall_ns: u64,
}

impl CpuCounters {
    /// Counter-wise sum.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            elements_sorted: self.elements_sorted + other.elements_sorted,
            sort_work: self.sort_work + other.sort_work,
            elements_merged: self.elements_merged + other.elements_merged,
            merge_work: self.merge_work + other.merge_work,
            split_probes: self.split_probes + other.split_probes,
            host_wall_ns: self.host_wall_ns + other.host_wall_ns,
        }
    }
}

/// All counters for one phase on one PE.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Disk traffic.
    pub io: IoCounters,
    /// Network traffic.
    pub comm: CommCounters,
    /// CPU work.
    pub cpu: CpuCounters,
}

impl PhaseStats {
    /// Merge two phase stats (e.g. accumulate across runs).
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            io: self.io.merge(&other.io),
            comm: self.comm.merge(&other.comm),
            cpu: self.cpu.merge(&other.cpu),
        }
    }
}

/// The full result of a distributed sort: per-PE, per-phase counters
/// plus global metadata. Returned by every sorter so experiments and
/// the cost model share one format.
#[derive(Clone, Debug, Default)]
pub struct SortReport {
    /// Number of PEs that participated.
    pub pes: usize,
    /// Total elements sorted.
    pub elements: u64,
    /// Bytes per element.
    pub element_bytes: usize,
    /// Number of runs formed (`R`).
    pub runs: usize,
    /// `stats[pe][phase]` — measured counters.
    pub stats: Vec<BTreeMap<Phase, PhaseStats>>,
}

impl SortReport {
    /// Create an empty report for `pes` PEs.
    pub fn new(pes: usize, elements: u64, element_bytes: usize, runs: usize) -> Self {
        Self { pes, elements, element_bytes, runs, stats: vec![BTreeMap::new(); pes] }
    }

    /// Record (accumulate) stats for a phase on a PE.
    pub fn record(&mut self, pe: usize, phase: Phase, stats: PhaseStats) {
        let slot = self.stats[pe].entry(phase).or_default();
        *slot = slot.merge(&stats);
    }

    /// Counters for a phase on a PE (zero if never recorded).
    pub fn get(&self, pe: usize, phase: Phase) -> PhaseStats {
        self.stats[pe].get(&phase).copied().unwrap_or_default()
    }

    /// Sum of a metric over all PEs for one phase.
    pub fn phase_total(&self, phase: Phase, f: impl Fn(&PhaseStats) -> u64) -> u64 {
        (0..self.pes).map(|pe| f(&self.get(pe, phase))).sum()
    }

    /// Maximum of a metric over all PEs for one phase — the right
    /// aggregation for wall time, where a phase ends when its slowest
    /// PE does.
    pub fn phase_max(&self, phase: Phase, f: impl Fn(&PhaseStats) -> u64) -> u64 {
        (0..self.pes).map(|pe| f(&self.get(pe, phase))).max().unwrap_or(0)
    }

    /// Total bytes of input (`N · element_bytes`).
    pub fn total_bytes(&self) -> u64 {
        self.elements * self.element_bytes as u64
    }

    /// Total disk traffic over all PEs and phases, in units of the input
    /// size — the paper's "number of passes" is half of this (one pass =
    /// read + write).
    pub fn io_volume_over_n(&self) -> f64 {
        let io: u64 =
            Phase::ALL.iter().map(|ph| self.phase_total(*ph, |s| s.io.bytes_total())).sum();
        io as f64 / self.total_bytes() as f64
    }

    /// Communication volume (bytes sent, all PEs, all phases) over input
    /// size.
    pub fn comm_volume_over_n(&self) -> f64 {
        let comm: u64 =
            Phase::ALL.iter().map(|ph| self.phase_total(*ph, |s| s.comm.bytes_sent)).sum();
        comm as f64 / self.total_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_match_figures() {
        assert_eq!(Phase::RunFormation.name(), "Run formation");
        assert_eq!(Phase::AllToAll.name(), "All-to-all");
    }

    #[test]
    fn io_delta_and_merge() {
        let a = IoCounters {
            bytes_read: 100,
            bytes_written: 50,
            blocks_read: 2,
            blocks_written: 1,
            max_disk_busy_ns: 10,
        };
        let b = IoCounters {
            bytes_read: 160,
            bytes_written: 90,
            blocks_read: 3,
            blocks_written: 2,
            max_disk_busy_ns: 25,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.bytes_read, 60);
        assert_eq!(d.bytes_written, 40);
        assert_eq!(d.max_disk_busy_ns, 15);
        assert_eq!(a.merge(&d).bytes_total(), b.bytes_total());
        assert_eq!(a.merge(&d).max_disk_busy_ns, 25, "busy time of sequential intervals sums");
    }

    #[test]
    fn report_accumulates() {
        let mut r = SortReport::new(2, 1000, 16, 4);
        let s = PhaseStats {
            io: IoCounters { bytes_read: 16_000, ..Default::default() },
            ..Default::default()
        };
        r.record(0, Phase::RunFormation, s);
        r.record(0, Phase::RunFormation, s);
        assert_eq!(r.get(0, Phase::RunFormation).io.bytes_read, 32_000);
        assert_eq!(r.get(1, Phase::RunFormation).io.bytes_read, 0);
        assert_eq!(r.phase_total(Phase::RunFormation, |s| s.io.bytes_read), 32_000);
    }

    #[test]
    fn volume_ratios() {
        let mut r = SortReport::new(1, 1000, 16, 1);
        // one pass = read once + write once = 2N bytes of traffic
        let s = PhaseStats {
            io: IoCounters { bytes_read: 16_000, bytes_written: 16_000, ..Default::default() },
            ..Default::default()
        };
        r.record(0, Phase::RunFormation, s);
        assert!((r.io_volume_over_n() - 2.0).abs() < 1e-9);
        assert_eq!(r.comm_volume_over_n(), 0.0);
    }
}
