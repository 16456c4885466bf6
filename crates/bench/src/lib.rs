//! # demsort-bench
//!
//! The reproduction harness: one experiment per figure/table of the
//! paper's evaluation (Section VI), runnable through the `repro`
//! binary, and the multi-process cluster runtime ([`procs`]).
//!
//! ## Scale
//!
//! Experiments run the real algorithms on the in-process cluster at
//! `1/8192` of the paper's data volume while preserving every ratio
//! that shapes the results:
//!
//! | quantity | paper | here (simulated) |
//! |---|---|---|
//! | block size `B` | 8 MiB | 1 KiB |
//! | memory/PE `m` | 16 GiB (2048 blocks) | 2 MiB (2048 blocks) |
//! | data/PE | 100 GiB (6.25 m) | 12.5 MiB (6.25 m) |
//! | runs `R` | 7 | 7 |
//! | blocks/PE | 12 800 | 12 800 |
//!
//! Byte volumes are converted back to paper scale by the cost model
//! (`scale = 8192`); block-op counts and run structure are already
//! identical, so seek charges and phase shapes carry over directly.

pub mod experiments;
pub mod procs;
pub mod table;

use demsort_core::canonical::{sort_cluster, ClusterOutcome};
use demsort_simcost::CostModel;
use demsort_types::{AlgoConfig, Element16, MachineConfig, SortConfig};
use demsort_workloads::{generate_pe_input, InputSpec};

/// Experiment-wide scale and machine shape (see module docs).
#[derive(Clone, Debug)]
pub struct ExpScale {
    /// Simulated block size.
    pub block_bytes: usize,
    /// Simulated memory per PE.
    pub mem_bytes_per_pe: usize,
    /// Simulated data per PE.
    pub data_bytes_per_pe: usize,
    /// Disks per PE (paper: 4).
    pub disks_per_pe: usize,
    /// Intra-PE cores used by the algorithms *in the simulation* (1 —
    /// host cores are busy simulating PEs; the cost model credits the
    /// paper's 8).
    pub sim_cores: usize,
    /// Bytes on the paper's cluster per simulated byte.
    pub scale: f64,
}

impl Default for ExpScale {
    fn default() -> Self {
        Self {
            block_bytes: 1 << 10,
            mem_bytes_per_pe: (1 << 10) * 2048,
            data_bytes_per_pe: (1 << 10) * 2048 * 25 / 4, // 6.25 m
            disks_per_pe: 4,
            sim_cores: 1,
            scale: 8192.0,
        }
    }
}

impl ExpScale {
    /// A faster, smaller preset for smoke tests (keeps `R ≈ 6.25` but
    /// shrinks memory to 128 blocks).
    pub fn smoke() -> Self {
        Self {
            block_bytes: 256,
            mem_bytes_per_pe: 256 * 128,
            data_bytes_per_pe: 256 * 128 * 25 / 4,
            disks_per_pe: 4,
            sim_cores: 1,
            scale: (100u64 << 30) as f64 / (256.0 * 128.0 * 25.0 / 4.0),
        }
    }

    /// Machine config for `pes` PEs.
    pub fn machine(&self, pes: usize) -> MachineConfig {
        MachineConfig {
            pes,
            disks_per_pe: self.disks_per_pe,
            block_bytes: self.block_bytes,
            mem_bytes_per_pe: self.mem_bytes_per_pe,
            cores_per_pe: self.sim_cores,
        }
    }

    /// Elements of 16 bytes per PE.
    pub fn elems_per_pe(&self) -> usize {
        self.data_bytes_per_pe / 16
    }

    /// Elements per block (the worst-case generator's band width).
    pub fn elems_per_block(&self) -> usize {
        self.block_bytes / 16
    }

    /// Cost model at this scale (against the paper's cluster).
    pub fn cost_model(&self, overlap: bool) -> CostModel {
        let mut m = CostModel::paper_scaled(self.scale);
        m.overlap = overlap;
        m
    }
}

/// Run CANONICALMERGESORT on `pes` PEs for `spec` input and return the
/// outcome (counters + per-PE stats).
pub fn run_canonical(
    scale: &ExpScale,
    pes: usize,
    spec: InputSpec,
    algo: AlgoConfig,
) -> ClusterOutcome<Element16> {
    let cfg = SortConfig::new(scale.machine(pes), algo).expect("valid experiment config");
    let local_n = scale.elems_per_pe();
    sort_cluster::<Element16, _>(&cfg, move |pe, p| {
        generate_pe_input(spec, 0xDE77_5047 ^ pes as u64, pe, p, local_n)
    })
    .expect("experiment sort")
}

/// The paper's worst-case input for this scale: bands the width of one
/// disk block.
pub fn worst_case(scale: &ExpScale) -> InputSpec {
    InputSpec::Banded { block_elems: scale.elems_per_block() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_matches_paper_ratios() {
        let s = ExpScale::default();
        let m = s.machine(4);
        assert_eq!(m.mem_blocks_per_pe(), 2048, "m/B = 2048 like 16 GiB / 8 MiB");
        assert_eq!(s.data_bytes_per_pe / s.mem_bytes_per_pe, 6, "⌊100/16⌋ runs");
        assert_eq!(s.data_bytes_per_pe / s.block_bytes, 12_800, "blocks per PE");
        let paper_per_pe = (100u64 << 30) as f64;
        assert!((s.scale * s.data_bytes_per_pe as f64 - paper_per_pe).abs() < 1e-6);
    }

    #[test]
    fn smoke_scale_sorts_and_reports() {
        let s = ExpScale::smoke();
        let outcome = run_canonical(&s, 2, InputSpec::Uniform, AlgoConfig::default());
        assert_eq!(outcome.per_pe.len(), 2);
        assert_eq!(outcome.per_pe[0].runs, 7, "R = ⌈6.25⌉");
        let io = outcome.report.io_volume_over_n();
        assert!((3.5..7.0).contains(&io), "two-pass external sort: {io}");
    }
}
