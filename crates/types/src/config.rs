//! Machine and algorithm configuration.
//!
//! Mirrors Table I of the paper:
//!
//! | Resource | Symbol | Here |
//! |---|---|---|
//! | #PEs | `P` | [`MachineConfig::pes`] |
//! | internal memory (elements) | `M` | `P ·` [`MachineConfig::mem_bytes_per_pe`] |
//! | #disks | `D` | `P ·` [`MachineConfig::disks_per_pe`] |
//! | block size | `B` | [`MachineConfig::block_bytes`] |
//! | #elements | `N` | per experiment |
//! | #runs | `R` | `⌈N/M⌉` |
//!
//! Sizes here are in **bytes** (the paper uses element counts; the
//! conversion is `bytes / Record::BYTES`).

use crate::error::{Error, Result};

/// The share of `m` the external all-to-all may use for its in-memory
/// sub-operations ([`MachineConfig::alltoall_budget_bytes`]).
const ALLTOALL_MEM_FRACTION: f64 = 0.5;

/// The most disks one PE can have: a block id names its disk in 32 bits
/// (`demsort_storage::BlockId::disk`).
const MAX_DISKS_PER_PE: usize = (u32::MAX as usize).saturating_add(1);

/// Static description of the (simulated) cluster a sort runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of processing elements `P` (one PE = one node = one
    /// communicator rank; the paper: "One cluster node corresponds to
    /// one PE").
    pub pes: usize,
    /// Disks per PE (`D = pes * disks_per_pe`); the paper's nodes have 4.
    pub disks_per_pe: usize,
    /// External-memory block size `B` in bytes (paper default: 8 MiB).
    pub block_bytes: usize,
    /// Local internal memory `m` in bytes available for run formation
    /// (paper: 16 GiB per node, i.e. `M = P·m`).
    pub mem_bytes_per_pe: usize,
    /// Cores per PE used by in-node parallel sorting (paper: 8).
    pub cores_per_pe: usize,
}

impl MachineConfig {
    /// A small laptop-scale configuration preserving the paper's ratios
    /// (`m/B = 2048` blocks of local memory).
    pub fn small(pes: usize) -> Self {
        Self {
            pes,
            disks_per_pe: 4,
            block_bytes: 4 << 10,
            mem_bytes_per_pe: (4 << 10) * 2048,
            cores_per_pe: 1,
        }
    }

    /// A tiny configuration for unit tests (few, small blocks).
    pub fn tiny(pes: usize) -> Self {
        Self { pes, disks_per_pe: 2, block_bytes: 256, mem_bytes_per_pe: 256 * 16, cores_per_pe: 1 }
    }

    /// The paper's cluster: 4 disks/node, B = 8 MiB, m = 16 GiB
    /// (2^34 bytes), 8 cores. Used by the cost model at paper scale.
    pub fn paper(pes: usize) -> Self {
        Self {
            pes,
            disks_per_pe: 4,
            block_bytes: 8 << 20,
            mem_bytes_per_pe: 16 << 30,
            cores_per_pe: 8,
        }
    }

    /// Global memory `M` in bytes (`P · m`) — the size of one run.
    pub fn global_mem_bytes(&self) -> u64 {
        self.pes as u64 * self.mem_bytes_per_pe as u64
    }

    /// Total number of disks `D`.
    pub fn total_disks(&self) -> usize {
        self.pes * self.disks_per_pe
    }

    /// Local memory measured in blocks (`m/B`).
    pub fn mem_blocks_per_pe(&self) -> usize {
        self.mem_bytes_per_pe / self.block_bytes
    }

    /// Capacity of each PE's recycled block-buffer pool: the memory
    /// budget in blocks (`m/B`), but never below double-buffered
    /// prefetch on every disk plus a carry block and one spare — a
    /// smaller pool thrashes (every steady-state `get` misses). The pool
    /// bounds steady-state allocation only; it never changes what is
    /// read, written or sent.
    pub fn pool_blocks(&self) -> usize {
        self.mem_blocks_per_pe().max(2 * self.disks_per_pe + 2)
    }

    /// Bytes one sub-operation of the external all-to-all may send: its
    /// share of `m` (Section IV-C picks the sub-operation count `k` so
    /// the send volume fits).
    pub fn alltoall_budget_bytes(&self) -> u64 {
        (self.mem_bytes_per_pe as f64 * ALLTOALL_MEM_FRACTION) as u64
    }

    /// Runs merged per pass of the striped sort: `M/B`, the blocks of
    /// global memory, and at least 2.
    pub fn merge_fan_in(&self) -> usize {
        (self.mem_blocks_per_pe() * self.pes).max(2)
    }

    /// Check the configuration is internally consistent.
    pub fn validate(&self) -> Result<()> {
        if self.pes == 0 {
            return Err(Error::config("pes must be > 0"));
        }
        if self.disks_per_pe == 0 {
            return Err(Error::config("disks_per_pe must be > 0"));
        }
        // A block id names its disk in 32 bits.
        if self.disks_per_pe > MAX_DISKS_PER_PE {
            return Err(Error::config(format!(
                "disks_per_pe ({}) must be at most {MAX_DISKS_PER_PE}",
                self.disks_per_pe
            )));
        }
        if self.block_bytes == 0 {
            return Err(Error::config("block_bytes must be > 0"));
        }
        if self.cores_per_pe == 0 {
            return Err(Error::config("cores_per_pe must be > 0"));
        }
        if self.mem_bytes_per_pe < 4 * self.block_bytes {
            return Err(Error::config(format!(
                "mem_bytes_per_pe ({}) must be at least 4 blocks ({})",
                self.mem_bytes_per_pe,
                4 * self.block_bytes
            )));
        }
        Ok(())
    }
}

/// Algorithmic switches of CANONICALMERGESORT and the striped variant.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgoConfig {
    /// Randomize the assignment of local input blocks to runs
    /// ("each PE chooses its participating blocks for the run randomly",
    /// Section IV). Turning this off reproduces Figure 6.
    pub randomize: bool,
    /// Store every `K`-th element of each sorted run as a sample
    /// (Section IV-A / Appendix B). The sample brackets every run's
    /// split to a window of fewer than `2K + 2R(K−1)` records, which
    /// multiway selection reads instead of the runs; so `K ≥ 1`.
    pub sample_every: usize,
    /// Overlap I/O with computation during run formation
    /// (Section IV-E "Overlapping"). Off = strictly sequential phases
    /// within run formation (ablation).
    pub overlap: bool,
    /// Seed for all pseudo-randomness (block shuffling, tie breaking);
    /// experiments are reproducible given the seed.
    pub seed: u64,
    /// Number of extra copies kept of every formed run's blocks
    /// (striped sort only). Copy `i` of a block owned by rank `o` lives
    /// on the deterministic buddy rank `(o + i) mod P`, written through
    /// the remote block-store protocol during run formation. `0` (the
    /// default) disables replication — the sort is byte- and
    /// counter-identical to a build without the feature. With
    /// `replication ≥ 1` the merge phase can fail over to a replica and
    /// finish the sort after up to `replication` rank deaths, at the
    /// cost of retaining run blocks until the sort completes (the
    /// in-place space bound grows by one run copy per replica).
    pub replication: usize,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        Self { randomize: true, sample_every: 64, overlap: true, seed: 0x5EED_CAFE, replication: 0 }
    }
}

impl AlgoConfig {
    /// The pool capacity on `machine`: [`MachineConfig::pool_blocks`].
    pub fn effective_pool_blocks(&self, machine: &MachineConfig) -> usize {
        machine.pool_blocks()
    }
}

/// Complete configuration for one sorting job.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// The algorithm switches.
    pub algo: AlgoConfig,
}

impl SortConfig {
    /// Bundle machine and algorithm configs, validating both (including
    /// cross-field constraints: every replica needs a distinct rank to
    /// live on, so `replication < pes`).
    pub fn new(machine: MachineConfig, algo: AlgoConfig) -> Result<Self> {
        machine.validate()?;
        if algo.sample_every == 0 {
            return Err(Error::config(
                "sample_every must be at least 1: the run samples bracket the selection's windows",
            ));
        }
        if algo.replication >= machine.pes {
            return Err(Error::config(format!(
                "replication factor {} needs {} distinct ranks but the machine has only {} PEs",
                algo.replication,
                algo.replication + 1,
                machine.pes
            )));
        }
        Ok(Self { machine, algo })
    }

    /// Number of runs `R = ⌈total_bytes / M⌉` for an input of
    /// `total_bytes`.
    pub fn num_runs(&self, total_bytes: u64) -> usize {
        let m = self.machine.global_mem_bytes();
        total_bytes.div_ceil(m) as usize
    }
}

/// Which of the paper's sorting algorithms a job runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SortAlgo {
    /// CANONICALMERGESORT (Section IV) — the DEMSort record-setter.
    #[default]
    Canonical,
    /// Mergesort with global striping (Section III) — the I/O-optimal
    /// variant; every pass re-stripes the data over all disks, except a
    /// file job's last, which writes the output file unstriped.
    Striped,
}

impl SortAlgo {
    /// Parse a CLI spelling (`canonical` / `striped`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "canonical" => Ok(SortAlgo::Canonical),
            "striped" => Ok(SortAlgo::Striped),
            other => {
                Err(Error::config(format!("unknown algorithm {other} (canonical or striped)")))
            }
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            SortAlgo::Canonical => "canonical",
            SortAlgo::Striped => "striped",
        }
    }
}

impl std::fmt::Display for SortAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete multi-process sort job: what the launcher ships to every
/// `demsort-worker` rank (serialized via [`crate::wire`]).
///
/// The machine config describes the *whole* cluster (`machine.pes` =
/// number of worker processes); each worker owns one rank's share of
/// it. Input and output are paths valid on every worker's host —
/// workers read disjoint shards of the input and write disjoint byte
/// ranges of the output, so the sorted result appears in place
/// (canonical mode concatenates per-rank slices; striped mode
/// concatenates each merge batch's per-rank parts, batch after batch).
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Path of the input file: whole records of the type the rank
    /// program is run for (100-byte SortBenchmark records in the
    /// binaries).
    pub input: String,
    /// Path of the output file; it may be the input. Each rank
    /// creates and sizes it, without truncating, when its last pass
    /// starts (the launcher does so too, before spawning workers).
    pub output: String,
    /// The cluster shape.
    pub machine: MachineConfig,
    /// The algorithm switches (seeded — the job is deterministic).
    pub algo: AlgoConfig,
    /// Which sorting algorithm to run.
    pub algorithm: SortAlgo,
    /// Transport receive timeout: how long a rank waits on a silent
    /// peer before declaring the job dead.
    pub read_timeout_ms: u64,
    /// Directory for per-rank trace journals (empty = tracing off).
    /// Each worker appends [`crate::trace`] records to
    /// `<trace_dir>/rank<K>.jsonl` and streams coarse progress frames
    /// to the launcher; the directory must exist on every worker host.
    pub trace_dir: String,
    /// Directory for the sort's blocks (empty = keep them in memory,
    /// what tests and generator-fed sorts do). Rank `K`'s disk `D` is
    /// the file `<scratch>/rank<K>/disk_<D>.bin`: buffered, never
    /// synced — the disk bounds memory, it does not make the sort
    /// durable — and removed when the rank is done with it.
    pub scratch: String,
}

impl JobConfig {
    /// Validate the job and return its [`SortConfig`]: the checks of
    /// [`SortConfig::new`] plus the job's own — replication is only
    /// implemented for the striped sort, and the timeout must be > 0.
    pub fn validate(&self) -> Result<SortConfig> {
        let cfg = SortConfig::new(self.machine.clone(), self.algo.clone())?;
        if self.algo.replication > 0 && self.algorithm != SortAlgo::Striped {
            return Err(Error::config(
                "run replication requires the striped algorithm (--algo striped)",
            ));
        }
        if self.read_timeout_ms == 0 {
            return Err(Error::config("read_timeout_ms must be > 0"));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_config_validates_embedded_configs() {
        let mut job = JobConfig {
            input: "in".into(),
            output: "out".into(),
            machine: MachineConfig::tiny(2),
            algo: AlgoConfig::default(),
            algorithm: SortAlgo::default(),
            read_timeout_ms: 1000,
            trace_dir: String::new(),
            scratch: String::new(),
        };
        job.validate().expect("valid");
        job.read_timeout_ms = 0;
        assert!(job.validate().is_err());
        job.read_timeout_ms = 1000;
        job.machine.pes = 0;
        assert!(job.validate().is_err());
    }

    #[test]
    fn paper_ratios() {
        let c = MachineConfig::paper(200);
        assert_eq!(c.mem_blocks_per_pe(), 2048);
        assert_eq!(c.total_disks(), 800);
        assert_eq!(c.global_mem_bytes(), 200 * (16u64 << 30));
    }

    #[test]
    fn small_preserves_mem_block_ratio() {
        let c = MachineConfig::small(8);
        assert_eq!(c.mem_blocks_per_pe(), MachineConfig::paper(8).mem_blocks_per_pe());
        c.validate().expect("valid");
    }

    #[test]
    fn validation_catches_zero_fields() {
        for f in [
            |c: &mut MachineConfig| c.pes = 0,
            |c: &mut MachineConfig| c.disks_per_pe = 0,
            |c: &mut MachineConfig| c.block_bytes = 0,
            |c: &mut MachineConfig| c.cores_per_pe = 0,
        ] {
            let mut c = MachineConfig::tiny(2);
            f(&mut c);
            assert!(c.validate().is_err(), "expected config error");
        }
    }

    #[test]
    fn validation_bounds_the_disks_by_the_block_id() {
        // Validation only: nothing here starts a disk.
        let mut c = MachineConfig::tiny(2);
        c.disks_per_pe = MAX_DISKS_PER_PE;
        c.validate().expect("every disk index fits a block id's 32-bit disk field");
        c.disks_per_pe += 1;
        let err = c.validate().expect_err("disk 2^32 does not fit");
        assert!(matches!(err, Error::Config(m) if m.contains("disks_per_pe")), "wrong error");

        // Nothing names a copy in a narrow field: any factor below P goes.
        let algo = AlgoConfig { replication: u16::MAX as usize + 1, ..AlgoConfig::default() };
        SortConfig::new(MachineConfig::tiny(1 << 17), algo).expect("a wide factor is valid");
    }

    #[test]
    fn validation_requires_four_blocks_of_memory() {
        let mut c = MachineConfig::tiny(2);
        c.mem_bytes_per_pe = 3 * c.block_bytes;
        assert!(c.validate().is_err());
    }

    #[test]
    fn run_count_rounds_up() {
        let cfg =
            SortConfig::new(MachineConfig::tiny(2), AlgoConfig::default()).expect("valid config");
        let m = cfg.machine.global_mem_bytes();
        assert_eq!(cfg.num_runs(m), 1);
        assert_eq!(cfg.num_runs(m + 1), 2);
        assert_eq!(cfg.num_runs(3 * m), 3);
    }

    #[test]
    fn selection_needs_a_sample() {
        let algo = AlgoConfig { sample_every: 0, ..AlgoConfig::default() };
        let err = SortConfig::new(MachineConfig::tiny(2), algo).expect_err("no sample");
        assert!(matches!(&err, Error::Config(m) if m.contains("sample_every")), "{err}");
        let algo = AlgoConfig { sample_every: 1, ..AlgoConfig::default() };
        SortConfig::new(MachineConfig::tiny(2), algo).expect("every record sampled");
    }

    #[test]
    fn replication_needs_spare_ranks_and_striped_mode() {
        let machine = MachineConfig::tiny(2);
        let algo = AlgoConfig { replication: 2, ..AlgoConfig::default() };
        let err = SortConfig::new(machine.clone(), algo.clone()).expect_err("2 replicas on 2 PEs");
        assert!(matches!(err, Error::Config(m) if m.contains("replication")), "wrong error");

        let mut job = JobConfig {
            input: "in".into(),
            output: "out".into(),
            machine,
            algo,
            algorithm: SortAlgo::Striped,
            read_timeout_ms: 1000,
            trace_dir: String::new(),
            scratch: String::new(),
        };
        assert!(job.validate().is_err(), "2 replicas on 2 PEs");
        job.algo.replication = 1;
        job.validate().expect("1 replica on 2 PEs is fine");
        job.algorithm = SortAlgo::Canonical;
        let err = job.validate().expect_err("replication is striped-only");
        assert!(matches!(err, Error::Config(m) if m.contains("striped")), "wrong error");
    }

    /// The sizes the machine decides — pool capacity, the all-to-all's
    /// budget (in bytes and in records of both kinds) and the striped
    /// fan-in — equal what the retired `pool_blocks = 0`,
    /// `alltoall_mem_fraction = 0.5` and `k_max = None` settings gave,
    /// written out here as they were computed.
    #[test]
    fn derived_sizes_equal_the_retired_defaults() {
        let bench = |block_kib: usize, mem_mib: usize| MachineConfig {
            pes: 2,
            disks_per_pe: 4,
            block_bytes: block_kib << 10,
            mem_bytes_per_pe: mem_mib << 20,
            cores_per_pe: 1,
        };
        let machines = [
            ("tiny(2)", MachineConfig::tiny(2)),
            ("small(4)", MachineConfig::small(4)),
            ("paper(8)", MachineConfig::paper(8)),
            ("canon_local", bench(32, 4)),
            ("striped_tcp", bench(32, 4)),
            ("striped_tcp_repl", bench(32, 4)),
            ("canon_tcp_small_rev", bench(4, 1)),
        ];
        for (name, m) in machines {
            let pool = m.mem_blocks_per_pe().max(2 * m.disks_per_pe + 2);
            assert_eq!(m.pool_blocks(), pool, "{name}: pool capacity");
            assert_eq!(AlgoConfig::default().effective_pool_blocks(&m), pool, "{name}");
            let budget_bytes = (m.mem_bytes_per_pe as f64 * 0.5) as u64;
            assert_eq!(m.alltoall_budget_bytes(), budget_bytes, "{name}: all-to-all budget");
            for record_bytes in [16u64, 100] {
                let records = ((m.mem_bytes_per_pe as f64 * 0.5) / record_bytes as f64).max(1.0);
                assert_eq!(
                    (m.alltoall_budget_bytes() / record_bytes).max(1),
                    records as u64,
                    "{name}: all-to-all budget in {record_bytes}-byte records"
                );
            }
            let fan_in = (m.mem_blocks_per_pe() * m.pes).max(2);
            assert_eq!(m.merge_fan_in(), fan_in, "{name}: striped fan-in");
        }
        // The values themselves, for the record.
        let tiny = MachineConfig::tiny(2);
        assert_eq!(
            (tiny.pool_blocks(), tiny.alltoall_budget_bytes(), tiny.merge_fan_in()),
            (16, 2048, 32)
        );
        let rev = bench(4, 1);
        assert_eq!(
            (rev.pool_blocks(), rev.alltoall_budget_bytes(), rev.merge_fan_in()),
            (256, 512 << 10, 512)
        );
    }
}
