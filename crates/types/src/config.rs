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

    /// Smallest viable block-buffer pool: double-buffered prefetch on
    /// every disk plus a carry block and one spare. A pool below this
    /// thrashes (every steady-state `get` misses), so configs reject it.
    pub fn min_pool_blocks(&self) -> usize {
        2 * self.disks_per_pe + 2
    }

    /// Check the configuration is internally consistent.
    pub fn validate(&self) -> Result<()> {
        if self.pes == 0 {
            return Err(Error::config("pes must be > 0"));
        }
        if self.disks_per_pe == 0 {
            return Err(Error::config("disks_per_pe must be > 0"));
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
    /// Store every `K`-th element of each sorted run as a sample for
    /// initializing multiway selection (Section IV-A / Appendix B).
    /// `0` disables sampling (ablation).
    pub sample_every: usize,
    /// Number of most-recently-used blocks cached during external
    /// multiway selection ("we cache the most recently accessed disk
    /// blocks", Section IV-A). `0` disables the cache (ablation).
    pub selection_cache_blocks: usize,
    /// Overlap I/O with computation during run formation
    /// (Section IV-E "Overlapping"). Off = strictly sequential phases
    /// within run formation (ablation).
    pub overlap: bool,
    /// Seed for all pseudo-randomness (block shuffling, tie breaking);
    /// experiments are reproducible given the seed.
    pub seed: u64,
    /// Fraction of local memory the external all-to-all may use for its
    /// in-memory sub-operations (Section IV-C picks `k` accordingly).
    pub alltoall_mem_fraction: f64,
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
    /// Capacity of the recycled block-buffer pool, in blocks. `0`
    /// (the default) derives the capacity from the machine's memory
    /// budget ([`MachineConfig::mem_blocks_per_pe`]); an explicit value
    /// below [`MachineConfig::min_pool_blocks`] is rejected at config
    /// validation. The pool bounds steady-state allocation only — it
    /// never changes what is read, written, or sent.
    pub pool_blocks: usize,
    /// Minimum records each merge thread must receive before the batch
    /// merge fans out; batches below `2 ×` this take the sequential
    /// path (no split probes). `0` (the default) uses the engine's
    /// built-in threshold and additionally caps merge threads at the
    /// host's available parallelism (oversubscribed threads only
    /// time-slice the same comparisons); an explicit value is taken
    /// literally with no host cap — tests set `1` to force parallelism
    /// on tiny inputs. Purely a CPU-scheduling knob — output bytes and
    /// I/O are identical at every value.
    pub par_merge_min_per_thread: usize,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        Self {
            randomize: true,
            sample_every: 64,
            selection_cache_blocks: 16,
            overlap: true,
            seed: 0x5EED_CAFE,
            alltoall_mem_fraction: 0.5,
            replication: 0,
            pool_blocks: 0,
            par_merge_min_per_thread: 0,
        }
    }
}

impl AlgoConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if !(self.alltoall_mem_fraction > 0.0 && self.alltoall_mem_fraction <= 1.0) {
            return Err(Error::config("alltoall_mem_fraction must be in (0, 1]"));
        }
        Ok(())
    }

    /// The pool capacity this config yields on `machine`: the explicit
    /// [`pool_blocks`](Self::pool_blocks), or the memory budget in
    /// blocks when auto (`0`), never below the prefetch+carry minimum.
    pub fn effective_pool_blocks(&self, machine: &MachineConfig) -> usize {
        let blocks =
            if self.pool_blocks == 0 { machine.mem_blocks_per_pe() } else { self.pool_blocks };
        blocks.max(machine.min_pool_blocks())
    }
}

/// Reject an explicit pool capacity below the machine's prefetch+carry
/// minimum (`0` = auto is always fine).
fn validate_pool_blocks(algo: &AlgoConfig, machine: &MachineConfig) -> Result<()> {
    if algo.pool_blocks != 0 && algo.pool_blocks < machine.min_pool_blocks() {
        return Err(Error::config(format!(
            "pool_blocks {} is below the prefetch+carry minimum of {} \
             (2 per disk for double-buffered prefetch, plus carry and spare)",
            algo.pool_blocks,
            machine.min_pool_blocks()
        )));
    }
    Ok(())
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
        algo.validate()?;
        validate_pool_blocks(&algo, &machine)?;
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
    /// variant; every pass re-stripes the data over all disks.
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
/// interleaves each rank's globally striped blocks).
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Path of the input file (whole 100-byte SortBenchmark records).
    pub input: String,
    /// Path of the output file (pre-sized by the launcher in
    /// coordinator mode; in hostfile mode the workers create and size
    /// it themselves from the job's record count).
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
    /// Validate the embedded configs (including cross-field
    /// constraints: replication needs `replication < pes` spare ranks
    /// and is only implemented for the striped sort).
    pub fn validate(&self) -> Result<()> {
        self.machine.validate()?;
        self.algo.validate()?;
        validate_pool_blocks(&self.algo, &self.machine)?;
        if self.algo.replication >= self.machine.pes {
            return Err(Error::config(format!(
                "replication factor {} needs {} distinct ranks but the job has only {} PEs",
                self.algo.replication,
                self.algo.replication + 1,
                self.machine.pes
            )));
        }
        if self.algo.replication > 0 && self.algorithm != SortAlgo::Striped {
            return Err(Error::config(
                "run replication requires the striped algorithm (--algo striped)",
            ));
        }
        if self.read_timeout_ms == 0 {
            return Err(Error::config("read_timeout_ms must be > 0"));
        }
        Ok(())
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

    #[test]
    fn pool_blocks_below_minimum_is_a_config_error() {
        let machine = MachineConfig::tiny(2); // 2 disks -> minimum 6
        assert_eq!(machine.min_pool_blocks(), 6);
        let algo = AlgoConfig { pool_blocks: 5, ..AlgoConfig::default() };
        let err = SortConfig::new(machine.clone(), algo.clone()).expect_err("too small");
        assert!(matches!(err, Error::Config(m) if m.contains("pool_blocks")), "wrong error");
        let mut job = JobConfig {
            input: "in".into(),
            output: "out".into(),
            machine: machine.clone(),
            algo,
            algorithm: SortAlgo::Striped,
            read_timeout_ms: 1000,
            trace_dir: String::new(),
            scratch: String::new(),
        };
        assert!(matches!(job.validate(), Err(Error::Config(m)) if m.contains("pool_blocks")));
        job.algo.pool_blocks = 6;
        job.validate().expect("at the minimum is fine");
        job.algo.pool_blocks = 0;
        job.validate().expect("auto is always fine");
        // Auto derives from the memory budget; explicit values pass through.
        assert_eq!(
            job.algo.effective_pool_blocks(&machine),
            machine.mem_blocks_per_pe().max(machine.min_pool_blocks())
        );
        job.algo.pool_blocks = 9;
        assert_eq!(job.algo.effective_pool_blocks(&machine), 9);
    }

    #[test]
    fn alltoall_fraction_validated() {
        let mut a = AlgoConfig { alltoall_mem_fraction: 0.0, ..AlgoConfig::default() };
        assert!(a.validate().is_err());
        a.alltoall_mem_fraction = 1.5;
        assert!(a.validate().is_err());
        a.alltoall_mem_fraction = 1.0;
        assert!(a.validate().is_ok());
    }
}
