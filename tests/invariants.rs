//! Property-based integration tests: the paper's invariants hold for
//! arbitrary cluster shapes, input sizes, and key distributions.

use demsort::core::ctx::ClusterStorage;
use demsort::core::job::{run_in_process, run_rank_job};
use demsort::prelude::*;
use demsort::types::wire::RankReport;
use demsort::types::{ranks, JobConfig, SortAlgo};
use demsort::workloads::splitmix64;
use proptest::prelude::*;
use std::sync::Arc;

/// Generate an arbitrary per-PE input from a (seed, distribution
/// exponent) pair: keys are `splitmix64(gid) % key_range`, so small
/// ranges force heavy duplication.
fn arbitrary_input(seed: u64, key_range: u64, pe: usize, _p: usize, n: usize) -> Vec<Element16> {
    (0..n as u64)
        .map(|i| {
            let gid = pe as u64 * n as u64 + i;
            Element16::new(splitmix64(seed ^ gid) % key_range.max(1), gid)
        })
        .collect()
}

/// A canonical file job of every PE's `gen(pe, p)` on the in-process
/// cluster `cfg`, its disks in memory. Returns the sorted records, the
/// cluster's report, the ranks' reports and the storage the ranks used.
fn sort_in_process(
    cfg: &SortConfig,
    gen: impl Fn(usize, usize) -> Vec<Element16>,
) -> (Vec<Element16>, SortReport, Vec<RankReport>, Arc<ClusterStorage>) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let seq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("demsort-inv-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let p = cfg.machine.pes;
    let input: Vec<Element16> = (0..p).flat_map(|pe| gen(pe, p)).collect();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    write_record_file(path("in.dat").as_ref(), &input).expect("write input");
    let job = JobConfig {
        input: path("in.dat"),
        output: path("out.dat"),
        machine: cfg.machine.clone(),
        algo: cfg.algo.clone(),
        algorithm: SortAlgo::Canonical,
        read_timeout_ms: 1,
        trace_dir: String::new(),
        scratch: String::new(),
    };
    let (report, ranks, storage) = run_in_process(cfg, Element16::BYTES, |comm, storage| {
        let report = run_rank_job::<Element16>(&job, &comm, storage.pe(comm.rank()), None)?;
        Ok((report.clone(), report))
    })
    .expect("sort");
    let sorted = read_record_file(path("out.dat").as_ref()).expect("read output");
    let _ = std::fs::remove_dir_all(&dir);
    (sorted, report, ranks, storage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The canonical sort equals a reference sort for any shape —
    /// key-wise — and the output sizes match ⌊i·N/P⌋ boundaries.
    #[test]
    fn canonical_sort_equals_reference(
        p in 1usize..5,
        local_n in 0usize..600,
        key_range in 1u64..10_000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).unwrap();
        let (sorted, _, per_pe, _) = sort_in_process(&cfg, |pe, p| {
            arbitrary_input(seed, key_range, pe, p, local_n)
        });

        let mut reference: Vec<u64> = (0..p)
            .flat_map(|pe| arbitrary_input(seed, key_range, pe, p, local_n))
            .map(|e| e.key)
            .collect();
        reference.sort_unstable();

        let n = reference.len() as u64;
        for r in &per_pe {
            prop_assert_eq!(r.elems, ranks::owned_len(r.rank, p, n));
        }
        let got: Vec<u64> = sorted.iter().map(|e| e.key).collect();
        prop_assert_eq!(got, reference);
    }

    /// Randomization never hurts: all-to-all I/O with randomization is
    /// at most that without, plus slack for sampling noise, on banded
    /// worst-case inputs.
    #[test]
    fn randomization_never_hurts_much(
        p in 2usize..5,
        blocks_per_pe in 8usize..40,
        seed in 0u64..1000,
    ) {
        let machine = MachineConfig::tiny(p);
        let band = machine.block_bytes / 16;
        let local_n = blocks_per_pe * band;
        let volume = |randomize: bool| {
            let algo = AlgoConfig { randomize, seed, ..AlgoConfig::default() };
            let cfg = SortConfig::new(machine.clone(), algo).unwrap();
            let (_, report, ..) = sort_in_process(&cfg, |pe, p| {
                demsort::workloads::generate_pe_input(
                    InputSpec::Banded { block_elems: band }, 5, pe, p, local_n)
            });
            report.phase_total(Phase::AllToAll, |s| s.io.bytes_total())
        };
        let with = volume(true);
        let without = volume(false);
        // Slack: one block per (run, PE) pair of fragmentation noise.
        let slack = (machine.block_bytes * p * 8) as u64;
        prop_assert!(
            with <= without + slack,
            "randomized {} vs deterministic {} (+slack {})", with, without, slack
        );
    }

    /// The external I/O bound: any input sorts in at most ~3 passes of
    /// traffic (4N for two passes + redistribution ≤ 2N more), and the
    /// internal case in exactly one pass. Inputs must span several
    /// blocks — below that, block padding dominates the ratio (one
    /// 16-byte element still moves a 256-byte block each way).
    #[test]
    fn io_volume_bounds(
        p in 1usize..4,
        local_n in 64usize..900,
        seed in 0u64..1000,
    ) {
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).unwrap();
        let (_, report, ..) = sort_in_process(&cfg, |pe, p| {
            arbitrary_input(seed, u64::MAX, pe, p, local_n)
        });
        let io = report.io_volume_over_n();
        if report.runs == 1 {
            prop_assert!((1.9..=2.6).contains(&io), "internal: {}", io);
        } else {
            // 4N + redistribution (≤ 2N) + fragmentation slack.
            prop_assert!((3.9..=7.5).contains(&io), "external: {}", io);
        }
    }
}

/// The in-place claim: peak disk usage during the sort stays within a
/// small factor of the input size (the algorithm recycles aggressively).
#[test]
fn in_place_peak_usage_bound() {
    let p = 4;
    let local_n = 2000usize;
    let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).unwrap();
    let (.., storage) = sort_in_process(&cfg, |pe, p| {
        demsort::workloads::generate_pe_input(InputSpec::Uniform, 9, pe, p, local_n)
    });
    for pe in 0..p {
        let alloc = storage.pe(pe).alloc();
        let input_blocks = (local_n * 16).div_ceil(256);
        assert!(
            alloc.high_water() <= input_blocks * 2,
            "PE {pe}: peak {} blocks vs input {} — not in-place",
            alloc.high_water(),
            input_blocks
        );
    }
}
