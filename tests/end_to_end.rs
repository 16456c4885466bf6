//! Integration tests spanning all crates: full distributed external
//! sorts across cluster sizes, input classes, record types, and
//! storage backends, each a file job whose output file is checked.

use demsort::prelude::*;
use demsort::types::SortAlgo;
use demsort::workloads::{generate_all, gensort_records};
use std::path::PathBuf;

fn tiny_cfg(pes: usize) -> SortConfig {
    SortConfig::new(MachineConfig::tiny(pes), AlgoConfig::default()).expect("valid")
}

/// A directory of one sort's files, removed on drop. Tests run in
/// parallel, so each directory's name ends in a number no other takes.
struct TestDir(PathBuf);

impl TestDir {
    fn new() -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("demsort-e2e-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        Self(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sort `recs` from a file into a file with `algo`, check the output
/// file (sorted + a permutation of the input), and return its records
/// and the report.
fn sort_records<R: Record + Ord>(
    cfg: &SortConfig,
    algo: SortAlgo,
    recs: &[R],
) -> (Vec<R>, SortReport) {
    let dir = TestDir::new();
    let (input, output) = (dir.file("in.dat"), dir.file("out.dat"));
    write_record_file(&input, recs).expect("write input");
    let report = sort_file::<R>(cfg, algo, &input, &output).expect("sort");
    let check = check_file::<R>(&output).expect("check");
    let (p, n) = (cfg.machine.pes, recs.len());
    assert!(check.is_sort_of(Fingerprint::of_slice(recs)), "{algo} P={p} N={n}: {check:?}");
    (read_record_file(&output).expect("read output"), report)
}

/// Sort `local_n` records of `spec` per PE canonically, checked.
fn sort_and_validate(cfg: &SortConfig, spec: InputSpec, local_n: usize) {
    let input = generate_all(spec, 0xABCD, cfg.machine.pes, local_n);
    sort_records(cfg, SortAlgo::Canonical, &input);
}

#[test]
fn cluster_size_sweep_uniform() {
    for p in [1, 2, 3, 4, 6, 8] {
        sort_and_validate(&tiny_cfg(p), InputSpec::Uniform, 500);
    }
}

#[test]
fn input_class_matrix() {
    let cfg = tiny_cfg(4);
    for spec in [
        InputSpec::Uniform,
        InputSpec::Sorted,
        InputSpec::ReverseSorted,
        InputSpec::SkewedToOne,
        InputSpec::Constant,
        InputSpec::Banded { block_elems: 16 },
    ] {
        for n in [0usize, 1, 100, 777] {
            sort_and_validate(&cfg, spec, n);
        }
    }
}

#[test]
fn algorithm_switch_matrix() {
    for randomize in [false, true] {
        for overlap in [false, true] {
            for sample_every in [16usize, 64] {
                let algo = AlgoConfig { randomize, overlap, sample_every, ..AlgoConfig::default() };
                let cfg = SortConfig::new(MachineConfig::tiny(3), algo).expect("valid");
                sort_and_validate(&cfg, InputSpec::Banded { block_elems: 16 }, 400);
            }
        }
    }
}

#[test]
fn sortbenchmark_records_end_to_end() {
    // Record100 needs blocks ≥ 100 bytes; tiny's 256-byte blocks hold 2.
    let cfg = tiny_cfg(3);
    let local_n = 600usize;
    let (all, _) = sort_records(&cfg, SortAlgo::Canonical, &gensort_records(99, 0, 3 * local_n));
    assert_eq!(all.len(), 3 * local_n);
    assert!(all.windows(2).all(|w| w[0].key <= w[1].key), "globally sorted by 10-byte key");
    // Permutation via recovered gensort indices.
    let mut indices: Vec<u64> = all.iter().map(demsort::workloads::record_index).collect();
    indices.sort_unstable();
    let expect: Vec<u64> = (0..(3 * local_n) as u64).collect();
    assert_eq!(indices, expect, "every generated record survives exactly once");
}

#[test]
fn file_backed_storage_end_to_end() {
    // Real files instead of RAM behind the same job: `sort_file` keeps
    // its blocks under `<output>.scratch`, the same `JobConfig` with no
    // scratch directory keeps them in memory, and nothing the sort
    // computes or counts may tell the two apart.
    use demsort::core::job::{default_scratch, run_job_local};
    use demsort::types::JobConfig;

    let dir = TestDir::new();
    let path = |name: &str| dir.file(name).to_string_lossy().into_owned();
    let recs = gensort_records(5, 0, 6_000);
    write_record_file(path("in.dat").as_ref(), &recs).expect("write input");

    let machine = MachineConfig {
        pes: 3,
        disks_per_pe: 2,
        block_bytes: 1 << 10,
        mem_bytes_per_pe: 16 << 10,
        cores_per_pe: 1,
    };
    for (algorithm, replication) in
        [(SortAlgo::Canonical, 0), (SortAlgo::Striped, 0), (SortAlgo::Striped, 1)]
    {
        let case = format!("{algorithm}, replication {replication}");
        let cfg =
            SortConfig::new(machine.clone(), AlgoConfig { replication, ..AlgoConfig::default() })
                .expect("valid");
        let in_files = sort_file::<Record100>(
            &cfg,
            algorithm,
            path("in.dat").as_ref(),
            path("files.dat").as_ref(),
        )
        .expect("file-backed sort");
        assert!(
            !std::path::Path::new(&default_scratch(&path("files.dat"))).exists(),
            "{case}: scratch directory removed"
        );
        let in_memory = run_job_local::<Record100>(&JobConfig {
            input: path("in.dat"),
            output: path("memory.dat"),
            machine: cfg.machine.clone(),
            algo: cfg.algo.clone(),
            algorithm,
            read_timeout_ms: 1,
            trace_dir: String::new(),
            scratch: String::new(),
        })
        .expect("in-memory sort");

        let sorted = std::fs::read(path("files.dat")).expect("read output");
        assert!(sorted == std::fs::read(path("memory.dat")).expect("read output"), "{case}");
        let check = check_file::<Record100>(path("files.dat").as_ref()).expect("check");
        assert!(check.is_sort_of(Fingerprint::of_slice(&recs)), "{case}: {check:?}");

        // What the `done:` line prints.
        assert!(in_files.runs > 1, "{case}: external");
        assert_eq!((in_files.elements, in_files.runs), (in_memory.elements, in_memory.runs));
        let volumes = |r: &SortReport| (r.io_volume_over_n(), r.comm_volume_over_n());
        assert_eq!(volumes(&in_files), volumes(&in_memory), "{case}");
        // Communication per rank and phase; I/O per rank — a block a
        // peer reads is charged to its owner's engine in whatever phase
        // the owner is in at that instant, so only the totals are
        // schedule-independent (on any backend).
        for pe in 0..machine.pes {
            let io_total = |r: &SortReport| {
                Phase::ALL.iter().fold((0, 0, 0, 0), |t, &phase| {
                    let io = r.get(pe, phase).io;
                    (
                        t.0 + io.bytes_read,
                        t.1 + io.bytes_written,
                        t.2 + io.blocks_read,
                        t.3 + io.blocks_written,
                    )
                })
            };
            assert_eq!(io_total(&in_files), io_total(&in_memory), "{case}: I/O of PE {pe}");
            for phase in Phase::ALL {
                assert_eq!(
                    in_files.get(pe, phase).comm,
                    in_memory.get(pe, phase).comm,
                    "{case}: communication of PE {pe} in {phase}"
                );
            }
        }
    }
}

#[test]
fn hierarchical_parallelism_cores_within_pes() {
    // Section IV-E "Hierarchical Parallelism": multiple cores per PE
    // must not change the result, only the work distribution.
    let mut machine = MachineConfig::tiny(3);
    machine.cores_per_pe = 4;
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
    sort_and_validate(&cfg, InputSpec::Uniform, 900);
    sort_and_validate(&cfg, InputSpec::Banded { block_elems: 16 }, 640);
}

#[test]
fn power_law_skew_sorts_with_exact_balance() {
    // Power-law key skew stresses exact splitting: heavy duplication
    // near zero keys, yet output sizes stay canonical by construction.
    let cfg = tiny_cfg(4);
    for alpha in [20u8, 40] {
        sort_and_validate(&cfg, InputSpec::PowerLaw { alpha_x10: alpha }, 800);
    }
}

#[test]
fn determinism_same_seed_same_output() {
    let cfg = tiny_cfg(3);
    let input = generate_all(InputSpec::Uniform, 11, 3, 500);
    let run = || {
        let (sorted, report) = sort_records(&cfg, SortAlgo::Canonical, &input);
        (sorted, report.io_volume_over_n())
    };
    let (a, io_a) = run();
    let (b, io_b) = run();
    assert_eq!(a, b, "same seed, same output");
    assert_eq!(io_a, io_b, "same seed, same traffic");
}

#[test]
fn striped_and_canonical_agree() {
    let cfg = tiny_cfg(3);
    let input = generate_all(InputSpec::Uniform, 21, 3, 700);
    let (canonical, _) = sort_records(&cfg, SortAlgo::Canonical, &input);
    let (striped, _) = sort_records(&cfg, SortAlgo::Striped, &input);
    let keys_c: Vec<u64> = canonical.iter().map(|e| e.key).collect();
    let keys_s: Vec<u64> = striped.iter().map(|e| e.key).collect();
    assert_eq!(keys_c, keys_s, "both algorithms produce the same sorted keys");
}
