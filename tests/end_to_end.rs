//! Integration tests spanning all crates: full distributed external
//! sorts across cluster sizes, input classes, record types, and
//! storage backends, validated with the collective validator.

use demsort::core::canonical::sort_cluster;
use demsort::core::recio::read_records;
use demsort::core::validate::{validate_output, Fingerprint};
use demsort::net::run_cluster;
use demsort::prelude::*;
use demsort::workloads::{generate_all, generate_pe_input, gensort_records};

fn tiny_cfg(pes: usize) -> SortConfig {
    SortConfig::new(MachineConfig::tiny(pes), AlgoConfig::default()).expect("valid")
}

/// Sort, then validate collectively (sorted + boundaries + permutation).
fn sort_and_validate(cfg: &SortConfig, spec: InputSpec, local_n: usize) {
    let p = cfg.machine.pes;
    let outcome = sort_cluster::<Element16, _>(cfg, move |pe, p| {
        generate_pe_input(spec, 0xABCD, pe, p, local_n)
    })
    .expect("sort");
    let input_fp = {
        let mut f = Fingerprint::default();
        for r in generate_all(spec, 0xABCD, p, local_n) {
            f.add(&r);
        }
        f
    };
    let storage = &outcome.storage;
    let outputs: Vec<_> = outcome.per_pe.iter().map(|o| o.output.clone()).collect();
    let outputs = &outputs;
    let reports = run_cluster(p, move |c| {
        validate_output::<Element16>(&c, storage.pe(c.rank()), &outputs[c.rank()])
            .expect("validate")
    });
    assert!(
        reports[0].is_valid_sort_of(input_fp),
        "invalid sort: {spec:?} P={p} n={local_n}: {:?}",
        reports[0]
    );
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
            for sample_every in [0usize, 16] {
                for cache in [0usize, 8] {
                    let algo = AlgoConfig {
                        randomize,
                        overlap,
                        sample_every,
                        selection_cache_blocks: cache,
                        ..AlgoConfig::default()
                    };
                    let cfg = SortConfig::new(MachineConfig::tiny(3), algo).expect("valid");
                    sort_and_validate(&cfg, InputSpec::Banded { block_elems: 16 }, 400);
                }
            }
        }
    }
}

#[test]
fn sortbenchmark_records_end_to_end() {
    // Record100 needs blocks ≥ 100 bytes; tiny's 256-byte blocks hold 2.
    let cfg = tiny_cfg(3);
    let local_n = 600usize;
    let outcome = sort_cluster::<Record100, _>(&cfg, move |pe, _| {
        gensort_records(99, (pe * local_n) as u64, local_n)
    })
    .expect("sort");
    let mut all: Vec<Record100> = Vec::new();
    for (pe, o) in outcome.per_pe.iter().enumerate() {
        all.extend(
            read_records::<Record100>(outcome.storage.pe(pe), &o.output.run, o.output.elems)
                .expect("read"),
        );
    }
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
    use demsort::types::{JobConfig, SortAlgo};

    let dir = std::env::temp_dir().join(format!("demsort-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let recs = gensort_records(5, 0, 6_000);
    let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
    Record100::encode_slice(&recs, &mut bytes);
    std::fs::write(path("in.dat"), &bytes).expect("write input");

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
        let in_files = demsort::sort_file(
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
        let in_memory = run_job_local(&JobConfig {
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
        assert!(sorted.chunks(Record100::BYTES).is_sorted_by_key(|r| &r[..10]), "{case}");
        assert_eq!(sorted.len(), bytes.len(), "{case}");

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
    std::fs::remove_dir_all(&dir).ok();
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
    let run = || {
        let outcome = sort_cluster::<Element16, _>(&cfg, |pe, p| {
            generate_pe_input(InputSpec::Uniform, 11, pe, p, 500)
        })
        .expect("sort");
        let mut all = Vec::new();
        for (pe, o) in outcome.per_pe.iter().enumerate() {
            all.extend(
                read_records::<Element16>(outcome.storage.pe(pe), &o.output.run, o.output.elems)
                    .expect("read"),
            );
        }
        (all, outcome.report.io_volume_over_n())
    };
    let (a, io_a) = run();
    let (b, io_b) = run();
    assert_eq!(a, b, "same seed, same output");
    assert_eq!(io_a, io_b, "same seed, same traffic");
}

#[test]
fn striped_and_canonical_agree() {
    use demsort::core::ctx::ClusterStorage;
    use demsort::core::fileio::OutputFile;
    use demsort::core::runform::ingest_input;
    use demsort::core::striped::striped_mergesort;

    let p = 3;
    let local_n = 700usize;
    let cfg = tiny_cfg(p);

    let canonical = sort_cluster::<Element16, _>(&cfg, move |pe, p| {
        generate_pe_input(InputSpec::Uniform, 21, pe, p, local_n)
    })
    .expect("canonical");
    let mut canonical_all = Vec::new();
    for (pe, o) in canonical.per_pe.iter().enumerate() {
        canonical_all.extend(
            read_records::<Element16>(canonical.storage.pe(pe), &o.output.run, o.output.elems)
                .expect("read"),
        );
    }

    let path = std::env::temp_dir().join(format!("demsort-e2e-striped-{}.dat", std::process::id()));
    let output = OutputFile { path: &path, records: (p * local_n) as u64 };
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let storage_ref = &storage;
    let cfg2 = cfg.clone();
    run_cluster(p, move |c| {
        let st = storage_ref.pe(c.rank());
        let recs = generate_pe_input(InputSpec::Uniform, 21, c.rank(), p, local_n);
        let input = ingest_input(st, &recs).expect("ingest");
        striped_mergesort::<Element16>(&c, st, &cfg2, input, 1, None, output).expect("striped")
    });
    let mut striped_all = Vec::new();
    Element16::decode_slice(&std::fs::read(&path).expect("read"), &mut striped_all);
    let _ = std::fs::remove_file(&path);

    let keys_c: Vec<u64> = canonical_all.iter().map(|e| e.key).collect();
    let keys_s: Vec<u64> = striped_all.iter().map(|e| e.key).collect();
    assert_eq!(keys_c, keys_s, "both algorithms produce the same sorted keys");
}
