//! Multi-process loopback acceptance test: `demsort-launch`'s code
//! path (spawn real `demsort-worker` processes, rendezvous over a
//! coordinator port, full P×P TCP mesh) must produce **byte-identical**
//! sorted output and **identical communication counters** to the
//! in-process `LocalTransport` run of the same gensort input.
//!
//! Cargo builds the `demsort-worker` binary for this test and exposes
//! its path via `CARGO_BIN_EXE_demsort-worker`.

use demsort_bench::procs::launch;
use demsort_core::canonical::canonical_mergesort;
use demsort_core::fileio::{read_record_file, write_record_file};
use demsort_core::job::{default_scratch, run_in_process};
use demsort_core::recio::read_records;
use demsort_core::runform::ingest_input;
use demsort_core::validate::check_file;
use demsort_types::wire::RankReport;
use demsort_types::{
    ranks, AlgoConfig, JobConfig, MachineConfig, Phase, Record as _, Record100, SortAlgo,
    SortConfig, SortReport,
};
use demsort_workloads::gensort_records;
use std::path::{Path, PathBuf};

const RECORDS: usize = 3_000;
const RANKS: usize = 4;

fn test_machine() -> MachineConfig {
    // Tiny blocks and memory force a genuinely external sort (R > 1):
    // selection pushes windows and the all-to-all moves run pieces
    // over the TCP mesh.
    MachineConfig {
        pes: RANKS,
        disks_per_pe: 2,
        block_bytes: 1 << 10,
        mem_bytes_per_pe: 16 << 10,
        cores_per_pe: 1,
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-tcp-launch-{}-{name}", std::process::id()))
}

fn write_gensort_input(path: &Path) {
    write_record_file(path, &gensort_records(7, 0, RECORDS)).expect("write input");
}

/// The in-process reference: `sortfile --transport local`.
fn sort_in_process(input: &Path, output: &Path) -> SortReport {
    let cfg = SortConfig::new(test_machine(), AlgoConfig::default()).expect("valid");
    demsort_core::sort_file::<Record100>(&cfg, SortAlgo::Canonical, input, output)
        .expect("in-process sort")
}

/// The materialising reference of `sort_file`: whole shards of `input`
/// ingested onto the disks and sorted there, the ranks' outputs read
/// back and written into `output`.
fn sort_materialised(input: &Path, output: &Path) -> SortReport {
    let cfg = SortConfig::new(test_machine(), AlgoConfig::default()).expect("valid");
    let recs = read_record_file::<Record100>(input).expect("read input");
    let (report, parts, _) = run_in_process(&cfg, Record100::BYTES, |comm, storage| {
        let (rank, st) = (comm.rank(), storage.pe(comm.rank()));
        let shard = ranks::owned_range(rank, comm.size(), recs.len() as u64);
        let local = ingest_input(st, &recs[shard.start as usize..shard.end as usize])?;
        let o = canonical_mergesort::<Record100>(&comm, storage, &cfg, local, 1)?;
        let part = read_records::<Record100>(st, &o.output.run, o.output.elems)?;
        let (elems, runs, phases) = (o.output.elems, o.runs, o.phases);
        Ok((RankReport { rank, elems, runs, phases, error: None }, part))
    })
    .expect("materialising sort");
    write_record_file(output, &parts.concat()).expect("write output");
    report
}

/// Check that the file at `path` is a sorted permutation of the
/// `input` file, and return its record count.
fn valsort(path: &Path, input: &Path) -> u64 {
    let input = check_file::<Record100>(input).expect("check input").fingerprint;
    let check = check_file::<Record100>(path).expect("check output");
    assert!(check.is_sort_of(input), "{}: {check:?}", path.display());
    check.fingerprint.count
}

#[test]
fn four_rank_tcp_launch_matches_in_process_run() {
    let input = tmp_path("input.dat");
    let out_tcp = tmp_path("out-tcp.dat");
    let out_local = tmp_path("out-local.dat");
    write_gensort_input(&input);

    // --- multi-process run: real worker processes over loopback TCP ---
    let job = JobConfig {
        input: input.to_string_lossy().into_owned(),
        output: out_tcp.to_string_lossy().into_owned(),
        machine: test_machine(),
        algo: AlgoConfig::default(),
        algorithm: SortAlgo::Canonical,
        read_timeout_ms: 60_000,
        trace_dir: String::new(),
        scratch: default_scratch(&out_tcp.to_string_lossy()),
    };
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    let tcp = launch(&job, &worker).expect("tcp launch");
    assert_eq!(tcp.per_rank.len(), RANKS);
    assert!(tcp.report.runs > 1, "test must exercise the external path (R > 1)");
    assert!(!Path::new(&job.scratch).exists(), "the workers' scratch files must be gone");

    // --- in-process reference run ---
    let local_report = sort_in_process(&input, &out_local);

    // Byte-identical sorted output.
    let tcp_bytes = std::fs::read(&out_tcp).expect("read tcp output");
    let local_bytes = std::fs::read(&out_local).expect("read local output");
    assert_eq!(tcp_bytes.len(), RECORDS * Record100::BYTES);
    assert_eq!(tcp_bytes, local_bytes, "outputs must be byte-identical across transports");

    // valsort-clean: sorted, a permutation of the input.
    assert_eq!(valsort(&out_tcp, &input), RECORDS as u64);

    // Identical CommCounters: per rank, per phase, message and byte
    // totals must match the in-process run exactly — the transport
    // must be invisible to the metered algorithm.
    for pe in 0..RANKS {
        for phase in Phase::ALL {
            let t = tcp.report.get(pe, phase).comm;
            let l = local_report.get(pe, phase).comm;
            assert_eq!(t, l, "comm counters (pe {pe}, {phase})");
        }
    }
    // And the I/O, per rank and per phase: the workers run the same
    // storage engine, and no rank reads or writes another's disks, so
    // every block operation lands in the phase of the rank that made it.
    for pe in 0..RANKS {
        for phase in Phase::ALL {
            let io = |rep: &SortReport| {
                let io = rep.get(pe, phase).io;
                (io.bytes_read, io.bytes_written, io.blocks_read, io.blocks_written)
            };
            assert_eq!(io(&tcp.report), io(&local_report), "io counters (pe {pe}, {phase})");
        }
    }

    for p in [&input, &out_tcp, &out_local] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn launch_surfaces_worker_failure() {
    // An input that passes the launcher's pre-flight but fails in the
    // workers (not whole 100-byte records): the failure must come back
    // as a clean error over the coordinator connection, not a hang.
    let input = tmp_path("truncated.dat");
    std::fs::write(&input, vec![0u8; 150]).expect("write truncated input");
    let out = tmp_path("out-fail.dat");
    let job = JobConfig {
        input: input.to_string_lossy().into_owned(),
        output: out.to_string_lossy().into_owned(),
        machine: MachineConfig { pes: 2, ..test_machine() },
        algo: AlgoConfig::default(),
        algorithm: SortAlgo::Canonical,
        read_timeout_ms: 10_000,
        trace_dir: String::new(),
        scratch: default_scratch(&out.to_string_lossy()),
    };
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    let err = launch(&job, &worker).expect_err("bad input must fail the launch");
    let msg = err.to_string();
    assert!(msg.contains("failed") || msg.contains("exited"), "useful error: {msg}");
    assert!(!Path::new(&job.scratch).exists(), "a failed launch leaves no scratch files");
    for p in [&input, &out] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sort_file_matches_the_materialising_in_process_run() {
    // `sort_materialised` above ingests whole shards and writes the
    // output from the ranks' disks; the direct file edges behind
    // `sort_file` must leave the same bytes and move the same volumes.
    let input = tmp_path("sf-input.dat");
    let out_ref = tmp_path("sf-out-ref.dat");
    let out = tmp_path("sf-out.dat");
    write_gensort_input(&input);
    let reference = sort_materialised(&input, &out_ref);
    let report = sort_in_process(&input, &out);

    assert_eq!(
        std::fs::read(&out).expect("read output"),
        std::fs::read(&out_ref).expect("read reference"),
        "sort_file output must be byte-identical to the materialising run"
    );
    assert_eq!(report.runs, reference.runs);
    assert_eq!(report.io_volume_over_n(), reference.io_volume_over_n());
    assert_eq!(report.comm_volume_over_n(), reference.comm_volume_over_n());
    for pe in 0..RANKS {
        for phase in Phase::ALL {
            assert_eq!(
                report.get(pe, phase).comm,
                reference.get(pe, phase).comm,
                "comm counters (pe {pe}, {phase})"
            );
        }
    }
    for p in [&input, &out_ref, &out] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn launch_sorts_a_file_onto_itself() {
    // The launcher sizes the output before any rank reads the input,
    // without truncating it, so a file sorted onto itself through real
    // worker processes ends as the out-of-place output does.
    let input = tmp_path("self-input.dat");
    write_gensort_input(&input);
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    for algorithm in [SortAlgo::Canonical, SortAlgo::Striped] {
        let (apart, onto) = (tmp_path("self-apart.dat"), tmp_path("self-onto.dat"));
        std::fs::copy(&input, &onto).expect("copy input");
        for (from, to) in [(&input, &apart), (&onto, &onto)] {
            let to_str = to.to_string_lossy().into_owned();
            let job = JobConfig {
                input: from.to_string_lossy().into_owned(),
                output: to_str.clone(),
                machine: test_machine(),
                algo: AlgoConfig::default(),
                algorithm,
                read_timeout_ms: 60_000,
                trace_dir: String::new(),
                scratch: default_scratch(&to_str),
            };
            let outcome = launch(&job, &worker).expect("launch");
            assert!(outcome.report.runs > 1, "the last pass is a merge, not run formation");
        }
        assert_eq!(
            std::fs::read(&onto).expect("read in-place output"),
            std::fs::read(&apart).expect("read out-of-place output"),
            "{algorithm:?}: sorting a file onto itself must leave the out-of-place bytes"
        );
        assert_eq!(valsort(&onto, &input), RECORDS as u64);
        for p in [&apart, &onto] {
            let _ = std::fs::remove_file(p);
        }
    }
    let _ = std::fs::remove_file(&input);
}
