//! Multi-process loopback acceptance test: `demsort-launch`'s code
//! path (spawn real `demsort-worker` processes, rendezvous over a
//! coordinator port, full P×P TCP mesh) must produce **byte-identical**
//! sorted output and **identical communication counters** to the
//! in-process `LocalTransport` run of the same gensort input.
//!
//! Cargo builds the `demsort-worker` binary for this test and exposes
//! its path via `CARGO_BIN_EXE_demsort-worker`.

use demsort_bench::procs::launch;
use demsort_core::canonical::sort_cluster;
use demsort_core::job::default_scratch;
use demsort_core::recio::read_records;
use demsort_core::validate::hash_record;
use demsort_types::{
    AlgoConfig, JobConfig, MachineConfig, Phase, Record as _, Record100, SortAlgo, SortConfig,
    SortReport,
};
use demsort_workloads::gensort_records;
use std::io::{Read, Seek, SeekFrom, Write};
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
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create input"));
    let mut buf = vec![0u8; Record100::BYTES];
    for rec in gensort_records(7, 0, RECORDS) {
        rec.encode(&mut buf);
        f.write_all(&buf).expect("write record");
    }
    f.flush().expect("flush");
}

/// The in-process reference: sortfile's local mode in miniature.
fn sort_in_process(input: &Path, output: &Path) -> SortReport {
    let cfg = SortConfig::new(test_machine(), AlgoConfig::default()).expect("valid");
    let input_path = input.to_path_buf();
    let outcome = sort_cluster::<Record100, _>(&cfg, move |pe, p| {
        let shard = demsort_types::ranks::owned_range(pe, p, RECORDS as u64);
        let mut f = std::fs::File::open(&input_path).expect("open input");
        f.seek(SeekFrom::Start(shard.start * Record100::BYTES as u64)).expect("seek");
        let mut bytes = vec![0u8; (shard.end - shard.start) as usize * Record100::BYTES];
        f.read_exact(&mut bytes).expect("read shard");
        let mut recs = Vec::new();
        Record100::decode_slice(&bytes, &mut recs);
        recs
    })
    .expect("in-process sort");

    let mut out = std::io::BufWriter::new(std::fs::File::create(output).expect("create output"));
    let mut buf = vec![0u8; Record100::BYTES];
    for (pe, o) in outcome.per_pe.iter().enumerate() {
        for rec in read_records::<Record100>(outcome.storage.pe(pe), &o.output.run, o.output.elems)
            .expect("read output")
        {
            rec.encode(&mut buf);
            out.write_all(&buf).expect("write");
        }
    }
    out.flush().expect("flush");
    outcome.report
}

fn valsort(path: &Path) -> (u64, u64) {
    let bytes = std::fs::read(path).expect("read sorted file");
    assert_eq!(bytes.len() % Record100::BYTES, 0);
    let mut recs = Vec::new();
    Record100::decode_slice(&bytes, &mut recs);
    assert!(
        recs.windows(2).all(|w| w[0].key <= w[1].key),
        "{} must be globally sorted",
        path.display()
    );
    let sum = recs.iter().fold(0u64, |acc, r| acc.wrapping_add(hash_record(r)));
    (recs.len() as u64, sum)
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
    let (n, fp) = valsort(&out_tcp);
    assert_eq!(n, RECORDS as u64);
    let input_bytes = std::fs::read(&input).expect("read input");
    let mut input_recs = Vec::new();
    Record100::decode_slice(&input_bytes, &mut input_recs);
    let input_fp = input_recs.iter().fold(0u64, |acc, r| acc.wrapping_add(hash_record(r)));
    assert_eq!(fp, input_fp, "output must be a permutation of the input");

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
    // `sort_in_process` above loads whole shards and writes the output
    // record by record; the direct file edges behind `sort_file`
    // must leave the same bytes and move the same volumes.
    let input = tmp_path("sf-input.dat");
    let out_ref = tmp_path("sf-out-ref.dat");
    let out = tmp_path("sf-out.dat");
    write_gensort_input(&input);
    let reference = sort_in_process(&input, &out_ref);
    let cfg = SortConfig::new(test_machine(), AlgoConfig::default()).expect("valid");
    let report = demsort_core::sort_file(&cfg, SortAlgo::Canonical, &input, &out).expect("sort");

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
