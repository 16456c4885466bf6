//! Cluster-level failure injection: SIGKILL one worker of a real
//! 4-process loopback TCP launch mid-sort and assert the fallible-
//! collective contract end to end:
//!
//! * every **surviving** rank returns `Error::Comm` from its sort
//!   (reported to the coordinator as a structured failed `RankReport`)
//!   within the comm read timeout — no hang, no process abort, no
//!   `catch_unwind`;
//! * the **launcher** classifies the killed rank as vanished and its
//!   error (what `demsort-launch` prints before exiting non-zero)
//!   names that rank first.
//!
//! With `--replication 1` the contract strengthens from "survivors
//! fail cleanly" to "survivors finish": a 4-process striped sort whose
//! victim is SIGKILLed at merge start re-routes the dead rank's blocks
//! to their buddy-rank replicas and produces output byte-identical to
//! an undisturbed run (second test).
//!
//! Cargo builds the real `demsort-worker` binary for this test and
//! exposes its path via `CARGO_BIN_EXE_demsort-worker`.

use demsort_bench::procs::{
    launch, launch_workers, launch_workers_env, summarize_outcomes, RankOutcome,
};
use demsort_core::job::default_scratch;
use demsort_types::{AlgoConfig, JobConfig, MachineConfig, Record as _, Record100, SortAlgo};
use demsort_workloads::gensort_records;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Enough records over a tiny memory budget that the sort runs many
/// multi-collective rounds (R ≈ 150 runs) — the kill lands mid-sort,
/// not after a rank already finished.
const RECORDS: usize = 100_000;
const RANKS: usize = 4;
const VICTIM: usize = 1;
const COMM_TIMEOUT_MS: u64 = 2_000;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-cluster-failure-{}-{name}", std::process::id()))
}

fn write_gensort_input(path: &Path) {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create input"));
    let mut buf = vec![0u8; Record100::BYTES];
    for rec in gensort_records(11, 0, RECORDS) {
        rec.encode(&mut buf);
        f.write_all(&buf).expect("write record");
    }
    f.flush().expect("flush");
}

/// Whether a rank's scratch directory holds a disk file with a block on
/// it (`disk_<D>.bin`, created empty when the rank starts).
fn has_written(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else { return false };
    entries.flatten().any(|e| {
        e.file_name().to_string_lossy().starts_with("disk_")
            && e.metadata().is_ok_and(|m| m.len() > 0)
    })
}

#[test]
fn sigkill_mid_sort_fails_every_survivor_cleanly_and_names_the_dead_rank() {
    let input = tmp_path("input.dat");
    let output = tmp_path("out.dat");
    write_gensort_input(&input);

    let job = JobConfig {
        input: input.to_string_lossy().into_owned(),
        output: output.to_string_lossy().into_owned(),
        machine: MachineConfig {
            pes: RANKS,
            disks_per_pe: 2,
            block_bytes: 1 << 10,
            mem_bytes_per_pe: 16 << 10,
            cores_per_pe: 1,
        },
        algo: AlgoConfig::default(),
        algorithm: SortAlgo::default(),
        read_timeout_ms: COMM_TIMEOUT_MS,
        trace_dir: String::new(),
        scratch: default_scratch(&output.to_string_lossy()),
    };
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));

    // Spawn + rendezvous the real 4-process cluster; the sort is now
    // underway in the workers.
    let mut ctl = launch_workers(&job, &worker).expect("launch workers");

    // Kill one rank once its run formation is under way: its scratch
    // disks start empty and take their first blocks then.
    let disks = Path::new(&job.scratch).join(format!("rank{VICTIM}"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !has_written(&disks) {
        assert!(Instant::now() < deadline, "the kill did not land mid-sort: no run was written");
        std::thread::sleep(Duration::from_millis(2));
    }
    ctl.kill_rank(VICTIM).expect("SIGKILL the victim rank");

    let started = Instant::now();
    let outcomes = ctl.collect_outcomes();
    let elapsed = started.elapsed();

    // No hang: every surviving rank's collective fails within the read
    // timeout (plus per-rank dependency chains and reporting slack; a
    // hang would only break at the 300 s collect deadline).
    assert!(
        elapsed < Duration::from_secs(30),
        "survivors must fail within the read timeout, took {elapsed:?}"
    );

    assert_eq!(outcomes.len(), RANKS);
    for (rank, outcome) in outcomes.iter().enumerate() {
        if rank == VICTIM {
            assert!(
                matches!(outcome, RankOutcome::Vanished(_)),
                "killed rank must vanish without a report: {outcome:?}"
            );
            continue;
        }
        // A structured failure report (no abort: the worker stayed
        // alive to send it) carrying the sort's Error::Comm, which
        // names a peer and direction.
        match outcome {
            RankOutcome::Failed(msg) => {
                assert!(
                    msg.contains("communication error"),
                    "rank {rank} must fail with Error::Comm, got: {msg}"
                );
            }
            RankOutcome::Report(_) => {
                panic!("the kill did not land mid-sort: surviving rank {rank} finished")
            }
            other => panic!("surviving rank {rank} must report a failure, got {other:?}"),
        }
    }

    // The launcher-level summary (what demsort-launch prints before
    // exiting non-zero) names the dead rank, leading the message.
    let err = summarize_outcomes(&job, outcomes).expect_err("job must fail");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("rank {VICTIM} died without reporting")),
        "launch error must name the dead rank: {msg}"
    );
    assert!(
        msg.find(&format!("rank {VICTIM} died")).expect("named") < msg.len() / 2,
        "dead rank leads the diagnostics: {msg}"
    );

    // Reaps the surviving workers and sweeps the scratch directory: the
    // survivors removed their own files on the way out, the victim
    // could not.
    drop(ctl);
    assert!(!Path::new(&job.scratch).exists(), "{} must be gone", job.scratch);
    for p in [&input, &output] {
        let _ = std::fs::remove_file(p);
    }
}

/// The tentpole pin: with `--replication 1`, killing a rank at the
/// start of the merge phase no longer fails the job — the survivors
/// detect the death, regroup, re-route the dead rank's blocks to their
/// buddy replicas, and finish. The degraded output must be valsort-
/// clean AND byte-identical to an undisturbed run of the same job.
#[test]
fn sigkill_mid_merge_with_replication_survivors_finish_byte_identical() {
    const VICTIM: usize = 2;
    let input = tmp_path("repl-input.dat");
    let output_ref = tmp_path("repl-out-ref.dat");
    let output = tmp_path("repl-out.dat");
    write_gensort_input(&input);

    let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
    let mut job = JobConfig {
        input: input.to_string_lossy().into_owned(),
        output: output_ref.to_string_lossy().into_owned(),
        machine: MachineConfig {
            pes: RANKS,
            disks_per_pe: 2,
            block_bytes: 1 << 10,
            mem_bytes_per_pe: 16 << 10,
            cores_per_pe: 1,
        },
        algo,
        algorithm: SortAlgo::Striped,
        read_timeout_ms: COMM_TIMEOUT_MS,
        trace_dir: String::new(),
        scratch: default_scratch(&output_ref.to_string_lossy()),
    };
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));

    // Undisturbed reference run (replication on, nobody dies).
    let reference =
        launch(&job, &worker).expect("undisturbed replicated striped sort must succeed");
    assert_eq!(reference.report.elements as usize, RECORDS);
    let ref_bytes = std::fs::read(&output_ref).expect("read reference output");
    assert_eq!(ref_bytes.len(), RECORDS * Record100::BYTES);
    assert!(!Path::new(&job.scratch).exists(), "{} must be gone", job.scratch);

    // Failure run: arm the merge-start harness so every rank drops a
    // marker file when it reaches the merge phase and then stalls,
    // giving the launcher a deterministic window to SIGKILL the victim
    // before any survivor has begun merging.
    let marker_dir = tmp_path("repl-markers");
    std::fs::create_dir_all(&marker_dir).expect("create marker dir");
    job.output = output.to_string_lossy().into_owned();
    job.scratch = default_scratch(&job.output);
    let envs = [
        ("DEMSORT_MERGE_START_MARKER_DIR", marker_dir.to_string_lossy().into_owned()),
        ("DEMSORT_MERGE_START_STALL_MS", "1500".to_string()),
    ];
    let mut ctl = launch_workers_env(&job, &worker, &envs).expect("launch workers");

    // Wait for the victim to reach its merge phase, then kill it inside
    // the stall window.
    let marker = marker_dir.join(format!("merge-start-{VICTIM}"));
    let arm_deadline = Instant::now() + Duration::from_secs(120);
    while !marker.exists() {
        assert!(Instant::now() < arm_deadline, "victim never reached merge start");
        std::thread::sleep(Duration::from_millis(10));
    }
    ctl.kill_rank(VICTIM).expect("SIGKILL the victim rank");

    let outcomes = ctl.collect_outcomes();
    eprintln!("outcomes: {outcomes:#?}");
    assert_eq!(outcomes.len(), RANKS);
    for (rank, outcome) in outcomes.iter().enumerate() {
        if rank == VICTIM {
            assert!(
                matches!(outcome, RankOutcome::Vanished(_)),
                "killed rank must vanish without a report: {outcome:?}"
            );
            continue;
        }
        // Every survivor COMPLETES the sort (a structured report, not a
        // failure): the recovery path re-routed the dead rank's blocks
        // to their replicas.
        match outcome {
            RankOutcome::Report(rep) => {
                assert_eq!(rep.rank, rank);
            }
            other => panic!("surviving rank {rank} must finish the sort, got {other:?}"),
        }
    }

    // Degraded output: valsort-clean (sorted, right cardinality) and
    // byte-identical to the undisturbed run.
    let out_bytes = std::fs::read(&output).expect("read degraded output");
    assert_eq!(out_bytes.len(), RECORDS * Record100::BYTES, "degraded output is complete");
    let mut prev: Option<Record100> = None;
    for chunk in out_bytes.chunks_exact(Record100::BYTES) {
        let rec = Record100::decode(chunk);
        if let Some(p) = &prev {
            assert!(p.key() <= rec.key(), "degraded output must be sorted");
        }
        prev = Some(rec);
    }
    assert_eq!(out_bytes, ref_bytes, "degraded output must be byte-identical to undisturbed run");

    // The victim's disks — run blocks and its peers' replicas — went
    // down with it; the launcher sweeps them once it has reaped it.
    drop(ctl);
    assert!(!Path::new(&job.scratch).exists(), "{} must be gone", job.scratch);
    let _ = std::fs::remove_dir_all(&marker_dir);
    for p in [&input, &output, &output_ref] {
        let _ = std::fs::remove_file(p);
    }
}
