//! Trace invariants on a real traced 4-process TCP run: launch
//! `demsort-launch`'s code path with `trace_dir` set, then check the
//! per-rank journals the workers wrote — every span closed exactly
//! once, per-rank timestamps monotone, phase spans in algorithm order,
//! and the merge pipelining invariant (`Issued(b+1)` precedes
//! `Emitted(b)`) re-pinned from the journal instead of the old
//! in-memory `merge_events`. The merged timeline must be
//! cluster-chronological and the Chrome export valid JSON.

use demsort_bench::procs::launch;
use demsort_core::job::default_scratch;
use demsort_types::json::Json;
use demsort_types::trace::{
    chrome_trace, merge_journals, read_journal, validate_rank_journal, TraceEv, TraceOp,
};
use demsort_types::{
    AlgoConfig, JobConfig, MachineConfig, Phase, Record as _, Record100, SortAlgo,
};
use demsort_workloads::gensort_records;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

const RECORDS: usize = 3_000;
const RANKS: usize = 4;

fn test_machine() -> MachineConfig {
    // Tiny blocks and memory force several runs and several merge
    // batches per rank, so the pipelining invariant has something to
    // bite on.
    MachineConfig {
        pes: RANKS,
        disks_per_pe: 2,
        block_bytes: 1 << 10,
        mem_bytes_per_pe: 16 << 10,
        cores_per_pe: 1,
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-trace-tcp-{}-{name}", std::process::id()))
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

#[test]
fn four_rank_traced_run_produces_valid_journals() {
    let input = tmp_path("input.dat");
    let output = tmp_path("out.dat");
    let trace_dir = tmp_path("trace");
    write_gensort_input(&input);
    let _ = std::fs::remove_dir_all(&trace_dir);

    let job = JobConfig {
        input: input.to_string_lossy().into_owned(),
        output: output.to_string_lossy().into_owned(),
        machine: test_machine(),
        algo: AlgoConfig::default(),
        algorithm: SortAlgo::Striped,
        read_timeout_ms: 60_000,
        trace_dir: trace_dir.to_string_lossy().into_owned(),
        scratch: default_scratch(&output.to_string_lossy()),
    };
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    let outcome = launch(&job, &worker).expect("traced striped tcp launch");
    assert_eq!(outcome.per_rank.len(), RANKS);
    assert!(outcome.report.runs > 1, "test must exercise the merge phase (R > 1)");

    let mut per_rank = Vec::new();
    for rank in 0..RANKS {
        let path = trace_dir.join(format!("rank{rank}.jsonl"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("rank {rank} journal missing: {e}"));
        let records = read_journal(&text).expect("journal parses through the shared reader");
        assert!(!records.is_empty(), "rank {rank} journal is empty");
        assert!(records.iter().all(|r| r.rank == rank), "rank {rank}: wrong rank stamp");

        // The shared validator (what `demsort-trace` runs): single
        // rank, monotone timestamps, spans closed exactly once, phase
        // spans in algorithm order.
        validate_rank_journal(&records)
            .unwrap_or_else(|e| panic!("rank {rank}: invariant violated: {e}"));

        // Re-pin the headline invariants explicitly, independent of
        // the validator's implementation.
        assert!(
            records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "rank {rank}: timestamps not monotone"
        );
        let begins: Vec<u64> = records
            .iter()
            .filter_map(|r| match r.op {
                TraceOp::Begin(id) => Some(id),
                _ => None,
            })
            .collect();
        let ends: Vec<u64> = records
            .iter()
            .filter_map(|r| match r.op {
                TraceOp::End(id) => Some(id),
                _ => None,
            })
            .collect();
        let mut sb = begins.clone();
        sb.sort_unstable();
        sb.dedup();
        assert_eq!(sb.len(), begins.len(), "rank {rank}: duplicate span open");
        let mut se = ends.clone();
        se.sort_unstable();
        se.dedup();
        assert_eq!(se.len(), ends.len(), "rank {rank}: span closed twice");
        assert_eq!(sb, se, "rank {rank}: spans must close exactly once");

        // Phase spans in algorithm order; the striped sort opens run
        // formation first and the merge last.
        let phases: Vec<Phase> = records
            .iter()
            .filter_map(|r| match (&r.op, &r.ev) {
                (TraceOp::Begin(_), TraceEv::Phase { phase }) => Some(*phase),
                _ => None,
            })
            .collect();
        assert!(!phases.is_empty(), "rank {rank}: no phase spans");
        assert!(
            phases.windows(2).all(|w| w[0].index() <= w[1].index()),
            "rank {rank}: phases out of order: {phases:?}"
        );
        assert_eq!(phases.first(), Some(&Phase::RunFormation), "rank {rank}");
        assert_eq!(phases.last(), Some(&Phase::FinalMerge), "rank {rank}");

        // Collectives rode the same journal.
        assert!(
            records.iter().any(|r| matches!(r.ev, TraceEv::Collective { .. })),
            "rank {rank}: no collective spans"
        );

        // The striped sort reads only its own disks: its merge takes no
        // block through the block service, so no fetch is journalled.
        assert!(
            !records.iter().any(|r| matches!(r.ev, TraceEv::Fetch { .. })),
            "rank {rank}: the striped sort fetched through the block service"
        );

        // Merge pipelining, from the journal: within every (pass,
        // group), batch b+1's reads are in flight before batch b's
        // records are emitted.
        let mut issued: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
        let mut emitted: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            match r.ev {
                TraceEv::MergeIssued { pass, group, batch, .. } => {
                    issued.entry((pass, group, batch)).or_insert(i);
                }
                TraceEv::MergeEmitted { pass, group, batch, .. } => {
                    emitted.insert((pass, group, batch), i);
                }
                _ => {}
            }
        }
        assert!(
            issued.keys().any(|&(_, _, b)| b > 0),
            "rank {rank}: merge must span multiple batches to exercise pipelining"
        );
        for (&(pass, group, b), &epos) in &emitted {
            if let Some(&ipos) = issued.get(&(pass, group, b + 1)) {
                assert!(
                    ipos < epos,
                    "rank {rank}: batch {} issued after batch {b} emitted (pass {pass}, \
                     group {group})",
                    b + 1
                );
            }
        }
        per_rank.push(records);
    }

    // The merged timeline is cluster-chronological.
    let merged = merge_journals(per_rank);
    assert!(
        merged.windows(2).all(|w| (w[0].ts_ns, w[0].rank) <= (w[1].ts_ns, w[1].rank)),
        "merged timeline must be sorted by (ts, rank)"
    );

    // The Chrome export is valid JSON with one event per record.
    let chrome = chrome_trace(&merged);
    let doc = Json::parse(&chrome).expect("chrome trace parses");
    assert_eq!(doc.as_arr().map(<[Json]>::len), Some(merged.len()));

    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
    let _ = std::fs::remove_dir_all(&trace_dir);
}
