//! Striped-mergesort multi-process acceptance test: `sortfile --algo
//! striped --transport tcp`'s code path (4 real `demsort-worker`
//! processes over a loopback TCP mesh, each writing its own globally
//! striped blocks into the shared output) must produce
//! **byte-identical** output and **identical per-rank, per-phase comm
//! and I/O counters** to the in-process striped run of the same
//! gensort input.
//!
//! Unlike the canonical algorithm, the striped sort has no selection
//! probes, so even the per-phase I/O attribution is deterministic —
//! the comparison is exact on every counter.

use demsort_bench::procs::launch;
use demsort_core::job::default_scratch;
use demsort_core::merge::merge_work;
use demsort_core::striped::{read_striped, striped_sort_cluster};
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
    // Tiny blocks and memory force several runs per rank, so the merge
    // phase (batch fetches + re-striping) really runs.
    MachineConfig {
        pes: RANKS,
        disks_per_pe: 2,
        block_bytes: 1 << 10,
        mem_bytes_per_pe: 16 << 10,
        cores_per_pe: 1,
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-striped-tcp-{}-{name}", std::process::id()))
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

/// The in-process reference: `sortfile --algo striped` in miniature.
fn striped_in_process(input: &Path, output: &Path) -> SortReport {
    striped_in_process_on(input, output, test_machine(), AlgoConfig::default())
}

fn striped_in_process_on(
    input: &Path,
    output: &Path,
    machine: MachineConfig,
    algo: AlgoConfig,
) -> SortReport {
    let cfg = SortConfig::new(machine, algo).expect("valid");
    let input_path = input.to_path_buf();
    let outcome = striped_sort_cluster::<Record100, _>(
        &cfg,
        move |pe, p| {
            let shard = demsort_types::ranks::owned_range(pe, p, RECORDS as u64);
            let mut f = std::fs::File::open(&input_path).expect("open input");
            f.seek(SeekFrom::Start(shard.start * Record100::BYTES as u64)).expect("seek");
            let mut bytes = vec![0u8; (shard.end - shard.start) as usize * Record100::BYTES];
            f.read_exact(&mut bytes).expect("read shard");
            let mut recs = Vec::new();
            Record100::decode_slice(&bytes, &mut recs);
            recs
        },
        None,
    )
    .expect("in-process striped sort");

    // Output through the block service in global block order — the
    // same byte sequence the workers assemble from disjoint ranges.
    let recs = read_striped::<Record100>(&outcome.storage, &outcome.per_pe[0].output)
        .expect("read striped output");
    let mut out = std::io::BufWriter::new(std::fs::File::create(output).expect("create output"));
    let mut buf = vec![0u8; Record100::BYTES];
    for rec in &recs {
        rec.encode(&mut buf);
        out.write_all(&buf).expect("write");
    }
    out.flush().expect("flush");
    outcome.report
}

#[test]
fn four_rank_striped_tcp_launch_matches_in_process_run() {
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
        algorithm: SortAlgo::Striped,
        read_timeout_ms: 60_000,
        trace_dir: String::new(),
        scratch: default_scratch(&out_tcp.to_string_lossy()),
    };
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    let tcp = launch(&job, &worker).expect("striped tcp launch");
    assert_eq!(tcp.per_rank.len(), RANKS);
    assert!(tcp.report.runs > 1, "test must exercise the merge phase (R > 1)");
    let rank_sum: u64 = tcp.per_rank.iter().map(|r| r.elems).sum();
    assert_eq!(rank_sum, RECORDS as u64, "ranks own disjoint striped blocks covering N");

    // --- in-process reference run ---
    let local_report = striped_in_process(&input, &out_local);

    // Byte-identical striped output.
    let tcp_bytes = std::fs::read(&out_tcp).expect("read tcp output");
    let local_bytes = std::fs::read(&out_local).expect("read local output");
    assert_eq!(tcp_bytes.len(), RECORDS * Record100::BYTES);
    assert_eq!(tcp_bytes, local_bytes, "outputs must be byte-identical across transports");

    // valsort-clean: globally sorted, a permutation of the input.
    let mut recs = Vec::new();
    Record100::decode_slice(&tcp_bytes, &mut recs);
    assert!(recs.windows(2).all(|w| w[0].key <= w[1].key), "output must be globally sorted");
    let out_fp = recs.iter().fold(0u64, |acc, r| acc.wrapping_add(hash_record(r)));
    let input_bytes = std::fs::read(&input).expect("read input");
    let mut input_recs = Vec::new();
    Record100::decode_slice(&input_bytes, &mut input_recs);
    let in_fp = input_recs.iter().fold(0u64, |acc, r| acc.wrapping_add(hash_record(r)));
    assert_eq!(out_fp, in_fp, "output must be a permutation of the input");

    // gensort keys are 10 random bytes — unique at this scale — so
    // the totally ordered reference sort is exactly what the canonical
    // algorithm would produce: the striped output must match it byte
    // for byte (merging batches instead of sorting them must not
    // change a single record position).
    let mut reference = input_recs.clone();
    reference.sort_unstable();
    let mut ref_bytes = vec![0u8; reference.len() * Record100::BYTES];
    Record100::encode_slice(&reference, &mut ref_bytes);
    assert_eq!(tcp_bytes, ref_bytes, "striped output must equal the canonical sorted order");

    // Identical counters, per rank, per phase — comm, I/O, AND the
    // deterministic CPU work counters (host wall time is excluded).
    // The striped algorithm issues no cross-rank probes during the
    // sort, so every counter's phase attribution is deterministic and
    // the transport must be completely invisible.
    for pe in 0..RANKS {
        for phase in Phase::ALL {
            let t = tcp.report.get(pe, phase);
            let l = local_report.get(pe, phase);
            assert_eq!(t.comm, l.comm, "comm counters (pe {pe}, {phase})");
            assert_eq!(t.io, l.io, "io counters (pe {pe}, {phase})");
            for (name, f) in [
                (
                    "elements_sorted",
                    (|c| c.elements_sorted) as fn(&demsort_types::CpuCounters) -> u64,
                ),
                ("sort_work", |c| c.sort_work),
                ("elements_merged", |c| c.elements_merged),
                ("merge_work", |c| c.merge_work),
                ("split_probes", |c| c.split_probes),
            ] {
                assert_eq!(f(&t.cpu), f(&l.cpu), "cpu {name} (pe {pe}, {phase})");
            }
        }
    }
    // The striped phases really were recorded.
    for pe in 0..RANKS {
        assert!(tcp.report.get(pe, Phase::RunFormation).io.bytes_written > 0, "pe {pe} phase 1");
        assert!(tcp.report.get(pe, Phase::FinalMerge).io.bytes_read > 0, "pe {pe} merge phase");
    }

    // Merge-phase CPU regression (on both transports): batches are
    // *merged*, never re-sorted — zero sort comparisons, and the merge
    // comparisons are exactly n·(⌈log2 R⌉ + ⌈log2 P⌉): each element
    // goes through one R-way batch loser tree and one P-way exchange
    // merge, strictly below the seed's ~n·log2(batch) sort cost per
    // batch.
    let n = RECORDS as u64;
    for (name, report) in [("tcp", &tcp.report), ("local", &local_report)] {
        let sort_work = report.phase_total(Phase::FinalMerge, |s| s.cpu.sort_work);
        let merge_total = report.phase_total(Phase::FinalMerge, |s| s.cpu.merge_work);
        assert_eq!(sort_work, 0, "{name}: merge phase must not sort");
        assert_eq!(
            merge_total,
            merge_work(n, report.runs) + merge_work(n, RANKS),
            "{name}: merge comparisons must be n·(⌈log2 R⌉ + ⌈log2 P⌉), R = {}",
            report.runs
        );
    }

    for p in [&input, &out_tcp, &out_local] {
        let _ = std::fs::remove_file(p);
    }
}

/// The in-node parallel batch merge must be invisible in the output
/// and in every deterministic counter: running the striped sort with
/// `cores_per_pe = 4` — on both transports — produces the exact bytes
/// of the `cores = 1` run, charges the same merge-phase comparison
/// bound, and books its split-selection probes in their own counter,
/// identically across transports.
#[test]
fn parallel_merge_cores_4_is_byte_identical_to_cores_1_on_both_transports() {
    let input = tmp_path("par-input.dat");
    let out_seq = tmp_path("par-out-seq.dat");
    let out_tcp = tmp_path("par-out-tcp.dat");
    let out_local = tmp_path("par-out-local.dat");
    write_gensort_input(&input);

    // cores = 1 in-process run: the sequential baseline.
    let seq_report = striped_in_process(&input, &out_seq);

    // cores = 4 on both transports. Batches at this scale sit below
    // the engine's per-thread minimum, so the run pins
    // `par_merge_min_per_thread: 1` (on both transports — the knob is
    // wire-encoded) to keep the multi-thread fan-out under test.
    let machine4 = MachineConfig { cores_per_pe: 4, ..test_machine() };
    let algo4 = AlgoConfig { par_merge_min_per_thread: 1, ..AlgoConfig::default() };
    let job = JobConfig {
        input: input.to_string_lossy().into_owned(),
        output: out_tcp.to_string_lossy().into_owned(),
        machine: machine4.clone(),
        algo: algo4.clone(),
        algorithm: SortAlgo::Striped,
        read_timeout_ms: 60_000,
        trace_dir: String::new(),
        scratch: default_scratch(&out_tcp.to_string_lossy()),
    };
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    let tcp = launch(&job, &worker).expect("striped tcp launch (cores = 4)");
    let local_report = striped_in_process_on(&input, &out_local, machine4, algo4);

    let seq_bytes = std::fs::read(&out_seq).expect("read cores=1 output");
    assert_eq!(seq_bytes.len(), RECORDS * Record100::BYTES);
    let tcp_bytes = std::fs::read(&out_tcp).expect("read tcp output");
    let local_bytes = std::fs::read(&out_local).expect("read local output");
    assert_eq!(tcp_bytes, seq_bytes, "cores=4 tcp output must equal the cores=1 output");
    assert_eq!(local_bytes, seq_bytes, "cores=4 local output must equal the cores=1 output");

    // Splitting the batch across threads must not change the total
    // comparison charge: per-thread merges sum to the sequential
    // n·(⌈log2 R⌉ + ⌈log2 P⌉) bound, and batches are still never
    // re-sorted.
    let n = RECORDS as u64;
    assert!(tcp.report.runs > 1, "test must exercise the merge phase (R > 1)");
    for (name, report) in [("seq", &seq_report), ("tcp", &tcp.report), ("local", &local_report)] {
        assert_eq!(
            report.phase_total(Phase::FinalMerge, |s| s.cpu.sort_work),
            0,
            "{name}: merge phase must not sort"
        );
        assert_eq!(
            report.phase_total(Phase::FinalMerge, |s| s.cpu.merge_work),
            merge_work(n, report.runs) + merge_work(n, RANKS),
            "{name}: parallel merge comparisons must sum to the sequential bound, R = {}",
            report.runs
        );
    }

    // Split-selection work is accounted separately and is a pure
    // function of the batch shapes, so it is transport-invariant.
    let probes = |r: &SortReport| r.phase_total(Phase::FinalMerge, |s| s.cpu.split_probes);
    assert_eq!(probes(&seq_report), 0, "cores=1 performs no split selection");
    assert!(probes(&tcp.report) > 0, "cores=4 must split batches across threads");
    assert_eq!(
        probes(&tcp.report),
        probes(&local_report),
        "split selection must be deterministic across transports"
    );

    for p in [&input, &out_seq, &out_tcp, &out_local] {
        let _ = std::fs::remove_file(p);
    }
}

/// Buffer-pool steady state: the data plane warms its pool up and then
/// recycles. With a pool sized to the working set (`--pool-blocks 64`),
/// doubling the sorted volume must roughly double the hit count (more
/// blocks through the same buffers) while misses — which track peak
/// in-flight buffers, not data volume — grow sublinearly and the miss
/// *rate* falls: allocation pressure does not scale with N.
#[test]
fn buffer_pool_misses_plateau_after_warmup() {
    let totals = |records: usize| {
        let algo = AlgoConfig { pool_blocks: 64, ..AlgoConfig::default() };
        let cfg = SortConfig::new(test_machine(), algo).expect("valid");
        let outcome = striped_sort_cluster::<Record100, _>(
            &cfg,
            move |pe, p| {
                let shard = demsort_types::ranks::owned_range(pe, p, records as u64);
                gensort_records(7, shard.start, (shard.end - shard.start) as usize)
            },
            None,
        )
        .expect("in-process striped sort");
        outcome
            .per_pe
            .iter()
            .fold(demsort_types::PoolCounters::default(), |acc, o| acc.merge(&o.pool))
    };
    let warm = totals(RECORDS);
    let big = totals(2 * RECORDS);
    assert!(warm.hits > 0, "a striped sort must recycle buffers through the pool: {warm:?}");
    assert!(
        warm.hits > 5 * warm.misses,
        "steady-state gets must be recycled, not allocated: {warm:?}"
    );
    assert_eq!(warm.discarded, 0, "a pool sized to the working set never overflows: {warm:?}");
    assert_eq!(big.discarded, 0, "a pool sized to the working set never overflows: {big:?}");
    assert!(big.hits > warm.hits, "pool traffic must grow with the data volume: {big:?}");
    assert!(
        big.misses < 2 * warm.misses,
        "misses track peak in-flight buffers — doubling N must not double them: \
         {warm:?} vs {big:?}"
    );
    // The miss rate itself falls as the sort grows: warmup amortises.
    let rate = |c: &demsort_types::PoolCounters| c.misses as f64 / (c.hits + c.misses) as f64;
    assert!(
        rate(&big) < rate(&warm),
        "the miss rate must fall as warmup amortises: {warm:?} vs {big:?}"
    );
}

#[test]
fn sort_file_matches_the_materialising_striped_run() {
    // `striped_in_process` above loads whole shards and reads the
    // output back as one record vector; the streaming file edges
    // behind `sort_file` must leave the same bytes and counters.
    let input = tmp_path("sf-input.dat");
    let out_ref = tmp_path("sf-out-ref.dat");
    let out = tmp_path("sf-out.dat");
    write_gensort_input(&input);
    let reference = striped_in_process(&input, &out_ref);
    let cfg = SortConfig::new(test_machine(), AlgoConfig::default()).expect("valid");
    let report = demsort_core::sort_file(&cfg, SortAlgo::Striped, &input, &out).expect("sort");

    assert_eq!(
        std::fs::read(&out).expect("read output"),
        std::fs::read(&out_ref).expect("read reference"),
        "sort_file output must be byte-identical to the materialising run"
    );
    assert_eq!(report.runs, reference.runs);
    for pe in 0..RANKS {
        for phase in Phase::ALL {
            let (got, want) = (report.get(pe, phase), reference.get(pe, phase));
            assert_eq!(got.comm, want.comm, "comm counters (pe {pe}, {phase})");
            assert_eq!(got.io, want.io, "io counters (pe {pe}, {phase})");
        }
    }
    for p in [&input, &out_ref, &out] {
        let _ = std::fs::remove_file(p);
    }
}
