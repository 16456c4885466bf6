//! Striped-mergesort multi-process acceptance test: `sortfile --algo
//! striped --transport tcp`'s code path (4 real `demsort-worker`
//! processes over a loopback TCP mesh, each writing its part of the
//! last pass into the shared output) must produce **byte-identical**
//! output and **identical per-rank, per-phase comm, I/O and CPU
//! counters** to the same file job on the in-process cluster
//! (`run_job_local`, what `sortfile --transport local` runs).
//!
//! Unlike the canonical algorithm, the striped sort has no selection
//! probes, so even the per-phase I/O attribution is deterministic —
//! the comparison is exact on every counter.

use demsort_bench::procs::launch;
use demsort_core::fileio::OutputFile;
use demsort_core::job::{default_scratch, run_in_process, run_job_local};
use demsort_core::merge::merge_work;
use demsort_core::runform::ingest_input;
use demsort_core::striped::striped_mergesort;
use demsort_core::validate::hash_record;
use demsort_types::wire::RankReport;
use demsort_types::{
    AlgoConfig, CpuCounters, JobConfig, MachineConfig, Phase, PhaseStats, PoolCounters,
    Record as _, Record100, SortAlgo, SortConfig, SortReport,
};
use demsort_workloads::gensort_records;
use std::io::Write;
use std::path::{Path, PathBuf};

const RECORDS: usize = 3_000;
const RANKS: usize = 4;

fn test_machine() -> MachineConfig {
    // Tiny blocks and memory force several runs per rank, so the merge
    // phase (batch reads, exchanges and the file write) really runs.
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

/// `sortfile --algo striped` from `input` to `output` on `machine`.
fn striped_job(input: &Path, output: &Path, machine: MachineConfig, algo: AlgoConfig) -> JobConfig {
    JobConfig {
        input: input.to_string_lossy().into_owned(),
        output: output.to_string_lossy().into_owned(),
        machine,
        algo,
        algorithm: SortAlgo::Striped,
        read_timeout_ms: 60_000,
        trace_dir: String::new(),
        scratch: default_scratch(&output.to_string_lossy()),
    }
}

/// The same job as 4 real worker processes over loopback TCP, and on
/// the in-process cluster (`sortfile --transport local`) into
/// `out_local`: the two reports.
fn on_both_transports(job: &JobConfig, out_local: &Path) -> (SortReport, SortReport) {
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    let tcp = launch(job, &worker).expect("striped tcp launch");
    assert_eq!(tcp.per_rank.len(), RANKS);
    let rank_sum: u64 = tcp.per_rank.iter().map(|r| r.elems).sum();
    assert_eq!(rank_sum, RECORDS as u64, "the ranks' parts of the output cover N");
    let local = JobConfig {
        output: out_local.to_string_lossy().into_owned(),
        scratch: default_scratch(&out_local.to_string_lossy()),
        ..job.clone()
    };
    (tcp.report, run_job_local::<Record100>(&local).expect("in-process striped job"))
}

/// Every deterministic counter of two runs of one job agrees, per rank
/// and per phase: comm, I/O and the CPU work counters (host wall time
/// excluded). The striped algorithm issues no cross-rank probes during
/// the sort, so every counter's phase attribution is deterministic and
/// the transport must be completely invisible.
fn assert_same_counters(tcp: &SortReport, local: &SortReport) {
    let work = |c: &CpuCounters| CpuCounters { host_wall_ns: 0, ..*c };
    for pe in 0..RANKS {
        for phase in Phase::ALL {
            let (t, l) = (tcp.get(pe, phase), local.get(pe, phase));
            assert_eq!(t.comm, l.comm, "comm counters (pe {pe}, {phase})");
            assert_eq!(t.io, l.io, "io counters (pe {pe}, {phase})");
            assert_eq!(work(&t.cpu), work(&l.cpu), "cpu counters (pe {pe}, {phase})");
        }
    }
}

/// Sort each rank's shard of `records` records — `shard(rank, p)`,
/// loaded whole and ingested into blocks — with the striped sort on the
/// in-process cluster into `output`: the report, and every rank's
/// buffer-pool counters when its sort is done.
fn striped_in_process(
    cfg: &SortConfig,
    records: u64,
    shard: impl Fn(usize, usize) -> Vec<Record100> + Sync,
    output: &Path,
) -> (SortReport, Vec<PoolCounters>) {
    let output = OutputFile { path: output, records };
    let (report, pools, _) = run_in_process(cfg, Record100::BYTES, |comm, storage| {
        let (rank, st) = (comm.rank(), storage.pe(comm.rank()));
        let input = ingest_input(st, &shard(rank, comm.size()))?;
        let o = striped_mergesort::<Record100>(&comm, st, cfg, input, 1, None, output)?;
        let (elems, runs, phases) = (o.written, o.runs, o.phases);
        Ok((RankReport { rank, elems, runs, phases, error: None }, st.pool().counters()))
    })
    .expect("in-process striped sort");
    (report, pools)
}

/// The materialising reference of `sort_file`: whole shards of `input`
/// in, sorted into `output`.
fn striped_materialised(input: &Path, output: &Path) -> SortReport {
    let cfg = SortConfig::new(test_machine(), AlgoConfig::default()).expect("valid");
    let mut all = Vec::new();
    Record100::decode_slice(&std::fs::read(input).expect("read input"), &mut all);
    let shard = |pe, p| {
        let shard = demsort_types::ranks::owned_range(pe, p, all.len() as u64);
        all[shard.start as usize..shard.end as usize].to_vec()
    };
    striped_in_process(&cfg, all.len() as u64, shard, output).0
}

#[test]
fn four_rank_striped_tcp_launch_matches_in_process_run() {
    let input = tmp_path("input.dat");
    let out_tcp = tmp_path("out-tcp.dat");
    let out_local = tmp_path("out-local.dat");
    write_gensort_input(&input);

    let job = striped_job(&input, &out_tcp, test_machine(), AlgoConfig::default());
    let (tcp, local) = on_both_transports(&job, &out_local);
    assert!(tcp.runs > 1, "test must exercise the merge phase (R > 1)");

    // Byte-identical output.
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

    assert_same_counters(&tcp, &local);
    // The striped phases really were recorded.
    for pe in 0..RANKS {
        assert!(tcp.get(pe, Phase::RunFormation).io.bytes_written > 0, "pe {pe} phase 1");
        assert!(tcp.get(pe, Phase::FinalMerge).io.bytes_read > 0, "pe {pe} merge phase");
    }

    // Merge-phase CPU regression (on both transports): batches are
    // *merged*, never re-sorted — zero sort comparisons, and the merge
    // comparisons are exactly n·(⌈log2 R⌉ + ⌈log2 P⌉): each element
    // goes through one R-way batch loser tree and one P-way exchange
    // merge, strictly below the seed's ~n·log2(batch) sort cost per
    // batch.
    let n = RECORDS as u64;
    for (name, report) in [("tcp", &tcp), ("local", &local)] {
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

/// Cores must be invisible in the output and in every deterministic
/// counter: running the striped sort with `cores_per_pe = 4` — on both
/// transports — produces the exact bytes of the `cores = 1` run and
/// charges the same merge-phase comparison bound. The batch merge runs
/// one loser tree on one thread at any core count, so the merge phase
/// spends no split-selection probes.
#[test]
fn parallel_merge_cores_4_is_byte_identical_to_cores_1_on_both_transports() {
    let input = tmp_path("par-input.dat");
    let out_seq = tmp_path("par-out-seq.dat");
    let out_tcp = tmp_path("par-out-tcp.dat");
    let out_local = tmp_path("par-out-local.dat");
    write_gensort_input(&input);

    // cores = 1 in-process run: the sequential baseline.
    let seq_job = striped_job(&input, &out_seq, test_machine(), AlgoConfig::default());
    let seq_report = run_job_local::<Record100>(&seq_job).expect("cores = 1 job");

    // cores = 4 on both transports.
    let machine4 = MachineConfig { cores_per_pe: 4, ..test_machine() };
    let job = striped_job(&input, &out_tcp, machine4, AlgoConfig::default());
    let (tcp, local) = on_both_transports(&job, &out_local);

    let seq_bytes = std::fs::read(&out_seq).expect("read cores=1 output");
    assert_eq!(seq_bytes.len(), RECORDS * Record100::BYTES);
    let tcp_bytes = std::fs::read(&out_tcp).expect("read tcp output");
    let local_bytes = std::fs::read(&out_local).expect("read local output");
    assert_eq!(tcp_bytes, seq_bytes, "cores=4 tcp output must equal the cores=1 output");
    assert_eq!(local_bytes, seq_bytes, "cores=4 local output must equal the cores=1 output");
    assert_same_counters(&tcp, &local);

    // Cores must not change the total comparison charge: the
    // n·(⌈log2 R⌉ + ⌈log2 P⌉) bound, and batches are never re-sorted.
    let n = RECORDS as u64;
    assert!(tcp.runs > 1, "test must exercise the merge phase (R > 1)");
    for (name, report) in [("seq", &seq_report), ("tcp", &tcp), ("local", &local)] {
        assert_eq!(
            report.phase_total(Phase::FinalMerge, |s| s.cpu.sort_work),
            0,
            "{name}: merge phase must not sort"
        );
        assert_eq!(
            report.phase_total(Phase::FinalMerge, |s| s.cpu.merge_work),
            merge_work(n, report.runs) + merge_work(n, RANKS),
            "{name}: merge comparisons must be the sequential bound, R = {}",
            report.runs
        );
    }

    // No batch is split over threads, on either transport.
    let probes = |r: &SortReport| r.phase_total(Phase::FinalMerge, |s| s.cpu.split_probes);
    for (name, report) in [("seq", &seq_report), ("tcp", &tcp), ("local", &local)] {
        assert_eq!(probes(report), 0, "{name}: the merge performs no split selection");
    }

    for p in [&input, &out_seq, &out_tcp, &out_local] {
        let _ = std::fs::remove_file(p);
    }
}

/// Buffer-pool steady state: the data plane warms its pool up and then
/// recycles. With a pool sized to the working set (64 blocks),
/// doubling the sorted volume must roughly double the hit count (more
/// blocks through the same buffers) while misses — which track peak
/// in-flight buffers, not data volume — grow sublinearly and the miss
/// *rate* falls: allocation pressure does not scale with N.
#[test]
fn buffer_pool_misses_plateau_after_warmup() {
    let out = tmp_path("pool-out.dat");
    let totals = |records: usize| {
        // The pool is `max(m/B, 2D + 2)`: 31 disks lift it from 16 to
        // 64 blocks while `m`, and so the runs, stay the test machine's.
        let machine = MachineConfig { disks_per_pe: 31, ..test_machine() };
        assert_eq!(machine.pool_blocks(), 64);
        let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
        let shard = |pe, p| {
            let shard = demsort_types::ranks::owned_range(pe, p, records as u64);
            gensort_records(7, shard.start, (shard.end - shard.start) as usize)
        };
        let (_, pools) = striped_in_process(&cfg, records as u64, shard, &out);
        pools.iter().fold(PoolCounters::default(), |acc, c| acc.merge(c))
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
    let rate = |c: &PoolCounters| c.misses as f64 / (c.hits + c.misses) as f64;
    assert!(
        rate(&big) < rate(&warm),
        "the miss rate must fall as warmup amortises: {warm:?} vs {big:?}"
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn sort_file_matches_the_materialising_striped_run() {
    // `striped_materialised` above loads whole shards and ingests them
    // into blocks; the direct file edges behind `sort_file` must leave
    // the same bytes, move the same blocks, form the same runs and
    // send the same messages.
    let input = tmp_path("sf-input.dat");
    let out_ref = tmp_path("sf-out-ref.dat");
    let out = tmp_path("sf-out.dat");
    write_gensort_input(&input);
    let reference = striped_materialised(&input, &out_ref);
    let cfg = SortConfig::new(test_machine(), AlgoConfig::default()).expect("valid");
    let report =
        demsort_core::sort_file::<Record100>(&cfg, SortAlgo::Striped, &input, &out).expect("sort");

    assert_eq!(
        std::fs::read(&out).expect("read output"),
        std::fs::read(&out_ref).expect("read reference"),
        "sort_file output must be byte-identical to the materialising run"
    );
    assert_eq!(report.runs, reference.runs);
    assert!(report.runs > 1, "an external sort");
    let io_total = |r: &SortReport, f: fn(&PhaseStats) -> u64| -> u64 {
        Phase::ALL.iter().map(|&ph| r.phase_total(ph, f)).sum()
    };
    for (name, f) in [
        ("bytes_written", (|s| s.io.bytes_written) as fn(&PhaseStats) -> u64),
        ("blocks_written", |s| s.io.blocks_written),
        ("bytes_read", |s| s.io.bytes_read),
    ] {
        assert_eq!(io_total(&report, f), io_total(&reference, f), "{name}");
    }
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
