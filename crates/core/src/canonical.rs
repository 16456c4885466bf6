//! The CANONICALMERGESORT driver (Section IV, Figure 1).
//!
//! Orchestrates the four phases on each PE and accounts every resource:
//!
//! 1. **Run formation** ([`crate::runform`]) — R global runs, sorted in
//!    parallel, slices written locally, randomized block choice,
//!    samples collected, I/O overlapped.
//! 2. **Multiway selection** ([`crate::extselect`]) — PE `i` finds the
//!    exact global rank `⌊i·N/P⌋` partition over all runs, in memory,
//!    over the sample-bracketed windows the PEs push it from their own
//!    disks; splitter positions are exchanged.
//! 3. **All-to-all** ([`crate::alltoall`]) — the memory-bounded
//!    external redistribution; data already in place stays put.
//! 4. **Final merge** ([`crate::localmerge`]) — the local `R`-way
//!    merge into the canonical output: the striped sort's batch loop
//!    ([`crate::batchmerge`]) over the PE's own blocks in prediction
//!    order, a window of `2·D` blocks read ahead whatever `R` is.
//!
//! If everything fits into the cumulative memory (`R = 1`), the run
//! formation output *is* the final output and phases 2–4 are skipped
//! ("the sort is merely internal and only 2 I/Os per block of elements
//! are needed").
//!
//! The last pass — the final merge, or run formation when `R = 1` —
//! writes this PE's part of the output: to its disks, or in a file job
//! ([`canonical_mergesort_to`]) straight into the output file at the
//! part's offset.

use crate::alltoall::{exchange_splitters, external_alltoall};
use crate::ctx::{ClusterStorage, PhaseRecorder};
use crate::extselect::{select_splitters, SelectionStats};
use crate::fileio::OutputFile;
use crate::localmerge::final_merge;
use crate::recio::{FinishedRun, RunDest};
use crate::rundir::build_directory;
use crate::runform::{form_runs, LocalInput};
use demsort_net::Communicator;
use demsort_storage::PeStorage;
use demsort_types::{Phase, PhaseStats, Record, Result, SortConfig};

/// Per-PE result of a canonical mergesort.
pub struct PeOutcome<R: Record> {
    /// The PE's final output: the elements of global ranks
    /// `⌊i·N/P⌋ .. ⌊(i+1)·N/P⌋`, sorted, striped over its local disks
    /// (or written into the output file, its blocks
    /// [`BlockId::in_file`](demsort_storage::BlockId::in_file)).
    pub output: FinishedRun<R>,
    /// Per-phase measured counters.
    pub phases: Vec<(Phase, PhaseStats)>,
    /// What the multiway selection read, pushed and selected over.
    pub selection: SelectionStats,
    /// Number of suboperations the all-to-all used (`k`).
    pub alltoall_subops: usize,
    /// Number of distinct PEs data was received from (`P'`).
    pub sources_seen: usize,
    /// Number of runs (`R`).
    pub runs: usize,
}

/// Run CANONICALMERGESORT on one PE (collective call).
///
/// `input` must already reside on `st`'s disks (see
/// [`crate::runform::ingest_input`]); `cores` is the intra-PE
/// parallelism (Section IV-E "Hierarchical Parallelism").
pub fn canonical_mergesort<R: Record + Ord>(
    comm: &Communicator,
    storage: &ClusterStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
) -> Result<PeOutcome<R>> {
    canonical_mergesort_to(comm, storage.pe(comm.rank()), cfg, input, cores, None)
}

/// [`canonical_mergesort`] whose last pass writes this PE's output part
/// into `output` (`None`: onto its disks, as [`canonical_mergesort`]).
/// `st` is this PE's own storage.
pub fn canonical_mergesort_to<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
    output: Option<OutputFile<'_>>,
) -> Result<PeOutcome<R>> {
    let me = comm.rank();
    let mut rec = PhaseRecorder::new(me, st.counters(), comm.counters());

    // ---- Phase 1: run formation ----
    // Every rank forms the same number of runs; one run is the output,
    // and no rank needs a directory of it.
    let dir = rec.phase(Phase::RunFormation, comm, st, |rec| {
        let formed = form_runs::<R>(comm, st, cfg, input, cores, output)?;
        rec.add_cpu(formed.cpu);
        match <[_; 1]>::try_from(formed.local) {
            Ok([only]) => Ok(Err(only)),
            Err(local) => build_directory(comm, local).map(Ok),
        }
    })?;

    // ---- Single-run shortcut: the sort was internal ----
    let dir = match dir {
        Ok(dir) => dir,
        Err(output) => {
            return Ok(PeOutcome {
                output,
                phases: rec.into_stats(),
                selection: SelectionStats::default(),
                alltoall_subops: 0,
                sources_seen: 0,
                runs: 1,
            })
        }
    };
    let runs = dir.num_runs();

    // ---- Phase 2a: multiway selection ----
    let (all_splitters, sel_stats) = rec.phase(Phase::MultiwaySelection, comm, st, |_| {
        let (splitters, sel_stats) = select_splitters(comm, st, &dir)?;
        Ok((exchange_splitters(comm, &dir, &splitters)?, sel_stats))
    })?;

    // ---- Phase 2b: external all-to-all ----
    let outcome = rec.phase(Phase::AllToAll, comm, st, |_| {
        external_alltoall::<R>(comm, st, cfg, &dir, &all_splitters)
    })?;

    // The directory — every run's samples among it — has served
    // selection and the all-to-all; the final merge reuses its memory.
    drop(dir);

    // ---- Phase 3: final local merge ----
    let (subops, sources_seen) = (outcome.subops, outcome.sources_seen);
    let output = rec.phase(Phase::FinalMerge, comm, st, |rec| {
        // Every rank finished run formation — its input reads among
        // it — before the all-to-all's collectives, so the output may be
        // the input file.
        let dest = match output {
            Some(out) => out.canonical_part::<R>(me, comm.size())?,
            None => RunDest::Scratch,
        };
        let inputs = outcome.merge_inputs;
        let (output, merge_cpu) = final_merge::<R>(comm, st, inputs, dest)?;
        rec.add_cpu(merge_cpu);
        for b in outcome.stragglers {
            st.free_block(b);
        }
        Ok(output)
    })?;

    Ok(PeOutcome {
        output,
        phases: rec.into_stats(),
        selection: sel_stats,
        alltoall_subops: subops,
        sources_seen,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileio::{file_records, input_shard, read_record_file, write_record_file};
    use crate::job::{run_in_process, run_rank_job};
    use crate::validate::Fingerprint;
    use crate::TestDir;
    use demsort_types::wire::RankReport;
    use demsort_types::{
        ranks, AlgoConfig, Element16, JobConfig, MachineConfig, SortAlgo, SortReport,
    };
    use demsort_workloads::{generate_all, InputSpec};

    fn config(pes: usize) -> SortConfig {
        SortConfig::new(MachineConfig::tiny(pes), AlgoConfig::default()).expect("valid")
    }

    /// End-to-end check: a canonical file job of `local_n` records of
    /// `spec` per PE, its disks in memory, writes the canonical sort of
    /// its input (sizes, order, permutation). Returns the cluster's
    /// report and the ranks'.
    fn check_sort(
        cfg: &SortConfig,
        spec: InputSpec,
        local_n: usize,
    ) -> (SortReport, Vec<RankReport>) {
        let (p, dir) = (cfg.machine.pes, TestDir::new("canonical"));
        let input = generate_all(spec, 77, p, local_n);
        write_record_file(&dir.file("in.dat"), &input).expect("write input");
        let job = JobConfig {
            input: dir.path("in.dat"),
            output: dir.path("out.dat"),
            machine: cfg.machine.clone(),
            algo: cfg.algo.clone(),
            algorithm: SortAlgo::Canonical,
            read_timeout_ms: 1,
            trace_dir: String::new(),
            scratch: String::new(),
        };
        let (report, per_pe, _) = run_in_process(cfg, Element16::BYTES, |comm, storage| {
            let report = run_rank_job::<Element16>(&job, &comm, storage.pe(comm.rank()), None)?;
            Ok((report.clone(), report))
        })
        .expect("sort");

        let n = input.len() as u64;
        for r in &per_pe {
            let want = ranks::owned_len(r.rank, p, n);
            assert_eq!(r.elems, want, "canonical size on PE {} ({spec:?})", r.rank);
        }
        let sorted = read_record_file::<Element16>(&dir.file("out.dat")).expect("read output");
        // Key sequence must match the reference exactly (equal keys may
        // come out in any payload order — the sort is by key with PE
        // tie-breaks); the multiset of records must be untouched.
        let mut reference = input.clone();
        reference.sort_unstable();
        let keys: Vec<u64> = sorted.iter().map(|e| e.key).collect();
        let ref_keys: Vec<u64> = reference.iter().map(|e| e.key).collect();
        assert_eq!(keys, ref_keys, "global key order ({spec:?}, P={p})");
        assert_eq!(Fingerprint::of_slice(&sorted), Fingerprint::of_slice(&input), "{spec:?}");
        (report, per_pe)
    }

    #[test]
    fn sorts_uniform_multiple_cluster_sizes() {
        for p in [1, 2, 4] {
            check_sort(&config(p), InputSpec::Uniform, 700);
        }
    }

    #[test]
    fn sorts_every_adversarial_input_class() {
        let cfg = config(3);
        for spec in [
            InputSpec::Sorted,
            InputSpec::ReverseSorted,
            InputSpec::SkewedToOne,
            InputSpec::Constant,
            InputSpec::Banded { block_elems: 16 },
        ] {
            check_sort(&cfg, spec, 600);
        }
    }

    #[test]
    fn single_run_shortcut_is_internal_sort() {
        // 100 records per PE are 7 blocks of the 16 memory holds: one
        // run, read block by block.
        for p in [2, 3] {
            let (report, per_pe) = check_sort(&config(p), InputSpec::Uniform, 100);
            assert_eq!(report.runs, 1);
            // Only run formation happened.
            for r in &per_pe {
                assert_eq!(r.phases.len(), 1);
                assert_eq!(r.phases[0].0, Phase::RunFormation);
            }
            // Two I/Os per element: read input once, write output once.
            let io_over_n = report.io_volume_over_n();
            assert!((1.9..=2.3).contains(&io_over_n), "internal sort I/O ratio {io_over_n}");
            // At one core a record is merged once: by the run's exchange.
            let merged = report.phase_total(Phase::RunFormation, |s| s.cpu.elements_merged);
            assert_eq!(merged, report.elements, "P={p}: records merged in run formation");
        }
    }

    #[test]
    fn a_single_run_sort_builds_no_directory() {
        let (cfg, p) = (config(3), 3);
        let (_, per_pe) = check_sort(&cfg, InputSpec::Uniform, 100);
        // The run's exchange alone, on the same input.
        let dir = TestDir::new("canonical-exchange");
        let input = dir.file("in.dat");
        write_record_file(&input, &generate_all(InputSpec::Uniform, 77, p, 100)).expect("write");
        let (input, total) = (input.as_path(), file_records::<Element16>(&input).expect("size"));
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let (st_ref, cfg_ref) = (&storage, &cfg);
        let exchange = demsort_net::run_cluster(p, move |c| {
            let st = st_ref.pe(c.rank());
            let local = input_shard::<Element16>(input, c.rank(), p, total).expect("shard");
            let before = c.counters();
            let cores = cfg_ref.machine.cores_per_pe;
            let formed = form_runs::<Element16>(&c, st, cfg_ref, local, cores, None).expect("form");
            assert!(formed.local[0].samples.is_empty(), "the only run is not sampled");
            c.counters().delta_since(&before)
        });
        for (r, exchange) in per_pe.iter().zip(&exchange) {
            assert_eq!((r.runs, r.phases[0].0), (1, Phase::RunFormation));
            assert_eq!(r.phases[0].1.comm, *exchange, "run formation sends its exchange only");
        }
    }

    #[test]
    fn two_pass_io_volume_for_external_inputs() {
        // 700 elems/PE over 256-elem runs → R = 3: a genuine external
        // sort. Total I/O must stay near 4N (two passes) + the small
        // all-to-all overhead (random input moves ~(P-1)/P of data ≈
        // 0.75N read + written once more... but only moved data counts:
        // I/O = 4N + 2·moved_fraction·N bounded by 6N).
        let cfg = config(4);
        let (report, _) = check_sort(&cfg, InputSpec::Uniform, 700);
        let io_over_n = report.io_volume_over_n();
        assert!((3.9..=6.5).contains(&io_over_n), "two-pass-ish I/O ratio {io_over_n}");
        assert!(report.runs >= 2, "external case must have several runs");
    }

    #[test]
    fn presorted_input_moves_almost_nothing() {
        let cfg = config(4);
        let (report, _) = check_sort(&cfg, InputSpec::Sorted, 700);
        // All-to-all volume (Figure 5's metric): bytes through the
        // all-to-all phase relative to input bytes.
        let n_bytes = report.total_bytes() as f64;
        let a2a_io = report.phase_total(Phase::AllToAll, |s| s.io.bytes_total()) as f64;
        assert!(
            a2a_io / n_bytes < 0.1,
            "presorted input must not move data: ratio {}",
            a2a_io / n_bytes
        );
    }

    #[test]
    fn randomization_reduces_alltoall_volume_on_worst_case() {
        // The Figure 4 vs Figure 6 contrast: banded worst-case input
        // with and without randomized block assignment.
        let p = 4;
        let spec = InputSpec::Banded { block_elems: 16 };
        let volume = |randomize: bool| {
            let algo = AlgoConfig { randomize, ..AlgoConfig::default() };
            let cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
            let (report, _) = check_sort(&cfg, spec, 1024);
            report.phase_total(Phase::AllToAll, |s| s.io.bytes_total()) as f64
                / report.total_bytes() as f64
        };
        let with_rand = volume(true);
        let without = volume(false);
        assert!(
            with_rand < without * 0.7,
            "randomization must cut all-to-all I/O: {with_rand:.3} vs {without:.3}"
        );
    }

    #[test]
    fn communication_volume_is_about_one_pass() {
        // CANONICALMERGESORT's headline: communication volume N + o(N)
        // — the data crosses the network (at most) once, in the
        // internal sort of run formation; redistribution moves little
        // and the selection/directory control traffic is o(N). The
        // o(N) terms only vanish when runs are much larger than the
        // per-round control messages, so this test uses a mid-size
        // machine (1 KiB blocks, 512 KiB memory/PE) instead of `tiny`.
        let machine = MachineConfig {
            pes: 4,
            disks_per_pe: 2,
            block_bytes: 1024,
            mem_bytes_per_pe: 1024 * 512,
            cores_per_pe: 1,
        };
        let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
        // 100k elems/PE → R = 4 runs of 32k elems/PE.
        let (report, _) = check_sort(&cfg, InputSpec::Uniform, 100_000);
        assert!(report.runs >= 2, "external case");
        let comm_over_n = report.comm_volume_over_n();
        // (P-1)/P = 0.75 of the data moves in run formation's internal
        // sort; everything else must be small.
        assert!(comm_over_n < 1.1, "communication must stay near one pass: {comm_over_n:.2}");
    }

    #[test]
    fn ragged_input_sizes() {
        let cfg = config(3);
        check_sort(&cfg, InputSpec::Uniform, 333);
    }

    #[test]
    fn empty_input_cluster() {
        let cfg = config(2);
        check_sort(&cfg, InputSpec::Uniform, 0);
    }
}
