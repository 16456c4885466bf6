//! The CANONICALMERGESORT driver (Section IV, Figure 1).
//!
//! Orchestrates the four phases on each PE and accounts every resource:
//!
//! 1. **Run formation** ([`crate::runform`]) — R global runs, sorted in
//!    parallel, slices written locally, randomized block choice,
//!    samples collected, I/O overlapped.
//! 2. **Multiway selection** ([`crate::extselect`]) — PE `i` finds the
//!    exact global rank `⌊i·N/P⌋` partition over all runs; splitter
//!    positions are exchanged.
//! 3. **All-to-all** ([`crate::alltoall`]) — the memory-bounded
//!    external redistribution; data already in place stays put.
//! 4. **Final merge** ([`crate::localmerge`]) — the local `R`-way
//!    merge into the canonical output.
//!
//! If everything fits into the cumulative memory (`R = 1`), the run
//! formation output *is* the final output and phases 2–4 are skipped
//! ("the sort is merely internal and only 2 I/Os per block of elements
//! are needed").

use crate::alltoall::{exchange_splitters, external_alltoall};
use crate::ctx::{ClusterStorage, PhaseRecorder};
use crate::extselect::{select_rank_external, SelectionStats};
use crate::job::run_in_process;
use crate::localmerge::final_merge;
use crate::recio::FinishedRun;
use crate::rundir::build_directory;
use crate::runform::{form_runs, ingest_input, LocalInput};
use demsort_net::Communicator;
use demsort_types::wire::RankReport;
use demsort_types::{ranks, Phase, PhaseStats, Record, Result, SortConfig};
use std::sync::Arc;

/// Per-PE result of a canonical mergesort.
pub struct PeOutcome<R: Record> {
    /// The PE's final output: the elements of global ranks
    /// `⌊i·N/P⌋ .. ⌊(i+1)·N/P⌋`, sorted, striped over its local disks.
    pub output: FinishedRun<R>,
    /// Per-phase measured counters.
    pub phases: Vec<(Phase, PhaseStats)>,
    /// Probe statistics of the multiway selection.
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
    let me = comm.rank();
    let st = storage.pe(me);
    let mut rec = PhaseRecorder::new(me, st.counters(), comm.counters());

    // ---- Phase 1: run formation ----
    let dir = rec.phase(Phase::RunFormation, comm, st, |rec| {
        let formed = form_runs::<R>(comm, st, cfg, input, cores)?;
        rec.add_cpu(formed.cpu);
        build_directory(comm, formed.local)
    })?;
    let runs = dir.num_runs();

    // ---- Single-run shortcut: the sort was internal ----
    if runs == 1 {
        let output = dir.local.into_iter().next().expect("one run");
        return Ok(PeOutcome {
            output,
            phases: rec.into_stats(),
            selection: SelectionStats::default(),
            alltoall_subops: 0,
            sources_seen: 0,
            runs,
        });
    }

    // ---- Phase 2a: multiway selection ----
    let (all_splitters, sel_stats) = rec.phase(Phase::MultiwaySelection, comm, st, |rec| {
        let my_rank_boundary = ranks::owned_range(me, comm.size(), dir.total_elems()).start;
        let (splitters, sel_stats) =
            select_rank_external(storage, me, &dir, my_rank_boundary, &cfg.algo)?;
        rec.add_comm(sel_stats.comm());
        Ok((exchange_splitters(comm, &splitters)?, sel_stats))
    })?;

    // ---- Phase 2b: external all-to-all ----
    let outcome = rec.phase(Phase::AllToAll, comm, st, |_| {
        external_alltoall::<R>(comm, st, cfg, &dir, &all_splitters)
    })?;

    // ---- Phase 3: final local merge ----
    let (subops, sources_seen) = (outcome.subops, outcome.sources_seen);
    let output = rec.phase(Phase::FinalMerge, comm, st, |rec| {
        let (output, merge_cpu) = final_merge::<R>(st, outcome.merge_inputs, cores)?;
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

/// Whole-cluster result of [`sort_cluster`].
pub struct ClusterOutcome<R: Record> {
    /// Per-PE outcomes, indexed by rank.
    pub per_pe: Vec<PeOutcome<R>>,
    /// The aggregated measured report (input for the cost model).
    pub report: demsort_types::SortReport,
    /// The cluster storage (outputs remain readable through it).
    pub storage: Arc<ClusterStorage>,
}

/// Convenience driver: spin up `cfg.machine.pes` PE threads
/// ([`run_in_process`]), generate and ingest each PE's input via
/// `gen(pe, p)`, run CANONICALMERGESORT, and aggregate the report.
///
/// Input generation and ingest are *setup* — their I/O happens before
/// the measured baseline, like the pre-loaded input files of the
/// paper's experiments.
pub fn sort_cluster<R, G>(cfg: &SortConfig, gen: G) -> Result<ClusterOutcome<R>>
where
    R: Record + Ord,
    G: Fn(usize, usize) -> Vec<R> + Send + Sync,
{
    let (report, per_pe, storage) = run_in_process(cfg, R::BYTES, |comm, storage| {
        let (rank, p) = (comm.rank(), comm.size());
        let input = ingest_input(storage.pe(rank), &gen(rank, p))?;
        let o = canonical_mergesort::<R>(&comm, storage, cfg, input, cfg.machine.cores_per_pe)?;
        let report = RankReport {
            rank,
            elems: o.output.elems,
            runs: o.runs,
            phases: o.phases.clone(),
            error: None,
        };
        Ok((report, o))
    })?;
    Ok(ClusterOutcome { per_pe, report, storage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recio::read_records;
    use demsort_types::{AlgoConfig, Element16, MachineConfig};
    use demsort_workloads::{checksum_elements, generate_all, generate_pe_input, InputSpec};

    fn config(pes: usize) -> SortConfig {
        SortConfig::new(MachineConfig::tiny(pes), AlgoConfig::default()).expect("valid")
    }

    /// End-to-end check: output is the canonical distributed sort of
    /// the input (sizes, order, permutation).
    fn check_sort(cfg: &SortConfig, spec: InputSpec, local_n: usize) -> ClusterOutcome<Element16> {
        let p = cfg.machine.pes;
        let outcome =
            sort_cluster::<Element16, _>(cfg, |pe, p| generate_pe_input(spec, 77, pe, p, local_n))
                .expect("sort");

        let mut reference = generate_all(spec, 77, p, local_n);
        let checksum_in = checksum_elements(&reference);
        reference.sort_unstable();

        let n = reference.len() as u64;
        let mut concat = Vec::with_capacity(reference.len());
        for (pe, o) in outcome.per_pe.iter().enumerate() {
            assert_eq!(
                o.output.elems,
                ranks::owned_len(pe, p, n),
                "canonical size on PE {pe} ({spec:?})"
            );
            let recs =
                read_records::<Element16>(outcome.storage.pe(pe), &o.output.run, o.output.elems)
                    .expect("read output");
            concat.extend(recs);
        }
        // Key sequence must match the reference exactly (equal keys may
        // come out in any payload order — the sort is by key with PE
        // tie-breaks); the multiset of records must be untouched.
        let keys: Vec<u64> = concat.iter().map(|e| e.key).collect();
        let ref_keys: Vec<u64> = reference.iter().map(|e| e.key).collect();
        assert_eq!(keys, ref_keys, "global key order ({spec:?}, P={p})");
        assert_eq!(checksum_elements(&concat), checksum_in, "permutation ({spec:?})");
        outcome
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
        let cfg = config(3);
        let outcome = check_sort(&cfg, InputSpec::Uniform, 100); // fits in memory
        assert_eq!(outcome.per_pe[0].runs, 1);
        // Only run formation happened.
        for o in &outcome.per_pe {
            assert_eq!(o.phases.len(), 1);
            assert_eq!(o.phases[0].0, Phase::RunFormation);
        }
        // Two I/Os per element: read input once, write output once.
        let io_over_n = outcome.report.io_volume_over_n();
        assert!((1.9..=2.3).contains(&io_over_n), "internal sort I/O ratio {io_over_n}");
    }

    #[test]
    fn two_pass_io_volume_for_external_inputs() {
        // 700 elems/PE over 256-elem runs → R = 3: a genuine external
        // sort. Total I/O must stay near 4N (two passes) + the small
        // all-to-all overhead (random input moves ~(P-1)/P of data ≈
        // 0.75N read + written once more... but only moved data counts:
        // I/O = 4N + 2·moved_fraction·N bounded by 6N).
        let cfg = config(4);
        let outcome = check_sort(&cfg, InputSpec::Uniform, 700);
        let io_over_n = outcome.report.io_volume_over_n();
        assert!((3.9..=6.5).contains(&io_over_n), "two-pass-ish I/O ratio {io_over_n}");
        assert!(outcome.per_pe[0].runs >= 2, "external case must have several runs");
    }

    #[test]
    fn presorted_input_moves_almost_nothing() {
        let cfg = config(4);
        let outcome = check_sort(&cfg, InputSpec::Sorted, 700);
        // All-to-all volume (Figure 5's metric): bytes through the
        // all-to-all phase relative to input bytes.
        let n_bytes = outcome.report.total_bytes() as f64;
        let a2a_io = outcome.report.phase_total(Phase::AllToAll, |s| s.io.bytes_total()) as f64;
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
            let outcome = check_sort(&cfg, spec, 1024);
            outcome.report.phase_total(Phase::AllToAll, |s| s.io.bytes_total()) as f64
                / outcome.report.total_bytes() as f64
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
        let outcome = check_sort(&cfg, InputSpec::Uniform, 100_000);
        assert!(outcome.per_pe[0].runs >= 2, "external case");
        let comm_over_n = outcome.report.comm_volume_over_n();
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
