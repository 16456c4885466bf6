//! Mergesort with global striping (Section III).
//!
//! The I/O-optimal sibling of CANONICALMERGESORT: runs and output are
//! striped over *all* `D` disks of the cluster ("subsequent blocks are
//! allocated on subsequent disks"), which makes every read and write
//! perfectly parallel but costs a communication for each of them —
//! "we need 4–5 communications for two passes of sorting".
//!
//! * **Run formation** is phase 1 of the canonical algorithm — the same
//!   group reader ([`GroupReader`], in input order), in-node sort and
//!   exchange kernel — with a different sink: the sorted run is written
//!   striped (`runs`), so its data is exchanged once more.
//! * **Merging** (`merge`): passes of up to `k_max` runs, each group
//!   merged batch by batch in prediction-sequence order through the
//!   carry-merge kernel the canonical final merge uses
//!   ([`crate::merge::CarryMerge`]).
//! * **Recovery** (`recovery`): replicas stored at run formation let the
//!   survivors of a rank's death regroup and re-merge.
//!
//! This module is the driver — two [`PhaseRecorder::phase`] scopes, the
//! second only when there is more than one run — with the outcome types
//! and the in-process convenience driver.

mod merge;
mod recovery;
mod runs;
#[cfg(test)]
mod tests;

pub use recovery::{ResilientHooks, SubgroupFn};
pub use runs::{read_striped, read_striped_blocks, StripedRun};

use crate::ctx::{ClusterStorage, PhaseRecorder};
use crate::job::run_in_process;
use crate::psort::Exchange;
use crate::runform::{ingest_input, GroupReader, LocalInput};
use crate::seqsort::sort_in_node;
use demsort_net::Communicator;
use demsort_types::wire::RankReport;
use demsort_types::{
    CommCounters, CpuCounters, Error, Phase, PhaseStats, Record, Result, SortConfig, SortReport,
};
use merge::MergeJob;
use recovery::{regroup, replicate_run};
use runs::{write_striped, RankView};
use std::sync::Arc;

/// Outcome of the striped sort on one PE.
pub struct StripedOutcome<R: Record> {
    /// The globally striped sorted output (identical on every PE).
    pub output: StripedRun<R::Key>,
    /// Number of initial runs.
    pub runs: usize,
    /// Number of merge passes (0 if a single run sufficed).
    pub passes: usize,
    /// CPU counters for this PE.
    pub cpu: CpuCounters,
    /// Per-phase measured counters: run formation (striped writes
    /// included), then — when merging happened — the merge passes
    /// under [`Phase::FinalMerge`].
    ///
    /// The fetch/merge interleaving of the merge passes is journalled
    /// through the communicator's [`Tracer`](demsort_types::Tracer) as
    /// [`TraceEv::MergeIssued`](demsort_types::TraceEv::MergeIssued) /
    /// [`TraceEv::MergeEmitted`](demsort_types::TraceEv::MergeEmitted)
    /// events: overlap means `Issued(b+1)` precedes `Emitted(b)` (the
    /// next batch's reads are in flight while the current batch
    /// merges).
    pub phases: Vec<(Phase, PhaseStats)>,
    /// Cumulative buffer-pool counters of this PE's data plane at the
    /// end of the sort. Diagnostics only: the hit/miss split depends on
    /// worker timing, so it is never part of the pinned identity
    /// surface (unlike `cpu` and `phases`).
    pub pool: demsort_types::PoolCounters,
}

/// Sort `input` into a globally striped output (Section III).
/// Collective. `k_max` bounds the merge fan-in (`None` = `M/B`).
///
/// `input` must reside on this rank's own storage
/// (`storage.pe(comm.rank())`); cross-rank block access — none during
/// the sort itself, all of it in [`read_striped`] — goes through
/// `storage`'s block service, so the identical call works on the
/// in-process cluster and on a multi-process single-rank view.
///
/// Equivalent to [`striped_mergesort_resilient`] with no hooks: a
/// rank failure surfaces as [`Error::Comm`] instead of triggering
/// recovery.
pub fn striped_mergesort<R: Record + Ord>(
    comm: &Communicator,
    storage: &ClusterStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
    k_max: Option<usize>,
) -> Result<StripedOutcome<R>> {
    striped_mergesort_resilient::<R>(comm, storage, cfg, input, cores, k_max, None)
}

/// [`striped_mergesort`] with rank-failure recovery.
///
/// With [`AlgoConfig::replication`]` = f > 0`, run formation stores
/// `f` replicas of every formed run block on the owner's buddy ranks,
/// and the merge retains consumed initial-run blocks instead of
/// freeing them. If a merge attempt then fails with [`Error::Comm`] and
/// `hooks` are provided, the survivors regroup (dead set, subgroup,
/// membership agreement, replica remap) and re-run the merge from the
/// initial runs over the survivor communicator, completing degraded.
/// The failover is recorded in the [`Phase::FinalMerge`] counters:
/// each replica rank charges one message and one block of send volume
/// per block it re-serves, and the survivor communicator's traffic is
/// folded into the same phase. One recovery attempt is made; a second
/// failure surfaces as the error it is.
///
/// With `f = 0` (the default) the data path is byte-for-byte the
/// non-resilient sort: no stores, no retained blocks, no extra
/// collectives, identical counters.
///
/// Degraded completion trades space for survival: blocks retained for
/// a recovery that did happen are not reclaimed afterwards (the
/// allocator high-water mark reflects that), and the output directory
/// names only surviving ranks.
///
/// [`AlgoConfig::replication`]: demsort_types::AlgoConfig::replication
pub fn striped_mergesort_resilient<R: Record + Ord>(
    comm: &Communicator,
    storage: &ClusterStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
    k_max: Option<usize>,
    mut hooks: Option<ResilientHooks<'_>>,
) -> Result<StripedOutcome<R>> {
    let me = comm.rank();
    let p = comm.size();
    let st = storage.pe(me);
    let k_max = k_max.unwrap_or(cfg.machine.mem_blocks_per_pe() * cfg.machine.pes).max(2);
    let f = cfg.algo.replication;
    let mut cpu = CpuCounters::default();
    let mut rec = PhaseRecorder::new(me, st.counters(), comm.counters());
    let view = RankView::identity(me, p);
    // The merge loop journals its fetch/merge interleaving through the
    // tracer the phase spans go to.
    let tr = comm.tracer();

    // ---- Run formation with striped writes (and replication) ----
    let mut runs = rec.phase(Phase::RunFormation, comm, st, |rec| {
        let groups = GroupReader::new::<R>(st, cfg, input, None);
        let num_runs = comm.allreduce_max(groups.local_groups() as u64)?.max(1) as usize;
        let mut runs: Vec<StripedRun<R::Key>> = Vec::with_capacity(num_runs);
        // Two arenas every run reuses: its local records (decoded into,
        // sorted in), and its canonical slice (merged into by the
        // exchange, re-blocked from by the striped write) — about as many
        // records as it put in, within a block when the shards are equal.
        let mut data: Vec<R> = Vec::with_capacity(groups.max_group_records());
        let mut canon: Vec<R> = Vec::with_capacity(data.capacity());
        let mut exchange = Exchange::new();
        for j in 0..num_runs {
            tr.progress(Phase::RunFormation, j as u64, num_runs as u64);
            groups.collect(groups.issue(j), &mut data)?;
            st.pool().add_copied((data.len() * R::BYTES) as u64);
            canon.clear();
            let sort_cpu = sort_in_node(&mut data, cores)
                .merge(&exchange.run(comm, &data, cores, &mut canon)?);
            cpu = cpu.merge(&sort_cpu);
            rec.add_cpu(sort_cpu);
            // The run is canonically distributed in memory; write it
            // striped over all disks (one more communication).
            runs.push(write_striped::<R>(comm, st, cfg, &view, &canon, 0)?);
        }
        // The merge passes bring their own arenas.
        drop((data, canon, exchange));
        if f > 0 {
            for run in &mut runs {
                replicate_run::<R::Key>(comm, storage, f, run, rec)?;
            }
        }
        Ok(runs)
    })?;
    // A collective maximum, so every rank records the same phase set
    // (the report shapes stay comparable).
    let num_runs = runs.len();

    if let Some(hook) = hooks.as_ref().and_then(|h| h.on_merge_start.as_ref()) {
        if !hook(me) {
            return Err(Error::comm(format!(
                "rank {me}: abandoning sort at merge start (failure harness)"
            )));
        }
    }

    // ---- Merge passes (one recovery attempt on rank death) ----
    let (output, passes) = if num_runs > 1 {
        rec.phase(Phase::FinalMerge, comm, st, |rec| {
            let job = MergeJob {
                comm,
                view: &view,
                storage,
                cfg,
                cores,
                k_max,
                free_consumed: f == 0,
                tracer: tr,
            };
            // With replication on, keep the initial run directories:
            // they are what a recovery re-merges (with dead owners
            // remapped to their replicas).
            let attempt = match hooks.as_mut().filter(|_| f > 0) {
                None => job.run::<R>(std::mem::take(&mut runs)),
                Some(hooks) => match job.run::<R>(runs.clone()) {
                    Err(err @ Error::Comm(_)) => {
                        let survivors = regroup(hooks, err, me, p, &runs)?;
                        // Each block this rank now re-serves for a dead
                        // owner is one message and one block of send
                        // volume.
                        rec.add_comm(CommCounters {
                            messages: survivors.served,
                            bytes_sent: survivors.served * st.block_bytes() as u64,
                            ..CommCounters::default()
                        });
                        // Re-merge from the initial runs over the
                        // survivors. The journal keeps the aborted
                        // attempt's events — the peer-death instant
                        // separates the attempts, so the trace shows the
                        // failover rather than hiding it.
                        let sub = &survivors.comm;
                        let done = MergeJob {
                            comm: sub,
                            view: &survivors.view,
                            free_consumed: false,
                            ..job
                        }
                        .run::<R>(survivors.runs)?;
                        rec.add_comm(sub.counters());
                        Ok(done)
                    }
                    other => other,
                },
            };
            let (output, passes, merge_cpu) = attempt?;
            cpu = cpu.merge(&merge_cpu);
            rec.add_cpu(merge_cpu);
            Ok((output, passes))
        })?
    } else {
        (runs.pop().unwrap_or_else(StripedRun::empty), 0)
    };

    Ok(StripedOutcome {
        output,
        runs: num_runs,
        passes,
        cpu,
        phases: rec.into_stats(),
        pool: st.pool().counters(),
    })
}

/// Whole-cluster result of [`striped_sort_cluster`].
pub struct StripedClusterOutcome<R: Record> {
    /// Per-PE outcomes, indexed by rank.
    pub per_pe: Vec<StripedOutcome<R>>,
    /// The aggregated measured report.
    pub report: SortReport,
    /// The cluster storage (the striped output remains readable
    /// through it via [`read_striped`]).
    pub storage: Arc<ClusterStorage>,
}

/// Convenience driver for the in-process cluster
/// ([`run_in_process`]): generate and ingest each PE's input via
/// `gen(pe, p)`, run the striped mergesort, and aggregate the report —
/// the striped sibling of
/// [`sort_cluster`](crate::canonical::sort_cluster).
pub fn striped_sort_cluster<R, G>(
    cfg: &SortConfig,
    gen: G,
    k_max: Option<usize>,
) -> Result<StripedClusterOutcome<R>>
where
    R: Record + Ord,
    G: Fn(usize, usize) -> Vec<R> + Send + Sync,
{
    let (report, per_pe, storage) = run_in_process(cfg, R::BYTES, |comm, storage| {
        let (rank, p) = (comm.rank(), comm.size());
        let input = ingest_input(storage.pe(rank), &gen(rank, p))?;
        let cores = cfg.machine.cores_per_pe;
        let o = striped_mergesort::<R>(&comm, storage, cfg, input, cores, k_max)?;
        // The striped output is global; a rank's share of it is the
        // records in the blocks it owns.
        let blocks = o.output.owners.iter().zip(&o.output.counts);
        let elems =
            blocks.filter(|&(&owner, _)| owner as usize == rank).map(|(_, &n)| n as u64).sum();
        let report =
            RankReport { rank, elems, runs: o.runs, phases: o.phases.clone(), error: None };
        Ok((report, o))
    })?;
    Ok(StripedClusterOutcome { per_pe, report, storage })
}
