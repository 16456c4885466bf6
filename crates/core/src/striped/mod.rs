//! Mergesort with global striping (Section III).
//!
//! The I/O-optimal sibling of CANONICALMERGESORT: runs are striped over
//! *all* `D` disks of the cluster ("subsequent blocks are allocated on
//! subsequent disks"), which makes every read and write perfectly
//! parallel but costs a communication for each write — "we need 4–5
//! communications for two passes of sorting".
//!
//! * **Run formation** is phase 1 of the canonical algorithm — the same
//!   group reader ([`GroupReader`], in input order), in-node sort and
//!   exchange kernel — with a different sink: the exchange merges the
//!   run straight into a striping sink (`runs`), whose one all-to-all
//!   sends every record to its block's owner — and, in a replicated
//!   sort, to the owner's buddies — so its data is exchanged once more.
//! * **Merging** (`merge`): passes of up to `M/B` runs, a fan-in the
//!   machine decides
//!   ([`MachineConfig::merge_fan_in`](demsort_types::MachineConfig::merge_fan_in)),
//!   each group merged batch by batch in prediction-sequence order
//!   through the batch loop the canonical final merge uses
//!   ([`crate::batchmerge`]), each PE reading the batch's blocks on its
//!   own disks; each batch is exchanged, and striped like a run.
//! * **Recovery** (`recovery`): replicas written at run formation let
//!   the survivors of a rank's death regroup and re-merge.
//!
//! The output file has no disks to stripe over and is never read back,
//! so the last pass — the one merge group, or run formation when there
//! is one run — exchanges each batch once, with cuts on block
//! boundaries, and every rank writes its part at its place in the file
//! (`runs::FileOutput`). A two-pass sort therefore communicates its
//! data three times: run formation's exchange and striping, then the
//! last pass's one exchange.
//!
//! This module holds the sort itself, [`striped_mergesort`] — one entry
//! point with or without recovery hooks, two [`PhaseRecorder::phase`]
//! scopes, the second only when there is more than one run — and its
//! outcome type.

mod merge;
mod recovery;
mod runs;
#[cfg(test)]
mod tests;

pub use recovery::{ResilientHooks, SubgroupFn};

use crate::ctx::PhaseRecorder;
use crate::fileio::OutputFile;
use crate::psort::Exchange;
use crate::runform::{GroupReader, LocalInput};
use crate::seqsort::InNodeSort;
use demsort_net::Communicator;
use demsort_storage::PeStorage;
use demsort_types::{CommCounters, Error, Phase, PhaseStats, Record, Result, SortConfig};
use merge::MergeJob;
use recovery::regroup;
use runs::{FileOutput, RankView, StripedRun};

/// Outcome of the striped sort on one PE.
pub struct StripedOutcome {
    /// Records this PE wrote into the output file.
    pub written: u64,
    /// Number of initial runs.
    pub runs: usize,
    /// Number of merge passes (0 if a single run sufficed).
    pub passes: usize,
    /// Per-phase measured counters: run formation (striped writes
    /// included), then — when merging happened — the merge passes
    /// under [`Phase::FinalMerge`].
    ///
    /// The read/merge interleaving of the merge passes is journalled
    /// through the communicator's [`Tracer`](demsort_types::Tracer) as
    /// [`TraceEv::MergeIssued`](demsort_types::TraceEv::MergeIssued) /
    /// [`TraceEv::MergeEmitted`](demsort_types::TraceEv::MergeEmitted)
    /// events: overlap means `Issued(b+1)` precedes `Emitted(b)` (the
    /// next batch's reads are in flight while the current batch
    /// merges).
    pub phases: Vec<(Phase, PhaseStats)>,
}

/// Sort `input` into the job's output file with the striped mergesort
/// (Section III). Collective. Each merge pass merges up to
/// [`MachineConfig::merge_fan_in`](demsort_types::MachineConfig::merge_fan_in)
/// runs (`M/B`), striping every run it writes over all disks, and the
/// last pass writes the sorted sequence into `output` — one exchange
/// per batch whose cuts fall on block boundaries, each rank writing its
/// part at its place, and no striping.
///
/// `st` is this rank's storage: `input` resides there, and the sort
/// reads and writes no other. Records reach other ranks only through
/// `comm`'s all-to-alls, so the identical call works on the in-process
/// cluster and on a multi-process worker.
///
/// Without `hooks` a rank failure surfaces as [`Error::Comm`]. With
/// [`AlgoConfig::replication`]` = f > 0` and more than one run (the
/// replicas serve the merge), run formation writes `f` replicas of
/// every formed run block on the owner's buddy ranks — the run's one
/// striping all-to-all brings every holder its records, which adds
/// `f·(P−1)/P` of the data to the communication and `f` times the runs
/// to the writes, and reads nothing back — and the merge retains
/// consumed initial-run blocks instead of freeing them. If a merge
/// attempt then fails with [`Error::Comm`] and `hooks` are provided,
/// the survivors regroup (dead set, subgroup, membership agreement) and
/// re-run the merge from the initial runs over the survivor
/// communicator, each block read on its first live holder, completing
/// degraded:
/// the re-merge stripes over the survivors' disks, cuts the output over
/// the survivors and rewrites every byte of it.
/// The failover is recorded in the [`Phase::FinalMerge`] counters:
/// each replica rank charges one message and one block of send volume
/// per block it re-serves, and the survivor communicator's traffic is
/// folded into the same phase. One recovery attempt is made; a second
/// failure surfaces as the error it is.
///
/// With `f = 0` (the default) the data path is the same with or
/// without hooks: no replicas, no retained blocks, no extra
/// collectives, identical counters.
///
/// Degraded completion trades space for survival: blocks retained for
/// a recovery that did happen are not reclaimed afterwards (the
/// allocator high-water mark reflects that).
///
/// [`AlgoConfig::replication`]: demsort_types::AlgoConfig::replication
pub fn striped_mergesort<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
    mut hooks: Option<ResilientHooks<'_>>,
    output: OutputFile<'_>,
) -> Result<StripedOutcome> {
    let me = comm.rank();
    let p = comm.size();
    let f = cfg.algo.replication;
    let mut rec = PhaseRecorder::new(me, st.counters(), comm.counters());
    let view = RankView::identity(me, p);
    // The merge loop journals its read/merge interleaving through the
    // tracer the phase spans go to.
    let tr = comm.tracer();

    // ---- Run formation with striped writes (and replicas) ----
    let (num_runs, mut runs, written) = rec.phase(Phase::RunFormation, comm, st, |rec| {
        let groups = GroupReader::new::<R>(st, cfg, input, None);
        // A collective maximum, so every rank records the same phase set
        // (the report shapes stay comparable).
        let num_runs = comm.allreduce_max(groups.local_groups() as u64)?.max(1) as usize;
        // The only run is the sort's last pass: it goes into the output
        // file.
        let last_pass = num_runs == 1;
        let mut runs: Vec<StripedRun<R::Key>> = Vec::with_capacity(num_runs);
        // Every run's local records: decoded into, sorted in, and merged
        // from by the run's exchange.
        let mut data: Vec<R> = Vec::with_capacity(groups.max_group_records());
        let mut sorter = InNodeSort::with_capacity(groups.max_group_records(), cores);
        let mut exchange = Exchange::with_capacity(groups.max_group_records(), cores);
        let mut written = 0;
        for j in 0..num_runs {
            tr.progress(Phase::RunFormation, j as u64, num_runs as u64);
            groups.collect(groups.issue(j), &mut data)?;
            let mut sort_cpu = sorter.sort(&mut data, cores);
            if last_pass {
                // Into the output file, this rank's part at its place: no
                // rank writes before the run's exchange, which each enters
                // with its own reads waited, so the output may be the
                // input.
                let mut file = FileOutput::new(output.open::<R>(me)?);
                sort_cpu =
                    sort_cpu.merge(&file.append(comm, st, cfg, &mut exchange, &data, cores)?);
                written = file.finish();
            } else {
                // Striped over all disks by the run's one exchange, with
                // the replicas a merge can fail over to.
                let mut run = StripedRun::new(&view, cfg.machine.disks_per_pe, f);
                sort_cpu =
                    sort_cpu.merge(&run.append(comm, st, cfg, &mut exchange, &data, cores)?);
                runs.push(run);
            }
            rec.add_cpu(sort_cpu);
        }
        Ok((num_runs, runs, written))
    })?;

    if let Some(hook) = hooks.as_ref().and_then(|h| h.on_merge_start.as_ref()) {
        if !hook(me) {
            return Err(Error::comm(format!(
                "rank {me}: abandoning sort at merge start (failure harness)"
            )));
        }
    }

    // ---- Merge passes (one recovery attempt on rank death) ----
    let (written, passes) = if num_runs == 1 {
        (written, 0)
    } else {
        rec.phase(Phase::FinalMerge, comm, st, |rec| {
            let job = MergeJob {
                comm,
                view: &view,
                st,
                cfg,
                cores,
                k_max: cfg.machine.merge_fan_in(),
                free_consumed: f == 0,
                tracer: tr,
            };
            // With replication on, keep the initial runs: they are what
            // a recovery re-merges, each block read on its first live
            // holder.
            let attempt = match hooks.as_mut().filter(|_| f > 0) {
                None => job.run::<R>(std::mem::take(&mut runs), output),
                Some(hooks) => match job.run::<R>(runs.clone(), output) {
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
                        .run::<R>(std::mem::take(&mut runs), output)?;
                        rec.add_comm(sub.counters());
                        Ok(done)
                    }
                    other => other,
                },
            };
            let (written, passes, merge_cpu) = attempt?;
            rec.add_cpu(merge_cpu);
            Ok((written, passes))
        })?
    };

    Ok(StripedOutcome { written, runs: num_runs, passes, phases: rec.into_stats() })
}
