//! Mergesort with global striping (Section III).
//!
//! The I/O-optimal sibling of CANONICALMERGESORT: runs and output are
//! striped over *all* `D` disks of the cluster ("subsequent blocks are
//! allocated on subsequent disks"), which makes every read and write
//! perfectly parallel but costs a communication for each of them —
//! "we need 4–5 communications for two passes of sorting".
//!
//! * **Run formation**: like phase 1 of the canonical algorithm, but
//!   the sorted run is written striped: block `g` of a run goes to disk
//!   `g mod D` (on PE `(g mod D) / disks_per_pe`), so the run's data is
//!   exchanged once more after the internal sort.
//! * **Merging**: up to `k_max` runs are merged per pass. The global
//!   *prediction sequence* — the smallest key of every block, recorded
//!   at write time — gives the exact order in which blocks are needed
//!   \[11\]\[14\]. A batch of the next `Θ(M/B)` blocks is fetched (each PE
//!   reads the blocks on its own disks) and **merged, not re-sorted**:
//!   the fetched blocks come from already sorted runs, so each PE
//!   feeds its per-run sorted sequences (plus the per-run carry tails
//!   of the previous batch) into a loser tree, and the merged prefix
//!   that is provably complete — smaller than every not-yet-merged
//!   block's first key — is redistributed canonically with one
//!   splitter-based exchange ([`Exchange::run`]: exact splitters, one
//!   all-to-all, a `P`-way merge into an arena every batch reuses) and
//!   written out striped. The rest stays buffered per run for the
//!   next batch (at most `B` elements per run remain unmerged, so
//!   carry-over is bounded). Merging costs `O(n log R)` comparisons
//!   per pass instead of the `O(n log n)` per batch that full batch
//!   sorting would pay — the internal-work bound that dominates
//!   throughput at scale.
//!
//! The result is a globally striped sorted sequence: block `g` of the
//! output holds elements `g·rpb ..`, on disk `g mod D` — emitted
//! pieces continue the round-robin striping where the previous piece
//! left off, so the per-disk block counts of the stitched output
//! differ by at most one.
//!
//! All block reads go through the location-transparent
//! [`ClusterStorage`] block service: the merge phase issues its batch
//! fetches asynchronously in the duality-optimal prefetch order
//! ([`duality_issue_order`], Appendix A), and the fetches for batch
//! `k+1` are issued **before** batch `k` is merged (double-buffered
//! prefetch — the communicator's [`Tracer`] journals the
//! interleaving as [`TraceEv::MergeIssued`] /
//! [`TraceEv::MergeEmitted`] events), so the reads overlap the merge and the exchange.
//! [`read_striped`] reconstructs the output from *any single rank* —
//! blocks owned by peers are fetched over the wire in pipelined
//! per-owner batches.

use crate::ctx::{BlockFetch, ClusterStorage, PhaseRecorder};
use crate::job::run_in_process;
use crate::merge::{merge_cpu, par_merge_k_below_traced_with_min, par_merge_k_traced_with_min};
use crate::psort::Exchange;
use crate::recio::records_per_block;
use crate::runform::{ingest_input, LocalInput};
use crate::seqsort::sort_in_node;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_storage::{duality_issue_order, BlockId, PeStorage};
use demsort_types::wire::RankReport;
use demsort_types::{
    CommCounters, CpuCounters, Error, Phase, PhaseStats, Record, Result, SortConfig, SortReport,
    TraceEv, Tracer,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A globally striped sorted sequence: block `g` lives on PE
/// `owners[g]` at `blocks[g]`, holding records
/// `[g·rpb, min((g+1)·rpb, elems))`; `first_keys[g]` is its smallest
/// key (the prediction sequence).
#[derive(Clone, Debug)]
pub struct StripedRun<K> {
    /// Owning PE per global block (**global** rank — stable across
    /// survivor renumbering during rank-failure recovery).
    pub owners: Vec<u32>,
    /// Local block id per global block.
    pub blocks: Vec<BlockId>,
    /// Prediction sequence: first key per global block.
    pub first_keys: Vec<K>,
    /// Valid records per block (interior blocks of stitched merge
    /// output can be partial, so counts are explicit).
    pub counts: Vec<u32>,
    /// Replica directory per global block: `(replica rank, block id)`
    /// pairs in buddy order (replica `i` of a block owned by `o`
    /// lives on rank `(o + i) mod P`). Empty unless the run was
    /// replicated ([`AlgoConfig::replication`] ` > 0`) — merged
    /// intermediate runs are never replicated; recovery re-derives
    /// them from the initial runs.
    ///
    /// [`AlgoConfig::replication`]: demsort_types::AlgoConfig::replication
    pub replicas: Vec<Vec<(u32, BlockId)>>,
    /// Total records.
    pub elems: u64,
}

impl<K> StripedRun<K> {
    /// A run with no blocks and no records.
    pub fn empty() -> Self {
        Self {
            owners: Vec::new(),
            blocks: Vec::new(),
            first_keys: Vec::new(),
            counts: Vec::new(),
            replicas: Vec::new(),
            elems: 0,
        }
    }
}

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
    /// through the communicator's [`Tracer`] as
    /// [`TraceEv::MergeIssued`] / [`TraceEv::MergeEmitted`]
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

/// The rank mapping a merge runs under. In the common case it is the
/// identity (`globals[i] == i`); after a rank failure the survivors
/// re-run the merge over a renumbered subgroup communicator, and this
/// view translates between the subgroup's dense ranks (what `comm`
/// speaks) and the global ranks recorded in run directories and used
/// to address [`ClusterStorage`].
struct RankView {
    /// This rank's global rank (`storage.pe(my_global)` is ours).
    my_global: usize,
    /// Global rank of each communicator rank, strictly increasing.
    globals: Vec<usize>,
}

impl RankView {
    fn identity(me: usize, p: usize) -> Self {
        Self { my_global: me, globals: (0..p).collect() }
    }
}

/// Factory for a survivor communicator over the given (strictly
/// increasing, global) member ranks — the `subgroup` hook of
/// [`ResilientHooks`].
pub type SubgroupFn<'a> = Box<dyn FnMut(&[usize]) -> Result<Communicator> + 'a>;

/// Failure-recovery callbacks for
/// [`striped_mergesort_resilient`]. The sort itself is
/// transport-agnostic; these hooks supply the three things only the
/// harness knows: who died, how the survivors regroup, and (for
/// tests) a seam to abandon a rank at a deterministic point.
pub struct ResilientHooks<'a> {
    /// Failure-detector snapshot: `dead[r]` is true once rank `r` is
    /// known dead (e.g. [`Transport::dead_peers`]). Polled after a
    /// merge attempt fails with [`Error::Comm`].
    ///
    /// [`Transport::dead_peers`]: demsort_net::Transport::dead_peers
    pub dead_set: Box<dyn Fn() -> Vec<bool> + 'a>,
    /// Build a communicator over the given **global** ranks (strictly
    /// increasing, containing this rank). The harness is responsible
    /// for the epoch cut that makes the new group's channels clean
    /// (e.g. [`Transport::advance_epoch`] + drain, then
    /// [`SubTransport`]).
    ///
    /// [`Transport::advance_epoch`]: demsort_net::Transport::advance_epoch
    /// [`SubTransport`]: demsort_net::SubTransport
    pub subgroup: SubgroupFn<'a>,
    /// Test seam, called with this rank's global rank when run
    /// formation (and replication) is complete and merging is about
    /// to start. Returning `false` makes this rank abandon the sort
    /// with [`Error::Comm`] — the in-process stand-in for a killed
    /// process (its transport endpoint drops, so peers see it dead).
    pub on_merge_start: Option<Box<dyn Fn(usize) -> bool + 'a>>,
}

/// How long recovery waits for the failure detector to name a dead
/// rank after a merge attempt dies with a communication error.
const DEAD_SET_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll interval while waiting on the failure detector.
const DEAD_SET_POLL: Duration = Duration::from_millis(20);

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
/// `f` replicas of every formed run block on the owner's buddy ranks
/// (replica `i` on rank `(owner + i) mod P`) through the write side
/// of the block service, and the merge retains consumed initial-run
/// blocks instead of freeing them. If a merge attempt then fails with
/// [`Error::Comm`] and `hooks` are provided, the survivors: (1) poll
/// `hooks.dead_set` until it names the dead rank(s); (2) regroup via
/// `hooks.subgroup` and verify by an allgather that they agree on the
/// membership; (3) re-route every dead rank's blocks to the first
/// live replica; and (4) re-run the merge from the
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
#[allow(clippy::too_many_arguments)]
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
    let rpb = records_per_block::<R>(st.block_bytes());
    let bpr = cfg.machine.mem_blocks_per_pe().max(1);
    let k_max = k_max.unwrap_or(cfg.machine.mem_blocks_per_pe() * cfg.machine.pes).max(2);
    let f = cfg.algo.replication;
    let mut cpu = CpuCounters::default();
    let mut rec = PhaseRecorder::new(me, st.counters(), comm.counters());
    let view = RankView::identity(me, p);
    // Phase spans delimit the same intervals the recorder attributes
    // counters to; the merge loop journals its fetch/merge
    // interleaving through the same tracer.
    let tr = comm.tracer().clone();
    let pev = |ph: Phase| TraceEv::Phase { phase: ph };

    // ---- Run formation with striped writes ----
    tr.progress(Phase::RunFormation, 0, 1);
    let span = tr.begin(pev(Phase::RunFormation));
    let full_blocks = (input.elems / rpb as u64) as usize;
    let tail = (input.elems % rpb as u64) as usize;
    let local_groups = full_blocks.div_ceil(bpr).max(usize::from(tail > 0));
    let num_runs = comm.allreduce_max(local_groups as u64)?.max(1) as usize;

    let mut runs: Vec<StripedRun<R::Key>> = Vec::with_capacity(num_runs);
    // Two arenas every run reuses: its local records (decoded into,
    // sorted in), and its canonical slice (merged into by the
    // exchange, re-blocked from by the striped write) — about as many
    // records as it put in, within a block when the shards are equal.
    let mut data: Vec<R> = Vec::with_capacity(bpr.min(full_blocks) * rpb + tail);
    let mut canon: Vec<R> = Vec::with_capacity(data.capacity());
    let mut exchange = Exchange::new();
    for j in 0..num_runs {
        tr.progress(Phase::RunFormation, j as u64, num_runs as u64);
        let lo = (j * bpr).min(full_blocks);
        let hi = ((j + 1) * bpr).min(full_blocks);
        data.clear();
        let mut handles = Vec::new();
        for b in lo..hi {
            handles.push((st.engine().read(input.run.blocks[b]), rpb));
            st.alloc().free(input.run.blocks[b]);
        }
        if tail > 0 && hi == full_blocks && j * bpr <= full_blocks && (lo < hi || full_blocks == 0)
        {
            let id = *input.run.blocks.last().expect("tail block");
            handles.push((st.engine().read(id), tail));
            st.alloc().free(id);
        }
        for (h, valid) in handles {
            let buf = h.wait()?;
            R::decode_slice(&buf[..valid * R::BYTES], &mut data);
            st.pool().add_copied((valid * R::BYTES) as u64);
            st.pool().put(buf);
        }
        canon.clear();
        let sort_cpu =
            sort_in_node(&mut data, cores).merge(&exchange.run(comm, &data, cores, &mut canon)?);
        cpu = cpu.merge(&sort_cpu);
        rec.add_cpu(sort_cpu);
        // The run is canonically distributed in memory; write it
        // striped over all disks (one more communication).
        runs.push(write_striped::<R>(comm, st, cfg, &view, &canon, 0)?);
    }
    // The merge passes bring their own arenas.
    drop((data, canon, exchange));
    // ---- Run replication (replication factor f > 0) ----
    if f > 0 {
        for run in &mut runs {
            replicate_run::<R::Key>(comm, storage, f, run, &mut rec)?;
        }
    }
    rec.finish_phase(Phase::RunFormation, st.counters(), comm.counters());
    tr.mem();
    tr.end(span, pev(Phase::RunFormation));

    if let Some(hook) = hooks.as_ref().and_then(|h| h.on_merge_start.as_ref()) {
        if !hook(me) {
            return Err(Error::comm(format!(
                "rank {me}: abandoning sort at merge start (failure harness)"
            )));
        }
    }

    // ---- Merge passes (one recovery attempt on rank death) ----
    // With replication on, keep the initial run directories: they are
    // what a recovery re-merges (with dead owners remapped to their
    // replicas).
    let recoverable = f > 0 && hooks.is_some();
    let merge_span = if num_runs > 1 {
        tr.progress(Phase::FinalMerge, 0, 1);
        tr.begin(pev(Phase::FinalMerge))
    } else {
        0
    };
    let attempt_runs = if recoverable { runs.clone() } else { std::mem::take(&mut runs) };
    let attempt =
        run_merge_passes::<R>(comm, storage, cfg, &view, attempt_runs, k_max, cores, f == 0, &tr);
    let (output, passes, merge_cpu_total) = match attempt {
        Ok(done) => done,
        Err(err) if recoverable && matches!(err, Error::Comm(_)) => {
            let hooks = hooks.as_mut().expect("recoverable implies hooks");
            // (1) Wait for the failure detector to name the dead.
            let deadline = Instant::now() + DEAD_SET_TIMEOUT;
            let dead = loop {
                let dead = (hooks.dead_set)();
                if dead.iter().any(|&d| d) {
                    break dead;
                }
                if Instant::now() >= deadline {
                    return Err(Error::comm(format!(
                        "merge failed ({err}) but the failure detector names no dead rank"
                    )));
                }
                std::thread::sleep(DEAD_SET_POLL);
            };
            let members: Vec<usize> =
                (0..p).filter(|&r| !dead.get(r).copied().unwrap_or(false)).collect();
            if members.len() < 2 || !members.contains(&me) {
                return Err(err);
            }
            // (2) Regroup the survivors.
            let sub = (hooks.subgroup)(&members)?;
            // (3) Agreement: every survivor must see the same
            // membership, or the re-merge would deadlock on mismatched
            // collectives. (Membership bitmask fits u64: P ≤ 64 holds
            // for every configuration this crate drives; larger
            // clusters would gather the member list itself.)
            if p <= 64 {
                let mask = members.iter().fold(0u64, |m, &r| m | (1u64 << r));
                let masks = sub.allgather_u64(mask)?;
                if masks.iter().any(|&m| m != mask) {
                    return Err(Error::comm(format!(
                        "survivors disagree on the dead set (masks {masks:x?})"
                    )));
                }
            }
            // (4) Re-route the dead ranks' blocks to their replicas
            // and record the failover: each block this rank now
            // re-serves is one message and one block of send volume.
            let (remapped, served) = remap_runs(&runs, &dead, me)?;
            if served > 0 {
                rec.add_comm(CommCounters {
                    messages: served,
                    bytes_sent: served * st.block_bytes() as u64,
                    ..CommCounters::default()
                });
            }
            // (5) Re-merge from the initial runs over the survivors.
            // The journal keeps the aborted attempt's events — the
            // peer-death instant separates the attempts, so the trace
            // shows the failover rather than hiding it.
            let sub_view = RankView { my_global: me, globals: members };
            let done = run_merge_passes::<R>(
                &sub, storage, cfg, &sub_view, remapped, k_max, cores, false, &tr,
            )?;
            rec.add_comm(sub.counters());
            done
        }
        Err(err) => return Err(err),
    };
    cpu = cpu.merge(&merge_cpu_total);
    rec.add_cpu(merge_cpu_total);
    if passes > 0 {
        // `num_runs` is a collective maximum, so every rank records the
        // same phase set (the report shapes stay comparable).
        rec.finish_phase(Phase::FinalMerge, st.counters(), comm.counters());
        tr.mem();
    }
    tr.end(merge_span, pev(Phase::FinalMerge));

    Ok(StripedOutcome {
        output,
        runs: num_runs,
        passes,
        cpu,
        phases: rec.into_stats(),
        pool: st.pool().counters(),
    })
}

/// Run the merge passes over `runs` until one run remains. Collective
/// over `comm`; `view` maps its ranks to global ranks. Returns the
/// final run, the pass count, and the merge CPU counters.
#[allow(clippy::too_many_arguments)]
fn run_merge_passes<R: Record + Ord>(
    comm: &Communicator,
    storage: &ClusterStorage,
    cfg: &SortConfig,
    view: &RankView,
    mut runs: Vec<StripedRun<R::Key>>,
    k_max: usize,
    cores: usize,
    free_consumed: bool,
    tracer: &Tracer,
) -> Result<(StripedRun<R::Key>, usize, CpuCounters)> {
    let mut passes = 0;
    let mut cpu = CpuCounters::default();
    while runs.len() > 1 {
        let pass = passes;
        passes += 1;
        let mut next: Vec<StripedRun<R::Key>> = Vec::new();
        for (group_idx, group) in runs.chunks(k_max).enumerate() {
            let (merged, pass_cpu) = merge_striped_group::<R>(
                comm,
                storage,
                cfg,
                view,
                group,
                pass,
                group_idx,
                cores,
                free_consumed,
                tracer,
            )?;
            cpu = cpu.merge(&pass_cpu);
            next.push(merged);
        }
        runs = next;
    }
    Ok((runs.into_iter().next().unwrap_or_else(StripedRun::empty), passes, cpu))
}

/// Store `f` replicas of every block of `run` this rank owns on its
/// buddy ranks — replica `i` of a block owned by `o` goes to rank
/// `(o + i) mod P` — through the write side of the block service,
/// then allgather the replica directory so every rank can fail over
/// without communication. Charges the stores to `rec` as
/// communication (one message and one block of send volume per stored
/// replica on the sender; the mirror receive volume on the buddy).
fn replicate_run<K>(
    comm: &Communicator,
    storage: &ClusterStorage,
    f: usize,
    run: &mut StripedRun<K>,
    rec: &mut PhaseRecorder,
) -> Result<()> {
    let me = comm.rank();
    let p = comm.size();
    let block_bytes = storage.pe(me).block_bytes();

    // Fetch this rank's blocks of the run once; fan the bytes out to
    // each buddy.
    let mine: Vec<usize> =
        (0..run.blocks.len()).filter(|&g| run.owners[g] as usize == me).collect();
    let ids: Vec<BlockId> = mine.iter().map(|&g| run.blocks[g]).collect();
    let mut data: Vec<Box<[u8]>> = Vec::with_capacity(ids.len());
    for fetch in storage.fetch_blocks(me, &ids)? {
        data.push(fetch.wait()?);
    }

    // Directory entries this rank contributes: (g, replica index i,
    // disk, slot) — the owner is already in the run directory and the
    // replica rank is derived as (owner + i) mod P.
    let mut entries: Vec<(u64, u32, BlockId)> = Vec::with_capacity(mine.len() * f);
    for i in 1..=f {
        let buddy = (me + i) % p;
        let blocks: Vec<(u32, &[u8])> =
            mine.iter().zip(&data).map(|(&g, d)| (run.blocks[g].disk, d.as_ref())).collect();
        let (stores, _target) = storage.store_blocks(me, buddy, &blocks)?;
        for (&g, store) in mine.iter().zip(stores) {
            entries.push((g as u64, i as u32, store.wait()?));
        }
    }
    let stored = (mine.len() * f) as u64;
    let received = (1..=f)
        .map(|i| {
            let giver = (me + p - i) % p;
            run.owners.iter().filter(|&&o| o as usize == giver).count() as u64
        })
        .sum::<u64>();
    rec.add_comm(CommCounters {
        messages: stored,
        bytes_sent: stored * block_bytes as u64,
        bytes_recv: received * block_bytes as u64,
    });

    // Allgather the replica directory.
    let mut msg = Vec::with_capacity(entries.len() * 20);
    for (g, i, id) in &entries {
        msg.extend_from_slice(&g.to_le_bytes());
        msg.extend_from_slice(&i.to_le_bytes());
        msg.extend_from_slice(&id.disk.to_le_bytes());
        msg.extend_from_slice(&id.slot.to_le_bytes());
    }
    let gathered = comm.allgather(msg)?;
    run.replicas = vec![Vec::new(); run.blocks.len()];
    let mut per_block: Vec<Vec<(u32, u32, BlockId)>> = vec![Vec::new(); run.blocks.len()];
    for buf in &gathered {
        let mut at = 0;
        while at < buf.len() {
            let g = u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes")) as usize;
            let i = u32::from_le_bytes(buf[at + 8..at + 12].try_into().expect("4 bytes"));
            let disk = u32::from_le_bytes(buf[at + 12..at + 16].try_into().expect("4 bytes"));
            let slot = u32::from_le_bytes(buf[at + 16..at + 20].try_into().expect("4 bytes"));
            let rank = ((run.owners[g] as usize + i as usize) % p) as u32;
            per_block[g].push((i, rank, BlockId::new(disk, slot)));
            at += 20;
        }
    }
    for (g, mut reps) in per_block.into_iter().enumerate() {
        reps.sort_unstable_by_key(|&(i, _, _)| i);
        run.replicas[g] = reps.into_iter().map(|(_, rank, id)| (rank, id)).collect();
    }
    Ok(())
}

/// Re-route every block owned by a dead rank to its first live
/// replica: the returned runs have `owners[g]`/`blocks[g]` rewritten
/// to the replica's rank and block id. Also returns how many blocks
/// rank `me` re-serves after the remap (the failover volume it
/// records). Fails with [`Error::Comm`] if any dead-owned block has
/// no live replica (every buddy also died).
fn remap_runs<K: Clone>(
    runs: &[StripedRun<K>],
    dead: &[bool],
    me: usize,
) -> Result<(Vec<StripedRun<K>>, u64)> {
    let mut served = 0u64;
    let mut out = Vec::with_capacity(runs.len());
    for (ri, run) in runs.iter().enumerate() {
        let mut run = run.clone();
        for g in 0..run.blocks.len() {
            let owner = run.owners[g] as usize;
            if !dead.get(owner).copied().unwrap_or(false) {
                continue;
            }
            let Some(&(rank, id)) = run.replicas.get(g).and_then(|reps| {
                reps.iter().find(|&&(r, _)| !dead.get(r as usize).copied().unwrap_or(false))
            }) else {
                return Err(Error::comm(format!(
                    "run {ri} block {g}: owner rank {owner} is dead and no live replica exists"
                )));
            };
            run.owners[g] = rank;
            run.blocks[g] = id;
            if rank as usize == me {
                served += 1;
            }
        }
        out.push(run);
    }
    Ok((out, served))
}

/// Write a canonically distributed sorted sequence (each PE holds its
/// `⌊i·n/P⌋..⌊(i+1)·n/P⌋` slice in memory) as a globally striped run.
///
/// `stripe_offset` (in blocks) rotates the round-robin disk
/// assignment: block `g` of this sequence goes to disk
/// `(stripe_offset + g) mod D`. The merge loop passes the running
/// block count of the pieces emitted so far, so a stitched multi-piece
/// run continues the striping where the previous piece left off
/// instead of every piece resetting to disk 0 (which would skew the
/// per-disk block counts).
///
/// `D` is the disk count of the *participating* ranks
/// (`view.globals`): a degraded re-merge stripes over the survivors'
/// disks only, and the directory records their global ranks.
fn write_striped<R: Record>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    view: &RankView,
    local: &[R],
    stripe_offset: u64,
) -> Result<StripedRun<R::Key>> {
    let p = comm.size();
    let me = comm.rank();
    let dpp = cfg.machine.disks_per_pe;
    let d = dpp * view.globals.len();
    let rpb = records_per_block::<R>(st.block_bytes()) as u64;

    let n = comm.allreduce_sum(local.len() as u64)?;
    let my_off = comm.exscan_sum(local.len() as u64)?;
    let total_blocks = n.div_ceil(rpb);

    // Ship each overlapped piece of each global block to the block's
    // owner: block g → disk ((off + g) mod D) → PE ((off + g) mod D)/dpp.
    // Message format per piece: (g: u64, offset_in_block: u32,
    // count: u32, records...).
    let mut msgs: Vec<Vec<u8>> = vec![Vec::new(); p];
    let mut pos = 0usize;
    while pos < local.len() {
        let g = (my_off + pos as u64) / rpb;
        let within = (my_off + pos as u64) % rpb;
        let take = ((rpb - within) as usize).min(local.len() - pos);
        let owner = (((stripe_offset + g) % d as u64) as usize) / dpp;
        let msg = &mut msgs[owner];
        msg.extend_from_slice(&g.to_le_bytes());
        msg.extend_from_slice(&(within as u32).to_le_bytes());
        msg.extend_from_slice(&(take as u32).to_le_bytes());
        let start = msg.len();
        msg.resize(start + take * R::BYTES, 0);
        R::encode_slice(&local[pos..pos + take], &mut msg[start..]);
        pos += take;
    }
    let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;

    // Assemble my blocks (pieces of one block can come from two PEs).
    let mut mine: std::collections::BTreeMap<u64, (Vec<u8>, usize)> =
        std::collections::BTreeMap::new();
    let block_bytes = st.block_bytes();
    let mut assembled_bytes = 0u64;
    for buf in &received {
        let mut at = 0usize;
        while at < buf.len() {
            let g = u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
            let within =
                u32::from_le_bytes(buf[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
            let count =
                u32::from_le_bytes(buf[at + 12..at + 16].try_into().expect("4 bytes")) as usize;
            let bytes = count * R::BYTES;
            // Assemble into a pooled block: `get_vec` hands back an
            // empty vec with one block of capacity, and resizing from
            // zero zero-fills it, so partially covered tails stay
            // deterministically padded.
            let entry = mine.entry(g).or_insert_with(|| {
                let mut v = st.pool().get_vec();
                v.resize(block_bytes, 0);
                (v, 0)
            });
            entry.0[within * R::BYTES..within * R::BYTES + bytes]
                .copy_from_slice(&buf[at + 16..at + 16 + bytes]);
            entry.1 += count;
            assembled_bytes += bytes as u64;
            at += 16 + bytes;
        }
    }
    st.pool().add_copied(assembled_bytes);

    // Write assembled blocks to the designated local disk and collect
    // (g, block id, first key) for the directory.
    let mut triples: Vec<(u64, BlockId, R::Key, u32)> = Vec::with_capacity(mine.len());
    let mut pending = Vec::with_capacity(mine.len());
    for (g, (data, count)) in mine {
        let expect = (n.min((g + 1) * rpb) - g * rpb) as usize;
        debug_assert_eq!(count, expect, "block {g} incomplete");
        let disk = (((stripe_offset + g) % d as u64) as usize) % dpp;
        let id = st.alloc().alloc_on(disk);
        let first = R::decode(&data[..R::BYTES]).key();
        pending.push(st.engine().write(id, data.into_boxed_slice()));
        triples.push((g, id, first, expect as u32));
    }
    for h in pending {
        // The write worker hands the staged buffer back; recycle it.
        st.pool().put(h.wait()?);
    }

    // Allgather the directory (every PE learns the whole striped run).
    let mut msg = Vec::with_capacity(triples.len() * (20 + R::BYTES));
    let mut key_buf = vec![0u8; R::BYTES];
    for (g, id, key, count) in &triples {
        msg.extend_from_slice(&g.to_le_bytes());
        msg.extend_from_slice(&id.disk.to_le_bytes());
        msg.extend_from_slice(&id.slot.to_le_bytes());
        msg.extend_from_slice(&count.to_le_bytes());
        R::with_key(*key).encode(&mut key_buf);
        msg.extend_from_slice(&key_buf);
    }
    let gathered = comm.allgather(msg)?;
    let tb = total_blocks as usize;
    let mut run = StripedRun {
        owners: vec![0; tb],
        blocks: vec![BlockId::new(0, 0); tb],
        first_keys: Vec::with_capacity(tb),
        counts: vec![0; tb],
        replicas: Vec::new(),
        elems: n,
    };
    let mut keys: Vec<Option<R::Key>> = vec![None; tb];
    for (pe, buf) in gathered.iter().enumerate() {
        let mut at = 0;
        while at < buf.len() {
            let g = u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes")) as usize;
            let disk = u32::from_le_bytes(buf[at + 8..at + 12].try_into().expect("4 bytes"));
            let slot = u32::from_le_bytes(buf[at + 12..at + 16].try_into().expect("4 bytes"));
            let count = u32::from_le_bytes(buf[at + 16..at + 20].try_into().expect("4 bytes"));
            run.owners[g] = view.globals[pe] as u32;
            run.blocks[g] = BlockId::new(disk, slot);
            run.counts[g] = count;
            keys[g] = Some(R::decode(&buf[at + 20..at + 20 + R::BYTES]).key());
            at += 20 + R::BYTES;
        }
    }
    run.first_keys =
        keys.into_iter().map(|k| k.expect("every global block written by someone")).collect();
    let _ = me;
    Ok(run)
}

/// Merge one group of striped runs into a new striped run.
///
/// Streaming multiway batch merge: the fetched blocks come from
/// already sorted runs, so each batch is *merged* (per-run sources +
/// per-run carry tails through a loser tree, `O(n log R)` comparisons)
/// instead of re-sorted, and the emitted prefix is redistributed with
/// one exact-splitter exchange. Batch `b+1`'s fetches are issued
/// before batch `b` is merged, so the reads overlap the merge and the
/// exchange (journalled through `tracer` as [`TraceEv::MergeIssued`] /
/// [`TraceEv::MergeEmitted`] events tagged with `pass` and
/// `group_idx`).
///
/// `free_consumed` controls whether fetched input blocks are released
/// after consumption: the replicated sort keeps its initial runs on
/// disk so a recovery can re-merge them.
#[allow(clippy::too_many_arguments)]
fn merge_striped_group<R: Record + Ord>(
    comm: &Communicator,
    storage: &ClusterStorage,
    cfg: &SortConfig,
    view: &RankView,
    group: &[StripedRun<R::Key>],
    pass: usize,
    group_idx: usize,
    cores: usize,
    free_consumed: bool,
    tracer: &Tracer,
) -> Result<(StripedRun<R::Key>, CpuCounters)> {
    let me = view.my_global;
    let st = storage.pe(me);
    let p = comm.size();
    let k = group.len();
    let rpb = records_per_block::<R>(st.block_bytes());

    let mut cpu = CpuCounters::default();

    // Global consumption order: all blocks of the group sorted by
    // (first key, run, block) — the prediction sequence.
    let mut order: Vec<(usize, usize)> = Vec::new(); // (run-in-group, g)
    for (r, run) in group.iter().enumerate() {
        for g in 0..run.blocks.len() {
            order.push((r, g));
        }
    }
    order.sort_by(|&(ra, ga), &(rb, gb)| {
        (&group[ra].first_keys[ga], ra, ga).cmp(&(&group[rb].first_keys[gb], rb, gb))
    });

    // Batch size: Θ(M/B) blocks globally. The batch count is derived
    // from the (identical) group directories, so every PE walks the
    // same batches without a collective loop condition.
    let batch_blocks = (cfg.machine.mem_blocks_per_pe() * p / 2).max(1);
    let total_batches = order.len().div_ceil(batch_blocks);

    // Each PE reads the batch blocks that live on its disks, through
    // the location-transparent block service: all fetches are issued
    // asynchronously — in the duality-optimal prefetch order
    // (Appendix A), which the engine's per-disk FIFO queues realize —
    // and only waited on when the batch is merged, one loop iteration
    // later.
    let issue_batch = |b: usize| -> Result<Vec<(usize, BlockId, usize, BlockFetch)>> {
        let lo = b * batch_blocks;
        let hi = ((b + 1) * batch_blocks).min(order.len());
        let mine: Vec<(usize, BlockId, usize)> = order[lo..hi]
            .iter()
            .filter_map(|&(r, g)| {
                let run = &group[r];
                (run.owners[g] as usize == me).then(|| (r, run.blocks[g], run.counts[g] as usize))
            })
            .collect();
        let ids: Vec<BlockId> = mine.iter().map(|&(_, id, _)| id).collect();
        let schedule = duality_issue_order(&ids, batch_blocks.div_ceil(p).max(st.disks()));
        let fetches = storage.fetch_blocks_scheduled(me, &ids, &schedule)?;
        Ok(mine.into_iter().zip(fetches).map(|((r, id, v), f)| (r, id, v, f)).collect())
    };

    // sources[r]: this PE's buffered sorted slice of run r — the carry
    // tail of previous batches plus the blocks fetched this batch.
    // Within a run, blocks in increasing g hold increasing key ranges
    // (the run is globally sorted), so appending fetched blocks in
    // prediction order keeps each source sorted.
    let mut sources: Vec<Vec<R>> = vec![Vec::new(); k];
    // Two arenas every batch reuses: the merged prefix this PE emits,
    // and its canonical slice of the emitted set after the exchange.
    let mut emit: Vec<R> = Vec::new();
    let mut canon: Vec<R> = Vec::new();
    let mut exchange = Exchange::new();
    let mut out_pieces: Vec<StripedRun<R::Key>> = Vec::new();
    let mut stripe_off = 0u64;
    let ev_issued = |batch: usize| TraceEv::MergeIssued {
        pass,
        group: group_idx,
        batch,
        batches: total_batches,
    };
    let mut pending = if total_batches > 0 {
        tracer.instant(ev_issued(0));
        Some(issue_batch(0)?)
    } else {
        None
    };
    for b in 0..total_batches {
        let current = pending.take().expect("batch issued one iteration ahead");
        // Overlap: hand batch b+1's reads to the block service before
        // merging batch b, so the disks prefetch while the CPUs merge
        // and the network exchanges.
        pending = if b + 1 < total_batches {
            tracer.instant(ev_issued(b + 1));
            Some(issue_batch(b + 1)?)
        } else {
            None
        };

        if cores > 1 {
            // Batch block decode, parallelized like the merge: wait the
            // fetches in issue order (the transport requires it), then
            // decode each run's blocks on its own thread. A run's
            // blocks append in prediction order either way, so every
            // source stays sorted and byte-identical to `cores = 1`.
            let mut per_run: Vec<Vec<(Box<[u8]>, usize)>> = vec![Vec::new(); k];
            for (r, id, valid, fetch) in current {
                per_run[r].push((fetch.wait()?, valid));
                if free_consumed {
                    st.alloc().free(id);
                }
            }
            std::thread::scope(|s| {
                for (src, bufs) in sources.iter_mut().zip(per_run) {
                    if !bufs.is_empty() {
                        s.spawn(move || {
                            for (buf, valid) in bufs {
                                R::decode_slice(&buf[..valid * R::BYTES], src);
                                st.pool().add_copied((valid * R::BYTES) as u64);
                                st.pool().put(buf);
                            }
                        });
                    }
                }
            });
        } else {
            for (r, id, valid, fetch) in current {
                let buf = fetch.wait()?;
                R::decode_slice(&buf[..valid * R::BYTES], &mut sources[r]);
                st.pool().add_copied((valid * R::BYTES) as u64);
                st.pool().put(buf);
                // In-place: the slot is reusable once consumed; the
                // backing bytes are only released on overwrite — unless
                // the run is an initial run of a replicated sort, which
                // a recovery may need to re-read.
                if free_consumed {
                    st.alloc().free(id);
                }
            }
        }

        // Threshold: smallest first key among not-yet-merged blocks.
        // `order` is sorted by first key, so the next batch's first
        // entry *is* the global minimum over every block that has not
        // entered the merge — its blocks may already be in flight, but
        // none of their elements are in the sources yet. All PEs share
        // the same batch index, so the threshold is globally
        // consistent without communication.
        let threshold: Option<R::Key> =
            order.get((b + 1) * batch_blocks).map(|&(r, g)| group[r].first_keys[g]);

        // Merge (don't sort) the per-run prefixes below the threshold;
        // the suffixes stay buffered as the next batch's carry tails.
        // The batch merge runs on up to `cores` threads (exact-split
        // ranges into disjoint slices of the emit buffer), each range
        // journalled as a `merge_par` span; output and cuts are
        // byte-identical to `cores = 1`.
        emit.clear();
        let views: Vec<&[R]> = sources.iter().map(|s| s.as_slice()).collect();
        let span_begin = |thread, threads, len, total| {
            tracer.begin(TraceEv::MergePar {
                pass,
                group: group_idx,
                batch: b,
                thread,
                threads,
                len,
                total,
            })
        };
        let span_end = |id, thread, threads, len, total| {
            tracer.end(
                id,
                TraceEv::MergePar { pass, group: group_idx, batch: b, thread, threads, len, total },
            )
        };
        // 0 = the engine's auto policy (per-thread floor + host cap);
        // an explicit knob value forces that floor on any host.
        let min_per_thread = cfg.algo.par_merge_min_per_thread;
        let pm = match &threshold {
            Some(t) => par_merge_k_below_traced_with_min(
                &views,
                |x| x.key() < *t,
                cores,
                min_per_thread,
                &mut emit,
                span_begin,
                span_end,
            ),
            None => par_merge_k_traced_with_min(
                &views,
                cores,
                min_per_thread,
                &mut emit,
                span_begin,
                span_end,
            ),
        };
        drop(views);
        for (s, cut) in sources.iter_mut().zip(pm.cuts) {
            // verify: allow(L2, Vec::drain removing the merged prefix — not the fallible IoEngine::drain)
            s.drain(..cut);
        }
        if let Some(t) = &threshold {
            // Carry bound (Section III): once block B_{i+1} of a run
            // has been fetched, every element of B_i is ≤ B_{i+1}'s
            // first key ≤ threshold — so only a run's last fetched
            // block can hold elements *above* the threshold, and the
            // carry beyond it is at most one block per run. Elements
            // *equal* to the threshold legitimately accumulate (the
            // cut is strict, so ties wait until the threshold moves
            // past them — constant-key input carries them all).
            for (r, s) in sources.iter().enumerate() {
                let above = s.len() - s.partition_point(|x| x.key() <= *t);
                assert!(
                    above <= rpb,
                    "run {r} of group {group_idx} (pass {pass}): {above} carried records \
                     above the batch threshold exceed one block ({rpb})"
                );
            }
        }
        cpu = cpu.merge(&merge_cpu(emit.len() as u64, k));
        cpu.split_probes += pm.split_probes;

        // The emitted set is locally sorted; one exact-splitter
        // exchange (selection + all-to-all + P-way merge — no local
        // sort) makes it canonically distributed for the striped
        // write.
        canon.clear();
        cpu = cpu.merge(&exchange.run(comm, &emit, cores, &mut canon)?);

        let piece = write_striped::<R>(comm, st, cfg, view, &canon, stripe_off)?;
        stripe_off += piece.blocks.len() as u64;
        tracer.instant(TraceEv::MergeEmitted {
            pass,
            group: group_idx,
            batch: b,
            batches: total_batches,
        });
        tracer.progress(Phase::FinalMerge, (b + 1) as u64, total_batches as u64);
        out_pieces.push(piece);
    }
    debug_assert!(
        sources.iter().all(Vec::is_empty),
        "the final batch has no threshold and must drain every carry tail"
    );

    // Stitch the emitted pieces into one striped run. Pieces were
    // emitted in globally increasing key order, so their concatenation
    // is the merged run, and each piece continued the round-robin
    // striping at `stripe_off`, so block t of the stitched run is on
    // disk t mod D exactly as if it had been written in one piece.
    let mut merged = StripedRun::<R::Key>::empty();
    for piece in out_pieces {
        merged.owners.extend(piece.owners);
        merged.blocks.extend(piece.blocks);
        merged.first_keys.extend(piece.first_keys);
        merged.counts.extend(piece.counts);
        merged.elems += piece.elems;
    }
    Ok((merged, cpu))
}

/// How many blocks the striped streaming readers keep
/// issued-but-unconsumed: deep enough to pipeline fetches across every
/// owner's disks, shallow enough that in-flight response buffers stay
/// O(window), not O(run).
const READ_STRIPED_WINDOW: usize = 64;

/// Stream a striped run's blocks in global order into `sink`, **from
/// any single rank**: every block goes through the [`ClusterStorage`]
/// block service, so blocks owned by peers are fetched over the
/// transport. Reads are issued ahead of consumption as pipelined
/// per-owner batches, bounded by a fixed in-flight window — memory
/// stays O(window · B) regardless of the run size. Each callback
/// receives one block's valid bytes (`counts[g] · record_bytes` of raw
/// encoded records). The engine under [`read_striped`]; the binaries
/// write files rank by rank instead
/// ([`crate::fileio::write_striped_blocks_to_file`]).
pub fn read_striped_blocks<K>(
    storage: &ClusterStorage,
    run: &StripedRun<K>,
    record_bytes: usize,
    mut sink: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let n = run.blocks.len();
    let mut pending: Vec<Option<BlockFetch>> = run.blocks.iter().map(|_| None).collect();
    let mut issued = 0usize;
    // Issue the next slice of global blocks as one batch per owner —
    // remote owners see a handful of pipelined request frames behind
    // one flush each, and all owners' fetches are in flight at once.
    let issue_chunk = |from: usize, pending: &mut Vec<Option<BlockFetch>>| -> Result<usize> {
        let to = (from + READ_STRIPED_WINDOW / 2).max(from + 1).min(n);
        let mut by_owner: std::collections::BTreeMap<u32, Vec<usize>> =
            std::collections::BTreeMap::new();
        for g in from..to {
            by_owner.entry(run.owners[g]).or_default().push(g);
        }
        for (owner, gs) in &by_owner {
            let ids: Vec<BlockId> = gs.iter().map(|&g| run.blocks[g]).collect();
            let fetches = storage.fetch_blocks(*owner as usize, &ids)?;
            for (&g, f) in gs.iter().zip(fetches) {
                pending[g] = Some(f);
            }
        }
        Ok(to)
    };
    for g in 0..n {
        while issued < n && issued - g < READ_STRIPED_WINDOW {
            issued = issue_chunk(issued, &mut pending)?;
        }
        let data = pending[g].take().expect("every block issued before consumption").wait()?;
        sink(&data[..run.counts[g] as usize * record_bytes])?;
    }
    Ok(())
}

/// Read a striped run back as one vector — [`read_striped_blocks`]
/// decoded into records (test/validation convenience; callers that
/// stream to a file should use the block form directly to keep memory
/// bounded).
pub fn read_striped<R: Record>(
    storage: &ClusterStorage,
    run: &StripedRun<R::Key>,
) -> Result<Vec<R>> {
    let mut out = Vec::with_capacity(run.elems as usize);
    read_striped_blocks(storage, run, R::BYTES, |bytes| {
        R::decode_slice(bytes, &mut out);
        Ok(())
    })?;
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_net::run_cluster;
    use demsort_types::{AlgoConfig, Element16, MachineConfig};
    use demsort_workloads::{checksum_elements, generate_all, generate_pe_input, InputSpec};

    fn sort_striped(
        p: usize,
        local_n: usize,
        spec: InputSpec,
        k_max: Option<usize>,
    ) -> (Vec<Element16>, Vec<StripedOutcome<Element16>>, std::sync::Arc<ClusterStorage>) {
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let outcome = striped_sort_cluster::<Element16, _>(
            &cfg,
            |pe, p| generate_pe_input(spec, 21, pe, p, local_n),
            k_max,
        )
        .expect("sort");
        let got =
            read_striped::<Element16>(&outcome.storage, &outcome.per_pe[0].output).expect("read");
        (got, outcome.per_pe, outcome.storage)
    }

    /// [`sort_striped`] with a per-rank buffer tracer on the
    /// communicator: returns each rank's outcome alongside its drained
    /// journal, so tests pin the merge interleaving from the trace.
    fn sort_striped_traced(
        p: usize,
        local_n: usize,
        spec: InputSpec,
        k_max: Option<usize>,
    ) -> Vec<(StripedOutcome<Element16>, Vec<demsort_types::TraceRecord>)> {
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage_ref = &storage;
        let results: Vec<Result<(StripedOutcome<Element16>, Vec<demsort_types::TraceRecord>)>> =
            run_cluster(p, move |mut comm| {
                let tracer = Tracer::to_buffer(comm.rank());
                comm.set_tracer(tracer.clone());
                let st = storage_ref.pe(comm.rank());
                let input =
                    ingest_input(st, &generate_pe_input(spec, 21, comm.rank(), p, local_n))?;
                let o = striped_mergesort::<Element16>(
                    &comm,
                    storage_ref,
                    &cfg,
                    input,
                    cfg.machine.cores_per_pe,
                    k_max,
                )?;
                Ok((o, tracer.drain()))
            });
        results.into_iter().map(|r| r.expect("traced sort")).collect()
    }

    fn check(p: usize, local_n: usize, spec: InputSpec, k_max: Option<usize>) {
        let (got, outcomes, _storage) = sort_striped(p, local_n, spec, k_max);
        let mut reference = generate_all(spec, 21, p, local_n);
        let checksum_in = checksum_elements(&reference);
        reference.sort_unstable();
        let keys: Vec<u64> = got.iter().map(|e| e.key).collect();
        let ref_keys: Vec<u64> = reference.iter().map(|e| e.key).collect();
        assert_eq!(keys, ref_keys, "striped output keys ({spec:?}, P={p})");
        assert_eq!(checksum_elements(&got), checksum_in, "permutation");
        // Output directory identical on all PEs.
        for o in &outcomes {
            assert_eq!(o.output.elems, outcomes[0].output.elems);
            assert_eq!(o.output.blocks.len(), outcomes[0].output.blocks.len());
        }
    }

    #[test]
    fn sorts_single_run_case() {
        check(2, 200, InputSpec::Uniform, None);
    }

    #[test]
    fn sorts_multi_run_single_pass() {
        check(3, 700, InputSpec::Uniform, None);
    }

    #[test]
    fn sorts_adversarial_inputs() {
        check(2, 600, InputSpec::ReverseSorted, None);
        check(2, 600, InputSpec::Constant, None);
        check(2, 600, InputSpec::Banded { block_elems: 16 }, None);
    }

    #[test]
    fn multi_pass_merging_with_tiny_fanin() {
        let (_, outcomes, _) = sort_striped(2, 1200, InputSpec::Uniform, Some(2));
        assert!(outcomes[0].passes >= 2, "fan-in 2 over ≥3 runs needs ≥2 passes");
        check(2, 1200, InputSpec::Uniform, Some(2));
    }

    #[test]
    fn blocks_stripe_over_all_pes() {
        let (_, outcomes, _) = sort_striped(3, 900, InputSpec::Uniform, None);
        let owners = &outcomes[0].output.owners;
        for pe in 0..3u32 {
            assert!(owners.contains(&pe), "every PE owns output blocks");
        }
    }

    #[test]
    fn phases_cover_run_formation_and_merging() {
        // External case: both phases recorded, counters attributed.
        let (_, outcomes, _) = sort_striped(2, 700, InputSpec::Uniform, None);
        for o in &outcomes {
            assert!(o.passes >= 1, "external case must merge");
            let phases: Vec<Phase> = o.phases.iter().map(|(p, _)| *p).collect();
            assert_eq!(phases, vec![Phase::RunFormation, Phase::FinalMerge]);
            assert!(o.phases[0].1.io.bytes_written > 0, "runs written in phase 1");
            assert!(o.phases[1].1.io.bytes_read > 0, "merge reads in phase 2");
        }
        // Single-run case: only run formation.
        let (_, outcomes, _) = sort_striped(2, 200, InputSpec::Uniform, None);
        for o in &outcomes {
            assert_eq!(o.passes, 0);
            let phases: Vec<Phase> = o.phases.iter().map(|(p, _)| *p).collect();
            assert_eq!(phases, vec![Phase::RunFormation]);
        }
    }

    #[test]
    fn merge_phase_merges_instead_of_sorting() {
        // Single merge pass: the merge phase must charge *merge* work
        // only — n·⌈log2 R⌉ for the batch loser trees plus n·⌈log2 P⌉
        // for the exchange merges — and no sort comparisons at all
        // (the seed re-sorted every batch: ~n·log n per batch).
        let p = 2;
        let local_n = 700;
        let (_, outcomes, _) = sort_striped(p, local_n, InputSpec::Uniform, None);
        assert_eq!(outcomes[0].passes, 1, "config must give a single merge pass");
        let runs = outcomes[0].runs;
        let n = (p * local_n) as u64;
        let mut sort_work = 0u64;
        let mut merge_work_total = 0u64;
        let mut merged = 0u64;
        for o in &outcomes {
            let (_, stats) = o
                .phases
                .iter()
                .find(|(ph, _)| *ph == Phase::FinalMerge)
                .expect("merge phase recorded");
            sort_work += stats.cpu.sort_work;
            merge_work_total += stats.cpu.merge_work;
            merged += stats.cpu.elements_merged;
        }
        assert_eq!(sort_work, 0, "batches are merged, never re-sorted");
        assert_eq!(merged, 2 * n, "each element merges once locally, once in the exchange");
        assert_eq!(
            merge_work_total,
            crate::merge::merge_work(n, runs) + crate::merge::merge_work(n, p),
            "merge comparisons are n·(⌈log2 R⌉ + ⌈log2 P⌉), R = {runs}"
        );
    }

    #[test]
    fn next_batch_fetches_issued_before_current_batch_emits() {
        // Multi-batch single-pass merge: the trace must show batch
        // b+1's fetches handed to the block service before batch b's
        // piece is written — the fetch/merge overlap of Section IV-E.
        for (o, recs) in &sort_striped_traced(2, 1200, InputSpec::Uniform, None) {
            assert_eq!(o.passes, 1);
            let evs: Vec<TraceEv> = recs.iter().map(|r| r.ev.clone()).collect();
            let batches = evs.iter().filter(|e| matches!(e, TraceEv::MergeEmitted { .. })).count();
            assert!(batches >= 2, "config must force multiple merge batches, got {batches}");
            let pos = |want: TraceEv| evs.iter().position(|e| *e == want).expect("event");
            for b in 0..batches - 1 {
                assert!(
                    pos(TraceEv::MergeIssued { pass: 0, group: 0, batch: b + 1, batches })
                        < pos(TraceEv::MergeEmitted { pass: 0, group: 0, batch: b, batches }),
                    "batch {}'s fetches must be in flight before batch {b} emits: {evs:?}",
                    b + 1
                );
            }
        }
    }

    #[test]
    fn multi_piece_output_stripes_evenly_over_disks() {
        // The merged output is stitched from several emitted pieces;
        // each piece continues the round-robin striping where the
        // previous left off, so per-disk block counts differ by ≤ 1.
        let p = 2;
        let traced = sort_striped_traced(p, 1200, InputSpec::Uniform, None);
        let (o, recs) = &traced[0];
        let pieces = recs.iter().filter(|r| matches!(r.ev, TraceEv::MergeEmitted { .. })).count();
        assert!(pieces >= 2, "test must cover a multi-piece run, got {pieces} piece(s)");
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let dpp = cfg.machine.disks_per_pe;
        let mut per_disk = vec![0u64; cfg.machine.total_disks()];
        for (g, id) in o.output.blocks.iter().enumerate() {
            per_disk[o.output.owners[g] as usize * dpp + id.disk as usize] += 1;
        }
        let (min, max) =
            (per_disk.iter().min().expect("disks"), per_disk.iter().max().expect("disks"));
        assert!(max - min <= 1, "stitched run must stripe evenly over all disks, got {per_disk:?}");
    }

    #[test]
    fn merge_events_carry_pass_and_group_context() {
        // Fan-in 2 over ≥3 runs: several merge groups and passes emit
        // batches whose local indices restart at 0. The pass/group
        // tags must keep the trace unambiguous — batch 0 of every
        // (pass, group) appears exactly once.
        let traced = sort_striped_traced(2, 1200, InputSpec::Uniform, Some(2));
        let (o, recs) = &traced[0];
        assert!(o.passes >= 2, "fan-in 2 over ≥3 runs needs ≥2 passes");
        let passes_seen: std::collections::BTreeSet<usize> = recs
            .iter()
            .filter_map(|r| match &r.ev {
                TraceEv::MergeIssued { pass, .. } | TraceEv::MergeEmitted { pass, .. } => {
                    Some(*pass)
                }
                _ => None,
            })
            .collect();
        assert_eq!(passes_seen.len(), o.passes, "every pass appears in the trace");
        let mut zero_batches: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        for r in recs {
            if let TraceEv::MergeIssued { pass, group, batch: 0, .. } = &r.ev {
                *zero_batches.entry((*pass, *group)).or_insert(0) += 1;
            }
        }
        assert!(zero_batches.len() >= 2, "trace must span several merge groups or passes");
        assert!(
            zero_batches.values().all(|&c| c == 1),
            "batch 0 of each (pass, group) must be unique, got {zero_batches:?}"
        );
    }

    #[test]
    fn parallel_batch_merge_is_byte_identical_and_journals_thread_ranges() {
        // The same input sorted with cores = 1 and cores = 4: records,
        // merge comparisons, and split-selection determinism must all
        // match, and the cores = 4 journal must carry valid `merge_par`
        // thread-range spans (complete per-batch sets summing to the
        // batch size — validate_rank_journal enforces both).
        let p = 2;
        let local_n = 1200;
        let run = |cores: usize| {
            // Tiny inputs sit below the engagement threshold; force the
            // fan-out so the byte-identity and journal pins stay
            // meaningful at test scale.
            let algo = AlgoConfig { par_merge_min_per_thread: 1, ..AlgoConfig::default() };
            let cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
            let storage = ClusterStorage::new_mem(&cfg.machine);
            let storage_ref = &storage;
            let cfg_ref = &cfg;
            let results: Vec<Result<(StripedOutcome<Element16>, Vec<demsort_types::TraceRecord>)>> =
                run_cluster(p, move |mut comm| {
                    let tracer = Tracer::to_buffer(comm.rank());
                    comm.set_tracer(tracer.clone());
                    let st = storage_ref.pe(comm.rank());
                    let input = ingest_input(
                        st,
                        &generate_pe_input(InputSpec::Uniform, 21, comm.rank(), p, local_n),
                    )?;
                    let o = striped_mergesort::<Element16>(
                        &comm,
                        storage_ref,
                        cfg_ref,
                        input,
                        cores,
                        None,
                    )?;
                    Ok((o, tracer.drain()))
                });
            let per_pe: Vec<_> = results.into_iter().map(|r| r.expect("sort")).collect();
            let got = read_striped::<Element16>(&storage, &per_pe[0].0.output).expect("read");
            (got, per_pe)
        };
        let (seq, seq_pe) = run(1);
        let (par, par_pe) = run(4);
        assert_eq!(par, seq, "cores = 4 output must be byte-identical to cores = 1");
        let merge_phase = |o: &StripedOutcome<Element16>| {
            o.phases
                .iter()
                .find(|(ph, _)| *ph == Phase::FinalMerge)
                .map(|(_, s)| s.cpu)
                .expect("merge phase recorded")
        };
        for ((so, _), (po, precs)) in seq_pe.iter().zip(&par_pe) {
            let (sm, pm) = (merge_phase(so), merge_phase(po));
            assert_eq!(
                pm.merge_work, sm.merge_work,
                "per-thread merge comparisons must sum to the single-thread bound"
            );
            assert_eq!(pm.sort_work, 0, "parallel batches are merged, never re-sorted");
            assert_eq!(pm.elements_merged, sm.elements_merged);
            assert!(pm.split_probes > 0, "parallel merge must account split probes");
            assert_eq!(sm.split_probes, 0, "cores = 1 never splits");
            demsort_types::trace::validate_rank_journal(precs).expect("valid journal");
            let spans: Vec<(usize, usize)> = precs
                .iter()
                .filter_map(|r| match (&r.op, &r.ev) {
                    (
                        demsort_types::trace::TraceOp::Begin(_),
                        TraceEv::MergePar { thread, threads, .. },
                    ) => Some((*thread, *threads)),
                    _ => None,
                })
                .collect();
            assert!(!spans.is_empty(), "cores = 4 merge must journal merge_par spans");
            assert!(
                spans.iter().any(|&(_, threads)| threads > 1),
                "at least one batch must actually fan out, got {spans:?}"
            );
        }
        // Split selection is deterministic: both ranks of the parallel
        // run charge probes, and identical runs charge identically.
        let (_, par_pe2) = run(4);
        for ((a, _), (b, _)) in par_pe.iter().zip(&par_pe2) {
            assert_eq!(
                merge_phase(a).split_probes,
                merge_phase(b).split_probes,
                "split probes deterministic"
            );
        }
    }

    #[test]
    fn remap_reroutes_dead_owner_blocks_to_first_live_replica() {
        let run = StripedRun::<u64> {
            owners: vec![0, 1, 2],
            blocks: vec![BlockId::new(0, 0), BlockId::new(0, 1), BlockId::new(0, 2)],
            first_keys: vec![0, 10, 20],
            counts: vec![5, 5, 5],
            replicas: vec![
                vec![(1, BlockId::new(1, 0))],
                vec![(2, BlockId::new(1, 1))],
                vec![(3, BlockId::new(1, 2))],
            ],
            elems: 15,
        };
        let dead = vec![false, true, false, false];
        let (remapped, served) = remap_runs(std::slice::from_ref(&run), &dead, 2).expect("remap");
        assert_eq!(remapped[0].owners, vec![0, 2, 2], "dead owner replaced by its replica");
        assert_eq!(remapped[0].blocks[1], BlockId::new(1, 1), "replica's block id substituted");
        assert_eq!(remapped[0].blocks[0], BlockId::new(0, 0), "live owners untouched");
        assert_eq!(served, 1, "rank 2 re-serves exactly the dead rank's block");
        // Owner and its only replica both dead → unrecoverable.
        let dead = vec![false, true, true, false];
        assert!(remap_runs(&[run], &dead, 0).is_err(), "no live replica must fail");
    }

    #[test]
    fn replication_off_and_on_produce_identical_output() {
        let p = 3;
        let gen = |pe: usize, p: usize| generate_pe_input(InputSpec::Uniform, 21, pe, p, 700);
        let plain_cfg =
            SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let plain = striped_sort_cluster::<Element16, _>(&plain_cfg, gen, None).expect("sort");
        let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
        let repl_cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
        let repl = striped_sort_cluster::<Element16, _>(&repl_cfg, gen, None).expect("sort");
        let a = read_striped::<Element16>(&plain.storage, &plain.per_pe[0].output).expect("read");
        let b = read_striped::<Element16>(&repl.storage, &repl.per_pe[0].output).expect("read");
        assert_eq!(a, b, "replication must not perturb the sorted output");
        // The replica stores are charged as run-formation communication.
        let sent = |o: &StripedClusterOutcome<Element16>| {
            o.per_pe.iter().map(|o| o.phases[0].1.comm.bytes_sent).sum::<u64>()
        };
        assert!(
            sent(&repl) > sent(&plain),
            "replica stores must show up in the run-formation comm counters"
        );
    }

    #[test]
    fn replicated_sort_survives_a_rank_death_at_merge_start() {
        use demsort_net::{build_mesh, run_cluster_over, LocalTransport};
        use std::sync::Mutex;
        let p = 4;
        let victim = 2usize;
        let gen = |pe: usize, p: usize| generate_pe_input(InputSpec::Uniform, 21, pe, p, 700);

        // Reference: the same input sorted undisturbed.
        let plain_cfg =
            SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let plain = striped_sort_cluster::<Element16, _>(&plain_cfg, gen, None).expect("sort");
        let want =
            read_striped::<Element16>(&plain.storage, &plain.per_pe[0].output).expect("read");

        let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
        let cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        // Pre-built survivor endpoints: the in-process stand-in for
        // the epoch cut + subgroup regroup the TCP harness performs
        // (rank `victim` dies, so {0, 1, 3} renumber as {0, 1, 2}).
        let spare: Mutex<Vec<Option<Communicator>>> =
            Mutex::new(build_mesh(p - 1).into_iter().map(Some).collect());

        // The main mesh carries a receive timeout: a survivor that
        // abandons a collective mid-round keeps its channels alive, so
        // without a timeout its ring neighbour would block forever
        // (the TCP transport's read timeout plays this role on the
        // real cluster).
        let comms: Vec<Communicator> =
            LocalTransport::mesh_with_timeout(p, std::time::Duration::from_secs(2))
                .into_iter()
                .map(|t| Communicator::new(Box::new(t)))
                .collect();
        let (storage_ref, cfg_ref, spare_ref) = (&storage, &cfg, &spare);
        let results: Vec<Result<StripedOutcome<Element16>>> =
            run_cluster_over(comms, move |comm| {
                let me = comm.rank();
                let input = ingest_input(storage_ref.pe(me), &gen(me, p))?;
                let hooks = ResilientHooks {
                    dead_set: Box::new(move || {
                        let mut dead = vec![false; p];
                        dead[victim] = true;
                        dead
                    }),
                    subgroup: Box::new(move |members: &[usize]| {
                        assert_eq!(members, [0, 1, 3], "survivor membership");
                        let idx = members.iter().position(|&r| r == me).expect("survivor");
                        Ok(spare_ref.lock().expect("spare mesh")[idx]
                            .take()
                            .expect("subgroup built once per survivor"))
                    }),
                    on_merge_start: Some(Box::new(move |rank| rank != victim)),
                };
                striped_mergesort_resilient::<Element16>(
                    &comm,
                    storage_ref,
                    cfg_ref,
                    input,
                    cfg_ref.machine.cores_per_pe,
                    None,
                    Some(hooks),
                )
            });

        // The victim abandoned; every survivor finished degraded.
        assert!(results[victim].is_err(), "victim must abandon at merge start");
        let mut survivors = Vec::new();
        for (r, res) in results.into_iter().enumerate() {
            if r == victim {
                continue;
            }
            let o = res.unwrap_or_else(|e| panic!("survivor {r} must finish degraded: {e}"));
            assert!(
                o.output.owners.iter().all(|&own| own as usize != victim),
                "no output block may live on the dead rank"
            );
            survivors.push(o);
        }
        for o in &survivors {
            assert_eq!(o.output.blocks.len(), survivors[0].output.blocks.len());
            assert_eq!(o.output.elems, survivors[0].output.elems);
        }
        // Degraded output: byte-identical record stream to the
        // undisturbed sort.
        let got = read_striped::<Element16>(&storage, &survivors[0].output).expect("read");
        assert_eq!(got, want, "degraded completion must reproduce the undisturbed output");
    }

    #[test]
    fn cluster_driver_report_aggregates_striped_phases() {
        let cfg = SortConfig::new(MachineConfig::tiny(2), AlgoConfig::default()).expect("valid");
        let outcome = striped_sort_cluster::<Element16, _>(
            &cfg,
            |pe, p| generate_pe_input(InputSpec::Uniform, 21, pe, p, 700),
            None,
        )
        .expect("sort");
        assert_eq!(outcome.report.elements, 2 * 700);
        assert_eq!(outcome.report.pes, 2);
        assert!(outcome.report.runs > 1, "external case");
        // Striped I/O: 2 passes = ~4N plus the re-striping writes.
        let io_over_n = outcome.report.io_volume_over_n();
        assert!(io_over_n > 3.0, "two-pass external I/O, got {io_over_n}");
        // Striping costs communication on every pass ("4-5
        // communications for two passes").
        assert!(outcome.report.comm_volume_over_n() > 1.0);
    }
}
