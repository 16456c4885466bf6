//! The striped merge: passes of bounded fan-in, each group merged batch
//! by batch.
//!
//! Up to `k_max` runs are merged per pass. The global *prediction
//! sequence* — the smallest key of every block, recorded at write time
//! — gives the exact order in which blocks are needed \[11\]\[14\]. A
//! batch of the next `Θ(M/B)` blocks is fetched (each PE reads the
//! blocks on its own disks) and **merged, not re-sorted**: the fetched
//! blocks come from already sorted runs, so each PE feeds its per-run
//! sorted sequences (plus the per-run carry tails of the previous
//! batch) into the shared carry-merge kernel
//! ([`CarryMerge`]), and the merged prefix that is provably complete —
//! smaller than every not-yet-merged block's first key — is
//! redistributed canonically with one splitter-based exchange
//! ([`Exchange::run`]: exact splitters, one all-to-all, a `P`-way merge
//! into an arena every batch reuses) and written out striped. The rest
//! stays buffered per run for the next batch (at most `B` elements per
//! run remain unmerged, so carry-over is bounded). Merging costs
//! `O(n log R)` comparisons per pass instead of the `O(n log n)` per
//! batch that full batch sorting would pay — the internal-work bound
//! that dominates throughput at scale.
//!
//! All block reads go through the location-transparent
//! [`ClusterStorage`] block service: a batch's fetches are issued
//! asynchronously in the duality-optimal prefetch order
//! ([`duality_issue_order`], Appendix A), and the fetches for batch
//! `k+1` are issued **before** batch `k` is merged (double-buffered
//! prefetch — the [`Tracer`] journals the interleaving as
//! [`TraceEv::MergeIssued`] / [`TraceEv::MergeEmitted`] events), so the
//! reads overlap the merge and the exchange.

use super::runs::{write_striped, RankView, StripedRun};
use crate::ctx::{BlockFetch, ClusterStorage};
use crate::merge::{merge_cpu, CarryMerge};
use crate::psort::Exchange;
use crate::recio::records_per_block;
use demsort_net::Communicator;
use demsort_storage::{duality_issue_order, BlockId};
use demsort_types::{CpuCounters, Phase, Record, Result, SortConfig, TraceEv, Tracer};

/// One merge attempt: what every pass and group of it shares.
pub(super) struct MergeJob<'a> {
    /// The ranks merging, and how they map to global ranks.
    pub comm: &'a Communicator,
    pub view: &'a RankView,
    pub storage: &'a ClusterStorage,
    pub cfg: &'a SortConfig,
    pub cores: usize,
    /// Runs merged per group.
    pub k_max: usize,
    /// Whether fetched input blocks are released after consumption:
    /// the replicated sort keeps its initial runs on disk so a recovery
    /// can re-merge them.
    pub free_consumed: bool,
    pub tracer: &'a Tracer,
}

impl MergeJob<'_> {
    /// Run the merge passes over `runs` until one run remains.
    /// Collective over `comm`. Returns the final run, the pass count,
    /// and the merge CPU counters.
    pub fn run<R: Record + Ord>(
        &self,
        mut runs: Vec<StripedRun<R::Key>>,
    ) -> Result<(StripedRun<R::Key>, usize, CpuCounters)> {
        let mut passes = 0;
        let mut cpu = CpuCounters::default();
        while runs.len() > 1 {
            let mut next: Vec<StripedRun<R::Key>> = Vec::new();
            for (group_idx, group) in runs.chunks(self.k_max).enumerate() {
                let (merged, pass_cpu) = self.merge_group::<R>(group, passes, group_idx)?;
                cpu = cpu.merge(&pass_cpu);
                next.push(merged);
            }
            passes += 1;
            runs = next;
        }
        Ok((runs.into_iter().next().unwrap_or_else(StripedRun::empty), passes, cpu))
    }

    /// Merge one group of striped runs into a new striped run, batch by
    /// batch; the journalled events are tagged with `pass` and
    /// `group_idx`.
    fn merge_group<R: Record + Ord>(
        &self,
        group: &[StripedRun<R::Key>],
        pass: usize,
        group_idx: usize,
    ) -> Result<(StripedRun<R::Key>, CpuCounters)> {
        let Self { comm, storage, cfg, view, cores, tracer, .. } = *self;
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
                    (run.owners[g] as usize == me)
                        .then(|| (r, run.blocks[g], run.counts[g] as usize))
                })
                .collect();
            let ids: Vec<BlockId> = mine.iter().map(|&(_, id, _)| id).collect();
            let schedule = duality_issue_order(&ids, batch_blocks.div_ceil(p).max(st.disks()));
            let fetches = storage.fetch_blocks_scheduled(me, &ids, &schedule)?;
            Ok(mine.into_iter().zip(fetches).map(|((r, id, v), f)| (r, id, v, f)).collect())
        };

        // The carry kernel's source r: this PE's buffered sorted slice of
        // run r — the carry tail of previous batches plus the blocks
        // fetched this batch. Within a run, blocks in increasing g hold
        // increasing key ranges (the run is globally sorted), so
        // appending fetched blocks in prediction order keeps each source
        // sorted.
        let mut carry = CarryMerge::<R>::new(k);
        // Two arenas every batch reuses: the merged prefix this PE emits,
        // and its canonical slice of the emitted set after the exchange.
        let mut emit: Vec<R> = Vec::new();
        let mut canon: Vec<R> = Vec::new();
        let mut exchange = Exchange::new();
        let mut merged = StripedRun::<R::Key>::empty();
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

            // Wait the fetches in issue order (the transport requires it)
            // and decode each block onto its run's source. A consumed slot
            // is reusable at once — the backing bytes are only released on
            // overwrite — unless the run is an initial run of a replicated
            // sort, which a recovery may need to re-read.
            let decode = |src: &mut Vec<R>, buf: Box<[u8]>, valid: usize| {
                R::decode_slice(&buf[..valid * R::BYTES], src);
                st.pool().add_copied((valid * R::BYTES) as u64);
                st.pool().put(buf);
            };
            let mut per_run: Vec<Vec<(Box<[u8]>, usize)>> = vec![Vec::new(); k];
            for (r, id, valid, fetch) in current {
                let buf = fetch.wait()?;
                if self.free_consumed {
                    st.alloc().free(id);
                }
                if cores > 1 {
                    per_run[r].push((buf, valid));
                } else {
                    decode(&mut carry.sources[r], buf, valid);
                }
            }
            // With `cores > 1` the decode is parallelized like the merge:
            // each run's blocks on its own thread. A run's blocks append
            // in prediction order either way, so every source stays
            // sorted and byte-identical to `cores = 1`.
            std::thread::scope(|s| {
                for (src, bufs) in carry.sources.iter_mut().zip(per_run) {
                    if !bufs.is_empty() {
                        s.spawn(move || {
                            bufs.into_iter().for_each(|(buf, valid)| decode(src, buf, valid))
                        });
                    }
                }
            });

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
            let par = |thread, threads, len, total| TraceEv::MergePar {
                pass,
                group: group_idx,
                batch: b,
                thread,
                threads,
                len,
                total,
            };
            cpu.split_probes += carry.emit_below(
                threshold.map(|t| move |x: &R| x.key() < t),
                cores,
                // 0 = the engine's auto policy (per-thread floor + host
                // cap); an explicit knob value forces that floor on any
                // host.
                cfg.algo.par_merge_min_per_thread,
                &mut emit,
                |thread, threads, len, total| tracer.begin(par(thread, threads, len, total)),
                |id, thread, threads, len, total| tracer.end(id, par(thread, threads, len, total)),
            );
            if let Some(t) = &threshold {
                // Carry bound (Section III): once block B_{i+1} of a run
                // has been fetched, every element of B_i is ≤ B_{i+1}'s
                // first key ≤ threshold — so only a run's last fetched
                // block can hold elements *above* the threshold, and the
                // carry beyond it is at most one block per run. Elements
                // *equal* to the threshold legitimately accumulate (the
                // cut is strict, so ties wait until the threshold moves
                // past them — constant-key input carries them all).
                for (r, s) in carry.sources.iter().enumerate() {
                    let above = s.len() - s.partition_point(|x| x.key() <= *t);
                    assert!(
                        above <= rpb,
                        "run {r} of group {group_idx} (pass {pass}): {above} carried records \
                         above the batch threshold exceed one block ({rpb})"
                    );
                }
            }
            cpu = cpu.merge(&merge_cpu(emit.len() as u64, k));

            // The emitted set is locally sorted; one exact-splitter
            // exchange (selection + all-to-all + P-way merge — no local
            // sort) makes it canonically distributed for the striped
            // write.
            canon.clear();
            cpu = cpu.merge(&exchange.run(comm, &emit, cores, &mut canon)?);

            // Stitch the piece onto the run. Pieces are emitted in
            // globally increasing key order, so their concatenation is
            // the merged run, and each piece continues the round-robin
            // striping at the block count so far, so block t of the
            // stitched run is on disk t mod D exactly as if it had been
            // written in one piece.
            let piece =
                write_striped::<R>(comm, st, cfg, view, &canon, merged.blocks.len() as u64)?;
            merged.owners.extend(piece.owners);
            merged.blocks.extend(piece.blocks);
            merged.first_keys.extend(piece.first_keys);
            merged.counts.extend(piece.counts);
            merged.elems += piece.elems;
            tracer.instant(TraceEv::MergeEmitted {
                pass,
                group: group_idx,
                batch: b,
                batches: total_batches,
            });
            tracer.progress(Phase::FinalMerge, (b + 1) as u64, total_batches as u64);
        }
        debug_assert!(
            carry.sources.iter().all(Vec::is_empty),
            "the final batch has no threshold and must drain every carry tail"
        );
        Ok((merged, cpu))
    }
}
