//! The batch merge loop both sorts merge with.
//!
//! A merge reads its blocks in the order it needs them — the
//! *prediction sequence*, every block's smallest key (Section III,
//! \[11\]\[14\]) — a batch at a time, and merges them, not re-sorts them.
//! [`merge_batches`] takes a group's blocks in prediction order, a
//! [`MergePrefetcher`] over the ones on the merging PE's own disks, and
//! a sink. Per batch it decodes the blocks onto their runs' buffers,
//! merges everything below the next unread block's first key
//! ([`CarryMerge`]), checks that no run carries more than a block above
//! it, and hands the prefix to the sink. Both sorts read that way: the
//! striped merge ([`crate::striped`]) reads its share of every batch
//! and exchanges the prefix, canonical's final merge
//! ([`crate::localmerge`]) reads all of it into its output run.

use crate::merge::{merge_cpu, merge_threads, CarryMerge};
use crate::recio::records_per_block;
use demsort_storage::{BlockId, MergePrefetcher, PeStorage};
use demsort_types::{CpuCounters, Error, Phase, Record, Result, TraceEv, Tracer};
use std::ops::Range;

/// One block of a merge group.
#[derive(Clone, Debug)]
pub struct InputBlock<K> {
    /// The run it belongs to: its index in the group.
    pub run: usize,
    /// A lower bound of its records, non-decreasing along its run.
    pub first_key: K,
    /// Where the merging PE stored it, if that PE reads it.
    pub id: Option<BlockId>,
    /// The block's records that belong to the run.
    pub records: Range<usize>,
}

/// Sort a group's blocks, given each run's in run order, into the
/// prediction sequence: by first key, then run, then position (stable).
pub fn prediction_order<K: Ord>(blocks: &mut [InputBlock<K>]) {
    blocks.sort_by(|a, b| (&a.first_key, a.run).cmp(&(&b.first_key, b.run)));
}

/// How a group is merged, and what its journal events say.
pub struct BatchMerge<'a> {
    /// The merging PE's storage (its pool takes the blocks back) and
    /// global rank (its errors name it).
    pub st: &'a PeStorage,
    pub rank: usize,
    /// Runs in the group, blocks per batch, and records per call of the
    /// sink at most (a batch's prefix takes as many calls as it needs).
    pub runs: usize,
    pub batch_blocks: usize,
    pub emit_limit: usize,
    /// Merge threads at most, records per thread at least
    /// ([`crate::merge::par_merge_k_traced`]).
    pub cores: usize,
    pub min_per_thread: usize,
    /// Where events and progress go, tagged with `pass` and `group`.
    pub tracer: &'a Tracer,
    pub pass: usize,
    pub group: usize,
}

/// Merge a group's `blocks`, given in prediction order, batch by batch:
/// take each batch's blocks the merging PE reads (those with an `id`)
/// from `reads` — a prefetcher over exactly those blocks, in the same
/// order, whose window keeps the next batch's reads in flight while the
/// current one merges — and hand the batch's prefix — sorted, and no
/// smaller than anything handed over before — to `sink`, which returns
/// the CPU counters of what it did with it. Every block read feeds the
/// tracer's progress byte meter. Returns the merge's counters plus the
/// sink's.
///
/// # Errors
/// The reads' and the sink's, and [`Error::Validation`] if a run
/// carries more than a block above a batch's bound: its first keys do
/// not match its blocks.
pub fn merge_batches<R: Record + Ord>(
    how: &BatchMerge<'_>,
    blocks: &[InputBlock<R::Key>],
    reads: &mut MergePrefetcher<'_>,
    mut sink: impl FnMut(&[R]) -> Result<CpuCounters>,
) -> Result<CpuCounters> {
    let BatchMerge {
        st, rank, runs, emit_limit, cores, min_per_thread, tracer, pass, group, ..
    } = *how;
    let rpb = records_per_block::<R>(st.block_bytes());
    let batches: Vec<&[InputBlock<R::Key>]> = blocks.chunks(how.batch_blocks.max(1)).collect();
    let total = batches.len();
    let ev_issued = |batch: usize| TraceEv::MergeIssued { pass, group, batch, batches: total };

    // Run r's buffer: its carry plus its blocks of this batch, sorted.
    let mut carry = CarryMerge::<R>::new(runs, cores, min_per_thread);
    let mut emit: Vec<R> = Vec::new();
    let mut cpu = CpuCounters::default();
    if total > 0 {
        tracer.instant(ev_issued(0));
    }
    for (b, batch) in batches.iter().enumerate() {
        // Batch b+1's reads are in flight while batch b merges.
        if b + 1 < total {
            tracer.instant(ev_issued(b + 1));
        }

        // Decode each block onto its run's buffer and give it back; a
        // batch big enough to merge on several threads decodes on them,
        // a run per thread.
        let decode = |src: &mut Vec<R>, buf: Box<[u8]>, i: usize| {
            let recs = &batch[i].records;
            let bytes = &buf[recs.start * R::BYTES..recs.end * R::BYTES];
            R::decode_slice(bytes, src);
            st.pool().add_copied(bytes.len() as u64);
            st.pool().put(buf);
        };
        let mine = || batch.iter().enumerate().filter(|(_, blk)| blk.id.is_some());
        let records = mine().map(|(_, blk)| blk.records.len()).sum();
        let fan_out = merge_threads(records, cores, min_per_thread) > 1;
        let mut per_run: Vec<Vec<(usize, Box<[u8]>)>> = Vec::new();
        if fan_out {
            per_run.resize_with(runs, Vec::new);
        }
        for (i, blk) in mine() {
            let buf = reads.next()?.ok_or_else(|| Error::io("a merge read past its blocks"))?;
            tracer.add_bytes(buf.len() as u64);
            if fan_out {
                per_run[blk.run].push((i, buf));
            } else {
                decode(carry.buffer(blk.run, blk.records.len()), buf, i);
            }
        }
        if fan_out {
            std::thread::scope(|s| {
                for (src, bufs) in carry.buffers().zip(per_run) {
                    if !bufs.is_empty() {
                        s.spawn(move || bufs.into_iter().for_each(|(i, buf)| decode(src, buf, i)));
                    }
                }
            });
        }

        // The bound: the smallest first key of every block not yet read.
        // Records equal to it wait for a later batch.
        let threshold: Option<R::Key> = batches.get(b + 1).map(|next| next[0].first_key);
        let par = |thread, threads, len, total| TraceEv::MergePar {
            pass,
            group,
            batch: b,
            thread,
            threads,
            len,
            total,
        };
        loop {
            cpu.split_probes += carry.emit_below(
                threshold.map(|t| move |x: &R| x.key() < t),
                emit_limit,
                &mut emit,
                |thread, threads, len, total| tracer.begin(par(thread, threads, len, total)),
                |id, thread, threads, len, total| tracer.end(id, par(thread, threads, len, total)),
            );
            let last = emit.len() < emit_limit;
            if let Some(t) = threshold.as_ref().filter(|_| last) {
                // Carry bound (Section III): once block i+1 of a run is
                // read, block i's records are ≤ its first key ≤ the bound,
                // so a run carries at most a block above the bound (ties
                // may pile up). More: the first keys lie — for the
                // striped sort, a directory peers sent.
                for r in 0..runs {
                    let s = carry.carry(r);
                    let above = s.len() - s.partition_point(|x| x.key() <= *t);
                    if above > rpb {
                        return Err(Error::validation(format!(
                            "rank {rank}: merge pass {pass}, group {group}, run {r}: {above} \
                             carried records above the batch threshold exceed one block \
                             ({rpb}); the run's first keys do not match its blocks"
                        )));
                    }
                }
            }
            cpu = cpu.merge(&merge_cpu(emit.len() as u64, runs));
            cpu = cpu.merge(&sink(&emit)?);
            if last {
                break;
            }
        }
        tracer.instant(TraceEv::MergeEmitted { pass, group, batch: b, batches: total });
        tracer.progress(Phase::FinalMerge, (b + 1) as u64, total as u64);
    }
    debug_assert!(carry.is_empty(), "the last batch has no bound and must drain every run");
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(run: usize, first_key: u64, slot: u32) -> InputBlock<u64> {
        InputBlock { run, first_key, id: Some(BlockId::new(0, slot)), records: 0..1 }
    }

    #[test]
    fn prediction_order_is_first_key_then_run_then_position() {
        // Run 0's blocks start at 5, 5, 9; run 1's at 1, 5, 5.
        let mut blocks = vec![
            block(0, 5, 0),
            block(0, 5, 1),
            block(0, 9, 2),
            block(1, 1, 3),
            block(1, 5, 4),
            block(1, 5, 5),
        ];
        prediction_order(&mut blocks);
        let slots: Vec<u32> = blocks.iter().filter_map(|b| b.id).map(|id| id.slot).collect();
        assert_eq!(slots, vec![3, 0, 1, 4, 5, 2]);
    }
}
