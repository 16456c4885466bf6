//! The batch merge loop both sorts merge with.
//!
//! A merge reads its blocks in the order it needs them — the
//! *prediction sequence*, every block's smallest key (Section III,
//! \[11\]\[14\]) — a batch at a time, and merges them, not re-sorts them.
//! [`merge_batches`] takes a group's blocks in prediction order, a
//! [`MergePrefetcher`] over the ones on the merging PE's own disks, and
//! a sink, and merges them with one loser tree that lives for the whole
//! group, a leaf per run. A leaf holds the next record of its run's
//! block in use, read from the pooled buffer the block was read into
//! ([`Record::view_slice`]) — or, for a record type without a view,
//! from a buffer the leaf decodes each of its blocks into and keeps.
//! Once the block is used up, the leaf holds the first key of the next
//! block the PE reads of the run: a bound of everything the run has
//! left, which wins ties against records of the same key. When it wins,
//! that block comes into use — taken from the prefetcher, where a block
//! handed over before its run needs it waits in a per-run queue — and
//! is checked against its first key and the first key of the run's
//! next block. A batch ends at the first head at or above the next
//! batch's first key: what it emitted is smaller than every block not
//! yet read, and what is left waits where it lies. Both sorts read that
//! way: the striped merge ([`crate::striped`]) reads its share of every
//! batch and exchanges the prefix, canonical's final merge
//! ([`crate::localmerge`]) reads all of it into its output run.

use crate::merge::{merge_cpu, LoserTree};
use crate::recio::RecordSink;
use demsort_storage::{BlockId, MergePrefetcher, PeStorage};
use demsort_types::{CpuCounters, Error, Phase, Record, Result, TraceEv, Tracer};
use std::cmp::Ordering;
use std::collections::VecDeque;
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
    /// Runs in the group, and blocks per batch.
    pub runs: usize,
    pub batch_blocks: usize,
    /// Where events and progress go, tagged with `pass` and `group`.
    pub tracer: &'a Tracer,
    pub pass: usize,
    pub group: usize,
}

/// A leaf's head: a record of its run, or the first key of the next
/// block the merging PE reads of the run, which orders before every
/// record of that key.
#[derive(Clone, Copy)]
enum Head<R: Record> {
    Key(R::Key),
    Rec(R),
}

impl<R: Record> Head<R> {
    fn key(&self) -> R::Key {
        match self {
            Head::Key(k) => *k,
            Head::Rec(r) => r.key(),
        }
    }
}

impl<R: Record + Ord> Ord for Head<R> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Head::Rec(a), Head::Rec(b)) => a.cmp(b),
            (Head::Key(a), Head::Key(b)) => a.cmp(b),
            (Head::Key(k), Head::Rec(r)) => k.cmp(&r.key()).then(Ordering::Less),
            (Head::Rec(r), Head::Key(k)) => r.key().cmp(k).then(Ordering::Greater),
        }
    }
}

impl<R: Record + Ord> PartialOrd for Head<R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<R: Record + Ord> PartialEq for Head<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<R: Record + Ord> Eq for Head<R> {}

/// A run as the merging PE reads it.
struct Leaf<R> {
    /// The block in use, while its records are read where they lie,
    /// and the bytes of its records in it.
    block: Option<Box<[u8]>>,
    bytes: Range<usize>,
    /// The block in use, decoded, for a record type without a view.
    decoded: Vec<R>,
    /// Its next record, and how many it has.
    at: usize,
    len: usize,
    /// The run's blocks this PE reads and has not used yet, as
    /// positions in the group's blocks, and those handed over already.
    todo: VecDeque<usize>,
    ready: VecDeque<Box<[u8]>>,
}

impl<R: Record> Leaf<R> {
    /// Record `i` of the block in use.
    fn record(&self, i: usize) -> R {
        match self.block.as_deref().and_then(|b| R::view_slice(&b[self.bytes.clone()])) {
            Some(recs) => recs[i],
            None => self.decoded[i],
        }
    }

    /// Bring a block into use, `records` of `buf`: kept while its
    /// records are read where they lie, or decoded and given back to
    /// `st`'s pool.
    fn load(&mut self, st: &PeStorage, buf: Box<[u8]>, records: &Range<usize>) {
        self.bytes = records.start * R::BYTES..records.end * R::BYTES;
        (self.at, self.len) = (0, records.len());
        if R::view_slice(&buf[self.bytes.clone()]).is_some() {
            self.block = Some(buf);
        } else {
            self.decoded.clear();
            R::decode_slice(&buf[self.bytes.clone()], &mut self.decoded);
            st.pool().add_copied(self.bytes.len() as u64);
            st.pool().put(buf);
        }
    }

    /// The keys of the first and the last record of the block in use.
    fn ends(&self) -> Option<(R::Key, R::Key)> {
        (self.len > 0).then(|| (self.record(0).key(), self.record(self.len - 1).key()))
    }

    /// The run's next record, or — its block used up and given back to
    /// `st`'s pool — the first key of its next block, if any.
    fn next(&mut self, st: &PeStorage, blocks: &[InputBlock<R::Key>]) -> Option<Head<R>> {
        if self.at < self.len {
            self.at += 1;
            return Some(Head::Rec(self.record(self.at - 1)));
        }
        if let Some(buf) = self.block.take() {
            st.pool().put(buf);
        }
        self.todo.front().map(|&i| Head::Key(blocks[i].first_key))
    }
}

/// Merge a group's `blocks`, given in prediction order, batch by batch:
/// take the blocks the merging PE reads (those with an `id`) from
/// `reads` — a prefetcher over exactly those blocks, in the same order,
/// whose window keeps the next batch's reads in flight while the
/// current one merges — as the merge comes to them, emit each batch's
/// prefix — sorted, and no smaller than anything emitted before — into
/// `sink`, and hand the sink to `batch_end` after every batch, which
/// returns the CPU counters of what it did with the prefix. Every block
/// read feeds the tracer's progress byte meter. Returns the merge's
/// counters plus `batch_end`'s.
///
/// # Errors
/// The reads', the sink's and `batch_end`'s, and [`Error::Validation`]
/// if a block that comes into use holds a record below its first key,
/// or above the first key of its run's next block (whoever reads that
/// one): the run's first keys do not match its blocks.
pub fn merge_batches<R: Record + Ord, S: RecordSink<R>>(
    how: &BatchMerge<'_>,
    blocks: &[InputBlock<R::Key>],
    reads: &mut MergePrefetcher<'_>,
    sink: &mut S,
    mut batch_end: impl FnMut(&mut S) -> Result<CpuCounters>,
) -> Result<CpuCounters> {
    let BatchMerge { st, rank, runs, tracer, pass, group, .. } = *how;
    let batch_blocks = how.batch_blocks.max(1);
    let total = blocks.len().div_ceil(batch_blocks);
    let ev_issued = |batch: usize| TraceEv::MergeIssued { pass, group, batch, batches: total };

    // Each block's successor in its run, whoever reads it; the blocks
    // this PE reads, in the order `reads` hands them over, and per run.
    let mut next_key: Vec<Option<R::Key>> = vec![None; blocks.len()];
    let mut last: Vec<Option<usize>> = vec![None; runs];
    let mut leaves: Vec<Leaf<R>> = (0..runs)
        .map(|_| Leaf {
            block: None,
            bytes: 0..0,
            decoded: Vec::new(),
            at: 0,
            len: 0,
            todo: VecDeque::new(),
            ready: VecDeque::new(),
        })
        .collect();
    let mut mine = Vec::new();
    for (i, blk) in blocks.iter().enumerate() {
        if let Some(j) = last[blk.run].replace(i) {
            next_key[j] = Some(blk.first_key);
        }
        if blk.id.is_some() {
            mine.push(blk.run);
            leaves[blk.run].todo.push_back(i);
        }
    }
    let mut handed = mine.into_iter();
    let heads = leaves.iter().map(|l| l.todo.front().map(|&i| Head::Key(blocks[i].first_key)));
    let mut tree = LoserTree::new(heads.collect());
    let lie = |r: usize, what: &str| {
        Error::validation(format!(
            "rank {rank}: merge pass {pass}, group {group}, run {r}: a block's {what}; the \
             run's first keys do not match its blocks"
        ))
    };

    let mut cpu = CpuCounters::default();
    if total > 0 {
        tracer.instant(ev_issued(0));
    }
    for b in 0..total {
        // Batch b+1's reads are in flight while batch b merges.
        if b + 1 < total {
            tracer.instant(ev_issued(b + 1));
        }
        // The bound: the smallest first key of every block of a later
        // batch. Records equal to it wait for a later batch.
        let threshold = blocks.get((b + 1) * batch_blocks).map(|blk| blk.first_key);
        let par = |len| TraceEv::MergePar {
            pass,
            group,
            batch: b,
            thread: 0,
            threads: 1,
            len,
            total: len,
        };
        let span = tracer.begin(par(0));
        let mut emitted = 0;
        while let (Some(w), Some(head)) = (tree.winner(), tree.peek()) {
            if threshold.is_some_and(|t| head.key() >= t) {
                break;
            }
            if let Head::Rec(_) = head {
                let next = leaves[w].next(st, blocks);
                if let Head::Rec(rec) = tree.replace_winner(next) {
                    sink.emit(rec)?;
                    emitted += 1;
                }
                continue;
            }
            // The run's next block comes into use.
            let i = leaves[w]
                .todo
                .pop_front()
                .ok_or_else(|| Error::io("a merge key without a block"))?;
            while leaves[w].ready.is_empty() {
                let (run, buf) = handed
                    .next()
                    .zip(reads.next()?)
                    .ok_or_else(|| Error::io("a merge read past its blocks"))?;
                tracer.add_bytes(buf.len() as u64);
                leaves[run].ready.push_back(buf);
            }
            let leaf = &mut leaves[w];
            let buf = leaf.ready.pop_front().ok_or_else(|| Error::io("a merge lost a block"))?;
            let blk = &blocks[i];
            leaf.load(st, buf, &blk.records);
            if let Some((first, last)) = leaf.ends() {
                if first < blk.first_key {
                    return Err(lie(w, "first record lies below its first key"));
                }
                if next_key[i].is_some_and(|k| last > k) {
                    let what = "last record lies above the first key of the run's next block";
                    return Err(lie(w, what));
                }
            }
            tree.replace_winner(leaf.next(st, blocks));
        }
        tracer.end(span, par(emitted));
        cpu = cpu.merge(&merge_cpu(emitted as u64, runs));
        cpu = cpu.merge(&batch_end(sink)?);
        tracer.instant(TraceEv::MergeEmitted { pass, group, batch: b, batches: total });
        tracer.progress(Phase::FinalMerge, (b + 1) as u64, total as u64);
    }
    debug_assert!(tree.winner().is_none(), "the last batch has no bound and must drain every run");
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_k;
    use crate::recio::{records_per_block, write_records, RecordRunWriter, RunDest};
    use demsort_storage::{DiskModel, MemBackend};
    use demsort_types::{Element16, Key10, Record100};
    use proptest::prelude::*;
    use std::sync::Arc;

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

    /// A record of either type from a key and a tag, ordered by key,
    /// then tag.
    trait Make: Record + Ord + std::fmt::Debug {
        fn make(key: u64, tag: u64) -> Self;
    }

    impl Make for Element16 {
        fn make(key: u64, tag: u64) -> Self {
            Element16::new(key, tag)
        }
    }

    impl Make for Record100 {
        fn make(key: u64, tag: u64) -> Self {
            let (mut k, mut payload) = ([0u8; 10], [0u8; 90]);
            k[2..].copy_from_slice(&key.to_be_bytes());
            payload[..8].copy_from_slice(&tag.to_be_bytes());
            Record100::new(Key10(k), payload)
        }
    }

    /// Merge `runs` (each sorted) with `merge_batches` — run `r` the
    /// records `cut[r]` of it, on storage of 4 records a block — in
    /// batches of `batch_blocks` blocks: each batch's records with the
    /// first key of the next batch, the pieces merged, and the pool's
    /// copied bytes when a run writer is the sink.
    #[allow(clippy::type_complexity)]
    fn batches_of<R: Make>(
        runs: &[Vec<R>],
        cuts: &[Range<usize>],
        batch_blocks: usize,
    ) -> (Vec<(Vec<R>, Option<R::Key>)>, Vec<Vec<R>>, u64) {
        let bytes = 4 * R::BYTES;
        let st =
            PeStorage::with_backend(2, bytes, DiskModel::paper(), Arc::new(MemBackend::new(2)));
        let rpb = records_per_block::<R>(bytes);
        let mut blocks = Vec::new();
        let mut pieces = Vec::new();
        for (run, (recs, cut)) in runs.iter().zip(cuts).enumerate() {
            let fr = write_records(&st, recs).expect("write");
            pieces.push(recs[cut.clone()].to_vec());
            for (i, (&id, &first_key)) in fr.run.blocks.iter().zip(&fr.block_first_keys).enumerate()
            {
                let (lo, hi) = (cut.start.max(i * rpb), cut.end.min((i + 1) * rpb));
                if lo < hi {
                    let records = lo - i * rpb..hi - i * rpb;
                    blocks.push(InputBlock { run, first_key, id: Some(id), records });
                }
            }
        }
        prediction_order(&mut blocks);
        let tracer = Tracer::off();
        let how = BatchMerge {
            st: &st,
            rank: 0,
            runs: runs.len(),
            batch_blocks,
            tracer: &tracer,
            pass: 0,
            group: 0,
        };
        let ids = || blocks.iter().filter_map(|b| b.id).collect();
        let mut reads = MergePrefetcher::optimal(&st, ids(), 3, false);
        let mut batches = Vec::new();
        let bound = |b: usize| blocks.get((b + 1) * batch_blocks).map(|blk| blk.first_key);
        merge_batches(&how, &blocks, &mut reads, &mut Vec::new(), |prefix: &mut Vec<R>| {
            batches.push((std::mem::take(prefix), bound(batches.len())));
            Ok(CpuCounters::default())
        })
        .expect("merge");
        let mut reads = MergePrefetcher::optimal(&st, ids(), 3, false);
        let mut writer = RecordRunWriter::<R>::with_window(&st, 0, 2, RunDest::Scratch);
        let before = st.pool().counters().copied_bytes;
        merge_batches(&how, &blocks, &mut reads, &mut writer, |_| Ok(CpuCounters::default()))
            .expect("merge into a run");
        writer.finish().expect("finish");
        let copied = st.pool().counters().copied_bytes - before;
        (batches, pieces, copied)
    }

    /// What `batches_of` must give: the batches concatenate to the
    /// merge of the pieces, in the loser tree's order, one per
    /// `batch_blocks` blocks; nothing at or above a batch's bound leaves
    /// in it; and the copies metered are `copies` per record.
    fn check<R: Make>(runs: &[Vec<R>], cuts: &[Range<usize>], batch_blocks: usize, copies: u64) {
        let (batches, pieces, copied) = batches_of(runs, cuts, batch_blocks);
        let refs: Vec<&[R]> = pieces.iter().map(Vec::as_slice).collect();
        let all: Vec<R> = batches.iter().flat_map(|(b, _)| b.clone()).collect();
        assert_eq!(all, merge_k(&refs));
        for (batch, bound) in &batches {
            assert!(
                bound.is_none_or(|t| batch.iter().all(|r| r.key() < t)),
                "{batch:?} ≥ {bound:?}"
            );
        }
        assert_eq!(copied, copies * (all.len() * R::BYTES) as u64, "copies per record");
    }

    proptest! {
        /// Both source paths — `Record100` merged from its blocks where
        /// they lie, `Element16` from a decoded copy — on fragments that
        /// start and end mid-block, heavy ties (keys below 6, tags
        /// repeating), empty runs and batches of one block on: each
        /// batch the round of a carry merge under the next batch's first
        /// key, together the merge of everything. A `Record100` is
        /// copied once, by the writer; an `Element16` twice.
        #[test]
        fn both_source_paths_merge_in_rounds_under_each_bound(
            runs in prop::collection::vec(prop::collection::vec(0u64..18, 0..30), 0..6),
            trims in prop::collection::vec(0usize..8, 12..13),
            batch_blocks in 1usize..6,
        ) {
            // Key `x mod 6`, tag `x / 6`: every key repeats, and so do
            // whole records.
            let cuts: Vec<Range<usize>> = runs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let lo = trims[2 * i].min(r.len());
                    lo..r.len() - trims[2 * i + 1].min(r.len() - lo)
                })
                .collect();
            check::<Record100>(&sorted_runs(&runs), &cuts, batch_blocks, 1);
            check::<Element16>(&sorted_runs(&runs), &cuts, batch_blocks, 2);
        }
    }

    fn sorted_runs<R: Make>(runs: &[Vec<u64>]) -> Vec<Vec<R>> {
        runs.iter()
            .map(|r| {
                let mut v: Vec<R> = r.iter().map(|&x| R::make(x % 6, x / 6)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }
}
