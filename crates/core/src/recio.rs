//! Record-aligned block I/O for sorted runs.
//!
//! The storage layer moves raw bytes; the algorithms move records. Like
//! STXXL's `typed_block`, a *record run* stores exactly
//! `⌊B / Record::BYTES⌋` records per block (the final block may hold
//! fewer), so element `i` of a run lives at a computable `(block,
//! offset)` — the property external multiway selection relies on for
//! its random probes, and the all-to-all needs to cut runs at arbitrary
//! element boundaries.
//!
//! [`RecordRunWriter`] is where a merge's output becomes blocks: each
//! record (or slab of records) is encoded once, straight into the
//! pooled block its write is issued from — there is no record-typed
//! staging buffer in between — and a bounded write-behind window of
//! such blocks is in flight, so whoever feeds the writer (the exchange
//! merge of run formation, the final merge) is paced by the disks
//! instead of queueing a run. It is a [`RecordSink`], the interface the
//! exchange kernel ([`crate::psort`]) emits into. While writing it
//! additionally collects:
//! * a **sample** of every `K`-th record (Section IV-A: "during run
//!   formation, we store every K-th element of the sorted run as a
//!   sample"), and
//! * the **first key of every block** — the prediction sequence of
//!   Section III / \[11\].
//!
//! [`RecordRunReader`] is the way back: one or a chain of record ranges
//! read through the storage layer's one block reader
//! ([`MergePrefetcher`]) and decoded a block at a time — or, for the
//! all-to-all, copied out as bytes without decoding.

use demsort_storage::{MergePrefetcher, PeStorage, Run, RunWriter};
use demsort_types::{Error, Record, Result};
use std::collections::VecDeque;
use std::ops::Range;

/// Records per (full) block for record type `R`.
///
/// # Panics
/// Panics if a block cannot hold at least one record.
pub fn records_per_block<R: Record>(block_bytes: usize) -> usize {
    let rpb = block_bytes / R::BYTES;
    assert!(rpb > 0, "block size {} smaller than a record ({})", block_bytes, R::BYTES);
    rpb
}

/// Number of blocks a run of `elems` records occupies.
pub fn blocks_for<R: Record>(elems: u64, block_bytes: usize) -> u64 {
    elems.div_ceil(records_per_block::<R>(block_bytes) as u64)
}

/// A sampled record: its position within the (local part of the) run
/// and the record itself.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Sample<R> {
    /// Element index the sample was taken at.
    pub pos: u64,
    /// The sampled record.
    pub rec: R,
}

/// Where sorted records go as a merge produces them, one at a time or
/// a slab at a time: a [`RecordRunWriter`], which encodes them into
/// the block they are written from, or a `Vec` for a caller that needs
/// the records in memory (the striped sort re-blocks them across PEs).
pub trait RecordSink<R> {
    /// Take the next record.
    fn emit(&mut self, rec: R) -> Result<()>;

    /// Take the next `recs.len()` records.
    fn emit_all(&mut self, recs: &[R]) -> Result<()>;
}

impl<R: Copy> RecordSink<R> for Vec<R> {
    fn emit(&mut self, rec: R) -> Result<()> {
        self.push(rec);
        Ok(())
    }

    fn emit_all(&mut self, recs: &[R]) -> Result<()> {
        self.extend_from_slice(recs);
        Ok(())
    }
}

impl<R: Record> RecordSink<R> for RecordRunWriter<'_, R> {
    fn emit(&mut self, rec: R) -> Result<()> {
        self.push(rec)
    }

    fn emit_all(&mut self, recs: &[R]) -> Result<()> {
        self.push_all(recs)
    }
}

/// Streaming writer of a record-aligned sorted run. Every record is
/// encoded once, into the pooled block its write is issued from; at
/// most `window` such writes are in flight, and a push that would
/// exceed that waits for the oldest.
pub struct RecordRunWriter<'a, R: Record> {
    inner: RunWriter<'a>,
    st: &'a PeStorage,
    /// The block being filled.
    block: Box<[u8]>,
    /// Records encoded into `block` so far.
    fill: usize,
    rpb: usize,
    elems: u64,
    sample_every: u64,
    /// Position of the next record to sample (`u64::MAX`: none).
    next_sample: u64,
    samples: Vec<Sample<R>>,
    block_first_keys: Vec<R::Key>,
}

impl<'a, R: Record> RecordRunWriter<'a, R> {
    /// Start a run on `st`; `sample_every = 0` disables sampling.
    pub fn new(st: &'a PeStorage, sample_every: usize) -> Self {
        Self::with_window(st, sample_every, demsort_storage::striping::DEFAULT_WRITE_BEHIND)
    }

    /// Start a run with an explicit write-behind window, in blocks
    /// (at least one per disk). Run formation passes a share of the
    /// PE's memory, so a run's last writes retire under the next run's
    /// sort without a run's worth of them ever being queued.
    pub fn with_window(st: &'a PeStorage, sample_every: usize, window: usize) -> Self {
        Self {
            inner: RunWriter::with_window(st, window.max(st.disks())),
            st,
            block: st.pool().get(),
            fill: 0,
            rpb: records_per_block::<R>(st.block_bytes()),
            elems: 0,
            sample_every: sample_every as u64,
            next_sample: if sample_every > 0 { 0 } else { u64::MAX },
            samples: Vec::new(),
            block_first_keys: Vec::new(),
        }
    }

    /// Append one record.
    pub fn push(&mut self, rec: R) -> Result<()> {
        self.push_all(std::slice::from_ref(&rec))
    }

    /// Append a slice of records.
    pub fn push_all(&mut self, mut recs: &[R]) -> Result<()> {
        while !recs.is_empty() {
            let (head, rest) = recs.split_at((self.rpb - self.fill).min(recs.len()));
            if self.fill == 0 {
                self.block_first_keys.push(head[0].key());
            }
            let end = self.elems + head.len() as u64;
            while self.next_sample < end {
                let rec = head[(self.next_sample - self.elems) as usize];
                self.samples.push(Sample { pos: self.next_sample, rec });
                self.next_sample += self.sample_every;
            }
            R::encode_slice(head, &mut self.block[self.fill * R::BYTES..]);
            self.fill += head.len();
            self.elems = end;
            if self.fill == self.rpb {
                self.flush_block()?;
            }
            recs = rest;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        // Recycled buffers keep their previous contents, so only the
        // tail past the encoded records needs zeroing.
        let bytes = self.fill * R::BYTES;
        self.block[bytes..].fill(0);
        self.st.pool().add_copied(bytes as u64);
        self.fill = 0;
        // Issue first: a write this retires hands its buffer to the
        // pool, where the next block comes from.
        self.inner.push_block(std::mem::take(&mut self.block))?;
        self.block = self.st.pool().get();
        Ok(())
    }

    /// Records written so far.
    pub fn elems(&self) -> u64 {
        self.elems
    }

    /// Finish the run; returns the completed [`FinishedRun`].
    pub fn finish(mut self) -> Result<FinishedRun<R>> {
        if self.fill > 0 {
            self.flush_block()?;
        }
        self.st.pool().put(std::mem::take(&mut self.block));
        let mut run = self.inner.finish()?;
        // The writer zero-pads partial tails; logical length is in
        // elements, so normalize the byte length to the aligned layout.
        run.bytes = run.blocks.len() as u64 * self.st.block_bytes() as u64;
        Ok(FinishedRun {
            run,
            elems: self.elems,
            samples: self.samples,
            block_first_keys: self.block_first_keys,
        })
    }
}

/// A completed record run with its sampling metadata.
#[derive(Clone, Debug)]
pub struct FinishedRun<R: Record> {
    /// The on-disk blocks.
    pub run: Run,
    /// Number of records.
    pub elems: u64,
    /// Every `K`-th record (empty if sampling was disabled).
    pub samples: Vec<Sample<R>>,
    /// First key of every block — the prediction sequence.
    pub block_first_keys: Vec<R::Key>,
}

impl<R: Record> FinishedRun<R> {
    /// An empty run (no blocks, no records).
    pub fn empty() -> Self {
        Self { run: Run::default(), elems: 0, samples: Vec::new(), block_first_keys: Vec::new() }
    }
}

/// Streaming reader of record ranges of record-aligned runs: a decode
/// view over one [`MergePrefetcher`], which reads the ranges' blocks in
/// order with `max(D, 2)` reads in flight; optionally frees each block
/// once it has been read (in-place operation).
pub struct RecordRunReader<'a, R: Record> {
    st: &'a PeStorage,
    blocks: MergePrefetcher<'a>,
    /// The nonempty record ranges still to read, in order; `blocks`
    /// holds exactly their blocks.
    ranges: VecDeque<Range<u64>>,
    rpb: u64,
    /// Decoded records of the current block.
    current: Vec<R>,
    /// Position within `current`.
    pos: usize,
    /// Records still to deliver.
    remaining: u64,
}

impl<'a, R: Record> RecordRunReader<'a, R> {
    /// Read the whole run (`elems` records) from `st`.
    pub fn new(st: &'a PeStorage, run: Run, elems: u64) -> Self {
        Self::with_range(st, run, elems, 0, elems, false)
    }

    /// Read records `start..end` of the run; `free_after_read` recycles
    /// each block once it has been read (including boundary blocks that
    /// also hold out-of-range records).
    pub fn with_range(
        st: &'a PeStorage,
        run: Run,
        elems: u64,
        start: u64,
        end: u64,
        free_after_read: bool,
    ) -> Self {
        Self::chain(st, [(&run, elems, start..end)], free_after_read)
    }

    /// Read several `(run, elems, start..end)` ranges as one stream,
    /// in order — the final merge's chain of one run's fragments. The
    /// next range's blocks are read ahead while the previous one
    /// drains; an empty range reads no block.
    pub fn chain<'r>(
        st: &'a PeStorage,
        parts: impl IntoIterator<Item = (&'r Run, u64, Range<u64>)>,
        free_after_read: bool,
    ) -> Self {
        Self::with_budget(st, parts, free_after_read, st.disks().max(2))
    }

    /// [`chain`](Self::chain) with `budget` reads in flight.
    fn with_budget<'r>(
        st: &'a PeStorage,
        parts: impl IntoIterator<Item = (&'r Run, u64, Range<u64>)>,
        free_after_read: bool,
        budget: usize,
    ) -> Self {
        let rpb = records_per_block::<R>(st.block_bytes()) as u64;
        let (mut ids, mut ranges, mut remaining) = (Vec::new(), VecDeque::new(), 0);
        for (run, elems, range) in parts {
            assert!(
                range.start <= range.end && range.end <= elems,
                "range {range:?} out of 0..{elems}"
            );
            remaining += range.end - range.start;
            if range.is_empty() {
                continue;
            }
            let (first, last) = ((range.start / rpb) as usize, range.end.div_ceil(rpb) as usize);
            ids.extend(run.blocks.iter().take(last).skip(first));
            ranges.push_back(range);
            if run.blocks.len() < last {
                break; // a run short of blocks: reading fails when it gets there
            }
        }
        Self {
            st,
            blocks: MergePrefetcher::naive(st, ids, budget, free_after_read),
            ranges,
            rpb,
            current: Vec::with_capacity(rpb as usize),
            pos: 0,
            remaining,
        }
    }

    /// Remaining records in the range.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read the next block and hand `take` the bytes of its in-range
    /// records and the emptied decode buffer; then meter those bytes as
    /// copied and return the block to the pool. An error if the runs
    /// hold fewer blocks than the ranges need.
    fn take_block(&mut self, take: impl FnOnce(&[u8], &mut Vec<R>)) -> Result<()> {
        let (Some(block), Some(range)) = (self.blocks.next()?, self.ranges.front_mut()) else {
            return Err(Error::io("record range runs past the blocks of its run"));
        };
        // The block holds records `first..first + rpb` of its run.
        let first = range.start / self.rpb * self.rpb;
        let end = range.end.min(first + self.rpb);
        let bytes = (range.start - first) as usize * R::BYTES..(end - first) as usize * R::BYTES;
        range.start = end;
        if range.is_empty() {
            self.ranges.pop_front();
        }
        self.current.clear();
        take(&block[bytes.clone()], &mut self.current);
        self.st.pool().add_copied(bytes.len() as u64);
        self.st.pool().put(block);
        Ok(())
    }

    /// Deliver the next record, or `None` at the end of the range.
    pub fn next_rec(&mut self) -> Result<Option<R>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.pos == self.current.len() {
            self.take_block(R::decode_slice)?;
            self.pos = 0;
        }
        let rec = self.current[self.pos];
        self.pos += 1;
        self.remaining -= 1;
        Ok(Some(rec))
    }

    /// Read the rest of the range into a vector.
    pub fn read_to_vec(&mut self) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(self.remaining() as usize);
        while let Some(r) = self.next_rec()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Copy the range's record bytes, undecoded, into `out` (exactly
    /// `remaining() · R::BYTES` bytes) — one metered copy out of each
    /// block. The reader must not have delivered a record yet.
    pub(crate) fn copy_into(mut self, out: &mut [u8]) -> Result<()> {
        debug_assert_eq!(out.len() as u64, self.remaining * R::BYTES as u64);
        debug_assert!(self.current.is_empty(), "records already decoded");
        let mut at = 0;
        while at < out.len() {
            self.take_block(|bytes, _| {
                out[at..at + bytes.len()].copy_from_slice(bytes);
                at += bytes.len();
            })?;
        }
        Ok(())
    }
}

/// Convenience: write `recs` as a record run (no sampling).
pub fn write_records<R: Record>(st: &PeStorage, recs: &[R]) -> Result<FinishedRun<R>> {
    let mut w = RecordRunWriter::new(st, 0);
    w.push_all(recs)?;
    w.finish()
}

/// Convenience: read a whole record run back.
pub fn read_records<R: Record>(st: &PeStorage, run: &Run, elems: u64) -> Result<Vec<R>> {
    RecordRunReader::<R>::chain(st, [(run, elems, 0..elems)], false).read_to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_storage::{DiskModel, MemBackend};
    use demsort_types::{BufferPool, Element16, Record100};
    use std::sync::Arc;

    fn storage(block: usize) -> PeStorage {
        PeStorage::with_backend(2, block, DiskModel::paper(), Arc::new(MemBackend::new(2)))
    }

    fn elements(n: u64) -> Vec<Element16> {
        (0..n).map(|i| Element16::new(i * 3, i)).collect()
    }

    #[test]
    fn roundtrip_with_partial_tail() {
        let st = storage(64); // 4 Element16 per block
        let recs = elements(10);
        let fr = write_records(&st, &recs).expect("write");
        assert_eq!(fr.elems, 10);
        assert_eq!(fr.run.blocks.len(), 3);
        assert_eq!(read_records::<Element16>(&st, &fr.run, fr.elems).expect("read"), recs);
    }

    #[test]
    fn record100_padding_layout() {
        // 256-byte blocks hold 2 records of 100 bytes (56 bytes pad).
        let st = storage(256);
        assert_eq!(records_per_block::<Record100>(256), 2);
        let recs: Vec<Record100> =
            (0..5).map(|i| demsort_workloads::gensort_record(1, i)).collect();
        let fr = write_records(&st, &recs).expect("write");
        assert_eq!(fr.run.blocks.len(), 3);
        assert_eq!(read_records::<Record100>(&st, &fr.run, 5).expect("read"), recs);
    }

    #[test]
    fn sampling_every_k() {
        let st = storage(64);
        let mut w = RecordRunWriter::new(&st, 4);
        w.push_all(&elements(11)).expect("write");
        let fr = w.finish().expect("finish");
        let positions: Vec<u64> = fr.samples.iter().map(|s| s.pos).collect();
        assert_eq!(positions, vec![0, 4, 8]);
        for s in &fr.samples {
            assert_eq!(s.rec.key, s.pos * 3);
        }
    }

    #[test]
    fn block_first_keys_form_prediction_sequence() {
        let st = storage(64);
        let fr = write_records(&st, &elements(9)).expect("write");
        assert_eq!(fr.block_first_keys, vec![0, 12, 24]);
    }

    /// A row of the reader table: a chain of `(records in a fresh run,
    /// range read from it)` parts, read with `budget` reads in flight.
    #[derive(Clone, Debug)]
    struct Case {
        parts: Vec<(u64, Range<u64>)>,
        free: bool,
        budget: usize,
    }

    fn case(parts: &[(u64, Range<u64>)], free: bool, budget: usize) -> Case {
        Case { parts: parts.to_vec(), free, budget }
    }

    fn element(v: u64) -> Element16 {
        Element16::new(v * 3, v)
    }

    fn record100(v: u64) -> Record100 {
        let (mut key, mut payload) = ([0u8; 10], [0u8; 90]);
        key[2..].copy_from_slice(&v.to_be_bytes());
        payload[..8].copy_from_slice(&v.to_le_bytes());
        Record100::new(demsort_types::Key10(key), payload)
    }

    /// Read `case` through the one reader on fresh storage with
    /// `block`-byte blocks — once decoding (`read_to_vec`), once copying
    /// bytes (`copy_into`) — and check what the reader promises: the
    /// reference records and bytes, exactly the touched blocks freed
    /// (or none), and at most `budget + 2` pool misses on a fresh pool
    /// (reads in flight plus the block being drained).
    fn check_reads<R: Record + PartialEq + std::fmt::Debug>(
        block: usize,
        case: &Case,
        make: fn(u64) -> R,
    ) {
        const DISKS: usize = 3;
        let rpb = records_per_block::<R>(block) as u64;
        let value = |j: usize, i: u64| make(j as u64 * 1000 + i);
        let want: Vec<R> = case
            .parts
            .iter()
            .enumerate()
            .flat_map(|(j, (_, range))| range.clone().map(move |i| value(j, i)))
            .collect();
        let touched: u64 = case
            .parts
            .iter()
            .filter(|(_, range)| !range.is_empty())
            .map(|(_, range)| range.end.div_ceil(rpb) - range.start / rpb)
            .sum();
        for copy in [false, true] {
            let backend = Arc::new(MemBackend::new(DISKS));
            let pool = BufferPool::new(block, 64);
            let st = PeStorage::with_backend_pool(DISKS, block, DiskModel::paper(), backend, pool);
            let runs: Vec<FinishedRun<R>> = case
                .parts
                .iter()
                .enumerate()
                .map(|(j, &(n, _))| {
                    let recs: Vec<R> = (0..n).map(|i| value(j, i)).collect();
                    write_records(&st, &recs).expect("write")
                })
                .collect();
            // A fresh pool: from here on every buffer not yet returned
            // is a miss.
            drop((0..st.pool().available()).map(|_| st.pool().get()).collect::<Vec<_>>());
            let (in_use, misses) = (st.alloc().in_use(), st.pool().counters().misses);

            let parts = runs.iter().zip(&case.parts).map(|(fr, (n, r))| (&fr.run, *n, r.clone()));
            let mut reader = RecordRunReader::<R>::with_budget(&st, parts, case.free, case.budget);
            assert_eq!(reader.remaining(), want.len() as u64, "{case:?}");
            if copy {
                let mut bytes = vec![0u8; want.len() * R::BYTES];
                reader.copy_into(&mut bytes).expect("copy");
                let mut expect = vec![0u8; bytes.len()];
                R::encode_slice(&want, &mut expect);
                assert!(bytes == expect, "copied bytes differ: {case:?}");
            } else {
                assert_eq!(reader.read_to_vec().expect("read"), want, "{case:?}");
                assert_eq!(reader.next_rec().expect("end"), None, "{case:?}");
            }
            let freed = if case.free { touched as usize } else { 0 };
            assert_eq!(st.alloc().in_use(), in_use - freed, "blocks freed: {case:?}");
            let missed = st.pool().counters().misses - misses;
            assert!(missed <= case.budget as u64 + 2, "{missed} misses: {case:?}");
        }
    }

    /// Every reader of the workspace is this one: run lengths around
    /// the block size, empty / whole / aligned / boundary-straddling
    /// ranges, chains of 0–3 of them, free-after-read on and off,
    /// budgets 1, 2, D and 2·D, both record kinds.
    #[test]
    fn one_reader_table() {
        fn table(rpb: u64) -> Vec<Case> {
            let singles: Vec<(u64, Range<u64>)> = [0, 1, rpb - 1, rpb, rpb + 1, 5 * rpb + 3]
                .into_iter()
                .flat_map(|n| {
                    let aligned_end = n / rpb * rpb;
                    let aligned_start = if aligned_end >= 2 * rpb { rpb } else { 0 };
                    let inner = n.min(1)..n.saturating_sub(1).max(n.min(1));
                    [0..n, n / 2..n / 2, aligned_start..aligned_end, (rpb - 1).min(n)..n, inner]
                        .map(|range| (n, range))
                })
                .collect();
            let k = singles.len();
            let chains =
                std::iter::once(Vec::new())
                    .chain((0..k).map(|i| vec![singles[i].clone()]))
                    .chain((0..k).map(|i| vec![singles[i].clone(), singles[(i + 7) % k].clone()]))
                    .chain((0..k).map(|i| {
                        [i, (i + 11) % k, (i + 13) % k].map(|i| singles[i].clone()).to_vec()
                    }));
            let mut cases = Vec::new();
            for parts in chains {
                for free in [false, true] {
                    for budget in [1, 2, 3, 6] {
                        cases.push(case(&parts, free, budget));
                    }
                }
            }
            cases
        }
        for c in table(4) {
            check_reads(64, &c, element);
        }
        for c in table(2) {
            check_reads(256, &c, record100);
        }
        // The two former run-reader cases: six blocks read with a budget
        // of 2 and freed as they go; a hundred blocks, one read at a time.
        check_reads(64, &case(&[(24, 0..24)], true, 2), element);
        check_reads(64, &case(&[(400, 0..400)], false, 1), element);
    }

    #[test]
    fn range_reads_with_offsets() {
        for range in [0..20, 3..17, 4..8, 7..7, 19..20, 0..1] {
            check_reads(64, &case(&[(20, range)], false, 2), element);
        }
    }

    #[test]
    fn free_after_read_recycles_exactly_range_blocks() {
        // Of 16 records in 4 blocks, 5..11 touches blocks 1 and 2: the
        // table checks that exactly those two are freed.
        check_reads(64, &case(&[(16, 5..11)], true, 2), element);
    }

    #[test]
    fn chained_reader_concatenates() {
        check_reads(64, &case(&[(6, 0..6), (4, 0..4)], false, 2), element);
    }

    #[test]
    fn empty_run_and_empty_chain() {
        let st = storage(64);
        let fr = write_records::<Element16>(&st, &[]).expect("write");
        assert_eq!(fr.elems, 0);
        assert!(read_records::<Element16>(&st, &fr.run, 0).expect("read").is_empty());
        check_reads(64, &case(&[(0, 0..0)], true, 2), element);
        check_reads(64, &case(&[], false, 2), element);
    }

    #[test]
    fn range_past_the_blocks_is_an_error() {
        let st = storage(64);
        let fr = write_records(&st, &elements(6)).expect("write"); // 2 blocks
        let mut reader = RecordRunReader::<Element16>::with_range(&st, fr.run, 12, 0, 12, false);
        let err = reader.read_to_vec().expect_err("a run of 12 records needs 3 blocks");
        assert!(matches!(err, Error::Io(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "smaller than a record")]
    fn block_too_small_panics() {
        records_per_block::<Record100>(64);
    }
}
