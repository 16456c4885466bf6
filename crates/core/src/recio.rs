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

use demsort_storage::{PeStorage, Run, RunWriter};
use demsort_types::{Record, Result};
use std::collections::VecDeque;

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

/// Streaming reader over an element range of a record-aligned run,
/// with bounded read-ahead; optionally frees blocks once fully
/// consumed (in-place operation).
pub struct RecordRunReader<'a, R: Record> {
    st: &'a PeStorage,
    run: Run,
    rpb: usize,
    /// Next element to deliver (absolute index within the run).
    next_elem: u64,
    /// One past the last element to deliver.
    end_elem: u64,
    /// Decoded records of the current block.
    current: Vec<R>,
    /// Position within `current`.
    current_pos: usize,
    /// In-flight block reads (block index, handle).
    pending: VecDeque<(usize, demsort_storage::IoHandle)>,
    next_issue_block: usize,
    end_block: usize,
    readahead: usize,
    free_after_read: bool,
}

impl<'a, R: Record> RecordRunReader<'a, R> {
    /// Read the whole run (`elems` records) from `st`.
    pub fn new(st: &'a PeStorage, run: Run, elems: u64) -> Self {
        Self::with_range(st, run, elems, 0, elems, false)
    }

    /// Read records `start..end` of the run; `free_after_read` recycles
    /// each block after its last needed record has been delivered
    /// (including boundary blocks that also hold out-of-range records).
    pub fn with_range(
        st: &'a PeStorage,
        run: Run,
        elems: u64,
        start: u64,
        end: u64,
        free_after_read: bool,
    ) -> Self {
        assert!(start <= end && end <= elems, "range {start}..{end} out of 0..{elems}");
        let rpb = records_per_block::<R>(st.block_bytes());
        let start_block = (start / rpb as u64) as usize;
        let end_block = (end.div_ceil(rpb as u64) as usize).min(run.blocks.len());
        Self {
            st,
            run,
            rpb,
            next_elem: start,
            end_elem: end,
            current: Vec::with_capacity(rpb),
            current_pos: 0,
            pending: VecDeque::new(),
            next_issue_block: start_block,
            end_block,
            readahead: st.disks().max(2),
            free_after_read,
        }
    }

    fn top_up(&mut self) {
        while self.pending.len() < self.readahead && self.next_issue_block < self.end_block {
            let id = self.run.blocks[self.next_issue_block];
            self.pending.push_back((self.next_issue_block, self.st.engine().read(id)));
            self.next_issue_block += 1;
        }
    }

    /// Remaining records in the range.
    pub fn remaining(&self) -> u64 {
        self.end_elem - self.next_elem
    }

    /// Deliver the next record, or `None` at the end of the range.
    pub fn next_rec(&mut self) -> Result<Option<R>> {
        if self.next_elem >= self.end_elem {
            return Ok(None);
        }
        if self.current_pos >= self.current.len() {
            self.top_up();
            let (block_idx, h) = self.pending.pop_front().expect("blocks cover the range");
            let data = h.wait()?;
            self.current.clear();
            // Valid records in this block, clipped to the range.
            let block_start = block_idx as u64 * self.rpb as u64;
            let in_block = (self.end_elem.min((block_idx as u64 + 1) * self.rpb as u64)
                - block_start) as usize;
            R::decode_slice(&data[..in_block * R::BYTES], &mut self.current);
            self.st.pool().add_copied((in_block * R::BYTES) as u64);
            self.st.pool().put(data);
            self.current_pos = (self.next_elem - block_start) as usize;
            if self.free_after_read {
                self.st.free_block(self.run.blocks[block_idx]);
            }
            self.top_up();
        }
        let rec = self.current[self.current_pos];
        self.current_pos += 1;
        self.next_elem += 1;
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
}

/// A reader chaining several sorted fragments into one sorted stream
/// (used by the final merge: per run, the received-from-lower pieces,
/// the retained local range, then the received-from-higher pieces).
pub struct ChainedReader<'a, R: Record> {
    parts: VecDeque<RecordRunReader<'a, R>>,
}

impl<'a, R: Record> ChainedReader<'a, R> {
    /// Chain `parts` in order.
    pub fn new(parts: Vec<RecordRunReader<'a, R>>) -> Self {
        Self { parts: parts.into() }
    }

    /// Total remaining records.
    pub fn remaining(&self) -> u64 {
        self.parts.iter().map(|p| p.remaining()).sum()
    }

    /// Next record across the chain.
    pub fn next_rec(&mut self) -> Result<Option<R>> {
        while let Some(front) = self.parts.front_mut() {
            if let Some(r) = front.next_rec()? {
                return Ok(Some(r));
            }
            self.parts.pop_front();
        }
        Ok(None)
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
    RecordRunReader::<R>::new(st, run.clone(), elems).read_to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_storage::{DiskModel, MemBackend};
    use demsort_types::{Element16, Record100};
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

    #[test]
    fn range_reads_with_offsets() {
        let st = storage(64);
        let recs = elements(20);
        let fr = write_records(&st, &recs).expect("write");
        for (start, end) in [(0u64, 20u64), (3, 17), (4, 8), (7, 7), (19, 20), (0, 1)] {
            let got = RecordRunReader::<Element16>::with_range(
                &st,
                fr.run.clone(),
                fr.elems,
                start,
                end,
                false,
            )
            .read_to_vec()
            .expect("read");
            assert_eq!(got, recs[start as usize..end as usize], "range {start}..{end}");
        }
    }

    #[test]
    fn free_after_read_recycles_exactly_range_blocks() {
        let st = storage(64);
        let fr = write_records(&st, &elements(16)).expect("write"); // 4 blocks
        assert_eq!(st.alloc().in_use(), 4);
        // Read elements 5..11 → blocks 1 and 2 are touched and freed.
        let got = RecordRunReader::<Element16>::with_range(&st, fr.run.clone(), 16, 5, 11, true)
            .read_to_vec()
            .expect("read");
        assert_eq!(got.len(), 6);
        assert_eq!(st.alloc().in_use(), 2, "two boundary-range blocks freed");
    }

    #[test]
    fn chained_reader_concatenates() {
        let st = storage(64);
        let a = write_records(&st, &elements(6)).expect("write a");
        let b = write_records(&st, &(6..10).map(|i| Element16::new(i * 3, i)).collect::<Vec<_>>())
            .expect("write b");
        let mut chain = ChainedReader::new(vec![
            RecordRunReader::<Element16>::new(&st, a.run, a.elems),
            RecordRunReader::<Element16>::new(&st, b.run, b.elems),
        ]);
        assert_eq!(chain.remaining(), 10);
        let mut out = Vec::new();
        while let Some(r) = chain.next_rec().expect("read") {
            out.push(r);
        }
        assert_eq!(out, elements(10));
    }

    #[test]
    fn empty_run_and_empty_chain() {
        let st = storage(64);
        let fr = write_records::<Element16>(&st, &[]).expect("write");
        assert_eq!(fr.elems, 0);
        assert!(read_records::<Element16>(&st, &fr.run, 0).expect("read").is_empty());
        let mut chain = ChainedReader::<Element16>::new(vec![]);
        assert!(chain.next_rec().expect("read").is_none());
    }

    #[test]
    #[should_panic(expected = "smaller than a record")]
    fn block_too_small_panics() {
        records_per_block::<Record100>(64);
    }
}
