//! Striped runs: where their blocks live, and the two outputs.
//!
//! A run is a globally striped sorted sequence: block `t` holds the
//! run's next records on disk `t mod D` — "subsequent blocks are
//! allocated on subsequent disks" — so the next pass reads it back in
//! parallel. Each batch a merge emits continues the striping where the
//! previous one left off, so the per-disk block counts of a stitched run
//! differ by at most one. A replicated sort's initial runs also keep `f`
//! replicas of every block, on the owner's `f` buddy ranks. [`Striping`]
//! is the one place that knows this: a block's owner, disk and replica
//! holders follow from its index, so every rank computes them and none
//! sends them. What only the data tells is each block's first key, the
//! prediction sequence; and a block's id never leaves the rank that
//! stored it.
//!
//! [`StripedRun::append`] writes every run that goes back to the disks
//! (run formation and every merge batch of a pass before the last): the
//! batch's exchange merges straight into a `StripeSink`, which sends
//! each record once to every rank that holds a copy of its block —
//! replicas included — in one all-to-all of bare record bytes, writes
//! the copies this rank holds as their blocks fill, and allgathers the
//! first keys of the blocks that start in its part. Every rank knows
//! every rank's part of a batch, so a receiver derives what each message
//! holds; a message of another length is an
//! [`Error::Comm`](demsort_types::Error) naming its sender.
//! [`FileOutput`] is the last pass's write into the output file, which
//! has no disks to stripe over and is never read back.

use crate::distselect::split_rank;
use crate::psort::{Exchange, Part};
use crate::recio::{records_per_block, RecordRunWriter, RecordSink, RunDest};
use crate::runform::WRITE_WINDOW_DIV;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_storage::{BlockId, EdgeFile, PeStorage, RunWriter};
use demsort_types::wire::from_peer;
use demsort_types::{CpuCounters, Error, Key, Record, Result, SortConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The rank mapping a merge runs under. In the common case it is the
/// identity (`globals[i] == i`); after a rank failure the survivors
/// re-run the merge over a renumbered subgroup communicator, and this
/// view translates between the subgroup's dense ranks (what `comm`
/// speaks) and the global ranks runs are striped over.
pub(super) struct RankView {
    /// This rank's global rank.
    pub my_global: usize,
    /// Global rank of each communicator rank, strictly increasing.
    pub globals: Vec<usize>,
}

impl RankView {
    pub fn identity(me: usize, p: usize) -> Self {
        Self { my_global: me, globals: (0..p).collect() }
    }
}

/// Where the blocks of a striped run live. Block `t` is on disk
/// `t mod D` of the ranks striped over, `dpp` disks each, and copy
/// `c ∈ 0..=f` of it — the block itself for `c = 0`, replica `c`
/// otherwise — on the owner's `c`-th buddy, rank `(owner + c) mod P`,
/// on the same disk of that rank.
#[derive(Clone, Debug)]
pub(super) struct Striping {
    /// The global ranks striped over: rank `i` of the communicator that
    /// writes the run is `ranks[i]`.
    pub ranks: Vec<usize>,
    pub dpp: usize,
    /// Replicas per block (`f`).
    pub replicas: usize,
}

impl Striping {
    /// The disk block `t` is on, on each of its holders.
    fn disk(&self, t: u64) -> usize {
        (t % self.dpp as u64) as usize
    }

    /// The communicator rank that holds copy `c` of block `t`.
    fn holder(&self, t: u64, c: usize) -> usize {
        let p = self.ranks.len();
        ((t % (self.dpp * p) as u64) as usize / self.dpp + c) % p
    }

    /// Whether communicator rank `i` holds a copy of block `t`.
    fn holds(&self, t: u64, i: usize) -> bool {
        let p = self.ranks.len();
        (i + p - self.holder(t, 0)) % p <= self.replicas
    }
}

/// A striped run as every rank holds it: where its blocks live, their
/// first keys and record counts — the same on every rank — and where
/// this rank stored its copies.
#[derive(Clone, Debug)]
pub(super) struct StripedRun<K> {
    pub striping: Striping,
    /// Prediction sequence: first key per block.
    pub first_keys: Vec<K>,
    /// Valid records per block (the last block of each batch of a
    /// stitched merge output can be partial, so counts are explicit).
    pub counts: Vec<u32>,
    /// This rank's copy of each block, if it holds one.
    pub held: Vec<Option<BlockId>>,
}

impl<K: Copy> StripedRun<K> {
    /// An empty run striped over `view`'s ranks, `dpp` disks each, every
    /// block of which gets `replicas` replicas.
    pub fn new(view: &RankView, dpp: usize, replicas: usize) -> Self {
        let striping = Striping { ranks: view.globals.clone(), dpp, replicas };
        Self { striping, first_keys: Vec::new(), counts: Vec::new(), held: Vec::new() }
    }

    /// The global rank that stores block `t` itself.
    pub fn owner(&self, t: usize) -> usize {
        self.striping.ranks[self.striping.holder(t as u64, 0)]
    }

    /// The global rank that reads block `t` of run `run` when the global
    /// ranks `live` (strictly increasing) are alive: the first live
    /// holder of a copy, in copy order.
    pub fn reader(&self, run: usize, t: usize, live: &[usize]) -> Result<usize> {
        let s = &self.striping;
        (0..=s.replicas)
            .map(|c| s.ranks[s.holder(t as u64, c)])
            .find(|r| live.binary_search(r).is_ok())
            .ok_or_else(|| {
                Error::comm(format!(
                    "run {run} block {t}: owner rank {} is dead and no live replica exists",
                    self.owner(t)
                ))
            })
    }

    /// Where this rank (`me`) stored block `t` of run `run` if it reads
    /// it when the global ranks `live` are alive, `None` if another rank
    /// does ([`reader`](Self::reader)).
    pub fn read_here(
        &self,
        run: usize,
        t: usize,
        me: usize,
        live: &[usize],
    ) -> Result<Option<BlockId>> {
        if self.reader(run, t, live)? != me {
            return Ok(None);
        }
        let missing =
            || Error::comm(format!("rank {me} reads block {t} of run {run} but has no copy"));
        self.held[t].map(Some).ok_or_else(missing)
    }

    /// Append the next batch — the locally sorted `data` of all PEs —
    /// with one exchange ([`Exchange::run_aligned`] at grain 1, which
    /// tells this PE the global rank of its first record) that merges
    /// into a `StripeSink`: every record goes once to each rank that
    /// holds a copy of its block, this PE's copies are written as their
    /// blocks fill (at most `m/B / WRITE_WINDOW_DIV` in flight, all
    /// retired before this returns), and the first keys are
    /// allgathered.
    ///
    /// The batch continues the striping at the block count so far, so
    /// block `t` of a stitched run is on disk `t mod D` exactly as if it
    /// had been written in one piece. `D` is the disk count of the ranks
    /// striped over: a degraded re-merge stripes over the survivors'
    /// disks only. Collective; returns the exchange's CPU counters.
    pub fn append<R: Record<Key = K> + Ord>(
        &mut self,
        comm: &Communicator,
        st: &PeStorage,
        cfg: &SortConfig,
        exchange: &mut Exchange<R>,
        data: &[R],
        cores: usize,
    ) -> Result<CpuCounters> {
        let window = cfg.machine.mem_blocks_per_pe().max(1) / WRITE_WINDOW_DIV;
        let rpb = records_per_block::<R>(st.block_bytes()) as u64;
        let (to, first) = (&self.striping, self.counts.len() as u64);
        let (cpu, _, sink) = exchange.run_aligned(comm, data, cores, 1, |part: Part| {
            Ok(StripeSink::open(comm, st, Batch { to, first, elems: part.total, rpb }, window))
        })?;
        sink.finish(&mut self.first_keys, &mut self.counts, &mut self.held)?;
        Ok(cpu)
    }
}

/// One batch of a striped write as every rank sees it: `elems` records,
/// `rpb` to a block, that continue the run striped by `to` at its block
/// `first` (block `g` of the batch is block `first + g` of the run).
/// Rank `i`'s part is records `split_rank(i)..split_rank(i + 1)`
/// ([`split_rank`] at grain 1), so every rank knows every rank's.
struct Batch<'a> {
    to: &'a Striping,
    first: u64,
    elems: u64,
    rpb: u64,
}

impl Batch<'_> {
    /// Records in block `g`.
    fn len(&self, g: u64) -> usize {
        (self.elems.min((g + 1) * self.rpb) - g * self.rpb) as usize
    }

    fn holder(&self, g: u64, c: usize) -> usize {
        self.to.holder(self.first + g, c)
    }

    fn holds(&self, g: u64, i: usize) -> bool {
        self.to.holds(self.first + g, i)
    }

    /// Rank `i`'s part of the batch.
    fn part(&self, i: usize) -> Range<u64> {
        let p = self.to.ranks.len();
        split_rank(i, p, self.elems, 1)..split_rank(i + 1, p, self.elems, 1)
    }

    /// What rank `src`'s striping message to rank `dest` carries, in
    /// order: for every block of which `dest` holds a copy, the block
    /// and the records of it in `src`'s part.
    fn pieces(&self, src: usize, dest: usize) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
        let (part, rpb) = (self.part(src), self.rpb);
        (part.start / rpb..part.end.div_ceil(rpb)).filter(move |&g| self.holds(g, dest)).map(
            move |g| {
                let base = g * rpb;
                (
                    g,
                    (part.start.max(base) - base) as usize
                        ..(part.end.min(base + rpb) - base) as usize,
                )
            },
        )
    }

    /// Rank `src`'s striping message to rank `me`, cut into its pieces:
    /// block, first record, and the records, encoded.
    fn cut<'m>(
        &self,
        src: usize,
        me: usize,
        buf: &'m [u8],
        rec_bytes: usize,
    ) -> Result<Vec<(u64, usize, &'m [u8])>> {
        let want: usize = self.pieces(src, me).map(|(_, r)| r.len() * rec_bytes).sum();
        if buf.len() != want {
            let why = format!("{} bytes where its part holds {want} for this rank", buf.len());
            return Err(from_peer(me, src, "striping message", Error::comm(why)));
        }
        let mut rest = buf;
        let mut pieces = Vec::new();
        for (g, recs) in self.pieces(src, me) {
            let (payload, tail) = rest.split_at(recs.len() * rec_bytes);
            pieces.push((g, recs.start, payload));
            rest = tail;
        }
        Ok(pieces)
    }

    /// Blocks whose first record lies in rank `i`'s part.
    fn starts(&self, i: usize) -> usize {
        let part = self.part(i);
        (part.end.div_ceil(self.rpb) - part.start.div_ceil(self.rpb)) as usize
    }

    /// The batch's first keys, from every rank's message of the keys of
    /// the blocks that start in its part.
    fn first_keys<K: Key>(&self, me: usize, msgs: &[Vec<u8>]) -> Result<Vec<K>> {
        let mut keys = Vec::new();
        for (src, buf) in msgs.iter().enumerate() {
            let want = self.starts(src);
            if buf.len() != want * K::BYTES {
                let why =
                    format!("{} bytes for the {want} blocks that start in its part", buf.len());
                return Err(from_peer(me, src, "first keys", Error::comm(why)));
            }
            keys.extend(buf.chunks_exact(K::BYTES).map(K::decode));
        }
        Ok(keys)
    }
}

/// The sink a striped write's exchange merges into. It encodes this
/// PE's records block by block; a block's records go into a message
/// for each other rank that holds a copy of the block, and the pooled
/// buffer they were encoded into becomes this rank's copy, if it holds
/// one. A copy is written as soon as it is whole; one whose block
/// straddles two PEs' parts waits for the other records, which arrive
/// in [`StripeSink::finish`]'s one all-to-all.
struct StripeSink<'a, R: Record> {
    comm: &'a Communicator,
    st: &'a PeStorage,
    batch: Batch<'a>,
    /// Where this PE's part of the batch ends.
    end: u64,
    /// The block being encoded: records `from..at` of block `g` are in
    /// `block`, at their places.
    g: u64,
    from: usize,
    at: usize,
    block: Box<[u8]>,
    /// The records for each rank (this rank's stays empty).
    msgs: Vec<Vec<u8>>,
    /// The first keys of the blocks that start in this PE's part.
    keys: Vec<R::Key>,
    /// Copies this rank holds that still miss another PE's records:
    /// block, and the buffer with the records present so far.
    waiting: BTreeMap<u64, (Box<[u8]>, usize)>,
    /// This rank's copies, written at most a window at a time.
    writes: RunWriter<'a>,
    /// Where this rank stored its copy of each block of the batch.
    held: Vec<Option<BlockId>>,
    /// Record bytes placed into this rank's copies.
    copied: u64,
}

impl<'a, R: Record> StripeSink<'a, R> {
    /// A sink for this PE's part of `batch`.
    fn open(comm: &'a Communicator, st: &'a PeStorage, batch: Batch<'a>, window: usize) -> Self {
        // Size each message exactly: a message that grows by doubling
        // holds its old and its new buffer while it moves.
        let me = comm.rank();
        let msgs = (0..comm.size())
            .map(|dest| {
                let recs = batch.pieces(me, dest).map(|(_, r)| r.len()).sum::<usize>();
                Vec::with_capacity(if dest == me { 0 } else { recs * R::BYTES })
            })
            .collect();
        let part = batch.part(me);
        let within = (part.start % batch.rpb) as usize;
        Self {
            comm,
            st,
            end: part.end,
            g: part.start / batch.rpb,
            from: within,
            at: within,
            block: st.pool().get(),
            msgs,
            keys: Vec::with_capacity(batch.starts(me)),
            waiting: BTreeMap::new(),
            writes: RunWriter::with_window(st, window.max(st.disks())),
            held: vec![None; batch.elems.div_ceil(batch.rpb) as usize],
            copied: 0,
            batch,
        }
    }

    /// Hand the encoded records of the current block to every holder of
    /// a copy, and move on to the next block.
    fn close_block(&mut self) -> Result<()> {
        let (g, from, at) = (self.g, self.from, self.at);
        let bytes = from * R::BYTES..at * R::BYTES;
        let me = self.comm.rank();
        for c in 0..=self.batch.to.replicas {
            let dest = self.batch.holder(g, c);
            if dest != me {
                self.msgs[dest].extend_from_slice(&self.block[bytes.clone()]);
            }
        }
        if self.batch.holds(g, me) {
            if from == 0 && at == self.batch.len(g) {
                // The whole block: written from the buffer it was
                // encoded into.
                let block = std::mem::replace(&mut self.block, self.st.pool().get());
                self.copied += bytes.len() as u64;
                self.store(g, block, at)?;
            } else {
                let block = std::mem::take(&mut self.block);
                self.place(g, from, &block[bytes])?;
                self.block = block;
            }
        }
        (self.g, self.from, self.at) = (g + 1, 0, 0);
        Ok(())
    }

    /// Copy records of block `g` from record `within` on into this
    /// rank's copy, which is stored once all its records are there.
    fn place(&mut self, g: u64, within: usize, payload: &[u8]) -> Result<()> {
        let st = self.st;
        let (buf, count) = self.waiting.entry(g).or_insert_with(|| {
            // Recycled buffers keep their previous contents: zero the
            // whole block, so the parts no piece covers are padding.
            let mut buf = st.pool().get();
            buf.fill(0);
            (buf, 0)
        });
        let at = within * R::BYTES;
        buf[at..at + payload.len()].copy_from_slice(payload);
        *count += payload.len() / R::BYTES;
        self.copied += payload.len() as u64;
        let (count, expect) = (*count, self.batch.len(g));
        if count > expect {
            return Err(Error::comm(format!(
                "rank {}: striped block {g} arrived with {count} of its {expect} records",
                self.comm.rank()
            )));
        }
        if count == expect {
            if let Some((buf, _)) = self.waiting.remove(&g) {
                self.store(g, buf, count)?;
            }
        }
        Ok(())
    }

    /// Write this rank's copy of block `g` — `count` records, the rest
    /// of `buf` padding — to the disk its block is striped to.
    fn store(&mut self, g: u64, mut buf: Box<[u8]>, count: usize) -> Result<()> {
        buf[count * R::BYTES..].fill(0);
        let id = self.st.alloc().alloc_on(self.batch.to.disk(self.batch.first + g));
        self.writes.push_issued(id, self.st.engine().write(id, buf))?;
        self.held[g as usize] = Some(id);
        Ok(())
    }

    /// Send the records, place the ones that arrive, retire every write
    /// and allgather the first keys. Collective. Appends the batch's
    /// first keys and record counts, the same on every rank, and where
    /// this rank stored its copies, to the run's.
    fn finish(
        mut self,
        first_keys: &mut Vec<R::Key>,
        counts: &mut Vec<u32>,
        held: &mut Vec<Option<BlockId>>,
    ) -> Result<()> {
        if self.at > self.from {
            self.close_block()?;
        }
        let (comm, st, me) = (self.comm, self.st, self.comm.rank());
        st.pool().put(std::mem::take(&mut self.block));
        let received = chunked_alltoallv(comm, std::mem::take(&mut self.msgs), MPI_VOLUME_LIMIT)?;
        for (src, buf) in received.iter().enumerate().filter(|&(src, _)| src != me) {
            for (g, within, payload) in self.batch.cut(src, me, buf, R::BYTES)? {
                self.place(g, within, payload)?;
            }
        }
        comm.recycle(received);
        if let Some((g, (_, count))) = self.waiting.first_key_value() {
            return Err(Error::comm(format!(
                "rank {me}: striped block {g} arrived with {count} of its {} records",
                self.batch.len(*g)
            )));
        }
        self.writes.finish()?;
        st.pool().add_copied(self.copied);

        // Allgather the first keys (every PE learns the whole batch's).
        let width = <R::Key as Key>::BYTES;
        let mut keys = vec![0; self.keys.len() * width];
        for (key, out) in self.keys.iter().zip(keys.chunks_exact_mut(width)) {
            key.encode(out);
        }
        first_keys.extend(self.batch.first_keys::<R::Key>(me, &comm.allgather(keys)?)?);
        counts.extend((0..self.held.len() as u64).map(|g| self.batch.len(g) as u32));
        held.append(&mut self.held);
        Ok(())
    }
}

impl<R: Record> RecordSink<R> for StripeSink<'_, R> {
    fn emit(&mut self, rec: R) -> Result<()> {
        self.emit_all(std::slice::from_ref(&rec))
    }

    fn emit_all(&mut self, mut recs: &[R]) -> Result<()> {
        if self.g * self.batch.rpb + (self.at + recs.len()) as u64 > self.end {
            let me = self.comm.rank();
            return Err(Error::comm(format!("rank {me}: the exchange delivered past its part")));
        }
        while !recs.is_empty() {
            let (head, rest) = recs.split_at((self.batch.rpb as usize - self.at).min(recs.len()));
            if self.at == 0 {
                // The block's first record: its key is the run's
                // prediction sequence.
                self.keys.push(head[0].key());
            }
            R::encode_slice(head, &mut self.block[self.at * R::BYTES..]);
            self.at += head.len();
            if self.at == self.batch.rpb as usize {
                self.close_block()?;
            }
            recs = rest;
        }
        Ok(())
    }
}

/// A job's output file as a striped sort's last pass fills it, one
/// sorted batch after the other.
pub(super) struct FileOutput {
    file: Arc<EdgeFile>,
    /// Records all PEs have written so far: where the next batch starts.
    base: u64,
    /// Records this PE has written.
    written: u64,
}

impl FileOutput {
    pub fn new(file: Arc<EdgeFile>) -> Self {
        Self { file, base: 0, written: 0 }
    }

    /// Append the next batch — the locally sorted `data` of all PEs —
    /// with one exchange whose cuts fall on block boundaries
    /// ([`Exchange::run_aligned`]), this PE's part written straight into
    /// the file at its place. Every part but the last PE's is whole
    /// blocks, so the blocks and their byte offsets are those of the
    /// striped layout: `⌈n/rpb⌉` block writes over all PEs, block `i` of
    /// a part on disk queue `i mod D`, at most `m/B / WRITE_WINDOW_DIV`
    /// in flight, all retired before this returns. Collective; returns
    /// the exchange's CPU counters.
    pub fn append<R: Record + Ord>(
        &mut self,
        comm: &Communicator,
        st: &PeStorage,
        cfg: &SortConfig,
        exchange: &mut Exchange<R>,
        data: &[R],
        cores: usize,
    ) -> Result<CpuCounters> {
        let rpb = records_per_block::<R>(st.block_bytes()) as u64;
        let window = cfg.machine.mem_blocks_per_pe().max(1) / WRITE_WINDOW_DIV;
        let (file, base) = (&self.file, self.base);
        let (cpu, part, writer) = exchange.run_aligned(comm, data, cores, rpb, |part: Part| {
            let at = (base + part.start) * R::BYTES as u64;
            let dest = RunDest::File { file: Arc::clone(file), at };
            Ok(RecordRunWriter::<R>::with_window(st, 0, window, dest))
        })?;
        self.written += writer.finish()?.elems;
        self.base += part.total;
        Ok(cpu)
    }

    /// Records this PE wrote.
    pub fn finish(self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ClusterStorage;
    use demsort_net::run_cluster;
    use demsort_types::{Element16, MachineConfig};
    use proptest::prelude::*;

    /// Four ranks of two disks at replication `f`.
    fn striping(replicas: usize) -> Striping {
        Striping { ranks: vec![0, 1, 2, 3], dpp: 2, replicas }
    }

    /// 160 records, 16 to a block, from block 3 of the run on: block `g`
    /// of the batch is on disk `(3 + g) mod 8`, so rank 1 stores blocks
    /// 0, 7 and 8, and at `f ≥ 1` also holds replica 1 of rank 0's
    /// blocks 5 and 6. The parts are records 0, 40, 80, 120 and 160.
    fn batch(to: &Striping) -> Batch<'_> {
        Batch { to, first: 3, elems: 160, rpb: 16 }
    }

    /// Records `range` of the batch, encoded: record `i` is `(i, i)`.
    fn encoded(range: Range<u64>) -> Vec<u8> {
        let recs: Vec<Element16> = range.map(|i| Element16::new(i, i)).collect();
        let mut bytes = vec![0u8; recs.len() * Element16::BYTES];
        Element16::encode_slice(&recs, &mut bytes);
        bytes
    }

    /// Whether `res` is the `Error::Comm` of rank 1 about rank `src`'s
    /// message.
    fn names_sender<T: std::fmt::Debug>(res: Result<T>, src: usize) -> bool {
        matches!(&res, Err(Error::Comm(m)) if m.contains("rank 1: bad") && m.contains(&format!("from rank {src}")))
    }

    #[test]
    fn pieces_round_trip_and_bad_frames_are_errors() {
        let (plain, replicated) = (striping(0), striping(1));
        // Rank 3's part, records 120..160, ends block 7 and holds block 8
        // whole: rank 1 gets records 120..128 of block 7 from record 8
        // on, and all of block 8.
        let msg = [encoded(120..128), encoded(128..144)].concat();
        let pieces = batch(&plain).cut(3, 1, &msg, Element16::BYTES).expect("valid");
        let want = [(7, 8, &msg[..128]), (8, 0, &msg[128..])];
        assert_eq!(pieces, want);
        // Rank 2's part, 80..120: block 7's first 8 records, and at f = 1
        // the whole of blocks 5 and 6, whose replica rank 1 holds.
        let msg = encoded(112..120);
        assert_eq!(batch(&plain).cut(2, 1, &msg, 16).expect("valid"), [(7, 0, &msg[..])]);
        let msg = encoded(80..120);
        let pieces = batch(&replicated).cut(2, 1, &msg, 16).expect("valid");
        let want = [(5, 0, &msg[..256]), (6, 0, &msg[256..512]), (7, 0, &msg[512..])];
        assert_eq!(pieces, want);
        // The sender sizes its message by the same pieces.
        let sized =
            |to: &Striping, src| batch(to).pieces(src, 1).map(|(_, r)| r.len()).sum::<usize>();
        assert_eq!([sized(&plain, 3), sized(&plain, 2), sized(&replicated, 2)], [24, 8, 40]);

        // Short, long, ragged, empty when it should not be, and not
        // empty when it should be (rank 1's part holds none of rank 1's
        // blocks at f = 0).
        let whole = [encoded(120..128), encoded(128..144)].concat();
        for bad in
            [&whole[..whole.len() - 16], &[whole.clone(), encoded(0..1)].concat(), &whole[1..], &[]]
        {
            assert!(names_sender(batch(&plain).cut(3, 1, bad, 16), 3), "{} bytes", bad.len());
        }
        assert!(names_sender(batch(&plain).cut(1, 1, &encoded(40..41), 16), 1));
        assert_eq!(batch(&plain).cut(1, 1, &[], 16).expect("nothing for rank 1"), []);
    }

    #[test]
    fn replica_directory_rejects_short_frames_and_out_of_range_fields() {
        // At f = 1 rank 2's message to rank 1 carries its whole part,
        // records 80..120: blocks 5 and 6, whose replica rank 1 holds,
        // and the start of block 7. Short, long, ragged, empty, and the
        // message of f = 0 (block 7's records only) are errors.
        let to = striping(1);
        let whole = encoded(80..120);
        for bad in [
            &whole[..whole.len() - 16],
            &[whole.clone(), encoded(0..1)].concat(),
            &whole[1..],
            &[],
            &encoded(112..120),
        ] {
            assert!(names_sender(batch(&to).cut(2, 1, bad, 16), 2), "{} bytes", bad.len());
        }
        // Replicas add nothing to the directory: still one first key per
        // block that starts in a part, and a key for each copy is out of
        // range.
        let keys = |n: u64, from: u64| (from..from + n).flat_map(u64::to_le_bytes).collect();
        let msgs: Vec<Vec<u8>> = vec![keys(3, 0), keys(2, 3), keys(3, 5), keys(2, 8)];
        assert_eq!(
            batch(&to).first_keys::<u64>(1, &msgs).expect("valid"),
            (0..10).collect::<Vec<_>>()
        );
        let mut doubled = msgs.clone();
        doubled[2] = [keys(3, 5), keys(3, 5)].concat();
        assert!(names_sender(batch(&to).first_keys::<u64>(1, &doubled), 2));
    }

    #[test]
    fn first_key_messages_must_hold_a_key_per_block_that_starts_in_the_part() {
        // Blocks start at records 0, 16, 32 | 48, 64 | 80, 96, 112 |
        // 128, 144 of the four parts.
        let to = striping(0);
        let keys = |n: u64, from: u64| (from..from + n).flat_map(u64::to_le_bytes).collect();
        let msgs: Vec<Vec<u8>> = vec![keys(3, 0), keys(2, 3), keys(3, 5), keys(2, 8)];
        assert_eq!(
            batch(&to).first_keys::<u64>(1, &msgs).expect("valid"),
            (0..10).collect::<Vec<_>>()
        );
        // Short, long, ragged and empty.
        for (src, bad) in
            [(2, keys(2, 5)), (1, keys(3, 3)), (3, msgs[3][1..].to_vec()), (0, Vec::new())]
        {
            let mut msgs = msgs.clone();
            msgs[src] = bad;
            assert!(names_sender(batch(&to).first_keys::<u64>(1, &msgs), src), "rank {src}");
        }
        // Of 20 records, blocks start in the first and the last part
        // only: a key from a part that starts none is an error too.
        let short = Batch { to: &to, first: 0, elems: 20, rpb: 16 };
        let msgs = vec![keys(1, 0), Vec::new(), Vec::new(), keys(1, 1)];
        assert_eq!(short.first_keys::<u64>(1, &msgs).expect("valid"), [0, 1]);
        let msgs = vec![keys(1, 0), keys(1, 9), Vec::new(), keys(1, 1)];
        assert!(names_sender(short.first_keys::<u64>(1, &msgs), 1));
    }

    /// What one rank's striping sink did with its part of a batch.
    struct Striped {
        /// The batch's first keys.
        keys: Vec<u64>,
        /// Bytes this rank sent.
        sent: u64,
        /// Each copy this rank stored: block, and the records read back.
        copies: Vec<(u64, Vec<Element16>)>,
    }

    /// Every rank's striping sink at once, over `p` ranks of two disks at
    /// replication `f`: a batch of `records` records `(i, i)`, 16 to a
    /// block, from block 5 of the run on.
    fn stripe(p: usize, f: usize, records: u64) -> Vec<Striped> {
        let machine = MachineConfig::tiny(p);
        let storage = ClusterStorage::new_mem(&machine);
        let storage = &storage;
        run_cluster(p, move |comm| {
            let (me, st) = (comm.rank(), storage.pe(comm.rank()));
            let to = Striping { ranks: (0..p).collect(), dpp: 2, replicas: f };
            let batch = Batch { to: &to, first: 5, elems: records, rpb: 16 };
            let part = batch.part(me);
            let recs: Vec<Element16> = part.map(|i| Element16::new(i, i)).collect();
            let before = comm.counters().bytes_sent;
            let mut sink = StripeSink::<Element16>::open(&comm, st, batch, 4);
            sink.emit_all(&recs).expect("emit");
            let (mut keys, mut held) = (Vec::new(), Vec::new());
            sink.finish(&mut keys, &mut Vec::new(), &mut held).expect("finish");
            let sent = comm.counters().bytes_sent - before;
            let batch = Batch { to: &to, first: 5, elems: records, rpb: 16 };
            let copies = held
                .iter()
                .enumerate()
                .filter_map(|(g, id)| id.map(|id| (g as u64, id)))
                .map(|(g, id)| {
                    assert_eq!(id.disk as u64, (5 + g) % 2, "rank {me}: block {g}'s disk");
                    let block = st.engine().read_sync(id).expect("read");
                    let mut back = Vec::new();
                    Element16::decode_slice(&block[..batch.len(g) * 16], &mut back);
                    (g, back)
                })
                .collect();
            Striped { keys, sent, copies }
        })
    }

    #[test]
    fn the_striping_sends_records_and_first_keys_only() {
        // Parts of 2·P whole blocks — whole striping cycles — so every
        // copy index puts (P−1)/P of a part's records on other ranks.
        // Each rank sends those records of each of the f + 1 copies, its
        // blocks' first keys to the P − 1 others (Bruck's allgather
        // forwards every message P − 1 times in all), and one word to
        // each other rank as the all-to-all agrees on its round count:
        // no header, no directory entry.
        let records_of = |blocks: std::ops::Range<u64>, n: u64| -> Vec<u64> {
            (blocks.start * 16..(blocks.end * 16).min(n)).collect()
        };
        for (p, f) in [(2usize, 0usize), (2, 1), (3, 0), (3, 2), (4, 0), (4, 1)] {
            let (np, nf) = (p as u64, f as u64);
            let records = np * 2 * np * 16;
            let blocks = records / 16;
            let ranks = stripe(p, f, records);
            let sent: u64 = ranks.iter().map(|r| r.sent).sum();
            let want =
                (nf + 1) * (np - 1) * records * 16 / np + blocks * 8 * (np - 1) + 8 * np * (np - 1);
            assert_eq!(sent, want, "P = {p}, f = {f}");
            // Every rank has every first key, and each copy it holds —
            // and no other — with its block's records.
            let to = Striping { ranks: (0..p).collect(), dpp: 2, replicas: f };
            for (me, r) in ranks.iter().enumerate() {
                assert_eq!(r.keys, (0..blocks).map(|g| g * 16).collect::<Vec<_>>(), "rank {me}");
                let held: Vec<u64> = (0..blocks).filter(|g| to.holds(5 + g, me)).collect();
                assert_eq!(r.copies.iter().map(|c| c.0).collect::<Vec<_>>(), held, "rank {me}");
                for (g, recs) in &r.copies {
                    let keys: Vec<u64> = recs.iter().map(|r| r.key).collect();
                    assert_eq!(keys, records_of(*g..g + 1, records), "rank {me}, block {g}");
                }
            }
        }
        // A ragged batch: parts that split blocks, a partial last block.
        let ranks = stripe(3, 1, 100);
        for r in &ranks {
            assert_eq!(r.keys, [0, 16, 32, 48, 64, 80, 96]);
            for (g, recs) in &r.copies {
                let keys: Vec<u64> = recs.iter().map(|r| r.key).collect();
                assert_eq!(keys, records_of(*g..g + 1, 100), "block {g}");
            }
        }
        let copies: usize = ranks.iter().map(|r| r.copies.len()).sum();
        assert_eq!(copies, 2 * 7, "two copies of each block");
    }

    #[test]
    fn records_past_the_part_are_an_error_not_a_panic() {
        // The exchange hands the sink what peers sent: one record more
        // than a part of 20 holds must not index past the batch.
        let storage = ClusterStorage::new_mem(&MachineConfig::tiny(1));
        let storage = &storage;
        let res = run_cluster(1, move |comm| {
            let to = Striping { ranks: vec![0], dpp: 2, replicas: 0 };
            let batch = Batch { to: &to, first: 0, elems: 20, rpb: 16 };
            let mut sink = StripeSink::<Element16>::open(&comm, storage.pe(0), batch, 4);
            let recs: Vec<Element16> = (0..21).map(|i| Element16::new(i, i)).collect();
            sink.emit_all(&recs[..20]).and_then(|()| sink.emit(recs[20]))
        });
        let err = res[0].clone().expect_err("one record too many");
        assert!(matches!(&err, Error::Comm(m) if m.contains("past its part")), "{err}");
    }

    proptest! {
        #[test]
        fn directory_round_trips(
            p in 1usize..6,
            elems in 0u64..400,
            rpb in 1u64..20,
            keys in prop::collection::vec(0u64..u64::MAX, 400..401),
        ) {
            // Each rank sends the keys of the blocks that start in its
            // part; every rank reads back the batch's, in block order.
            let to = Striping { ranks: (0..p).collect(), dpp: 1, replicas: 0 };
            let batch = Batch { to: &to, first: 0, elems, rpb };
            let blocks = elems.div_ceil(rpb) as usize;
            let mut msgs = Vec::new();
            let mut at = 0;
            for i in 0..p {
                let n = batch.starts(i);
                msgs.push(keys[at..at + n].iter().flat_map(|k| k.to_le_bytes()).collect::<Vec<u8>>());
                at += n;
            }
            prop_assert_eq!(at, blocks);
            prop_assert_eq!(batch.first_keys::<u64>(0, &msgs), Ok(keys[..blocks].to_vec()));
        }

        #[test]
        fn every_holder_gets_each_record_of_its_blocks_once(
            p in 1usize..6,
            f in 0usize..5,
            dpp in 1usize..4,
            first in 0u64..30,
            elems in 0u64..400,
            rpb in 1u64..20,
        ) {
            // The pieces every sender derives tile each block a rank
            // holds, in record order, and no other block.
            let to = Striping { ranks: (0..p).collect(), dpp, replicas: f.min(p - 1) };
            let batch = Batch { to: &to, first, elems, rpb };
            for dest in 0..p {
                let mut got: BTreeMap<u64, Vec<Range<usize>>> = BTreeMap::new();
                for src in 0..p {
                    for (g, recs) in batch.pieces(src, dest) {
                        prop_assert!(!recs.is_empty());
                        got.entry(g).or_default().push(recs);
                    }
                }
                let held: Vec<u64> = (0..elems.div_ceil(rpb)).filter(|&g| batch.holds(g, dest)).collect();
                prop_assert_eq!(got.keys().copied().collect::<Vec<_>>(), held);
                for (g, pieces) in got {
                    let mut at = 0;
                    for recs in pieces {
                        prop_assert_eq!(recs.start, at);
                        at = recs.end;
                    }
                    prop_assert_eq!(at, batch.len(g));
                }
            }
            // Each block has f + 1 holders.
            for g in 0..elems.div_ceil(rpb) {
                let holders = (0..p).filter(|&i| batch.holds(g, i)).count();
                prop_assert_eq!(holders, to.replicas + 1);
            }
        }
    }
}
