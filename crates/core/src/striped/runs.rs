//! Striped runs: the directory and the two outputs.
//!
//! A run is a globally striped sorted sequence: block `g` holds
//! elements `g·rpb ..` on disk `g mod D` — "subsequent blocks are
//! allocated on subsequent disks" — so the next pass reads it back in
//! parallel. Pieces a merge emits continue the round-robin striping
//! where the previous piece left off, so the per-disk block counts of
//! a stitched run differ by at most one. A replicated sort's initial
//! runs also keep `f` replicas of every block, on the owner's `f` buddy
//! ranks.
//!
//! [`DiskOutput`] writes every run that goes back to the disks (run
//! formation and every merge batch of a pass before the last): the
//! batch's exchange merges straight into a `StripeSink`, which sends
//! each record once to every rank that holds a copy of its block —
//! replicas included — in one all-to-all, and writes the copies this
//! rank holds as their blocks fill. [`FileOutput`] is the last pass's
//! write into the output file, which has no disks to stripe over and
//! is never read back. Both of the sink's messages come from peers, so
//! both are decoded with checks ([`decode_pieces`],
//! [`decode_directory`]): a truncated or out-of-range frame is an
//! [`Error::Comm`](demsort_types::Error) naming sender and field.

use crate::distselect::split_rank;
use crate::psort::{Exchange, Part};
use crate::recio::{records_per_block, RecordRunWriter, RecordSink, RunDest};
use crate::runform::WRITE_WINDOW_DIV;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_storage::{BlockId, EdgeFile, PeStorage, RunWriter};
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{CpuCounters, Error, Record, Result, SortConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// A globally striped sorted sequence: block `g` lives on PE
/// `owners[g]` at `blocks[g]`, holding records
/// `[g·rpb, min((g+1)·rpb, elems))`; `first_keys[g]` is its smallest
/// key (the prediction sequence).
#[derive(Clone, Debug)]
pub struct StripedRun<K> {
    /// Owning PE per global block (**global** rank — stable across
    /// survivor renumbering during rank-failure recovery).
    pub owners: Vec<u32>,
    /// Local block id per global block: a slot on one of the owner's
    /// disks.
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

/// The rank mapping a merge runs under. In the common case it is the
/// identity (`globals[i] == i`); after a rank failure the survivors
/// re-run the merge over a renumbered subgroup communicator, and this
/// view translates between the subgroup's dense ranks (what `comm`
/// speaks) and the global ranks recorded in run directories and used
/// to address [`ClusterStorage`](crate::ctx::ClusterStorage).
pub(super) struct RankView {
    /// This rank's global rank (`storage.pe(my_global)` is ours).
    pub my_global: usize,
    /// Global rank of each communicator rank, strictly increasing.
    pub globals: Vec<usize>,
}

impl RankView {
    pub fn identity(me: usize, p: usize) -> Self {
        Self { my_global: me, globals: (0..p).collect() }
    }
}

/// Where the blocks of one striped write go: block `g` on disk
/// `(stripe_offset + g) mod D` of the participating ranks, `dpp` disks
/// each, and its replicas on the owner's buddies.
struct Striping {
    stripe_offset: u64,
    disks: u64,
    dpp: usize,
    /// Ranks striped over.
    ranks: usize,
    /// Replicas per block (`f`): copy `c ∈ 0..=f` of a block — the
    /// block itself for `c = 0`, replica `c` otherwise — lives on the
    /// owner's `c`-th buddy, rank `(owner + c) mod ranks`.
    replicas: usize,
    /// Records in the sequence being written.
    elems: u64,
    /// Records per block.
    rpb: usize,
}

impl Striping {
    /// Blocks in the sequence.
    fn blocks(&self) -> u64 {
        self.elems.div_ceil(self.rpb as u64)
    }

    fn disk(&self, g: u64) -> usize {
        ((self.stripe_offset + g) % self.disks) as usize
    }

    /// The communicator rank that stores block `g`.
    fn owner(&self, g: u64) -> usize {
        self.disk(g) / self.dpp
    }

    /// The communicator rank that holds copy `c` of block `g`.
    fn holder(&self, g: u64, c: usize) -> usize {
        (self.owner(g) + c) % self.ranks
    }

    /// Which copy of block `g` rank `rank` holds, if any.
    fn copy_on(&self, g: u64, rank: usize) -> Option<usize> {
        let c = (rank + self.ranks - self.owner(g)) % self.ranks;
        (c <= self.replicas).then_some(c)
    }

    /// Records in block `g`.
    fn len(&self, g: u64) -> usize {
        let rpb = self.rpb as u64;
        (self.elems.min((g + 1) * rpb) - g * rpb) as usize
    }
}

/// One sender's part of one block, as it arrives at a rank that holds a
/// copy of it: `count` records from record `within` of block `g` on.
#[derive(Debug)]
struct Piece<'a> {
    g: u64,
    within: usize,
    /// The records, encoded (`count · R::BYTES` bytes of the message).
    payload: &'a [u8],
}

/// Bytes of a piece's header: `g`, `within` and the record count.
const PIECE_HEADER_BYTES: usize = 16;

/// Append the piece `payload` — encoded records — which starts at
/// record `within` of block `g`, to the message for a holder of the
/// block.
fn encode_piece(w: &mut WireWriter, g: u64, within: usize, rec_bytes: usize, payload: &[u8]) {
    let count = payload.len() / rec_bytes;
    w.u64(g).u32(within as u32).u32(count as u32).raw(payload.len()).copy_from_slice(payload);
}

/// The pieces in one rank's message to rank `me`. A piece must lie
/// inside one block of which `me` holds a copy, and carry what it
/// announces.
fn decode_pieces<'a>(
    buf: &'a [u8],
    rec_bytes: usize,
    to: &Striping,
    me: usize,
) -> Result<Vec<Piece<'a>>> {
    let mut r = WireReader::new(buf);
    let mut pieces = Vec::new();
    while r.remaining() > 0 {
        let g = r.field("g").u64()?;
        let within = r.field("within").u32()? as usize;
        let count = r.field("count").u32()? as usize;
        if g >= to.blocks() || to.copy_on(g, me).is_none() {
            return Err(Error::comm(format!(
                "g = {g} is not a block of this rank ({} blocks in the sequence)",
                to.blocks()
            )));
        }
        if count == 0 || within + count > to.len(g) {
            return Err(Error::comm(format!(
                "within {within} + count {count} is not inside block {g} of {} records",
                to.len(g)
            )));
        }
        pieces.push(Piece { g, within, payload: r.field("records").raw(count * rec_bytes)? });
    }
    Ok(pieces)
}

/// What one rank contributes to a striped run's directory for one copy
/// of a block it stored.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DirEntry<K> {
    g: u64,
    /// Which copy: 0 for the block, `c` for replica `c`.
    copy: u16,
    id: BlockId,
    /// Valid records in the block.
    count: u32,
    first_key: K,
}

/// Bytes of one directory entry: `g`, copy and disk, slot, count and
/// the first key as a record.
fn dir_entry_bytes<R: Record>() -> usize {
    20 + R::BYTES
}

/// `MachineConfig::validate` keeps `disks_per_pe` within the disk
/// field's 16 bits; a disk past them is an error, never a wrapped or
/// saturated number that would name another block.
fn encode_dir_entry<R: Record>(w: &mut WireWriter, e: &DirEntry<R::Key>) -> Result<()> {
    let disk = u16::try_from(e.id.disk)
        .map_err(|_| Error::config(format!("disk {} does not fit the directory", e.id.disk)))?;
    w.u64(e.g).u16(e.copy).u16(disk).u32(e.id.slot).u32(e.count);
    R::with_key(e.first_key).encode(w.raw(R::BYTES));
    Ok(())
}

/// Rank `src`'s directory message: every entry a copy of a block that
/// `src` holds under `to`, on one of its disks, with a count a block
/// can hold.
fn decode_directory<R: Record>(
    buf: &[u8],
    to: &Striping,
    src: usize,
) -> Result<Vec<DirEntry<R::Key>>> {
    let mut r = WireReader::new(buf);
    let mut entries = Vec::with_capacity(buf.len() / dir_entry_bytes::<R>());
    while r.remaining() > 0 {
        let g = r.field("g").u64()?;
        let copy = r.field("copy").u16()?;
        let disk = r.field("disk").u16()?;
        let slot = r.field("slot").u32()?;
        let count = r.field("count").u32()?;
        let first_key = R::decode(r.field("first key").raw(R::BYTES)?).key();
        if g >= to.blocks() {
            return Err(Error::comm(format!(
                "g = {g} is past the {} blocks in the sequence",
                to.blocks()
            )));
        }
        let c = copy as usize;
        if c > to.replicas {
            return Err(Error::comm(format!("copy {c} at replication {}", to.replicas)));
        }
        if to.holder(g, c) != src {
            return Err(Error::comm(format!(
                "g = {g} copy {c} lives on rank {}, not the sender",
                to.holder(g, c)
            )));
        }
        if disk as usize >= to.dpp {
            return Err(Error::comm(format!("disk {disk} of {} per rank", to.dpp)));
        }
        if count == 0 || count as usize > to.rpb {
            return Err(Error::comm(format!("count {count} of {} records per block", to.rpb)));
        }
        entries.push(DirEntry { g, copy, id: BlockId::new(disk.into(), slot), count, first_key });
    }
    Ok(entries)
}

/// A striped run as the batches of a pass write it back onto the disks,
/// one exchange each: the run's directory so far, which every rank
/// holds.
pub(super) struct DiskOutput<'a, K> {
    view: &'a RankView,
    /// Replicas per block ([`StripedRun::replicas`]).
    replicas: usize,
    run: StripedRun<K>,
}

impl<'a, K: Copy> DiskOutput<'a, K> {
    /// An empty run striped over `view`'s ranks, every block of which
    /// gets `replicas` replicas.
    pub fn new(view: &'a RankView, replicas: usize) -> Self {
        Self { view, replicas, run: StripedRun::empty() }
    }

    /// Append the next batch — the locally sorted `data` of all PEs —
    /// with one exchange ([`Exchange::run_aligned`] at grain 1, which
    /// tells this PE the global rank of its first record) that merges
    /// into a `StripeSink`: every record goes once to each rank that
    /// holds a copy of its block, this PE's copies are written as their
    /// blocks fill (at most `m/B / WRITE_WINDOW_DIV` in flight, all
    /// retired before this returns), and the directory is allgathered.
    ///
    /// The batch continues the round-robin striping at the block count
    /// so far, so block `t` of a stitched run is on disk `t mod D`
    /// exactly as if it had been written in one piece. `D` is the disk
    /// count of the *participating* ranks (`view.globals`): a degraded
    /// re-merge stripes over the survivors' disks only, and the
    /// directory records their global ranks. Collective; returns the
    /// exchange's CPU counters.
    pub fn append<R: Record<Key = K> + Ord>(
        &mut self,
        comm: &Communicator,
        st: &PeStorage,
        cfg: &SortConfig,
        exchange: &mut Exchange<R>,
        data: &[R],
        cores: usize,
    ) -> Result<CpuCounters> {
        let dpp = cfg.machine.disks_per_pe;
        let window = cfg.machine.mem_blocks_per_pe().max(1) / WRITE_WINDOW_DIV;
        let (view, replicas, stripe_offset) =
            (self.view, self.replicas, self.run.blocks.len() as u64);
        let (cpu, _, sink) = exchange.run_aligned(comm, data, cores, 1, |part: Part| {
            let to = Striping {
                stripe_offset,
                disks: (dpp * view.globals.len()) as u64,
                dpp,
                ranks: comm.size(),
                replicas,
                elems: part.total,
                rpb: records_per_block::<R>(st.block_bytes()),
            };
            let end = split_rank(comm.rank() + 1, comm.size(), part.total, 1);
            Ok(StripeSink::open(comm, st, view, to, part.start..end, window))
        })?;
        let piece = sink.finish()?;
        let run = &mut self.run;
        run.owners.extend(piece.owners);
        run.blocks.extend(piece.blocks);
        run.first_keys.extend(piece.first_keys);
        run.counts.extend(piece.counts);
        run.replicas.extend(piece.replicas);
        run.elems += piece.elems;
        Ok(cpu)
    }

    /// The whole run's directory.
    pub fn finish(self) -> StripedRun<K> {
        self.run
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
    view: &'a RankView,
    to: Striping,
    /// The block being encoded: records `from..at` of block `g` are in
    /// `block`, at their places.
    g: u64,
    from: usize,
    at: usize,
    block: Box<[u8]>,
    /// The pieces for each rank (this rank's stays empty).
    msgs: Vec<WireWriter>,
    /// Copies this rank holds that still miss another PE's records:
    /// block, and the buffer with the records present so far.
    waiting: BTreeMap<u64, (Box<[u8]>, usize)>,
    /// This rank's copies, written at most a window at a time.
    writes: RunWriter<'a>,
    entries: Vec<DirEntry<R::Key>>,
    /// Record bytes placed into this rank's copies.
    copied: u64,
}

impl<'a, R: Record> StripeSink<'a, R> {
    /// A sink for records `part` of the sequence.
    fn open(
        comm: &'a Communicator,
        st: &'a PeStorage,
        view: &'a RankView,
        to: Striping,
        part: Range<u64>,
        window: usize,
    ) -> Self {
        // Size each message exactly: a message that grows by doubling
        // holds its old and its new buffer while it moves.
        let (me, rpb) = (comm.rank(), to.rpb as u64);
        let mut bytes = vec![0; comm.size()];
        for g in part.start / rpb..part.end.div_ceil(rpb) {
            let count = part.end.min((g + 1) * rpb) - part.start.max(g * rpb);
            for c in 0..=to.replicas {
                bytes[to.holder(g, c)] += PIECE_HEADER_BYTES + count as usize * R::BYTES;
            }
        }
        bytes[me] = 0;
        let within = (part.start % rpb) as usize;
        Self {
            comm,
            st,
            view,
            g: part.start / rpb,
            from: within,
            at: within,
            block: st.pool().get(),
            msgs: bytes.into_iter().map(WireWriter::with_capacity).collect(),
            waiting: BTreeMap::new(),
            writes: RunWriter::with_window(st, window.max(st.disks())),
            entries: Vec::new(),
            copied: 0,
            to,
        }
    }

    /// Hand the encoded records of the current block to every holder of
    /// a copy, and move on to the next block.
    fn close_block(&mut self) -> Result<()> {
        let (g, from, at) = (self.g, self.from, self.at);
        let bytes = from * R::BYTES..at * R::BYTES;
        let me = self.comm.rank();
        for c in 0..=self.to.replicas {
            let dest = self.to.holder(g, c);
            if dest != me {
                encode_piece(&mut self.msgs[dest], g, from, R::BYTES, &self.block[bytes.clone()]);
            }
        }
        if self.to.copy_on(g, me).is_some() {
            if from == 0 && at == self.to.len(g) {
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
        let (count, expect) = (*count, self.to.len(g));
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
        let first_key = R::decode(&buf[..R::BYTES]).key();
        let copy = self.to.copy_on(g, self.comm.rank()).unwrap_or(0);
        let copy = u16::try_from(copy)
            .map_err(|_| Error::config(format!("copy {copy} does not fit the directory")))?;
        let id = self.st.alloc().alloc_on(self.to.disk(g) % self.to.dpp);
        self.writes.push_issued(id, self.st.engine().write(id, buf))?;
        self.entries.push(DirEntry { g, copy, id, count: count as u32, first_key });
        Ok(())
    }

    /// Send the pieces, place the ones that arrive, retire every write
    /// and allgather the directory, which every rank turns into the
    /// run's. Collective.
    fn finish(mut self) -> Result<StripedRun<R::Key>> {
        if self.at > self.from {
            self.close_block()?;
        }
        let (comm, st, me) = (self.comm, self.st, self.comm.rank());
        st.pool().put(std::mem::take(&mut self.block));
        let msgs = std::mem::take(&mut self.msgs).into_iter().map(WireWriter::finish).collect();
        let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;
        for (src, buf) in received.into_iter().enumerate() {
            let pieces = decode_pieces(&buf, R::BYTES, &self.to, me)
                .map_err(|e| from_peer(me, src, "striped block piece", e))?;
            for piece in pieces {
                self.place(piece.g, piece.within, piece.payload)?;
            }
        }
        if let Some((g, (_, count))) = self.waiting.first_key_value() {
            return Err(Error::comm(format!(
                "rank {me}: striped block {g} arrived with {count} of its {} records",
                self.to.len(*g)
            )));
        }
        self.writes.finish()?;
        st.pool().add_copied(self.copied);

        // Allgather the directory (every PE learns the whole striped run).
        let mut msg = WireWriter::with_capacity(self.entries.len() * dir_entry_bytes::<R>());
        for e in &self.entries {
            encode_dir_entry::<R>(&mut msg, e)?;
        }
        let gathered = comm.allgather(msg.finish())?;
        let (tb, f) = (self.to.blocks() as usize, self.to.replicas);
        let mut run = StripedRun {
            owners: vec![0; tb],
            blocks: vec![BlockId::new(0, 0); tb],
            first_keys: Vec::new(),
            counts: vec![0; tb],
            replicas: vec![vec![(0, BlockId::new(0, 0)); f]; if f > 0 { tb } else { 0 }],
            elems: self.to.elems,
        };
        let mut keys: Vec<Option<R::Key>> = vec![None; tb];
        let mut listed = vec![false; tb * (f + 1)];
        for (src, buf) in gathered.iter().enumerate() {
            let bad = |e: Error| from_peer(me, src, "striped run directory", e);
            for e in decode_directory::<R>(buf, &self.to, src).map_err(bad)? {
                let (g, c) = (e.g as usize, e.copy as usize);
                if std::mem::replace(&mut listed[g * (f + 1) + c], true) {
                    return Err(bad(Error::comm(format!("g = {g} copy {c} listed twice"))));
                }
                let holder = self.view.globals[src] as u32;
                if c == 0 {
                    keys[g] = Some(e.first_key);
                    run.owners[g] = holder;
                    run.blocks[g] = e.id;
                    run.counts[g] = e.count;
                } else {
                    run.replicas[g][c - 1] = (holder, e.id);
                }
            }
        }
        if let Some(i) = listed.iter().position(|&l| !l) {
            let (g, c) = (i / (f + 1), i % (f + 1));
            return Err(Error::comm(format!(
                "rank {me}: striped run directory: no rank lists copy {c} of block {g}"
            )));
        }
        run.first_keys = keys.into_iter().flatten().collect();
        Ok(run)
    }
}

impl<R: Record> RecordSink<R> for StripeSink<'_, R> {
    fn emit(&mut self, rec: R) -> Result<()> {
        self.emit_all(std::slice::from_ref(&rec))
    }

    fn emit_all(&mut self, mut recs: &[R]) -> Result<()> {
        while !recs.is_empty() {
            let (head, rest) = recs.split_at((self.to.rpb - self.at).min(recs.len()));
            R::encode_slice(head, &mut self.block[self.at * R::BYTES..]);
            self.at += head.len();
            if self.at == self.to.rpb {
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
    use demsort_types::Element16;
    use proptest::prelude::*;

    /// Four ranks of two disks, 10 blocks of 16 records from disk 3 on,
    /// each block with `replicas` replicas: rank 1 stores blocks 0, 7
    /// and 8 (disks 3, 2 and 3), and holds replica 1 of rank 0's blocks
    /// 5 and 6.
    fn striping(replicas: usize) -> Striping {
        Striping { stripe_offset: 3, disks: 8, dpp: 2, ranks: 4, replicas, elems: 160, rpb: 16 }
    }

    fn recs(n: u64) -> Vec<Element16> {
        (0..n).map(|i| Element16::new(100 + i, i)).collect()
    }

    /// Append `recs`, which start at record `within` of block `g`, as a
    /// piece.
    fn put_piece(w: &mut WireWriter, g: u64, within: usize, recs: &[Element16]) {
        let mut bytes = vec![0u8; recs.len() * Element16::BYTES];
        Element16::encode_slice(recs, &mut bytes);
        encode_piece(w, g, within, Element16::BYTES, &bytes);
    }

    /// Every cut of `buf` short of its end is rejected or — on an entry
    /// boundary — decodes to fewer entries than the whole (which the
    /// caller's completeness check then rejects); never a panic.
    fn prefixes_fail(buf: &[u8], whole: usize, entries: impl Fn(&[u8]) -> Result<usize>) {
        for cut in 0..buf.len() {
            match entries(&buf[..cut]) {
                Err(Error::Comm(_)) => {}
                Err(other) => panic!("cut {cut}: {other}"),
                Ok(part) => assert!(part < whole, "cut {cut} decoded as the whole message"),
            }
        }
    }

    #[test]
    fn pieces_round_trip_and_bad_frames_are_errors() {
        let to = striping(0);
        let mut w = WireWriter::new();
        put_piece(&mut w, 7, 4, &recs(12));
        put_piece(&mut w, 8, 0, &recs(5));
        let buf = w.finish();
        let pieces = decode_pieces(&buf, Element16::BYTES, &to, 1).expect("valid");
        assert_eq!(pieces.len(), 2);
        assert_eq!((pieces[0].g, pieces[0].within), (7, 4));
        let mut back = Vec::new();
        Element16::decode_slice(pieces[0].payload, &mut back);
        assert_eq!(back, recs(12));
        assert_eq!((pieces[1].g, pieces[1].within, pieces[1].payload.len()), (8, 0, 5 * 16));
        prefixes_fail(&buf, 2, |b| decode_pieces(b, Element16::BYTES, &to, 1).map(|p| p.len()));

        // One out-of-range value per field.
        let piece = |g: u64, within: usize, n: u64| {
            let mut w = WireWriter::new();
            put_piece(&mut w, g, within, &recs(n));
            w.finish()
        };
        for (bad, field) in [
            (piece(10, 0, 1), "g = "),   // past the sequence
            (piece(6, 0, 1), "g = "),    // rank 0's block
            (piece(7, 16, 1), "within"), // starts past the block
            (piece(7, 5, 12), "count"),  // runs past the block
            (piece(7, 0, 0), "count"),   // carries nothing
        ] {
            let err = decode_pieces(&bad, Element16::BYTES, &to, 1).expect_err(field);
            assert!(matches!(&err, Error::Comm(m) if m.contains(field)), "{field}: {err}");
        }
        // With one replica rank 1 also holds rank 0's block 6.
        assert!(decode_pieces(&piece(6, 0, 1), Element16::BYTES, &striping(1), 1).is_ok());
    }

    fn entry(g: u64, copy: u16, disk: u32, slot: u32, count: u32, key: u64) -> DirEntry<u64> {
        DirEntry { g, copy, id: BlockId::new(disk, slot), count, first_key: key }
    }

    fn directory(entries: &[DirEntry<u64>]) -> Vec<u8> {
        let mut w = WireWriter::new();
        for e in entries {
            encode_dir_entry::<Element16>(&mut w, e).expect("disk fits");
        }
        w.finish()
    }

    #[test]
    fn directory_rejects_short_frames_and_out_of_range_fields() {
        let to = striping(0);
        let decode = |b: &[u8]| decode_directory::<Element16>(b, &to, 1);
        let listed =
            [entry(0, 0, 1, 9, 16, 5), entry(7, 0, 0, 2, 16, 70), entry(8, 0, 1, 3, 4, 80)];
        let buf = directory(&listed);
        assert_eq!(buf.len(), listed.len() * dir_entry_bytes::<Element16>());
        assert_eq!(decode(&buf).expect("valid"), listed);
        prefixes_fail(&buf, listed.len(), |b| decode(b).map(|e| e.len()));
        for (bad, field) in [
            (entry(10, 0, 0, 0, 1, 0), "g = "),
            (entry(1, 0, 0, 0, 1, 0), "g = "), // rank 2's block
            (entry(7, 0, 2, 0, 1, 0), "disk"),
            (entry(7, 0, 0, 0, 17, 0), "count"),
            (entry(7, 0, 0, 0, 0, 0), "count"),
        ] {
            let err = decode(&directory(&[bad])).expect_err(field);
            assert!(matches!(&err, Error::Comm(m) if m.contains(field)), "{field}: {err}");
        }
    }

    #[test]
    fn replica_directory_rejects_short_frames_and_out_of_range_fields() {
        // At replication 2 rank 1 holds block 0, replica 1 of rank 0's
        // blocks 5 and 6, and replica 2 of rank 3's blocks 3 and 4.
        let to = striping(2);
        let decode = |b: &[u8]| decode_directory::<Element16>(b, &to, 1);
        let listed =
            [entry(0, 0, 1, 7, 16, 1), entry(6, 1, 0, 9, 16, 60), entry(3, 2, 1, 4, 16, 30)];
        let buf = directory(&listed);
        assert_eq!(decode(&buf).expect("valid"), listed);
        prefixes_fail(&buf, listed.len(), |b| decode(b).map(|e| e.len()));
        for (bad, field) in [
            (entry(10, 1, 0, 0, 1, 0), "g = "),         // past the sequence
            (entry(6, 3, 0, 0, 1, 0), "replication"),   // a copy index above f
            (entry(6, 2, 0, 0, 1, 0), "lives on rank"), // replica 2 of block 6 is rank 2's
            (entry(7, 1, 0, 0, 1, 0), "lives on rank"), // rank 1 stores block 7 itself
        ] {
            let err = decode(&directory(&[bad])).expect_err(field);
            assert!(matches!(&err, Error::Comm(m) if m.contains(field)), "{field}: {err}");
        }
        // The same copy index is above f at replication 1.
        let err = decode_directory::<Element16>(&directory(&[listed[2].clone()]), &striping(1), 1);
        assert!(matches!(&err, Err(Error::Comm(m)) if m.contains("replication")), "{err:?}");
    }

    proptest! {
        #[test]
        fn directory_round_trips(
            gs in prop::collection::vec(0u64..3, 0..20),
            slots in prop::collection::vec(0u32..u32::MAX, 20..21),
            counts in prop::collection::vec(1u32..=16, 20..21),
            keys in prop::collection::vec(0u64..u64::MAX, 20..21),
        ) {
            let to = striping(0);
            let mine = [0u64, 7, 8];
            let listed: Vec<DirEntry<u64>> = gs
                .iter()
                .enumerate()
                .map(|(i, &g)| {
                    entry(mine[g as usize], 0, slots[i] % 2, slots[i], counts[i], keys[i])
                })
                .collect();
            let back = decode_directory::<Element16>(&directory(&listed), &to, 1);
            prop_assert_eq!(back, Ok(listed));
        }

        #[test]
        fn replica_directory_round_trips(
            gs in prop::collection::vec(0usize..7, 0..30),
            slots in prop::collection::vec(0u32..u32::MAX, 30..31),
            keys in prop::collection::vec(0u64..u64::MAX, 30..31),
        ) {
            // Every copy rank 1 holds at replication 2: block g with
            // its copy index.
            let to = striping(2);
            let held: Vec<(u64, u16)> = (0..10u64)
                .filter_map(|g| to.copy_on(g, 1).map(|c| (g, c as u16)))
                .collect();
            prop_assert_eq!(held.len(), 7);
            let listed: Vec<DirEntry<u64>> = gs
                .iter()
                .enumerate()
                .map(|(i, &h)| {
                    let (g, copy) = held[h];
                    entry(g, copy, slots[i] % 2, slots[i], 1 + slots[i] % 16, keys[i])
                })
                .collect();
            let back = decode_directory::<Element16>(&directory(&listed), &to, 1);
            prop_assert_eq!(back, Ok(listed));
        }
    }
}
