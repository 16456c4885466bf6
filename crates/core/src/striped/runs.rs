//! Striped runs: the directory, the striped write, and the readers.
//!
//! A run (or the output) is a globally striped sorted sequence: block
//! `g` holds elements `g·rpb ..` on disk `g mod D` — "subsequent blocks
//! are allocated on subsequent disks". Pieces a merge emits continue
//! the round-robin striping where the previous piece left off, so the
//! per-disk block counts of a stitched run differ by at most one.
//!
//! [`write_striped`] is the one writer (run formation and every merge
//! batch call it); [`read_striped_blocks`] reconstructs a run from *any
//! single rank* — blocks owned by peers are fetched over the wire in
//! pipelined per-owner batches. Both of the writer's messages come from
//! peers, so both are decoded with checks ([`decode_pieces`],
//! [`decode_directory`]): a truncated or out-of-range frame is an
//! [`Error::Comm`](demsort_types::Error) naming sender and field.

use crate::ctx::{BlockFetch, ClusterStorage};
use crate::recio::records_per_block;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_storage::{BlockId, PeStorage};
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{Error, Record, Result, SortConfig};
use std::collections::BTreeMap;

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

/// The rank mapping a merge runs under. In the common case it is the
/// identity (`globals[i] == i`); after a rank failure the survivors
/// re-run the merge over a renumbered subgroup communicator, and this
/// view translates between the subgroup's dense ranks (what `comm`
/// speaks) and the global ranks recorded in run directories and used
/// to address [`ClusterStorage`].
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
/// each.
struct Striping {
    stripe_offset: u64,
    disks: u64,
    dpp: usize,
    /// Blocks in the sequence being written.
    blocks: u64,
    /// Records per block.
    rpb: usize,
}

impl Striping {
    fn disk(&self, g: u64) -> usize {
        ((self.stripe_offset + g) % self.disks) as usize
    }

    /// The communicator rank that stores block `g`.
    fn owner(&self, g: u64) -> usize {
        self.disk(g) / self.dpp
    }
}

/// One sender's part of one block, as it arrives at the block's owner:
/// `count` records from record `within` of block `g` on.
#[derive(Debug)]
struct Piece<'a> {
    g: u64,
    within: usize,
    /// The records, encoded (`count · R::BYTES` bytes of the message).
    payload: &'a [u8],
}

/// Append the piece `recs`, which starts at record `within` of block
/// `g`, to the message for the block's owner.
fn encode_piece<R: Record>(w: &mut WireWriter, g: u64, within: usize, recs: &[R]) {
    w.u64(g).u32(within as u32).u32(recs.len() as u32);
    R::encode_slice(recs, w.raw(recs.len() * R::BYTES));
}

/// The pieces in one rank's message to block owner `me`. A piece must
/// lie inside one block that `me` stores, and carry what it announces.
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
        if g >= to.blocks || to.owner(g) != me {
            return Err(Error::comm(format!(
                "g = {g} is not a block of this rank ({} blocks in the sequence)",
                to.blocks
            )));
        }
        if count == 0 || within + count > to.rpb {
            return Err(Error::comm(format!(
                "within {within} + count {count} is not inside a block of {} records",
                to.rpb
            )));
        }
        pieces.push(Piece { g, within, payload: r.field("records").raw(count * rec_bytes)? });
    }
    Ok(pieces)
}

/// What one rank contributes to a striped run's directory for one block
/// it stored.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DirEntry<K> {
    g: u64,
    id: BlockId,
    /// Valid records in the block.
    count: u32,
    first_key: K,
}

fn encode_dir_entry<R: Record>(w: &mut WireWriter, e: &DirEntry<R::Key>) {
    w.u64(e.g).u32(e.id.disk).u32(e.id.slot).u32(e.count);
    R::with_key(e.first_key).encode(w.raw(R::BYTES));
}

/// Rank `src`'s directory message: every entry a block `src` stores
/// under `to`, on one of its disks, with a count a block can hold.
fn decode_directory<R: Record>(
    buf: &[u8],
    to: &Striping,
    src: usize,
) -> Result<Vec<DirEntry<R::Key>>> {
    let mut r = WireReader::new(buf);
    let mut entries = Vec::with_capacity(buf.len() / (20 + R::BYTES));
    while r.remaining() > 0 {
        let g = r.field("g").u64()?;
        let disk = r.field("disk").u32()?;
        let slot = r.field("slot").u32()?;
        let count = r.field("count").u32()?;
        let first_key = R::decode(r.field("first key").raw(R::BYTES)?).key();
        if g >= to.blocks || to.owner(g) != src {
            return Err(Error::comm(format!(
                "g = {g} is not a block of the sender ({} blocks in the sequence)",
                to.blocks
            )));
        }
        if disk as usize >= to.dpp {
            return Err(Error::comm(format!("disk {disk} of {} per rank", to.dpp)));
        }
        if count == 0 || count as usize > to.rpb {
            return Err(Error::comm(format!("count {count} of {} records per block", to.rpb)));
        }
        entries.push(DirEntry { g, id: BlockId::new(disk, slot), count, first_key });
    }
    Ok(entries)
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
pub(super) fn write_striped<R: Record>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    view: &RankView,
    local: &[R],
    stripe_offset: u64,
) -> Result<StripedRun<R::Key>> {
    let (me, p) = (comm.rank(), comm.size());
    let dpp = cfg.machine.disks_per_pe;
    let rpb = records_per_block::<R>(st.block_bytes());

    let n = comm.allreduce_sum(local.len() as u64)?;
    let my_off = comm.exscan_sum(local.len() as u64)?;
    let to = Striping {
        stripe_offset,
        disks: (dpp * view.globals.len()) as u64,
        dpp,
        blocks: n.div_ceil(rpb as u64),
        rpb,
    };

    // Ship each overlapped piece of each global block to the block's
    // owner: block g → disk ((off + g) mod D) → PE ((off + g) mod D)/dpp.
    let mut msgs: Vec<WireWriter> = (0..p).map(|_| WireWriter::new()).collect();
    let mut pos = 0usize;
    while pos < local.len() {
        let g = (my_off + pos as u64) / rpb as u64;
        let within = ((my_off + pos as u64) % rpb as u64) as usize;
        let take = (rpb - within).min(local.len() - pos);
        encode_piece(&mut msgs[to.owner(g)], g, within, &local[pos..pos + take]);
        pos += take;
    }
    let msgs = msgs.into_iter().map(WireWriter::finish).collect();
    let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;

    // Assemble my blocks (pieces of one block can come from two PEs).
    let mut mine: BTreeMap<u64, (Vec<u8>, usize)> = BTreeMap::new();
    let block_bytes = st.block_bytes();
    let mut assembled_bytes = 0u64;
    for (src, buf) in received.iter().enumerate() {
        let pieces = decode_pieces(buf, R::BYTES, &to, me)
            .map_err(|e| from_peer(me, src, "striped block piece", e))?;
        for piece in pieces {
            // Assemble into a pooled block: `get_vec` hands back an
            // empty vec with one block of capacity, and resizing from
            // zero zero-fills it, so partially covered tails stay
            // deterministically padded.
            let entry = mine.entry(piece.g).or_insert_with(|| {
                let mut v = st.pool().get_vec();
                v.resize(block_bytes, 0);
                (v, 0)
            });
            let at = piece.within * R::BYTES;
            entry.0[at..at + piece.payload.len()].copy_from_slice(piece.payload);
            entry.1 += piece.payload.len() / R::BYTES;
            assembled_bytes += piece.payload.len() as u64;
        }
    }
    st.pool().add_copied(assembled_bytes);

    // Write assembled blocks to the designated local disk and collect
    // the directory entries.
    let mut entries: Vec<DirEntry<R::Key>> = Vec::with_capacity(mine.len());
    let mut pending = Vec::with_capacity(mine.len());
    for (g, (data, count)) in mine {
        let expect = (n.min((g + 1) * rpb as u64) - g * rpb as u64) as usize;
        if count != expect {
            return Err(Error::comm(format!(
                "rank {me}: striped block {g} arrived with {count} of its {expect} records"
            )));
        }
        let id = st.alloc().alloc_on(to.disk(g) % dpp);
        let first_key = R::decode(&data[..R::BYTES]).key();
        pending.push(st.engine().write(id, data.into_boxed_slice()));
        entries.push(DirEntry { g, id, count: expect as u32, first_key });
    }
    for h in pending {
        // The write worker hands the staged buffer back; recycle it.
        st.pool().put(h.wait()?);
    }

    // Allgather the directory (every PE learns the whole striped run).
    let mut msg = WireWriter::with_capacity(entries.len() * (20 + R::BYTES));
    for e in &entries {
        encode_dir_entry::<R>(&mut msg, e);
    }
    let gathered = comm.allgather(msg.finish())?;
    let tb = to.blocks as usize;
    let mut run = StripedRun {
        owners: vec![0; tb],
        blocks: vec![BlockId::new(0, 0); tb],
        first_keys: Vec::with_capacity(tb),
        counts: vec![0; tb],
        replicas: Vec::new(),
        elems: n,
    };
    let mut keys: Vec<Option<R::Key>> = vec![None; tb];
    for (src, buf) in gathered.iter().enumerate() {
        let listed = decode_directory::<R>(buf, &to, src)
            .map_err(|e| from_peer(me, src, "striped run directory", e))?;
        for e in listed {
            let g = e.g as usize;
            if keys[g].replace(e.first_key).is_some() {
                let twice = Error::comm(format!("g = {g} listed twice"));
                return Err(from_peer(me, src, "striped run directory", twice));
            }
            run.owners[g] = view.globals[src] as u32;
            run.blocks[g] = e.id;
            run.counts[g] = e.count;
        }
    }
    for (g, key) in keys.into_iter().enumerate() {
        run.first_keys.push(key.ok_or_else(|| {
            Error::comm(format!("rank {me}: striped run directory: no rank lists block {g}"))
        })?);
    }
    Ok(run)
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
        let mut by_owner: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
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

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_types::Element16;
    use proptest::prelude::*;

    /// Four ranks of two disks, 10 blocks of 16 records from disk 3 on:
    /// rank 1 stores blocks 0, 7 and 8 (disks 3, 2 and 3).
    fn striping() -> Striping {
        Striping { stripe_offset: 3, disks: 8, dpp: 2, blocks: 10, rpb: 16 }
    }

    fn recs(n: u64) -> Vec<Element16> {
        (0..n).map(|i| Element16::new(100 + i, i)).collect()
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
        let to = striping();
        let mut w = WireWriter::new();
        encode_piece(&mut w, 7, 4, &recs(12));
        encode_piece(&mut w, 8, 0, &recs(5));
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
            encode_piece(&mut w, g, within, &recs(n));
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
    }

    fn entry(g: u64, disk: u32, slot: u32, count: u32, key: u64) -> DirEntry<u64> {
        DirEntry { g, id: BlockId::new(disk, slot), count, first_key: key }
    }

    fn directory(entries: &[DirEntry<u64>]) -> Vec<u8> {
        let mut w = WireWriter::new();
        for e in entries {
            encode_dir_entry::<Element16>(&mut w, e);
        }
        w.finish()
    }

    #[test]
    fn directory_rejects_short_frames_and_out_of_range_fields() {
        let to = striping();
        let decode = |b: &[u8]| decode_directory::<Element16>(b, &to, 1);
        let listed = [entry(0, 1, 9, 16, 5), entry(7, 0, 2, 16, 70), entry(8, 1, 3, 4, 80)];
        let buf = directory(&listed);
        assert_eq!(decode(&buf).expect("valid"), listed);
        prefixes_fail(&buf, listed.len(), |b| decode(b).map(|e| e.len()));
        for (bad, field) in [
            (entry(10, 0, 0, 1, 0), "g = "),
            (entry(1, 0, 0, 1, 0), "g = "), // rank 2's block
            (entry(7, 2, 0, 1, 0), "disk"),
            (entry(7, 0, 0, 17, 0), "count"),
            (entry(7, 0, 0, 0, 0), "count"),
        ] {
            let err = decode(&directory(&[bad])).expect_err(field);
            assert!(matches!(&err, Error::Comm(m) if m.contains(field)), "{field}: {err}");
        }
    }

    proptest! {
        #[test]
        fn directory_round_trips(
            gs in prop::collection::vec(0u64..3, 0..20),
            slots in prop::collection::vec(0u32..u32::MAX, 20..21),
            counts in prop::collection::vec(1u32..=16, 20..21),
            keys in prop::collection::vec(0u64..u64::MAX, 20..21),
        ) {
            let to = striping();
            let mine = [0u64, 7, 8];
            let listed: Vec<DirEntry<u64>> = gs
                .iter()
                .enumerate()
                .map(|(i, &g)| entry(mine[g as usize], slots[i] % 2, slots[i], counts[i], keys[i]))
                .collect();
            let back = decode_directory::<Element16>(&directory(&listed), &to, 1);
            prop_assert_eq!(back, Ok(listed));
        }
    }
}
