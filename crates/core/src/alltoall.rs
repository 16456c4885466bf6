//! Phase 2b: the memory-bounded external all-to-all (Section IV-C).
//!
//! After multiway selection, every PE knows, per run, the run-global
//! range it must own. Data already in place stays on disk untouched
//! (this is why Figure 5's all-to-all I/O volume is tiny for random
//! input); everything else is read, shipped, and written to fresh local
//! blocks. A record is never decoded on the way: the sender copies its
//! bytes once from the blocks the record reader prefetches into the
//! message, the receiver once from the message into a fragment block.
//!
//! Two problems relative to a plain `MPI_Alltoallv` (quoting the
//! paper):
//!
//! * "each PE might have to communicate more data than fits into its
//!   local memory. We solve this problem by splitting the external
//!   all-to-all into `k` internal memory suboperations by logically
//!   splitting the data sent to a receiver into `k` (almost)
//!   equally-sized parts."
//! * "the data has to be collected from `R` different runs. We
//!   therefore assemble the submessages by consuming all the
//!   participating data of run `i` before switching to run `i + 1`."
//!
//! The receiver writes each received piece as a *fragment* — a fresh
//! block-aligned mini-run per `(run, source, suboperation)`, with the
//! first key of each block, decoded as the block is written, so the
//! final merge can read every fragment by the prediction sequence.
//! Fragment tails are partially filled blocks, the paper's `O(R·P')`
//! space/I/O overhead ("these partially filled blocks have to be
//! written out to disk"); `P'` stays small under randomization, which
//! is exactly the effect Figure 5 measures.
//!
//! In-place operation: sent blocks are recycled as soon as every
//! element they hold has been shipped (monotone per-run cursors), so
//! received fragments reuse them.

use crate::extselect::RunSplitters;
use crate::recio::{records_per_block, FinishedRun, RecordRunReader};
use crate::rundir::RunDirectory;
use demsort_net::{chunked_alltoallv, encode_u64s, Communicator, MPI_VOLUME_LIMIT};
use demsort_storage::{BlockId, PeStorage, RunWriter};
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{ranks, Error, Record, Result, SortConfig};
use std::ops::Range;

/// One sorted piece of a run on local disk after redistribution — a
/// received piece, or the range of this PE's own slice it keeps.
#[derive(Clone, Debug)]
pub struct MergeFragment<K> {
    /// The blocks it lies in, in run order, and their first keys.
    pub blocks: Vec<BlockId>,
    pub first_keys: Vec<K>,
    /// Its records, counted from the first block's first.
    pub records: Range<u64>,
}

impl<K: Copy> MergeFragment<K> {
    /// Records in the piece.
    pub fn elems(&self) -> u64 {
        self.records.end - self.records.start
    }

    /// Each block holding records of the piece, its first key and those
    /// records, for blocks of `rpb` records.
    pub(crate) fn touched(
        &self,
        rpb: u64,
    ) -> impl Iterator<Item = (BlockId, K, Range<usize>)> + '_ {
        let blocks = self.blocks.iter().zip(&self.first_keys).enumerate();
        blocks.filter_map(move |(i, (&id, &key))| {
            let at = i as u64 * rpb;
            let (lo, hi) = (self.records.start.max(at), self.records.end.min(at + rpb));
            (lo < hi).then(|| (id, key, (lo - at) as usize..(hi - at) as usize))
        })
    }
}

/// Phase-3 input for one run: fragments whose concatenation is this
/// PE's sorted piece of the run.
#[derive(Clone, Debug)]
pub struct MergeInput<K> {
    /// Fragments in run order.
    pub fragments: Vec<MergeFragment<K>>,
}

impl<K: Copy> MergeInput<K> {
    /// A whole run as one fragment.
    pub fn whole<R: Record<Key = K>>(fr: FinishedRun<R>) -> Self {
        let fragment = MergeFragment {
            blocks: fr.run.blocks,
            first_keys: fr.block_first_keys,
            records: 0..fr.elems,
        };
        Self { fragments: vec![fragment] }
    }

    /// Total records across fragments.
    pub fn elems(&self) -> u64 {
        self.fragments.iter().map(MergeFragment::elems).sum()
    }
}

/// Result of the external all-to-all on one PE.
#[derive(Clone, Debug)]
pub struct AllToAllOutcome<K> {
    /// Per run, the fragments to merge in phase 3.
    pub merge_inputs: Vec<MergeInput<K>>,
    /// Slice blocks neither shipped-and-recycled nor covered by a
    /// retained range (empty-retained boundary blocks); the driver
    /// frees them after phase 3.
    pub stragglers: Vec<BlockId>,
    /// Number of distinct PEs this PE received data from (`P'`).
    pub sources_seen: usize,
    /// Number of suboperations (`k`).
    pub subops: usize,
}

/// Allgather every PE's splitter vector (each PE selected its own
/// rank's positions, [`crate::extselect::select_splitters`]).
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) if the allgather fails or a
/// peer's splitter vector is not one position per run, each within its
/// run, summing to the first global rank the peer owns.
pub fn exchange_splitters<R: Record>(
    comm: &Communicator,
    dir: &RunDirectory<R>,
    mine: &RunSplitters,
) -> Result<Vec<RunSplitters>> {
    let gathered = comm.allgather(encode_u64s(&mine.positions))?;
    let (p, n) = (comm.size(), dir.total_elems());
    gathered
        .iter()
        .enumerate()
        .map(|(src, buf)| {
            decode_splitters(buf, dir, ranks::owned_range(src, p, n).start)
                .map_err(|e| from_peer(comm.rank(), src, "splitter vector", e))
        })
        .collect()
}

/// A peer's splitter vector: one position per run of `dir`, none past
/// its run's end, summing to `rank`.
fn decode_splitters<R: Record>(
    buf: &[u8],
    dir: &RunDirectory<R>,
    rank: u64,
) -> Result<RunSplitters> {
    let mut r = WireReader::new(buf);
    let mut positions = Vec::with_capacity(dir.num_runs());
    for (j, run) in dir.runs.iter().enumerate() {
        let pos = r.field("splitter position").u64()?;
        if pos > run.elems() {
            return Err(Error::comm(format!(
                "position {pos} past run {j}'s {} elems",
                run.elems()
            )));
        }
        positions.push(pos);
    }
    if r.remaining() > 0 {
        return Err(Error::comm(format!(
            "{} bytes past {} positions",
            r.remaining(),
            positions.len()
        )));
    }
    let sum: u64 = positions.iter().sum();
    if sum != rank {
        return Err(Error::comm(format!(
            "positions sum to {sum}, not the peer's first rank {rank}"
        )));
    }
    Ok(RunSplitters { positions })
}

/// Per-destination send state for one run: the local range to ship and
/// a monotone cursor.
#[derive(Clone, Debug)]
struct Segment {
    run: usize,
    /// Range in local-slice element coordinates.
    start: u64,
    end: u64,
    cursor: u64,
}

impl Segment {
    fn remaining(&self) -> u64 {
        self.end - self.cursor
    }
}

/// Execute the external all-to-all. Collective.
///
/// `all_splitters[q].positions[j]` is the run-global position where
/// PE `q`'s data begins in run `j` (from [`exchange_splitters`]).
pub fn external_alltoall<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    dir: &RunDirectory<R>,
    all_splitters: &[RunSplitters],
) -> Result<AllToAllOutcome<R::Key>> {
    let p = comm.size();
    let me = comm.rank();
    let nruns = dir.num_runs();
    let rpb = records_per_block::<R>(st.block_bytes()) as u64;
    assert_eq!(all_splitters.len(), p);

    // My slice's run-global interval per run, and the local retained
    // range [lo, hi) per run.
    let mut retained = Vec::with_capacity(nruns);
    // Per destination, the ordered segments of my slices it receives.
    let mut segments: Vec<Vec<Segment>> = vec![Vec::new(); p];
    for j in 0..nruns {
        let meta = &dir.runs[j];
        let mine = meta.slice(me);
        let clamp = |g: u64| g.clamp(mine.start, mine.end) - mine.start;
        for q in 0..p {
            let g_lo = all_splitters[q].positions[j];
            let g_hi = if q + 1 < p { all_splitters[q + 1].positions[j] } else { meta.elems() };
            let (lo, hi) = (clamp(g_lo), clamp(g_hi));
            if q == me {
                retained.push((lo, hi));
            } else if lo < hi {
                segments[q].push(Segment { run: j, start: lo, end: hi, cursor: lo });
            }
        }
    }

    // Choose k so one suboperation's send volume fits the memory budget.
    let send_elems: u64 =
        segments.iter().map(|s| s.iter().map(Segment::remaining).sum::<u64>()).sum();
    let budget = (cfg.machine.alltoall_budget_bytes() / R::BYTES as u64).max(1);
    let k_local = send_elems.div_ceil(budget).max(1);
    let k = comm.allreduce_max(k_local)? as usize;

    // Per-destination per-suboperation quota, in records.
    let quotas: Vec<u64> = segments
        .iter()
        .map(|segs| {
            let total: u64 = segs.iter().map(Segment::remaining).sum();
            total.div_ceil(k as u64).max(1)
        })
        .collect();

    // Free blocks of my slices as their last record ships (monotone
    // per-run frontier over the two sent regions of each slice).
    let mut freed_upto: Vec<(usize, usize)> = (0..nruns)
        .map(|j| {
            let (_lo, hi) = retained[j];
            // Upper region frees only blocks at or above this index.
            let upper_floor = hi.div_ceil(rpb) as usize;
            (0usize, upper_floor)
        })
        .collect();

    // Received fragments per (run, source): a source's pieces of a run
    // arrive across suboperations in position order, and within a run
    // everything from source q precedes everything from source q+1 (a
    // run is globally sorted across PE slices), so the phase-3 chain is
    // the source-major concatenation.
    let mut streams: Vec<Vec<Vec<MergeFragment<R::Key>>>> = vec![vec![Vec::new(); p]; nruns];
    let mut sources = vec![false; p];

    for _subop in 0..k {
        // ---- assemble submessages (consume runs in order) ----
        let mut msgs: Vec<Vec<u8>> = Vec::with_capacity(p);
        for q in 0..p {
            if q == me {
                msgs.push(Vec::new());
                continue;
            }
            msgs.push(assemble_submessage::<R>(comm, st, dir, &mut segments[q], quotas[q])?);
        }

        // ---- recycle fully shipped blocks (in-place) ----
        for (j, slice) in dir.local.iter().enumerate() {
            let (lo, hi) = retained[j];
            let nblocks = slice.run.blocks.len();
            // Contiguous shipped prefix of the lower region [0, lo).
            let lower_done = region_frontier(&segments, j, 0, lo);
            let lower_limit = ((lower_done / rpb) as usize).min(nblocks);
            for idx in freed_upto[j].0..lower_limit {
                st.free_block(slice.run.blocks[idx]);
            }
            freed_upto[j].0 = freed_upto[j].0.max(lower_limit);
            // Contiguous shipped prefix of the upper region [hi, len).
            let upper_done = region_frontier(&segments, j, hi, slice.elems);
            // A fully shipped partial tail block is freeable too.
            let upper_limit = if upper_done == slice.elems && hi < slice.elems {
                nblocks
            } else {
                ((upper_done / rpb) as usize).min(nblocks)
            };
            for idx in freed_upto[j].1..upper_limit {
                st.free_block(slice.run.blocks[idx]);
            }
            freed_upto[j].1 = freed_upto[j].1.max(upper_limit);
        }

        // ---- exchange ----
        let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;

        // ---- write received pieces as fragments ----
        for (src, buf) in received.iter().enumerate() {
            if src == me || buf.is_empty() {
                continue;
            }
            sources[src] = true;
            let pieces = parse_submessage::<R>(buf, nruns)
                .map_err(|e| from_peer(me, src, "all-to-all submessage", e))?;
            for (run, elems, payload) in pieces {
                streams[run][src].push(write_fragment::<R>(st, payload, elems)?);
            }
        }
        comm.recycle(received);
    }
    st.engine().drain()?;

    // ---- assemble phase-3 inputs and find straggler blocks ----
    let mut merge_inputs = Vec::with_capacity(nruns);
    let mut stragglers = Vec::new();
    for j in 0..nruns {
        let local = &dir.local[j];
        let (lo, hi) = retained[j];
        let mut fragments = Vec::new();
        for (src, frags) in streams[j].iter_mut().enumerate() {
            if src == me && lo < hi {
                // A range that starts mid-block keeps its block's first
                // key, a lower bound, and the merge's carry bound holds:
                // the fragments before it come from lower ranks' slices,
                // whose records are ≤ every record of this slice.
                let (first, last) = ((lo / rpb) as usize, hi.div_ceil(rpb) as usize);
                let base = first as u64 * rpb;
                fragments.push(MergeFragment {
                    blocks: local.run.blocks[first..last].to_vec(),
                    first_keys: local.block_first_keys[first..last].to_vec(),
                    records: lo - base..hi - base,
                });
            }
            fragments.append(frags);
        }
        merge_inputs.push(MergeInput { fragments });

        // With an empty retained range, the block straddling the lo
        // boundary is freed by neither region nor the phase-3 reader.
        if lo == hi && lo % rpb != 0 && ((lo / rpb) as usize) < local.run.blocks.len() {
            stragglers.push(local.run.blocks[(lo / rpb) as usize]);
        }
    }

    Ok(AllToAllOutcome {
        merge_inputs,
        stragglers,
        sources_seen: sources.iter().filter(|&&s| s).count(),
        subops: k,
    })
}

/// Contiguous shipped prefix (in elements) of region `[lo, hi)` of run
/// `j` across all destinations' segment cursors.
fn region_frontier(segments: &[Vec<Segment>], j: usize, lo: u64, hi: u64) -> u64 {
    let mut frontier = hi;
    for segs in segments {
        for s in segs {
            if s.run == j && s.start >= lo && s.end <= hi && s.cursor < s.end {
                frontier = frontier.min(s.cursor);
            }
        }
    }
    frontier.max(lo)
}

/// Build one suboperation's message for a destination: header
/// `[count, (run, elems)*]` then the concatenated record bytes,
/// consuming the destination's segments (runs in order) up to `quota`.
/// Each piece's bytes are copied once, undecoded, from the blocks the
/// record reader prefetches straight into the message.
fn assemble_submessage<R: Record>(
    comm: &Communicator,
    st: &PeStorage,
    dir: &RunDirectory<R>,
    segments: &mut [Segment],
    quota: u64,
) -> Result<Vec<u8>> {
    // (run, records) per piece, in segment order.
    let mut pieces: Vec<(usize, Range<u64>)> = Vec::new();
    let mut left = quota;
    for seg in segments.iter_mut() {
        let take = seg.remaining().min(left);
        if take > 0 {
            pieces.push((seg.run, seg.cursor..seg.cursor + take));
            seg.cursor += take;
            left -= take;
        }
    }

    if pieces.is_empty() {
        return Ok(Vec::new()); // nothing this round: send no bytes at all
    }
    let payload_bytes = (quota - left) as usize * R::BYTES;
    let mut out = WireWriter::reusing(comm.frame(4 + pieces.len() * 12 + payload_bytes));
    out.u32(pieces.len() as u32);
    for (run, recs) in &pieces {
        out.u32(*run as u32).u64(recs.end - recs.start);
    }
    for (run, recs) in pieces {
        let slice = &dir.local[run];
        let bytes = out.raw((recs.end - recs.start) as usize * R::BYTES);
        // Recycling is handled by the monotone frontier, not the reader.
        RecordRunReader::<R>::with_range(st, &slice.run, slice.elems, recs.start, recs.end, false)
            .copy_into(bytes)?;
    }
    Ok(out.finish())
}

/// Parse a peer's submessage into `(run, elems, payload)` pieces. Every
/// piece must name one of the `nruns` runs and carry records, and the
/// header must account for exactly the payload that follows it.
fn parse_submessage<R: Record>(buf: &[u8], nruns: usize) -> Result<Vec<(usize, u64, &[u8])>> {
    let mut r = WireReader::new(buf);
    let count = r.field("piece count").u32()? as usize;
    if count > r.remaining() / 12 {
        return Err(Error::comm(format!(
            "piece count {count} but only {} bytes follow",
            r.remaining()
        )));
    }
    let mut header = Vec::with_capacity(count);
    for _ in 0..count {
        let run = r.field("run").u32()? as usize;
        let elems = r.field("elems").u64()?;
        if run >= nruns {
            return Err(Error::comm(format!("run {run} of {nruns}")));
        }
        // A piece is at most the message it came in.
        if elems == 0 || elems > (buf.len() / R::BYTES) as u64 {
            return Err(Error::comm(format!("elems {elems} in a {}-byte message", buf.len())));
        }
        header.push((run, elems));
    }
    let mut pieces = Vec::with_capacity(count);
    for (run, elems) in header {
        pieces.push((run, elems, r.field("records").raw(elems as usize * R::BYTES)?));
    }
    if r.remaining() > 0 {
        return Err(Error::comm(format!("{} bytes past the last piece", r.remaining())));
    }
    Ok(pieces)
}

/// Write a received piece as a fresh block-aligned fragment, noting the
/// first key of every block.
fn write_fragment<R: Record>(
    st: &PeStorage,
    payload: &[u8],
    elems: u64,
) -> Result<MergeFragment<R::Key>> {
    let rpb = records_per_block::<R>(st.block_bytes());
    let mut w = RunWriter::new(st);
    let mut first_keys = Vec::with_capacity(payload.len().div_ceil(rpb * R::BYTES));
    for chunk in payload.chunks(rpb * R::BYTES) {
        first_keys.push(R::decode(&chunk[..R::BYTES]).key());
        // Stage each block in a pooled buffer (recycled once its write
        // retires); recycled buffers keep stale bytes, so zero the tail
        // past the chunk.
        let mut block = st.pool().get();
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()..].fill(0);
        st.pool().add_copied(chunk.len() as u64);
        w.push_block(block)?;
    }
    Ok(MergeFragment { blocks: w.finish()?.blocks, first_keys, records: 0..elems })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ClusterStorage;
    use crate::extselect::select_splitters;
    use crate::recio::{read_records, RecordRunReader};
    use crate::rundir::build_directory;
    use crate::runform::{form_runs, ingest_input};
    use demsort_net::run_cluster;
    use demsort_types::{AlgoConfig, Element16, Key10, MachineConfig, Record100};
    use demsort_workloads::{generate_pe_input, InputSpec};
    use std::sync::Arc;

    /// What one PE ends the all-to-all with: its outcome, its expected
    /// run pieces, the bytes the phase copied, and the records of its
    /// own slices it shipped and kept.
    struct Exchanged<R: Record> {
        outcome: AllToAllOutcome<R::Key>,
        expected: Vec<Vec<R>>,
        copied: u64,
        shipped: u64,
        kept: u64,
    }

    /// Form runs of `wide(input)` on `machine`, select exact boundaries,
    /// run the all-to-all, and return the storage and what every PE
    /// ends with.
    fn exchange<R: Record + Ord>(
        machine: MachineConfig,
        local_n: usize,
        spec: InputSpec,
        algo: AlgoConfig,
        wide: fn(Element16) -> R,
    ) -> (Arc<ClusterStorage>, Vec<Exchanged<R>>) {
        let p = machine.pes;
        let cfg = SortConfig::new(machine, algo).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage_ref = &storage;
        let cfg2 = cfg.clone();
        let results = run_cluster(p, move |c| {
            let st = storage_ref.pe(c.rank());
            let recs: Vec<R> =
                generate_pe_input(spec, 13, c.rank(), p, local_n).into_iter().map(wide).collect();
            let input = ingest_input(st, &recs).expect("ingest");
            let out = form_runs::<R>(&c, st, &cfg2, input, 1, None).expect("form");
            let dir = build_directory(&c, out.local).expect("directory");
            let (mine, _) = select_splitters(&c, st, &dir).expect("select");
            let all = exchange_splitters(&c, &dir, &mine).expect("exchange");
            // Reference: decode each run fully (before the exchange
            // frees blocks) and slice at the splitter positions; what of
            // it lies in this PE's own slice stays.
            let nruns = dir.num_runs();
            let mut expected: Vec<Vec<R>> = Vec::with_capacity(nruns);
            let (mut shipped, mut kept) = (0, 0);
            for (j, own) in dir.local.iter().enumerate() {
                // Every PE reads its own slice and gathers its peers'.
                let slice = read_records::<R>(st, &own.run, own.elems).expect("read slice");
                let mut bytes = vec![0; slice.len() * R::BYTES];
                R::encode_slice(&slice, &mut bytes);
                let mut whole: Vec<R> = Vec::new();
                for buf in c.allgather(bytes).expect("gather slices") {
                    R::decode_slice(&buf, &mut whole);
                }
                let lo = all[c.rank()].positions[j] as usize;
                let hi = if c.rank() + 1 < p {
                    all[c.rank() + 1].positions[j] as usize
                } else {
                    whole.len()
                };
                expected.push(whole[lo..hi].to_vec());
                let (off, len) = (dir.runs[j].offsets[c.rank()], own.elems);
                let stays = (hi as u64).min(off + len).saturating_sub((lo as u64).max(off));
                shipped += len - stays;
                kept += stays;
            }
            let copied = st.pool().counters().copied_bytes;
            let outcome = external_alltoall::<R>(&c, st, &cfg2, &dir, &all).expect("alltoall");
            let copied = st.pool().counters().copied_bytes - copied;
            Exchanged { outcome, expected, copied, shipped, kept }
        });
        (storage, results)
    }

    /// A fragment's records, read back on their own.
    fn fragment_reader<'a, R: Record>(
        st: &'a demsort_storage::PeStorage,
        f: &MergeFragment<R::Key>,
    ) -> RecordRunReader<'a, R> {
        let run = demsort_storage::Run { blocks: f.blocks.clone(), bytes: 0 };
        RecordRunReader::with_range(st, &run, f.records.end, f.records.start, f.records.end, false)
    }

    /// A merge input's fragments read back one after the other; each
    /// fragment's first keys are its blocks'.
    fn decode_input<R: Record>(st: &demsort_storage::PeStorage, mi: &MergeInput<R::Key>) -> Vec<R> {
        let rpb = records_per_block::<R>(st.block_bytes());
        let mut recs = Vec::new();
        for f in &mi.fragments {
            let run = demsort_storage::Run { blocks: f.blocks.clone(), bytes: 0 };
            let all = f.blocks.len() as u64 * rpb as u64;
            let mut whole = RecordRunReader::<R>::with_range(st, &run, all, 0, all, false);
            let keys: Vec<R::Key> =
                whole.read_to_vec().expect("read blocks").iter().step_by(rpb).map(R::key).collect();
            assert_eq!(keys, f.first_keys, "first keys of {:?}", f.blocks);
            recs.extend(fragment_reader::<R>(st, f).read_to_vec().expect("read fragment"));
        }
        recs
    }

    fn check(p: usize, local_n: usize, spec: InputSpec, algo: AlgoConfig) {
        check_on(MachineConfig::tiny(p), local_n, spec, algo);
    }

    fn check_on(machine: MachineConfig, local_n: usize, spec: InputSpec, algo: AlgoConfig) {
        let (storage, pes) = exchange(machine, local_n, spec, algo, |e| e);
        for (pe, x) in pes.iter().enumerate() {
            assert_eq!(x.outcome.merge_inputs.len(), x.expected.len(), "one input per run");
            for (j, (mi, want)) in x.outcome.merge_inputs.iter().zip(&x.expected).enumerate() {
                let got: Vec<Element16> = decode_input(storage.pe(pe), mi);
                assert_eq!(got.len(), want.len(), "PE {pe} run {j} piece size ({spec:?})");
                assert_eq!(&got, want, "PE {pe} run {j} piece content");
                assert!(
                    got.windows(2).all(|w| w[0].key <= w[1].key),
                    "PE {pe} run {j} piece must be sorted"
                );
            }
        }
    }

    #[test]
    fn delivers_exact_run_pieces_random_input() {
        check(3, 700, InputSpec::Uniform, AlgoConfig::default());
    }

    #[test]
    fn delivers_exact_run_pieces_worst_case() {
        for randomize in [true, false] {
            check(
                4,
                1024,
                InputSpec::Banded { block_elems: 16 },
                AlgoConfig { randomize, ..AlgoConfig::default() },
            );
        }
    }

    #[test]
    fn tiny_memory_budget_forces_many_suboperations() {
        // The smallest memory the machine accepts, 4 blocks per PE: the
        // exchange's budget is 512 bytes, 32 records.
        let machine = MachineConfig { mem_bytes_per_pe: 4 * 256, ..MachineConfig::tiny(3) };
        let worst = InputSpec::Banded { block_elems: 16 };
        let algo = AlgoConfig::default;
        let (_, pes) = exchange(machine.clone(), 900, worst, algo(), |e| e);
        assert!(
            pes.iter().any(|x| x.outcome.subops > 1),
            "a 4-block memory budget must split the exchange: {:?}",
            pes.iter().map(|x| x.outcome.subops).collect::<Vec<_>>()
        );
        // Correctness under the multi-suboperation path.
        check_on(machine, 900, worst, algo());
    }

    #[test]
    fn randomization_shrinks_sources_seen() {
        let worst = InputSpec::Banded { block_elems: 16 };
        let sources = |randomize: bool| {
            let algo = AlgoConfig { randomize, ..AlgoConfig::default() };
            let (_, pes) = exchange(MachineConfig::tiny(4), 1024, worst, algo, |e| e);
            pes.iter().map(|x| x.outcome.sources_seen).max().unwrap_or(0)
        };
        // Without randomization, the banded worst case makes everyone
        // receive from everyone; P' is what the paper's O(R·P') space
        // overhead scales with.
        assert!(sources(false) >= 3, "worst case spreads sources");
    }

    /// The 100-byte record that sorts where `e` does.
    fn wide(e: Element16) -> Record100 {
        let (mut key, mut payload) = ([0u8; 10], [0u8; 90]);
        key[..8].copy_from_slice(&e.key.to_be_bytes());
        payload[..8].copy_from_slice(&e.payload.to_be_bytes());
        Record100::new(Key10(key), payload)
    }

    /// The all-to-all ships record bytes as they lie in the blocks: the
    /// fragments a PE ends with hold exactly the bytes of its global
    /// run ranges, and the phase copies each record it moves twice —
    /// once out of a sent block into the message, once out of the
    /// received message into a fragment block — and meters both.
    fn check_bytes<R: Record + Ord>(p: usize, spec: InputSpec, wide: fn(Element16) -> R) {
        let machine = MachineConfig::tiny(p);
        let (storage, pes) = exchange(machine, 300, spec, AlgoConfig::default(), wide);
        let mut moved = 0;
        for (pe, x) in pes.iter().enumerate() {
            let case = format!("P={p} {} {spec:?} PE {pe}", R::BYTES);
            let mut held = 0;
            for (mi, want) in x.outcome.merge_inputs.iter().zip(&x.expected) {
                let mut got = vec![0u8; want.len() * R::BYTES];
                let mut at = 0;
                for f in &mi.fragments {
                    let bytes = &mut got[at..at + f.elems() as usize * R::BYTES];
                    fragment_reader::<R>(storage.pe(pe), f).copy_into(bytes).expect("read");
                    at += bytes.len();
                }
                assert_eq!(at, got.len(), "{case}: fragment lengths");
                let mut sent = vec![0u8; got.len()];
                R::encode_slice(want, &mut sent);
                assert!(got == sent, "{case}: fragment bytes");
                held += mi.elems();
            }
            let received = held - x.kept;
            let want = (x.shipped + received) * R::BYTES as u64;
            assert_eq!(x.copied, want, "{case}: copied bytes");
            moved += x.shipped;
        }
        assert!(moved > 0, "P={p} {spec:?}: nothing moved");
    }

    #[test]
    fn ships_record_bytes_with_one_metered_copy() {
        for p in [2, 3] {
            for spec in [InputSpec::Uniform, InputSpec::Banded { block_elems: 16 }] {
                check_bytes(p, spec, |e| e);
            }
            for spec in [InputSpec::Uniform, InputSpec::Banded { block_elems: 2 }] {
                check_bytes(p, spec, wide);
            }
        }
    }

    #[test]
    fn touched_blocks_carry_the_fragment_records() {
        // Four blocks of 4 records; the fragment is records 3..13 of them.
        let f = MergeFragment {
            blocks: (0..4).map(|s| BlockId::new(0, s)).collect(),
            first_keys: vec![10u64, 20, 30, 40],
            records: 3..13,
        };
        let got: Vec<(u32, u64, Range<usize>)> =
            f.touched(4).map(|(id, key, recs)| (id.slot, key, recs)).collect();
        assert_eq!(got, vec![(0, 10, 3..4), (1, 20, 0..4), (2, 30, 0..4), (3, 40, 0..1)]);
        assert_eq!(f.elems(), 10);
        // A range that ends on a block boundary touches no block past it.
        let f = MergeFragment { records: 4..8, ..f };
        assert_eq!(f.touched(4).map(|(id, ..)| id.slot).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn exchange_splitters_rejects_malformed_vectors() {
        // Two runs of 8 and 12 records over two PEs: rank 1's vector
        // must sum to its first rank, 10.
        let meta = |half: u64| crate::rundir::RunMeta::<u64> {
            offsets: vec![0, half, 2 * half],
            samples: Vec::new(),
        };
        let dir = RunDirectory::<Element16> { runs: vec![meta(4), meta(6)], local: Vec::new() };
        let good = encode_u64s(&[3, 7]);
        // The empty message, every other strict prefix, one run too many,
        // a position past its run, a sum other than the peer's rank.
        let mut bad: Vec<(Vec<u8>, &str)> =
            (0..good.len()).map(|cut| (good[..cut].to_vec(), "splitter position")).collect();
        bad.push((encode_u64s(&[3, 7, 7]), "8 bytes past 2 positions"));
        bad.push((encode_u64s(&[9, 1]), "position 9 past run 0's 8 elems"));
        bad.push((encode_u64s(&[3, 5]), "positions sum to 8, not the peer's first rank 10"));
        for (msg, why) in &bad {
            let dir = &dir;
            let results = run_cluster(2, move |c| {
                if c.rank() == 1 {
                    c.allgather(msg.clone()).expect("peer sends");
                    return None;
                }
                Some(exchange_splitters(&c, dir, &RunSplitters { positions: vec![0, 0] }))
            });
            let err = results[0].clone().expect("rank 0").expect_err("malformed vector");
            let text = err.to_string();
            assert!(matches!(err, Error::Comm(_)), "{text}");
            assert!(text.contains("rank 0: bad splitter vector from rank 1"), "{text}");
            assert!(text.contains(why), "{} bytes: {text}", msg.len());
        }
        let results = run_cluster(2, |c| {
            let mine = if c.rank() == 0 { vec![0, 0] } else { vec![3, 7] };
            exchange_splitters(&c, &dir, &RunSplitters { positions: mine }).expect("valid")
        });
        assert_eq!(results[0][1].positions, vec![3, 7]);
    }

    #[test]
    fn submessage_roundtrip() {
        // parse(assemble(x)) == x at the wire-format level.
        let cfg = SortConfig::new(MachineConfig::tiny(1), AlgoConfig::default()).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let st = storage.pe(0);
        let recs: Vec<Element16> = (0..40).map(|i| Element16::new(i, i)).collect();
        let fr = crate::recio::write_records(st, &recs).expect("write");
        let dir = RunDirectory::<Element16> {
            runs: vec![crate::rundir::RunMeta { offsets: vec![0, fr.elems], samples: Vec::new() }],
            local: vec![fr],
        };
        let mut segs = vec![Segment { run: 0, start: 5, end: 25, cursor: 5 }];
        let comm = demsort_net::build_mesh(1).pop().expect("one rank");
        let msg =
            assemble_submessage::<Element16>(&comm, st, &dir, &mut segs, 12).expect("assemble");
        let pieces = parse_submessage::<Element16>(&msg, 1).expect("valid");
        assert_eq!(pieces.len(), 1);
        let (run, elems, payload) = pieces[0];
        assert_eq!((run, elems), (0, 12));
        let mut decoded = Vec::new();
        Element16::decode_slice(payload, &mut decoded);
        assert_eq!(decoded, recs[5..17], "quota-limited piece from the cursor");
        assert_eq!(segs[0].cursor, 17);

        // What a peer sends is checked, not indexed: every strict
        // prefix and one out-of-range value per field is an error.
        for cut in 0..msg.len() {
            let short = parse_submessage::<Element16>(&msg[..cut], 1);
            assert!(matches!(short, Err(Error::Comm(_))), "cut {cut}");
        }
        let with = |at: usize, value: u32| {
            let mut bad = msg.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            parse_submessage::<Element16>(&bad, 1).expect_err("out of range").to_string()
        };
        assert!(with(0, 1000).contains("piece count"));
        assert!(with(4, 1).contains("run 1 of 1"));
        assert!(with(8, 0).contains("elems 0"));
        assert!(with(8, 11).contains("past the last piece"));
        assert!(with(8, 13).contains("records"));
    }
}
