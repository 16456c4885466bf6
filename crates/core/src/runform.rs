//! Phase 1: randomized, overlapped run formation (Sections IV, IV-E).
//!
//! `R = ⌈N/M⌉` *global* runs are formed. For each run, every PE
//! contributes `m = M/P` bytes of its local input, the run is sorted
//! across all PEs with the distributed internal sort
//! ([`crate::psort`]), and each PE writes its canonical slice of the
//! run back to *local* disk (no striping — this is what saves
//! communication over the Section III algorithm).
//!
//! * **Randomization** — "each PE chooses its participating blocks for
//!   the run randomly. This is implemented by randomly shuffling the
//!   IDs of the local input blocks in a preprocessing step." With
//!   similar per-run input distributions, most elements land on their
//!   final PE already during run formation (Appendix C analyzes how
//!   much data the all-to-all still has to move).
//! * **Sampling** — every `K`-th element of each written slice is kept
//!   as a sample to warm-start multiway selection (Section IV-A).
//! * **Overlapping** — "While run `i` is globally sorted internally, we
//!   first write the (already sorted) run `i−1` before fetching the
//!   data for run `i+1`." The async engine makes this real, and the
//!   writes need no run-sized buffer to wait in: the reads of run `j+1`
//!   are queued before the sort of run `j` starts; the writes of run
//!   `j` are issued by its merge, block by block as the exchange
//!   kernel ([`crate::psort::Exchange`]) emits into the run's writer,
//!   with at most a share of `m` of them in flight
//!   ([`WRITE_WINDOW_DIV`]); the last of them retire under the sort of
//!   run `j+1`, after which the writer is collected. Input slots are
//!   freed when their read is *issued*, so a write may be given a slot
//!   whose read has not run yet — the per-disk FIFO queues put it
//!   behind that read.
//! * **One arena** — a run's local records are decoded into, sorted in
//!   and merged from one vector of `m` bytes that every run reuses, and
//!   each read buffer goes back to the pool as soon as it is decoded.
//!   The in-node sort of 100-byte records sorts 8-byte key tags beside
//!   the arena (`8·n` bytes) and then moves each record once within it
//!   ([`crate::seqsort`]); between that sort and the disk queue a record
//!   is copied twice (into the message that carries it, out of it into
//!   its block), or once if it stays on this PE.
//! * **Single-run special case** — if everything fits in memory
//!   (`R = 1`), each block is sorted immediately after it arrives while
//!   the disk fetches the rest, and the sorted blocks are merged at the
//!   end instead of sorting from scratch.
//! * **In-place** — input blocks are freed as they are read; slice
//!   writes reuse them. A file job has none to free: its input is read
//!   where it lies in the input file ([`LocalInput::Extent`]), and the
//!   one run of a job that fits in memory is written straight into the
//!   output file.

use crate::fileio::OutputFile;
use crate::merge::{merge_cpu, par_merge_k_into};
use crate::psort::Exchange;
use crate::recio::{records_per_block, FinishedRun, RecordRunWriter, RunDest};
use crate::seqsort::sort_in_node;
use demsort_net::Communicator;
use demsort_storage::{EdgeFile, PeStorage, Run};
use demsort_types::{CpuCounters, Record, Result, SortConfig};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// This PE's input — `elems` records — and where run formation reads
/// it from.
#[derive(Clone, Debug)]
pub enum LocalInput {
    /// A record run on this PE's disks ([`ingest_input`]); each block's
    /// slot is freed as its read is issued.
    Blocks {
        /// The blocks (record-aligned layout).
        run: Run,
        /// Number of records.
        elems: u64,
    },
    /// Records from byte `offset` of a file on: a rank's shard of a
    /// job's input, read where it lies
    /// ([`input_shard`](crate::fileio::input_shard)).
    Extent {
        /// The input file.
        file: Arc<EdgeFile>,
        /// Byte offset of the first record.
        offset: u64,
        /// Number of records.
        elems: u64,
    },
}

impl LocalInput {
    /// Number of records.
    pub fn elems(&self) -> u64 {
        match self {
            LocalInput::Blocks { elems, .. } | LocalInput::Extent { elems, .. } => *elems,
        }
    }
}

/// Result of run formation on one PE.
pub struct RunFormOutcome<R: Record> {
    /// This PE's sorted slice of each run (with samples and prediction
    /// keys).
    pub local: Vec<FinishedRun<R>>,
    /// CPU work done in this phase.
    pub cpu: CpuCounters,
}

/// A run's writer may have `m/B / WRITE_WINDOW_DIV` block writes in
/// flight (never fewer than one per disk): enough that the merge
/// feeding it seldom waits for a disk, and a named share of `m` — the
/// write-behind term of a PE's memory, beside the arena, the prefetched
/// group and the exchange's messages.
pub const WRITE_WINDOW_DIV: usize = 4;

/// One in-flight block read: handle plus the number of valid records.
pub type PendingBlock = (demsort_storage::IoHandle, usize);

/// Reads a PE's input one run's worth at a time — the front both sorts'
/// run formation starts from. Block `b` of the input holds records
/// `b·rpb ..`; group `j` is blocks `j·m/B .. (j+1)·m/B` of the block
/// order (the seeded shuffle, or the order the input has); the partial
/// tail block, if any, joins the last group that has full blocks (group
/// 0 when there are none). Groups past the last are empty: a PE with
/// less input than its peers still takes part in their runs.
pub struct GroupReader<'a> {
    st: &'a PeStorage,
    input: LocalInput,
    /// The full blocks' indices, in read order.
    order: Vec<usize>,
    /// Blocks per group (`m/B`).
    bpr: usize,
    /// Records per full block, and in the tail block (0: no tail).
    rpb: usize,
    tail: usize,
    record_bytes: usize,
}

impl<'a> GroupReader<'a> {
    /// A reader over `input` (records of `R`) on `st`, its full blocks
    /// shuffled by `shuffle_seed` or, with `None`, in input order.
    pub fn new<R: Record>(
        st: &'a PeStorage,
        cfg: &SortConfig,
        input: LocalInput,
        shuffle_seed: Option<u64>,
    ) -> Self {
        let rpb = records_per_block::<R>(st.block_bytes());
        let full_blocks = (input.elems() / rpb as u64) as usize;
        let tail = (input.elems() % rpb as u64) as usize;
        if let LocalInput::Blocks { run, .. } = &input {
            let blocks = full_blocks + usize::from(tail > 0);
            debug_assert_eq!(run.blocks.len(), blocks, "input run must be record-aligned");
        }
        let mut order: Vec<usize> = (0..full_blocks).collect();
        if let Some(seed) = shuffle_seed {
            order.shuffle(&mut StdRng::seed_from_u64(seed));
        }
        let bpr = cfg.machine.mem_blocks_per_pe().max(1);
        Self { st, input, order, bpr, rpb, tail, record_bytes: R::BYTES }
    }

    /// Groups that hold any of this PE's input; the cluster forms the
    /// maximum of these over all PEs (at least one run).
    pub fn local_groups(&self) -> usize {
        self.order.len().div_ceil(self.bpr).max(usize::from(self.tail > 0))
    }

    /// Records in the largest group — what the arena
    /// [`GroupReader::collect`] fills has to hold.
    pub fn max_group_records(&self) -> usize {
        self.bpr.min(self.order.len()) * self.rpb + self.tail
    }

    /// Issue the asynchronous reads of group `j`. The one place either
    /// sort reads its input: a block on this PE's disks has its slot
    /// freed as its read is queued (in place: a write may be given the
    /// slot, and the disk's FIFO queue puts it behind the read); block
    /// `b` of a file extent is read where it lies, on disk queue
    /// `b mod D`.
    pub fn issue(&self, j: usize) -> Vec<PendingBlock> {
        let full_blocks = self.order.len();
        let lo = (j * self.bpr).min(full_blocks);
        let hi = ((j + 1) * self.bpr).min(full_blocks);
        let mut pending = Vec::with_capacity(hi - lo + 1);
        let mut read = |b: usize, valid: usize| {
            let handle = match &self.input {
                LocalInput::Blocks { run, .. } => {
                    let id = run.blocks[b];
                    let handle = self.st.engine().read(id);
                    self.st.alloc().free(id);
                    handle
                }
                LocalInput::Extent { file, offset, .. } => {
                    let at = offset + b as u64 * (self.rpb * self.record_bytes) as u64;
                    let len = valid * self.record_bytes;
                    self.st.engine().read_at(b % self.st.disks(), file, at, len)
                }
            };
            pending.push((handle, valid));
        };
        for &b in &self.order[lo..hi] {
            read(b, self.rpb);
        }
        // The partial tail block joins the last group that has room — i.e.
        // the group covering the final full blocks (or group 0 if none).
        let is_last_group = hi == full_blocks && (lo < hi || full_blocks == 0);
        if self.tail > 0 && is_last_group && j * self.bpr <= full_blocks {
            read(full_blocks, self.tail);
        }
        pending
    }

    /// Wait for a group's blocks and decode them into `arena` (cleared
    /// first), metering the decode as copied bytes and handing each read
    /// buffer back to the pool.
    pub fn collect<R: Record>(&self, pending: Vec<PendingBlock>, arena: &mut Vec<R>) -> Result<()> {
        arena.clear();
        for (h, valid) in pending {
            let buf = h.wait()?;
            R::decode_slice(&buf[..valid * R::BYTES], arena);
            self.st.pool().add_copied((valid * R::BYTES) as u64);
            self.st.pool().put(buf);
        }
        Ok(())
    }
}

/// Form all runs. Collective; returns this PE's slices. With `output`,
/// a sort of one run writes it there (this rank's part, at
/// `owned_range(rank).start`) instead of to the PE's disks: it is the
/// sort's last pass.
pub fn form_runs<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
    output: Option<OutputFile<'_>>,
) -> Result<RunFormOutcome<R>> {
    // Randomized (or identity) assignment of local blocks to runs of
    // `m/B` blocks.
    let seed = cfg.algo.seed ^ (comm.rank() as u64).wrapping_mul(0x9E37_79B9);
    let groups = GroupReader::new::<R>(st, cfg, input, cfg.algo.randomize.then_some(seed));
    let num_runs = comm.allreduce_max(groups.local_groups() as u64)?.max(1) as usize;

    let mut cpu_total = CpuCounters::default();
    let mut finished: Vec<FinishedRun<R>> = Vec::with_capacity(num_runs);
    // Every run's local records in turn: decoded into, sorted in and
    // merged from this one vector.
    let mut arena: Vec<R> = Vec::with_capacity(groups.max_group_records());
    let mut exchange = Exchange::new();
    let window = cfg.machine.mem_blocks_per_pe().max(1) / WRITE_WINDOW_DIV;
    // The previous run's writer, its last `window` writes in flight.
    let mut writing: Option<RecordRunWriter<'_, R>> = None;
    let single_run = num_runs == 1 && cfg.algo.overlap;

    // Prefetch the first run's blocks.
    let mut pending = groups.issue(0);

    for j in 0..num_runs {
        // Fetch + decode (or sort-on-arrival) run j's local data.
        if single_run {
            cpu_total = cpu_total.merge(&collect_sorting(st, pending, &mut arena, cores)?);
        } else {
            groups.collect(pending, &mut arena)?;
        }

        // The overlap schedule: run j+1's reads are queued before run
        // j is sorted, and run j−1's last writes are still retiring.
        pending = groups.issue(j + 1);
        if !single_run {
            cpu_total = cpu_total.merge(&sort_in_node(&mut arena, cores));
        }
        // Those writes had the sort to retire in: collect them before
        // run j's merge starts issuing its own.
        if let Some(w) = writing.take() {
            finished.push(w.finish()?);
        }

        // Globally sort run j: splitters, one exchange, and the P-way
        // merge straight into the run's writer. The only run's writer is
        // the output file's. This rank's part of it is its own shard,
        // whose reads `collect` has waited, and no rank writes before the
        // run's exchange, which each enters with its own reads waited —
        // so the output may be the input.
        let dest = match output {
            Some(out) if num_runs == 1 => out.canonical_part::<R>(comm.rank(), comm.size())?,
            _ => RunDest::Scratch,
        };
        // The only run is the output: nothing selects over it.
        let sample_every = if num_runs == 1 { 0 } else { cfg.algo.sample_every };
        let mut w = RecordRunWriter::with_window(st, sample_every, window, dest);
        cpu_total = cpu_total.merge(&exchange.run(comm, &arena, cores, &mut w)?);
        if cfg.algo.overlap {
            writing = Some(w);
        } else {
            finished.push(w.finish()?);
            st.engine().drain()?;
        }
    }
    if let Some(w) = writing.take() {
        finished.push(w.finish()?);
    }
    debug_assert!(pending.is_empty(), "no reads may remain after the last run");

    Ok(RunFormOutcome { local: finished, cpu: cpu_total })
}

/// The single-run special case of [`GroupReader::collect`]: each block
/// is sorted the moment it arrives ("immediately after a block is read
/// from disk, it is sorted, while the disk is busy with subsequent
/// blocks"), and the sorted blocks are merged into `arena` at the end.
/// A block is a few hundred records, so it is sorted on one core; the
/// final merge is what uses `cores`.
fn collect_sorting<R: Record + Ord>(
    st: &PeStorage,
    pending: Vec<PendingBlock>,
    arena: &mut Vec<R>,
    cores: usize,
) -> Result<CpuCounters> {
    let mut cpu = CpuCounters::default();
    arena.clear();
    let mut sorted_blocks: Vec<Vec<R>> = Vec::with_capacity(pending.len());
    for (h, valid) in pending {
        let buf = h.wait()?;
        let mut recs = Vec::with_capacity(valid);
        R::decode_slice(&buf[..valid * R::BYTES], &mut recs);
        st.pool().add_copied((valid * R::BYTES) as u64);
        st.pool().put(buf);
        cpu = cpu.merge(&sort_in_node(&mut recs, 1));
        sorted_blocks.push(recs);
    }
    let views: Vec<&[R]> = sorted_blocks.iter().map(|b| b.as_slice()).collect();
    cpu.split_probes += par_merge_k_into(&views, cores, arena).split_probes;
    Ok(cpu.merge(&merge_cpu(arena.len() as u64, views.len())))
}

/// Write a PE's input records to its local disks (experiment setup;
/// not part of the measured sort).
pub fn ingest_input<R: Record>(st: &PeStorage, recs: &[R]) -> Result<LocalInput> {
    let fr = crate::recio::write_records(st, recs)?;
    Ok(LocalInput::Blocks { run: fr.run, elems: fr.elems })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ClusterStorage;
    use crate::recio::read_records;
    use crate::validate::Fingerprint;
    use demsort_net::run_cluster;
    use demsort_types::{AlgoConfig, Element16, MachineConfig};
    use demsort_workloads::{generate_all, generate_pe_input, InputSpec};

    fn config(pes: usize, randomize: bool, overlap: bool) -> SortConfig {
        let machine = MachineConfig::tiny(pes);
        let algo = AlgoConfig { randomize, overlap, sample_every: 8, ..AlgoConfig::default() };
        SortConfig::new(machine, algo).expect("valid config")
    }

    /// Form runs on a cluster and return each PE's slices (decoded).
    fn run_form(
        spec: InputSpec,
        cfg: &SortConfig,
        local_n: usize,
    ) -> Vec<Vec<(Vec<Element16>, FinishedRun<Element16>)>> {
        let p = cfg.machine.pes;
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage = &storage;
        let cfg2 = cfg.clone();
        run_cluster(p, move |c| {
            let st = storage.pe(c.rank());
            let recs = generate_pe_input(spec, 7, c.rank(), p, local_n);
            let input = ingest_input(st, &recs).expect("ingest");
            let out = form_runs::<Element16>(&c, st, &cfg2, input, 1, None).expect("form runs");
            out.local
                .into_iter()
                .map(|fr| {
                    let recs = read_records::<Element16>(st, &fr.run, fr.elems).expect("read");
                    (recs, fr)
                })
                .collect::<Vec<_>>()
        })
    }

    /// Each run must be globally sorted (slice i < slice i+1, each slice
    /// sorted) and the union of all runs a permutation of the input.
    fn check_runs(spec: InputSpec, cfg: &SortConfig, local_n: usize) {
        let p = cfg.machine.pes;
        let per_pe = run_form(spec, cfg, local_n);
        let num_runs = per_pe[0].len();
        assert!(per_pe.iter().all(|s| s.len() == num_runs), "same run count everywhere");

        let mut all: Vec<Element16> = Vec::new();
        for j in 0..num_runs {
            let mut run_concat: Vec<Element16> = Vec::new();
            for pe in per_pe.iter() {
                let (recs, _) = &pe[j];
                run_concat.extend_from_slice(recs);
            }
            assert!(
                run_concat.windows(2).all(|w| w[0].key <= w[1].key),
                "run {j} must be globally key-sorted ({spec:?})"
            );
            all.extend_from_slice(&run_concat);
        }
        let input = generate_all(spec, 7, p, local_n);
        assert_eq!(all.len(), input.len());
        assert_eq!(Fingerprint::of_slice(&all), Fingerprint::of_slice(&input), "permutation");
    }

    #[test]
    fn forms_sorted_runs_uniform() {
        // tiny(): 256-byte blocks, 16 elems/block, 16 blocks of memory
        // → runs of 256 elements per PE.
        let cfg = config(3, true, true);
        check_runs(InputSpec::Uniform, &cfg, 700); // ⌈700/256⌉ = 3 runs
    }

    #[test]
    fn forms_runs_without_randomization_or_overlap() {
        for (rand, ovl) in [(false, false), (false, true), (true, false)] {
            let cfg = config(2, rand, ovl);
            check_runs(InputSpec::Banded { block_elems: 16 }, &cfg, 600);
        }
    }

    #[test]
    fn single_run_fits_in_memory() {
        let cfg = config(2, true, true);
        check_runs(InputSpec::Uniform, &cfg, 200); // 200 < 256 → R = 1
    }

    #[test]
    fn ragged_input_with_partial_tail_block() {
        let cfg = config(2, true, true);
        check_runs(InputSpec::Uniform, &cfg, 300 + 7); // tail of 7 elems
    }

    #[test]
    fn empty_input() {
        let cfg = config(2, true, true);
        check_runs(InputSpec::Uniform, &cfg, 0);
    }

    #[test]
    fn group_reader_issues_every_block_once_and_the_tail_last() {
        // The one reader under both sorts, over every shape of local
        // input and both sources — blocks on the PE's disks, and the
        // records in place at an offset of a file: canonical drives it
        // shuffled, striped in input order, and either may be asked for
        // more groups than it has (a peer with more input sets the run
        // count). Both sources give the same records in the same groups.
        const PREFIX: usize = 3;
        let cfg = config(1, false, true);
        let bpr = cfg.machine.mem_blocks_per_pe();
        let rpb = records_per_block::<Element16>(cfg.machine.block_bytes);
        let path = std::env::temp_dir().join(format!("demsort-groups-{}", std::process::id()));
        for full_blocks in [0, 1, bpr - 1, bpr, bpr + 1, 3 * bpr] {
            for (tail, extra_runs, seed) in [0, 7]
                .into_iter()
                .flat_map(|t| [0, 2].map(|x| (t, x)))
                .flat_map(|(t, x)| [None, Some(5)].map(|seed| (t, x, seed)))
            {
                let n = full_blocks * rpb + tail;
                let recs: Vec<Element16> = (0..n as u64).map(|i| Element16::new(i, i)).collect();
                let mut bytes = vec![0xEE; (PREFIX + n) * Element16::BYTES];
                Element16::encode_slice(&recs, &mut bytes[PREFIX * Element16::BYTES..]);
                std::fs::write(&path, &bytes).expect("write input file");
                let mut by_source = Vec::new();
                for in_file in [false, true] {
                    let what = format!(
                        "{full_blocks} blocks + {tail}, +{extra_runs} runs, {seed:?}, file {in_file}"
                    );
                    let storage = ClusterStorage::new_mem(&cfg.machine);
                    let st = storage.pe(0);
                    let input = if in_file {
                        let file = std::fs::File::open(&path).expect("open input file");
                        let file = Arc::new(EdgeFile::new(file, &path, 0));
                        let offset = (PREFIX * Element16::BYTES) as u64;
                        LocalInput::Extent { file, offset, elems: n as u64 }
                    } else {
                        ingest_input(st, &recs).expect("ingest")
                    };
                    let groups = GroupReader::new::<Element16>(st, &cfg, input, seed);
                    let local = groups.local_groups();
                    assert_eq!(
                        local,
                        full_blocks.div_ceil(bpr).max(usize::from(tail > 0)),
                        "{what}"
                    );
                    assert!(groups.max_group_records() <= bpr * rpb + tail, "{what}");

                    let mut arena: Vec<Element16> = Vec::new();
                    let mut read = Vec::with_capacity(local + extra_runs);
                    let (mut last_nonempty, mut tail_group) = (0, None);
                    for j in 0..local + extra_runs {
                        groups.collect(groups.issue(j), &mut arena).expect("collect");
                        assert!(arena.len() <= groups.max_group_records(), "{what}: group {j}");
                        assert_eq!(arena.is_empty(), j >= local, "{what}: group {j}");
                        if !arena.is_empty() {
                            last_nonempty = j;
                        }
                        if arena.iter().any(|r| r.key as usize >= full_blocks * rpb) {
                            assert_eq!(tail_group.replace(j), None, "{what}: tail read twice");
                        }
                        read.push(arena.clone());
                    }
                    assert_eq!(tail_group, (tail > 0).then_some(last_nonempty), "{what}");
                    assert_eq!(st.alloc().in_use(), 0, "{what}: every slot freed at issue");
                    let read_in_order: Vec<Element16> = read.concat();
                    if seed.is_none() {
                        assert_eq!(read_in_order, recs, "{what}: input order");
                    }
                    // Whole blocks, each exactly once.
                    let mut starts: Vec<u64> =
                        read_in_order.chunks(rpb).map(|block| block[0].key).collect();
                    assert!(read_in_order
                        .chunks(rpb)
                        .all(|block| block.windows(2).all(|w| w[0].key + 1 == w[1].key)));
                    starts.sort_unstable();
                    let expect: Vec<u64> =
                        (0..n.div_ceil(rpb) as u64).map(|b| b * rpb as u64).collect();
                    assert_eq!(starts, expect, "{what}: every block once");
                    by_source.push(read);
                }
                assert_eq!(by_source[0], by_source[1], "{full_blocks} blocks + {tail}, {seed:?}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slices_carry_samples_and_prediction_keys() {
        let cfg = config(2, true, true);
        let per_pe = run_form(InputSpec::Uniform, &cfg, 512);
        for slices in &per_pe {
            for (recs, fr) in slices {
                if recs.is_empty() {
                    continue;
                }
                assert!(!fr.samples.is_empty(), "samples collected");
                for s in &fr.samples {
                    assert_eq!(s.key, recs[s.pos as usize].key(), "sample matches slice");
                }
                assert_eq!(
                    fr.block_first_keys.len(),
                    fr.run.blocks.len(),
                    "one prediction key per block"
                );
            }
        }
    }

    #[test]
    fn in_place_operation_reuses_input_blocks() {
        // After run formation the input blocks must have been recycled:
        // allocator usage equals the written slices only.
        let cfg = config(2, true, true);
        let p = 2;
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage = &storage;
        let cfg2 = cfg.clone();
        let high_waters = run_cluster(p, move |c| {
            let st = storage.pe(c.rank());
            let recs = generate_pe_input(InputSpec::Uniform, 3, c.rank(), p, 640);
            let input = ingest_input(st, &recs).expect("ingest");
            let blocks_input = st.alloc().in_use();
            form_runs::<Element16>(&c, st, &cfg2, input, 1, None).expect("form");
            (blocks_input, st.alloc().in_use(), st.alloc().high_water())
        });
        for (input_blocks, in_use, high) in high_waters {
            // Slices hold the same data volume as the input (±1 block
            // per run for partial tails).
            assert!(in_use <= input_blocks + 3, "in-place: {in_use} vs input {input_blocks}");
            // Peak usage stays well below 2× input (read-then-write
            // without recycling would need 2×).
            assert!(
                high <= input_blocks + input_blocks / 2 + 4,
                "high water {high} vs input {input_blocks}"
            );
        }
    }

    #[test]
    fn block_buffers_recycle_across_runs() {
        // Six runs of 64 blocks per PE. What run formation keeps in
        // flight is one prefetched group plus the writer's window, and
        // that — not the 384 blocks read — is what it may allocate:
        // every read buffer goes back to the pool once decoded, every
        // written one once retired. (Twice the working set leaves room
        // for a run whose reads were slower than its sort, so that the
        // retiring writer's buffers met a pool that was still full.)
        let machine = MachineConfig {
            pes: 2,
            disks_per_pe: 2,
            block_bytes: 4 << 10,
            mem_bytes_per_pe: 256 << 10,
            cores_per_pe: 1,
        };
        let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid config");
        let (p, bpr) = (cfg.machine.pes, cfg.machine.mem_blocks_per_pe());
        let local_n = 6 * bpr * records_per_block::<Element16>(cfg.machine.block_bytes);
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let (storage, cfg) = (&storage, &cfg);
        let pools = run_cluster(p, move |c| {
            let st = storage.pe(c.rank());
            let recs = generate_pe_input(InputSpec::Uniform, 11, c.rank(), p, local_n);
            let input = ingest_input(st, &recs).expect("ingest");
            let before = st.pool().counters();
            let out = form_runs::<Element16>(&c, st, cfg, input, 1, None).expect("form runs");
            assert_eq!(out.local.len(), 6);
            let after = st.pool().counters();
            (after.hits - before.hits, after.misses - before.misses)
        });
        for (hits, misses) in pools {
            let in_flight = (bpr + bpr / WRITE_WINDOW_DIV) as u64;
            assert!(misses <= 2 * in_flight, "{misses} misses for {in_flight} blocks in flight");
            assert!(hits > 4 * misses, "{hits} hits, {misses} misses");
        }
    }

    #[test]
    fn meters_the_decode_and_the_encode_of_every_record() {
        // A record is copied twice on a PE's pool: decoded out of its
        // read buffer, and encoded into its run's block. Both are
        // metered, whichever path reads the group: several runs
        // (`GroupReader::collect`), or one sorted on arrival
        // (`collect_sorting`).
        for local_n in [700, 200] {
            let cfg = config(2, true, true);
            let storage = ClusterStorage::new_mem(&cfg.machine);
            let (storage, cfg) = (&storage, &cfg);
            let per_pe = run_cluster(2, move |c| {
                let st = storage.pe(c.rank());
                let recs = generate_pe_input(InputSpec::Uniform, 5, c.rank(), 2, local_n);
                let input = ingest_input(st, &recs).expect("ingest");
                let before = st.pool().counters().copied_bytes;
                let out = form_runs::<Element16>(&c, st, cfg, input, 1, None).expect("form runs");
                let written: u64 = out.local.iter().map(|fr| fr.elems).sum();
                (out.local.len(), written, st.pool().counters().copied_bytes - before)
            });
            for (runs, written, copied) in per_pe {
                let both = (local_n as u64 + written) * Element16::BYTES as u64;
                assert_eq!(
                    copied, both,
                    "{runs} run(s): {local_n} records read, {written} written"
                );
            }
        }
    }

    #[test]
    fn randomization_mixes_bands_within_runs() {
        // Banded worst case: without randomization, run j holds only
        // band j; with randomization, each run spans many bands.
        let cfg_rand = config(2, true, true);
        let cfg_det = config(2, false, true);
        let bands_of = |per_pe: Vec<Vec<(Vec<Element16>, FinishedRun<Element16>)>>| -> Vec<usize> {
            let num_runs = per_pe[0].len();
            (0..num_runs)
                .map(|j| {
                    let mut bands: Vec<u64> =
                        per_pe.iter().flat_map(|s| s[j].0.iter().map(|e| e.key >> 40)).collect();
                    bands.sort_unstable();
                    bands.dedup();
                    bands.len()
                })
                .collect()
        };
        let spec = InputSpec::Banded { block_elems: 16 };
        let det = bands_of(run_form(spec, &cfg_det, 1024));
        let rand = bands_of(run_form(spec, &cfg_rand, 1024));
        let det_max = det.iter().max().copied().unwrap_or(0);
        let rand_min = rand.iter().min().copied().unwrap_or(0);
        assert!(
            rand_min > det_max,
            "randomized runs must span more bands: det {det:?} vs rand {rand:?}"
        );
    }
}
