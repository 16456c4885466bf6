//! The striped merge: passes of bounded fan-in, each group merged batch
//! by batch.
//!
//! Up to `k_max` runs are merged per pass, each group by the batch loop
//! canonical's final merge runs too ([`merge_batches`]). The global
//! *prediction sequence* — the smallest key of every block, recorded at
//! write time — gives the exact order in which blocks are needed
//! \[11\]\[14\]. A batch of the next `Θ(M/B)` blocks is read (each PE
//! reads the blocks on its own disks) and **merged, not re-sorted**,
//! and the merged prefix that is provably complete — smaller than every
//! not-yet-merged block's first key — fills one arena, sized once for
//! the group, from which it is redistributed with one splitter-based
//! exchange ([`Exchange`]: exact splitters, one all-to-all, a `P`-way
//! merge) and written out: striped over the disks for a run a later
//! pass reads, the exchange merging straight into the striping sink and
//! its all-to-all ([`StripedRun::append`]), or — in the last pass —
//! straight into the output file, the exchange's cuts on block
//! boundaries ([`FileOutput`]). The rest stays where it lies, in the
//! blocks in use, for the next batch (at most a block per run, but for
//! a pile of ties). Merging costs `O(n log R)` comparisons per pass
//! instead of the `O(n log n)` per batch that full batch sorting would
//! pay — the internal-work bound that dominates throughput at scale.
//!
//! Every block of a batch is read by one PE, the first live holder of a
//! copy — its owner, unless a recovery re-merges without it — from its
//! own disks: each PE reads its blocks of the group, in prediction order,
//! through one [`MergePrefetcher`] in the duality-optimal issue order
//! (Appendix A), the way canonical's final merge reads. Its window is
//! the PE's share of a batch, so the reads of batch `k+1` are in
//! flight while batch `k` merges and is exchanged (the journal shows
//! the interleaving as
//! [`TraceEv::MergeIssued`](demsort_types::TraceEv::MergeIssued) /
//! [`TraceEv::MergeEmitted`](demsort_types::TraceEv::MergeEmitted)
//! events). No PE reads another's disk.

use super::runs::{FileOutput, RankView, StripedRun};
use crate::batchmerge::{merge_batches, prediction_order, BatchMerge, InputBlock};
use crate::fileio::OutputFile;
use crate::psort::Exchange;
use demsort_net::Communicator;
use demsort_storage::{MergePrefetcher, PeStorage};
use demsort_types::{CpuCounters, Record, Result, SortConfig, Tracer};

/// One merge attempt: what every pass and group of it shares.
pub(super) struct MergeJob<'a> {
    /// The ranks merging, and how they map to global ranks.
    pub comm: &'a Communicator,
    pub view: &'a RankView,
    /// This rank's storage: every block it reads or writes is there.
    pub st: &'a PeStorage,
    pub cfg: &'a SortConfig,
    pub cores: usize,
    /// Runs merged per group.
    pub k_max: usize,
    /// Whether input blocks are freed as they are read: the replicated
    /// sort keeps its initial runs on disk so a recovery can re-merge
    /// them.
    pub free_consumed: bool,
    pub tracer: &'a Tracer,
}

impl MergeJob<'_> {
    /// Run the merge passes over `runs` (more than one), the last into
    /// `output`. Collective over `comm`. Returns the records this rank
    /// wrote, the pass count, and the merge CPU counters.
    pub fn run<R: Record + Ord>(
        &self,
        mut runs: Vec<StripedRun<R::Key>>,
        output: OutputFile<'_>,
    ) -> Result<(u64, usize, CpuCounters)> {
        let mut passes = 0;
        let mut cpu = CpuCounters::default();
        // A pass of several groups writes its runs back to the disks.
        while runs.len() > self.k_max {
            let mut next: Vec<StripedRun<R::Key>> = Vec::new();
            for (group_idx, group) in runs.chunks(self.k_max).enumerate() {
                let (merged, pass_cpu) = self.merge_to_disks::<R>(group, passes, group_idx)?;
                cpu = cpu.merge(&pass_cpu);
                next.push(merged);
            }
            passes += 1;
            runs = next;
        }
        // A pass of one group is the last: it writes the output file.
        // Every rank waited its last input read before its last run's
        // exchange, so the output may be the input.
        let mut file = FileOutput::new(output.open::<R>(self.view.my_global)?);
        let mut exchange = Exchange::with_capacity(self.batch_records::<R>(runs.len()), self.cores);
        let last_cpu = self.merge_group::<R>(&runs, passes, 0, |emit| {
            file.append(self.comm, self.st, self.cfg, &mut exchange, emit, self.cores)
        })?;
        Ok((file.finish(), passes + 1, cpu.merge(&last_cpu)))
    }

    /// Merge one group of striped runs into a new striped run on the
    /// disks: each batch's emitted prefix is striped by one exchange
    /// ([`StripedRun::append`]). Pieces are emitted in globally
    /// increasing key order, so their concatenation is the merged run.
    pub(super) fn merge_to_disks<R: Record + Ord>(
        &self,
        group: &[StripedRun<R::Key>],
        pass: usize,
        group_idx: usize,
    ) -> Result<(StripedRun<R::Key>, CpuCounters)> {
        let Self { comm, st, cfg, view, cores, .. } = *self;
        let mut exchange = Exchange::with_capacity(self.batch_records::<R>(group.len()), cores);
        // Merged runs are never replicated: a recovery re-merges the
        // initial runs.
        let mut merged = StripedRun::new(view, cfg.machine.disks_per_pe, 0);
        let cpu = self.merge_group::<R>(group, pass, group_idx, |emit| {
            merged.append(comm, st, cfg, &mut exchange, emit, cores)
        })?;
        Ok((merged, cpu))
    }

    /// Blocks per batch, over all PEs: `Θ(M/B)`.
    fn batch_blocks(&self) -> usize {
        (self.cfg.machine.mem_blocks_per_pe() * self.comm.size() / 2).max(1)
    }

    /// Records a PE emits in a batch of a group of `runs` runs, or
    /// receives of one, but for a pile of ties: its share of the batch's
    /// blocks and a block per run left from the batch before.
    fn batch_records<R: Record>(&self, runs: usize) -> usize {
        let share = self.batch_blocks().div_ceil(self.comm.size());
        (share + runs) * crate::recio::records_per_block::<R>(self.st.block_bytes())
    }

    /// Merge one group of striped runs batch by batch
    /// ([`merge_batches`]), handing each batch's emitted prefix — locally
    /// sorted, and no smaller than what any PE emitted in an earlier
    /// batch — to `deliver` (collective: every PE calls it for every
    /// batch), which returns the CPU counters of its exchange.
    /// The journalled events are tagged with `pass` and `group_idx`.
    fn merge_group<R: Record + Ord>(
        &self,
        group: &[StripedRun<R::Key>],
        pass: usize,
        group_idx: usize,
        mut deliver: impl FnMut(&[R]) -> Result<CpuCounters>,
    ) -> Result<CpuCounters> {
        let Self { comm, st, view, tracer, .. } = *self;
        let me = view.my_global;

        // The group's blocks in prediction order. First keys and counts
        // are identical on every PE, so every PE walks the same batches —
        // and takes the same thresholds — without a collective. A block
        // is read by the first holder of a copy among the ranks merging,
        // from the copy it stored.
        let mut blocks = Vec::new();
        for (r, run) in group.iter().enumerate() {
            let index = group_idx * self.k_max + r;
            for t in 0..run.counts.len() {
                let id = run.read_here(index, t, me, &view.globals)?;
                let (first_key, records) = (run.first_keys[t], 0..run.counts[t] as usize);
                blocks.push(InputBlock { run: r, first_key, id, records });
            }
        }
        prediction_order(&mut blocks);

        // Batch size: Θ(M/B) blocks globally. This PE reads its own
        // blocks of them with its share of a batch in flight: each block
        // of batch b it takes is replaced by a read of batch b+1's, so
        // those are in flight while b merges and is exchanged. (Two
        // shares hold more pooled buffers and merged no faster.)
        let batch_blocks = self.batch_blocks();
        let window = batch_blocks.div_ceil(comm.size());
        let mine = blocks.iter().filter_map(|b| b.id).collect();
        let mut reads = MergePrefetcher::optimal(st, mine, window, self.free_consumed);
        let how = BatchMerge {
            st,
            rank: me,
            runs: group.len(),
            batch_blocks,
            tracer,
            pass,
            group: group_idx,
        };
        // The sink is collective: one exchange per batch, sent from the
        // arena the batch's prefix fills, its messages in frames sized
        // for the longest.
        let records = self.batch_records::<R>(group.len());
        let mut arena: Vec<R> = Vec::with_capacity(records);
        comm.reserve_frames(records * R::BYTES, comm.size() - 1);
        merge_batches(&how, &blocks, &mut reads, &mut arena, |prefix| {
            let cpu = deliver(prefix)?;
            prefix.clear();
            Ok(cpu)
        })
    }
}
