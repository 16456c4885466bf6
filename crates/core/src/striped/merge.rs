//! The striped merge: passes of bounded fan-in, each group merged batch
//! by batch.
//!
//! Up to `k_max` runs are merged per pass, each group by the batch loop
//! canonical's final merge runs too ([`merge_batches`]). The global
//! *prediction sequence* — the smallest key of every block, recorded at
//! write time — gives the exact order in which blocks are needed
//! \[11\]\[14\]. A batch of the next `Θ(M/B)` blocks is fetched (each PE
//! reads the blocks on its own disks) and **merged, not re-sorted**,
//! and the merged prefix that is provably complete — smaller than every
//! not-yet-merged block's first key — is redistributed with one
//! splitter-based exchange ([`Exchange`]: exact splitters, one
//! all-to-all, a `P`-way merge) and written out: striped over the disks
//! for a run a later pass reads, the exchange merging straight into the
//! striping sink and its all-to-all ([`DiskOutput`]), or — in the last
//! pass — straight into the output file, the exchange's cuts on block
//! boundaries ([`FileOutput`]). The
//! rest stays buffered per run for the next batch (at most `B`
//! elements per run remain unmerged, so carry-over is bounded). Merging
//! costs `O(n log R)` comparisons per pass instead of the `O(n log n)`
//! per batch that full batch sorting would pay — the internal-work
//! bound that dominates throughput at scale.
//!
//! The group's block source reads through the location-transparent
//! [`ClusterStorage`] block service: a batch's fetches are issued
//! asynchronously in the duality-optimal prefetch order
//! ([`duality_issue_order`], Appendix A), and the fetches for batch
//! `k+1` are issued **before** batch `k` is merged (double-buffered
//! prefetch — the journal shows the interleaving as
//! [`TraceEv::MergeIssued`](demsort_types::TraceEv::MergeIssued) /
//! [`TraceEv::MergeEmitted`](demsort_types::TraceEv::MergeEmitted)
//! events), so the reads overlap the merge and the exchange.

use super::runs::{DiskOutput, FileOutput, RankView, StripedRun};
use crate::batchmerge::{merge_batches, prediction_order, BatchMerge, BlockSource, InputBlock};
use crate::ctx::{BlockFetch, ClusterStorage};
use crate::fileio::OutputFile;
use crate::psort::Exchange;
use demsort_net::Communicator;
use demsort_storage::{duality_issue_order, BlockId};
use demsort_types::{CpuCounters, Record, Result, SortConfig, Tracer};
use std::collections::VecDeque;

/// One merge attempt: what every pass and group of it shares.
pub(super) struct MergeJob<'a> {
    /// The ranks merging, and how they map to global ranks.
    pub comm: &'a Communicator,
    pub view: &'a RankView,
    pub storage: &'a ClusterStorage,
    pub cfg: &'a SortConfig,
    pub cores: usize,
    /// Runs merged per group.
    pub k_max: usize,
    /// Whether fetched input blocks are released after consumption:
    /// the replicated sort keeps its initial runs on disk so a recovery
    /// can re-merge them.
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
        let me = self.view.my_global;
        let (st, mut file) = (self.storage.pe(me), FileOutput::new(output.open::<R>(me)?));
        let mut exchange = Exchange::new();
        let last_cpu = self.merge_group::<R>(&runs, passes, 0, |emit| {
            file.append(self.comm, st, self.cfg, &mut exchange, emit, self.cores)
        })?;
        Ok((file.finish(), passes + 1, cpu.merge(&last_cpu)))
    }

    /// Merge one group of striped runs into a new striped run on the
    /// disks: each batch's emitted prefix is striped by one exchange
    /// ([`DiskOutput`]). Pieces are emitted in globally increasing key
    /// order, so their concatenation is the merged run.
    pub(super) fn merge_to_disks<R: Record + Ord>(
        &self,
        group: &[StripedRun<R::Key>],
        pass: usize,
        group_idx: usize,
    ) -> Result<(StripedRun<R::Key>, CpuCounters)> {
        let Self { comm, storage, cfg, view, cores, .. } = *self;
        let st = storage.pe(view.my_global);
        let mut exchange = Exchange::new();
        // Merged runs are never replicated: a recovery re-merges the
        // initial runs.
        let mut merged = DiskOutput::new(view, 0);
        let cpu = self.merge_group::<R>(group, pass, group_idx, |emit| {
            merged.append(comm, st, cfg, &mut exchange, emit, cores)
        })?;
        Ok((merged.finish(), cpu))
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
        deliver: impl FnMut(&[R]) -> Result<CpuCounters>,
    ) -> Result<CpuCounters> {
        let Self { comm, storage, cfg, view, cores, tracer, .. } = *self;
        let me = view.my_global;
        let st = storage.pe(me);
        let p = comm.size();

        // The group's blocks in prediction order. The directories are
        // identical on every PE, so every PE walks the same batches —
        // and takes the same thresholds — without a collective.
        let mut blocks = Vec::new();
        for (r, run) in group.iter().enumerate() {
            blocks.extend((0..run.blocks.len()).map(|g| InputBlock {
                run: r,
                first_key: run.first_keys[g],
                owner: run.owners[g] as usize,
                id: run.blocks[g],
                records: 0..run.counts[g] as usize,
            }));
        }
        prediction_order(&mut blocks);

        // Batch size: Θ(M/B) blocks globally.
        let batch_blocks = (cfg.machine.mem_blocks_per_pe() * p / 2).max(1);
        let mut source = ClusterSource {
            storage,
            me,
            buffers: batch_blocks.div_ceil(p).max(st.disks()),
            free_consumed: self.free_consumed,
            pending: VecDeque::new(),
        };
        let how = BatchMerge {
            st,
            rank: me,
            runs: group.len(),
            batch_blocks,
            // The sink is collective: one exchange per batch.
            emit_limit: usize::MAX,
            cores,
            // 0 = the engine's auto policy (per-thread floor + host cap);
            // an explicit knob value forces that floor on any host.
            min_per_thread: cfg.algo.par_merge_min_per_thread,
            tracer,
            pass,
            group: group_idx,
        };
        merge_batches(&how, &blocks, &mut source, deliver)
    }
}

/// A striped merge's block source: each PE reads the batch blocks that
/// live on its disks, through the location-transparent block service.
/// A batch's fetches are issued asynchronously — in the duality-optimal
/// prefetch order (Appendix A), which the engine's per-disk FIFO queues
/// realize — and only waited on when the batch is merged, one batch
/// later.
struct ClusterSource<'a> {
    storage: &'a ClusterStorage,
    me: usize,
    /// The duality schedule's buffer count.
    buffers: usize,
    /// Whether a fetched block's slot is reusable at once — the backing
    /// bytes are only released on overwrite — which it is unless the
    /// run is an initial run of a replicated sort, which a recovery may
    /// need to re-read.
    free_consumed: bool,
    /// Per issued batch, its blocks on this PE: index in the batch,
    /// block, fetch.
    pending: VecDeque<Vec<(usize, BlockId, BlockFetch)>>,
}

impl<K> BlockSource<K> for ClusterSource<'_> {
    fn issue(&mut self, batch: &[InputBlock<K>]) -> Result<()> {
        let mine: Vec<(usize, BlockId)> = batch
            .iter()
            .enumerate()
            .filter(|(_, b)| b.owner == self.me)
            .map(|(i, b)| (i, b.id))
            .collect();
        let ids: Vec<BlockId> = mine.iter().map(|&(_, id)| id).collect();
        let schedule = duality_issue_order(&ids, self.buffers);
        let fetches = self.storage.fetch_blocks_scheduled(self.me, &ids, &schedule)?;
        self.pending
            .push_back(mine.into_iter().zip(fetches).map(|((i, id), f)| (i, id, f)).collect());
        Ok(())
    }

    fn wait(&mut self, _: &[InputBlock<K>], mut take: impl FnMut(usize, Box<[u8]>)) -> Result<()> {
        // In issue order: the transport requires it.
        for (i, id, fetch) in self.pending.pop_front().unwrap_or_default() {
            let buf = fetch.wait()?;
            if self.free_consumed {
                self.storage.pe(self.me).alloc().free(id);
            }
            take(i, buf);
        }
        Ok(())
    }
}
