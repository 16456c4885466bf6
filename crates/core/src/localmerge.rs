//! Phase 3: the final local multiway merge.
//!
//! "In the third phase, the data is merged locally. Each element is
//! read and written once, no communication is involved in this phase.
//! The internal computation amounts to `O(N/P · log R)`."
//!
//! It is the batch loop the striped merge runs too ([`merge_batches`]),
//! every block of it on the PE's own disks: every fragment carries its
//! blocks' first keys, so the blocks of all `R` runs form one
//! prediction sequence, which one [`MergePrefetcher`] reads in the
//! duality-optimal order (Appendix A)
//! with [`WINDOW_PER_DISK`]` · D` reads in flight, whatever `R` is, and
//! frees as it reads ("blocks that are read to internal buffers are
//! deallocated from disk immediately"). The merged records go to the
//! output run — on the PE's disks, or in a file job into the output
//! file ([`RunDest`]).

use crate::alltoall::MergeInput;
use crate::batchmerge::{merge_batches, prediction_order, BatchMerge, InputBlock};
use crate::recio::{records_per_block, FinishedRun, RecordRunWriter, RunDest};
use demsort_net::Communicator;
use demsort_storage::striping::DEFAULT_WRITE_BEHIND;
use demsort_storage::{MergePrefetcher, PeStorage};
use demsort_types::{AlgoConfig, CpuCounters, Record, Result};

/// Blocks read ahead per disk, and merged per batch. The merge has no
/// collective to amortise, so its batch is the read-ahead window: two
/// blocks per disk keep every disk busy with one batch while the one
/// before it merges.
pub const WINDOW_PER_DISK: usize = 2;

/// Merge the per-run fragment chains on `comm`'s PE into the final
/// output run at `dest`, on up to `cores` threads (at least
/// `algo.par_merge_min_per_thread` records each).
///
/// Returns the output run (with prediction keys, no samples) and the
/// CPU counters of the merge.
pub fn final_merge<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    algo: &AlgoConfig,
    inputs: Vec<MergeInput<R::Key>>,
    cores: usize,
    dest: RunDest,
) -> Result<(FinishedRun<R>, CpuCounters)> {
    let rank = comm.rank();
    let rpb = records_per_block::<R>(st.block_bytes()) as u64;
    let mut blocks = Vec::new();
    for (run, input) in inputs.iter().enumerate() {
        for f in &input.fragments {
            blocks.extend(f.touched(rpb).map(|(id, first_key, records)| InputBlock {
                run,
                first_key,
                id: Some(id),
                records,
            }));
        }
    }
    prediction_order(&mut blocks);
    let window = WINDOW_PER_DISK * st.disks();
    let ids = blocks.iter().filter_map(|b| b.id).collect();
    let mut reads = MergePrefetcher::optimal(st, ids, window, true);
    let how = BatchMerge {
        st,
        rank,
        runs: inputs.len(),
        batch_blocks: window,
        // The merged prefix goes to the writer a window at a time, so
        // the merge holds its carries — a block per run — and no second
        // copy of them.
        emit_limit: window * rpb as usize,
        cores,
        min_per_thread: algo.par_merge_min_per_thread,
        tracer: comm.tracer(),
        pass: 0,
        group: 0,
    };
    let mut writer = RecordRunWriter::<R>::with_window(st, 0, DEFAULT_WRITE_BEHIND, dest);
    let cpu = merge_batches::<R>(&how, &blocks, &mut reads, |emit| {
        writer.push_all(emit)?;
        Ok(CpuCounters::default())
    })?;
    let out = writer.finish()?;
    debug_assert_eq!(
        out.elems,
        inputs.iter().map(MergeInput::elems).sum::<u64>(),
        "the merge must preserve the element count"
    );
    Ok((out, cpu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall::MergeFragment;
    use crate::merge::{merge_k, merge_work};
    use crate::recio::write_records;
    use demsort_net::run_cluster;
    use demsort_storage::{DiskModel, MemBackend, PeStorage};
    use demsort_types::{BufferPool, Element16, Error};
    use std::ops::Range;
    use std::sync::Arc;

    fn storage(block: usize) -> PeStorage {
        PeStorage::with_backend(2, block, DiskModel::paper(), Arc::new(MemBackend::new(2)))
    }

    fn elems(range: std::ops::Range<u64>, stride: u64) -> Vec<Element16> {
        range.map(|i| Element16::new(i * stride, i)).collect()
    }

    /// Records `range` of `fr`, a run of 64-byte blocks, as a fragment:
    /// the blocks the range touches, their first keys, and the range
    /// counted from the first.
    fn fragment(fr: &FinishedRun<Element16>, range: Range<u64>) -> MergeFragment<u64> {
        const RPB: u64 = 4;
        let (first, last) = ((range.start / RPB) as usize, range.end.div_ceil(RPB) as usize);
        let base = first as u64 * RPB;
        MergeFragment {
            blocks: fr.run.blocks[first..last].to_vec(),
            first_keys: fr.block_first_keys[first..last].to_vec(),
            records: range.start - base..range.end - base,
        }
    }

    /// Run `final_merge` on a one-PE cluster.
    fn merge(
        st: &PeStorage,
        inputs: Vec<MergeInput<u64>>,
        cores: usize,
        min_per_thread: usize,
    ) -> (FinishedRun<Element16>, CpuCounters) {
        let algo = AlgoConfig { par_merge_min_per_thread: min_per_thread, ..AlgoConfig::default() };
        let run = |comm: Communicator| {
            final_merge::<Element16>(&comm, st, &algo, inputs.clone(), cores, RunDest::Scratch)
        };
        run_cluster(1, run).remove(0).expect("merge")
    }

    #[test]
    fn merges_fragmented_runs() {
        let st = storage(64);
        // Run 0: two received fragments + a retained middle range that
        // starts and ends mid-block.
        let f0a = write_records(&st, &elems(0..10, 3)).expect("write");
        let slice = write_records(&st, &elems(8..32, 3)).expect("write");
        let f0c = write_records(&st, &elems(30..40, 3)).expect("write");
        // Run 1: a single received fragment interleaving with run 0.
        let f1 = write_records(
            &st,
            &(0..40).map(|i| Element16::new(i * 3 + 1, 100 + i)).collect::<Vec<_>>(),
        )
        .expect("write");

        let inputs = vec![
            MergeInput {
                fragments: vec![
                    fragment(&f0a, 0..10),
                    fragment(&slice, 2..22),
                    fragment(&f0c, 0..10),
                ],
            },
            MergeInput::whole(f1),
        ];
        let (out, cpu) = merge(&st, inputs, 1, 0);
        assert_eq!(out.elems, 80);
        assert_eq!(cpu.elements_merged, 80);
        assert_eq!(cpu.merge_work, 80, "2-way merge: 1 comparison per element");
        let got = crate::recio::read_records::<Element16>(&st, &out.run, out.elems).expect("read");
        assert!(got.windows(2).all(|w| w[0] <= w[1]), "output sorted");
        let keys: Vec<u64> = got.iter().map(|e| e.key).collect();
        let mut expect: Vec<u64> =
            (0..40).map(|i| i * 3).chain((0..40).map(|i| i * 3 + 1)).collect();
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn recycles_input_blocks_in_place() {
        let st = storage(64);
        let a = write_records(&st, &elems(0..64, 2)).expect("write");
        let b = write_records(&st, &elems(0..64, 3)).expect("write");
        let before = st.alloc().in_use();
        let inputs = vec![MergeInput::whole(a), MergeInput::whole(b)];
        let (out, _) = merge(&st, inputs, 1, 0);
        // Inputs freed, output allocated: net usage unchanged.
        assert_eq!(st.alloc().in_use(), before, "inputs recycled into output");
        // Peak stays within input + windows (not input + full output).
        assert!(
            st.alloc().high_water() < before + before / 2 + 8,
            "high water {} vs inputs {}",
            st.alloc().high_water(),
            before
        );
        assert_eq!(out.elems, 128);
    }

    #[test]
    fn empty_and_single_inputs() {
        let st = storage(64);
        let (out, _) = merge(&st, Vec::new(), 1, 0);
        assert_eq!(out.elems, 0);

        let a = write_records(&st, &elems(0..5, 1)).expect("write");
        let (out, _) = merge(&st, vec![MergeInput::whole(a)], 1, 0);
        assert_eq!(out.elems, 5);
        let got = crate::recio::read_records::<Element16>(&st, &out.run, 5).expect("read");
        assert_eq!(got, elems(0..5, 1));
    }

    #[test]
    fn parallel_merge_matches_streaming_merge() {
        // Small blocks force many batches; heavy duplicates (key mod 7)
        // exercise the threshold-tie carry; retained ranges start and
        // end mid-block; one run is empty. Forced fan-out
        // (`par_merge_min_per_thread` 1) splits every batch at 4 cores.
        let run = |cores: usize| {
            let st = storage(64);
            let mut inputs = Vec::new();
            let mut pieces = Vec::new();
            for r in 0..4u64 {
                let mut recs: Vec<Element16> =
                    (0..500u64).map(|i| Element16::new((i * 3 + r) % 7, r * 1000 + i)).collect();
                recs.sort_unstable();
                let fr = write_records(&st, &recs).expect("write");
                let range = match r {
                    0 => 0..500,
                    1 => 3..497,
                    2 => 130..131,
                    _ => 0..0,
                };
                pieces.push(recs[range.start as usize..range.end as usize].to_vec());
                let fragments =
                    if range.is_empty() { Vec::new() } else { vec![fragment(&fr, range)] };
                inputs.push(MergeInput { fragments });
            }
            let (out, cpu) = merge(&st, inputs, cores, 1);
            let got =
                crate::recio::read_records::<Element16>(&st, &out.run, out.elems).expect("read");
            let refs: Vec<&[Element16]> = pieces.iter().map(Vec::as_slice).collect();
            assert_eq!(got, merge_k(&refs), "cores {cores}: the loser tree's order");
            let n = got.len() as u64;
            assert_eq!(cpu.merge_work, merge_work(n, 4), "n · ⌈log2 R⌉ at cores {cores}");
            (got, cpu)
        };
        let (seq, seq_cpu) = run(1);
        let (par, par_cpu) = run(4);
        assert_eq!(par, seq, "parallel local merge must be byte-identical");
        assert_eq!(par_cpu.merge_work, seq_cpu.merge_work, "same n · ⌈log2 R⌉ charge");
        // One thread spends probes only on cutting a batch's prefix into
        // window-sized pieces for the writer; forced fan-out splits every
        // piece over the threads on top.
        assert!(par_cpu.split_probes > seq_cpu.split_probes, "forced fan-out must split");
    }

    #[test]
    fn first_keys_that_lie_are_an_error() {
        // Two runs of three blocks. Claiming run 0's blocks start at 0,
        // 1 and 2 puts them all in the first batch (D = 2: two blocks per
        // disk, four per batch) under a bound of 2 that none of their
        // records is below: three blocks carried above it.
        let st = storage(64);
        let a = write_records(&st, &elems(250..262, 1)).expect("write");
        let b = write_records(&st, &elems(0..12, 1)).expect("write");
        let mut lying = MergeInput::whole(a);
        lying.fragments[0].first_keys = vec![0, 1, 2];
        let algo = AlgoConfig::default();
        let inputs = vec![lying, MergeInput::whole(b)];
        let run = |comm: Communicator| {
            final_merge::<Element16>(&comm, &st, &algo, inputs.clone(), 1, RunDest::Scratch)
        };
        let err = run_cluster(1, run).remove(0).map(|_| ()).expect_err("lying first keys");
        let text = err.to_string();
        assert!(matches!(err, Error::Validation(_)), "{text}");
        assert!(text.contains("rank 0: merge pass 0, group 0, run 0: 12 carried"), "{text}");
    }

    /// The merge's pooled buffers are its read-ahead window and its
    /// writer's, whatever the number of runs: a final merge of `r` runs
    /// of ten blocks each misses a fresh pool at most
    /// `WINDOW_PER_DISK · D + DEFAULT_WRITE_BEHIND + 2` times (reads in
    /// flight, the block being decoded, writes in flight, the block
    /// being filled) — 12 here at every R. When each run's fragment
    /// chain read `max(D, 2)` blocks ahead on its own, the merge missed
    /// 17, 125 and 606 times at R = 4, 40 and 200.
    #[test]
    fn read_buffers_do_not_grow_with_the_runs() {
        const DISKS: usize = 3;
        let block = 64; // 4 Element16 per block
        let bound = (WINDOW_PER_DISK * DISKS + DEFAULT_WRITE_BEHIND.max(DISKS) + 2) as u64;
        for runs in [4u64, 40, 200] {
            let backend = Arc::new(MemBackend::new(DISKS));
            let pool = BufferPool::new(block, 64);
            let st = PeStorage::with_backend_pool(DISKS, block, DiskModel::paper(), backend, pool);
            let inputs: Vec<MergeInput<u64>> = (0..runs)
                .map(|r| {
                    let recs: Vec<Element16> =
                        (0..40).map(|i| Element16::new(i * runs + r, r)).collect();
                    MergeInput::whole(write_records(&st, &recs).expect("write"))
                })
                .collect();
            // A fresh pool: from here on every buffer not yet returned
            // is a miss.
            drop((0..st.pool().available()).map(|_| st.pool().get()).collect::<Vec<_>>());
            let misses = st.pool().counters().misses;
            let (out, _) = merge(&st, inputs, 1, 0);
            assert_eq!(out.elems, 40 * runs);
            let missed = st.pool().counters().misses - misses;
            assert!(missed <= bound, "R = {runs}: {missed} pool misses, bound {bound}");
        }
    }
}
