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
//! deallocated from disk immediately"). The loop's loser tree reads each
//! record from the block it was read into and hands it to the output
//! run's writer, which encodes it into the block it is written from —
//! on the PE's disks, or in a file job into the output file
//! ([`RunDest`]): a record is copied once on its way through the merge.

use crate::alltoall::MergeInput;
use crate::batchmerge::{merge_batches, prediction_order, BatchMerge, InputBlock};
use crate::recio::{records_per_block, FinishedRun, RecordRunWriter, RunDest};
use demsort_net::Communicator;
use demsort_storage::striping::DEFAULT_WRITE_BEHIND;
use demsort_storage::{MergePrefetcher, PeStorage};
use demsort_types::{CpuCounters, Record, Result};

/// Blocks read ahead per disk, and merged per batch. The merge has no
/// collective to amortise, so its batch is the read-ahead window: two
/// blocks per disk keep every disk busy with one batch while the one
/// before it merges.
pub const WINDOW_PER_DISK: usize = 2;

/// Merge the per-run fragment chains on `comm`'s PE into the final
/// output run at `dest`.
///
/// Returns the output run (with prediction keys, no samples) and the
/// CPU counters of the merge.
pub fn final_merge<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    inputs: Vec<MergeInput<R::Key>>,
    dest: RunDest,
) -> Result<(FinishedRun<R>, CpuCounters)> {
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
        rank: comm.rank(),
        runs: inputs.len(),
        batch_blocks: window,
        tracer: comm.tracer(),
        pass: 0,
        group: 0,
    };
    let mut writer = RecordRunWriter::<R>::with_window(st, 0, DEFAULT_WRITE_BEHIND, dest);
    let cpu =
        merge_batches(&how, &blocks, &mut reads, &mut writer, |_| Ok(CpuCounters::default()))?;
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
    use demsort_types::trace::TraceOp;
    use demsort_types::{BufferPool, Element16, Error, TraceEv, TraceRecord, Tracer};
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
    ) -> (FinishedRun<Element16>, CpuCounters) {
        merge_traced(st, inputs).0
    }

    /// [`merge`], and the rank's journal.
    fn merge_traced(
        st: &PeStorage,
        inputs: Vec<MergeInput<u64>>,
    ) -> ((FinishedRun<Element16>, CpuCounters), Vec<TraceRecord>) {
        let run = |mut comm: Communicator| {
            let tracer = Tracer::to_buffer(0);
            comm.set_tracer(tracer.clone());
            let out = final_merge::<Element16>(&comm, st, inputs.clone(), RunDest::Scratch);
            (out.expect("merge"), tracer.drain())
        };
        run_cluster(1, run).remove(0)
    }

    #[test]
    fn merges_fragmented_runs() {
        let st = storage(64);
        // Run 0: two received fragments + a retained middle range that
        // starts and ends mid-block. Its first block starts no lower
        // than the fragment before it ends, as a retained range's does:
        // lower ranks' slices hold no record above this PE's.
        let f0a = write_records(&st, &elems(0..10, 3)).expect("write");
        let slice = write_records(&st, &elems(9..33, 3)).expect("write");
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
                    fragment(&slice, 1..21),
                    fragment(&f0c, 0..10),
                ],
            },
            MergeInput::whole(f1),
        ];
        let (out, cpu) = merge(&st, inputs);
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
        let (out, _) = merge(&st, inputs);
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
        let (out, _) = merge(&st, Vec::new());
        assert_eq!(out.elems, 0);

        let a = write_records(&st, &elems(0..5, 1)).expect("write");
        let (out, _) = merge(&st, vec![MergeInput::whole(a)]);
        assert_eq!(out.elems, 5);
        let got = crate::recio::read_records::<Element16>(&st, &out.run, 5).expect("read");
        assert_eq!(got, elems(0..5, 1));
    }

    #[test]
    fn parallel_merge_matches_streaming_merge() {
        // Small blocks force many batches; heavy duplicates (key mod 7)
        // exercise the ties at every batch bound; retained ranges start
        // and end mid-block; one run is empty. The merge is the loser
        // tree's over the pieces, charges n · ⌈log2 R⌉ comparisons,
        // splits nothing over threads, and journals one `merge_par` span
        // per batch around its loop: thread 0 of 1, the batch's records.
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
            let fragments = if range.is_empty() { Vec::new() } else { vec![fragment(&fr, range)] };
            inputs.push(MergeInput { fragments });
        }
        let ((out, cpu), journal) = merge_traced(&st, inputs);
        let got = crate::recio::read_records::<Element16>(&st, &out.run, out.elems).expect("read");
        let refs: Vec<&[Element16]> = pieces.iter().map(Vec::as_slice).collect();
        assert_eq!(got, merge_k(&refs), "the loser tree's order");
        assert_eq!(cpu.merge_work, merge_work(got.len() as u64, 4), "n · ⌈log2 R⌉");
        assert_eq!(cpu.split_probes, 0, "no batch is split over threads");
        let batches = journal.iter().filter(|r| matches!(r.ev, TraceEv::MergeEmitted { .. }));
        let spans: Vec<(usize, usize)> = journal
            .iter()
            .filter_map(|r| match (&r.op, &r.ev) {
                (TraceOp::End(_), TraceEv::MergePar { batch, thread, threads, len, .. }) => {
                    assert_eq!((*thread, *threads), (0, 1), "one thread per batch");
                    Some((*batch, *len))
                }
                _ => None,
            })
            .collect();
        assert!(spans.len() > 2, "several batches");
        assert_eq!(spans.len(), batches.count(), "one span per batch");
        assert!(spans.iter().enumerate().all(|(b, s)| s.0 == b), "in batch order");
        assert_eq!(spans.iter().map(|s| s.1).sum::<usize>(), got.len(), "spans count every record");
        demsort_types::trace::validate_rank_journal(&journal).expect("valid journal");
    }

    #[test]
    fn first_keys_that_lie_are_an_error() {
        // Two runs of three blocks. Claiming run 0's blocks start at 0,
        // 1 and 2 lets its first block in before run 1's, and its last
        // record, 253, lies above the next block's first key, 1. A block
        // whose first key lies above its first record is caught too:
        // run 1's second block claims 5, and its first record is 4.
        let st = storage(64);
        let case = |lie: &dyn Fn(&mut [MergeInput<u64>])| {
            let a = write_records(&st, &elems(250..262, 1)).expect("write");
            let b = write_records(&st, &elems(0..12, 1)).expect("write");
            let mut inputs = vec![MergeInput::whole(a), MergeInput::whole(b)];
            lie(&mut inputs);
            let run = |comm: Communicator| {
                final_merge::<Element16>(&comm, &st, inputs.clone(), RunDest::Scratch)
            };
            let err = run_cluster(1, run).remove(0).map(|_| ()).expect_err("lying first keys");
            assert!(matches!(err, Error::Validation(_)), "{err}");
            err.to_string()
        };
        let text = case(&|inputs| inputs[0].fragments[0].first_keys = vec![0, 1, 2]);
        let want = "rank 0: merge pass 0, group 0, run 0: a block's last record lies above the \
                    first key of the run's next block";
        assert!(text.contains(want), "{text}");
        let text = case(&|inputs| inputs[1].fragments[0].first_keys[1] = 5);
        let want = "rank 0: merge pass 0, group 0, run 1: a block's first record lies below its \
                    first key";
        assert!(text.contains(want), "{text}");
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
            let (out, _) = merge(&st, inputs);
            assert_eq!(out.elems, 40 * runs);
            let missed = st.pool().counters().misses - misses;
            assert!(missed <= bound, "R = {runs}: {missed} pool misses, bound {bound}");
        }
    }
}
