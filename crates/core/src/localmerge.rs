//! Phase 3: the final local multiway merge.
//!
//! "In the third phase, the data is merged locally. Each element is
//! read and written once, no communication is involved in this phase.
//! The internal computation amounts to `O(N/P · log R)`."
//!
//! Each run contributes one sorted stream: its redistribution fragments
//! ([`crate::alltoall::MergeInput`]) read as one
//! [`RecordRunReader::chain`], so the next fragment's blocks are read
//! ahead while the previous one drains. An `R`-way loser tree merges the
//! streams into the PE's final output run — on its disks, or in a file
//! job straight into the output file ([`RunDest`]). Input blocks are
//! recycled the moment they have been read ("blocks that are read to
//! internal buffers are deallocated from disk immediately, so there are
//! always blocks available for writing the output") — peak extra space
//! is the read-ahead plus write-behind windows.

use crate::alltoall::{MergeFragment, MergeInput};
use crate::merge::{merge_cpu, CarryMerge, LoserTree};
use crate::recio::{FinishedRun, RecordRunReader, RecordRunWriter, RunDest};
use demsort_storage::striping::DEFAULT_WRITE_BEHIND;
use demsort_storage::PeStorage;
use demsort_types::{CpuCounters, Record, Result};

/// Merge the per-run fragment chains into the final output run at
/// `dest`, using up to `cores` threads for the batch merges.
///
/// Returns the output run (with prediction keys, no samples) and the
/// CPU counters of the merge.
pub fn final_merge<R: Record + Ord>(
    st: &PeStorage,
    inputs: Vec<MergeInput>,
    cores: usize,
    dest: RunDest,
) -> Result<(FinishedRun<R>, CpuCounters)> {
    let mut writer = RecordRunWriter::<R>::with_window(st, 0, DEFAULT_WRITE_BEHIND, dest);
    let (total, cpu) = merge_into::<R>(st, inputs, cores, |rec| writer.push(rec))?;
    let out = writer.finish()?;
    debug_assert_eq!(out.elems, total, "merge must preserve the element count");
    Ok((out, cpu))
}

/// Merge the fragment chains, delivering each record in sorted order to
/// `deliver` instead of writing a run — the pipelined-sorting hook
/// (Section VII: "the output is not written to disk but fed into a
/// postprocessor that requires its input in sorted order").
///
/// With `cores = 1` the merge streams record-at-a-time through a loser
/// tree; with more cores it buffers a few blocks per chain and merges
/// each batch with the in-node parallel merge (strictly below the
/// smallest unread key, like the striped batch merge), delivering the
/// same records in the same order either way.
pub fn merge_into<R: Record + Ord>(
    st: &PeStorage,
    inputs: Vec<MergeInput>,
    cores: usize,
    mut deliver: impl FnMut(R) -> Result<()>,
) -> Result<(u64, CpuCounters)> {
    let total: u64 = inputs.iter().map(MergeInput::elems).sum();
    let k = inputs.len();

    // One reader per run, chaining its fragments in order; each block
    // is read once and recycled as it drains.
    let mut chains: Vec<RecordRunReader<'_, R>> = inputs
        .iter()
        .map(|mi| RecordRunReader::chain(st, mi.fragments.iter().map(MergeFragment::range), true))
        .collect();

    if cores <= 1 {
        let mut heads = Vec::with_capacity(k);
        for c in chains.iter_mut() {
            heads.push(c.next_rec()?);
        }
        let mut tree = LoserTree::new(heads);
        while let Some(w) = tree.winner() {
            let next = chains[w].next_rec()?;
            deliver(tree.replace_winner(next))?;
        }
        return Ok((total, merge_cpu(total, k)));
    }

    // Batched parallel path: keep a few blocks per chain buffered plus
    // one lookahead record, merge everything strictly below the
    // smallest lookahead key with the in-node parallel merge, repeat —
    // the carry rule of the striped batch merge ([`CarryMerge`]): ties
    // with the threshold stay buffered until it moves past them, which
    // keeps the emitted order identical to the streaming tree's.
    let rpb = (st.block_bytes() / R::BYTES).max(1);
    let mut target = rpb * 4;
    let mut carry = CarryMerge::<R>::new(k);
    let mut emit: Vec<R> = Vec::new();
    let mut ahead: Vec<Option<R>> = Vec::with_capacity(k);
    for c in chains.iter_mut() {
        ahead.push(c.next_rec()?);
    }
    let mut split_probes = 0u64;
    loop {
        for (i, buf) in carry.sources.iter_mut().enumerate() {
            while buf.len() < target {
                match ahead[i].take() {
                    Some(r) => {
                        buf.push(r);
                        ahead[i] = chains[i].next_rec()?;
                    }
                    None => break,
                }
            }
        }
        let threshold: Option<R::Key> = ahead.iter().flatten().map(Record::key).min();
        split_probes += carry.emit_below(
            threshold.map(|t| move |x: &R| x.key() < t),
            cores,
            0,
            &mut emit,
            |_, _, _, _| 0,
            |_, _, _, _, _| {},
        );
        for &rec in &emit {
            deliver(rec)?;
        }
        if threshold.is_none() {
            break;
        }
        // A run of threshold ties can fill every live buffer without
        // any record strictly below it; widen the window until the
        // tying chains drain and the threshold moves on.
        if emit.is_empty() {
            target *= 2;
        }
    }

    let mut cpu = merge_cpu(total, k);
    cpu.split_probes = split_probes;
    Ok((total, cpu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recio::write_records;
    use demsort_storage::{DiskModel, MemBackend, PeStorage};
    use demsort_types::Element16;
    use std::sync::Arc;

    fn storage(block: usize) -> PeStorage {
        PeStorage::with_backend(2, block, DiskModel::paper(), Arc::new(MemBackend::new(2)))
    }

    fn elems(range: std::ops::Range<u64>, stride: u64) -> Vec<Element16> {
        range.map(|i| Element16::new(i * stride, i)).collect()
    }

    #[test]
    fn merges_fragmented_runs() {
        let st = storage(64);
        // Run 0: two received fragments + a retained middle range.
        let f0a = write_records(&st, &elems(0..10, 3)).expect("write");
        let retained_store = write_records(&st, &elems(10..30, 3)).expect("write");
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
                    MergeFragment::Received { run: f0a.run, elems: f0a.elems },
                    MergeFragment::Retained {
                        run: retained_store.run,
                        slice_elems: retained_store.elems,
                        start: 0,
                        end: retained_store.elems,
                    },
                    MergeFragment::Received { run: f0c.run, elems: f0c.elems },
                ],
            },
            MergeInput {
                fragments: vec![MergeFragment::Received { run: f1.run, elems: f1.elems }],
            },
        ];
        let (out, cpu) = final_merge::<Element16>(&st, inputs, 1, RunDest::Scratch).expect("merge");
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
        let inputs = vec![
            MergeInput { fragments: vec![MergeFragment::Received { run: a.run, elems: a.elems }] },
            MergeInput { fragments: vec![MergeFragment::Received { run: b.run, elems: b.elems }] },
        ];
        let (out, _) = final_merge::<Element16>(&st, inputs, 1, RunDest::Scratch).expect("merge");
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
        let (out, _) =
            final_merge::<Element16>(&st, Vec::new(), 1, RunDest::Scratch).expect("merge");
        assert_eq!(out.elems, 0);

        let a = write_records(&st, &elems(0..5, 1)).expect("write");
        let inputs =
            vec![MergeInput { fragments: vec![MergeFragment::Received { run: a.run, elems: 5 }] }];
        let (out, _) = final_merge::<Element16>(&st, inputs, 1, RunDest::Scratch).expect("merge");
        assert_eq!(out.elems, 5);
        let got = crate::recio::read_records::<Element16>(&st, &out.run, 5).expect("read");
        assert_eq!(got, elems(0..5, 1));
    }

    #[test]
    fn parallel_merge_matches_streaming_merge() {
        // Small blocks force many refill rounds; heavy duplicates (key
        // mod 7) exercise the threshold-tie carry of the batched path.
        let run = |cores: usize| {
            let st = storage(64);
            let runs: Vec<_> = (0..3)
                .map(|r| {
                    let mut recs: Vec<Element16> = (0..500u64)
                        .map(|i| Element16::new((i * 3 + r) % 7, r * 1000 + i))
                        .collect();
                    recs.sort_unstable();
                    write_records(&st, &recs).expect("write")
                })
                .collect();
            let inputs: Vec<MergeInput> = runs
                .into_iter()
                .map(|f| MergeInput {
                    fragments: vec![MergeFragment::Received { run: f.run, elems: f.elems }],
                })
                .collect();
            let mut got = Vec::new();
            let (total, cpu) = merge_into::<Element16>(&st, inputs, cores, |rec| {
                got.push(rec);
                Ok(())
            })
            .expect("merge");
            assert_eq!(total, 1500);
            (got, cpu)
        };
        let (seq, seq_cpu) = run(1);
        let (par, par_cpu) = run(4);
        assert_eq!(par, seq, "parallel local merge must be byte-identical");
        assert_eq!(par_cpu.merge_work, seq_cpu.merge_work, "same n · ⌈log2 R⌉ charge");
        assert_eq!(seq_cpu.split_probes, 0, "streaming path never splits");
        assert_eq!(
            par_cpu.split_probes, 0,
            "batches this small sit below PAR_MERGE_MIN_PER_THREAD — the \
             parallel path must fall back to the sequential merge, probe-free"
        );
    }
}
