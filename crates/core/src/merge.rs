//! K-way merging with a loser tree.
//!
//! The loser tree (tournament tree of losers, Knuth 5.4.1) finds the
//! next-smallest of `k` sorted sources with `⌈log2 k⌉` comparisons per
//! element, independent of which source won last. It is the workhorse
//! of every merge in this suite: the exchange merge of run formation,
//! the in-node sort's merge, and the batch loop
//! ([`crate::batchmerge`]) of CANONICALMERGESORT's final local merge
//! and of the striped algorithm's global merge, where one tree lives
//! for a whole merge group and its heads are read from the blocks where
//! they lie.
//!
//! Ties are broken by source index, making every merge deterministic
//! and *stable across sources* (equal keys come out in source order).

/// A tournament tree of losers over `k` sources.
///
/// The caller owns the sources; the tree holds only the *current head*
/// of each source. After reading the winner, the caller replaces it via
/// [`LoserTree::replace_winner`] with the source's next item (or `None`
/// when the source is exhausted), which re-plays one leaf-to-root path.
pub struct LoserTree<T> {
    /// Number of leaves (next power of two ≥ number of sources).
    k: usize,
    /// `tree[1..k]`: internal nodes, each holding the *loser* source
    /// index of the match played there; `tree[0]` holds the winner.
    tree: Vec<u32>,
    /// Current head item per source; `None` = exhausted (acts as +∞).
    heads: Vec<Option<T>>,
}

impl<T: Ord> LoserTree<T> {
    /// Build a tree from the initial head of every source.
    ///
    /// `heads[i] = None` marks source `i` as exhausted from the start.
    pub fn new(heads: Vec<Option<T>>) -> Self {
        let sources = heads.len().max(1);
        let k = sources.next_power_of_two();
        let mut heads = heads;
        heads.resize_with(k, || None); // pad with exhausted sources
        let mut lt = Self { k, tree: vec![0; k], heads };
        lt.rebuild();
        lt
    }

    /// `source a` beats `source b` if its head is smaller (exhausted
    /// sources always lose; ties go to the lower index for stability).
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Play all matches bottom-up (used at construction).
    fn rebuild(&mut self) {
        // winners[j] for internal node j; leaves are sources.
        let mut winners = vec![0u32; 2 * self.k];
        for i in 0..self.k {
            winners[self.k + i] = i as u32;
        }
        for j in (1..self.k).rev() {
            let (a, b) = (winners[2 * j] as usize, winners[2 * j + 1] as usize);
            let (w, l) = if self.beats(a, b) { (a, b) } else { (b, a) };
            winners[j] = w as u32;
            self.tree[j] = l as u32;
        }
        self.tree[0] = winners[1];
    }

    /// Source index of the overall winner (smallest head), or `None` if
    /// every source is exhausted.
    #[inline]
    pub fn winner(&self) -> Option<usize> {
        let w = self.tree[0] as usize;
        self.heads[w].as_ref().map(|_| w)
    }

    /// The smallest head item, if any source still has one.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.heads[self.tree[0] as usize].as_ref()
    }

    /// Pop the winner's item and replace it with `next` (the winning
    /// source's next item, or `None` if it is exhausted), re-playing the
    /// leaf-to-root path in `⌈log2 k⌉` comparisons.
    ///
    /// # Panics
    /// Panics if all sources are exhausted (check [`LoserTree::winner`]).
    pub fn replace_winner(&mut self, next: Option<T>) -> T {
        let w = self.tree[0] as usize;
        let item = self.heads[w].take().expect("replace_winner on exhausted tree");
        self.heads[w] = next;
        // Re-play matches from leaf w to the root.
        let mut winner = w;
        let mut node = (self.k + w) >> 1;
        while node >= 1 {
            let loser = self.tree[node] as usize;
            if self.beats(loser, winner) {
                self.tree[node] = winner as u32;
                winner = loser;
            }
            node >>= 1;
        }
        self.tree[0] = winner as u32;
        item
    }

    /// Number of leaf slots (≥ number of sources, power of two).
    pub fn capacity(&self) -> usize {
        self.k
    }
}

/// Merge `k` sorted slices into one sorted `Vec`.
///
/// Comparison cost is `n ⌈log2 k⌉`; the returned vector has length
/// `Σ |seqs[i]|`. Equal keys come out in slice order (stable).
pub fn merge_k<T: Ord + Copy>(seqs: &[&[T]]) -> Vec<T> {
    let total: usize = seqs.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total);
    merge_k_into(seqs, &mut out);
    out
}

/// Merge `k` sorted slices, appending to `out` (reuses its capacity).
pub fn merge_k_into<T: Ord + Copy>(seqs: &[&[T]], out: &mut Vec<T>) {
    if let [only] = seqs {
        out.extend_from_slice(only);
        return;
    }
    let pushed = merge_k_each(seqs, |x| {
        out.push(x);
        Ok(())
    });
    debug_assert!(pushed.is_ok(), "pushing to a Vec cannot fail");
}

/// Merge `k` sorted slices, handing each element to `emit` in merged
/// order — the merge under [`merge_k_into`], for a consumer that is
/// not a vector (a run writer encoding each record where it will be
/// written from). Stops at, and returns, `emit`'s first error.
pub fn merge_k_each<T: Ord + Copy>(
    seqs: &[&[T]],
    mut emit: impl FnMut(T) -> demsort_types::Result<()>,
) -> demsort_types::Result<()> {
    if let [a, b] = seqs {
        // Two-way fast path (no tree overhead).
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            // `<=` keeps source order on ties (source 0 first),
            // matching the loser tree's tie-break.
            if a[i] <= b[j] {
                emit(a[i])?;
                i += 1;
            } else {
                emit(b[j])?;
                j += 1;
            }
        }
        return a[i..].iter().chain(&b[j..]).try_for_each(|&x| emit(x));
    }
    let mut pos = vec![0usize; seqs.len()];
    let heads: Vec<Option<T>> = seqs.iter().map(|s| s.first().copied()).collect();
    let mut lt = LoserTree::new(heads);
    while let Some(w) = lt.winner() {
        pos[w] += 1;
        let next = seqs[w].get(pos[w]).copied();
        emit(lt.replace_winner(next))?;
    }
    Ok(())
}

/// Outcome of an in-node parallel k-way merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParMerge {
    /// Selection probes spent splitting the sources into per-thread
    /// ranges (0 when the merge collapsed to one thread).
    pub split_probes: u64,
    /// Emitted-range length per merge thread; the ranges partition the
    /// output in order, so the lengths sum to the emitted total.
    pub range_lens: Vec<usize>,
}

/// Minimum records per merge thread before the parallel merge engages.
///
/// Splitting a merge costs `O(k · cores · log²)` selection probes plus
/// thread spawns — pure overhead the sequential merge does not pay.
/// Below this floor per thread the extra threads cannot win, so
/// [`par_merge_k_into`] scales its thread count down to
/// `total / PAR_MERGE_MIN_PER_THREAD` (collapsing to the sequential
/// path, with zero split probes, when that is 1), and caps it at the
/// host's available parallelism: a `cores` above what the machine can
/// run in parallel only time-slices the same comparisons.
const PAR_MERGE_MIN_PER_THREAD: usize = 8192;

/// [`merge_k_into`] on up to `cores` threads: split the sources into
/// balanced disjoint output ranges with exact multisequence selection
/// ([`crate::selection::multiway_split_counted`] — the same machinery
/// the in-node sort uses) and merge each range concurrently, directly
/// into a disjoint slice of `out`'s spare capacity.
///
/// The output is byte-identical to the sequential merge for every
/// `cores`: the selection partitions by the (key, source) total order,
/// which is exactly the order the loser tree emits. Comparison work is
/// linear in elements, so per-thread merge comparisons sum to the same
/// `n · ⌈log2 k⌉` a single thread would spend; only the split probes
/// are new, and they are reported separately.
pub fn par_merge_k_into<T: Ord + Copy + Send + Sync>(
    seqs: &[&[T]],
    cores: usize,
    out: &mut Vec<T>,
) -> ParMerge {
    let total: usize = seqs.iter().map(|s| s.len()).sum();
    let threads = (total / PAR_MERGE_MIN_PER_THREAD).min(cores).max(1);
    let host = || std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    merge_on_threads(seqs, if threads > 1 { threads.min(host()) } else { 1 }, out)
}

/// The parallel merge under [`par_merge_k_into`] on exactly `threads`
/// threads (one when there are fewer than two records per thread).
fn merge_on_threads<T: Ord + Copy + Send + Sync>(
    seqs: &[&[T]],
    threads: usize,
    out: &mut Vec<T>,
) -> ParMerge {
    let total: usize = seqs.iter().map(|s| s.len()).sum();
    if threads == 1 || total < 2 * threads {
        merge_k_into(seqs, out);
        return ParMerge { split_probes: 0, range_lens: vec![total] };
    }

    // Exact splitters at the threads − 1 balanced global ranks.
    let (ranges, split_probes) = crate::selection::multiway_split_counted(seqs, threads);
    let range_lens: Vec<usize> =
        ranges.windows(2).map(|w| w[1].iter().zip(&w[0]).map(|(b, a)| b - a).sum()).collect();

    out.reserve(total);
    let base = out.len();
    {
        let spare = &mut out.spare_capacity_mut()[..total];
        std::thread::scope(|s| {
            let mut spare_rest = spare;
            for (t, w) in ranges.windows(2).enumerate() {
                let (slot, tail) = spare_rest.split_at_mut(range_lens[t]);
                spare_rest = tail;
                let pieces: Vec<&[T]> =
                    seqs.iter().enumerate().map(|(i, sq)| &sq[w[0][i]..w[1][i]]).collect();
                s.spawn(move || merge_k_into_uninit(&pieces, slot));
            }
        });
        // SAFETY: every slot of the spare capacity was initialized by
        // exactly one merge task (the range lengths sum to `total` and
        // each task fills its slot completely).
        unsafe { out.set_len(base + total) };
    }
    ParMerge { split_probes, range_lens }
}

/// [`merge_k_each`] writing into an uninitialized output slice (one
/// thread's disjoint range of the shared emit buffer). Initializes
/// every slot; `slot.len()` must equal the sources' total length.
fn merge_k_into_uninit<T: Ord + Copy>(seqs: &[&[T]], slot: &mut [std::mem::MaybeUninit<T>]) {
    debug_assert_eq!(seqs.iter().map(|s| s.len()).sum::<usize>(), slot.len());
    let mut filled = 0;
    let merged = merge_k_each(seqs, |x| {
        slot[filled].write(x);
        filled += 1;
        Ok(())
    });
    debug_assert!(merged.is_ok() && filled == slot.len(), "the merge fills its slot");
}

/// Comparison-work proxy for merging `elements` items `k` ways
/// (`elements · ⌈log2 k⌉`, with `k < 2` costing nothing).
pub fn merge_work(elements: u64, k: usize) -> u64 {
    if k < 2 {
        0
    } else {
        elements * (usize::BITS - (k - 1).leading_zeros()) as u64
    }
}

/// CPU counters of one `k`-way merge over `elements` items — the one
/// way every merge in the suite (final local merge, the exchange merge
/// of the parallel sort, striped batch merging) charges its work, so
/// merge comparisons always land in `merge_work`, never `sort_work`.
pub fn merge_cpu(elements: u64, k: usize) -> demsort_types::CpuCounters {
    demsort_types::CpuCounters {
        elements_merged: elements,
        merge_work: merge_work(elements, k),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    /// The merge of each source's prefix under `below`, and the
    /// prefixes' lengths.
    fn merge_k_below_into<T: Ord + Copy>(
        seqs: &[&[T]],
        below: impl Fn(&T) -> bool,
        out: &mut Vec<T>,
    ) -> Vec<usize> {
        let cuts: Vec<usize> = seqs.iter().map(|s| s.partition_point(&below)).collect();
        let prefixes: Vec<&[T]> = seqs.iter().zip(&cuts).map(|(s, &c)| &s[..c]).collect();
        merge_k_into(&prefixes, out);
        cuts
    }

    #[test]
    fn merges_simple_case() {
        let a = [1u32, 4, 7];
        let b = [2u32, 5, 8];
        let c = [3u32, 6, 9];
        assert_eq!(merge_k(&[&a, &b, &c]), (1..=9).collect::<Vec<u32>>());
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        assert_eq!(merge_k::<u32>(&[]), Vec::<u32>::new());
        assert_eq!(merge_k::<u32>(&[&[]]), Vec::<u32>::new());
        assert_eq!(merge_k(&[&[5u32][..]]), vec![5]);
        assert_eq!(merge_k(&[&[][..], &[1u32, 2][..], &[][..]]), vec![1, 2]);
    }

    #[test]
    fn two_way_fast_path_matches() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 3, 6];
        assert_eq!(merge_k(&[&a, &b]), vec![1, 2, 3, 3, 5, 6, 7]);
    }

    #[test]
    fn merge_each_emits_merged_order_and_stops_at_the_first_error() {
        let (a, b, c) = ([1u32, 4, 7], [2u32, 5, 8], [3u32, 6, 9]);
        for seqs in [&[&a[..], &b[..]][..], &[&a[..], &b[..], &c[..]][..]] {
            let mut seen = Vec::new();
            merge_k_each(seqs, |x| {
                seen.push(x);
                Ok(())
            })
            .expect("merge");
            assert_eq!(seen, merge_k(seqs));

            let mut taken = 0;
            let err = merge_k_each(seqs, |_| {
                taken += 1;
                if taken == 3 {
                    return Err(demsort_types::Error::io("sink full"));
                }
                Ok(())
            });
            assert!(matches!(err, Err(demsort_types::Error::Io(_))));
            assert_eq!(taken, 3, "nothing is emitted past the error");
        }
    }

    #[test]
    fn ties_come_out_in_source_order() {
        // Elements are (key, source) pairs ordered by key only — detect
        // source order on equal keys.
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        struct E(u32, u32);
        impl PartialOrd for E {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for E {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.cmp(&o.0)
            }
        }
        let a = [E(1, 0), E(2, 0)];
        let b = [E(1, 1), E(2, 1)];
        let c = [E(1, 2)];
        let m = merge_k(&[&a, &b, &c]);
        assert_eq!(m, vec![E(1, 0), E(1, 1), E(1, 2), E(2, 0), E(2, 1)]);
    }

    #[test]
    fn loser_tree_single_source() {
        let mut lt = LoserTree::new(vec![Some(3u32)]);
        assert_eq!(lt.peek(), Some(&3));
        assert_eq!(lt.replace_winner(Some(7)), 3);
        assert_eq!(lt.replace_winner(None), 7);
        assert!(lt.winner().is_none());
    }

    #[test]
    fn loser_tree_all_exhausted_from_start() {
        let lt = LoserTree::<u32>::new(vec![None, None, None]);
        assert!(lt.winner().is_none());
        assert!(lt.peek().is_none());
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn replace_winner_on_empty_panics() {
        let mut lt = LoserTree::<u32>::new(vec![None]);
        lt.replace_winner(None);
    }

    #[test]
    fn merge_work_formula() {
        assert_eq!(merge_work(100, 0), 0);
        assert_eq!(merge_work(100, 1), 0);
        assert_eq!(merge_work(100, 2), 100);
        assert_eq!(merge_work(100, 3), 200);
        assert_eq!(merge_work(100, 4), 200);
        assert_eq!(merge_work(100, 5), 300);
    }

    #[test]
    fn merge_cpu_charges_merge_work_only() {
        let c = merge_cpu(100, 3);
        assert_eq!(c.elements_merged, 100);
        assert_eq!(c.merge_work, 200);
        assert_eq!(c.sort_work, 0, "merging must never be charged as sorting");
        assert_eq!(c.elements_sorted, 0);
    }

    proptest! {
        /// Splitting a merge at any bound and concatenating the two
        /// halves equals the unsplit merge.
        #[test]
        fn merge_below_plus_suffixes_equals_full_merge(
            seqs in prop::collection::vec(prop::collection::vec(0u32..100, 0..30), 1..6),
            bound in 0u32..100,
        ) {
            let sorted_seqs: Vec<Vec<u32>> = seqs.iter().cloned().map(sorted).collect();
            let refs: Vec<&[u32]> = sorted_seqs.iter().map(|s| s.as_slice()).collect();
            let mut head = Vec::new();
            let cuts = merge_k_below_into(&refs, |x| *x < bound, &mut head);
            prop_assert!(head.iter().all(|x| *x < bound));
            let tails: Vec<&[u32]> =
                refs.iter().zip(&cuts).map(|(s, &c)| &s[c..]).collect();
            prop_assert!(tails.iter().all(|t| t.iter().all(|x| *x >= bound)));
            let mut recombined = head;
            merge_k_into(&tails, &mut recombined);
            prop_assert_eq!(recombined, merge_k(&refs));
        }
    }

    #[test]
    fn par_merge_collapses_to_one_span_on_tiny_input() {
        let mut out = Vec::new();
        let pm = par_merge_k_into(&[&[1u32, 3][..], &[2u32][..]], 8, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(pm.range_lens, vec![3], "one range: the whole merge");
        assert_eq!(pm.split_probes, 0, "single-thread collapse must not probe");
    }

    #[test]
    fn par_merge_spans_partition_the_batch() {
        let seqs: Vec<Vec<u32>> = (0..5).map(|i| (0..200).map(|j| j * 5 + i).collect()).collect();
        let refs: Vec<&[u32]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut out = Vec::new();
        let pm = merge_on_threads(&refs, 4, &mut out);
        assert_eq!(out, (0..1000).collect::<Vec<u32>>());
        assert_eq!(pm.range_lens.len(), 4);
        assert!(pm.range_lens.iter().all(|&len| len == 250), "{:?}", pm.range_lens);
        assert!(pm.split_probes > 0, "a real split must account its probes");
    }

    proptest! {
        /// The parallel merge is byte-identical to the sequential one
        /// for any thread count, on prefixes cut under any bound.
        #[test]
        fn par_merge_below_matches_sequential(
            seqs in prop::collection::vec(prop::collection::vec(0u32..60, 0..40), 1..7),
            bound in prop::option::of(0u32..60),
            cores in 1usize..7,
        ) {
            let sorted_seqs: Vec<Vec<u32>> = seqs.iter().cloned().map(sorted).collect();
            let refs: Vec<&[u32]> = sorted_seqs.iter().map(|s| s.as_slice()).collect();
            let below = |x: &u32| bound.is_none_or(|b| *x < b);
            let mut seq_out = Vec::new();
            let cuts = merge_k_below_into(&refs, below, &mut seq_out);
            let prefixes: Vec<&[u32]> = refs.iter().zip(&cuts).map(|(s, &c)| &s[..c]).collect();
            let mut par_out = Vec::new();
            let pm = merge_on_threads(&prefixes, cores, &mut par_out);
            prop_assert_eq!(&par_out, &seq_out);
            prop_assert_eq!(pm.range_lens.iter().sum::<usize>(), seq_out.len());
        }

        /// The multisequence split behind the parallel merge yields
        /// disjoint, exhaustive, balanced ranges on arbitrary run
        /// shapes — duplicates, empty runs, carry tails and all.
        #[test]
        fn multiway_split_ranges_are_disjoint_exhaustive_balanced(
            seqs in prop::collection::vec(prop::collection::vec(0u32..25, 0..50), 1..8),
            parts in 1usize..7,
        ) {
            let sorted_seqs: Vec<Vec<u32>> = seqs.iter().cloned().map(sorted).collect();
            let views: Vec<&[u32]> = sorted_seqs.iter().map(|s| s.as_slice()).collect();
            let total: usize = views.iter().map(|v| v.len()).sum();
            let (cuts, probes) = crate::selection::multiway_split_counted(&views, parts);
            prop_assert_eq!(cuts.len(), parts + 1);
            prop_assert!(cuts[0].iter().all(|&c| c == 0), "first cut must open every run");
            for (i, v) in views.iter().enumerate() {
                prop_assert_eq!(cuts[parts][i], v.len(), "last cut must close every run");
                for w in cuts.windows(2) {
                    prop_assert!(w[0][i] <= w[1][i], "cuts must be monotone per run");
                }
            }
            // Disjoint + exhaustive: per-part sizes sum to the total;
            // balanced: each part holds an exact ⌊·⌋/⌈·⌉ share.
            let mut seen = 0usize;
            for (p, w) in cuts.windows(2).enumerate() {
                let size: usize = w[1].iter().zip(&w[0]).map(|(b, a)| b - a).sum();
                let lo = (p + 1) * total / parts - p * total / parts;
                prop_assert_eq!(size, lo, "part {} is unbalanced", p);
                seen += size;
            }
            prop_assert_eq!(seen, total);
            if parts == 1 {
                prop_assert_eq!(probes, 0);
            }
            // Exactness: part boundaries split the (key, run) total
            // order, so merging parts independently and concatenating
            // equals the global merge.
            let mut cat = Vec::new();
            for w in cuts.windows(2) {
                let pieces: Vec<&[u32]> = views
                    .iter()
                    .enumerate()
                    .map(|(i, v)| &v[w[0][i]..w[1][i]])
                    .collect();
                merge_k_into(&pieces, &mut cat);
            }
            prop_assert_eq!(cat, merge_k(&views));
        }
    }

    #[test]
    fn below_threshold_batches_merge_sequentially() {
        // 1000 records < PAR_MERGE_MIN_PER_THREAD: the default entry
        // points must not pay for a split, whatever the core count.
        let seqs: Vec<Vec<u32>> = (0..4).map(|i| (0..250).map(|j| j * 4 + i).collect()).collect();
        let refs: Vec<&[u32]> = seqs.iter().map(|s| s.as_slice()).collect();
        for cores in [1, 2, 8] {
            let mut out = Vec::new();
            let pm = par_merge_k_into(&refs, cores, &mut out);
            assert_eq!(out, (0..1000).collect::<Vec<u32>>());
            assert_eq!(pm.split_probes, 0, "below-threshold batch must not probe (cores {cores})");
            assert_eq!(pm.range_lens, vec![1000]);
        }
    }

    #[test]
    fn many_sources_large_merge() {
        let k = 37;
        let seqs: Vec<Vec<u32>> =
            (0..k).map(|i| (0..50).map(|j| (j * k + i) as u32).collect()).collect();
        let refs: Vec<&[u32]> = seqs.iter().map(|s| s.as_slice()).collect();
        let merged = merge_k(&refs);
        assert_eq!(merged, (0..(50 * k) as u32).collect::<Vec<u32>>());
    }

    proptest! {
        #[test]
        fn merge_equals_sort(seqs in prop::collection::vec(
            prop::collection::vec(0u32..1000, 0..50), 0..12)) {
            let sorted_seqs: Vec<Vec<u32>> = seqs.iter().cloned().map(sorted).collect();
            let refs: Vec<&[u32]> = sorted_seqs.iter().map(|s| s.as_slice()).collect();
            let merged = merge_k(&refs);
            let expected = sorted(seqs.concat());
            prop_assert_eq!(merged, expected);
        }

        /// The streaming merge hands over exactly what the vector merge
        /// builds, at every fan-in (the two-way fast path included).
        #[test]
        fn merge_each_equals_merge_k(seqs in prop::collection::vec(
            prop::collection::vec(0u32..100, 0..30), 1..8)) {
            let sorted_seqs: Vec<Vec<u32>> = seqs.iter().cloned().map(sorted).collect();
            let refs: Vec<&[u32]> = sorted_seqs.iter().map(|s| s.as_slice()).collect();
            let mut b = Vec::new();
            merge_k_each(&refs, |x| {
                b.push(x);
                Ok(())
            })
            .expect("merge");
            prop_assert_eq!(merge_k(&refs), b);
        }

        /// The loser tree agrees with a binary heap under arbitrary
        /// interleavings of pops and refills (not just sorted streams).
        #[test]
        fn loser_tree_matches_heap_reference(
            initial in prop::collection::vec(prop::option::of(0u32..1000), 1..12),
            refills in prop::collection::vec(prop::option::of(0u32..1000), 0..40),
        ) {
            use std::collections::BinaryHeap;
            use std::cmp::Reverse;

            let mut tree = LoserTree::new(initial.clone());
            // Reference: min-heap of (value, source); tie-break by the
            // lowest source index like the tree.
            let mut heap: BinaryHeap<Reverse<(u32, usize)>> = initial
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.map(|v| Reverse((v, i))))
                .collect();

            for refill in refills {
                match (tree.winner(), heap.pop()) {
                    (Some(w), Some(Reverse((hv, hi)))) => {
                        let got = tree.replace_winner(refill);
                        prop_assert_eq!((got, w), (hv, hi), "winner mismatch");
                        if let Some(r) = refill {
                            heap.push(Reverse((r, w)));
                        }
                    }
                    (None, None) => break,
                    (t, h) => prop_assert!(false, "emptiness disagrees: {:?} vs {:?}", t, h),
                }
            }
        }
    }

    #[test]
    fn loser_tree_zero_sources() {
        let lt = LoserTree::<u32>::new(Vec::new());
        assert!(lt.winner().is_none());
        assert!(lt.peek().is_none());
        assert_eq!(lt.capacity(), 1, "padded to one exhausted leaf");
    }

    #[test]
    fn merge_single_long_run_is_identity() {
        let run: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(merge_k(&[run.as_slice()]), run);
    }

    #[test]
    fn empty_runs_interleaved_with_nonempty() {
        // Leading, trailing, and consecutive empty runs around real
        // ones, at a non-power-of-two fan-in that exercises leaf
        // padding next to genuinely empty sources.
        let a = [1u32, 4, 9];
        let b = [2u32, 4];
        let c = [4u32, 5, 6];
        let seqs: Vec<&[u32]> = vec![&[], &a, &[], &[], &b, &c, &[]];
        assert_eq!(merge_k(&seqs), vec![1, 2, 4, 4, 4, 5, 6, 9]);
    }

    #[test]
    fn merge_zero_and_all_empty_sources() {
        assert!(merge_k::<u32>(&[]).is_empty());
        let empties: Vec<&[u32]> = vec![&[]; 5];
        assert!(merge_k(&empties).is_empty());
        merge_k_each(&empties, |x| panic!("nothing to emit, got {x}")).expect("merge");
    }

    #[test]
    fn all_duplicate_keys_stable_against_reference_sort() {
        // (key, source) pairs ordered by key only: the merge must equal
        // a *stable* sort of the concatenation, i.e. equal keys stay in
        // source order even when every key collides.
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        struct E(u32, usize);
        impl PartialOrd for E {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for E {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.cmp(&o.0)
            }
        }
        let k = 6;
        let runs: Vec<Vec<E>> = (0..k).map(|s| vec![E(7, s); 5 + s]).collect();
        let refs: Vec<&[E]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = merge_k(&refs);

        let mut reference: Vec<E> = runs.concat();
        reference.sort_by_key(|e| e.0); // stable: preserves source order
        assert_eq!(merged, reference);
        // Explicit shape: all of source 0, then all of source 1, ...
        let mut expect_sources = Vec::new();
        for (s, run) in runs.iter().enumerate() {
            expect_sources.extend(std::iter::repeat_n(s, run.len()));
        }
        assert_eq!(merged.iter().map(|e| e.1).collect::<Vec<_>>(), expect_sources);
    }

    #[test]
    fn duplicates_across_some_sources_keep_distinct_keys_sorted() {
        let seqs: Vec<&[u32]> = vec![&[1, 1, 3, 3], &[1, 2, 3], &[], &[1, 3, 3]];
        let merged = merge_k(&seqs);
        let mut reference = seqs.concat();
        reference.sort_unstable();
        assert_eq!(merged, reference);
    }
}
