//! K-way merging with a loser tree.
//!
//! The loser tree (tournament tree of losers, Knuth 5.4.1) finds the
//! next-smallest of `k` sorted sources with `⌈log2 k⌉` comparisons per
//! element, independent of which source won last. It is the workhorse
//! of every merge in this suite: batch merging during run formation,
//! the final local merge of CANONICALMERGESORT, and the striped
//! algorithm's global merge.
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
    /// Per-source consumed positions: the cut under the bound, or the
    /// source's length when there was none.
    pub cuts: Vec<usize>,
    /// Selection probes spent splitting the sources into per-thread
    /// ranges (0 when the merge collapsed to one thread).
    pub split_probes: u64,
    /// Emitted-range length per merge thread; the ranges partition the
    /// output in order, so the lengths sum to the emitted total.
    pub range_lens: Vec<usize>,
}

/// [`merge_k_into`] on up to `cores` threads: split the sources into
/// `cores` balanced disjoint output ranges with exact multisequence
/// selection ([`crate::selection::multiway_split_counted`] — the same
/// machinery the in-node sort uses) and merge each range concurrently,
/// directly into a disjoint slice of `out`'s spare capacity.
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
    let all = None::<fn(&T) -> bool>;
    par_merge_k_traced(seqs, all, cores, 0, out, |_, _, _, _| 0, |_, _, _, _, _| {})
}

/// [`par_merge_k_into`] of the leading run of each sorted slice that
/// satisfies `below` — a monotone "still under the bound" predicate,
/// true for a prefix of every slice and false after. The suffixes at and
/// beyond the bound are untouched; [`ParMerge::cuts`] says where they
/// start (one binary search per source).
pub fn par_merge_k_below_into<T: Ord + Copy + Send + Sync>(
    seqs: &[&[T]],
    below: impl Fn(&T) -> bool,
    cores: usize,
    out: &mut Vec<T>,
) -> ParMerge {
    par_merge_k_traced(seqs, Some(below), cores, 0, out, |_, _, _, _| 0, |_, _, _, _, _| {})
}

/// Minimum records per merge thread before the parallel merge engages.
///
/// Splitting a batch costs `O(k · cores · log²)` selection probes plus
/// thread spawns — pure overhead the sequential merge does not pay. On
/// small batches (a memory-bounded striped merge at smoke scale) that
/// overhead dwarfs the merge itself and made `cores=8` slower than
/// `cores=1`; below this floor per thread, the extra threads cannot win.
/// The auto policy (`min_per_thread == 0` of [`par_merge_k_traced`],
/// which is what the two plain entry points pass) scales the thread
/// count down to `total / PAR_MERGE_MIN_PER_THREAD` (collapsing to the
/// sequential path, with zero split probes, when that is 1) and
/// additionally caps it at the host's available parallelism — a
/// configured `cores` above what the machine can actually run in
/// parallel only time-slices the same comparisons and can never win. An
/// explicit `min_per_thread ≥ 1` is manual scheduling: the floor is
/// taken literally and the host cap does not apply (tests pass 1 to
/// force fan-out on any host).
pub const PAR_MERGE_MIN_PER_THREAD: usize = 8192;

/// The parallel merge under [`par_merge_k_into`] and
/// [`par_merge_k_below_into`], with everything they fix left open:
///
/// * `below` — the bound of [`par_merge_k_below_into`], or `None` for
///   all of every source. This is the one place a batch is cut.
/// * `min_per_thread` — at most `total / min_per_thread` threads are
///   used (at least one), so a too-small batch takes the sequential path
///   with zero split probes. `0` selects the auto policy
///   ([`PAR_MERGE_MIN_PER_THREAD`] plus the host-parallelism cap); an
///   explicit minimum is taken literally with no host cap.
/// * `begin` / `end` — per-thread span hooks (the striped merge journals
///   each range as a `merge_par` trace span): `begin` runs on the
///   merging thread right before its range merge as
///   `begin(thread, threads, len, total)` and returns an id; `end` runs
///   right after with the same arguments plus that id. The
///   single-thread collapse still fires one `(0, 1, total, total)` pair,
///   so a traced merge always journals a complete thread set.
pub fn par_merge_k_traced<T: Ord + Copy + Send + Sync>(
    seqs: &[&[T]],
    below: Option<impl Fn(&T) -> bool>,
    cores: usize,
    min_per_thread: usize,
    out: &mut Vec<T>,
    begin: impl Fn(usize, usize, usize, usize) -> u64 + Sync,
    end: impl Fn(u64, usize, usize, usize, usize) + Sync,
) -> ParMerge {
    let cuts: Vec<usize> = match below {
        Some(below) => seqs.iter().map(|s| s.partition_point(|x| below(x))).collect(),
        None => seqs.iter().map(|s| s.len()).collect(),
    };
    let prefixes: Vec<&[T]> = seqs.iter().zip(&cuts).map(|(s, &c)| &s[..c]).collect();
    let seqs = prefixes.as_slice();
    let total: usize = cuts.iter().sum();
    let host_cap = match min_per_thread {
        0 => std::thread::available_parallelism().map_or(usize::MAX, |n| n.get()),
        _ => usize::MAX,
    };
    let min = match min_per_thread {
        0 => PAR_MERGE_MIN_PER_THREAD,
        m => m,
    };
    let cores = (total / min).clamp(1, cores.max(1).min(host_cap)).min(total.max(1));
    if cores == 1 || total < 2 * cores {
        let id = begin(0, 1, total, total);
        merge_k_into(seqs, out);
        end(id, 0, 1, total, total);
        return ParMerge { cuts, split_probes: 0, range_lens: vec![total] };
    }

    // Exact splitters at the cores − 1 balanced global ranks. In-memory
    // sequences never fail a probe, so the Result is vacuous here.
    let mut views: Vec<&[T]> = seqs.to_vec();
    let (ranges, split_probes) = crate::selection::multiway_split_counted(&mut views, cores)
        .expect("in-memory selection is infallible");
    let range_lens: Vec<usize> =
        ranges.windows(2).map(|w| w[1].iter().zip(&w[0]).map(|(b, a)| b - a).sum()).collect();

    out.reserve(total);
    let base = out.len();
    {
        let spare = &mut out.spare_capacity_mut()[..total];
        let (begin, end) = (&begin, &end);
        std::thread::scope(|s| {
            let mut spare_rest = spare;
            for (t, w) in ranges.windows(2).enumerate() {
                let len = range_lens[t];
                let (slot, tail) = spare_rest.split_at_mut(len);
                spare_rest = tail;
                let pieces: Vec<&[T]> =
                    seqs.iter().enumerate().map(|(i, sq)| &sq[w[0][i]..w[1][i]]).collect();
                s.spawn(move || {
                    let id = begin(t, cores, len, total);
                    merge_k_into_uninit(&pieces, slot);
                    end(id, t, cores, len, total);
                });
            }
        });
        // SAFETY: every slot of the spare capacity was initialized by
        // exactly one merge task (the range lengths sum to `total` and
        // each task fills its slot completely).
        unsafe { out.set_len(base + total) };
    }
    ParMerge { cuts, split_probes, range_lens }
}

/// The carry-merge step both sorts' batch merges are made of: one
/// sorted buffer per run that the caller appends to as blocks arrive,
/// and [`CarryMerge::emit_below`], which merges everything under a
/// bound out of them and keeps the rest — each run's *carry* — for the
/// next round.
pub struct CarryMerge<T> {
    /// The buffers. A run's records must be appended in the run's
    /// order, so that every buffer stays sorted.
    pub sources: Vec<Vec<T>>,
}

impl<T: Ord + Copy + Send + Sync> CarryMerge<T> {
    /// `k` empty buffers.
    pub fn new(k: usize) -> Self {
        Self { sources: (0..k).map(|_| Vec::new()).collect() }
    }

    /// Merge the prefix of every buffer that satisfies `below` into
    /// `arena` (cleared first) on up to `cores` threads, and remove it
    /// from the buffers; `None` merges everything. Returns the split
    /// probes spent ([`ParMerge::split_probes`]); `min_per_thread` and
    /// the span hooks are [`par_merge_k_traced`]'s.
    ///
    /// With a strict bound (`key < threshold`) records *equal* to the
    /// threshold are held back until a later threshold passes them, so
    /// the rounds' outputs concatenate to exactly the merge of
    /// everything ever appended, in the loser tree's (key, run) order.
    pub fn emit_below(
        &mut self,
        below: Option<impl Fn(&T) -> bool>,
        cores: usize,
        min_per_thread: usize,
        arena: &mut Vec<T>,
        begin: impl Fn(usize, usize, usize, usize) -> u64 + Sync,
        end: impl Fn(u64, usize, usize, usize, usize) + Sync,
    ) -> u64 {
        arena.clear();
        let views: Vec<&[T]> = self.sources.iter().map(|s| s.as_slice()).collect();
        let pm = par_merge_k_traced(&views, below, cores, min_per_thread, arena, begin, end);
        for (s, cut) in self.sources.iter_mut().zip(pm.cuts) {
            // verify: allow(L2, Vec::drain removing the merged prefix — not the fallible IoEngine::drain)
            s.drain(..cut);
        }
        pm.split_probes
    }
}

/// [`merge_k_into`] writing into an uninitialized output slice (one
/// thread's disjoint range of the shared emit buffer). Initializes
/// every slot; `slot.len()` must equal the sources' total length.
fn merge_k_into_uninit<T: Ord + Copy>(seqs: &[&[T]], slot: &mut [std::mem::MaybeUninit<T>]) {
    debug_assert_eq!(seqs.iter().map(|s| s.len()).sum::<usize>(), slot.len());
    match seqs.len() {
        0 => {}
        1 => {
            for (dst, src) in slot.iter_mut().zip(seqs[0]) {
                dst.write(*src);
            }
        }
        _ => {
            let mut pos = vec![0usize; seqs.len()];
            let heads: Vec<Option<T>> = seqs.iter().map(|s| s.first().copied()).collect();
            let mut lt = LoserTree::new(heads);
            let mut filled = 0;
            while let Some(w) = lt.winner() {
                pos[w] += 1;
                let next = seqs[w].get(pos[w]).copied();
                slot[filled].write(lt.replace_winner(next));
                filled += 1;
            }
            debug_assert_eq!(filled, slot.len());
        }
    }
}

/// An iterator that merges `k` sorted iterators (streaming — used when
/// sources are decoded lazily from disk blocks).
pub struct MergeIter<T, I> {
    sources: Vec<I>,
    tree: LoserTree<T>,
}

impl<T: Ord, I: Iterator<Item = T>> MergeIter<T, I> {
    /// Build from sorted sources.
    pub fn new(mut sources: Vec<I>) -> Self {
        let heads: Vec<Option<T>> = sources.iter_mut().map(|s| s.next()).collect();
        Self { sources, tree: LoserTree::new(heads) }
    }
}

impl<T: Ord, I: Iterator<Item = T>> Iterator for MergeIter<T, I> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let w = self.tree.winner()?;
        let next = self.sources[w].next();
        Some(self.tree.replace_winner(next))
    }
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

    /// The cut-then-merge kernel on one thread: the sequential reference
    /// the multi-threaded runs are compared against.
    fn merge_k_below_into<T: Ord + Copy + Send + Sync>(
        seqs: &[&[T]],
        below: impl Fn(&T) -> bool,
        out: &mut Vec<T>,
    ) -> Vec<usize> {
        par_merge_k_below_into(seqs, below, 1, out).cuts
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
    fn merge_iter_streams() {
        let sources =
            vec![vec![1u32, 5, 9].into_iter(), vec![2, 6].into_iter(), vec![3].into_iter()];
        let merged: Vec<u32> = MergeIter::new(sources).collect();
        assert_eq!(merged, vec![1, 2, 3, 5, 6, 9]);
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

    #[test]
    fn merge_below_emits_prefixes_and_reports_cuts() {
        let a = [1u32, 3, 8, 9];
        let b = [2u32, 8];
        let c = [10u32, 11];
        let mut out = Vec::new();
        let cuts = merge_k_below_into(&[&a, &b, &c], |x| *x < 8, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(cuts, vec![2, 1, 0]);
        // No bound: everything merges, cuts are the lengths.
        let mut all = Vec::new();
        let cuts = merge_k_below_into(&[&a, &b, &c], |_| true, &mut all);
        assert_eq!(all, merge_k(&[&a, &b, &c]));
        assert_eq!(cuts, vec![4, 2, 2]);
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
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spans = AtomicUsize::new(0);
        let mut out = Vec::new();
        let pm = par_merge_k_traced(
            &[&[1u32, 3][..], &[2u32][..]],
            None::<fn(&u32) -> bool>,
            8,
            0,
            &mut out,
            |t, n, len, total| {
                assert_eq!((t, n, len, total), (0, 1, 3, 3));
                spans.fetch_add(1, Ordering::Relaxed);
                7
            },
            |id, t, n, len, total| {
                assert_eq!((id, t, n, len, total), (7, 0, 1, 3, 3));
                spans.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(pm.range_lens, vec![3]);
        assert_eq!(pm.split_probes, 0, "single-thread collapse must not probe");
        assert_eq!(spans.load(Ordering::Relaxed), 2, "collapse still journals thread 0");
    }

    #[test]
    fn par_merge_spans_partition_the_batch() {
        use std::sync::Mutex;
        let seqs: Vec<Vec<u32>> = (0..5).map(|i| (0..200).map(|j| j * 5 + i).collect()).collect();
        let refs: Vec<&[u32]> = seqs.iter().map(|s| s.as_slice()).collect();
        let opened = Mutex::new(Vec::new());
        let mut out = Vec::new();
        let pm = par_merge_k_traced(
            &refs,
            None::<fn(&u32) -> bool>,
            4,
            1,
            &mut out,
            |t, n, len, total| {
                opened.lock().unwrap().push((t, n, len, total));
                t as u64 + 1
            },
            |id, t, _, _, _| assert_eq!(id, t as u64 + 1),
        );
        assert_eq!(out, (0..1000).collect::<Vec<u32>>());
        let mut opened = opened.into_inner().unwrap();
        opened.sort_unstable();
        assert_eq!(opened.len(), 4);
        for (t, (thread, threads, len, total)) in opened.iter().enumerate() {
            assert_eq!((*thread, *threads, *total), (t, 4, 1000));
            assert_eq!(*len, pm.range_lens[t]);
        }
        assert_eq!(pm.range_lens.iter().sum::<usize>(), 1000);
        assert!(pm.split_probes > 0, "a real split must account its probes");
    }

    proptest! {
        /// The parallel merge is byte-identical to the sequential one
        /// for any thread count, and its cuts match too.
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
            let seq_cuts = merge_k_below_into(&refs, below, &mut seq_out);
            let mut par_out = Vec::new();
            let pm = par_merge_k_traced(
                &refs, Some(below), cores, 1, &mut par_out, |_, _, _, _| 0, |_, _, _, _, _| {},
            );
            prop_assert_eq!(&par_out, &seq_out);
            prop_assert_eq!(&pm.cuts, &seq_cuts);
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
            let mut views: Vec<&[u32]> =
                sorted_seqs.iter().map(|s| s.as_slice()).collect();
            let total: usize = views.iter().map(|v| v.len()).sum();
            let (cuts, probes) =
                crate::selection::multiway_split_counted(&mut views, parts).unwrap();
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

    /// A key with the (source, position) it came from, compared by the
    /// key alone: where equal keys end up shows the order they were
    /// merged in ([`Tagged::all`] tells them apart).
    #[derive(Copy, Clone, Debug)]
    struct Tagged(u32, usize, usize);

    impl Tagged {
        fn all(v: &[Tagged]) -> Vec<(u32, usize, usize)> {
            v.iter().map(|t| (t.0, t.1, t.2)).collect()
        }
    }

    impl PartialEq for Tagged {
        fn eq(&self, o: &Self) -> bool {
            self.0 == o.0
        }
    }

    impl Eq for Tagged {}

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0.cmp(&o.0)
        }
    }

    proptest! {
        /// The carry rule, for both sorts at once: sorted sources fed in
        /// arbitrary chunks, each round cut under a threshold that never
        /// decreases and never exceeds a record still to be fed. The
        /// rounds concatenate to the merge of everything, ties
        /// included; nothing at or above a round's threshold leaves in
        /// that round; and four threads emit what one does.
        #[test]
        fn carry_merge_rounds_concatenate_to_the_full_merge(
            seqs in prop::collection::vec(prop::collection::vec(0u32..40, 0..40), 1..6),
            chunks in prop::collection::vec(0usize..9, 1..24),
            slack in prop::collection::vec(0u32..4, 1..24),
        ) {
            let sources: Vec<Vec<Tagged>> = seqs
                .iter()
                .cloned()
                .map(sorted)
                .enumerate()
                .map(|(s, keys)| {
                    keys.into_iter().enumerate().map(|(i, k)| Tagged(k, s, i)).collect()
                })
                .collect();
            let k = sources.len();
            let refs: Vec<&[Tagged]> = sources.iter().map(|s| s.as_slice()).collect();
            let expect = Tagged::all(&merge_k(&refs));

            let mut outputs = Vec::new();
            for cores in [1, 4] {
                let mut carry = CarryMerge::new(k);
                let mut fed = vec![0usize; k];
                let (mut out, mut arena) = (Vec::new(), vec![Tagged(0, 0, 0)]);
                let mut floor = 0u32;
                for round in 0.. {
                    for (i, src) in sources.iter().enumerate() {
                        // Some source always advances, so the rounds end.
                        let take = chunks[(round * k + i) % chunks.len()] + usize::from(i == round % k);
                        let to = (fed[i] + take).min(src.len());
                        carry.sources[i].extend_from_slice(&src[fed[i]..to]);
                        fed[i] = to;
                    }
                    let unfed = sources.iter().zip(&fed).filter_map(|(s, &f)| s.get(f)).map(|e| e.0);
                    let threshold =
                        unfed.min().map(|m| m.saturating_sub(slack[round % slack.len()]).max(floor));
                    carry.emit_below(
                        threshold.map(|t| move |x: &Tagged| x.0 < t),
                        cores,
                        1,
                        &mut arena,
                        |_, _, _, _| 0,
                        |_, _, _, _, _| {},
                    );
                    out.extend_from_slice(&arena);
                    match threshold {
                        Some(t) => {
                            prop_assert!(arena.iter().all(|x| x.0 < t), "emitted at or above {t}");
                            prop_assert!(carry.sources.iter().flatten().all(|x| x.0 >= t));
                            floor = t;
                        }
                        None => break,
                    }
                }
                prop_assert!(carry.sources.iter().all(Vec::is_empty), "unbounded round drains");
                prop_assert_eq!(&Tagged::all(&out), &expect, "cores = {}", cores);
                outputs.push(Tagged::all(&out));
            }
            prop_assert_eq!(&outputs[0], &outputs[1]);
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

        #[test]
        fn merge_iter_equals_merge_k(seqs in prop::collection::vec(
            prop::collection::vec(0u32..100, 0..30), 1..8)) {
            let sorted_seqs: Vec<Vec<u32>> = seqs.iter().cloned().map(sorted).collect();
            let refs: Vec<&[u32]> = sorted_seqs.iter().map(|s| s.as_slice()).collect();
            let a = merge_k(&refs);
            let b: Vec<u32> =
                MergeIter::new(sorted_seqs.into_iter().map(|s| s.into_iter()).collect()).collect();
            prop_assert_eq!(a, b);
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
        let streamed: Vec<u32> = MergeIter::new(vec![run.clone().into_iter()]).collect();
        assert_eq!(streamed, run);
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

        let streamed: Vec<u32> =
            MergeIter::new(seqs.iter().map(|s| s.iter().copied()).collect()).collect();
        assert_eq!(streamed, merge_k(&seqs));
    }

    #[test]
    fn merge_iter_zero_and_all_empty_sources() {
        assert_eq!(MergeIter::<u32, std::vec::IntoIter<u32>>::new(Vec::new()).count(), 0);
        let empties: Vec<std::vec::IntoIter<u32>> =
            (0..5).map(|_| Vec::new().into_iter()).collect();
        assert_eq!(MergeIter::new(empties).count(), 0);
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
