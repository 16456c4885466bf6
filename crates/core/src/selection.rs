//! Exact multiway selection (Section IV-A).
//!
//! A *multiway selection* finds, among `R` sorted sequences, the element
//! `e` of global rank `r`, and returns `R` splitter positions that
//! partition the sequences with respect to `e`: exactly `r` elements lie
//! left of the splitters, and every element left of a splitter is ≤
//! every element right of any splitter (under a total order that breaks
//! key ties by sequence index, making the partition unique).
//!
//! The search is a deterministic pivot search: pick the middle element
//! of the widest undecided splitter range as the pivot, rank it
//! globally with one binary search per sequence (under the total order
//! that breaks key ties by sequence index, then position), and shrink
//! every sequence's range toward the rank-`r` boundary. Every round
//! narrows *all* `R` ranges — `O(R log M)` probes per round, `O(log M)`
//! effective rounds.
//!
//! External selection ([`crate::extselect`]) runs it in memory over the
//! windows the run samples bracket; the merges split their batches
//! through it too. Probing a sequence is
//! fallible ([`SortedSeq::key_at`] returns `Result`), and every entry
//! point propagates the first probe failure instead of panicking
//! (in-memory sequences simply never fail).
//!
//! Total work: `O(R² log M)` sequence probes and time, `O(log M)` rounds
//! of `R` binary searches; our `R` is small.

use demsort_types::Result;

/// Result of a multiway selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectionResult {
    /// `positions[i]` = number of elements of sequence `i` lying strictly
    /// left of the partition (the splitter position).
    pub positions: Vec<usize>,
    /// Total probes into the sequences (for the ablation benchmarks).
    pub probes: u64,
}

impl SelectionResult {
    /// Sum of splitter positions (must equal the requested rank).
    pub fn rank(&self) -> u64 {
        self.positions.iter().map(|&p| p as u64).sum()
    }
}

/// Random access into one sorted sequence.
pub trait SortedSeq {
    /// The key type.
    type Key: Ord + Copy;

    /// Sequence length in elements.
    fn len(&self) -> usize;

    /// `true` if the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key of the element at `idx` (`idx < len`).
    ///
    /// # Errors
    /// A sequence whose probe can fail surfaces the failure here, and
    /// the selection aborts cleanly. In-memory sequences are
    /// infallible.
    fn key_at(&mut self, idx: usize) -> Result<Self::Key>;
}

impl<K: Ord + Copy> SortedSeq for &[K] {
    type Key = K;

    fn len(&self) -> usize {
        <[K]>::len(self)
    }

    fn key_at(&mut self, idx: usize) -> Result<K> {
        Ok(self[idx])
    }
}

/// A slice paired with a key extractor (for record types).
pub struct KeyedSlice<'a, T, K, F: Fn(&T) -> K> {
    slice: &'a [T],
    keyfn: F,
}

impl<'a, T, K, F: Fn(&T) -> K> KeyedSlice<'a, T, K, F> {
    /// Wrap `slice` with key extractor `keyfn`.
    pub fn new(slice: &'a [T], keyfn: F) -> Self {
        Self { slice, keyfn }
    }
}

impl<T, K: Ord + Copy, F: Fn(&T) -> K> SortedSeq for KeyedSlice<'_, T, K, F> {
    type Key = K;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn key_at(&mut self, idx: usize) -> Result<K> {
        Ok((self.keyfn)(&self.slice[idx]))
    }
}

/// Select the partition of global rank `r` over `seqs`.
///
/// Equal keys across sequences are ordered by sequence index (the
/// paper's conceptual "fill up with ∞" padding plus a deterministic
/// tie-break), so the result is unique and exact.
///
/// # Errors
/// Propagates the first failed [`SortedSeq::key_at`] probe.
///
/// # Panics
/// Panics if `r` exceeds the total number of elements (a caller bug,
/// not a communication failure).
pub fn multiway_select<S: SortedSeq>(seqs: &mut [S], r: u64) -> Result<SelectionResult> {
    let total: u64 = seqs.iter().map(|s| s.len() as u64).sum();
    assert!(r <= total, "rank {r} > total {total}");
    multiway_select_pivot(seqs, r)
}

/// Selection by deterministic pivoting (see the module doc):
/// each round ranks the middle element of the widest undecided splitter
/// range and clamps every sequence's range toward the boundary.
fn multiway_select_pivot<S: SortedSeq>(seqs: &mut [S], r: u64) -> Result<SelectionResult> {
    let n = seqs.len();
    let full: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
    let total: u64 = full.iter().map(|&l| l as u64).sum();
    if r == 0 {
        return Ok(SelectionResult { positions: vec![0; n], probes: 0 });
    }
    if r == total {
        return Ok(SelectionResult { positions: full, probes: 0 });
    }
    // Invariant: the true splitter of sequence `i` lies in
    // `lo[i]..=hi[i]` (the left set — the `r` smallest under the
    // (key, seq, pos) total order — is unique, so the splitters are
    // too).
    let mut lo = vec![0usize; n];
    let mut hi = full;
    let mut probes = 0u64;
    // Pivot from the widest undecided range: ranking it halves that
    // range, so rounds are logarithmic in the longest sequence.
    while let Some(j) = (0..n).filter(|&i| hi[i] > lo[i]).max_by_key(|&i| hi[i] - lo[i]) {
        let m = lo[j] + (hi[j] - lo[j]) / 2;
        probes += 1;
        let k = seqs[j].key_at(m)?;
        // Global rank of the pivot element (k, j, m): elements of `j`
        // before position `m` (keys < k plus equal keys at earlier
        // positions), plus each other sequence's prefix that precedes
        // (k, j) under the tie-break — found by binary search.
        let mut c = vec![0usize; n];
        c[j] = m;
        let mut rank = m as u64;
        for i in 0..n {
            if i == j {
                continue;
            }
            let (mut a, mut b) = (0usize, seqs[i].len());
            while a < b {
                let mid = a + (b - a) / 2;
                probes += 1;
                let ke = seqs[i].key_at(mid)?;
                if ke < k || (ke == k && i < j) {
                    a = mid + 1;
                } else {
                    b = mid;
                }
            }
            c[i] = a;
            rank += a as u64;
        }
        match rank.cmp(&r) {
            // Exactly r elements precede the pivot: the left set is
            // precisely those elements, so `c` is the exact partition.
            std::cmp::Ordering::Equal => return Ok(SelectionResult { positions: c, probes }),
            std::cmp::Ordering::Less => {
                // The pivot is among the r smallest, hence so is every
                // element before it: splitters sit at or past `c` (past
                // the pivot itself in sequence `j`).
                for i in 0..n {
                    lo[i] = lo[i].max(c[i]);
                }
                lo[j] = lo[j].max(m + 1);
            }
            std::cmp::Ordering::Greater => {
                // The pivot is not among the r smallest, so nothing at
                // or after it is: splitters sit at or before `c`.
                for i in 0..n {
                    hi[i] = hi[i].min(c[i]);
                }
                hi[j] = hi[j].min(m);
            }
        }
    }
    debug_assert_eq!(
        lo.iter().map(|&p| p as u64).sum::<u64>(),
        r,
        "empty ranges must pin the exact rank"
    );
    Ok(SelectionResult { positions: lo, probes })
}

/// Split `seqs` into `parts` pieces of (near-)equal global size:
/// `parts + 1` position vectors, where piece `p` of sequence `i` is
/// `result[p][i]..result[p+1][i]`. Used by the in-node parallel merge
/// and the distributed internal sort.
///
/// # Errors
/// Propagates the first failed [`SortedSeq::key_at`] probe.
pub fn multiway_split<S: SortedSeq>(seqs: &mut [S], parts: usize) -> Result<Vec<Vec<usize>>> {
    multiway_split_counted(seqs, parts).map(|(cuts, _)| cuts)
}

/// [`multiway_split`] that also reports the selection probes spent on
/// the splitters — the price of parallelizing a merge, accounted in
/// [`CpuCounters::split_probes`](demsort_types::CpuCounters) so the
/// merge-comparison bound stays thread-count-independent.
///
/// # Errors
/// Propagates the first failed [`SortedSeq::key_at`] probe.
pub fn multiway_split_counted<S: SortedSeq>(
    seqs: &mut [S],
    parts: usize,
) -> Result<(Vec<Vec<usize>>, u64)> {
    assert!(parts > 0);
    let total: u64 = seqs.iter().map(|s| s.len() as u64).sum();
    let mut probes = 0u64;
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(vec![0; seqs.len()]);
    for p in 1..parts {
        let r = (p as u128 * total as u128 / parts as u128) as u64;
        let sel = multiway_select(seqs, r)?;
        probes += sel.probes;
        cuts.push(sel.positions);
    }
    cuts.push(seqs.iter().map(|s| s.len()).collect());
    Ok((cuts, probes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference check: positions sum to `r` and the partition respects
    /// the (key, seq) total order.
    fn assert_exact(seqs: &[Vec<u64>], r: u64, res: &SelectionResult) {
        assert_eq!(res.rank(), r, "positions must sum to the rank");
        let max_left = seqs
            .iter()
            .enumerate()
            .filter(|(i, _)| res.positions[*i] > 0)
            .map(|(i, s)| (s[res.positions[i] - 1], i))
            .max();
        let min_right = seqs
            .iter()
            .enumerate()
            .filter(|(i, s)| res.positions[*i] < s.len())
            .map(|(i, s)| (s[res.positions[i]], i))
            .min();
        if let (Some(l), Some(rr)) = (max_left, min_right) {
            // Equal (key, seq) pairs can only come from equal keys at
            // adjacent positions of the same sequence — a valid split.
            assert!(l <= rr, "partition misordered: left {l:?} right {rr:?}");
        }
    }

    fn select_and_check(seqs: &[Vec<u64>], r: u64) -> SelectionResult {
        let mut views: Vec<&[u64]> = seqs.iter().map(|s| s.as_slice()).collect();
        let res = multiway_select(&mut views, r).expect("in-memory selection");
        assert_exact(seqs, r, &res);
        res
    }

    #[test]
    fn selects_simple_median() {
        let seqs = vec![vec![1, 3, 5], vec![2, 4, 6]];
        let res = select_and_check(&seqs, 3);
        assert_eq!(res.positions, vec![2, 1]); // {1,3} ∪ {2}
    }

    #[test]
    fn rank_zero_and_full() {
        let seqs = vec![vec![5, 6], vec![1, 2, 3]];
        assert_eq!(select_and_check(&seqs, 0).positions, vec![0, 0]);
        assert_eq!(select_and_check(&seqs, 5).positions, vec![2, 3]);
    }

    #[test]
    fn empty_sequences_are_fine() {
        let seqs = vec![vec![], vec![1, 2], vec![]];
        let res = select_and_check(&seqs, 1);
        assert_eq!(res.positions, vec![0, 1, 0]);
    }

    #[test]
    fn all_sequences_empty() {
        let seqs: Vec<Vec<u64>> = vec![vec![], vec![]];
        assert_eq!(select_and_check(&seqs, 0).positions, vec![0, 0]);
    }

    #[test]
    fn duplicate_keys_split_deterministically() {
        // 12 equal keys over 3 sequences; rank 5 must take all of the
        // earliest sequences first (tie-break by sequence index).
        let seqs = vec![vec![7u64; 4], vec![7; 4], vec![7; 4]];
        let res = select_and_check(&seqs, 5);
        assert_eq!(res.positions, vec![4, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_beyond_total_panics() {
        let seqs: Vec<Vec<u64>> = vec![vec![1, 2]];
        select_and_check(&seqs, 3);
    }

    #[test]
    fn probe_failures_abort_the_selection() {
        /// A sequence whose probes fail past a cutoff index.
        struct Flaky {
            len: usize,
            fail_from: usize,
        }
        impl SortedSeq for Flaky {
            type Key = u64;
            fn len(&self) -> usize {
                self.len
            }
            fn key_at(&mut self, idx: usize) -> Result<u64> {
                if idx >= self.fail_from {
                    return Err(demsort_types::Error::comm(format!("probe of {idx} failed")));
                }
                Ok(idx as u64)
            }
        }
        let mut seqs = vec![Flaky { len: 100, fail_from: 10 }];
        let err = multiway_select(&mut seqs, 50).expect_err("failed probes must surface");
        assert!(matches!(err, demsort_types::Error::Comm(_)), "{err}");
        // Probes below the cutoff succeed.
        let mut seqs = vec![Flaky { len: 100, fail_from: 101 }];
        assert_eq!(multiway_select(&mut seqs, 50).expect("fine").positions, vec![50]);
    }

    #[test]
    fn wildly_different_lengths() {
        let seqs = vec![
            (0..1000u64).map(|i| 2 * i).collect::<Vec<_>>(),
            vec![1],
            (0..10u64).map(|i| 200 * i).collect(),
        ];
        for r in [0u64, 1, 10, 500, 1011] {
            select_and_check(&seqs, r);
        }
    }

    #[test]
    fn split_covers_and_balances() {
        let seqs: Vec<Vec<u64>> = (0..5).map(|i| (0..100).map(|j| j * 5 + i).collect()).collect();
        let mut views: Vec<&[u64]> = seqs.iter().map(|s| s.as_slice()).collect();
        let cuts = multiway_split(&mut views, 4).expect("split");
        assert_eq!(cuts.len(), 5);
        assert_eq!(cuts[0], vec![0; 5]);
        assert_eq!(cuts[4], vec![100; 5]);
        for w in cuts.windows(2) {
            let size: u64 = w[1].iter().zip(&w[0]).map(|(b, a)| (b - a) as u64).sum();
            assert_eq!(size, 125, "equal parts");
            for (a, b) in w[0].iter().zip(&w[1]) {
                assert!(a <= b, "cuts monotone per sequence");
            }
        }
    }

    proptest! {
        #[test]
        fn selection_is_exact_on_arbitrary_inputs(
            raw in prop::collection::vec(prop::collection::vec(0u64..64, 0..80), 1..10),
            frac in 0.0f64..=1.0,
        ) {
            let seqs: Vec<Vec<u64>> = raw.into_iter().map(|mut s| { s.sort_unstable(); s }).collect();
            let total: u64 = seqs.iter().map(|s| s.len() as u64).sum();
            let r = (total as f64 * frac) as u64;
            select_and_check(&seqs, r.min(total));
        }

        #[test]
        fn selection_left_set_is_the_r_smallest(
            raw in prop::collection::vec(prop::collection::vec(0u64..32, 0..40), 1..6),
            frac in 0.0f64..=1.0,
        ) {
            let seqs: Vec<Vec<u64>> = raw.into_iter().map(|mut s| { s.sort_unstable(); s }).collect();
            let total: u64 = seqs.iter().map(|s| s.len() as u64).sum();
            let r = ((total as f64 * frac) as u64).min(total);
            let res = select_and_check(&seqs, r);
            // The multiset of left elements equals the r smallest of the
            // union (with (key, seq) tie-break this is unique).
            let mut left: Vec<u64> = seqs
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s[..res.positions[i]].iter().copied())
                .collect();
            left.sort_unstable();
            let mut all: Vec<u64> = seqs.concat();
            all.sort_unstable();
            prop_assert_eq!(left.as_slice(), &all[..r as usize]);
        }
    }
}
