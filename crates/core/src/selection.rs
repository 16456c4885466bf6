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
//! keys of the windows the run samples bracket; the merges split their
//! batches through it too. Every sequence is a plain sorted slice, so a
//! selection cannot fail.
//!
//! Total work: `O(R² log M)` sequence probes and time, `O(log M)` rounds
//! of `R` binary searches; our `R` is small.

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

/// [`select_rank`] for callers that unwrap a `Result`; it is always
/// `Ok`.
///
/// # Errors
/// None.
pub fn multiway_select<K: Ord>(seqs: &[&[K]], r: u64) -> demsort_types::Result<SelectionResult> {
    Ok(select_rank(seqs, r))
}

/// Select the partition of global rank `r` over the sorted `seqs` by
/// deterministic pivoting (see the module doc): each round ranks the
/// middle element of the widest undecided splitter range and clamps
/// every sequence's range toward the boundary.
///
/// Equal keys across sequences are ordered by sequence index (the
/// paper's conceptual "fill up with ∞" padding plus a deterministic
/// tie-break), so the result is unique and exact.
///
/// # Panics
/// Panics if `r` exceeds the total number of elements (a caller bug).
pub fn select_rank<K: Ord>(seqs: &[&[K]], r: u64) -> SelectionResult {
    let n = seqs.len();
    let full: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
    let total: u64 = full.iter().map(|&l| l as u64).sum();
    assert!(r <= total, "rank {r} > total {total}");
    if r == 0 {
        return SelectionResult { positions: vec![0; n], probes: 0 };
    }
    if r == total {
        return SelectionResult { positions: full, probes: 0 };
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
        let k = &seqs[j][m];
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
                // `Ord` alone decides: a key type's `==` may look at
                // more than its order does.
                if seqs[i][mid].cmp(k).then(i.cmp(&j)).is_lt() {
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
            std::cmp::Ordering::Equal => return SelectionResult { positions: c, probes },
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
    SelectionResult { positions: lo, probes }
}

/// Split `seqs` into `parts` pieces of (near-)equal global size:
/// `parts + 1` position vectors, where piece `p` of sequence `i` is
/// `result[p][i]..result[p+1][i]`, and the selection probes spent on
/// the splitters — the price of parallelizing a merge, accounted in
/// [`CpuCounters::split_probes`](demsort_types::CpuCounters) so the
/// merge-comparison bound stays thread-count-independent.
pub fn multiway_split_counted<K: Ord>(seqs: &[&[K]], parts: usize) -> (Vec<Vec<usize>>, u64) {
    assert!(parts > 0);
    let total: u64 = seqs.iter().map(|s| s.len() as u64).sum();
    let mut probes = 0u64;
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(vec![0; seqs.len()]);
    for p in 1..parts {
        let r = (p as u128 * total as u128 / parts as u128) as u64;
        let sel = select_rank(seqs, r);
        probes += sel.probes;
        cuts.push(sel.positions);
    }
    cuts.push(seqs.iter().map(|s| s.len()).collect());
    (cuts, probes)
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
        let views: Vec<&[u64]> = seqs.iter().map(|s| s.as_slice()).collect();
        let res = select_rank(&views, r);
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

    /// Ordered by `key` only, equal only when `tag` matches too: the
    /// shape of a record ordered by its key whose `Eq` is derived over
    /// the payload.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct KeyOnly {
        key: u8,
        tag: u8,
    }

    impl PartialOrd for KeyOnly {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for KeyOnly {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    #[test]
    fn ties_follow_ord_not_eq() {
        let k = |key, tag| KeyOnly { key, tag };
        let a = [k(1, 0), k(2, 0), k(2, 1)];
        let b = [k(2, 2), k(2, 3), k(3, 0)];
        let c = [k(0, 0), k(2, 4)];
        // In (key, sequence) order the 2s go a, a, b, b, c.
        let want = [
            [0, 0, 0],
            [0, 0, 1],
            [1, 0, 1],
            [2, 0, 1],
            [3, 0, 1],
            [3, 1, 1],
            [3, 2, 1],
            [3, 2, 2],
        ];
        for (r, want) in want.iter().enumerate() {
            let res = select_rank(&[&a[..], &b[..], &c[..]], r as u64);
            assert_eq!(res.positions, want.to_vec(), "rank {r}");
        }
        assert_eq!(select_rank(&[&a[..], &b[..], &c[..]], 8).positions, vec![3, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_beyond_total_panics() {
        let seqs: Vec<Vec<u64>> = vec![vec![1, 2]];
        select_and_check(&seqs, 3);
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
        let views: Vec<&[u64]> = seqs.iter().map(|s| s.as_slice()).collect();
        let (cuts, _) = multiway_split_counted(&views, 4);
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
