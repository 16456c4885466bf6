//! Exact selection over *distributed* sorted sequences.
//!
//! The distributed internal sort (Section IV-B) splits `P` sorted
//! sequences — one per PE, resident in that PE's memory — into `P`
//! pieces of equal global size. The split must be **exact** (this is
//! the paper's key difference from NOW-Sort and sample sort, whose
//! approximate splitters degrade on worst-case inputs).
//!
//! The in-memory multiway selection of Section IV-A probes sequences
//! one element at a time, which is fine locally but would serialize
//! into `O(R log M)` communication rounds when every probe crosses the
//! network. Here we use the standard bulk-synchronous equivalent:
//! **weighted-median pivoting**. Each round, every PE contributes the
//! median of its active range (a single record) and its active size;
//! the weighted median of those medians becomes the pivot; ranks are
//! counted with two local binary searches and one allreduce. Each round
//! discards at least a quarter of the active elements, so the search
//! finishes in `O(log N)` rounds of `O(P)`-byte messages — the same
//! exact result as the paper's selection, with communication that
//! scales.
//!
//! Ties are broken canonically by PE rank: of equal keys, lower-ranked
//! PEs' elements count as smaller. This makes the returned split unique
//! and is the same convention as [`crate::selection`].

use demsort_net::Communicator;
use demsort_types::wire::{from_peer, WireReader};
use demsort_types::{Error, Record, Result};

/// Number of elements of `local` (this PE's sorted sequence) that fall
/// strictly left of the global partition at rank `r`.
///
/// Collective: every PE must call this with the same `r`. The result
/// differs per PE; summed over PEs it equals `r`.
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) if a peer dies or goes silent
/// during any pivot round — every surviving PE gets the error.
///
/// # Panics
/// Panics (on every PE) if `r` exceeds the global element count.
pub fn dist_select_rank<R: Record + Ord>(
    comm: &Communicator,
    local: &[R],
    r: u64,
) -> Result<usize> {
    debug_assert!(local.windows(2).all(|w| w[0].key() <= w[1].key()), "local must be sorted");
    let total = comm.allreduce_sum(local.len() as u64)?;
    assert!(r <= total, "rank {r} > total {total}");
    if r == 0 {
        return Ok(0);
    }
    if r == total {
        return Ok(local.len());
    }

    // Active range of candidate split positions in the local sequence.
    let (mut lo, mut hi) = (0usize, local.len());
    // Each round discards ≥ 1/4 of the global active weight, so
    // ⌈log4/3 N⌉ rounds suffice; the bound turns a logic bug into an
    // error on every PE instead of a distributed hang.
    let max_rounds = 8 + 4 * (64 - total.leading_zeros() as usize);
    for _round in 0..max_rounds {
        let weight = (hi - lo) as u64;
        // Candidate pivot: the median record of the active range.
        let candidate = if weight > 0 { Some(local[lo + (hi - lo) / 2]) } else { None };
        let pivot = weighted_median(comm, candidate, weight)?;
        let Some((pk, _ppe)) = pivot else {
            // No PE has active elements left: the split is pinned.
            debug_assert_eq!(comm.allreduce_sum(lo as u64)?, r);
            return Ok(lo);
        };

        // Count, over the *whole* local sequence, elements with keys
        // strictly below the pivot key, and at-or-below it.
        let lt = local.partition_point(|x| x.key() < pk);
        let le = local.partition_point(|x| x.key() <= pk);
        let c_lt = comm.allreduce_sum(lt as u64)?; // elements with key < pk
        let c_le = comm.allreduce_sum(le as u64)?; // elements with key <= pk

        if r <= c_lt {
            // Split lies among keys < pk: discard everything >= pk.
            hi = hi.min(lt);
            lo = lo.min(hi);
        } else if r >= c_le {
            // Split lies among keys > pk: keep everything <= pk left.
            lo = lo.max(le);
            hi = hi.max(lo);
        } else {
            // The split lands inside the band of keys == pk. Assign the
            // `r - c_lt` in-band slots to PEs in rank order.
            let eq = (le - lt) as u64;
            let before_me = comm.exscan_sum(eq)?;
            let remaining = (r - c_lt).saturating_sub(before_me);
            return Ok(lt + remaining.min(eq) as usize);
        }
    }
    Err(Error::validation(format!("distributed selection did not converge in {max_rounds} rounds")))
}

/// Split the distributed sequence into `parts` equal pieces: returns the
/// `parts + 1` local cut positions for this PE (monotone, covering
/// `0..local.len()`).
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) on the first failed collective
/// of any underlying selection round.
pub fn dist_split<R: Record + Ord>(
    comm: &Communicator,
    local: &[R],
    parts: usize,
) -> Result<Vec<usize>> {
    assert!(parts > 0);
    let total = comm.allreduce_sum(local.len() as u64)?;
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0);
    for p in 1..parts {
        let r = (p as u128 * total as u128 / parts as u128) as u64;
        cuts.push(dist_select_rank(comm, local, r)?);
    }
    cuts.push(local.len());
    debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must be monotone: {cuts:?}");
    Ok(cuts)
}

/// Weighted median of one candidate record per PE.
///
/// Returns `(key, pe)` of the weighted median candidate under the
/// (key, pe) order, or `None` if every PE's weight is zero.
fn weighted_median<R: Record + Ord>(
    comm: &Communicator,
    candidate: Option<R>,
    weight: u64,
) -> Result<Option<(R::Key, usize)>> {
    // Allgather (weight, encoded record); weight 0 = no candidate.
    let mut msg = vec![0u8; 8 + R::BYTES];
    msg[..8].copy_from_slice(&weight.to_le_bytes());
    if let Some(c) = candidate {
        c.encode(&mut msg[8..]);
    }
    let gathered = comm.allgather(msg)?;

    let mut cands: Vec<(R::Key, usize, u64)> = Vec::with_capacity(gathered.len());
    for (pe, m) in gathered.iter().enumerate() {
        let bad = |e: Error| from_peer(comm.rank(), pe, "pivot candidate", e);
        let mut r = WireReader::new(m);
        let w = r.field("weight").u64().map_err(bad)?;
        let rec = r.field("candidate").raw(R::BYTES).map_err(bad)?;
        if w > 0 {
            cands.push((R::decode(rec).key(), pe, w));
        }
    }
    cands.sort_by_key(|a| (a.0, a.1));
    // The first candidate whose prefix weight reaches half the total;
    // the last one always does, so only an empty list gives `None`.
    let total: u64 = cands.iter().map(|c| c.2).sum();
    let mut acc = 0u64;
    Ok(cands
        .into_iter()
        .find(|&(_, _, w)| {
            acc += w;
            acc * 2 >= total
        })
        .map(|(k, pe, _)| (k, pe)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_net::run_cluster;
    use demsort_types::Element16;
    use demsort_workloads::splitmix64;
    use proptest::prelude::*;

    /// Run a distributed selection and verify exactness against the
    /// globally sorted reference.
    fn check_select(locals: Vec<Vec<Element16>>, r: u64) {
        let p = locals.len();
        let locals_ref = &locals;
        let positions = run_cluster(p, move |c| {
            let mine = &locals_ref[c.rank()];
            dist_select_rank(&c, mine, r).expect("select")
        });
        let total: u64 = positions.iter().map(|&x| x as u64).sum();
        assert_eq!(total, r, "positions must sum to the rank");
        // Partition property under (key, pe) order.
        let max_left = locals
            .iter()
            .enumerate()
            .filter(|(i, _)| positions[*i] > 0)
            .map(|(i, s)| (s[positions[i] - 1].key, i))
            .max();
        let min_right = locals
            .iter()
            .enumerate()
            .filter(|(i, s)| positions[*i] < s.len())
            .map(|(i, s)| (s[positions[i]].key, i))
            .min();
        if let (Some(l), Some(rr)) = (max_left, min_right) {
            assert!(l <= rr, "misordered: left {l:?} right {rr:?}");
        }
    }

    fn sorted_locals(p: usize, n: usize, seed: u64) -> Vec<Vec<Element16>> {
        (0..p)
            .map(|pe| {
                let mut v: Vec<Element16> = (0..n as u64)
                    .map(|i| {
                        let gid = pe as u64 * n as u64 + i;
                        Element16::new(splitmix64(seed ^ gid) % 1000, gid)
                    })
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn selects_exact_ranks_random_data() {
        let locals = sorted_locals(4, 250, 7);
        for r in [0u64, 1, 17, 500, 999, 1000] {
            check_select(locals.clone(), r);
        }
    }

    #[test]
    fn single_pe_degenerates_to_position() {
        let locals = sorted_locals(1, 100, 3);
        for r in [0u64, 50, 100] {
            check_select(locals.clone(), r);
        }
    }

    #[test]
    fn unbalanced_and_empty_locals() {
        let mut locals = sorted_locals(4, 100, 11);
        locals[1].clear();
        locals[2].truncate(5);
        let total: u64 = locals.iter().map(|l| l.len() as u64).sum();
        for r in [0, 1, total / 2, total] {
            check_select(locals.clone(), r);
        }
    }

    #[test]
    fn all_duplicate_keys_split_by_pe_order() {
        let p = 3;
        let locals: Vec<Vec<Element16>> =
            (0..p).map(|pe| vec![Element16::new(42, pe as u64); 10]).collect();
        let locals_ref = &locals;
        let positions = run_cluster(p, move |c| {
            dist_select_rank(&c, &locals_ref[c.rank()], 15).expect("select")
        });
        // Canonical: PE 0's 10 elements, then 5 from PE 1.
        assert_eq!(positions, vec![10, 5, 0]);
    }

    #[test]
    fn dist_split_produces_equal_parts() {
        let locals = sorted_locals(5, 200, 23);
        let locals_ref = &locals;
        let all_cuts =
            run_cluster(5, move |c| dist_split(&c, &locals_ref[c.rank()], 5).expect("split"));
        // Every part has global size 200.
        for part in 0..5 {
            let size: usize = all_cuts.iter().map(|cuts| cuts[part + 1] - cuts[part]).sum();
            assert_eq!(size, 200, "part {part}");
        }
    }

    #[test]
    fn weighted_median_rejects_short_candidates() {
        // Rank 1 sends the empty message or a strict prefix of its
        // `[weight][record]` candidate instead of the whole.
        let mut whole = 7u64.to_le_bytes().to_vec();
        whole.extend_from_slice(&[0u8; Element16::BYTES]);
        for cut in 0..whole.len() {
            let msg = &whole[..cut];
            let results = run_cluster(2, move |c| {
                if c.rank() == 1 {
                    c.allgather(msg.to_vec()).expect("peer sends");
                    return None;
                }
                Some(weighted_median(&c, Some(Element16::new(4, 0)), 3))
            });
            let err = results[0].clone().expect("rank 0").expect_err("short candidate");
            let text = err.to_string();
            assert!(matches!(err, Error::Comm(_)), "{text}");
            assert!(text.contains("rank 0: bad pivot candidate from rank 1"), "{text}");
            let field = if cut < 8 { "weight" } else { "candidate" };
            assert!(text.contains(field), "cut {cut}: {text}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn dist_select_exact_arbitrary(
            sizes in prop::collection::vec(0usize..60, 2..5),
            key_range in 1u64..50,
            frac in 0.0f64..=1.0,
            seed in 0u64..1000,
        ) {
            let locals: Vec<Vec<Element16>> = sizes
                .iter()
                .enumerate()
                .map(|(pe, &n)| {
                    let mut v: Vec<Element16> = (0..n as u64)
                        .map(|i| {
                            let gid = pe as u64 * 1000 + i;
                            Element16::new(splitmix64(seed ^ gid) % key_range, gid)
                        })
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let total: u64 = locals.iter().map(|l| l.len() as u64).sum();
            let r = ((total as f64) * frac) as u64;
            check_select(locals, r.min(total));
        }
    }
}
