//! Exact selection over *distributed* sorted sequences.
//!
//! The distributed internal sort (Section IV-B) splits `P` sorted
//! sequences — one per PE, resident in that PE's memory — into `P`
//! pieces of equal global size. The split must be **exact** (this is
//! the paper's key difference from NOW-Sort and sample sort, whose
//! approximate splitters degrade on worst-case inputs).
//!
//! Probing one element at a time, as the in-memory selection of Section
//! IV-A does, would take `O(log N)` network rounds per split.
//! [`Splitter`] finds all `P − 1` splits together. Each PE keeps, per
//! split, a bracket of its positions that holds the cut. In a round, one
//! `allgather` carries a few evenly spaced *candidates* from every PE's
//! open brackets (the first round: from the whole sequence, with the
//! PE's length, which gives the ranks to cut at); each PE counts its
//! elements below each candidate, and one vector sum gives every
//! candidate's global rank, which narrows every bracket on every PE.
//!
//! A candidate is a key — below it lie the elements with smaller keys —
//! until keys fail to halve a split's bracket (a run of equal keys);
//! that split's candidates are then whole records. About [`CANDIDATES`]
//! per split cross each round, staggered by rank: a bracket shrinks
//! about 9-fold a round, and one of fewer than 32 goes whole. Every PE
//! knows each bracket's global width from the ranks, so all stop
//! together: `≈ 2·log₉ N` collectives per split, whatever `P`.
//!
//! Elements are ordered as records — by key, then by whatever the
//! record type's `Ord` compares next (`Record100`: the payload) — and
//! equal records by PE rank, then position. This makes the split unique
//! and the merged pieces ordered, as [`crate::selection`] does over
//! slices of records.

use demsort_net::Communicator;
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{Error, Key, Record, Result};

/// Candidates per split and round, summed over all PEs, so that the
/// bytes of a round grow with `P` through the splits only.
pub const CANDIDATES: u64 = 16;

/// More rounds than any input needs (each at least halves every open
/// bracket): a logic bug or a lying peer fails every PE, never hangs.
const MAX_ROUNDS: usize = 64;

/// The global rank at which part `i` of `parts` starts when `total`
/// elements are split into equal parts whose boundaries fall on
/// multiples of `grain`: `⌊⌊i·total/parts⌋ / grain⌋·grain`, and `total`
/// for `i = parts`. With `grain = 1` these are the canonical
/// boundaries `⌊i·total/parts⌋`; with a block's worth of records every
/// part but the last is whole blocks.
pub fn split_rank(i: usize, parts: usize, total: u64, grain: u64) -> u64 {
    if i >= parts {
        return total;
    }
    let r = (i as u128 * total as u128 / parts as u128) as u64;
    r / grain * grain
}

/// Split the distributed sequence into `parts` pieces at the global
/// ranks [`split_rank`] gives for `grain`: returns the `parts + 1`
/// local cut positions for this PE (monotone, covering
/// `0..local.len()`) and the global element count. A one-off
/// [`Splitter::split`].
///
/// # Errors
/// As [`Splitter::split`].
pub fn dist_split<R: Record + Ord>(
    comm: &Communicator,
    local: &[R],
    parts: usize,
    grain: u64,
) -> Result<(Vec<usize>, u64)> {
    Splitter::default().split(comm, local, parts, grain)
}

/// One split's state on this PE: the cut lies in `lo..=hi` of the local
/// sequence, and the global cut (`rank`) in `glo..=ghi` — the sums of
/// every PE's `lo` and `hi`, which every PE knows from the ranks.
struct Bracket {
    rank: u64,
    lo: usize,
    hi: usize,
    glo: u64,
    ghi: u64,
    /// Its candidates are keys, not records.
    keyed: bool,
}

/// A candidate: the elements below a key are those with smaller keys;
/// below a record, those before it in the (record, PE, position) order.
enum Cand<R: Record> {
    Key(R::Key),
    Rec(R),
}

/// The split kernel and the buffers it keeps between calls.
pub struct Splitter<R: Record> {
    /// This PE's candidate positions this round, keys then records.
    mine: (Vec<usize>, Vec<usize>),
    /// Every PE's candidates this round, with their source rank.
    cands: Vec<(Cand<R>, usize)>,
    /// Per candidate: this PE's elements below it (then the global rank).
    below: Vec<u64>,
    brackets: Vec<Bracket>,
}

impl<R: Record> Default for Splitter<R> {
    fn default() -> Self {
        Self { mine: <_>::default(), cands: vec![], below: vec![], brackets: vec![] }
    }
}

impl<R: Record + Ord> Splitter<R> {
    /// [`dist_split`], collectively, with this kernel's buffers.
    ///
    /// # Errors
    /// [`Error::Comm`] on a failed collective or a peer's malformed
    /// candidates or counts (naming the peer), and if the ranks do not
    /// bracket a cut; [`Error::Validation`] if the splits do not close in
    /// [`MAX_ROUNDS`] rounds. Every PE gets an error.
    pub fn split(
        &mut self,
        comm: &Communicator,
        local: &[R],
        parts: usize,
        grain: u64,
    ) -> Result<(Vec<usize>, u64)> {
        assert!(parts > 0 && grain > 0);
        let (me, p) = (comm.rank(), comm.size());
        // The first round samples the whole sequence for all splits.
        self.mine.0.clear();
        self.mine.1.clear();
        let k = (CANDIDATES * (parts as u64 - 1)).div_ceil(p as u64);
        spread(&mut self.mine.0, 0, local.len(), k, me, p);
        let mut total = 0u64;
        for round in 0..MAX_ROUNDS {
            let first = round == 0;
            let (keys, recs) = &self.mine;
            let mut msg = WireWriter::new();
            if first {
                msg.u64(local.len() as u64);
            }
            msg.u32(keys.len() as u32);
            keys.iter().for_each(|&pos| local[pos].key().encode(msg.raw(R::Key::BYTES)));
            recs.iter().for_each(|&pos| local[pos].encode(msg.raw(R::BYTES)));
            self.cands.clear();
            for (src, m) in comm.allgather(msg.finish())?.iter().enumerate() {
                let bad = |e| from_peer(me, src, "split candidates", e);
                let mut r = WireReader::new(m);
                if first {
                    let len = r.field("length").u64().map_err(bad)?;
                    let sum = total.checked_add(len);
                    total = sum.ok_or_else(|| bad(Error::comm("the lengths overflow u64")))?;
                }
                for _ in 0..r.field("key count").u32().map_err(bad)? {
                    let key = r.field("key").raw(R::Key::BYTES).map_err(bad)?;
                    self.cands.push((Cand::Key(R::Key::decode(key)), src));
                }
                if !r.remaining().is_multiple_of(R::BYTES) {
                    let why = format!("{} bytes are not whole records", r.remaining());
                    return Err(bad(Error::comm(why)));
                }
                while r.remaining() > 0 {
                    let rec = r.field("record").raw(R::BYTES).map_err(bad)?;
                    self.cands.push((Cand::Rec(R::decode(rec)), src));
                }
            }
            if first {
                let (hi, ghi) = (local.len(), total);
                let at = |s| split_rank(s, parts, total, grain);
                self.brackets = (1..parts)
                    .map(|s| Bracket { rank: at(s), lo: 0, hi, glo: 0, ghi, keyed: true })
                    .collect();
            }
            if !self.narrow(comm, local)? {
                let los = self.brackets.iter().map(|b| b.lo);
                let cuts: Vec<usize> = std::iter::once(0).chain(los).chain([local.len()]).collect();
                debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts not monotone: {cuts:?}");
                return Ok((cuts, total));
            }
            // The next round's candidates: ⌈CANDIDATES·w/W⌉ from a local
            // bracket of width w in a global one of width W, so that the
            // PEs' candidates sum to about CANDIDATES per split.
            let (keys, recs) = (&mut self.mine.0, &mut self.mine.1);
            keys.clear();
            recs.clear();
            for b in self.brackets.iter().filter(|b| b.glo < b.ghi) {
                let w = (b.hi - b.lo) as u64;
                let k = (CANDIDATES * w).div_ceil(b.ghi - b.glo);
                spread(if b.keyed { &mut *keys } else { &mut *recs }, b.lo, b.hi, k, me, p);
            }
        }
        Err(Error::validation(format!("distributed split did not converge in {MAX_ROUNDS} rounds")))
    }

    /// Rank this round's candidates globally and narrow every open
    /// bracket by them: what lies below a candidate of global rank
    /// `g ≤ rank` is in the split's left part; what lies below one of
    /// `g ≥ rank` holds it. A record candidate is itself below the
    /// elements above it: `g + 1` of them lie at or below it. Returns
    /// whether a bracket is still open.
    fn narrow(&mut self, comm: &Communicator, local: &[R]) -> Result<bool> {
        let open = |brackets: &[Bracket]| brackets.iter().any(|b| b.glo < b.ghi);
        if !open(&self.brackets) {
            return Ok(false);
        }
        let me = comm.rank();
        // Equal records count below a higher rank's record, not below a
        // lower one's, and an own record's position is its count.
        let mut own = self.mine.1.iter();
        self.below.clear();
        self.below.extend(self.cands.iter().map(|(c, src)| {
            let n = match (c, src.cmp(&me)) {
                (Cand::Key(k), _) => local.partition_point(|x| x.key() < *k),
                (Cand::Rec(c), std::cmp::Ordering::Less) => local.partition_point(|x| x < c),
                (Cand::Rec(c), std::cmp::Ordering::Greater) => local.partition_point(|x| x <= c),
                (Cand::Rec(_), _) => *own.next().expect("one position per own record"),
            };
            n as u64
        }));
        let ranks = comm.allreduce_sum_u64s(&self.below)?;
        for b in self.brackets.iter_mut().filter(|b| b.glo < b.ghi) {
            let width = b.ghi - b.glo;
            for ((&g, &n), (c, src)) in ranks.iter().zip(&self.below).zip(&self.cands) {
                let rec = matches!(c, Cand::Rec(_));
                if g.saturating_add(u64::from(rec)) <= b.rank {
                    b.lo = b.lo.max(n as usize + usize::from(rec && *src == me));
                    b.glo = b.glo.max(g + u64::from(rec));
                }
                if g >= b.rank {
                    b.hi = b.hi.min(n as usize);
                    b.ghi = b.ghi.min(g);
                }
            }
            if b.lo > b.hi || b.glo > b.ghi {
                let why = format!("rank {me}: the candidates' ranks leave no cut at {}", b.rank);
                return Err(Error::comm(why));
            }
            b.keyed &= 2 * (b.ghi - b.glo) <= width;
        }
        Ok(open(&self.brackets))
    }
}

/// Push `k` positions of `lo..hi` spread evenly, offset by this PE's
/// rank so that the PEs' candidates interleave rather than bunch at the
/// same quantiles — or the whole bracket when `k` covers half of it.
fn spread(out: &mut Vec<usize>, lo: usize, hi: usize, k: u64, me: usize, p: usize) {
    let w = (hi - lo) as u64;
    if 2 * k >= w {
        out.extend(lo..hi);
        return;
    }
    let slots = 2 * k * p as u64;
    out.extend((0..k).map(|j| lo + ((2 * (j * p as u64 + me as u64) + 1) * w / slots) as usize));
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_net::run_cluster;
    use demsort_types::Element16;
    use demsort_workloads::splitmix64;
    use proptest::prelude::*;

    /// The cuts `sort_unstable` gives: the first [`split_rank`] elements
    /// of the (record, PE, position) order, counted per PE.
    fn oracle(locals: &[Vec<Element16>], parts: usize, grain: u64) -> Vec<Vec<usize>> {
        let mut all: Vec<(Element16, usize, usize)> = locals
            .iter()
            .enumerate()
            .flat_map(|(pe, l)| l.iter().enumerate().map(move |(i, &e)| (e, pe, i)))
            .collect();
        all.sort_unstable();
        let total = all.len() as u64;
        let mut cuts = vec![vec![0usize; parts + 1]; locals.len()];
        for s in 1..=parts {
            for &(_, pe, _) in &all[..split_rank(s, parts, total, grain) as usize] {
                cuts[pe][s] += 1;
            }
        }
        cuts
    }

    /// Split `locals` on as many PEs and check every PE's cuts and the
    /// total against the oracle; returns the collectives each PE took.
    fn check_split(locals: &[Vec<Element16>], parts: usize, grain: u64) -> Vec<u64> {
        let got = run_cluster(locals.len(), |c| {
            let before = c.collectives();
            let split = dist_split(&c, &locals[c.rank()], parts, grain).expect("split");
            (split, c.collectives() - before)
        });
        let total: u64 = locals.iter().map(|l| l.len() as u64).sum();
        for ((pe, ((cuts, t), _)), want) in got.iter().enumerate().zip(oracle(locals, parts, grain))
        {
            assert_eq!(*cuts, want, "PE {pe}, {parts} parts, grain {grain}");
            assert_eq!(*t, total);
        }
        got.into_iter().map(|(_, n)| n).collect()
    }

    fn sorted_locals(p: usize, n: usize, keys: u64, seed: u64) -> Vec<Vec<Element16>> {
        (0..p)
            .map(|pe| {
                let mut v: Vec<Element16> = (0..n as u64)
                    .map(|i| {
                        let gid = pe as u64 * n as u64 + i;
                        Element16::new(splitmix64(seed ^ gid) % keys, gid)
                    })
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn selects_exact_ranks_random_data() {
        let locals = sorted_locals(4, 250, 1000, 7);
        for (parts, grain) in [(2, 1), (4, 1), (4, 7), (9, 1), (3, 1000)] {
            check_split(&locals, parts, grain);
        }
    }

    #[test]
    fn single_pe_degenerates_to_position() {
        let locals = sorted_locals(1, 100, 1000, 3);
        for parts in [1, 2, 5] {
            check_split(&locals, parts, 1);
        }
    }

    #[test]
    fn unbalanced_and_empty_locals() {
        let mut locals = sorted_locals(4, 100, 1000, 11);
        locals[1].clear();
        locals[2].truncate(5);
        for parts in [2, 4, 7] {
            check_split(&locals, parts, 1);
        }
        check_split(&vec![Vec::new(); 3], 3, 1);
    }

    #[test]
    fn all_duplicate_keys_split_by_pe_order() {
        let locals: Vec<Vec<Element16>> = (0..3).map(|_| vec![Element16::new(42, 0); 10]).collect();
        check_split(&locals, 2, 1);
        // Canonical: PE 0's 10 elements, then 5 from PE 1.
        let cuts = run_cluster(3, |c| dist_split(&c, &locals[c.rank()], 2, 1).expect("split").0);
        assert_eq!(cuts.iter().map(|c| c[1]).collect::<Vec<_>>(), vec![10, 5, 0]);
    }

    #[test]
    fn equal_keys_split_by_payload_before_pe_order() {
        // PE 0's records carry the larger payload: record order puts all
        // of PE 1's first, whatever the ranks.
        let locals: Vec<Vec<Element16>> =
            (0..2u64).map(|pe| vec![Element16::new(42, 1 - pe); 10]).collect();
        check_split(&locals, 4, 1);
        let cuts = run_cluster(2, |c| dist_split(&c, &locals[c.rank()], 4, 1).expect("split").0);
        assert_eq!(cuts, vec![vec![0, 0, 0, 5, 10], vec![0, 5, 10, 10, 10]]);
    }

    #[test]
    fn dist_split_produces_equal_parts() {
        let locals = sorted_locals(5, 200, 1000, 23);
        let all_cuts =
            run_cluster(5, |c| dist_split(&c, &locals[c.rank()], 5, 1).expect("split").0);
        // Every part has global size 200.
        for part in 0..5 {
            let size: usize = all_cuts.iter().map(|cuts| cuts[part + 1] - cuts[part]).sum();
            assert_eq!(size, 200, "part {part}");
        }
    }

    #[test]
    fn collectives_per_split_do_not_grow_with_p() {
        // The first round's sample leaves each split about
        // 2·N / (16·(P − 1)) wide, each later round divides that by about
        // 9 (the gap a cut falls in is twice the mean), and a bracket of
        // fewer than 32 goes whole: at most 5 rounds of two collectives
        // for N ≤ 60 000, at every P. The pivot search took
        // ≈ (P − 1)·(3·rounds + 2) with rounds ≈ 20.
        for p in [2, 3, 5, 8] {
            for (n, keys) in [(6000, u64::MAX), (6000, 50), (60_000, u64::MAX)] {
                let locals = sorted_locals(p, n / p, keys, p as u64);
                let collectives = check_split(&locals, p, 1);
                assert!(collectives.iter().all(|&c| c == collectives[0]), "{collectives:?}");
                assert!(collectives[0] <= 10, "P = {p}, N = {n}, keys < {keys}: {collectives:?}");
            }
        }
    }

    /// Rank 0's error when rank 1 speaks the kernel's protocol by hand:
    /// `first` as its first round's message, then `counts` (if any) as
    /// its vector of counts.
    fn peer_error(first: &[u8], counts: Option<&[u8]>) -> String {
        let results = run_cluster(2, |c| {
            if c.rank() == 1 {
                c.allgather(first.to_vec()).expect("peer sends");
                if let Some(counts) = counts {
                    c.allgather(counts.to_vec()).expect("peer sends");
                }
                return None;
            }
            let local: Vec<Element16> = (0..4).map(|i| Element16::new(i, i)).collect();
            Some(dist_split(&c, &local, 2, 1))
        });
        let err = results[0].clone().expect("rank 0").expect_err("bad message");
        assert!(matches!(err, Error::Comm(_)), "{err}");
        err.to_string()
    }

    #[test]
    fn rejects_short_or_garbled_messages() {
        // A valid first message: [length][key count][one key].
        let mut whole = 1u64.to_le_bytes().to_vec();
        whole.extend_from_slice(&1u32.to_le_bytes());
        whole.extend_from_slice(&7u64.to_le_bytes());
        for cut in 0..whole.len() {
            let err = peer_error(&whole[..cut], None);
            assert!(err.contains("rank 0: bad split candidates from rank 1: truncated"), "{err}");
            let field = ["length", "key count", "key"][(cut >= 8) as usize + (cut >= 12) as usize];
            assert!(err.contains(&format!("for {field} at")), "cut {cut}: {err}");
        }
        let mut garbled = whole.clone();
        garbled.extend_from_slice(&[0u8; 15]);
        let err = peer_error(&garbled, None);
        assert!(err.contains("rank 0: bad split candidates from rank 1: 15 bytes"), "{err}");
        let err = peer_error(&u64::MAX.to_le_bytes(), None);
        assert!(err.contains("rank 0: bad split candidates from rank 1: the lengths"), "{err}");
        // Rank 0 ranks its 4 keys and rank 1's: a sum of 5 words.
        for counts in [&[][..], &[0u8; 7], &[0u8; 32]] {
            let err = peer_error(&whole, Some(counts));
            let want = format!("rank 0: rank 1 sent {} bytes to a sum of 5 words", counts.len());
            assert!(err.contains(&want), "{err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn dist_select_exact_arbitrary(
            sizes in prop::collection::vec(0usize..60, 2..5),
            key_range in 1u64..50,
            parts in 1usize..7,
            grain in 1u64..5,
            seed in 0u64..1000,
        ) {
            let locals: Vec<Vec<Element16>> = sizes
                .iter()
                .enumerate()
                .map(|(pe, &n)| {
                    let mut v: Vec<Element16> = (0..n as u64)
                        .map(|i| {
                            let gid = pe as u64 * 1000 + i;
                            Element16::new(splitmix64(seed ^ gid) % key_range, gid % 3)
                        })
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            check_split(&locals, parts, grain);
        }
    }
}
