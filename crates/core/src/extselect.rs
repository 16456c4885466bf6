//! Phase 2a: exact multiway selection across runs (Section IV-A,
//! Appendix B), reading only the selecting PEs' own disks.
//!
//! PE `s` must find, for each run, the position of the first element it
//! owns in the final output — the partition of global rank
//! `r_s = ⌊s·N/P⌋` over the `R` runs. The runs live on disk, spread over
//! all PEs, and the paper's probes "have to request data from remote
//! disks", a hot spot it softens with randomization, a sample and a
//! cache. Here the sample does all of it: the directory holds every
//! `K`-th key of every run and its position, and that alone brackets
//! every run's split to a window of a few `K` records
//! (`sample_windows`). So no PE reads for another. Each PE reads the
//! parts of all `P` windows that lie in its own slices and pushes the
//! keys of window `s` to PE `s` in one all-to-all; PE `s` then selects
//! exactly, in memory, over them ([`select_splitters`]). The split is
//! unique under the (key, run, position) order, so it is the one a
//! search over the whole runs would find.

use crate::recio::RecordRunReader;
use crate::rundir::{RunDirectory, RunMeta};
use crate::selection::select_rank;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_storage::PeStorage;
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{ranks, Error, Key, Record, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// What one PE's selection cost.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Records in the windows of this PE's own boundary, which it
    /// selected over.
    pub window_records: u64,
    /// Blocks this PE read from its own disks for the windows it
    /// pushed.
    pub blocks_read: u64,
    /// Bytes this PE pushed to other PEs: the keys of window records
    /// and one count per run.
    pub bytes_pushed: u64,
}

/// The splitter positions of one global rank over all runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSplitters {
    /// `positions[j]` = first run-global element of run `j` belonging to
    /// the right side.
    pub positions: Vec<u64>,
}

/// Where the split of one global rank can lie: run `j`'s split is in
/// `lo[j]..=hi[j]`, so the records `lo[j]..hi[j]` decide it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Window {
    /// Per run, the first record of the window.
    lo: Vec<u64>,
    /// Per run, one past the last record of the window.
    hi: Vec<u64>,
}

impl Window {
    /// Records in the window, over all runs.
    fn records(&self) -> u64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).sum()
    }

    /// The part of run `j`'s window that lies in the slice
    /// `slice` (run-global positions).
    fn part(&self, j: usize, slice: Range<u64>) -> Range<u64> {
        let lo = self.lo[j].clamp(slice.start, slice.end);
        lo..self.hi[j].clamp(lo, slice.end)
    }
}

/// The windows of the global ranks `ranks` (ascending), from the runs'
/// samples alone.
///
/// Take the samples in (key, run, position) order; after the first `t`,
/// let `L_j(t)` be one past run `j`'s last taken sample and `H_j(t)` its
/// first untaken one (or the run's end). Every element up to the `t`-th
/// sample precedes every untaken one, so the split of that element's
/// rank lies between `L(t)` and `H(t)` in every run. Rank `r`'s window
/// is then `L(t_a)..H(t_b)`, with `t_a` the last prefix with
/// `Σ H_j(t_a) ≤ r` and `t_b` the first with `Σ L_j(t_b) ≥ r`. When
/// each run samples at most `K` records apart (every slice's first
/// record, then every `K`-th), a window holds fewer than
/// `2K + 2R(K−1)` records.
pub(crate) fn sample_windows<K: Ord + Copy>(runs: &[RunMeta<K>], ranks: &[u64]) -> Vec<Window> {
    debug_assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks ascending");
    let first_untaken =
        |j: usize, taken: usize| runs[j].samples.get(taken).map_or(runs[j].elems(), |s| s.pos);
    let mut taken = vec![0usize; runs.len()];
    let mut lo = vec![0u64; runs.len()];
    let mut hi: Vec<u64> = (0..runs.len()).map(|j| first_untaken(j, 0)).collect();
    let (mut sum_lo, mut sum_hi) = (0u64, hi.iter().sum::<u64>());
    // The runs' next samples; ties go to the lower run.
    let mut next: BinaryHeap<Reverse<(K, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(j, m)| m.samples.first().map(|s| Reverse((s.key, j))))
        .collect();
    let mut windows = vec![Window::default(); ranks.len()];
    // The next rank awaiting its window's lower and upper edges.
    let (mut a, mut b) = (0, 0);
    loop {
        while b < ranks.len() && sum_lo >= ranks[b] {
            windows[b].hi = hi.clone();
            b += 1;
        }
        let step = next.pop().map(|Reverse((_, j))| j);
        let next_hi = step.map_or(u64::MAX, |j| sum_hi - hi[j] + first_untaken(j, taken[j] + 1));
        while a < ranks.len() && next_hi > ranks[a] {
            windows[a].lo = lo.clone();
            a += 1;
        }
        let Some(j) = step else { break };
        let pos = runs[j].samples[taken[j]].pos;
        taken[j] += 1;
        sum_lo += pos + 1 - lo[j];
        lo[j] = pos + 1;
        sum_hi = next_hi;
        hi[j] = first_untaken(j, taken[j]);
        if let Some(s) = runs[j].samples.get(taken[j]) {
            next.push(Reverse((s.key, j)));
        }
    }
    // Ranks no prefix of the sample reaches end at the runs' ends.
    for w in &mut windows[b..] {
        w.hi = hi.clone();
    }
    windows
}

/// Select this PE's splitters (collective): the exact partition of
/// global rank `⌊rank·N/P⌋` over the runs of `dir`.
///
/// Every PE computes all `P` windows from the directory's samples,
/// reads the parts of them in its own slices, and sends the keys of
/// window `s` to PE `s`; each PE then selects over the keys it
/// received.
///
/// # Errors
/// [`Error::Io`] if reading a window part fails; [`Error::Comm`] if the
/// exchange fails or a peer's pushed window does not hold exactly the
/// records its bracket implies.
pub fn select_splitters<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    dir: &RunDirectory<R>,
) -> Result<(RunSplitters, SelectionStats)> {
    let (p, me) = (comm.size(), comm.rank());
    let n = dir.total_elems();
    let bounds: Vec<u64> = (0..p).map(|s| ranks::owned_range(s, p, n).start).collect();
    let windows = sample_windows(&dir.runs, &bounds);

    let blocks_before = st.counters().blocks_read;
    let msgs = windows.iter().map(|w| push_window(st, dir, w, me)).collect::<Result<Vec<_>>>()?;
    let blocks_read = st.counters().blocks_read - blocks_before;
    let pushed = msgs.iter().enumerate().filter(|&(s, _)| s != me);
    let bytes_pushed = pushed.map(|(_, m)| m.len() as u64).sum();

    let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;
    let mine = &windows[me];
    let mut keys: Vec<Vec<R::Key>> =
        mine.lo.iter().zip(&mine.hi).map(|(l, h)| Vec::with_capacity((h - l) as usize)).collect();
    for (src, buf) in received.iter().enumerate() {
        window_keys(dir, mine, src, buf, &mut keys)
            .map_err(|e| from_peer(me, src, "selection window", e))?;
    }
    let base: u64 = mine.lo.iter().sum();
    let seqs: Vec<&[R::Key]> = keys.iter().map(Vec::as_slice).collect();
    let sel = select_rank(&seqs, bounds[me] - base);
    let positions = mine.lo.iter().zip(&sel.positions).map(|(&l, &q)| l + q as u64).collect();
    let stats = SelectionStats { window_records: mine.records(), blocks_read, bytes_pushed };
    Ok((RunSplitters { positions }, stats))
}

/// The part of `window` in PE `me`'s slices, as pushed to the window's
/// PE: per run, the record count, then the records' keys.
fn push_window<R: Record>(
    st: &PeStorage,
    dir: &RunDirectory<R>,
    window: &Window,
    me: usize,
) -> Result<Vec<u8>> {
    let parts: Vec<Range<u64>> =
        dir.runs.iter().enumerate().map(|(j, m)| window.part(j, m.slice(me))).collect();
    let records: u64 = parts.iter().map(|r| r.end - r.start).sum();
    let mut w = WireWriter::with_capacity(8 * parts.len() + records as usize * R::Key::BYTES);
    for ((part, meta), local) in parts.iter().zip(&dir.runs).zip(&dir.local) {
        w.u64(part.end - part.start);
        let off = meta.offsets[me];
        let (start, end) = (part.start - off, part.end - off);
        let mut reader =
            RecordRunReader::<R>::with_range(st, &local.run, local.elems, start, end, false);
        while let Some(rec) = reader.next_rec()? {
            rec.key().encode(w.raw(R::Key::BYTES));
        }
    }
    Ok(w.finish())
}

/// Append the keys PE `src` pushed for `window` to `keys`, checking
/// that each run's part holds exactly the records of `window` in
/// `src`'s slice.
fn window_keys<R: Record>(
    dir: &RunDirectory<R>,
    window: &Window,
    src: usize,
    buf: &[u8],
    keys: &mut [Vec<R::Key>],
) -> Result<()> {
    let mut r = WireReader::new(buf);
    for (j, meta) in dir.runs.iter().enumerate() {
        let part = window.part(j, meta.slice(src));
        let count = r.field("window count").u64()?;
        if count != part.end - part.start {
            return Err(Error::comm(format!(
                "run {j}: {count} records where the bracket implies {}",
                part.end - part.start
            )));
        }
        let bytes = r.field("window keys").raw(count as usize * R::Key::BYTES)?;
        keys[j].extend(bytes.chunks_exact(R::Key::BYTES).map(R::Key::decode));
    }
    if r.remaining() > 0 {
        return Err(Error::comm(format!("{} bytes past the window", r.remaining())));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall::exchange_splitters;
    use crate::ctx::ClusterStorage;
    use crate::recio::{read_records, Sample};
    use crate::runform::{form_runs, ingest_input};
    use demsort_net::run_cluster;
    use demsort_types::{AlgoConfig, Element16, MachineConfig, SortConfig};
    use demsort_workloads::{generate_pe_input, InputSpec};
    use proptest::prelude::*;

    /// Every PE's splitters and stats, and the runs decoded whole.
    type Selected = (Vec<(RunSplitters, SelectionStats)>, Vec<Vec<Element16>>);

    /// Form runs of `spec` on `p` tiny PEs and select every PE's
    /// splitters.
    fn select_all(p: usize, local_n: usize, spec: InputSpec, algo: AlgoConfig) -> Selected {
        let cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let st_ref = &storage;
        let out = run_cluster(p, move |c| {
            let st = st_ref.pe(c.rank());
            let recs = generate_pe_input(spec, 11, c.rank(), p, local_n);
            let input = ingest_input(st, &recs).expect("ingest");
            let out = form_runs::<Element16>(&c, st, &cfg, input, 1, None).expect("form");
            let dir = crate::rundir::build_directory(&c, out.local).expect("directory");
            let sel = select_splitters(&c, st, &dir).expect("select");
            (sel, dir)
        });
        let dir0 = &out[0].1;
        let runs = (0..dir0.num_runs())
            .map(|j| {
                let mut run = Vec::new();
                for (pe, (_, d)) in out.iter().enumerate() {
                    let fr = &d.local[j];
                    run.extend(
                        read_records::<Element16>(st_ref.pe(pe), &fr.run, fr.elems).expect("read"),
                    );
                }
                run
            })
            .collect();
        (out.into_iter().map(|(sel, _)| sel).collect(), runs)
    }

    /// The exact split of rank `r` over whole in-memory runs' keys.
    fn reference_positions(runs: &[Vec<Element16>], r: u64) -> Vec<u64> {
        let keys: Vec<Vec<u64>> = runs.iter().map(|s| s.iter().map(|e| e.key).collect()).collect();
        let views: Vec<&[u64]> = keys.iter().map(Vec::as_slice).collect();
        select_rank(&views, r).positions.iter().map(|&p| p as u64).collect()
    }

    #[test]
    fn external_matches_in_memory_selection() {
        for spec in [InputSpec::Uniform, InputSpec::Constant, InputSpec::SkewedToOne] {
            let p = 3;
            let (sel, runs) = select_all(p, 700, spec, AlgoConfig::default());
            assert!(runs.len() > 1, "several runs");
            let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
            for (pe, (split, stats)) in sel.iter().enumerate() {
                let r = ranks::owned_range(pe, p, total).start;
                assert_eq!(split.positions, reference_positions(&runs, r), "{spec:?} rank {r}");
                let k = AlgoConfig::default().sample_every as u64;
                assert!(stats.window_records < 2 * k + 2 * runs.len() as u64 * (k - 1));
            }
        }
    }

    #[test]
    fn every_pe_gets_consistent_boundaries() {
        let p = 4;
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let st_ref = &storage;
        let all = run_cluster(p, move |c| {
            let st = st_ref.pe(c.rank());
            let recs = generate_pe_input(InputSpec::Uniform, 11, c.rank(), p, 400);
            let input = ingest_input(st, &recs).expect("ingest");
            let out = form_runs::<Element16>(&c, st, &cfg, input, 1, None).expect("form");
            let dir = crate::rundir::build_directory(&c, out.local).expect("directory");
            let (mine, _) = select_splitters(&c, st, &dir).expect("select");
            (exchange_splitters(&c, &dir, &mine).expect("exchange"), dir.total_elems())
        });
        for (gathered, n) in &all {
            assert_eq!(gathered, &all[0].0, "every PE holds the same splitters");
            for (pe, split) in gathered.iter().enumerate() {
                assert_eq!(
                    split.positions.iter().sum::<u64>(),
                    ranks::owned_range(pe, p, *n).start
                );
            }
            for w in gathered.windows(2) {
                assert!(
                    w[0].positions.iter().zip(&w[1].positions).all(|(a, b)| a <= b),
                    "monotone"
                );
            }
        }
    }

    #[test]
    fn denser_samples_narrow_the_windows() {
        let select = |k| {
            select_all(
                2,
                1000,
                InputSpec::Uniform,
                AlgoConfig { sample_every: k, ..AlgoConfig::default() },
            )
        };
        let ((dense, runs), (sparse, _)) = (select(16), select(64));
        let records = |sel: &[(RunSplitters, SelectionStats)]| {
            sel.iter().map(|(_, s)| s.window_records).sum::<u64>()
        };
        assert!(records(&dense) < records(&sparse), "{dense:?} vs {sparse:?}");
        assert!(dense.iter().zip(&sparse).all(|(d, s)| d.0 == s.0), "same exact split");
        assert!(runs.len() > 1);
    }

    #[test]
    fn pushed_windows_are_counted() {
        let (sel, runs) = select_all(2, 1000, InputSpec::Uniform, AlgoConfig::default());
        let nruns = runs.len() as u64;
        let [(_, s0), (_, s1)] = [sel[0].clone(), sel[1].clone()];
        // Rank 0's boundary is rank 0: an empty window, nothing pushed
        // to it but one count per run.
        assert_eq!(s0.window_records, 0);
        assert_eq!(s1.bytes_pushed, 8 * nruns);
        // Rank 0 pushes the part of rank 1's window in its slices, as
        // 8-byte keys after the counts; rank 1 reads the rest.
        assert!(s1.window_records > 0);
        let from_rank0 = (s0.bytes_pushed - 8 * nruns) / 8;
        assert_eq!((s0.bytes_pushed - 8 * nruns) % 8, 0);
        assert!(0 < from_rank0 && from_rank0 < s1.window_records, "{s0:?} {s1:?}");
        assert!(s0.blocks_read > 0 && s1.blocks_read > 0, "{s0:?} {s1:?}");
    }

    #[test]
    fn a_window_holding_other_than_its_bracket_is_rejected() {
        // Rank 1 pushes one record too many in its first run.
        let cfg = SortConfig::new(MachineConfig::tiny(2), AlgoConfig::default()).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let st_ref = &storage;
        let results = run_cluster(2, move |c| {
            let st = st_ref.pe(c.rank());
            let recs = generate_pe_input(InputSpec::Uniform, 3, c.rank(), 2, 600);
            let input = ingest_input(st, &recs).expect("ingest");
            let out = form_runs::<Element16>(&c, st, &cfg, input, 1, None).expect("form");
            let dir = crate::rundir::build_directory(&c, out.local).expect("directory");
            if c.rank() == 0 {
                return Some(select_splitters(&c, st, &dir));
            }
            let bounds: Vec<u64> =
                (0..2).map(|s| ranks::owned_range(s, 2, dir.total_elems()).start).collect();
            let windows = sample_windows(&dir.runs, &bounds);
            let mut msgs: Vec<Vec<u8>> =
                windows.iter().map(|w| push_window(st, &dir, w, 1).expect("push")).collect();
            let first = u64::from_le_bytes(msgs[0][..8].try_into().expect("count"));
            msgs[0][..8].copy_from_slice(&(first + 1).to_le_bytes());
            msgs[0].extend_from_slice(&[0; 8]);
            chunked_alltoallv(&c, msgs, MPI_VOLUME_LIMIT).expect("exchange");
            None
        });
        let err = results[0].clone().expect("rank 0").expect_err("bad window");
        let text = err.to_string();
        assert!(matches!(err, Error::Comm(_)), "{text}");
        assert!(text.contains("bad selection window from rank 1"), "{text}");
        assert!(text.contains("where the bracket implies"), "{text}");
    }

    /// Runs of `keys`, cut into ragged slices over `p` PEs, with the
    /// samples the run writer takes: each slice's first record, then
    /// every `k`-th.
    fn metas(runs: &[Vec<u64>], cuts: &[Vec<usize>], k: usize) -> Vec<RunMeta<u64>> {
        runs.iter()
            .zip(cuts)
            .map(|(run, cut)| {
                let samples = cut
                    .windows(2)
                    .flat_map(|w| (w[0]..w[1]).step_by(k))
                    .map(|i| Sample { pos: i as u64, key: run[i] })
                    .collect();
                RunMeta { offsets: cut.iter().map(|&c| c as u64).collect(), samples }
            })
            .collect()
    }

    /// `len` sorted keys of one of four shapes: uniform, few distinct
    /// keys, all equal, or most keys on one value (`SkewedToOne`-like).
    fn sorted_keys(shape: usize, len: usize, next: &mut impl FnMut() -> u64) -> Vec<u64> {
        let mut run: Vec<u64> = (0..len)
            .map(|_| match shape {
                0 => next(),
                1 => next() % 4,
                2 => 7,
                _ => {
                    if next().is_multiple_of(8) {
                        next()
                    } else {
                        7
                    }
                }
            })
            .collect();
        run.sort_unstable();
        run
    }

    proptest! {
        #[test]
        fn windows_bracket_the_exact_split(
            shape in 0usize..4,
            lens in prop::collection::vec(0usize..400, 1..8),
            seed in 1u64..u64::MAX,
        ) {
            let mut rng = seed;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let runs: Vec<Vec<u64>> = lens.iter().map(|&len| sorted_keys(shape, len, &mut next)).collect();
            let recs: Vec<Vec<Element16>> =
                runs.iter().map(|r| r.iter().map(|&key| Element16::new(key, 0)).collect()).collect();
            let n: u64 = runs.iter().map(|r| r.len() as u64).sum();
            for p in [1usize, 2, 3, 5] {
                // Ragged cuts, empty slices among them.
                let cuts: Vec<Vec<usize>> = runs
                    .iter()
                    .map(|run| {
                        let mut cut: Vec<usize> =
                            (1..p).map(|_| next() as usize % (run.len() + 1)).collect();
                        cut.push(0);
                        cut.push(run.len());
                        cut.sort_unstable();
                        cut
                    })
                    .collect();
                let bounds: Vec<u64> = (0..p).map(|s| ranks::owned_range(s, p, n).start).collect();
                for k in [1usize, 4, 64] {
                    let windows = sample_windows(&metas(&runs, &cuts, k), &bounds);
                    let (k, nruns) = (k as u64, runs.len() as u64);
                    for (w, &r) in windows.iter().zip(&bounds) {
                        let exact = reference_positions(&recs, r);
                        for (j, &x) in exact.iter().enumerate() {
                            prop_assert!(
                                w.lo[j] <= x && x <= w.hi[j],
                                "P {p} K {k} rank {r} run {j}: {x} not in {}..={}",
                                w.lo[j],
                                w.hi[j]
                            );
                        }
                        prop_assert!(
                            w.records() < 2 * k + 2 * nruns * (k - 1),
                            "P {p} K {k} rank {r}: width {}",
                            w.records()
                        );
                    }
                }
            }
        }
    }
}
