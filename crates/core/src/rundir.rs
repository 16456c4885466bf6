//! The run directory: what every PE knows about the formed runs.
//!
//! After run formation, run `j` is a globally sorted sequence of up to
//! `M` elements whose canonical slice `i` sits on PE `i`'s local disks.
//! Phase 2 reads only each PE's own slices — selection brackets every
//! run's split with the samples, and the all-to-all ships what it
//! holds — so after phase 1 every PE learns, for every run, just:
//!
//! * each PE's slice length (prefix offsets map run-global element
//!   indexes to slices), and
//! * the merged **sample** (every `K`-th key and its position, Section
//!   IV-A / Appendix B) that brackets every run's split for the
//!   selection.
//!
//! The blocks of a PE's own slices stay with it ([`RunDirectory::local`]).
//! All of this is `o(N)`: per run, `P` lengths + `M/K` samples.

use crate::recio::{FinishedRun, Sample};
use demsort_net::Communicator;
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{Error, Key, Record, Result};

/// Global metadata of one run.
#[derive(Clone, Debug)]
pub struct RunMeta<K> {
    /// Prefix offsets: slice `i` covers run elements
    /// `offsets[i]..offsets[i+1]` (length `P + 1`).
    pub offsets: Vec<u64>,
    /// Merged sample with run-global positions, ascending.
    pub samples: Vec<Sample<K>>,
}

impl<K> RunMeta<K> {
    /// Total elements in the run.
    pub fn elems(&self) -> u64 {
        *self.offsets.last().expect("offsets nonempty")
    }

    /// The run-global elements PE `pe`'s slice holds.
    pub fn slice(&self, pe: usize) -> std::ops::Range<u64> {
        self.offsets[pe]..self.offsets[pe + 1]
    }
}

/// Everything a PE knows about all runs after phase 1.
#[derive(Clone, Debug)]
pub struct RunDirectory<R: Record> {
    /// Global metadata per run.
    pub runs: Vec<RunMeta<R::Key>>,
    /// This PE's local slice (blocks + prediction keys) per run; its
    /// samples moved into `runs`.
    pub local: Vec<FinishedRun<R>>,
}

impl<R: Record> RunDirectory<R> {
    /// Number of runs.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total elements across all runs.
    pub fn total_elems(&self) -> u64 {
        self.runs.iter().map(|r| r.elems()).sum()
    }
}

/// Exchange every PE's slice lengths and samples into the global
/// [`RunDirectory`].
///
/// Collective: every PE contributes its local [`FinishedRun`] per run
/// (one entry per run, possibly empty slices).
///
/// # Errors
/// [`Error::Comm`] if the allgather of any run fails (dead or silent
/// peer) or a peer's slice message does not decode.
pub fn build_directory<R: Record>(
    comm: &Communicator,
    mut local: Vec<FinishedRun<R>>,
) -> Result<RunDirectory<R>> {
    let mut runs = Vec::with_capacity(local.len());
    for fr in &mut local {
        let gathered = comm.allgather(encode_slice(fr.elems, &fr.samples))?;
        let mut offsets = vec![0u64];
        let mut samples = Vec::new();
        for (src, buf) in gathered.iter().enumerate() {
            let base = *offsets.last().expect("nonempty");
            let end = if src == comm.rank() {
                // Our own slice: move its samples instead of decoding them.
                let own = std::mem::take(&mut fr.samples).into_iter();
                samples.extend(own.map(|s| Sample { pos: base + s.pos, ..s }));
                base + fr.elems
            } else {
                decode_slice(buf, base, &mut samples)
                    .map_err(|e| from_peer(comm.rank(), src, "run directory slice", e))?
            };
            offsets.push(end);
        }
        runs.push(RunMeta { offsets, samples });
    }
    Ok(RunDirectory { runs, local })
}

/// One PE's slice of one run as the directory allgather carries it:
/// `elems`, the sample count, then each sample's slice-local position
/// and key.
fn encode_slice<K: Key>(elems: u64, samples: &[Sample<K>]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(12 + samples.len() * (8 + K::BYTES));
    w.u64(elems).u32(samples.len() as u32);
    for s in samples {
        w.u64(s.pos);
        s.key.encode(w.raw(K::BYTES));
    }
    w.finish()
}

/// Decode a peer's [`encode_slice`] message for the slice that starts
/// at run element `base`, appending its samples to `samples` shifted
/// by `base`, and return the run element the slice ends at. The
/// sample count must account for exactly the bytes that follow (so it
/// cannot make this rank allocate more than the message it already
/// holds), and the positions must rise strictly inside the slice: the
/// selection's windows are computed from them.
fn decode_slice<K: Key>(buf: &[u8], base: u64, samples: &mut Vec<Sample<K>>) -> Result<u64> {
    let mut r = WireReader::new(buf);
    let elems = r.field("elems").u64()?;
    let end = base
        .checked_add(elems)
        .ok_or_else(|| Error::comm(format!("elems {elems} after {base} overflow the run")))?;
    let nsamples = r.field("nsamples").u32()? as usize;
    if nsamples * (8 + K::BYTES) != r.remaining() {
        return Err(Error::comm(format!(
            "nsamples {nsamples} does not describe the {} bytes that follow",
            r.remaining()
        )));
    }
    samples.reserve(nsamples);
    let mut prev = None;
    for _ in 0..nsamples {
        let pos = r.field("sample pos").u64()?;
        if pos >= elems {
            return Err(Error::comm(format!("sample pos {pos} in a slice of {elems} elems")));
        }
        if let Some(prev) = prev.filter(|&p| p >= pos) {
            return Err(Error::comm(format!("sample pos {pos} after sample pos {prev}")));
        }
        prev = Some(pos);
        samples.push(Sample { pos: base + pos, key: K::decode(r.field("sample").raw(K::BYTES)?) });
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_net::run_cluster;
    use demsort_storage::{BlockId, Run};
    use demsort_types::Element16;

    fn finished(pe: usize, elems: u64) -> FinishedRun<Element16> {
        FinishedRun {
            run: Run {
                blocks: (0..elems.div_ceil(4)).map(|i| BlockId::new(pe as u32, i as u32)).collect(),
                bytes: elems.div_ceil(4) * 64,
            },
            elems,
            samples: (0..elems)
                .step_by(4)
                .map(|p| Sample { pos: p, key: p * 10 + pe as u64 })
                .collect(),
            block_first_keys: Vec::new(),
        }
    }

    /// Decode a slice message at base 0: its length and samples.
    fn decode(buf: &[u8]) -> Result<(u64, Vec<Sample<u64>>)> {
        let mut samples = Vec::new();
        decode_slice(buf, 0, &mut samples).map(|elems| (elems, samples))
    }

    #[test]
    fn meta_encode_decode_roundtrip() {
        let fr = finished(1, 11);
        let buf = encode_slice(fr.elems, &fr.samples);
        assert_eq!(buf.len(), 12 + 3 * 16, "elems, count, then (pos, key) per sample");
        let (elems, samples) = decode(&buf).expect("valid");
        assert_eq!(elems, 11);
        assert_eq!(samples, fr.samples);
        let mut shifted: Vec<Sample<u64>> = Vec::new();
        assert_eq!(decode_slice(&buf, 100, &mut shifted).expect("valid"), 111, "the slice's end");
        let positions: Vec<u64> = shifted.iter().map(|s| s.pos).collect();
        assert_eq!(positions, vec![100, 104, 108], "positions shifted by the slice's base");
    }

    #[test]
    fn slice_meta_rejects_short_frames_and_out_of_range_fields() {
        let fr = finished(1, 11);
        let buf = encode_slice(fr.elems, &fr.samples);
        for cut in 0..buf.len() {
            let err = decode(&buf[..cut]).expect_err("strict prefix");
            assert!(matches!(err, Error::Comm(_)), "cut {cut}: {err}");
        }
        let mut long = buf.clone();
        long.push(0);
        assert!(decode(&long).is_err(), "trailing bytes");
        // One out-of-range value per field: `elems` below a sample's
        // position, and a sample count the frame does not hold.
        for (at, value, field) in [(0, 8u32, "sample pos"), (8, 2, "nsamples")] {
            let mut bad = buf.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let err = decode(&bad).expect_err(field);
            assert!(matches!(&err, Error::Comm(m) if m.contains(field)), "{field}: {err}");
        }
        // A slice that would end past the run's `u64` range.
        let err = decode_slice::<u64>(&buf, u64::MAX - 10, &mut Vec::new()).expect_err("overflow");
        assert!(matches!(&err, Error::Comm(m) if m.contains("overflow the run")), "{err}");
    }

    #[test]
    fn a_peer_whose_samples_do_not_rise_is_rejected() {
        let results = run_cluster(2, move |c| {
            let mut fr = finished(c.rank(), 11);
            if c.rank() == 1 {
                fr.samples.swap(0, 1);
            }
            build_directory(&c, vec![fr]).map(|_| ())
        });
        let err = results[0].clone().expect_err("rank 1's samples fall");
        let text = err.to_string();
        assert!(matches!(err, Error::Comm(_)), "{text}");
        assert!(text.contains("rank 0: bad run directory slice from rank 1"), "{text}");
        assert!(text.contains("sample pos 0 after sample pos 4"), "{text}");
    }

    proptest::proptest! {
        #[test]
        fn slice_meta_round_trips(elems in 0u64..200, every in 1u64..9) {
            let samples: Vec<Sample<u64>> =
                (0..elems).step_by(every as usize).map(|p| Sample { pos: p, key: p * 7 }).collect();
            let (decoded_elems, decoded) = decode(&encode_slice(elems, &samples)).expect("valid");
            proptest::prop_assert_eq!(decoded_elems, elems);
            proptest::prop_assert_eq!(decoded, samples);
        }
    }

    #[test]
    fn directory_offsets_and_slices() {
        let p = 3;
        let dirs = run_cluster(p, move |c| {
            // PE i's slice has 10·(i+1) elements.
            let fr = finished(c.rank(), 10 * (c.rank() as u64 + 1));
            build_directory(&c, vec![fr]).expect("directory")
        });
        for d in &dirs {
            let run = &d.runs[0];
            assert_eq!(run.offsets, vec![0, 10, 30, 60]);
            assert_eq!(run.elems(), 60);
            assert_eq!(run.slice(0), 0..10);
            assert_eq!(run.slice(1), 10..30);
            assert_eq!(run.slice(2), 30..60);
        }
    }

    #[test]
    fn the_directory_sends_lengths_and_keyed_samples_only() {
        // Three PEs with the same slices, so each forwards messages of
        // its own size around the allgather ring: (P − 1) copies of
        // 12 bytes plus (pos, key) per sample, per run. No block id and
        // no whole record travels.
        let p = 3;
        let lens = [11u64, 0, 40];
        let sent = run_cluster(p, move |c| {
            let local: Vec<_> = lens.iter().map(|&n| finished(c.rank(), n)).collect();
            let before = c.counters().bytes_sent;
            let dir = build_directory(&c, local).expect("directory");
            assert!(dir.local.iter().all(|fr| fr.samples.is_empty()), "samples moved");
            assert_eq!(dir.local[2].run.blocks.len(), 10, "own blocks kept");
            c.counters().bytes_sent - before
        });
        let key = <u64 as Key>::BYTES as u64;
        let per_run: u64 = lens.iter().map(|&n| 12 + n.div_ceil(4) * (8 + key)).sum();
        assert_eq!(sent, vec![(p as u64 - 1) * per_run; p]);
    }

    #[test]
    fn samples_get_global_positions() {
        let p = 2;
        let dirs = run_cluster(p, move |c| {
            let fr = finished(c.rank(), 8);
            build_directory(&c, vec![fr]).expect("directory")
        });
        for d in &dirs {
            let samples = &d.runs[0].samples;
            let positions: Vec<u64> = samples.iter().map(|s| s.pos).collect();
            assert_eq!(positions, vec![0, 4, 8, 12], "PE1's local 0,4 shifted by 8");
            let keys: Vec<u64> = samples.iter().map(|s| s.key).collect();
            assert_eq!(keys, vec![0, 40, 1, 41], "each PE's keys, own and decoded alike");
        }
    }

    #[test]
    fn empty_slices_are_representable() {
        let p = 2;
        let dirs = run_cluster(p, move |c| {
            let fr = if c.rank() == 0 { finished(0, 5) } else { FinishedRun::empty() };
            build_directory(&c, vec![fr]).expect("directory")
        });
        assert_eq!(dirs[0].runs[0].offsets, vec![0, 5, 5]);
        assert_eq!(dirs[0].runs[0].slice(1), 5..5);
    }

    #[test]
    fn multiple_runs_kept_separate() {
        let dirs = run_cluster(2, move |c| {
            let a = finished(c.rank(), 4);
            let b = finished(c.rank(), 6);
            build_directory(&c, vec![a, b]).expect("directory")
        });
        assert_eq!(dirs[0].num_runs(), 2);
        assert_eq!(dirs[0].runs[0].elems(), 8);
        assert_eq!(dirs[0].runs[1].elems(), 12);
        assert_eq!(dirs[0].total_elems(), 20);
    }
}
