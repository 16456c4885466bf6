//! The run directory: global metadata about formed runs.
//!
//! After run formation, run `j` is a globally sorted sequence of up to
//! `M` elements whose canonical slice `i` sits on PE `i`'s local disks.
//! Phase 2 (multiway selection + all-to-all) needs to address *run
//! element `x` of run `j`* wherever it lives, so after phase 1 every PE
//! learns, for every run:
//!
//! * each PE's slice length (prefix offsets map run-global element
//!   indexes to `(pe, local index)`),
//! * each slice's on-disk block list (to probe a remote element), and
//! * the merged **sample** (every `K`-th element, Section IV-A /
//!   Appendix B) that warm-starts the selection.
//!
//! All of this is `o(N)`: per run, `P` lengths + `N/(M/B)` block ids +
//! `M/K` samples.

use crate::recio::{FinishedRun, Sample};
use demsort_net::Communicator;
use demsort_storage::{BlockId, Run};
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{Error, Record, Result};

/// Per-PE slice metadata of one run, as seen by every PE.
#[derive(Clone, Debug, Default)]
pub struct SliceMeta {
    /// Number of elements in the slice.
    pub elems: u64,
    /// The slice's on-disk blocks (block ids are local to the owner).
    pub blocks: Vec<BlockId>,
}

/// Global metadata of one run.
#[derive(Clone, Debug, Default)]
pub struct RunMeta<R: Record> {
    /// Slice metadata, indexed by PE.
    pub slices: Vec<SliceMeta>,
    /// Prefix offsets: slice `i` covers run elements
    /// `offsets[i]..offsets[i+1]` (length `P + 1`).
    pub offsets: Vec<u64>,
    /// Merged sample with run-global positions, ascending.
    pub samples: Vec<Sample<R>>,
}

impl<R: Record> RunMeta<R> {
    /// Total elements in the run.
    pub fn elems(&self) -> u64 {
        *self.offsets.last().expect("offsets nonempty")
    }

    /// Which PE owns run-global element `x`, and its local index.
    pub fn locate(&self, x: u64) -> (usize, u64) {
        debug_assert!(x < self.elems());
        // offsets is sorted; find the slice containing x.
        let pe = self.offsets.partition_point(|&o| o <= x) - 1;
        (pe, x - self.offsets[pe])
    }
}

/// Everything a PE knows about all runs after phase 1.
#[derive(Clone, Debug, Default)]
pub struct RunDirectory<R: Record> {
    /// Global metadata per run.
    pub runs: Vec<RunMeta<R>>,
    /// This PE's local slice (blocks + prediction keys) per run.
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

/// Exchange local slice metadata into the global [`RunDirectory`].
///
/// Collective: every PE contributes its local [`FinishedRun`] per run
/// (one entry per run, possibly empty slices).
///
/// # Errors
/// [`Error::Comm`] if the metadata allgather of any run fails (dead or
/// silent peer) or a peer's slice metadata does not decode.
pub fn build_directory<R: Record + Ord>(
    comm: &Communicator,
    local: Vec<FinishedRun<R>>,
) -> Result<RunDirectory<R>> {
    let p = comm.size();
    let nruns = local.len();
    let mut runs = Vec::with_capacity(nruns);
    for (j, fr) in local.iter().enumerate() {
        let gathered = comm.allgather(encode_slice_meta(fr))?;
        let mut slices = Vec::with_capacity(p);
        let mut per_pe_samples = Vec::with_capacity(p);
        for (src, buf) in gathered.iter().enumerate() {
            let (meta, samples) = decode_slice_meta::<R>(buf)
                .map_err(|e| from_peer(comm.rank(), src, "run directory slice", e))?;
            slices.push(meta);
            per_pe_samples.push(samples);
        }
        let mut offsets = Vec::with_capacity(p + 1);
        offsets.push(0u64);
        for s in &slices {
            offsets.push(offsets.last().expect("nonempty") + s.elems);
        }
        // Merge samples: shift local positions to run-global ones.
        let mut samples = Vec::new();
        for (pe, ss) in per_pe_samples.into_iter().enumerate() {
            let base = offsets[pe];
            samples.extend(ss.into_iter().map(|s| Sample { pos: base + s.pos, rec: s.rec }));
        }
        debug_assert!(samples.windows(2).all(|w| w[0].pos < w[1].pos), "run {j} samples ordered");
        runs.push(RunMeta { slices, offsets, samples });
    }
    Ok(RunDirectory { runs, local })
}

/// One PE's slice of one run as the directory allgather carries it:
/// `elems`, the block and sample counts, the block ids, then each
/// sample's slice-local position and record.
fn encode_slice_meta<R: Record>(fr: &FinishedRun<R>) -> Vec<u8> {
    let mut w =
        WireWriter::with_capacity(16 + fr.run.blocks.len() * 8 + fr.samples.len() * (8 + R::BYTES));
    w.u64(fr.elems).u32(fr.run.blocks.len() as u32).u32(fr.samples.len() as u32);
    for b in &fr.run.blocks {
        w.u32(b.disk).u32(b.slot);
    }
    for s in &fr.samples {
        w.u64(s.pos);
        s.rec.encode(w.raw(R::BYTES));
    }
    w.finish()
}

/// Decode a peer's [`encode_slice_meta`] message. The two counts must
/// account for exactly the bytes that follow (so neither can make this
/// rank allocate more than the message it already holds), and every
/// sample must lie inside the slice.
fn decode_slice_meta<R: Record>(buf: &[u8]) -> Result<(SliceMeta, Vec<Sample<R>>)> {
    let mut r = WireReader::new(buf);
    let elems = r.field("elems").u64()?;
    let nblocks = r.field("nblocks").u32()? as usize;
    let nsamples = r.field("nsamples").u32()? as usize;
    if nblocks * 8 + nsamples * (8 + R::BYTES) != r.remaining() {
        return Err(Error::comm(format!(
            "nblocks {nblocks} and nsamples {nsamples} do not describe the {} bytes that follow",
            r.remaining()
        )));
    }
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let disk = r.field("block disk").u32()?;
        blocks.push(BlockId::new(disk, r.field("block slot").u32()?));
    }
    let mut samples = Vec::with_capacity(nsamples);
    for _ in 0..nsamples {
        let pos = r.field("sample pos").u64()?;
        if pos >= elems {
            return Err(Error::comm(format!("sample pos {pos} in a slice of {elems} elems")));
        }
        samples.push(Sample { pos, rec: R::decode(r.field("sample").raw(R::BYTES)?) });
    }
    Ok((SliceMeta { elems, blocks }, samples))
}

/// The run a [`SliceMeta`] describes (for constructing readers over a
/// remote or local slice).
pub fn slice_run(meta: &SliceMeta, block_bytes: usize) -> Run {
    Run { blocks: meta.blocks.clone(), bytes: meta.blocks.len() as u64 * block_bytes as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_net::run_cluster;
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
                .map(|p| Sample { pos: p, rec: Element16::new(p * 10 + pe as u64, p) })
                .collect(),
            block_first_keys: Vec::new(),
        }
    }

    #[test]
    fn meta_encode_decode_roundtrip() {
        let fr = finished(1, 11);
        let buf = encode_slice_meta(&fr);
        let (meta, samples) = decode_slice_meta::<Element16>(&buf).expect("valid");
        assert_eq!(meta.elems, 11);
        assert_eq!(meta.blocks, fr.run.blocks);
        assert_eq!(samples, fr.samples);
    }

    #[test]
    fn slice_meta_rejects_short_frames_and_out_of_range_fields() {
        let buf = encode_slice_meta(&finished(1, 11));
        for cut in 0..buf.len() {
            let err = decode_slice_meta::<Element16>(&buf[..cut]).expect_err("strict prefix");
            assert!(matches!(err, Error::Comm(_)), "cut {cut}: {err}");
        }
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_slice_meta::<Element16>(&long).is_err(), "trailing bytes");
        // One out-of-range value per field: `elems` below a sample's
        // position, a block count and a sample count the frame does not
        // hold.
        for (at, value, field) in [(0, 8u32, "sample pos"), (8, 4, "nblocks"), (12, 2, "nsamples")]
        {
            let mut bad = buf.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let err = decode_slice_meta::<Element16>(&bad).expect_err(field);
            assert!(matches!(&err, Error::Comm(m) if m.contains(field)), "{field}: {err}");
        }
    }

    proptest::proptest! {
        #[test]
        fn slice_meta_round_trips(
            elems in 0u64..200,
            slots in proptest::collection::vec(0u32..u32::MAX, 0..12),
            every in 1u64..9,
        ) {
            let fr = FinishedRun {
                run: Run {
                    blocks: slots.iter().map(|&s| BlockId::new(s % 3, s)).collect(),
                    bytes: slots.len() as u64 * 64,
                },
                elems,
                samples: (0..elems)
                    .step_by(every as usize)
                    .map(|p| Sample { pos: p, rec: Element16::new(p * 7, p) })
                    .collect(),
                block_first_keys: Vec::new(),
            };
            let (meta, samples) =
                decode_slice_meta::<Element16>(&encode_slice_meta(&fr)).expect("valid");
            proptest::prop_assert_eq!(meta.elems, fr.elems);
            proptest::prop_assert_eq!(meta.blocks, fr.run.blocks);
            proptest::prop_assert_eq!(samples, fr.samples);
        }
    }

    #[test]
    fn directory_offsets_and_locate() {
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
            assert_eq!(run.locate(0), (0, 0));
            assert_eq!(run.locate(9), (0, 9));
            assert_eq!(run.locate(10), (1, 0));
            assert_eq!(run.locate(29), (1, 19));
            assert_eq!(run.locate(59), (2, 29));
        }
    }

    #[test]
    fn samples_get_global_positions() {
        let p = 2;
        let dirs = run_cluster(p, move |c| {
            let fr = finished(c.rank(), 8);
            build_directory(&c, vec![fr]).expect("directory")
        });
        let samples = &dirs[0].runs[0].samples;
        let positions: Vec<u64> = samples.iter().map(|s| s.pos).collect();
        assert_eq!(positions, vec![0, 4, 8, 12], "PE1's local 0,4 shifted by 8");
    }

    #[test]
    fn empty_slices_are_representable() {
        let p = 2;
        let dirs = run_cluster(p, move |c| {
            let fr = if c.rank() == 0 { finished(0, 5) } else { FinishedRun::empty() };
            build_directory(&c, vec![fr]).expect("directory")
        });
        assert_eq!(dirs[0].runs[0].offsets, vec![0, 5, 5]);
        assert_eq!(dirs[0].runs[0].locate(4), (0, 4));
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
