//! The file edges of a sort: where a rank's shard of the input lies,
//! and where its part of the output goes.
//!
//! Neither edge copies the data. The input is a
//! [`LocalInput::Extent`] over the rank's shard ([`input_shard`]): run
//! formation's group reader reads it straight from the file, a block
//! per engine request. The output is an [`OutputFile`] that the sort's
//! last pass opens and writes into, each block at its final byte
//! offset — the canonical sort's part at `owned_range(rank).start`
//! ([`OutputFile::canonical_part`]), the striped sort's part of each
//! batch at the batch's offset plus the part's block-aligned start (no
//! striping: a file has no disks). Between the two a record is read
//! twice and written twice, as in the paper: the two passes are the
//! sort's only file I/O.
//!
//! Every failure is an [`Error::Io`] naming the rank, the file and the
//! byte offset. The rank program that drives the edges is
//! [`run_rank_job`](crate::job::run_rank_job); [`write_record_file`]
//! and [`read_record_file`] fill its input and read its output.

use crate::recio::RunDest;
use crate::runform::LocalInput;
use demsort_storage::EdgeFile;
use demsort_types::{ranks, Error, Record, Result};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Number of records in the file at `path`, which must consist of
/// whole `R` records.
pub fn file_records<R: Record>(path: &Path) -> Result<u64> {
    let len = std::fs::metadata(path)
        .map_err(|e| Error::io(format!("stat {}: {e}", path.display())))?
        .len();
    if len % R::BYTES as u64 != 0 {
        return Err(Error::config(format!(
            "{} is not whole {}-byte records",
            path.display(),
            R::BYTES
        )));
    }
    Ok(len / R::BYTES as u64)
}

/// Write `recs` into a new file at `path`, or over the one there.
pub fn write_record_file<R: Record>(path: &Path, recs: &[R]) -> Result<()> {
    let failed = |e: std::io::Error| Error::io(format!("write {}: {e}", path.display()));
    let mut file = File::create(path).map_err(failed)?;
    let mut bytes = Vec::new();
    for chunk in recs.chunks((64 << 10) / R::BYTES) {
        bytes.resize(chunk.len() * R::BYTES, 0);
        R::encode_slice(chunk, &mut bytes);
        file.write_all(&bytes).map_err(failed)?;
    }
    Ok(())
}

/// The records in the file at `path`, which must consist of whole `R`
/// records.
pub fn read_record_file<R: Record>(path: &Path) -> Result<Vec<R>> {
    let mut recs = Vec::with_capacity(file_records::<R>(path)? as usize);
    let bytes =
        std::fs::read(path).map_err(|e| Error::io(format!("read {}: {e}", path.display())))?;
    R::decode_slice(&bytes, &mut recs);
    Ok(recs)
}

/// Rank `rank`'s shard of the `total_records` in `path` — records
/// `⌊rank·n/p⌋ .. ⌊(rank+1)·n/p⌋` — as the extent run formation reads
/// where it lies.
pub fn input_shard<R: Record>(
    path: &Path,
    rank: usize,
    p: usize,
    total_records: u64,
) -> Result<LocalInput> {
    let file = File::open(path)
        .map_err(|e| Error::io(format!("rank {rank}: open {}: {e}", path.display())))?;
    let shard = ranks::owned_range(rank, p, total_records);
    Ok(LocalInput::Extent {
        file: Arc::new(EdgeFile::new(file, path, rank)),
        offset: shard.start * R::BYTES as u64,
        elems: shard.end - shard.start,
    })
}

/// A job's output file, as a sort's last pass writes it: `records`
/// records at `path`, which may be the input file.
#[derive(Clone, Copy, Debug)]
pub struct OutputFile<'a> {
    /// Where the output goes.
    pub path: &'a Path,
    /// How many records it holds.
    pub records: u64,
}

impl OutputFile<'_> {
    /// Create or open the file and size it to its records (of `R`).
    /// Every rank does this when its last pass starts, and none
    /// truncates: all set the same length and write only inside it, so
    /// sizing needs no ordering against peers' writes, and an output
    /// that is the input keeps its bytes until they are overwritten.
    pub fn open<R: Record>(&self, rank: usize) -> Result<Arc<EdgeFile>> {
        let (path, len) = (self.path, self.records * R::BYTES as u64);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(|e| Error::io(format!("rank {rank}: open {}: {e}", path.display())))?;
        file.set_len(len).map_err(|e| {
            Error::io(format!("rank {rank}: size {} to {len} bytes: {e}", path.display()))
        })?;
        Ok(Arc::new(EdgeFile::new(file, path, rank)))
    }

    /// Where rank `rank` of `p` writes its part of a canonically
    /// distributed output — records `⌊rank·n/p⌋ ..`, from their byte
    /// offset on — with the file opened.
    pub fn canonical_part<R: Record>(&self, rank: usize, p: usize) -> Result<RunDest> {
        let first = ranks::owned_range(rank, p, self.records).start;
        Ok(RunDest::File { file: self.open::<R>(rank)?, at: first * R::BYTES as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_mergesort;
    use crate::job::{run_in_process, run_job_local, sort_file};
    use crate::recio::{read_records, records_per_block};
    use crate::runform::{ingest_input, GroupReader};
    use crate::striped::striped_mergesort;
    use crate::TestDir;
    use demsort_storage::PeStorage;
    use demsort_types::trace::{read_journal, validate_rank_journal};
    use demsort_types::wire::RankReport;
    use demsort_types::{
        AlgoConfig, JobConfig, MachineConfig, Phase, PhaseStats, Record100, SortAlgo, SortConfig,
        SortReport, TraceEv,
    };
    use demsort_workloads::gensort_records;

    /// The smallest memory the config accepts (4 blocks per PE), so a
    /// few thousand records already take the external path.
    fn machine(pes: usize, block_bytes: usize) -> MachineConfig {
        MachineConfig {
            pes,
            disks_per_pe: 2,
            block_bytes,
            mem_bytes_per_pe: 4 * block_bytes,
            cores_per_pe: 1,
        }
    }

    /// Record counts that hit every edge of the block layout on `m`:
    /// empty, fewer records than PEs, shards that end mid-block, and
    /// an input of several runs.
    fn record_counts(m: &MachineConfig) -> [usize; 5] {
        let rpb = records_per_block::<Record100>(m.block_bytes);
        let run = m.pes * m.mem_blocks_per_pe() * rpb;
        [0, 1, m.pes - 1, m.pes * (2 * rpb + rpb / 3) + 1, 3 * run + run / 2 + 5]
    }

    fn shard_of(recs: &[Record100], pe: usize, p: usize) -> &[Record100] {
        let r = ranks::owned_range(pe, p, recs.len() as u64);
        &recs[r.start as usize..r.end as usize]
    }

    /// The materialising reference of `sort_file`: shards as record
    /// vectors in, ingested into blocks; the canonical output left on
    /// the disks and read back, the striped output written into the
    /// file `out` — what `sortfile` did before the edges streamed.
    fn sort_materialised(
        cfg: &SortConfig,
        algo: SortAlgo,
        recs: &[Record100],
        out: &Path,
    ) -> (Vec<Record100>, SortReport) {
        let output = OutputFile { path: out, records: recs.len() as u64 };
        let (report, parts, _) = run_in_process(cfg, Record100::BYTES, |comm, storage| {
            let (rank, p, cores) = (comm.rank(), comm.size(), cfg.machine.cores_per_pe);
            let (st, input) = (storage.pe(rank), shard_of(recs, rank, p));
            let input = ingest_input(st, input)?;
            let (elems, runs, phases, part) = match algo {
                SortAlgo::Canonical => {
                    let o = canonical_mergesort::<Record100>(&comm, storage, cfg, input, cores)?;
                    let part = read_records::<Record100>(st, &o.output.run, o.output.elems)?;
                    (o.output.elems, o.runs, o.phases, part)
                }
                SortAlgo::Striped => {
                    let o =
                        striped_mergesort::<Record100>(&comm, st, cfg, input, cores, None, output)?;
                    (o.written, o.runs, o.phases, Vec::new())
                }
            };
            Ok((RankReport { rank, elems, runs, phases, error: None }, part))
        })
        .expect("sort");
        let sorted = match algo {
            SortAlgo::Canonical => parts.concat(),
            SortAlgo::Striped => read_record_file(out).expect("read output"),
        };
        (sorted, report)
    }

    /// A job's I/O totals over all PEs and phases: bytes written, blocks
    /// written, bytes read.
    fn io_totals(r: &SortReport) -> (u64, u64, u64) {
        let total = |f: fn(&PhaseStats) -> u64| -> u64 {
            Phase::ALL.iter().map(|&ph| r.phase_total(ph, f)).sum()
        };
        (total(|s| s.io.bytes_written), total(|s| s.io.blocks_written), total(|s| s.io.bytes_read))
    }

    /// A rank's journal of a traced job validates and carries phase
    /// spans and exactly one pool checkpoint.
    fn check_journal(path: &Path, case: &str) {
        let text = std::fs::read_to_string(path).expect("rank journal");
        let journal = read_journal(&text).expect("journal parses");
        validate_rank_journal(&journal).expect("journal invariants");
        let count = |is: fn(&TraceEv) -> bool| journal.iter().filter(|r| is(&r.ev)).count();
        assert!(count(|ev| matches!(ev, TraceEv::Phase { .. })) > 0, "{case}: phase spans");
        assert_eq!(count(|ev| matches!(ev, TraceEv::PoolStats { .. })), 1, "{case}: pool events");
    }

    #[test]
    fn sort_file_matches_the_materialising_sort() {
        let scratch = TestDir::new("sort");
        let (input, output) = (scratch.file("in.dat"), scratch.file("out.dat"));
        let reference = scratch.file("ref.dat");
        // Every edge of the block layout at the smallest memory; and two
        // PEs with 64 blocks of memory, one run and several, where the
        // batches are many blocks long.
        let mut cases: Vec<(MachineConfig, Vec<usize>)> = Vec::new();
        for p in [1, 2, 3] {
            for block_bytes in [4 << 10, 32 << 10] {
                let m = machine(p, block_bytes);
                cases.push((m.clone(), record_counts(&m).to_vec()));
            }
        }
        let wide = MachineConfig { mem_bytes_per_pe: 64 * (4 << 10), ..machine(2, 4 << 10) };
        let run = wide.pes * wide.mem_blocks_per_pe() * records_per_block::<Record100>(4 << 10);
        cases.push((wide, vec![run - 7, 3 * run + run / 2]));
        for algo in [SortAlgo::Canonical, SortAlgo::Striped] {
            for (m, counts) in &cases {
                let (p, block_bytes) = (m.pes, m.block_bytes);
                let cfg = SortConfig::new(m.clone(), AlgoConfig::default()).expect("config");
                for &n in counts {
                    let recs = gensort_records(5, 0, n);
                    write_record_file(&input, &recs).expect("write input");
                    // Stale bytes past the new length must not survive.
                    std::fs::write(&output, vec![0xAA; n * Record100::BYTES + 777])
                        .expect("write stale output");
                    let report =
                        sort_file::<Record100>(&cfg, algo, &input, &output).expect("sort_file");
                    let (want, want_report) = sort_materialised(&cfg, algo, &recs, &reference);
                    let case = format!("{algo} P={p} B={block_bytes} N={n}");
                    let sorted = read_record_file::<Record100>(&output).expect("read output");
                    assert!(sorted == want, "{case}");
                    assert_eq!(report.elements, n as u64, "{case}");
                    assert_eq!(report.runs, want_report.runs, "{case}");
                    assert_eq!(io_totals(&report), io_totals(&want_report), "{case}");
                    assert_eq!(
                        report.io_volume_over_n().to_bits(),
                        want_report.io_volume_over_n().to_bits(),
                        "{case}"
                    );
                    assert_eq!(
                        report.comm_volume_over_n().to_bits(),
                        want_report.comm_volume_over_n().to_bits(),
                        "{case}"
                    );
                    if algo == SortAlgo::Striped {
                        // No selection probes: every counter of every
                        // rank's phases is the reference's.
                        for (pe, ph) in (0..p).flat_map(|pe| Phase::ALL.map(|ph| (pe, ph))) {
                            let (g, w) = (report.get(pe, ph), want_report.get(pe, ph));
                            assert_eq!((g.comm, g.io), (w.comm, w.io), "{case}: PE {pe} {ph}");
                        }
                    }
                    if report.runs > 1 {
                        // The external case once more, traced and
                        // with the disks in memory: same bytes, and
                        // a worker's journal per rank.
                        let trace = scratch.file("trace");
                        let job = JobConfig {
                            input: input.to_string_lossy().into_owned(),
                            output: output.to_string_lossy().into_owned(),
                            machine: m.clone(),
                            algo: AlgoConfig::default(),
                            algorithm: algo,
                            read_timeout_ms: 1000,
                            trace_dir: trace.to_string_lossy().into_owned(),
                            scratch: String::new(),
                        };
                        run_job_local::<Record100>(&job).expect("traced job");
                        let sorted = read_record_file::<Record100>(&output).expect("read output");
                        assert!(sorted == want, "{case}");
                        for rank in 0..p {
                            check_journal(&trace.join(format!("rank{rank}.jsonl")), &case);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn file_ingest_lays_out_blocks_like_record_ingest() {
        // Every rank's shard of the file, read where it lies, gives run
        // formation the same records in the same groups — shuffled or in
        // input order — as ingesting the rank's decoded records.
        let scratch = TestDir::new("ingest");
        let input = scratch.file("in.dat");
        for p in [1, 2, 3] {
            for block_bytes in [4 << 10, 32 << 10] {
                let m = machine(p, block_bytes);
                let cfg = SortConfig::new(m.clone(), AlgoConfig::default()).expect("config");
                for n in record_counts(&m) {
                    let recs = gensort_records(3, 0, n);
                    write_record_file(&input, &recs).expect("write input");
                    let total = file_records::<Record100>(&input).expect("measure input");
                    for rank in 0..p {
                        for seed in [None, Some(11)] {
                            let case = format!("P={p} B={block_bytes} N={n} rank {rank} {seed:?}");
                            let groups_of = |st: &PeStorage, input: LocalInput| {
                                let groups = GroupReader::new::<Record100>(st, &cfg, input, seed);
                                let mut arena = Vec::new();
                                let read: Vec<Vec<Record100>> = (0..groups.local_groups())
                                    .map(|j| {
                                        groups.collect(groups.issue(j), &mut arena).expect("read");
                                        arena.clone()
                                    })
                                    .collect();
                                assert_eq!(st.alloc().in_use(), 0, "{case}: slots freed");
                                read
                            };
                            let (st_file, st_recs) = (
                                PeStorage::new_mem(&cfg.machine),
                                PeStorage::new_mem(&cfg.machine),
                            );
                            let extent =
                                input_shard::<Record100>(&input, rank, p, total).expect("shard");
                            let ingested =
                                ingest_input(&st_recs, shard_of(&recs, rank, p)).expect("ingest");
                            assert_eq!(extent.elems(), ingested.elems(), "{case}");
                            let (from_file, from_recs) =
                                (groups_of(&st_file, extent), groups_of(&st_recs, ingested));
                            assert!(from_file == from_recs, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sort_file_may_overwrite_its_input() {
        // Each sort's last pass writes the output: run formation when
        // there is one run, else the final merge (canonical) or the one
        // merge group (striped; after a pass to the disks when the runs
        // exceed the fan-in). A canonical rank writes over its own
        // shard, a striped rank over its peers' shards too.
        let scratch = TestDir::new("inplace");
        let path = scratch.file("data.dat");
        let m = machine(2, 4 << 10);
        let cfg = SortConfig::new(m.clone(), AlgoConfig::default()).expect("config");
        let run = m.pes * m.mem_blocks_per_pe() * records_per_block::<Record100>(m.block_bytes);
        let fan_in = m.merge_fan_in();
        for algo in [SortAlgo::Canonical, SortAlgo::Striped] {
            for runs in [1, 3, fan_in + 2] {
                let n = (runs - 1) * run + run / 2 + 7;
                let recs = gensort_records(9, 0, n);
                write_record_file(&path, &recs).expect("write input");
                let report =
                    sort_file::<Record100>(&cfg, algo, &path, &path).expect("sort in place");
                let (want, _) = sort_materialised(&cfg, algo, &recs, &scratch.file("ref.dat"));
                let case = format!("{algo}, {n} records");
                assert_eq!(report.runs, runs, "{case}");
                assert!(read_record_file::<Record100>(&path).expect("read") == want, "{case}");
            }
        }
    }

    #[test]
    fn file_errors_name_path_rank_and_offset() {
        let scratch = TestDir::new("errors");
        let cfg = SortConfig::new(machine(2, 4 << 10), AlgoConfig::default()).expect("config");
        let input = scratch.file("in.dat");
        write_record_file(&input, &gensort_records(1, 0, 300)).expect("write input");

        // Unreadable input: an error, not a panic in a PE thread.
        let missing = scratch.file("missing.dat");
        let err =
            sort_file::<Record100>(&cfg, SortAlgo::Canonical, &missing, &scratch.file("o.dat"))
                .expect_err("missing input");
        assert!(matches!(&err, Error::Io(m) if m.contains("missing.dat")), "{err}");
        let err =
            sort_file::<Record100>(&cfg, SortAlgo::Canonical, &scratch.0, &scratch.file("o.dat"))
                .expect_err("directory as input");
        assert!(matches!(err, Error::Io(_) | Error::Config(_)), "{err}");

        // Unwritable output, either algorithm.
        let nowhere = scratch.file("no-such-dir").join("out.dat");
        for algo in [SortAlgo::Canonical, SortAlgo::Striped] {
            let err = sort_file::<Record100>(&cfg, algo, &input, &nowhere)
                .expect_err("unwritable output");
            assert!(
                matches!(&err, Error::Io(m) if m.contains("rank 0") && m.contains("no-such-dir")),
                "{err}"
            );
        }

        // An input that shrank after it was measured: rank 1's shard
        // ends early, and run formation's read of it fails where it does.
        let st = PeStorage::new_mem(&cfg.machine);
        let shard = input_shard::<Record100>(&input, 1, 2, 400).expect("open input");
        let groups = GroupReader::new::<Record100>(&st, &cfg, shard, None);
        let err = groups.collect::<Record100>(groups.issue(0), &mut Vec::new());
        let want = format!("rank 1: read {} at byte 30000", input.display());
        assert!(matches!(&err, Err(Error::Io(m)) if m.starts_with(&want)), "{err:?}");

        // Not whole records.
        std::fs::write(&input, [0u8; 150]).expect("write ragged input");
        assert!(matches!(file_records::<Record100>(&input), Err(Error::Config(_))));
    }
}
