//! The file edges of a sort: shard of a record file → on-disk
//! [`LocalInput`], finished run → byte range of the output file.
//!
//! Both edges are block-granular and stream through the PE's pooled
//! block buffers, so their memory is `O(window · B)` whatever the
//! shard size, and neither decodes a record:
//!
//! * **ingest** ([`ingest_file_shard`]) reads the rank's contiguous
//!   shard straight into pooled blocks — one vectored read fills
//!   several blocks at once — and hands them to a [`RunWriter`]. The
//!   block layout (`rpb · R::BYTES` record bytes, zeroed tail) and the
//!   allocation order are exactly those of
//!   [`ingest_input`](crate::runform::ingest_input) on the decoded
//!   records, so everything downstream (the seeded block shuffle, the
//!   runs, every counter, the output bytes) is unchanged.
//! * **output** ([`write_run_to_file`], [`write_striped_blocks_to_file`])
//!   reads the rank's blocks ahead through the storage layer's one
//!   block reader ([`MergePrefetcher`], naive order, at least one read
//!   per disk in flight) and writes each block's valid bytes at its
//!   offset in the shared, pre-sized output file — contiguous blocks
//!   coalesce into one vectored write — then returns the buffers to the
//!   pool. Ranks write disjoint ranges, so they need no ordering among
//!   themselves.
//!
//! Either edge moves at least [`MIN_SYSCALL_BYTES`] per system call
//! (up to the end of a contiguous range) however small the blocks are.
//! Every failure is an [`Error::Io`] naming the file, the rank and the
//! byte offset.
//!
//! The rank program that runs between the edges is
//! [`run_rank_job`](crate::job::run_rank_job).

use crate::recio::{records_per_block, FinishedRun};
use crate::runform::LocalInput;
use crate::striped::StripedRun;
use demsort_storage::striping::DEFAULT_READAHEAD;
use demsort_storage::{BlockId, MergePrefetcher, PeStorage, RunWriter};
use demsort_types::fio::{self, Stopped};
use demsort_types::{ranks, Error, Record, Result};
use std::fs::File;
use std::io::{IoSlice, IoSliceMut, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Fewest bytes an edge moves per read/write system call, short of the
/// end of a contiguous range: per-call overhead is paid per 256 KiB,
/// not per block.
pub const MIN_SYSCALL_BYTES: usize = 256 << 10;

/// One rank's private descriptor on a shared file. It tracks the
/// descriptor's position so sequential access never seeks and every
/// error can name the byte it happened at.
struct RankFile<'a> {
    file: File,
    path: &'a Path,
    rank: usize,
    pos: u64,
}

impl<'a> RankFile<'a> {
    fn open_input(path: &'a Path, rank: usize) -> Result<Self> {
        let file = File::open(path)
            .map_err(|e| Error::io(format!("rank {rank}: open {}: {e}", path.display())))?;
        Ok(Self { file, path, rank, pos: 0 })
    }

    /// Create-or-open the shared output and size it to `len` bytes.
    /// Every rank does this and none truncates: all set the same
    /// length and write only inside it, so sizing needs no ordering
    /// against peers' writes (and no rank has to go first).
    fn open_output(path: &'a Path, rank: usize, len: u64) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(|e| Error::io(format!("rank {rank}: open {}: {e}", path.display())))?;
        file.set_len(len).map_err(|e| {
            Error::io(format!("rank {rank}: size {} to {len} bytes: {e}", path.display()))
        })?;
        Ok(Self { file, path, rank, pos: 0 })
    }

    /// The failure of `op` that stopped `stopped.done` bytes past the
    /// descriptor's position.
    fn fail(&self, op: &str, stopped: Stopped) -> Error {
        let at = stopped.describe(op, self.path.display(), self.pos);
        Error::io(format!("rank {}: {at}", self.rank))
    }

    fn seek(&mut self, at: u64) -> Result<()> {
        if self.pos != at {
            self.file
                .seek(SeekFrom::Start(at))
                .map_err(|cause| self.fail("seek", Stopped { done: 0, cause }))?;
            self.pos = at;
        }
        Ok(())
    }

    /// Fill every buffer from the current position: a file that ends
    /// early is an error.
    fn read_exact_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> Result<()> {
        let moved = fio::read_exact(bufs, |bufs, _| (&self.file).read_vectored(bufs))
            .map_err(|stopped| self.fail("read", stopped))?;
        self.pos += moved;
        Ok(())
    }

    /// Write every buffer at the current position.
    fn write_all_vectored(&mut self, bufs: &mut [IoSlice<'_>]) -> Result<()> {
        let moved = fio::write_all(bufs, |bufs, _| (&self.file).write_vectored(bufs))
            .map_err(|stopped| self.fail("write", stopped))?;
        self.pos += moved;
        Ok(())
    }
}

/// Number of records in the file at `path`, which must consist of
/// whole `R` records.
pub fn file_records<R: Record>(path: &Path) -> Result<u64> {
    let len = std::fs::metadata(path)
        .map_err(|e| Error::io(format!("stat {}: {e}", path.display())))?
        .len();
    if len % R::BYTES as u64 != 0 {
        return Err(Error::config(format!(
            "input {} is not whole {}-byte records",
            path.display(),
            R::BYTES
        )));
    }
    Ok(len / R::BYTES as u64)
}

/// Put rank `rank`'s shard (records `⌊rank·n/p⌋ .. ⌊(rank+1)·n/p⌋` of
/// the `total_records` in `path`) on `st`'s disks, in the block layout
/// of [`ingest_input`](crate::runform::ingest_input).
pub fn ingest_file_shard<R: Record>(
    st: &PeStorage,
    path: &Path,
    rank: usize,
    p: usize,
    total_records: u64,
) -> Result<LocalInput> {
    let shard = ranks::owned_range(rank, p, total_records);
    let elems = shard.end - shard.start;
    let rpb = records_per_block::<R>(st.block_bytes()) as u64;
    let chunk_blocks = MIN_SYSCALL_BYTES.div_ceil(rpb as usize * R::BYTES) as u64;

    let mut file = RankFile::open_input(path, rank)?;
    file.seek(shard.start * R::BYTES as u64)?;
    let mut writer = RunWriter::new(st);
    let mut chunk: Vec<Box<[u8]>> = Vec::with_capacity(chunk_blocks as usize);
    let mut remaining = elems;
    while remaining > 0 {
        let chunk_elems = remaining.min(chunk_blocks * rpb);
        chunk.extend((0..chunk_elems.div_ceil(rpb)).map(|_| st.pool().get()));
        // Block `i` of the chunk takes the next `valid(i)` bytes of the
        // shard; recycled buffers keep old contents, so the tail past
        // them is zeroed (as `RecordRunWriter` does).
        let valid = |i: usize| (chunk_elems - i as u64 * rpb).min(rpb) as usize * R::BYTES;
        let mut bufs: Vec<IoSliceMut<'_>> = chunk
            .iter_mut()
            .enumerate()
            .map(|(i, block)| {
                let (records, tail) = block.split_at_mut(valid(i));
                tail.fill(0);
                IoSliceMut::new(records)
            })
            .collect();
        file.read_exact_vectored(&mut bufs)?;
        for block in chunk.drain(..) {
            writer.push_block(block)?;
        }
        remaining -= chunk_elems;
    }
    Ok(LocalInput { run: writer.finish()?, elems })
}

/// Stream blocks of `st` into the output file: `blocks` yields, per
/// block, its id, the file offset of its first byte, and how many
/// leading bytes of it are valid. Reads run ahead through the
/// [`MergePrefetcher`]; blocks contiguous in the file are held (at most
/// ~[`MIN_SYSCALL_BYTES`] of them) and go out in one vectored write.
fn write_blocks_to_file(
    st: &PeStorage,
    blocks: impl Iterator<Item = (BlockId, u64, usize)>,
    path: &Path,
    rank: usize,
    file_bytes: u64,
) -> Result<()> {
    // Empty blocks are dropped: a vectored write of only empty slices
    // returns 0, which reads as a failed write.
    let (ids, spans): (Vec<BlockId>, Vec<(u64, usize)>) =
        blocks.filter(|&(_, _, valid)| valid > 0).map(|(id, at, valid)| (id, (at, valid))).unzip();
    let mut file = RankFile::open_output(path, rank, file_bytes)?;
    let mut reader = MergePrefetcher::naive(st, ids, DEFAULT_READAHEAD.max(st.disks()), false);

    // Held blocks cover file bytes `start .. start + held_bytes`.
    let mut held: Vec<(Box<[u8]>, usize)> = Vec::new();
    let (mut start, mut held_bytes) = (0u64, 0usize);
    let mut flush = |held: &mut Vec<(Box<[u8]>, usize)>, start: u64| -> Result<()> {
        file.seek(start)?;
        let mut bufs: Vec<IoSlice<'_>> =
            held.iter().map(|(block, valid)| IoSlice::new(&block[..*valid])).collect();
        file.write_all_vectored(&mut bufs)?;
        drop(bufs);
        for (block, _) in held.drain(..) {
            st.pool().put(block);
        }
        Ok(())
    };
    // The reader yields exactly one block per span.
    let mut spans = spans.into_iter();
    while let (Some(block), Some((at, valid))) = (reader.next()?, spans.next()) {
        if at != start + held_bytes as u64 || held_bytes >= MIN_SYSCALL_BYTES {
            flush(&mut held, start)?;
            (start, held_bytes) = (at, 0);
        }
        held.push((block, valid));
        held_bytes += valid;
    }
    flush(&mut held, start)
}

/// Write a finished record run (`rpb` records per block, the last
/// block possibly partial) as one contiguous byte range of the
/// `file_bytes`-long output file, starting at byte `at`.
pub fn write_run_to_file<R: Record>(
    st: &PeStorage,
    out: &FinishedRun<R>,
    path: &Path,
    rank: usize,
    file_bytes: u64,
    at: u64,
) -> Result<()> {
    let rpb = records_per_block::<R>(st.block_bytes()) as u64;
    let blocks = out.run.blocks.iter().enumerate().map(|(i, &id)| {
        let first = i as u64 * rpb;
        let valid = out.elems.saturating_sub(first).min(rpb) as usize * R::BYTES;
        (id, at + first * R::BYTES as u64, valid)
    });
    write_blocks_to_file(st, blocks, path, rank, file_bytes)
}

/// Write the blocks rank `rank` owns of a globally striped run into
/// the output file; returns how many records that was. Block `g`
/// starts at the record offset given by the prefix sum of the
/// directory's counts (interior blocks of stitched merge output can be
/// partial), and the directory is global, so the ranks' writes tile
/// the file without further communication.
pub fn write_striped_blocks_to_file<K>(
    st: &PeStorage,
    run: &StripedRun<K>,
    record_bytes: usize,
    path: &Path,
    rank: usize,
) -> Result<u64> {
    let mut owned_elems = 0u64;
    let mut first = 0u64;
    let blocks = run.blocks.iter().enumerate().filter_map(|(g, &id)| {
        let at = first * record_bytes as u64;
        first += run.counts[g] as u64;
        (run.owners[g] as usize == rank).then(|| {
            owned_elems += run.counts[g] as u64;
            (id, at, run.counts[g] as usize * record_bytes)
        })
    });
    write_blocks_to_file(st, blocks, path, rank, run.elems * record_bytes as u64)?;
    Ok(owned_elems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::sort_cluster;
    use crate::job::{run_job_local, sort_file};
    use crate::recio::read_records;
    use crate::runform::ingest_input;
    use crate::striped::{read_striped, striped_sort_cluster};
    use demsort_storage::read_run;
    use demsort_types::trace::{read_journal, validate_rank_journal};
    use demsort_types::{
        AlgoConfig, JobConfig, MachineConfig, Record100, SortAlgo, SortConfig, SortReport, TraceEv,
    };
    use demsort_workloads::gensort_records;
    use std::path::PathBuf;

    /// A scratch directory removed on drop (tests run in parallel, so
    /// each takes its own).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("demsort-fileio-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            Self(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn encode(recs: &[Record100]) -> Vec<u8> {
        let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
        Record100::encode_slice(recs, &mut bytes);
        bytes
    }

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

    #[test]
    fn file_ingest_lays_out_blocks_like_record_ingest() {
        let scratch = Scratch::new("ingest");
        let path = scratch.file("in.dat");
        for p in [1, 2, 3] {
            for block_bytes in [4 << 10, 32 << 10] {
                let m = machine(p, block_bytes);
                for n in record_counts(&m) {
                    let recs = gensort_records(11, 0, n);
                    std::fs::write(&path, encode(&recs)).expect("write input");
                    let total = file_records::<Record100>(&path).expect("stat");
                    assert_eq!(total, n as u64);
                    for pe in 0..p {
                        let (from_file, from_recs) =
                            (PeStorage::new_mem(&m), PeStorage::new_mem(&m));
                        let a = ingest_file_shard::<Record100>(&from_file, &path, pe, p, total)
                            .expect("file ingest");
                        let b = ingest_input(&from_recs, shard_of(&recs, pe, p)).expect("ingest");
                        let case = format!("P={p} B={block_bytes} N={n} pe={pe}");
                        assert_eq!(a.elems, b.elems, "{case}");
                        assert_eq!(a.run, b.run, "{case}");
                        assert_eq!(
                            read_run(&from_file, &a.run).expect("read"),
                            read_run(&from_recs, &b.run).expect("read"),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    /// The materialising reference of `sort_file`: shards as record
    /// vectors in, the whole output as records out, encoded one by one
    /// — what `sortfile` did before the edges streamed.
    fn sort_materialised(
        cfg: &SortConfig,
        algo: SortAlgo,
        recs: &[Record100],
    ) -> (Vec<u8>, SortReport) {
        let gen = |pe: usize, p: usize| shard_of(recs, pe, p).to_vec();
        match algo {
            SortAlgo::Canonical => {
                let o = sort_cluster::<Record100, _>(cfg, gen).expect("sort");
                let mut out = Vec::new();
                for (pe, pe_out) in o.per_pe.iter().enumerate() {
                    let run = &pe_out.output;
                    out.extend(
                        read_records::<Record100>(o.storage.pe(pe), &run.run, run.elems)
                            .expect("read output"),
                    );
                }
                (encode(&out), o.report)
            }
            SortAlgo::Striped => {
                let o = striped_sort_cluster::<Record100, _>(cfg, gen, None).expect("sort");
                let out = read_striped::<Record100>(&o.storage, &o.per_pe[0].output)
                    .expect("read output");
                (encode(&out), o.report)
            }
        }
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
        let scratch = Scratch::new("sort");
        let (input, output) = (scratch.file("in.dat"), scratch.file("out.dat"));
        for algo in [SortAlgo::Canonical, SortAlgo::Striped] {
            for p in [1, 2, 3] {
                for block_bytes in [4 << 10, 32 << 10] {
                    let m = machine(p, block_bytes);
                    let cfg = SortConfig::new(m.clone(), AlgoConfig::default()).expect("config");
                    for n in record_counts(&m) {
                        let recs = gensort_records(5, 0, n);
                        std::fs::write(&input, encode(&recs)).expect("write input");
                        // Stale bytes past the new length must not survive.
                        std::fs::write(&output, vec![0xAA; n * Record100::BYTES + 777])
                            .expect("write stale output");
                        let report = sort_file(&cfg, algo, &input, &output).expect("sort_file");
                        let (want, want_report) = sort_materialised(&cfg, algo, &recs);
                        let case = format!("{algo} P={p} B={block_bytes} N={n}");
                        assert!(std::fs::read(&output).expect("read output") == want, "{case}");
                        assert_eq!(report.elements, n as u64, "{case}");
                        assert_eq!(report.runs, want_report.runs, "{case}");
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
                            run_job_local(&job).expect("traced job");
                            assert!(std::fs::read(&output).expect("read output") == want, "{case}");
                            for rank in 0..p {
                                check_journal(&trace.join(format!("rank{rank}.jsonl")), &case);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sort_file_may_overwrite_its_input() {
        let scratch = Scratch::new("inplace");
        let path = scratch.file("data.dat");
        let cfg = SortConfig::new(machine(2, 4 << 10), AlgoConfig::default()).expect("config");
        let recs = gensort_records(9, 0, 1500);
        std::fs::write(&path, encode(&recs)).expect("write input");
        sort_file(&cfg, SortAlgo::Canonical, &path, &path).expect("sort in place");
        let (want, _) = sort_materialised(&cfg, SortAlgo::Canonical, &recs);
        assert!(std::fs::read(&path).expect("read") == want);
    }

    #[test]
    fn file_errors_name_path_rank_and_offset() {
        let scratch = Scratch::new("errors");
        let cfg = SortConfig::new(machine(2, 4 << 10), AlgoConfig::default()).expect("config");
        let input = scratch.file("in.dat");
        std::fs::write(&input, encode(&gensort_records(1, 0, 300))).expect("write input");

        // Unreadable input: an error, not a panic in a PE thread.
        let missing = scratch.file("missing.dat");
        let err = sort_file(&cfg, SortAlgo::Canonical, &missing, &scratch.file("o.dat"))
            .expect_err("missing input");
        assert!(matches!(&err, Error::Io(m) if m.contains("missing.dat")), "{err}");
        let err = sort_file(&cfg, SortAlgo::Canonical, &scratch.0, &scratch.file("o.dat"))
            .expect_err("directory as input");
        assert!(matches!(err, Error::Io(_) | Error::Config(_)), "{err}");

        // Unwritable output, either algorithm.
        let nowhere = scratch.file("no-such-dir").join("out.dat");
        for algo in [SortAlgo::Canonical, SortAlgo::Striped] {
            let err = sort_file(&cfg, algo, &input, &nowhere).expect_err("unwritable output");
            assert!(
                matches!(&err, Error::Io(m) if m.contains("rank 0") && m.contains("no-such-dir")),
                "{err}"
            );
        }

        // An input that shrank after it was measured: rank 1's shard
        // ends early.
        let st = PeStorage::new_mem(&cfg.machine);
        let err = ingest_file_shard::<Record100>(&st, &input, 1, 2, 400).expect_err("short input");
        let want = format!("rank 1: read {} at byte 30000", input.display());
        assert!(matches!(&err, Error::Io(m) if m.starts_with(&want)), "{err}");

        // Not whole records.
        std::fs::write(&input, [0u8; 150]).expect("write ragged input");
        assert!(matches!(file_records::<Record100>(&input), Err(Error::Config(_))));
    }

    /// Read or write system calls this thread has made, from the
    /// kernel's per-task I/O accounting (`None` where it is not built
    /// in).
    fn thread_syscalls(field: &str) -> Option<u64> {
        let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        io.lines().find_map(|l| l.strip_prefix(field)?.trim().parse().ok())
    }

    /// How many `field` system calls `f` makes on this thread. Reading
    /// the counter costs a few reads itself, so an empty interval is
    /// measured first and taken off.
    fn count_syscalls(field: &str, f: impl FnOnce()) -> Option<u64> {
        let a = thread_syscalls(field)?;
        let b = thread_syscalls(field)?;
        f();
        let c = thread_syscalls(field)?;
        Some((c - b) - (b - a))
    }

    #[test]
    fn small_blocks_still_move_256_kib_per_syscall() {
        let scratch = Scratch::new("syscalls");
        let (input, output) = (scratch.file("in.dat"), scratch.file("out.dat"));
        let recs = gensort_records(3, 0, 30_000);
        let bytes = recs.len() * Record100::BYTES;
        std::fs::write(&input, encode(&recs)).expect("write input");
        // 4 KiB blocks hold 40 records: 750 blocks, 12 calls' worth.
        let st = PeStorage::new_mem(&machine(1, 4 << 10));
        let allowed = bytes.div_ceil(MIN_SYSCALL_BYTES) as u64;

        let mut local = None;
        let reads = count_syscalls("syscr:", || {
            let n = recs.len() as u64;
            local = Some(ingest_file_shard::<Record100>(&st, &input, 0, 1, n).expect("ingest"));
        });
        let local = local.expect("ingested");
        let run = FinishedRun::<Record100> {
            run: local.run,
            elems: local.elems,
            samples: Vec::new(),
            block_first_keys: Vec::new(),
        };
        let writes = count_syscalls("syscw:", || {
            write_run_to_file(&st, &run, &output, 0, bytes as u64, 0).expect("output")
        });
        assert!(std::fs::read(&output).expect("read") == encode(&recs));
        let (Some(reads), Some(writes)) = (reads, writes) else {
            eprintln!("no per-thread I/O accounting on this kernel; calls not counted");
            return;
        };
        assert!(reads <= allowed, "{reads} reads for {bytes} bytes, {allowed} allowed");
        assert!(writes <= allowed, "{writes} writes for {bytes} bytes, {allowed} allowed");
    }
}
