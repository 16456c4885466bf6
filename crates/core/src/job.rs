//! The rank program: what every rank of a file-to-file sort runs,
//! whatever it runs on.
//!
//! DEMSort is one SPMD program. [`run_rank_job`] is its body — sort
//! this rank's shard of the input, read where it lies, into this rank's
//! part of the output, written where it belongs — and the paper's two
//! algorithms differ only in how (Sections III–IV). A substrate's whole
//! job is to build `(comm, storage, hooks)` and call it:
//!
//! * the in-process cluster ([`run_job_local`], under [`sort_file`] and
//!   `sortfile --transport local`): one thread per PE over the channel
//!   mesh, all PEs' storage in one [`ClusterStorage`];
//! * the multi-process cluster (`demsort-worker`): a TCP mesh, this
//!   rank's storage, and rank-failure recovery hooks wired to the
//!   transport.
//!
//! What a rank's disks *are* is decided here, once, for both:
//! [`rank_backend`] turns `(job, rank)` into files under
//! [`JobConfig::scratch`] — `SCRATCH/rank<K>/disk_<D>.bin`, so a sort's
//! memory follows `mem_bytes_per_pe`, not the input — or into memory
//! when the job names no scratch directory, and hands back the
//! [`ScratchGuard`] that removes the rank's files however the rank
//! ends. The body and the algorithms see the rank's [`PeStorage`]
//! either way, and no other rank's.
//!
//! The rank program sorts records of any [`Record`] type; the binaries
//! sort [`Record100`](demsort_types::Record100). [`run_in_process`] is
//! the in-process harness itself, for rank bodies that want more than
//! a rank's report (the storage it leaves, a sort's whole outcome, the
//! baselines; in memory), and [`cluster_report`] turns the ranks'
//! reports into the cluster's on either substrate.

use crate::canonical::canonical_mergesort_to;
use crate::ctx::{assemble_report, ClusterStorage};
use crate::fileio::{file_records, input_shard, OutputFile};
use crate::striped::{striped_mergesort, ResilientHooks};
use demsort_net::{run_cluster, Communicator};
use demsort_storage::{Backend, FileBackend, MemBackend, PeStorage};
use demsort_types::wire::RankReport;
use demsort_types::{
    ranks, Error, JobConfig, Record, Result, SortAlgo, SortConfig, SortReport, TraceEv, Tracer,
};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Run this rank's share of `job` (collective): sort its shard of the
/// input file, records of `R`, with `job.algorithm` into its part of
/// the output file, and report its counters.
///
/// `st` is this rank's own storage. `hooks`
/// are the substrate's rank-failure recovery callbacks; only the
/// striped sort recovers, so the canonical sort ignores them.
///
/// Run formation reads the shard straight from the input, and the
/// sort's last pass writes straight into the output, which each rank
/// opens and sizes when that pass starts: after a collective by which
/// every rank has waited its last input read. So the output may be the
/// input file where the substrate leaves it intact until then.
pub fn run_rank_job<R: Record + Ord>(
    job: &JobConfig,
    comm: &Communicator,
    st: &PeStorage,
    hooks: Option<ResilientHooks<'_>>,
) -> Result<RankReport> {
    let (rank, p) = (comm.rank(), comm.size());
    let cfg = job.validate()?;
    let cores = cfg.machine.cores_per_pe;

    let input = Path::new(&job.input);
    let total = file_records::<R>(input)?;
    let local = input_shard::<R>(input, rank, p, total)?;
    let output = OutputFile { path: Path::new(&job.output), records: total };
    let (elems, runs, phases) = match job.algorithm {
        SortAlgo::Canonical => {
            // Rank `r`'s output is global ranks `⌊r·n/p⌋ ..`, so the
            // outputs concatenate at the shard boundaries.
            let o = canonical_mergesort_to::<R>(comm, st, &cfg, local, cores, Some(output))?;
            debug_assert_eq!(o.output.elems, ranks::owned_len(rank, p, total));
            (o.output.elems, o.runs, o.phases)
        }
        SortAlgo::Striped => {
            // The records this rank wrote into the output.
            let o = striped_mergesort::<R>(comm, st, &cfg, local, cores, hooks, output)?;
            (o.written, o.runs, o.phases)
        }
    };

    // Checkpoint the buffer-pool and message-frame counters: in steady
    // state the journal shows hits far above misses and a few fresh
    // frames per phase (diagnostics only — both are timing-dependent,
    // never an identity surface).
    let pc = st.pool().counters();
    comm.tracer().instant(TraceEv::PoolStats {
        hits: pc.hits,
        misses: pc.misses,
        recycled: pc.recycled,
        discarded: pc.discarded,
        copied_bytes: pc.copied_bytes,
    });
    let fc = comm.frame_counts();
    comm.tracer().instant(TraceEv::Frames {
        reused: fc.reused,
        fresh: fc.fresh,
        copied: fc.copied,
    });
    Ok(RankReport { rank, elems, runs, phases, error: None })
}

/// Rank `rank`'s journal under `trace_dir` (`rank<K>.jsonl`, the
/// directory created if missing), or the disabled tracer when
/// `trace_dir` is empty ([`JobConfig::trace_dir`]'s "tracing off").
pub fn rank_tracer(trace_dir: &str, rank: usize) -> Result<Tracer> {
    if trace_dir.is_empty() {
        return Ok(Tracer::off());
    }
    let dir = Path::new(trace_dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::io(format!("create trace dir {trace_dir}: {e}")))?;
    Tracer::to_path(rank, &dir.join(format!("rank{rank}.jsonl")))
}

/// Where a job sorting into `output` keeps its blocks unless told
/// otherwise: next to the output, on the device that must hold `N`
/// bytes anyway.
pub fn default_scratch(output: &str) -> String {
    format!("{output}.scratch")
}

fn rank_scratch_dir(scratch: &str, rank: usize) -> PathBuf {
    Path::new(scratch).join(format!("rank{rank}"))
}

/// Make the scratch directory itself, if it is not there yet. Not its
/// parents: a scratch path under a directory nobody made is a mistake
/// to report, not to paper over (the default sits beside the output,
/// whose directory must exist anyway).
fn make_scratch_root(scratch: &str) -> std::io::Result<()> {
    match std::fs::create_dir(scratch) {
        Err(e) if e.kind() != std::io::ErrorKind::AlreadyExists => Err(e),
        _ => Ok(()),
    }
}

/// Check that `job`'s ranks will be able to make their scratch
/// directories, by making and removing them: a path the job cannot
/// write to is a configuration error naming it, before any rank
/// starts. Leaves nothing behind; nothing to do for an in-memory job.
pub fn probe_scratch(job: &JobConfig) -> Result<()> {
    if job.scratch.is_empty() {
        return Ok(());
    }
    let made = make_scratch_root(&job.scratch).and_then(|()| {
        (0..job.machine.pes)
            .try_for_each(|rank| std::fs::create_dir_all(rank_scratch_dir(&job.scratch, rank)))
    });
    sweep_scratch(&job.scratch, 0..job.machine.pes);
    made.map_err(|e| Error::config(format!("scratch directory {} is not usable: {e}", job.scratch)))
}

/// Remove what `ranks` keep under `scratch`, and the directory itself
/// once that leaves it empty (it may be a directory the user shares
/// with other things, so nothing else in it is touched). A rank does
/// this for itself when it is done ([`ScratchGuard`]); a launcher does
/// it for all ranks after reaping them, because a killed rank cannot.
pub fn sweep_scratch(scratch: &str, ranks: Range<usize>) {
    if scratch.is_empty() {
        return;
    }
    for rank in ranks {
        let _ = std::fs::remove_dir_all(rank_scratch_dir(scratch, rank));
    }
    let _ = std::fs::remove_dir(scratch);
}

/// Owns rank `rank`'s directory under a job's scratch directory:
/// dropping it — on success, on error, while unwinding — removes the
/// rank's files. (Open files outlive their names, so it may drop
/// before the storage that uses them.)
pub struct ScratchGuard {
    scratch: String,
    rank: usize,
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        sweep_scratch(&self.scratch, self.rank..self.rank + 1);
    }
}

/// The disks of rank `rank` of `job` — the one place a job's backend
/// is chosen. With a scratch directory they are the files
/// `SCRATCH/rank<K>/disk_<D>.bin`, created empty (a crashed run's
/// leftovers are truncated, not an error); without one they are
/// memory. Keep the guard for as long as the rank runs.
pub fn rank_backend(job: &JobConfig, rank: usize) -> Result<(Arc<dyn Backend>, ScratchGuard)> {
    let (disks, block_bytes) = (job.machine.disks_per_pe, job.machine.block_bytes);
    let guard = ScratchGuard { scratch: job.scratch.clone(), rank };
    let backend: Arc<dyn Backend> = if job.scratch.is_empty() {
        Arc::new(MemBackend::new(disks))
    } else {
        make_scratch_root(&job.scratch).map_err(|e| {
            Error::io(format!("rank {rank}: create scratch directory {}: {e}", job.scratch))
        })?;
        Arc::new(FileBackend::create(&rank_scratch_dir(&job.scratch, rank), disks, block_bytes)?)
    };
    Ok((backend, guard))
}

/// The cluster's report from its ranks' reports (in rank order): the
/// output sizes add up, the run count is global.
pub fn cluster_report(cfg: &SortConfig, element_bytes: usize, ranks: &[RankReport]) -> SortReport {
    assemble_report(
        cfg,
        ranks.iter().map(|r| r.elems).sum(),
        element_bytes,
        ranks.first().map_or(0, |r| r.runs),
        ranks.iter().map(|r| r.phases.clone()).collect(),
    )
}

/// The in-process cluster: run `rank_body` on `cfg.machine.pes` PE
/// threads over the channel mesh, all sharing one in-memory
/// [`ClusterStorage`], and aggregate. Each body returns its rank's
/// report plus whatever else the caller wants back; the first error
/// (in rank order) wins.
///
/// Returns the cluster report, the bodies' extra results in rank
/// order, and the storage (what the ranks left on their disks stays
/// readable through it).
pub fn run_in_process<T, F>(
    cfg: &SortConfig,
    element_bytes: usize,
    rank_body: F,
) -> Result<(SortReport, Vec<T>, Arc<ClusterStorage>)>
where
    T: Send,
    F: Fn(Communicator, &ClusterStorage) -> Result<(RankReport, T)> + Send + Sync,
{
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let (report, extras) = run_on(&storage, cfg, element_bytes, rank_body)?;
    Ok((report, extras, storage))
}

/// [`run_in_process`] over storage the caller built.
fn run_on<T, F>(
    storage: &ClusterStorage,
    cfg: &SortConfig,
    element_bytes: usize,
    rank_body: F,
) -> Result<(SortReport, Vec<T>)>
where
    T: Send,
    F: Fn(Communicator, &ClusterStorage) -> Result<(RankReport, T)> + Send + Sync,
{
    let results = run_cluster(cfg.machine.pes, |comm| rank_body(comm, storage));
    let (reports, extras): (Vec<RankReport>, Vec<T>) =
        results.into_iter().collect::<Result<Vec<_>>>()?.into_iter().unzip();
    Ok((cluster_report(cfg, element_bytes, &reports), extras))
}

/// The in-process cluster's storage for `job`: every rank's disks from
/// [`rank_backend`], and the guards that keep their files.
fn local_job_storage(job: &JobConfig) -> Result<(Arc<ClusterStorage>, Vec<ScratchGuard>)> {
    let (backends, guards) = (0..job.machine.pes)
        .map(|rank| rank_backend(job, rank))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .unzip();
    Ok((ClusterStorage::with_backends(&job.machine, backends), guards))
}

/// Every PE thread runs [`run_rank_job`] for `job` on `storage`,
/// journalling to `job.trace_dir` like a worker process does.
fn run_job_on<R: Record + Ord>(job: &JobConfig, storage: &ClusterStorage) -> Result<SortReport> {
    let (report, _) = run_on(storage, &job.validate()?, R::BYTES, |mut comm, storage| {
        // The communicator is the journal's only holder: the journal
        // is flushed and closed when the rank's thread drops it.
        comm.set_tracer(rank_tracer(&job.trace_dir, comm.rank())?);
        Ok((run_rank_job::<R>(job, &comm, storage.pe(comm.rank()), None)?, ()))
    })?;
    Ok(report)
}

/// Run `job` on the in-process cluster: every PE thread is one rank of
/// [`run_rank_job`] on the disks [`rank_backend`] gives it. The output
/// is created, or overwritten in place, only by ranks in their last
/// pass, when every rank has finished reading the input — so it may be
/// the input file. The job's scratch files are gone when this returns,
/// whether it returns a report or an error.
pub fn run_job_local<R: Record + Ord>(job: &JobConfig) -> Result<SortReport> {
    job.validate()?;
    let (storage, _scratch) = local_job_storage(job)?;
    run_job_on::<R>(job, &storage)
}

/// Sort the file of `R` records `input` into `output` (which may be the
/// same file) with `algo` on the in-process cluster `cfg` describes:
/// [`run_job_local`] for callers that hold a [`SortConfig`] and paths
/// rather than a [`JobConfig`].
///
/// The data set lives in files while it is sorted — read from `input`
/// where it lies, written into `output` where it belongs, and the runs
/// between them in `<output>.scratch/` ([`default_scratch`]; about `N`
/// bytes at the peak, removed before this returns) — so memory follows
/// `cfg.machine.mem_bytes_per_pe`, not the file size.
pub fn sort_file<R: Record + Ord>(
    cfg: &SortConfig,
    algo: SortAlgo,
    input: &Path,
    output: &Path,
) -> Result<SortReport> {
    let utf8 = |p: &Path| {
        p.to_str()
            .map(str::to_string)
            .ok_or_else(|| Error::config(format!("path {} is not valid UTF-8", p.display())))
    };
    let output = utf8(output)?;
    run_job_local::<R>(&JobConfig {
        input: utf8(input)?,
        scratch: default_scratch(&output),
        output,
        machine: cfg.machine.clone(),
        algo: cfg.algo.clone(),
        algorithm: algo,
        // Nothing times out in-process; any positive value validates.
        read_timeout_ms: 1,
        trace_dir: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileio::write_record_file;
    use crate::TestDir;
    use demsort_types::{AlgoConfig, MachineConfig, Phase, ProgressFrame, Record100};
    use demsort_workloads::gensort_records;

    fn job_in(dir: &TestDir, machine: MachineConfig, algorithm: SortAlgo) -> JobConfig {
        JobConfig {
            input: dir.path("in.dat"),
            output: dir.path("out.dat"),
            machine,
            algo: AlgoConfig::default(),
            algorithm,
            read_timeout_ms: 1000,
            trace_dir: String::new(),
            scratch: dir.path("out.dat.scratch"),
        }
    }

    #[test]
    fn rank_backend_is_files_under_scratch_and_the_guard_removes_them() {
        let dir = TestDir::new("backend");
        let mut job = job_in(&dir, MachineConfig::tiny(2), SortAlgo::Canonical);
        let scratch = PathBuf::from(&job.scratch);
        let block = vec![7u8; job.machine.block_bytes];

        // What a crashed run left is reused: its bytes do not survive.
        std::fs::create_dir_all(scratch.join("rank1")).expect("stale dir");
        std::fs::write(scratch.join("rank1/disk_0.bin"), [9u8; 1000]).expect("stale disk");
        std::fs::write(scratch.join("rank1/core"), b"junk").expect("stale junk");

        let (rank0, guard0) = rank_backend(&job, 0).expect("rank 0");
        let (rank1, guard1) = rank_backend(&job, 1).expect("rank 1");
        for d in 0..job.machine.disks_per_pe {
            let file = scratch.join(format!("rank1/disk_{d}.bin"));
            assert_eq!(std::fs::metadata(&file).expect("stat").len(), 0, "{}", file.display());
        }
        assert!(rank1.read(0, 0, &mut vec![0u8; block.len()]).is_err(), "stale slot is unwritten");
        rank0.write(1, 2, &block).expect("write");
        let file = scratch.join("rank0/disk_1.bin");
        assert_eq!(std::fs::metadata(&file).expect("stat").len(), 3 * block.len() as u64);

        // Each rank removes its own; the last one out removes the rest.
        drop(guard0);
        assert!(!scratch.join("rank0").exists() && scratch.join("rank1").exists());
        drop(guard1);
        assert!(!scratch.exists(), "the last rank out removes the scratch directory");

        // A directory shared with other things keeps them.
        std::fs::create_dir_all(&scratch).expect("mkdir");
        std::fs::write(scratch.join("keep.txt"), b"mine").expect("write");
        drop(rank_backend(&job, 0).expect("rank 0"));
        assert!(scratch.join("keep.txt").is_file() && !scratch.join("rank0").exists());
        std::fs::remove_file(scratch.join("keep.txt")).expect("remove");

        // Unwinding removes them too.
        let unwound = std::panic::catch_unwind(|| {
            let _disks = rank_backend(&job, 0).expect("rank 0");
            assert!(Path::new(&job.scratch).join("rank0/disk_0.bin").is_file());
            std::panic::resume_unwind(Box::new("rank body panicked"));
        });
        assert!(unwound.is_err() && !scratch.exists());

        // No scratch directory: memory, and nothing on disk.
        job.scratch.clear();
        let (mem, guard) = rank_backend(&job, 0).expect("in memory");
        mem.write(0, 0, &block).expect("write");
        drop(guard);
        assert_eq!(std::fs::read_dir(&dir.0).expect("ls").count(), 0);
    }

    #[test]
    fn probe_scratch_names_an_unusable_path_and_leaves_nothing() {
        let dir = TestDir::new("probe");
        let mut job = job_in(&dir, MachineConfig::tiny(3), SortAlgo::Canonical);
        probe_scratch(&job).expect("usable");
        assert!(!Path::new(&job.scratch).exists(), "the probe cleans up after itself");

        std::fs::write(dir.path("a-file"), b"x").expect("write");
        for bad in [dir.path("a-file/scratch"), dir.path("no-such-dir/scratch")] {
            job.scratch = bad.clone();
            let err = probe_scratch(&job).expect_err("unusable");
            assert!(matches!(&err, Error::Config(m) if m.contains(&bad)), "{err}");
            // And a rank that is started anyway fails by name too.
            let err = rank_backend(&job, 2).map(|_| ()).expect_err("unusable");
            assert!(matches!(&err, Error::Io(m) if m.contains("rank 2") && m.contains(&bad)));
        }
        assert!(!dir.0.join("no-such-dir").exists(), "no parents are made");

        job.scratch.clear();
        probe_scratch(&job).expect("in memory");
    }

    #[test]
    fn scratch_holds_about_one_copy_of_the_input_when_the_sort_returns() {
        const RECORDS: usize = 60_000;
        // m/B = 64: every run piece a PE holds ends in a partial block,
        // so the padding is a B/m share of the data — small here, as at
        // the sizes the binaries default to.
        let machine = MachineConfig {
            pes: 2,
            disks_per_pe: 4,
            block_bytes: 4 << 10,
            mem_bytes_per_pe: 256 << 10,
            cores_per_pe: 1,
        };
        for algorithm in [SortAlgo::Canonical, SortAlgo::Striped] {
            let dir = TestDir::new(&format!("space-{algorithm}"));
            let job = job_in(&dir, machine.clone(), algorithm);
            write_record_file(Path::new(&job.input), &gensort_records(17, 0, RECORDS))
                .expect("write input");

            let (storage, guards) = local_job_storage(&job).expect("storage");
            let report = run_job_on::<Record100>(&job, &storage).expect("sort");
            assert!(report.runs > 5, "{algorithm}: an external sort, {} runs", report.runs);

            // The sort has returned and the guards are alive: the files
            // are as large as they ever were. They held the runs only —
            // the input was read where it lies and the output written
            // where it belongs — and in-place slot reuse keeps that at
            // one copy of the data plus block padding, although both
            // passes went through them.
            let disk_files = (0..machine.pes).flat_map(|rank| {
                let dir = rank_scratch_dir(&job.scratch, rank);
                (0..machine.disks_per_pe).map(move |d| dir.join(format!("disk_{d}.bin")))
            });
            let on_disk: u64 =
                disk_files.map(|f| std::fs::metadata(&f).expect("stat disk file").len()).sum();
            let n = (RECORDS * Record100::BYTES) as u64;
            assert!(on_disk >= n, "{algorithm}: the runs were on disk ({on_disk} B of {n} B)");
            assert!(on_disk * 10 <= n * 11, "{algorithm}: {on_disk} B of scratch for {n} B");

            drop(guards);
            assert!(!Path::new(&job.scratch).exists(), "{algorithm}: scratch removed");
            let sorted = std::fs::read(&job.output).expect("output");
            assert_eq!(sorted.len() as u64, n, "{algorithm}: the output is whole");
            assert!(sorted.chunks(Record100::BYTES).is_sorted_by_key(|r| &r[..10]), "{algorithm}");
        }
    }

    #[test]
    fn progress_frames_count_the_bytes_the_merge_reads() {
        // Both merges feed the progress byte meter with every block they
        // read, so a rank's last merge frame has counted at least the
        // bytes its merge phase read — on the in-process cluster too.
        const RECORDS: usize = 20_000;
        let machine = MachineConfig {
            pes: 2,
            disks_per_pe: 2,
            block_bytes: 4 << 10,
            mem_bytes_per_pe: 256 << 10,
            cores_per_pe: 1,
        };
        for algorithm in [SortAlgo::Canonical, SortAlgo::Striped] {
            let dir = TestDir::new(&format!("progress-{algorithm}"));
            let job = job_in(&dir, machine.clone(), algorithm);
            write_record_file(Path::new(&job.input), &gensort_records(5, 0, RECORDS))
                .expect("write input");
            let cfg = job.validate().expect("config");
            let (storage, _guards) = local_job_storage(&job).expect("storage");
            let frames = Arc::new(std::sync::Mutex::new(Vec::<ProgressFrame>::new()));
            let (report, _) = run_on(&storage, &cfg, Record100::BYTES, |mut comm, storage| {
                let frames = Arc::clone(&frames);
                let seen = move |f: &ProgressFrame| frames.lock().expect("frames").push(*f);
                comm.set_tracer(Tracer::to_buffer(comm.rank()).with_progress(Box::new(seen)));
                let st = storage.pe(comm.rank());
                Ok((run_rank_job::<Record100>(&job, &comm, st, None)?, ()))
            })
            .expect("sort");
            assert!(report.runs > 1, "{algorithm}: the sort must merge");
            let frames = frames.lock().expect("frames");
            for rank in 0..machine.pes {
                let last = frames
                    .iter()
                    .rfind(|f| f.rank == rank && f.phase == Phase::FinalMerge)
                    .expect("merge frames");
                let read = report.get(rank, Phase::FinalMerge).io.bytes_read;
                assert!(
                    read > 0 && last.bytes >= read,
                    "{algorithm} rank {rank}: {last:?}, {read} B read"
                );
            }
        }
    }

    #[test]
    fn rank_tracer_is_off_without_a_directory_and_creates_it_otherwise() {
        assert!(!rank_tracer("", 3).expect("off").enabled());
        let dir = std::env::temp_dir().join(format!("demsort-job-trace-{}", std::process::id()));
        let nested = dir.join("a/b");
        let tracer = rank_tracer(&nested.to_string_lossy(), 3).expect("journal");
        assert!(tracer.enabled());
        assert!(nested.join("rank3.jsonl").is_file());
        // A path that cannot be a directory is an error, not a panic.
        let file = nested.join("rank3.jsonl").join("sub");
        assert!(matches!(rank_tracer(&file.to_string_lossy(), 0), Err(Error::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn local_jobs_are_validated_like_launched_ones() {
        // What `launch_workers` rejects before spawning, the in-process
        // substrate rejects before touching a file.
        let job = JobConfig {
            input: "/nonexistent".into(),
            output: "/nonexistent".into(),
            machine: MachineConfig::tiny(2),
            algo: AlgoConfig { replication: 1, ..AlgoConfig::default() },
            algorithm: SortAlgo::Canonical,
            read_timeout_ms: 1000,
            trace_dir: String::new(),
            scratch: String::new(),
        };
        let err = run_job_local::<Record100>(&job).expect_err("replication needs the striped sort");
        assert!(matches!(&err, Error::Config(m) if m.contains("striped")), "{err}");
    }
}
