//! After its first run, run formation allocates nothing run-sized: the
//! arena, the in-node sort's tags and merge output, the exchange's
//! buffers and the message frames are all sized by the first run and
//! reused by every later one. After its first batch, the merge allocates
//! nothing batch-sized either: it merges from the blocks where they lie,
//! and the striped merge's arena, exchange and message frames are sized
//! once for the group.
//!
//! A counting global allocator counts allocations of at least
//! [`LARGE`] bytes; each rank's progress frames, which both sorts send
//! at the start of every run and after every merge batch, stamp the
//! count, so the allocations between the last rank's start of its
//! second run and the first rank's end of run formation are known.
//! Blocks are 32 KiB, so a pooled block buffer is never counted; the
//! runs (1 MiB per PE) make messages of 340–520 KiB and tag arrays of
//! 84 KiB.

use demsort_core::job::{rank_backend, rank_tracer, run_rank_job};
use demsort_core::ClusterStorage;
use demsort_types::{
    AlgoConfig, JobConfig, MachineConfig, Phase, ProgressFrame, Record100, SortAlgo,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Allocations of at least this many bytes are counted.
const LARGE: usize = 64 << 10;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting large allocations (the default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they count too).
struct Counting;

// SAFETY: every call is passed to the system allocator unchanged; the
// count has no effect on what is allocated.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: the caller's contract is `System.dealloc`'s, and every
    // pointer came from `System.alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One rank's progress frame and the large-allocation count when it
/// was sent.
struct Stamp {
    rank: usize,
    phase: Phase,
    batch: u64,
    large: u64,
}

/// Sort `input` with `algorithm` on `pes` in-process ranks at `cores`
/// cores each; returns every rank's stamps in the order they were sent.
fn stamped_sort(dir: &Path, pes: usize, algorithm: SortAlgo, cores: usize) -> Vec<Stamp> {
    let machine = MachineConfig {
        pes,
        disks_per_pe: 2,
        block_bytes: 32 << 10,
        mem_bytes_per_pe: 1 << 20,
        cores_per_pe: cores,
    };
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let job = JobConfig {
        input: path("in.dat"),
        output: path("out.dat"),
        machine: machine.clone(),
        algo: AlgoConfig::default(),
        algorithm,
        read_timeout_ms: 1,
        trace_dir: path("trace"),
        scratch: path("scratch"),
    };
    let (backends, _guards): (Vec<_>, Vec<_>) =
        (0..pes).map(|rank| rank_backend(&job, rank).expect("scratch disks")).unzip();
    let storage = ClusterStorage::with_backends(&machine, backends);
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let reports = demsort_net::run_cluster(pes, |mut comm| {
        let stamps = Arc::clone(&stamps);
        let stamp = move |f: &ProgressFrame| {
            let large = LARGE_ALLOCS.load(Ordering::Relaxed);
            let s = Stamp { rank: f.rank, phase: f.phase, batch: f.batch, large };
            stamps.lock().expect("stamps").push(s);
        };
        let tracer = rank_tracer(&job.trace_dir, comm.rank()).expect("journal");
        comm.set_tracer(tracer.with_progress(Box::new(stamp)));
        run_rank_job::<Record100>(&job, &comm, storage.pe(comm.rank()), None)
    });
    for report in reports {
        assert!(report.expect("sort").runs >= 8, "the sort must form at least 8 runs");
    }
    Arc::try_unwrap(stamps).ok().expect("ranks done").into_inner().expect("stamps")
}

/// Large allocations from the last rank's stamp that passes `from` to
/// the first rank's stamp that passes `to`.
fn allocated_between(
    stamps: &[Stamp],
    pes: usize,
    from: impl Fn(&Stamp) -> bool,
    to: impl Fn(&Stamp) -> bool,
) -> u64 {
    let mut started = vec![false; pes];
    let start = stamps.iter().find(|s| {
        started[s.rank] |= from(s);
        started.iter().all(|&b| b)
    });
    let end = stamps.iter().find(|s| to(s));
    let (start, end) = (start.expect("every rank starts"), end.expect("a rank ends"));
    end.large - start.large
}

/// The test's input, output and scratch, removed on drop (a failed
/// assertion included).
struct TestDir(std::path::PathBuf);

impl TestDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("demsort-steady-alloc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        Self(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn run_formation_allocates_nothing_run_sized_after_its_first_run() {
    let dir = TestDir::new();
    let dir = &dir.0;
    for pes in [2, 3] {
        // Nine runs' worth of records on every PE.
        let records = 9 * pes * ((1 << 20) / 100);
        let input = demsort_workloads::gensort_records(7, 0, records);
        demsort_core::fileio::write_record_file(&dir.join("in.dat"), &input).expect("input");
        drop(input);
        for algorithm in [SortAlgo::Canonical, SortAlgo::Striped] {
            for cores in [1, 2] {
                let case = format!("P = {pes}, {algorithm}, --cores {cores}");
                let stamps = stamped_sort(dir, pes, algorithm, cores);
                let run_formation = allocated_between(
                    &stamps,
                    pes,
                    |s| s.phase == Phase::RunFormation && s.batch == 1,
                    |s| s.phase != Phase::RunFormation,
                );
                assert_eq!(run_formation, 0, "{case}: allocations of ≥ 64 KiB after run 1");
                let merge = allocated_between(
                    &stamps,
                    pes,
                    |s| s.phase == Phase::FinalMerge && s.batch == 1,
                    |s| {
                        s.phase == Phase::FinalMerge && s.batch > 1 && {
                            let last = stamps.iter().rev().find(|t| t.rank == s.rank);
                            last.is_some_and(|t| std::ptr::eq(t, s))
                        }
                    },
                );
                assert_eq!(merge, 0, "{case}: allocations of ≥ 64 KiB in the merge after batch 1");
            }
        }
    }
}
