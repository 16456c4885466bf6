//! The shipping `sortfile` binary is an external sort: its memory is
//! set by `--mem-mib`, not by the file, and its file I/O is the paper's
//! two passes. Run formation reads the input where it lies, the last
//! pass writes the output where it belongs, and the runs between them
//! live in files under the scratch directory (before they did,
//! in-memory "disks" held the data set once).
//!
//! Peak RSS comes from `wait4(2)`, declared by hand for 64-bit Linux;
//! bytes moved by system calls from `/proc/self/io`, which counts the
//! children this process has reaped. The tests spawn one sort at a time
//! (`ONE_CHILD`), so neither reads the other's child.

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use demsort_types::{Record as _, Record100};
use demsort_workloads::gensort_records;
use std::io::Write;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

/// Held while a test writes its input and runs its sort.
static ONE_CHILD: Mutex<()> = Mutex::new(());

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs,
/// the first of which is the peak resident set in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reap `child`; returns its wait status and resource usage.
fn reap_with_rusage(child: std::process::Child) -> (i32, RUsage) {
    let (mut status, mut ru) = (0i32, RUsage::default());
    // SAFETY: `status` and `ru` are live, writable and laid out as
    // wait4(2) expects on 64-bit Linux (144-byte rusage); the pid is a
    // child of this process that nothing else reaps — `Child::wait` is
    // never called on it.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    assert_eq!(reaped, child.id() as i32, "wait4: {}", std::io::Error::last_os_error());
    (status, ru)
}

/// Write `records` gensort records to `dir/in.dat`.
fn write_input(dir: &Path, records: usize) {
    write_seeded_input(dir, 3, records);
}

/// Write `records` gensort records of seed `seed` to `dir/in.dat`.
fn write_seeded_input(dir: &Path, seed: u64, records: usize) {
    const SLICE: usize = 10_000;
    // Generated in slices: a child's `ru_maxrss` starts from the RSS of
    // the process that forked it, so this process must stay small.
    let input = std::fs::File::create(dir.join("in.dat")).expect("create input");
    let mut f = std::io::BufWriter::new(input);
    let mut bytes = vec![0u8; SLICE * Record100::BYTES];
    for first in (0..records).step_by(SLICE) {
        Record100::encode_slice(&gensort_records(seed, first as u64, SLICE), &mut bytes);
        f.write_all(&bytes).expect("write input");
    }
    f.flush().expect("flush input");
}

/// Start `sortfile --pes 2 --cores 1 <args> dir/in.dat dir/out.dat`.
fn spawn_sortfile(dir: &Path, args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sortfile"))
        .args(["--pes", "2", "--cores", "1"])
        .args(args)
        .arg(dir.join("in.dat"))
        .arg(dir.join("out.dat"))
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sortfile")
}

/// Sort `records` gensort records with `sortfile --pes 2` at the given
/// memory per PE and block size, with `more` flags, and return the
/// process's peak RSS in bytes.
fn sortfile_peak_rss(
    dir: &Path,
    records: usize,
    mem_mib: usize,
    block_kib: usize,
    more: &[&str],
) -> usize {
    write_input(dir, records);
    peak_rss_of_input(dir, records, mem_mib, block_kib, more)
}

/// [`sortfile_peak_rss`] of the input already in `dir`.
fn peak_rss_of_input(
    dir: &Path,
    records: usize,
    mem_mib: usize,
    block_kib: usize,
    more: &[&str],
) -> usize {
    let (mem, block) = (mem_mib.to_string(), block_kib.to_string());
    let mut args = vec!["--mem-mib", &mem, "--block-kib", &block];
    args.extend_from_slice(more);
    let child = spawn_sortfile(dir, &args);
    let (status, ru) = reap_with_rusage(child);
    assert_eq!(status, 0, "sortfile failed");
    let input_bytes = (records * Record100::BYTES) as u64;
    assert_eq!(std::fs::metadata(dir.join("out.dat")).expect("stat output").len(), input_bytes);
    ru.maxrss_kb as usize * 1024
}

/// A directory of one test's own, removed on drop.
struct TestDir(std::path::PathBuf);

impl TestDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("demsort-file-edges-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        Self(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `rchar + wchar` of this process: bytes its read- and write-family
/// system calls moved, whatever the page cache made of them, counting
/// the children it has reaped. `None` where the kernel keeps no
/// per-task I/O accounting.
fn syscall_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let field =
        |name: &str| io.lines().find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok());
    Some(field("rchar:")? + field("wchar:")?)
}

#[test]
fn sortfile_reads_and_writes_each_record_twice() {
    // Ten runs on two PEs: run formation reads the input (N) and writes
    // the runs (N), the final merge reads the runs (N) and writes the
    // output (N), and the all-to-all (canonical) and the block padding
    // add a few percent. Before run formation read the input where it
    // lies and the last pass wrote the output where it belongs, each
    // end was copied once more through the scratch files: 8.03 N for
    // canonical and 8.02 N for striped at `--mem-mib 4 --block-kib 32`,
    // and 8.07 N / 8.05 N at this test's shape, which now reads 4.05 N /
    // 4.01 N.
    const RECORDS: usize = 200_000;
    let _one = ONE_CHILD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TestDir::new("io");
    write_input(&dir.0, RECORDS);
    let n = (RECORDS * Record100::BYTES) as f64;
    for algo in ["canonical", "striped"] {
        let Some(before) = syscall_bytes() else {
            eprintln!("no /proc/self/io on this kernel; file I/O not measured");
            return;
        };
        let args = ["--transport", "local", "--algo", algo, "--mem-mib", "1", "--block-kib", "16"];
        let (status, _) = reap_with_rusage(spawn_sortfile(&dir.0, &args));
        assert_eq!(status, 0, "sortfile --algo {algo} failed");
        let moved = syscall_bytes().expect("/proc/self/io") - before;
        let over_n = moved as f64 / n;
        assert!(over_n <= 4.2, "{algo}: {over_n:.3} N of file I/O ({moved} B)");
    }
}

#[test]
fn sortfile_peak_rss_follows_the_memory_budget_not_the_input() {
    let _one = ONE_CHILD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TestDir::new("rss");
    let dir = &dir.0;
    // P·m = 2 MiB of sorting memory against 20 MB and 80 MB of input.
    // The blocks live in `out.dat.scratch/`, so the peak is the same at
    // both sizes and below either input. (16 KiB blocks keep R·B under
    // m at both sizes — the final merge carries up to a block of every
    // run — so this pair is about N; the 64 KiB pair below is about R.)
    //
    // It is not yet P·m. Run formation sets the peak, and what it holds
    // per PE is named now: the arena the run is sorted in (m), the next
    // run's prefetched blocks (m), the exchange's messages (≤ m, in
    // frames the transport keeps from run to run, sized by the first)
    // and the writer's window (m/4) — ≈ 3.3 × P·m, on top of the process
    // itself and what the allocator keeps of the file edges' windows.
    // That is 10–11 MB at 20 MB of input and 15–16 MB at 80 MB (it was
    // 17 and 19 MB with a run staged five more times between the sort
    // and the disk queue), and what is left is the budget-enforcement
    // work's: charge those four to `m` instead of adding them to it.
    const LIMIT: usize = 20 << 20;
    let small = sortfile_peak_rss(dir, 200_000, 1, 16, &[]);
    let large = sortfile_peak_rss(dir, 800_000, 1, 16, &[]);
    for (peak, input_mb) in [(small, 20), (large, 80)] {
        assert!(peak < LIMIT, "peak RSS {peak} B for a {input_mb} MB input (limit {LIMIT} B)");
    }
    assert!(
        small.abs_diff(large) < 8 << 20,
        "peak RSS must not follow the input: {small} B at 20 MB, {large} B at 80 MB"
    );

    // The default 64 KiB blocks, R = 10 and R = 39: the final merge
    // reads all runs through one window of 2·D blocks, so what still
    // grows with R is the block of every run it must hold before it can
    // emit past that block's keys — P·29·B = 3.6 MiB more at R = 39 —
    // and allocator slack on top. The peaks are 10.2 and 15.6 MiB in a
    // release build (11.4 and 17.1 in a debug one); when every run's
    // fragment chain read ahead on its own they were 11.9 and 33.0 MiB.
    let r_10 = sortfile_peak_rss(dir, 200_000, 1, 64, &[]);
    let r_39 = sortfile_peak_rss(dir, 800_000, 1, 64, &[]);
    assert!(
        r_10.abs_diff(r_39) < 8 << 20,
        "peak RSS must not follow the run count: {r_10} B at R = 10, {r_39} B at R = 39"
    );

    // The benchmark's shape, P·m = 8 MiB, so the constant holds where
    // memory, not the process's fixed costs, is most of the peak. It was
    // 57 MB (7 × P·m) with a run staged five more times, then 29–33 MiB
    // with the exchange's messages allocated and freed every run, which
    // left the peak to when the allocator returned them. Since they are
    // frames kept across runs the peak is what the flags set: the bound
    // was stated at 30 MiB before measuring 27.0–27.7 MiB in a debug
    // build (28.3–30.3 MiB before; the bound was 44 MiB).
    let budget_8_mib = sortfile_peak_rss(dir, 800_000, 4, 32, &[]);
    assert!(budget_8_mib < 30 << 20, "peak RSS {budget_8_mib} B at --mem-mib 4 (limit 30 MiB)");
}

#[test]
fn sortfile_peak_rss_does_not_depend_on_the_input_seed() {
    // The `canon_local` benchmark workload — `--pes 2 --cores 1 --disks
    // 4 --mem-mib 4 --block-kib 32`, canonical, 1 M records, 12 runs —
    // over three gensort seeds. When every run allocated and freed its
    // exchange messages, whether the allocator kept them resident
    // depended on timing, and so on the data: in a debug build this
    // test read spreads of 2.0–4.2 MiB in six runs (seed 101 at
    // 32.2–34.1 MiB, 102 and 103 at 29.2–31.1). With frames kept
    // across runs: 27.2–28.0 MiB, within 0.2 MiB. The bound was
    // stated first. (At 200 k records, 3 runs, the old spread was 0.3–0.55
    // MiB in three trials: too small a sort to show it.)
    const SPREAD: usize = 512 << 10;
    const RECORDS: usize = 1_000_000;
    let _one = ONE_CHILD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TestDir::new("rss-seeds");
    let flags = ["--transport", "local", "--algo", "canonical", "--disks", "4"];
    let peaks: Vec<usize> = [101, 102, 103]
        .into_iter()
        .map(|seed| {
            write_seeded_input(&dir.0, seed, RECORDS);
            peak_rss_of_input(&dir.0, RECORDS, 4, 32, &flags)
        })
        .collect();
    let spread = peaks.iter().max().expect("three") - peaks.iter().min().expect("three");
    assert!(spread <= SPREAD, "peaks {peaks:?} B spread by {spread} B (limit {SPREAD} B)");
}

#[test]
fn striped_sortfile_peak_rss_without_and_with_replicas() {
    // `--algo striped` at the benchmark's shape, P·m = 8 MiB and 32 KiB
    // blocks, 80 MB of input: R = 10, so run formation stripes every run
    // over the disks and, with `--replication 1`, writes a replica of
    // every block. Each run's exchange merges straight into the
    // striping sink, whose one all-to-all carries the replicas too;
    // before, the exchange filled a run-sized canonical arena, the
    // striped write encoded all of it (this PE's own piece included)
    // and assembled this PE's blocks in a map before writing them, and
    // replication read every block back afterwards. Peaks measured on
    // one host, two runs each: 41.5–42.4 MB before and 32.3–32.7 MB
    // after in a release build, 43.6–43.7 MB before and 33.8–35.8 MB
    // after in a debug one, with or without replicas. The bound lies
    // between.
    const LIMIT: usize = 38 << 20;
    let _one = ONE_CHILD.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TestDir::new("rss-striped");
    for more in [&["--algo", "striped"][..], &["--algo", "striped", "--replication", "1"]] {
        let peak = sortfile_peak_rss(&dir.0, 800_000, 4, 32, more);
        assert!(peak < LIMIT, "peak RSS {peak} B for {more:?} (limit {LIMIT} B)");
    }
}
