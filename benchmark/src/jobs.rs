//! The four workloads and how one rep of each is run: seeded input
//! files, the shipping binaries spawned as a user would spawn them,
//! `wait4` for wall/CPU/RSS of the whole process tree, the job's own
//! `done:` line for the paper's volume yardsticks, and a `valsort`
//! equivalent pass over every output.

use demsort_core::validate::Fingerprint;
use demsort_types::{Record as _, Record100};
use demsort_workloads::{gensort_records, SortednessCheck};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

/// Records per input (100 B each). The issue sized the workloads at
/// 8 M records; the benchmark contract's time cap (92 runs in under an
/// hour) leaves room for an eighth of that, and memory and block size
/// shrink by the same factor so run counts and blocks per PE memory —
/// the shape of the sort — stay what the issue describes.
pub const RECORDS: usize = 1_000_000;
/// `--smoke` input size.
pub const SMOKE_RECORDS: usize = 200_000;
/// Every workload: 2 ranks × 1 core on 4 RAM "disks" per rank.
pub const RANKS: usize = 2;
pub const CORES: usize = 1;
pub const DISKS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// Uniform gensort keys.
    Uniform,
    /// The same records in strictly descending key order.
    Reversed,
}

/// One named workload: a shipping binary, its flags, its input shape.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `sortfile --transport local` (in-process cluster) when set,
    /// `demsort-launch` (one worker process per rank over TCP) otherwise.
    pub local: bool,
    pub algo: &'static str,
    pub mem_mib: usize,
    pub block_kib: usize,
    pub replication: usize,
    pub input: Input,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "canon_local",
        why: "canonical mergesort on the in-process cluster, 12 runs: core sort/merge and storage do the work, TCP and the block service none",
        local: true,
        algo: "canonical",
        mem_mib: 4,
        block_kib: 32,
        replication: 0,
        input: Input::Uniform,
    },
    Workload {
        name: "striped_tcp",
        why: "striped mergesort as two processes over loopback TCP: 2 N on sockets, every merge batch fetched through the block service",
        local: false,
        algo: "striped",
        mem_mib: 4,
        block_kib: 32,
        replication: 0,
        input: Input::Uniform,
    },
    Workload {
        name: "striped_tcp_repl",
        why: "striped_tcp plus replication 1: stores beside fetches (6 N of I/O, 3 N on sockets), pool misses rise; store-side and pool costs show here only",
        local: false,
        algo: "striped",
        mem_mib: 4,
        block_kib: 32,
        replication: 1,
        input: Input::Uniform,
    },
    Workload {
        name: "canon_tcp_small_rev",
        why: "canonical over TCP, 4 KiB blocks, 48 runs, descending keys: per-block and per-collective costs in charge, sorting cheap, movement-bound",
        local: false,
        algo: "canonical",
        mem_mib: 1,
        block_kib: 4,
        replication: 0,
        input: Input::Reversed,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The sort command for `input` → `output`, exactly as a user types
    /// it. `sortfile --transport local` has no tracing, so the traced
    /// rep of a local workload is this harness's own `--traced-local`
    /// child instead (see `phases::traced_local_job`).
    pub fn command(
        &self,
        bins: &Path,
        input: &Path,
        output: &Path,
        trace: Option<&Path>,
    ) -> Command {
        if let (true, Some(dir)) = (self.local, trace) {
            let mut cmd = Command::new(std::env::current_exe().expect("harness path"));
            cmd.args(["--traced-local", self.name]).args([input, output, dir]);
            return cmd;
        }
        let mut cmd = if self.local {
            let mut c = Command::new(bins.join("sortfile"));
            c.args(["--transport", "local", "--pes"]);
            c
        } else {
            let mut c = Command::new(bins.join("demsort-launch"));
            c.arg("--ranks");
            c
        };
        cmd.arg(RANKS.to_string());
        cmd.args(["--algo", self.algo]);
        cmd.args(["--cores", &CORES.to_string(), "--disks", &DISKS.to_string()]);
        cmd.args(["--mem-mib", &self.mem_mib.to_string()]);
        cmd.args(["--block-kib", &self.block_kib.to_string()]);
        if self.replication > 0 {
            cmd.args(["--replication", &self.replication.to_string()]);
        }
        if let Some(dir) = trace {
            cmd.arg("--trace").arg(dir);
        }
        cmd.arg(input).arg(output);
        cmd
    }
}

// -------------------------------------------------------------------
// Building the shipping binaries
// -------------------------------------------------------------------

/// Root of the repository this package sits in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// Build `sortfile`, `demsort-launch` and `demsort-worker` from the
/// repository's sources into the target directory this harness itself
/// was built into; returns the directory holding them and the seconds
/// the `cargo build` call took (a no-op rebuild after the first run).
pub fn build_bins() -> Result<(PathBuf, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let started = Instant::now();
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "demsort-bench"])
        .args(["--bin", "sortfile", "--bin", "demsort-launch", "--bin", "demsort-worker"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of the sort binaries failed: {status}"));
    }
    Ok((target.join("release"), started.elapsed().as_secs_f64()))
}

// -------------------------------------------------------------------
// Inputs and validation
// -------------------------------------------------------------------

/// Write the input file for `shape` from `seed` and return the
/// fingerprint every output of it must reproduce.
pub fn generate_input(
    shape: Input,
    seed: u64,
    records: usize,
    path: &Path,
) -> std::io::Result<Fingerprint> {
    const CHUNK: usize = 1 << 16;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut fp = Fingerprint::default();
    let mut buf = vec![0u8; CHUNK * Record100::BYTES];
    let mut emit = |recs: &[Record100]| -> std::io::Result<()> {
        for chunk in recs.chunks(CHUNK) {
            chunk.iter().for_each(|r| fp.add(r));
            let bytes = chunk.len() * Record100::BYTES;
            Record100::encode_slice(chunk, &mut buf[..bytes]);
            out.write_all(&buf[..bytes])?;
        }
        Ok(())
    };
    match shape {
        Input::Uniform => {
            let mut done = 0;
            while done < records {
                let n = CHUNK.min(records - done);
                emit(&gensort_records(seed, done as u64, n))?;
                done += n;
            }
        }
        Input::Reversed => {
            let mut recs = gensort_records(seed, 0, records);
            recs.sort_unstable_by(|a, b| b.cmp(a));
            emit(&recs)?;
        }
    }
    out.flush()?;
    Ok(fp)
}

/// What `valsort` checks, in-process: the file is whole records in
/// non-descending key order and its fingerprint equals the input's.
pub fn validate_output(path: &Path, expect: Fingerprint) -> Result<(), String> {
    const CHUNK: usize = 1 << 16;
    let mut file = std::fs::File::open(path).map_err(|e| format!("open output: {e}"))?;
    let len = file.metadata().map_err(|e| format!("stat output: {e}"))?.len();
    if len % Record100::BYTES as u64 != 0 {
        return Err(format!("output holds {len} bytes, not whole records"));
    }
    let mut fp = Fingerprint::default();
    let mut order = SortednessCheck::<Record100>::new();
    let mut buf = vec![0u8; CHUNK * Record100::BYTES];
    let mut recs: Vec<Record100> = Vec::with_capacity(CHUNK);
    let mut left = len as usize;
    while left > 0 {
        let bytes = buf.len().min(left);
        file.read_exact(&mut buf[..bytes]).map_err(|e| format!("read output: {e}"))?;
        left -= bytes;
        recs.clear();
        Record100::decode_slice(&buf[..bytes], &mut recs);
        order.push_all(&recs);
        recs.iter().for_each(|r| fp.add(r));
    }
    if order.violations() > 0 {
        return Err(format!("{} out-of-order record pairs", order.violations()));
    }
    if fp != expect {
        return Err(format!(
            "fingerprint {:016x}:{:016x} differs from the input's {:016x}:{:016x}",
            fp.count, fp.sum, expect.count, expect.sum
        ));
    }
    Ok(())
}

// -------------------------------------------------------------------
// One rep
// -------------------------------------------------------------------

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reap `child` and return its exit status with the resource usage of
/// it and every descendant it waited for.
fn wait_with_rusage(child: std::process::Child) -> std::io::Result<(i32, RUsage)> {
    let mut status = 0i32;
    let mut ru = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // wait4(2) expects on 64-bit Linux (144-byte rusage); the pid
        // is a child of this process that nothing else reaps —
        // `Child::wait` is never called on it.
        let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        if got >= 0 {
            return Ok((status, ru));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The job's final `done:` line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DoneLine {
    pub runs: u64,
    pub io_over_n: f64,
    pub comm_over_n: f64,
}

/// Parse `done: … 12 runs, … I/O volume 4.03 N, communication 0.52 N`.
pub fn parse_done_line(stderr: &str) -> Option<DoneLine> {
    let line = stderr.lines().rev().find(|l| l.starts_with("done:"))?;
    let before = |marker: &str| {
        let head = &line[..line.find(marker)?];
        head.rsplit([' ', ',']).next()?.parse::<f64>().ok()
    };
    let after = |marker: &str| {
        let tail = &line[line.find(marker)? + marker.len()..];
        tail.split(' ').next()?.parse::<f64>().ok()
    };
    Some(DoneLine {
        runs: before(" runs")? as u64,
        io_over_n: after("I/O volume ")?,
        comm_over_n: after("communication ")?,
    })
}

/// What one rep of a job measured; `failure` names why a rep does not
/// count as a correct sort.
#[derive(Clone, Debug)]
pub struct Rep {
    pub spawned_at: SystemTime,
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_mb: f64,
    pub done: Option<DoneLine>,
    pub failure: Option<String>,
}

/// Everything a rep needs besides the workload.
pub struct JobEnv<'a> {
    pub bins: &'a Path,
    pub scratch: &'a Path,
    pub input: &'a Path,
    pub fingerprint: Fingerprint,
}

impl JobEnv<'_> {
    pub fn output(&self) -> PathBuf {
        self.scratch.join("output.dat")
    }

    /// Run the sort command once: the timed region is spawn to exit;
    /// the output is validated after the clock stops.
    pub fn run(&self, w: &Workload, trace: Option<&Path>) -> Rep {
        let output = self.output();
        let stderr_path = self.scratch.join("job.stderr");
        let _ = std::fs::remove_file(&output);
        let mut rep = Rep {
            spawned_at: SystemTime::now(),
            wall_s: 0.0,
            user_s: 0.0,
            sys_s: 0.0,
            peak_rss_mb: 0.0,
            done: None,
            failure: None,
        };
        let stderr = match std::fs::File::create(&stderr_path) {
            Ok(f) => f,
            Err(e) => {
                rep.failure = Some(format!("create {}: {e}", stderr_path.display()));
                return rep;
            }
        };
        let mut cmd = w.command(self.bins, self.input, &output, trace);
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(stderr);
        // A spawned child's `ru_maxrss` starts from its parent's peak
        // RSS (Linux folds the old address space's high-water mark in
        // at exec), so without this every job would report at least
        // whatever the harness once held — a sorted input, the ladder's
        // buffers. "5" resets this process's mark to its current RSS,
        // which is a few MB between jobs.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let started = Instant::now();
        rep.spawned_at = SystemTime::now();
        let waited = cmd.spawn().and_then(wait_with_rusage);
        rep.wall_s = started.elapsed().as_secs_f64();
        let (status, ru) = match waited {
            Ok(x) => x,
            Err(e) => {
                rep.failure = Some(format!("spawn/wait {}: {e}", w.name));
                return rep;
            }
        };
        rep.user_s = ru.utime.seconds();
        rep.sys_s = ru.stime.seconds();
        rep.peak_rss_mb = ru.maxrss_kb as f64 * 1024.0 / 1e6;
        let log = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        rep.done = parse_done_line(&log);
        // Exited normally with code 0 ⇔ the raw wait status is 0.
        rep.failure = if status != 0 {
            let tail = log.lines().last().unwrap_or("");
            Some(format!("exit status {status:#x}: {tail}"))
        } else if rep.done.is_none() {
            Some("no done: line on stderr".into())
        } else {
            validate_output(&output, self.fingerprint).err()
        };
        rep
    }
}

// -------------------------------------------------------------------
// End-to-end measurement of one workload
// -------------------------------------------------------------------

/// How much to measure: the contract run, the full run and `--smoke`
/// differ only here.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    pub records: usize,
    /// Times set-up (input generation + warm-up rep) is repeated;
    /// `setup_s` is the median.
    pub setups: usize,
    /// Timed reps run until their walls sum to this, …
    pub seconds: f64,
    /// … but never fewer than this many.
    pub min_reps: usize,
}

/// The untraced measurement of one workload.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Timed reps only.
    pub reps: Vec<Rep>,
    /// Warm-up and timed reps.
    pub attempted: usize,
    pub failures: Vec<String>,
    pub input_bytes: u64,
}

impl EndToEnd {
    /// Per-rep samples of every end-to-end metric except `setup_s`.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        let gb = self.input_bytes as f64 / 1e9;
        let done = |f: fn(&DoneLine) -> f64| {
            self.reps.iter().filter_map(|r| r.done.as_ref().map(f)).collect::<Vec<f64>>()
        };
        match metric {
            "sort_mb_s" => self.reps.iter().map(|r| gb * 1e3 / r.wall_s).collect(),
            "user_cpu_s_per_gb" => self.reps.iter().map(|r| r.user_s / gb).collect(),
            "host.sys_cpu_s_per_gb" => self.reps.iter().map(|r| r.sys_s / gb).collect(),
            "peak_rss_mb" => self.reps.iter().map(|r| r.peak_rss_mb).collect(),
            "io_volume_over_n" => done(|d| d.io_over_n),
            "comm_volume_over_n" => done(|d| d.comm_over_n),
            "setup_s" => self.setup_s.clone(),
            other => panic!("{other} is not an end-to-end sample series"),
        }
    }

    pub fn wall_median(&self) -> f64 {
        crate::stats::median(&self.reps.iter().map(|r| r.wall_s).collect::<Vec<f64>>())
    }
}

/// Generate the input `effort.setups` times, warm up after each, then
/// run timed reps closed-loop, one job at a time. Returns the
/// measurement and leaves the input file in place for a traced rep.
pub fn measure_end_to_end(
    w: &Workload,
    seed: u64,
    effort: Effort,
    bins: &Path,
    scratch: &Path,
    spans: &mut crate::spans::Spans,
) -> Result<(EndToEnd, Fingerprint), String> {
    let input = input_path(scratch);
    let mut e2e = EndToEnd {
        setup_s: Vec::new(),
        reps: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        input_bytes: (effort.records * Record100::BYTES) as u64,
    };
    let mut fingerprint = Fingerprint::default();
    let note = |e2e: &mut EndToEnd, rep: &Rep| {
        e2e.attempted += 1;
        if let Some(why) = &rep.failure {
            e2e.failures.push(why.clone());
        }
    };
    for _ in 0..effort.setups {
        let started = Instant::now();
        fingerprint = spans
            .scope("generate_input", w.name, |_| {
                generate_input(w.input, seed, effort.records, &input)
            })
            .map_err(|e| format!("write {}: {e}", input.display()))?;
        let env = JobEnv { bins, scratch, input: &input, fingerprint };
        // The warm-up's validation is not set-up work; stop the clock
        // at the job's exit.
        let before_job = started.elapsed();
        let rep = spans.scope("warmup_rep", w.name, |_| env.run(w, None));
        e2e.setup_s.push(before_job.as_secs_f64() + rep.wall_s);
        note(&mut e2e, &rep);
    }
    let env = JobEnv { bins, scratch, input: &input, fingerprint };
    let mut measured = Duration::ZERO;
    while e2e.reps.len() < effort.min_reps || measured.as_secs_f64() < effort.seconds {
        let rep = spans.scope("timed_rep", w.name, |_| env.run(w, None));
        measured += Duration::from_secs_f64(rep.wall_s);
        note(&mut e2e, &rep);
        e2e.reps.push(rep);
        // A failing workload must not spin for the whole window.
        if e2e.failures.len() >= 3 {
            break;
        }
    }
    Ok((e2e, fingerprint))
}

pub fn input_path(scratch: &Path) -> PathBuf {
    scratch.join("input.dat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_lines_of_both_binaries_parse() {
        let launch = "launching 2 worker processes\n  rank 0: 5 records, 12 runs\n\
                      done: 1000000 records on 2 ranks, 12 runs, I/O volume 6.02 N, communication 3.00 N\n";
        assert_eq!(
            parse_done_line(launch),
            Some(DoneLine { runs: 12, io_over_n: 6.02, comm_over_n: 3.0 })
        );
        let sortfile = "sorting …\ndone: 49 runs, I/O volume 4.16 N, communication 0.52 N\n";
        assert_eq!(
            parse_done_line(sortfile),
            Some(DoneLine { runs: 49, io_over_n: 4.16, comm_over_n: 0.52 })
        );
        let striped = "done: 3 runs, 1 merge passes, I/O volume 4.01 N, communication 2.00 N";
        assert_eq!(parse_done_line(striped).map(|d| d.runs), Some(3));
        assert_eq!(parse_done_line("sortfile: rank 1 died\n"), None);
    }

    #[test]
    fn inputs_are_seeded_and_validation_catches_disorder_and_loss() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (a, b, rev) = (dir.join("a"), dir.join("b"), dir.join("rev"));
        let fp_a = generate_input(Input::Uniform, 7, 1000, &a).expect("gen");
        let fp_b = generate_input(Input::Uniform, 7, 1000, &b).expect("gen");
        assert_eq!(fp_a, fp_b);
        assert_eq!(
            std::fs::read(&a).expect("a"),
            std::fs::read(&b).expect("b"),
            "same seed, same bytes"
        );
        let fp_other = generate_input(Input::Uniform, 8, 1000, &b).expect("gen");
        assert_ne!(fp_a, fp_other);

        // The reversed file is the same multiset, strictly descending.
        let fp_rev = generate_input(Input::Reversed, 7, 1000, &rev).expect("gen");
        assert_eq!(fp_rev, fp_a);
        assert!(validate_output(&rev, fp_a).expect_err("descending").contains("out-of-order"));

        // Reversing it again gives a valid sort of either input.
        let bytes = std::fs::read(&rev).expect("rev");
        let sorted: Vec<u8> = bytes.chunks(100).rev().flatten().copied().collect();
        std::fs::write(&a, &sorted).expect("write");
        validate_output(&a, fp_a).expect("ascending file with the input's fingerprint");
        // Drop a record, duplicate another: still sorted, wrong multiset.
        let mut forged = sorted.clone();
        forged.copy_within(100..200, 0);
        std::fs::write(&a, &forged).expect("write");
        assert!(validate_output(&a, fp_a).expect_err("forged").contains("fingerprint"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
