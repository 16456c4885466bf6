//! Scratch hygiene of the shipping binaries: the blocks of a sort live
//! in `<OUTPUT>.scratch/` (or `--scratch DIR`) while it runs and
//! nowhere afterwards — after a sort that succeeds, after one that
//! fails, over the leftovers of one that crashed — and a scratch path
//! the job cannot use stops the job before it starts.
//!
//! The SIGKILL cases (a rank that cannot clean up after itself) are in
//! `cluster_failure.rs`.

use demsort_types::{Record as _, Record100};
use demsort_workloads::gensort_records;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RECORDS: usize = 30_000;
const SORTFILE: &str = env!("CARGO_BIN_EXE_sortfile");
const LAUNCH: &str = env!("CARGO_BIN_EXE_demsort-launch");

/// A directory of one test's own holding a gensort input, removed on
/// drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("demsort-scratch-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        let recs = gensort_records(23, 0, RECORDS);
        let mut bytes = vec![0u8; RECORDS * Record100::BYTES];
        Record100::encode_slice(&recs, &mut bytes);
        std::fs::write(dir.join("in.dat"), bytes).expect("write input");
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Everything in the directory besides the input, sorted.
    fn leftovers(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.0)
            .expect("list test dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n != "in.dat")
            .collect();
        names.sort();
        names
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `bin` on two ranks with a small memory (an external sort of
/// several runs) and `extra` flags.
fn sort(bin: &str, extra: &[&str], input: &Path, output: &Path) -> Output {
    Command::new(bin)
        .args(["--ranks", "2", "--cores", "1", "--mem-mib", "1", "--block-kib", "16"])
        .args(extra)
        .arg(input)
        .arg(output)
        .output()
        .expect("spawn")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn successful_runs_leave_only_their_output() {
    let dir = TestDir::new("success");
    let input = dir.path("in.dat");
    let elsewhere = dir.path("elsewhere");
    let elsewhere_flag = ["--scratch", elsewhere.to_str().expect("utf-8 path")];
    let runs: [(&str, &[&str], &str); 4] = [
        (SORTFILE, &[], "local.dat"),
        (SORTFILE, &elsewhere_flag, "local-elsewhere.dat"),
        (LAUNCH, &[], "tcp.dat"),
        (LAUNCH, &elsewhere_flag, "tcp-elsewhere.dat"),
    ];
    for (bin, extra, name) in runs {
        let out = sort(bin, extra, &input, &dir.path(name));
        assert!(out.status.success(), "{bin} {extra:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(" runs, I/O volume 4."),
            "an external sort: {}",
            stderr(&out)
        );
    }
    let outputs = ["local-elsewhere.dat", "local.dat", "tcp-elsewhere.dat", "tcp.dat"];
    assert_eq!(dir.leftovers(), outputs, "no *.scratch, no rank<K>/, no --scratch directory");
    let reference = std::fs::read(dir.path("local.dat")).expect("read output");
    assert_eq!(reference.len(), RECORDS * Record100::BYTES);
    for name in outputs {
        assert!(std::fs::read(dir.path(name)).expect("read output") == reference, "{name}");
    }
}

#[test]
fn failed_runs_leave_no_scratch() {
    let dir = TestDir::new("failure");
    // An input that is not whole records gets past the launcher's
    // checks and fails in every rank, after the rank made its disks.
    let ragged = dir.path("ragged.dat");
    std::fs::write(&ragged, [0u8; 150]).expect("write ragged input");
    for bin in [SORTFILE, LAUNCH] {
        let out = sort(bin, &[], &ragged, &dir.path("out.dat"));
        assert_eq!(out.status.code(), Some(1), "{bin}: {}", stderr(&out));
        assert!(stderr(&out).contains("not whole 100-byte records"), "{bin}: {}", stderr(&out));
        let left: Vec<String> =
            dir.leftovers().into_iter().filter(|n| n != "ragged.dat" && n != "out.dat").collect();
        assert!(left.is_empty(), "{bin} left {left:?} behind");

        // A job that does not validate never gets as far as a disk.
        let out = sort(bin, &["--replication", "1"], &dir.path("in.dat"), &dir.path("never.dat"));
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr(&out));
        assert!(stderr(&out).contains("requires the striped algorithm"), "{bin}: {}", stderr(&out));
        assert!(!dir.leftovers().iter().any(|n| n.starts_with("never")), "{:?}", dir.leftovers());
    }
}

#[test]
fn an_empty_input_sorts_into_an_empty_output() {
    // N = 0 has no volume "over N": the `done:` line gives bytes.
    let dir = TestDir::new("empty");
    let empty = dir.path("empty.dat");
    std::fs::write(&empty, []).expect("write empty input");
    for bin in [SORTFILE, LAUNCH] {
        for algo in ["canonical", "striped"] {
            let output = dir.path(&format!("out-{algo}.dat"));
            let out = sort(bin, &["--algo", algo], &empty, &output);
            let msg = stderr(&out);
            assert_eq!(out.status.code(), Some(0), "{bin} {algo}: {msg}");
            assert_eq!(std::fs::metadata(&output).expect("stat output").len(), 0, "{bin} {algo}");
            assert!(msg.contains("done: 0 records on 2 ranks"), "{bin} {algo}: {msg}");
            assert!(!msg.contains("NaN") && !msg.contains("inf"), "{bin} {algo}: {msg}");
        }
    }
    assert!(!dir.leftovers().iter().any(|n| n.ends_with(".scratch")), "{:?}", dir.leftovers());
}

#[test]
fn stale_scratch_from_a_crashed_run_is_reused() {
    let dir = TestDir::new("stale");
    let input = dir.path("in.dat");
    let reference = sort(SORTFILE, &[], &input, &dir.path("ref.dat"));
    assert!(reference.status.success(), "{}", stderr(&reference));

    for (bin, name) in [(SORTFILE, "local.dat"), (LAUNCH, "tcp.dat")] {
        // What a SIGKILLed run of another shape leaves: disk files full
        // of old blocks, under more names than this run will use.
        let scratch = dir.path(&format!("{name}.scratch"));
        for rank in 0..2 {
            let rank_dir = scratch.join(format!("rank{rank}"));
            std::fs::create_dir_all(&rank_dir).expect("stale rank dir");
            for disk in [0, 1, 7] {
                std::fs::write(rank_dir.join(format!("disk_{disk}.bin")), vec![0xAB; 100_000])
                    .expect("stale disk file");
            }
        }
        let out = sort(bin, &[], &input, &dir.path(name));
        assert!(out.status.success(), "{bin} over a stale scratch directory: {}", stderr(&out));
        assert!(
            std::fs::read(dir.path(name)).expect("read output")
                == std::fs::read(dir.path("ref.dat")).expect("read reference"),
            "{bin}: stale blocks must not reach the output"
        );
    }
    assert_eq!(dir.leftovers(), ["local.dat", "ref.dat", "tcp.dat"]);
}

#[test]
fn an_unusable_scratch_path_is_a_usage_error_before_any_rank_starts() {
    let dir = TestDir::new("unusable");
    let input = dir.path("in.dat");
    // Nothing can be made under a regular file, whoever runs the test.
    let under_a_file = input.join("scratch");
    let under_a_file = under_a_file.to_str().expect("utf-8 path");
    let cases: [(&str, &[&str]); 3] =
        [(SORTFILE, &[]), (SORTFILE, &["--transport", "tcp"]), (LAUNCH, &[])];
    for (bin, transport) in cases {
        let flags = [transport, &["--scratch", under_a_file]].concat();
        let out = sort(bin, &flags, &input, &dir.path("out.dat"));
        assert_eq!(out.status.code(), Some(2), "{bin} {transport:?}: {}", stderr(&out));
        let msg = stderr(&out);
        assert!(msg.contains("scratch directory") && msg.contains(under_a_file), "{msg}");
        assert!(!msg.contains("launching"), "no rank may start: {msg}");
    }
    assert!(dir.leftovers().is_empty(), "not even the output is created: {:?}", dir.leftovers());
}
