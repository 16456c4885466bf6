//! Ties end to end: records whose keys share their 8-byte prefix, equal
//! keys that differ only in the payload, and exact duplicates, sorted
//! by the shipping `sortfile` for both algorithms, at one run and at
//! several, on one core and on two. The in-node sort orders 100-byte
//! records by 8-byte key tags and compares the records themselves only
//! where tags tie, so these are the inputs that reach that comparison;
//! gensort keys almost never do. `valsort` checks key order only, so
//! outputs are compared byte for byte with `sort_unstable` of the input
//! instead.
//!
//! Every exchange splits in record order (`distselect`), so the striped
//! sort's output and a sort of one run are the records' order exactly.
//! Canonical's final split (`extselect`) ships keys, not records, and
//! breaks ties of equal keys by run: with several runs on several PEs
//! the test pins what that promises — keys in order, the input's
//! records, each rank's part in record order, the same bytes on one
//! core and on two.

use demsort_types::{Key10, Record as _, Record100};
use std::path::{Path, PathBuf};
use std::process::Command;

/// 50 000 records: 5 MB, so one PE forms one run at `--mem-mib 8` and
/// five at `--mem-mib 1`, two PEs one run and three.
const RECORDS: usize = 50_000;

/// A directory of one test's own, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("demsort-tie-order-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        Self(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Tie-heavy records: four 8-byte prefixes, keys that differ in bytes
/// 8–9 only among four values, payloads from eight, so about one record
/// in a hundred has an exact duplicate and most keys repeat.
fn tie_heavy_records(n: usize) -> Vec<Record100> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift64*: deterministic, no dependency.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    const PREFIXES: [u64; 4] = [0, 0x0101_0101_0101_0101, 0x7FFF_FFFF_FFFF_FFF0, u64::MAX];
    (0..n)
        .map(|_| {
            let r = next();
            let mut key = [0u8; 10];
            key[..8].copy_from_slice(&PREFIXES[(r & 3) as usize].to_be_bytes());
            key[9] = (r >> 2 & 3) as u8;
            let mut payload = [b'.'; 90];
            payload[0] = b'a' + (r >> 4 & 7) as u8;
            Record100::new(Key10(key), payload)
        })
        .collect()
}

fn encode(recs: &[Record100]) -> Vec<u8> {
    let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
    Record100::encode_slice(recs, &mut bytes);
    bytes
}

/// Sort `dir/in.dat` into `dir/out.dat` with `sortfile --transport local`
/// and `args`; returns the output's bytes and the runs its `done:` line
/// counts.
fn sortfile(dir: &Path, args: &[&str]) -> (Vec<u8>, usize) {
    let out = dir.join("out.dat");
    let run = Command::new(env!("CARGO_BIN_EXE_sortfile"))
        .args(["--transport", "local", "--disks", "2", "--block-kib", "4"])
        .args(args)
        .arg(dir.join("in.dat"))
        .arg(&out)
        .output()
        .expect("spawn sortfile");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "sortfile {args:?}: {}\n{stderr}", run.status);
    // done: N records on P ranks, R runs, …
    let runs = stderr
        .lines()
        .find_map(|l| l.strip_prefix("done: ")?.split(", ").nth(1)?.strip_suffix(" runs"))
        .and_then(|r| r.parse().ok())
        .unwrap_or_else(|| panic!("no run count in {stderr}"));
    (std::fs::read(&out).expect("read output"), runs)
}

/// A tie-heavy input written to `dir/in.dat`, and its records sorted.
fn tie_heavy_input(dir: &Path) -> Vec<Record100> {
    let mut recs = tie_heavy_records(RECORDS);
    std::fs::write(dir.join("in.dat"), encode(&recs)).expect("write input");
    recs.sort_unstable();
    recs
}

fn decode(bytes: &[u8]) -> Vec<Record100> {
    let mut recs = Vec::new();
    Record100::decode_slice(bytes, &mut recs);
    recs
}

#[test]
fn one_pe_outputs_equal_sort_unstable_for_both_algorithms() {
    let dir = TestDir::new("one-pe");
    let expected = encode(&tie_heavy_input(&dir.0));
    for algo in ["canonical", "striped"] {
        // One run (the exchange writes the output), then five.
        for (mem_mib, runs) in [("8", 1), ("1", 5)] {
            for cores in ["1", "2"] {
                let args = ["--pes", "1", "--algo", algo, "--mem-mib", mem_mib, "--cores", cores];
                let (got, got_runs) = sortfile(&dir.0, &args);
                assert_eq!(got_runs, runs, "{args:?}: runs");
                assert_same_bytes(&got, &expected, &args);
            }
        }
    }
}

#[test]
fn two_pe_outputs_equal_sort_unstable_where_the_splits_compare_records() {
    let dir = TestDir::new("two-pe");
    let sorted = tie_heavy_input(&dir.0);
    let expected = encode(&sorted);
    for algo in ["canonical", "striped"] {
        for (mem_mib, runs) in [("4", 1), ("1", 3)] {
            let mut one_core = None;
            for cores in ["1", "2"] {
                let args = ["--pes", "2", "--algo", algo, "--mem-mib", mem_mib, "--cores", cores];
                let (bytes, got_runs) = sortfile(&dir.0, &args);
                assert_eq!(got_runs, runs, "{args:?}: runs");
                if algo == "striped" || runs == 1 {
                    assert_same_bytes(&bytes, &expected, &args);
                } else {
                    let got = decode(&bytes);
                    assert!(got.windows(2).all(|w| w[0].key <= w[1].key), "{args:?}: key order");
                    let mut permuted = got.clone();
                    permuted.sort_unstable();
                    assert!(permuted == sorted, "{args:?}: not the input's records");
                    // Rank r writes global ranks ⌊r·N/2⌋ .. ⌊(r+1)·N/2⌋,
                    // merged from its fragments record by record.
                    for part in got.chunks(RECORDS / 2) {
                        assert!(part.windows(2).all(|w| w[0] <= w[1]), "{args:?}: part order");
                    }
                }
                match &one_core {
                    None => one_core = Some(bytes),
                    Some(first) => assert!(*first == bytes, "{args:?}: bytes differ from 1 core"),
                }
            }
        }
    }
}

fn assert_same_bytes(got: &[u8], expected: &[u8], args: &[&str]) {
    assert_eq!(got.len(), expected.len(), "{args:?}: output size");
    let first_diff = got.iter().zip(expected).position(|(a, b)| a != b);
    assert_eq!(first_diff, None, "{args:?}: first differing byte");
}
