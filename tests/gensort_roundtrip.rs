//! SortBenchmark round trip: gensort-style 100-byte records →
//! CANONICALMERGESORT → valsort-style check of the output file.
//!
//! The check must accept a genuine sort (sortedness + permutation
//! fingerprint) and reject the same output file with a single
//! deliberately corrupted record — both a payload-only corruption
//! (caught by the fingerprint) and a key corruption (caught by the
//! order check as well).

use demsort::prelude::*;
use demsort::types::SortAlgo;
use demsort::workloads::gensort_records;
use std::path::{Path, PathBuf};

const SEED: u64 = 2009; // the year DEMSort led the SortBenchmark
const P: usize = 4;
const N: usize = 4 * 300;

/// The input's records, and the path of its sorted output file (in a
/// directory of the test's own; `remove` it when done).
fn sorted_output(name: &str) -> (Vec<Record100>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("demsort-roundtrip-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let (input, output) = (dir.join("in.dat"), dir.join("out.dat"));
    let recs = gensort_records(SEED, 0, N);
    write_record_file(&input, &recs).expect("write input");
    let cfg = SortConfig::new(MachineConfig::tiny(P), AlgoConfig::default()).expect("valid");
    sort_file::<Record100>(&cfg, SortAlgo::Canonical, &input, &output).expect("sort");
    (recs, output)
}

fn remove(output: &Path) {
    let _ = std::fs::remove_dir_all(output.parent().expect("test dir"));
}

/// Run the bytes of record `index` of the file at `path` through
/// `corrupt`.
fn corrupt_record(path: &Path, index: usize, corrupt: impl FnOnce(&mut [u8])) {
    let mut bytes = std::fs::read(path).expect("read output");
    corrupt(&mut bytes[index * Record100::BYTES..][..Record100::BYTES]);
    std::fs::write(path, bytes).expect("rewrite output");
}

#[test]
fn roundtrip_accepts_genuine_sort() {
    let (recs, output) = sorted_output("genuine");
    let check = check_file::<Record100>(&output).expect("check");
    remove(&output);
    assert!(check.is_sort_of(Fingerprint::of_slice(&recs)), "rejected a correct sort: {check:?}");
    assert_eq!(check.fingerprint.count, N as u64);
}

#[test]
fn roundtrip_rejects_payload_corruption() {
    // Payload-only corruption keeps every key in order — only the
    // permutation fingerprint can catch it. Record 317 is in PE 1's
    // part of the output.
    let (recs, output) = sorted_output("payload");
    corrupt_record(&output, 317, |r| r[10 + 42] ^= 0x01);
    let check = check_file::<Record100>(&output).expect("check");
    remove(&output);
    let fp = Fingerprint::of_slice(&recs);
    assert!(!check.is_sort_of(fp), "accepted corrupted output: {check:?}");
    assert_eq!(check.violations, 0, "payload corruption must not disturb key order");
    assert_ne!(check.fingerprint, fp, "fingerprint must flag the flipped bit");
}

#[test]
fn roundtrip_rejects_key_corruption() {
    // Forcing a middle record's key to the maximum breaks sortedness
    // (and the fingerprint, independently). Record 700 is in PE 2's
    // part.
    let (recs, output) = sorted_output("key");
    corrupt_record(&output, 700, |r| r[..10].fill(0xFF));
    let check = check_file::<Record100>(&output).expect("check");
    remove(&output);
    let fp = Fingerprint::of_slice(&recs);
    assert!(!check.is_sort_of(fp), "accepted corrupted output: {check:?}");
    assert!(check.violations > 0, "max key mid-file must break sortedness");
    assert_ne!(check.fingerprint, fp);
}
