//! Differential test of the file-to-file sort against the obvious
//! oracle: `demsort::sort_file`, with either algorithm, must leave the
//! bytes that `sort_unstable` on the decoded input leaves.
//!
//! The shapes are the ones that stress where records change hands
//! between the exchange merge and the run writer: three PEs (pieces
//! from both sides of the one a PE keeps), an input that is not whole
//! blocks (a partial tail block in the last group, partial tails in
//! every run slice), one run (no merge phases; its exchange writes the
//! output) and
//! seven (the write-behind window carried from run to run), one core
//! (the streaming merge) and two (the merge arena).

use demsort::prelude::*;
use demsort::types::SortAlgo;
use demsort::workloads::gensort_records;
use std::path::PathBuf;

const P: usize = 3;

/// 1 KiB blocks hold 10 records; 16 of them are a PE's memory, so a
/// global run is 480 records.
fn config(cores: usize) -> SortConfig {
    let machine = MachineConfig {
        pes: P,
        disks_per_pe: 2,
        block_bytes: 1 << 10,
        mem_bytes_per_pe: 16 << 10,
        cores_per_pe: cores,
    };
    SortConfig::new(machine, AlgoConfig::default()).expect("valid config")
}

/// Sort `shape(n)` for one run's worth and seven runs' worth of
/// records, with both algorithms on one and two cores, and hand every
/// output to `check` beside the input it came from.
fn for_every_sort(
    name: &str,
    shape: impl Fn(usize) -> Vec<Record100>,
    check: impl Fn(&[Record100], &[Record100], &str),
) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("demsort-oracle-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let (input, output) = (dir.join("in.dat"), dir.join("out.dat"));
    for (n, runs) in [(401, 1), (3001, 7)] {
        let recs = shape(n);
        write_record_file(&input, &recs).expect("write input");
        for algo in [SortAlgo::Canonical, SortAlgo::Striped] {
            for cores in [1, 2] {
                let what = format!("{name}: {algo}, N={n}, cores={cores}");
                let report = sort_file::<Record100>(&config(cores), algo, &input, &output)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!((report.elements, report.runs), (n as u64, runs), "{what}");
                check(&recs, &read_record_file(&output).expect("read output"), &what);
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove test dir");
}

/// The output is, byte for byte, the input sorted.
fn same_bytes_as_sort_unstable(input: &[Record100], output: &[Record100], what: &str) {
    let mut sorted = input.to_vec();
    sorted.sort_unstable();
    assert!(output == sorted, "{what}: output differs from sort_unstable");
}

#[test]
fn uniform_keys() {
    for_every_sort("uniform", |n| gensort_records(7, 0, n), same_bytes_as_sort_unstable);
}

#[test]
fn presorted_keys() {
    let shape = |n| {
        let mut recs = gensort_records(8, 0, n);
        recs.sort_unstable();
        recs
    };
    for_every_sort("presorted", shape, same_bytes_as_sort_unstable);
}

#[test]
fn reversed_keys() {
    let shape = |n| {
        let mut recs = gensort_records(9, 0, n);
        recs.sort_unstable_by(|a, b| b.cmp(a));
        recs
    };
    for_every_sort("reversed", shape, same_bytes_as_sort_unstable);
}

#[test]
fn all_keys_equal() {
    // One key, every payload different. Among equal keys the sorters
    // order by where a record was — (key, run, PE, position), which the
    // exact splitters cut inside of — not by payload, so the oracle is
    // the input as a multiset: nothing lost, nothing sent twice.
    let shape = |n| {
        let mut recs = gensort_records(10, 0, n);
        for r in &mut recs {
            r.key = Key10(*b"same key!!");
        }
        recs
    };
    for_every_sort("all-equal", shape, |input, output, what| {
        let mut got = output.to_vec();
        got.sort_unstable();
        same_bytes_as_sort_unstable(input, &got, what);
    });
}
