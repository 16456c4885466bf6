//! `valsort` — validate a file of SortBenchmark records: sortedness,
//! record count, and an order-independent fingerprint (compare the
//! fingerprints of input and output to prove the sort is a
//! permutation).
//!
//! ```text
//! valsort FILE
//! ```
//!
//! Exit status 0 iff the file is whole records and sorted; 1 if it is
//! unsorted or ends in a partial record (the fingerprint of its whole
//! records is printed either way); 2 on a usage error or a FILE that
//! cannot be read.

use demsort_core::validate::check_file;
use demsort_types::{Error, Record as _, Record100};

fn main() {
    // No flags: `--help` and the like get the usage line.
    let Some(file) = std::env::args().nth(1).filter(|a| !a.starts_with('-')) else {
        eprintln!("usage: valsort FILE");
        std::process::exit(2);
    };
    let check = check_file::<Record100>(file.as_ref()).unwrap_or_else(|e| {
        // An I/O error names the file and whether it would not open or
        // not read.
        let msg = match e {
            Error::Io(m) => m,
            e => e.to_string(),
        };
        eprintln!("valsort: {msg}");
        std::process::exit(2);
    });
    let fp = check.fingerprint;
    println!("records:      {}", fp.count);
    println!("violations:   {}", check.violations);
    println!("fingerprint:  {:016x}:{:016x}", fp.count, fp.sum);
    if check.trailing > 0 {
        println!(
            "FAILURE - {} trailing bytes after {} records are not a whole {}-byte record",
            check.trailing,
            fp.count,
            Record100::BYTES
        );
        std::process::exit(1);
    }
    if check.violations == 0 {
        println!("SUCCESS - the file is sorted");
    } else {
        println!("FAILURE - {} out-of-order record pairs", check.violations);
        std::process::exit(1);
    }
}
