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

use demsort_core::validate::Fingerprint;
use demsort_types::{Key10, Record as _, Record100};
use std::io::Read;

/// Read into `buf` until it is full or the input ends: the bytes read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

fn main() {
    // No flags: `--help` and the like get the usage line.
    let Some(file) = std::env::args().nth(1).filter(|a| !a.starts_with('-')) else {
        eprintln!("usage: valsort FILE");
        std::process::exit(2);
    };
    let unreadable = |what: &str, e: std::io::Error| -> ! {
        eprintln!("valsort: {what} {file}: {e}");
        std::process::exit(2);
    };
    let f = std::fs::File::open(&file).unwrap_or_else(|e| unreadable("open", e));
    let mut r = std::io::BufReader::new(f);
    let mut buf = vec![0u8; Record100::BYTES];
    let mut fp = Fingerprint::default();
    let mut violations = 0u64;
    let mut last: Option<Key10> = None;
    let trailing = loop {
        match fill(&mut r, &mut buf).unwrap_or_else(|e| unreadable("read", e)) {
            n if n == buf.len() => {}
            n => break n,
        }
        let rec = Record100::decode(&buf);
        if let Some(prev) = &last {
            if *prev > rec.key {
                violations += 1;
            }
        }
        last = Some(rec.key);
        fp.add(&rec);
    };
    println!("records:      {}", fp.count);
    println!("violations:   {violations}");
    println!("fingerprint:  {:016x}:{:016x}", fp.count, fp.sum);
    if trailing > 0 {
        println!(
            "FAILURE - {trailing} trailing bytes after {} records are not a whole {}-byte record",
            fp.count,
            Record100::BYTES
        );
        std::process::exit(1);
    }
    if violations == 0 {
        println!("SUCCESS - the file is sorted");
    } else {
        println!("FAILURE - {violations} out-of-order record pairs");
        std::process::exit(1);
    }
}
