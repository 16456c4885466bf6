//! Output validation, valsort-style.
//!
//! A sort is correct iff its output is key-sorted and the multiset of
//! its records is a permutation of the input. [`check_file`] reads a
//! file of records once and finds both: the adjacent pairs out of key
//! order, and an order-independent [`Fingerprint`] (count + wrapping
//! sum of per-record hashes) to compare with the input's, which detects
//! loss, duplication and mutation with probability `1 − 2^-64`-ish.
//! Whatever a job's ranks do, their outputs concatenate into one file,
//! so one pass over that file checks the whole sort.

use demsort_types::{Error, Record, Result};
use std::io::{BufReader, Read};
use std::path::Path;

/// Order-independent record-stream fingerprint.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Records absorbed.
    pub count: u64,
    /// Wrapping sum of record hashes.
    pub sum: u64,
}

impl Fingerprint {
    /// Absorb one record.
    pub fn add<R: Record>(&mut self, rec: &R) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hash_record(rec));
    }

    /// Fingerprint of a record slice.
    pub fn of_slice<R: Record>(recs: &[R]) -> Self {
        let mut f = Self::default();
        for r in recs {
            f.add(r);
        }
        f
    }
}

/// Hash a record by its encoded bytes (stable across phases and PEs).
pub fn hash_record<R: Record>(rec: &R) -> u64 {
    let mut buf = [0u8; 128];
    debug_assert!(R::BYTES <= 128, "record larger than the hash buffer");
    rec.encode(&mut buf[..R::BYTES]);
    let mut h = 0x243F_6A88_85A3_08D3u64; // pi digits, arbitrary seed
    for chunk in buf[..R::BYTES].chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(b));
    }
    h
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What [`check_file`] found in a file of records.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FileCheck {
    /// Adjacent pairs of records whose keys are out of order.
    pub violations: u64,
    /// Bytes after the last whole record: a torn file.
    pub trailing: usize,
    /// Fingerprint of the whole records (`count` is how many).
    pub fingerprint: Fingerprint,
}

impl FileCheck {
    /// `true` iff the file is whole records, key-sorted, and a
    /// permutation of an input with fingerprint `input`.
    pub fn is_sort_of(&self, input: Fingerprint) -> bool {
        self.violations == 0 && self.trailing == 0 && self.fingerprint == input
    }
}

/// Check the file at `path` as records of `R`, streaming it. An error
/// names the file and whether it could not be opened or not be read.
pub fn check_file<R: Record>(path: &Path) -> Result<FileCheck> {
    let failed =
        |what: &str, e: std::io::Error| Error::io(format!("{what} {}: {e}", path.display()));
    let file = std::fs::File::open(path).map_err(|e| failed("open", e))?;
    let len = file.metadata().map_err(|e| failed("read", e))?.len();
    let (mut file, mut bytes) = (BufReader::with_capacity(64 << 10, file), vec![0u8; R::BYTES]);
    let (mut check, mut last) = (FileCheck::default(), None);
    for _ in 0..len / R::BYTES as u64 {
        file.read_exact(&mut bytes).map_err(|e| failed("read", e))?;
        let rec = R::decode(&bytes);
        check.violations += u64::from(last.is_some_and(|prev| prev > rec.key()));
        last = Some(rec.key());
        check.fingerprint.add(&rec);
    }
    // What follows the whole records: part of one, or what a writer
    // appended meanwhile.
    check.trailing = file.read_to_end(&mut Vec::new()).map_err(|e| failed("read", e))?;
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileio::write_record_file;
    use crate::job::sort_file;
    use crate::TestDir;
    use demsort_types::{AlgoConfig, Element16, MachineConfig, SortAlgo, SortConfig};
    use demsort_workloads::{generate_all, InputSpec};

    #[test]
    fn fingerprint_is_order_independent_and_sensitive() {
        let a: Vec<Element16> = (0..100).map(|i| Element16::new(i * 7, i)).collect();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(Fingerprint::of_slice(&a), Fingerprint::of_slice(&b));
        let mut c = a.clone();
        c[5].payload ^= 1;
        assert_ne!(Fingerprint::of_slice(&a), Fingerprint::of_slice(&c));
        assert_ne!(Fingerprint::of_slice(&a), Fingerprint::of_slice(&a[..99]));
    }

    #[test]
    fn checksum_detects_mutation_duplication_loss() {
        let a: Vec<Element16> = (0..50).map(|i| Element16::new(i, i)).collect();
        let base = Fingerprint::of_slice(&a);

        let mut changed = a.clone();
        changed[3].key ^= 1;
        assert_ne!(Fingerprint::of_slice(&changed), base, "mutation");

        let mut duped = a.clone();
        duped[10] = duped[11];
        assert_ne!(Fingerprint::of_slice(&duped), base, "duplication");

        assert_ne!(Fingerprint::of_slice(&a[..49]), base, "loss");
    }

    #[test]
    fn fingerprints_merge_like_concatenation() {
        // The parts' fingerprints add up to the whole's, so the parts
        // of an output may be fingerprinted apart.
        let a: Vec<Element16> = (0..30).map(|i| Element16::new(i, 0)).collect();
        let (head, tail) = (Fingerprint::of_slice(&a[..13]), Fingerprint::of_slice(&a[13..]));
        let merged =
            Fingerprint { count: head.count + tail.count, sum: head.sum.wrapping_add(tail.sum) };
        assert_eq!(Fingerprint::of_slice(&a), merged);
    }

    #[test]
    fn record100_checksum_sensitive_to_payload() {
        let a = demsort_workloads::gensort_record(0, 1);
        let mut b = a;
        b.payload[50] ^= 0xFF;
        assert_ne!(Fingerprint::of_slice(&[a]), Fingerprint::of_slice(&[b]));
    }

    /// What [`check_file`] finds in a file of `recs`.
    fn check(recs: &[Element16]) -> FileCheck {
        let dir = TestDir::new("validate");
        write_record_file(&dir.file("out.dat"), recs).expect("write");
        check_file::<Element16>(&dir.file("out.dat")).expect("check")
    }

    #[test]
    fn validates_a_correct_sort() {
        let (p, dir) = (3, TestDir::new("validate-sort"));
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let input = generate_all(InputSpec::Uniform, 5, p, 500);
        let (input_path, output) = (dir.file("in.dat"), dir.file("out.dat"));
        write_record_file(&input_path, &input).expect("write input");
        for algo in [SortAlgo::Canonical, SortAlgo::Striped] {
            sort_file::<Element16>(&cfg, algo, &input_path, &output).expect("sort");
            let checked = check_file::<Element16>(&output).expect("check");
            assert!(checked.is_sort_of(Fingerprint::of_slice(&input)), "{algo}: {checked:?}");
            assert_eq!(checked.fingerprint.count, 1500, "{algo}");
        }
    }

    #[test]
    fn detects_unsorted_output() {
        let recs = [Element16::new(5, 0), Element16::new(3, 1), Element16::new(9, 2)];
        let checked = check(&recs);
        assert_eq!((checked.violations, checked.trailing), (1, 0));
        assert_eq!(checked.fingerprint, Fingerprint::of_slice(&recs));
        assert!(!checked.is_sort_of(Fingerprint::of_slice(&recs)));
    }

    #[test]
    fn detects_misordered_boundaries() {
        // Two parts, each sorted — keys {10, 20} then {15} — are not a
        // sorted file.
        let recs = [Element16::new(10, 0), Element16::new(20, 1), Element16::new(15, 2)];
        assert_eq!(check(&recs).violations, 1);
        assert_eq!(check(&recs[..2]).violations, 0);
    }

    #[test]
    fn a_torn_or_unreadable_file_is_named() {
        let dir = TestDir::new("validate-torn");
        let path = dir.file("torn.dat");
        let recs = [Element16::new(1, 0), Element16::new(2, 1)];
        write_record_file(&path, &recs).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear");
        let checked = check_file::<Element16>(&path).expect("check");
        assert_eq!((checked.fingerprint.count, checked.trailing), (1, Element16::BYTES - 5));
        assert!(!checked.is_sort_of(Fingerprint::of_slice(&recs[..1])), "a torn file is no sort");

        for (path, what) in [(dir.file("missing.dat"), "open"), (dir.0.clone(), "read")] {
            let err = check_file::<Element16>(&path).expect_err("unreadable");
            let want = format!("{what} {}", path.display());
            assert!(matches!(&err, Error::Io(m) if m.starts_with(&want)), "{err}");
        }
    }
}
