//! `valsort` judges a file by its bytes: a sorted file of whole records
//! passes, a file that ends in a partial record fails and names the
//! trailing bytes, and a FILE that cannot be read is an error, not a
//! panic.

use demsort_types::{Record as _, Record100};
use demsort_workloads::gensort_records;
use std::path::PathBuf;
use std::process::{Command, Output};

const VALSORT: &str = env!("CARGO_BIN_EXE_valsort");

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-valsort-{}-{name}", std::process::id()))
}

fn valsort(path: &PathBuf) -> Output {
    Command::new(VALSORT).arg(path).output().expect("run valsort")
}

/// 1 000 gensort records, sorted and encoded.
fn sorted_bytes() -> Vec<u8> {
    let mut recs = gensort_records(3, 0, 1000);
    recs.sort_unstable();
    let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
    Record100::encode_slice(&recs, &mut bytes);
    bytes
}

#[test]
fn a_torn_file_fails_and_names_its_trailing_bytes() {
    let path = tmp_path("torn.dat");
    let bytes = sorted_bytes();
    std::fs::write(&path, &bytes).expect("write whole file");
    let whole = valsort(&path);
    let stdout = String::from_utf8_lossy(&whole.stdout);
    assert_eq!(whole.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("records:      1000") && stdout.contains("SUCCESS"), "{stdout}");

    // The same file cut 50 bytes into its last record.
    std::fs::write(&path, &bytes[..99_950]).expect("write torn file");
    let torn = valsort(&path);
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&torn.stdout);
    assert_eq!(torn.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("records:      999"), "{stdout}");
    assert!(stdout.contains("FAILURE - 50 trailing bytes"), "{stdout}");
    assert!(!stdout.contains("SUCCESS"), "{stdout}");
}

#[test]
fn an_unreadable_file_is_an_error_not_a_panic() {
    let missing = tmp_path("missing.dat");
    let dir = tmp_path("dir");
    std::fs::create_dir_all(&dir).expect("create dir");
    for (path, what) in [(&missing, "open"), (&dir, "read")] {
        let out = valsort(path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        let want = format!("valsort: {what} {}", path.display());
        assert!(stderr.starts_with(&want), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_dir(&dir);
}
