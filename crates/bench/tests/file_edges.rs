//! The shipping `sortfile` binary streams its file edges: sorting a
//! file must not cost a multiple of the file in memory. Before the
//! edges streamed, each PE held its shard as bytes and as records at
//! ingest and the whole output as records at the end — about 2.5× the
//! input at this size; the in-memory "disks" alone hold it once.
//!
//! Peak RSS comes from `wait4(2)`, declared by hand for 64-bit Linux.

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use demsort_types::{Record as _, Record100};
use demsort_workloads::gensort_records;
use std::io::Write;
use std::process::{Command, Stdio};

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

#[test]
fn sortfile_peak_rss_stays_near_the_input_size() {
    const RECORDS: usize = 200_000; // 20 MB
    let dir = std::env::temp_dir().join(format!("demsort-file-edges-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (input, output) = (dir.join("in.dat"), dir.join("out.dat"));
    // Generated in slices: a child's `ru_maxrss` starts from the RSS of
    // the process that forked it, so this process must stay small.
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&input).expect("create input"));
        let mut bytes = vec![0u8; 10_000 * Record100::BYTES];
        for first in (0..RECORDS).step_by(10_000) {
            Record100::encode_slice(&gensort_records(3, first as u64, 10_000), &mut bytes);
            f.write_all(&bytes).expect("write input");
        }
        f.flush().expect("flush input");
    }

    let child = Command::new(env!("CARGO_BIN_EXE_sortfile"))
        .args(["--pes", "2", "--cores", "1", "--mem-mib", "1"])
        .arg(&input)
        .arg(&output)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sortfile");
    let (status, ru) = reap_with_rusage(child);
    assert_eq!(status, 0, "sortfile failed");

    let input_bytes = RECORDS * Record100::BYTES;
    assert_eq!(std::fs::metadata(&output).expect("stat output").len(), input_bytes as u64);
    let peak = ru.maxrss_kb as usize * 1024;
    let limit = input_bytes + (32 << 20);
    assert!(peak < limit, "peak RSS {peak} B for a {input_bytes} B input (limit {limit} B)");
    let _ = std::fs::remove_dir_all(&dir);
}
