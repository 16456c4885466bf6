//! Hostfile rendezvous beyond the single-loopback path: three real
//! `demsort-worker --hostfile` processes bind **distinct loopback
//! addresses** (`127.0.0.1`, `127.0.0.2`, `127.0.0.3` — the multi-host
//! deployment shape, with the 127/8 block standing in for separate
//! NICs) and are started in **reverse rank order** with gaps, so high
//! ranks dial peers whose listeners do not exist yet and connections
//! arrive out of order. The mesh bootstrap's retry-dial plus rank
//! handshake must sort it out, and the job must finish valsort-clean.
//!
//! Hostfile mode has no launcher to ship a job config, so the worker
//! builds it from the job flags it shares with `demsort-launch`; the
//! second half pins that those flags reach the job.

use demsort_types::{Record as _, Record100};
use demsort_workloads::gensort_records;
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;

// Big enough that each rank's ~1.2 MiB shard exceeds its 1 MiB of
// memory: the sort is external (R > 1), so multiway selection's pushed
// windows and the all-to-all cross the multi-address mesh too.
const RECORDS: usize = 36_000;
const RANKS: usize = 3;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-hostfile-{}-{name}", std::process::id()))
}

/// Reserve an ephemeral port on `ip` by binding and immediately
/// releasing it (the worker re-binds moments later; loopback ephemeral
/// ports are effectively private to this test run).
fn reserve_port(ip: &str) -> Option<u16> {
    let l = TcpListener::bind((ip, 0)).ok()?;
    let port = l.local_addr().ok()?.port();
    drop(l);
    Some(port)
}

/// Sort a gensort file with three hostfile-mode workers started with
/// `job_flags`; `name` keeps concurrent tests' files apart. Returns
/// `false` if the platform cannot bind the addresses (nothing ran).
fn sort_over_hostfile(name: &str, job_flags: &[&str]) -> bool {
    // 127.0.0.2/3 are bindable on Linux (the whole 127/8 block is
    // loopback); on platforms where they are not, the multi-address
    // shape cannot be exercised — skip rather than fail.
    let ips = ["127.0.0.1", "127.0.0.2", "127.0.0.3"];
    let mut addrs = Vec::with_capacity(RANKS);
    for ip in ips {
        match reserve_port(ip) {
            Some(port) => addrs.push(format!("{ip}:{port}")),
            None => {
                eprintln!("skipping: cannot bind {ip} on this platform");
                return false;
            }
        }
    }

    let input = tmp_path(&format!("{name}-input.dat"));
    let output = tmp_path(&format!("{name}-output.dat"));
    let hostfile = tmp_path(&format!("{name}-hosts"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&input).expect("create input"));
    let mut buf = vec![0u8; Record100::BYTES];
    for rec in gensort_records(23, 0, RECORDS) {
        rec.encode(&mut buf);
        f.write_all(&buf).expect("write record");
    }
    f.flush().expect("flush");
    drop(f);
    std::fs::write(&hostfile, format!("# demsort hosts\n{}\n", addrs.join("\n")))
        .expect("write hostfile");
    // No pre-sizing here: hostfile mode has no launcher, so the
    // workers themselves create and size the shared output from the
    // job's record count before writing their disjoint ranges.

    // Start workers in REVERSE rank order with gaps: rank 2 dials
    // ranks 0 and 1 long before their listeners exist.
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_demsort-worker"));
    let mut children = Vec::with_capacity(RANKS);
    for rank in (0..RANKS).rev() {
        let child = std::process::Command::new(&worker)
            .args(["--hostfile", &hostfile.to_string_lossy()])
            .args(["--rank", &rank.to_string()])
            .args(["--input", &input.to_string_lossy()])
            .args(["--output", &output.to_string_lossy()])
            .args(job_flags)
            .spawn()
            .expect("spawn worker");
        children.push((rank, child));
        std::thread::sleep(std::time::Duration::from_millis(150));
    }
    for (rank, mut child) in children {
        let status = child.wait().expect("wait worker");
        assert!(status.success(), "rank {rank} exited with {status}");
    }

    // valsort: globally sorted permutation of the input.
    let out_bytes = std::fs::read(&output).expect("read output");
    assert_eq!(out_bytes.len(), RECORDS * Record100::BYTES);
    let mut recs = Vec::new();
    Record100::decode_slice(&out_bytes, &mut recs);
    assert!(recs.windows(2).all(|w| w[0].key <= w[1].key), "output must be globally sorted");
    let mut in_recs = Vec::new();
    Record100::decode_slice(&std::fs::read(&input).expect("read input"), &mut in_recs);
    let fp = |rs: &[Record100]| {
        rs.iter().fold(0u64, |acc, r| acc.wrapping_add(demsort_core::validate::hash_record(r)))
    };
    assert_eq!(fp(&recs), fp(&in_recs), "output must be a permutation of the input");

    for p in [&input, &output, &hostfile] {
        let _ = std::fs::remove_file(p);
    }
    true
}

#[test]
fn multi_address_hostfile_with_out_of_order_worker_starts() {
    sort_over_hostfile(
        "canonical",
        &["--mem-mib", "1", "--block-kib", "16", "--disks", "2", "--comm-timeout", "30000"],
    );
}

#[test]
fn hostfile_worker_takes_the_shared_job_flags() {
    // `--algo striped` reaches the job: every rank's journal carries
    // the striped merge loop's events.
    let trace = tmp_path("striped-trace");
    let trace_dir = trace.to_string_lossy().into_owned();
    let flags = ["--mem-mib", "1", "--block-kib", "16", "--disks", "2", "--algo", "striped"];
    let striped = [&flags[..], &["--trace", &trace_dir]].concat();
    if sort_over_hostfile("striped", &striped) {
        for rank in 0..RANKS {
            let journal = std::fs::read_to_string(trace.join(format!("rank{rank}.jsonl")))
                .expect("rank journal");
            assert!(journal.contains("\"ev\":\"merge_issued\""), "rank {rank}");
        }
        let _ = std::fs::remove_dir_all(&trace);
    }

    // `--replication` and `--algo` reach the job: replication on the
    // canonical sort of a one-rank cluster fails the job's validation
    // (exit 1), where a flag the worker does not know — `--pool-blocks`
    // among them, the pool is sized from `--mem-mib` — is a usage error
    // (exit 2).
    let port = reserve_port("127.0.0.1").expect("loopback port");
    let hostfile = tmp_path("flags-hosts");
    std::fs::write(&hostfile, format!("127.0.0.1:{port}\n")).expect("write hostfile");
    let worker = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_demsort-worker"))
            .args(["--hostfile", &hostfile.to_string_lossy(), "--rank", "0"])
            .args(["--input", "/nonexistent", "--output", "/nonexistent"])
            .args(flags)
            .args(extra)
            .output()
            .expect("run worker")
    };
    let rejected = worker(&["--replication", "1", "--algo", "canonical"]);
    assert_eq!(rejected.status.code(), Some(1), "{rejected:?}");
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("replication"), "{rejected:?}");
    for flag in ["--bogus", "--pool-blocks"] {
        let unknown = worker(&[flag, "8"]);
        assert_eq!(unknown.status.code(), Some(2), "{unknown:?}");
        assert!(String::from_utf8_lossy(&unknown.stderr).contains(flag), "{unknown:?}");
    }
    let _ = std::fs::remove_file(&hostfile);
}
