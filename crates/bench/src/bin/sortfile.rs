//! `sortfile` — externally sort a file of SortBenchmark records.
//!
//! ```text
//! sortfile [--transport local|tcp] [--algo canonical|striped]
//!          [--pes P] [--mem-mib M] [--block-kib K] [--disks D]
//!          [--seed S] [--comm-timeout MS] [--cores C] [--trace DIR]
//!          [--scratch DIR] [--worker-bin PATH] INPUT OUTPUT
//! ```
//!
//! The file is split evenly over `P` PEs and sorted; OUTPUT is
//! globally sorted either way. `--mem-mib` is the memory each PE sorts
//! with, so a file larger than `P × M` takes the external path: several
//! runs, ≈ 4 N of block I/O. That I/O is real, and it is all of the
//! file I/O: run formation reads each PE's shard where it lies in
//! INPUT, the last pass writes each PE's part where it belongs in
//! OUTPUT (which may be INPUT), and the disks the runs live on between
//! them are files, `DIR/rank<K>/disk_<D>.bin` under `--scratch DIR`
//! (default `OUTPUT.scratch`; about the input's size, removed when the
//! sort ends), so the process's memory follows `--mem-mib`, not the
//! file.
//!
//! `--algo` selects the paper's algorithm: `canonical`
//! (CANONICALMERGESORT, Section IV — per-PE outputs concatenate into
//! OUTPUT) or `striped` (mergesort with global striping, Section III —
//! runs striped over all disks, each merge batch's per-rank parts
//! written one after the other into OUTPUT).
//!
//! `--transport` selects the cluster substrate. Both build the same
//! `JobConfig` from the same flags (`demsort_bench::procs::TcpJobCli`,
//! shared with `demsort-launch` and `demsort-worker`) and run the same
//! rank program (`demsort_core::job::run_rank_job`) on every rank, so
//! output bytes, counters and `--trace DIR` journals agree:
//!
//! * `local` (default) — the in-process cluster: one thread per PE
//!   over the channel mesh.
//! * `tcp` — the multi-process cluster: one `demsort-worker` process
//!   per rank over the loopback TCP mesh (`--ranks` is an alias for
//!   `--pes`), with real process isolation.

use demsort_bench::procs::{launch_and_report, print_done, TcpJobCli};
use demsort_core::job::run_job_local;

fn main() {
    const BIN: &str = "sortfile";
    let mut cli = TcpJobCli::default();
    let mut transport = "local".to_string();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if cli.try_flag(BIN, &a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--transport" => {
                transport = args.next().unwrap_or_else(|| die("--transport local|tcp"))
            }
            "--help" | "-h" => {
                println!(
                    "sortfile [--transport local|tcp] [flags] INPUT OUTPUT\n{}",
                    TcpJobCli::FLAG_HELP
                );
                return;
            }
            other => positional.push(other.to_string()),
        }
    }
    let [input, output] = positional.as_slice() else {
        die("usage: sortfile [--transport local|tcp] [flags] INPUT OUTPUT (see --help)");
    };

    match transport.as_str() {
        "local" => {
            let job = cli.checked_job(BIN, input, output);
            eprintln!(
                "{}-sorting {input} on {} in-process PEs ({} each)",
                job.algorithm,
                job.machine.pes,
                demsort_types::fmtsize::fmt_bytes(job.machine.mem_bytes_per_pe as u64)
            );
            match run_job_local(&job) {
                Ok(report) => print_done(&report),
                Err(e) => {
                    eprintln!("sortfile: {e}");
                    std::process::exit(1);
                }
            }
        }
        "tcp" => {
            let job = cli.checked_job(BIN, input, output);
            let worker = cli.worker(BIN);
            launch_and_report(BIN, &job, &worker)
        }
        other => die(&format!("unknown transport {other} (expected local or tcp)")),
    }
}

fn die(msg: &str) -> ! {
    demsort_bench::procs::cli_die("sortfile", msg)
}
