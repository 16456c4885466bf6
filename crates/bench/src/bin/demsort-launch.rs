//! `demsort-launch` — spawn a local multi-process demsort cluster and
//! sort a file (the suite's `mpirun`).
//!
//! ```text
//! demsort-launch [--ranks P] [--mem-mib M] [--block-kib K] [--disks D]
//!                [--seed S] [--comm-timeout MS] [--cores C]
//!                [--scratch DIR] [--worker-bin PATH] INPUT OUTPUT
//! ```
//!
//! Spawns `P` `demsort-worker` processes, rendezvouses them over a
//! loopback coordinator port, distributes the job, and aggregates the
//! per-rank reports. The workers run the identical SPMD code path as
//! `sortfile`'s in-process cluster — same algorithms, same counters —
//! so the two modes are directly comparable. Each worker keeps its
//! blocks in files under `--scratch DIR` (default `OUTPUT.scratch`,
//! `DIR/rank<K>/disk_<D>.bin`) and removes them when it is done; the
//! launcher sweeps what a killed worker leaves.
//!
//! On failure the exit code is non-zero and the error names the failed
//! rank(s): a rank that died without reporting (crash, SIGKILL) leads
//! the message, followed by surviving ranks' structured comm failures.

use demsort_bench::procs::{launch_and_report, TcpJobCli};

fn main() {
    const BIN: &str = "demsort-launch";
    let mut cli = TcpJobCli::default();
    let mut positional: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if cli.try_flag(BIN, &a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--help" | "-h" => {
                println!("demsort-launch [flags] INPUT OUTPUT\n{}", TcpJobCli::FLAG_HELP);
                return;
            }
            other => positional.push(other.to_string()),
        }
    }
    let [input, output] = positional.as_slice() else {
        die("usage: demsort-launch [flags] INPUT OUTPUT (see --help)");
    };

    let job = cli.checked_job(BIN, input, output);
    let worker = cli.worker(BIN);
    launch_and_report(BIN, &job, &worker)
}

fn die(msg: &str) -> ! {
    demsort_bench::procs::cli_die("demsort-launch", msg)
}
