//! `sortfile` — externally sort a file of SortBenchmark records.
//!
//! ```text
//! sortfile [--transport local|tcp] [--algo canonical|striped]
//!          [--pes P] [--mem-mib M] [--block-kib K] [--disks D]
//!          [--seed S] [--comm-timeout MS] [--cores C]
//!          [--worker-bin PATH] INPUT OUTPUT
//! ```
//!
//! The file is split evenly over `P` PEs and sorted; OUTPUT is
//! globally sorted either way. `--mem-mib` is the memory each PE sorts
//! with, so a file larger than `P × M` takes the external path: several
//! runs, ≈ 4 N of block I/O. The file edges stream — each PE reads its
//! shard into pooled blocks and writes its part of OUTPUT from them in
//! `O(window · B)` memory, all PEs at once — but the "disks" behind the
//! sort are in-memory (`MemBackend`), so the process still holds the
//! data set once: this binary does not yet sort files larger than RAM.
//!
//! `--algo` selects the paper's algorithm: `canonical`
//! (CANONICALMERGESORT, Section IV — per-PE outputs concatenate into
//! OUTPUT) or `striped` (mergesort with global striping, Section III —
//! the globally striped blocks interleave into OUTPUT).
//!
//! `--transport` selects the cluster substrate:
//!
//! * `local` (default) — the in-process cluster: one thread per PE
//!   over the channel mesh.
//! * `tcp` — the multi-process cluster: one `demsort-worker` process
//!   per rank over the loopback TCP mesh (`--ranks` is an alias for
//!   `--pes` in this mode). Identical SPMD code path, identical
//!   counters, real process isolation. The job-building flags are the
//!   same as `demsort-launch`'s (shared via `demsort_bench::procs`).

use demsort_bench::procs::{launch_and_report, print_done, TcpJobCli};
use demsort_types::SortConfig;

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
            // The same job config the TCP path would ship, validated the
            // same way (bad --pool-blocks etc. die with the config error).
            let job = cli.job(input, output);
            let cfg =
                SortConfig::new(job.machine, job.algo).unwrap_or_else(|e| die(&e.to_string()));
            eprintln!(
                "{}-sorting {input} on {} in-process PEs ({} each)",
                cli.algorithm,
                cfg.machine.pes,
                demsort_types::fmtsize::fmt_bytes(cfg.machine.mem_bytes_per_pe as u64)
            );
            match demsort_core::sort_file(&cfg, cli.algorithm, input.as_ref(), output.as_ref()) {
                Ok(report) => print_done(&report),
                Err(e) => {
                    eprintln!("sortfile: {e}");
                    std::process::exit(1);
                }
            }
        }
        "tcp" => {
            let job = cli.job(input, output);
            let worker = cli.worker(BIN);
            launch_and_report(BIN, &job, &worker)
        }
        other => die(&format!("unknown transport {other} (expected local or tcp)")),
    }
}

fn die(msg: &str) -> ! {
    demsort_bench::procs::cli_die("sortfile", msg)
}
