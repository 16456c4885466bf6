//! `demsort-worker` — one rank of a multi-process demsort cluster.
//!
//! ```text
//! demsort-worker --coordinator HOST:PORT
//! demsort-worker --hostfile FILE --rank R --input IN --output OUT [job flags]
//! ```
//!
//! In **coordinator mode** the worker dials `demsort-launch`'s
//! rendezvous port, reports its mesh listener, and receives its rank,
//! the cluster address table, and the job config over the wire.
//!
//! In **hostfile mode** (multi-host, no coordinator) the worker binds
//! the address at line `R` of the host file, meshes with the other
//! listed ranks, and builds the job config from the same job flags as
//! `demsort-launch` and `sortfile` (`TcpJobCli` — see `--help`), with
//! the cluster size taken from the host file. Every rank must be
//! started with identical flags.
//!
//! A worker whose sort fails exits non-zero after reporting a
//! structured failure to its coordinator (fallible collectives — no
//! `catch_unwind`).

use demsort_bench::procs::{cli_die, cli_parse, run_rank, run_worker, TcpJobCli};
use demsort_core::job::rank_tracer;
use demsort_net::tcp::parse_hostfile;
use std::net::TcpListener;

const BIN: &str = "demsort-worker";

fn main() {
    let mut cli = TcpJobCli::default();
    let mut coordinator: Option<String> = None;
    let mut hostfile: Option<String> = None;
    let mut rank: Option<usize> = None;
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if cli.try_flag(BIN, &a, &mut args) {
            continue;
        }
        let mut next = || args.next().unwrap_or_else(|| die(&format!("{a} VALUE")));
        match a.as_str() {
            "--coordinator" => coordinator = Some(next()),
            "--hostfile" => hostfile = Some(next()),
            "--rank" => rank = Some(cli_parse(BIN, &next(), "rank")),
            "--input" => input = Some(next()),
            "--output" => output = Some(next()),
            "--help" | "-h" => {
                println!(
                    "demsort-worker --coordinator HOST:PORT\n\
                     demsort-worker --hostfile FILE --rank R --input IN --output OUT [flags]\n  \
                     --hostfile FILE   one HOST:PORT per rank; its length is the cluster size\n  \
                     --rank R          this worker's line of the host file\n  \
                     --input IN        input file, as every host sees it\n  \
                     --output OUT      output file shared by all ranks\n{}",
                    TcpJobCli::FLAG_HELP
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let result = match (coordinator, hostfile) {
        (Some(coord), None) => run_worker(&coord),
        (None, Some(path)) => {
            let rank = rank.unwrap_or_else(|| die("--hostfile requires --rank"));
            let input = input.unwrap_or_else(|| die("--hostfile requires --input"));
            let output = output.unwrap_or_else(|| die("--hostfile requires --output"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("read {path}: {e}")));
            let addrs = parse_hostfile(&text).unwrap_or_else(|e| die(&e.to_string()));
            if rank >= addrs.len() {
                die(&format!("--rank {rank} out of range: {path} lists {} hosts", addrs.len()));
            }
            let listener = TcpListener::bind(addrs[rank])
                .unwrap_or_else(|e| die(&format!("bind {}: {e}", addrs[rank])));
            cli.ranks = addrs.len();
            let job = cli.job(&input, &output);
            // No coordinator to stream progress to in hostfile mode —
            // journals only.
            let tracer = rank_tracer(&job.trace_dir, rank).unwrap_or_else(|e| die(&e.to_string()));
            run_rank(rank, &addrs, listener, &job, tracer)
        }
        _ => die("exactly one of --coordinator or --hostfile is required (see --help)"),
    };

    match result {
        Ok(rep) => {
            eprintln!(
                "rank {}: {} records in this rank's output, {} runs",
                rep.rank, rep.elems, rep.runs
            );
        }
        Err(e) => {
            eprintln!("demsort-worker: {e}");
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    cli_die(BIN, msg)
}
