//! `repro` — regenerate every figure and table of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--smoke] [--pes P1,P2,...] [--out DIR]
//!
//! EXPERIMENT: fig2 | fig3 | fig4 | fig5 | fig6 | sortbench |
//!             ablate-selection | ablate-overlap |
//!             ablate-runlength | ablate-prefetch |
//!             striped-vs-canonical | baseline-skew | all (default)
//!
//! --smoke     run at the fast smoke scale (CI-sized, same shapes)
//! --pes       override the cluster-size sweep
//! --out DIR   CSV output directory (default: results/)
//! ```

use demsort_bench::experiments::{self, PAPER_PES};
use demsort_bench::table::Table;
use demsort_bench::ExpScale;
use std::path::PathBuf;

const USAGE: &str = "repro [EXPERIMENT] [--smoke] [--pes P1,P2,...] [--out DIR]

EXPERIMENT: fig2 | fig3 | fig4 | fig5 | fig6 | sortbench |
            ablate-selection | ablate-overlap | ablate-runlength |
            ablate-prefetch | striped-vs-canonical | baseline-skew |
            all (default)

--smoke      run at the fast smoke scale (CI-sized, same shapes)
--pes        override the cluster-size sweep
--out DIR    CSV output directory (default: results/)";

struct Args {
    experiment: String,
    scale: ExpScale,
    pes_list: Vec<usize>,
    fig3_pes: usize,
    single_pes: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut experiment = "all".to_string();
    let mut scale = ExpScale::default();
    let mut pes_list: Vec<usize> = PAPER_PES.to_vec();
    let mut pes_overridden = false;
    let mut out = PathBuf::from("results");
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                smoke = true;
                scale = ExpScale::smoke();
            }
            "--pes" => {
                let v = args.next().expect("--pes needs a comma-separated list");
                pes_list = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("--pes values must be integers"))
                    .collect();
                pes_overridden = true;
            }
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    if smoke && !pes_overridden {
        pes_list = vec![1, 2, 4, 8];
    }
    let fig3_pes = if smoke { 8 } else { 32 };
    let single_pes = if smoke { 4 } else { 16 };
    Args { experiment, scale, pes_list, fig3_pes, single_pes, out }
}

fn main() {
    let args = parse_args();
    let mut emitted: Vec<(String, Table)> = Vec::new();
    let mut emit = |name: &str, t: Table| {
        t.print();
        emitted.push((name.to_string(), t));
    };

    let want = |n: &str| args.experiment == "all" || args.experiment == n;
    if want("fig2") {
        emit("fig2", experiments::fig2(&args.scale, &args.pes_list));
    }
    if want("fig3") {
        emit("fig3", experiments::fig3(&args.scale, args.fig3_pes));
    }
    if want("fig4") {
        emit("fig4", experiments::fig4(&args.scale, &args.pes_list));
    }
    if want("fig5") {
        emit("fig5", experiments::fig5(&args.scale, &args.pes_list));
    }
    if want("fig6") {
        emit("fig6", experiments::fig6(&args.scale, &args.pes_list));
    }
    if want("sortbench") {
        emit("sortbench", experiments::sortbench(&args.scale, args.single_pes));
    }
    if want("ablate-selection") {
        emit("ablate_selection", experiments::ablate_selection(&args.scale, args.single_pes));
    }
    if want("ablate-overlap") {
        emit("ablate_overlap", experiments::ablate_overlap(&args.scale, args.single_pes));
    }
    if want("ablate-runlength") {
        emit("ablate_runlength", experiments::ablate_runlength(&args.scale));
    }
    if want("ablate-prefetch") {
        emit("ablate_prefetch", experiments::ablate_prefetch(&args.scale));
    }
    if want("striped-vs-canonical") {
        emit(
            "striped_vs_canonical",
            experiments::striped_vs_canonical(&args.scale, &args.pes_list),
        );
    }
    if want("baseline-skew") {
        emit("baseline_skew", experiments::baseline_skew(&args.scale, args.single_pes));
    }
    if emitted.is_empty() {
        eprintln!("unknown experiment `{}`; try --help", args.experiment);
        std::process::exit(2);
    }
    for (name, t) in &emitted {
        if let Err(e) = t.write_csv(&args.out, name) {
            eprintln!("warning: could not write {}/{}.csv: {e}", args.out.display(), name);
        }
    }
    eprintln!("CSV written to {}/", args.out.display());
}
