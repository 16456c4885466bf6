//! The randomization story (Figures 4/5/6): a worst-case input where
//! every PE's block `b` carries keys from the same narrow band, so
//! without randomized run formation nearly all data must move in the
//! all-to-all — and with it, almost none does.
//!
//! ```sh
//! cargo run --release --example worstcase_randomization
//! ```

use demsort::core::canonical::canonical_mergesort_to;
use demsort::core::fileio::{input_shard, OutputFile};
use demsort::core::job::run_in_process;
use demsort::prelude::*;
use demsort::types::fmtsize::fmt_bytes;
use demsort::types::wire::RankReport;

fn main() {
    let pes = 4;
    let machine = MachineConfig {
        pes,
        disks_per_pe: 4,
        block_bytes: 1 << 10,
        mem_bytes_per_pe: (1 << 10) * 256,
        cores_per_pe: 1,
    };
    let local_n = 4 * 256 * (machine.block_bytes / Element16::BYTES); // ~4 runs
    let band = machine.block_bytes / Element16::BYTES;
    let spec = InputSpec::Banded { block_elems: band };

    println!("worst-case banded input, {} per PE, {} PEs\n", fmt_bytes((local_n * 16) as u64), pes);
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>8}",
        "run formation", "a2a I/O", "a2a network", "a2a I/O/N", "subops"
    );
    let dir = std::env::temp_dir().join(format!("demsort-worstcase-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (input, output) = (dir.join("banded.dat"), dir.join("sorted.dat"));
    let recs = demsort::workloads::generate_all(spec, 3, pes, local_n);
    write_record_file(&input, &recs).expect("write input");
    let total = recs.len() as u64;
    for randomize in [false, true] {
        let algo = AlgoConfig { randomize, ..AlgoConfig::default() };
        let cfg = SortConfig::new(machine.clone(), algo).expect("valid config");
        // Every PE sorts its shard of the file into its part of the
        // output, and reports how its all-to-all went.
        let out = OutputFile { path: &output, records: total };
        let (report, per_pe, _) = run_in_process(&cfg, Element16::BYTES, |comm, storage| {
            let (rank, cores) = (comm.rank(), cfg.machine.cores_per_pe);
            let local = input_shard::<Element16>(&input, rank, pes, total)?;
            let st = storage.pe(rank);
            let o = canonical_mergesort_to::<Element16>(&comm, st, &cfg, local, cores, Some(out))?;
            let phases = o.phases.clone();
            Ok((RankReport { rank, elems: o.output.elems, runs: o.runs, phases, error: None }, o))
        })
        .expect("sort");
        let check = check_file::<Element16>(&output).expect("check");
        assert!(check.is_sort_of(Fingerprint::of_slice(&recs)), "output must be a valid sort");
        let io = report.phase_total(Phase::AllToAll, |s| s.io.bytes_total());
        let net = report.phase_total(Phase::AllToAll, |s| s.comm.bytes_sent);
        let ratio = io as f64 / report.total_bytes() as f64;
        println!(
            "{:<16} {:>14} {:>14} {:>10.4} {:>8}",
            if randomize { "randomized" } else { "deterministic" },
            fmt_bytes(io),
            fmt_bytes(net),
            ratio,
            per_pe[0].alltoall_subops,
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    println!(
        "\nrandomly shuffling the local input-block ids before grouping them into runs\n\
         (one line of preprocessing, Section IV) is what turns the worst case into the\n\
         average case: each run becomes a random sample, so its canonical slices already\n\
         sit on the right PEs and the redistribution has (almost) nothing to move."
    );
}
