//! Quickstart: sort data on a simulated cluster and walk through the
//! four phases of CANONICALMERGESORT (Figure 1 of the paper).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use demsort::core::canonical::canonical_mergesort_to;
use demsort::core::fileio::{input_shard, OutputFile};
use demsort::core::job::run_in_process;
use demsort::prelude::*;
use demsort::types::fmtsize::{fmt_bytes, fmt_secs};
use demsort::types::wire::RankReport;

fn main() {
    // A small simulated cluster: 8 PEs, 4 disks each, 4 KiB blocks,
    // 512 KiB of "RAM" per PE — every ratio of a real deployment, at
    // demo scale.
    let machine = MachineConfig {
        pes: 8,
        disks_per_pe: 4,
        block_bytes: 4 << 10,
        mem_bytes_per_pe: (4 << 10) * 128,
        cores_per_pe: 2,
    };
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid config");
    let dir = std::env::temp_dir().join(format!("demsort-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // Each PE contributes 200k uniformly random 16-byte elements
    // (≈ 3 MiB), several times its memory — a genuinely external sort.
    // They go into one input file, PE after PE.
    let local_n = 200_000usize;
    println!(
        "sorting {} across {} PEs ({} per PE, memory {} per PE)...\n",
        fmt_bytes((cfg.machine.pes * local_n * Element16::BYTES) as u64),
        cfg.machine.pes,
        fmt_bytes((local_n * Element16::BYTES) as u64),
        fmt_bytes(cfg.machine.mem_bytes_per_pe as u64),
    );
    let (input, output) = (dir.join("input.dat"), dir.join("sorted.dat"));
    let recs = demsort::workloads::generate_all(InputSpec::Uniform, 7, cfg.machine.pes, local_n);
    write_record_file(&input, &recs).expect("write input");

    // Every PE reads its shard of the input where it lies, sorts with
    // the cluster, and writes its part of the output where it belongs.
    let total = recs.len() as u64;
    let out = OutputFile { path: &output, records: total };
    let (report, per_pe, _) = run_in_process(&cfg, Element16::BYTES, |comm, storage| {
        let (rank, p, cores) = (comm.rank(), comm.size(), cfg.machine.cores_per_pe);
        let local = input_shard::<Element16>(&input, rank, p, total)?;
        let st = storage.pe(rank);
        let o = canonical_mergesort_to::<Element16>(&comm, st, &cfg, local, cores, Some(out))?;
        let phases = o.phases.clone();
        Ok((RankReport { rank, elems: o.output.elems, runs: o.runs, phases, error: None }, o))
    })
    .expect("sort");

    // Figure 1's stages, as they actually ran:
    let o = &per_pe[0];
    println!("phase 1  run formation: {} global runs, each sorted across all PEs", o.runs);
    let (last, sel) = (per_pe.len() - 1, &per_pe[per_pe.len() - 1].selection);
    println!(
        "phase 2a multiway selection: exact rank boundaries over sample windows, {} records for PE {last} ({} own blocks read, {} B pushed)",
        sel.window_records, sel.blocks_read, sel.bytes_pushed,
    );
    println!(
        "phase 2b external all-to-all: {} suboperation(s), data received from {} PEs",
        o.alltoall_subops, o.sources_seen,
    );
    println!("phase 3  final merge: {}-way loser-tree merge into the canonical output\n", o.runs);

    // Per-phase measured traffic.
    println!("measured volumes (all PEs):");
    for phase in Phase::ALL {
        let io = report.phase_total(phase, |s| s.io.bytes_total());
        let net = report.phase_total(phase, |s| s.comm.bytes_sent);
        println!(
            "  {:<20} I/O {:>12}   network {:>12}",
            phase.name(),
            fmt_bytes(io),
            fmt_bytes(net)
        );
    }
    println!(
        "\ntotal I/O = {:.2} N (two passes ≈ 4 N), communication = {:.2} N\n",
        report.io_volume_over_n(),
        report.comm_volume_over_n(),
    );

    // Validate the output file: sorted across the PEs' parts, and a
    // permutation of the input.
    let check = check_file::<Element16>(&output).expect("validation");
    assert!(check.is_sort_of(Fingerprint::of_slice(&recs)), "output must be a valid sort");
    println!("validation: sorted ✓  boundaries ✓  permutation ✓");

    // The same sort in one call, on SortBenchmark records: `sort_file`
    // runs every PE's shard to its part of the output the same way
    // (what `sortfile` runs).
    let recs = demsort::workloads::gensort_records(7, 0, 50_000);
    write_record_file(&input, &recs).expect("write input");
    let report_file =
        sort_file::<Record100>(&cfg, demsort::types::SortAlgo::Canonical, &input, &output)
            .expect("sort_file");
    let check = check_file::<Record100>(&output).expect("validation");
    assert!(check.is_sort_of(Fingerprint::of_slice(&recs)));
    println!(
        "\nsort_file: {} in {} runs, I/O {:.2} N, file sorted ✓",
        fmt_bytes(check.fingerprint.count * Record100::BYTES as u64),
        report_file.runs,
        report_file.io_volume_over_n(),
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");

    // What this run would cost on the paper's 200-node cluster.
    let model = CostModel::paper();
    println!(
        "\nmodeled on the paper's hardware (no scaling): {}",
        fmt_secs((model.total_wall_s(&report) * 1e9) as u64)
    );
}
