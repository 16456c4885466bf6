//! Quickstart: sort data on a simulated cluster and walk through the
//! four phases of CANONICALMERGESORT (Figure 1 of the paper).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use demsort::prelude::*;
use demsort::types::fmtsize::{fmt_bytes, fmt_secs};

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

    // Each PE contributes 200k uniformly random 16-byte elements
    // (≈ 3 MiB), several times its memory — a genuinely external sort.
    let local_n = 200_000usize;
    println!(
        "sorting {} across {} PEs ({} per PE, memory {} per PE)...\n",
        fmt_bytes((cfg.machine.pes * local_n * Element16::BYTES) as u64),
        cfg.machine.pes,
        fmt_bytes((local_n * Element16::BYTES) as u64),
        fmt_bytes(cfg.machine.mem_bytes_per_pe as u64),
    );
    let outcome = demsort::core::canonical::sort_cluster::<Element16, _>(&cfg, |pe, p| {
        demsort::workloads::generate_pe_input(InputSpec::Uniform, 7, pe, p, local_n)
    })
    .expect("sort");

    // Figure 1's stages, as they actually ran:
    let o = &outcome.per_pe[0];
    println!("phase 1  run formation: {} global runs, each sorted across all PEs", o.runs);
    println!(
        "phase 2a multiway selection: exact rank boundaries, {} probes on PE 0 ({} block fetches, {} cache hits)",
        o.selection.probes(),
        o.selection.blocks_local + o.selection.blocks_remote,
        o.selection.cache_hits,
    );
    println!(
        "phase 2b external all-to-all: {} suboperation(s), data received from {} PEs",
        o.alltoall_subops, o.sources_seen,
    );
    println!("phase 3  final merge: {}-way loser-tree merge into the canonical output\n", o.runs);

    // Per-phase measured traffic.
    println!("measured volumes (all PEs):");
    for phase in Phase::ALL {
        let io = outcome.report.phase_total(phase, |s| s.io.bytes_total());
        let net = outcome.report.phase_total(phase, |s| s.comm.bytes_sent);
        println!(
            "  {:<20} I/O {:>12}   network {:>12}",
            phase.name(),
            fmt_bytes(io),
            fmt_bytes(net)
        );
    }
    println!(
        "\ntotal I/O = {:.2} N (two passes ≈ 4 N), communication = {:.2} N\n",
        outcome.report.io_volume_over_n(),
        outcome.report.comm_volume_over_n(),
    );

    // Validate collectively: sorted locally, ordered across PEs, and a
    // permutation of the input.
    let input_fp = {
        let mut f = Fingerprint::default();
        for pe in 0..cfg.machine.pes {
            for r in demsort::workloads::generate_pe_input(
                InputSpec::Uniform,
                7,
                pe,
                cfg.machine.pes,
                local_n,
            ) {
                f.add(&r);
            }
        }
        f
    };
    let storage = &outcome.storage;
    let outputs: Vec<_> = outcome.per_pe.iter().map(|o| o.output.clone()).collect();
    let outputs = &outputs;
    let reports = demsort::net::run_cluster(cfg.machine.pes, move |c| {
        validate_output::<Element16>(&c, storage.pe(c.rank()), &outputs[c.rank()])
            .expect("validation")
    });
    assert!(reports[0].is_valid_sort_of(input_fp), "output must be a valid sort");
    println!("validation: sorted ✓  boundaries ✓  permutation ✓");

    // The same sort, file to file: `sort_file` streams each PE's shard
    // of a SortBenchmark file onto its disks, sorts, and streams the
    // output file from all PEs at once (what `sortfile` runs).
    let dir = std::env::temp_dir().join(format!("demsort-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (input, output) = (dir.join("input.dat"), dir.join("sorted.dat"));
    let recs = demsort::workloads::gensort_records(7, 0, 50_000);
    let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
    Record100::encode_slice(&recs, &mut bytes);
    std::fs::write(&input, &bytes).expect("write input");
    let report = demsort::sort_file(&cfg, demsort::types::SortAlgo::Canonical, &input, &output)
        .expect("sort_file");
    let sorted = std::fs::read(&output).expect("read output");
    assert!(sorted.chunks(Record100::BYTES).is_sorted_by_key(|r| &r[..10]));
    println!(
        "\nsort_file: {} in {} runs, I/O {:.2} N, file sorted ✓",
        fmt_bytes(sorted.len() as u64),
        report.runs,
        report.io_volume_over_n(),
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");

    // What this run would cost on the paper's 200-node cluster.
    let model = CostModel::paper();
    println!(
        "\nmodeled on the paper's hardware (no scaling): {}",
        fmt_secs((model.total_wall_s(&outcome.report) * 1e9) as u64)
    );
}
