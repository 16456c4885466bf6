//! SortBenchmark-style run (Section VI): 100-byte records with 10-byte
//! keys, generated gensort-style, sorted with CANONICALMERGESORT and
//! validated valsort-style; reports the modeled GraySort rate on the
//! paper's cluster.
//!
//! ```sh
//! cargo run --release --example sortbenchmark [PES] [MIB_PER_PE]
//! ```

use demsort::prelude::*;
use demsort::types::fmtsize::fmt_bytes;
use demsort::types::SortAlgo;

fn main() {
    let mut args = std::env::args().skip(1);
    let pes: usize = args.next().map(|a| a.parse().expect("PES")).unwrap_or(8);
    let mib_per_pe: usize = args.next().map(|a| a.parse().expect("MIB_PER_PE")).unwrap_or(8);

    // Machine shaped like the paper's nodes at 1/8192 volume: 1 KiB
    // blocks standing for 8 MiB, 2 MiB memory standing for 16 GiB.
    let machine = MachineConfig {
        pes,
        disks_per_pe: 4,
        block_bytes: 1 << 10,
        mem_bytes_per_pe: (1 << 10) * 2048,
        cores_per_pe: 1,
    };
    let scale = (8u64 << 20) as f64 / machine.block_bytes as f64;
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid config");

    let local_n = mib_per_pe << 20;
    let local_records = local_n / Record100::BYTES;
    println!(
        "GraySort-style run: {} of 100-byte records on {pes} simulated nodes",
        fmt_bytes((pes * local_records * Record100::BYTES) as u64),
    );

    let seed = 0xC0FF_EE00;
    let dir = std::env::temp_dir().join(format!("demsort-sortbenchmark-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (input, output) = (dir.join("input.dat"), dir.join("output.dat"));
    let recs = demsort::workloads::gensort_records(seed, 0, pes * local_records);
    write_record_file(&input, &recs).expect("write input");
    let report = sort_file::<Record100>(&cfg, SortAlgo::Canonical, &input, &output).expect("sort");

    // valsort: stream-validate the output and compare fingerprints.
    let check = check_file::<Record100>(&output).expect("valsort");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(check.is_sort_of(Fingerprint::of_slice(&recs)), "valsort failed");
    println!("valsort: OK ({} records, {} runs)", check.fingerprint.count, report.runs);

    // Modeled rate on the paper's hardware at paper volume.
    let model = CostModel::paper_scaled(scale);
    let wall = model.total_wall_s(&report);
    let gb_min = model.throughput_bytes_per_sec(&report) * 60.0 / 1e9;
    println!(
        "modeled at paper scale (x{scale:.0}): {:.0} s wall, {gb_min:.0} GB/min on {pes} nodes \
         ({:.2} GB/min/node; the 2009 record was 564 GB/min on 195 nodes = 2.89 GB/min/node)",
        wall,
        gb_min / pes as f64,
    );
}
