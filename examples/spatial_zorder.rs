//! Space-filling-curve ordering — the paper's second motivation:
//! "arrange geometrical data such that close-by data can be processed
//! together (e.g., using space filling curves)."
//!
//! 2-D points get Morton (Z-order) keys; sorting by the key places
//! spatially close points close together on disk — and the canonical
//! output means each PE ends up owning a contiguous region of the
//! curve, ready for parallel spatial processing.
//!
//! ```sh
//! cargo run --release --example spatial_zorder
//! ```

use demsort::prelude::*;
use demsort::types::{ranks, SortAlgo};
use demsort::workloads::splitmix64;

/// Interleave the low 32 bits of x and y into a 64-bit Morton code.
fn morton(x: u32, y: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = v as u64;
        v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    (spread(x) << 1) | spread(y)
}

/// Invert one spread dimension of a Morton code.
fn unspread(mut v: u64) -> u32 {
    v &= 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v as u32
}

fn decode(key: u64) -> (u32, u32) {
    (unspread(key >> 1), unspread(key))
}

fn main() {
    let pes = 4;
    let points_per_pe = 150_000usize;
    let machine = MachineConfig {
        pes,
        disks_per_pe: 2,
        block_bytes: 4 << 10,
        mem_bytes_per_pe: (4 << 10) * 256,
        cores_per_pe: 2,
    };
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid config");

    // Points clustered around a few "cities" in a 2^16 × 2^16 world —
    // each PE observed a random mix of all clusters.
    println!("z-ordering {} points across {pes} PEs...", pes * points_per_pe);
    let points: Vec<Element16> = (0..pes)
        .flat_map(|pe| {
            (0..points_per_pe as u64).map(move |i| {
                let id = (pe as u64) << 32 | i;
                let r = splitmix64(id);
                let city = r % 5;
                let (cx, cy) = ((city as u32 * 13_001) % 65_536, (city as u32 * 29_411) % 65_536);
                let dx = (splitmix64(r) % 2048) as u32;
                let dy = (splitmix64(r ^ 1) % 2048) as u32;
                let x = (cx + dx) % 65_536;
                let y = (cy + dy) % 65_536;
                Element16::new(morton(x, y), id)
            })
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("demsort-zorder-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (input, output) = (dir.join("points.dat"), dir.join("zorder.dat"));
    write_record_file(&input, &points).expect("write points");
    sort_file::<Element16>(&cfg, SortAlgo::Canonical, &input, &output).expect("sort");
    let check = check_file::<Element16>(&output).expect("check");
    assert!(check.is_sort_of(Fingerprint::of_slice(&points)), "the curve holds every point");
    let sorted = read_record_file::<Element16>(&output).expect("read");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    // PE `i` owns global ranks ⌊i·N/P⌋.. of the curve.
    let region = |pe: usize| {
        let r = ranks::owned_range(pe, pes, sorted.len() as u64);
        &sorted[r.start as usize..r.end as usize]
    };

    // Spatial locality: consecutive points on the curve must be close
    // in space. Measure mean L1 distance between curve neighbours on
    // PE 0 versus between random pairs.
    let recs = region(0);
    let l1 = |a: u64, b: u64| {
        let (ax, ay) = decode(a);
        let (bx, by) = decode(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as f64
    };
    let neighbour: f64 =
        recs.windows(2).map(|w| l1(w[0].key, w[1].key)).sum::<f64>() / (recs.len() - 1) as f64;
    let random: f64 = (0..recs.len() - 1)
        .map(|i| {
            let j = (splitmix64(i as u64) % recs.len() as u64) as usize;
            l1(recs[i].key, recs[j].key)
        })
        .sum::<f64>()
        / (recs.len() - 1) as f64;
    println!(
        "mean L1 distance: curve neighbours {neighbour:.1} vs random pairs {random:.1} \
         ({:.0}x locality gain)",
        random / neighbour
    );
    assert!(neighbour * 20.0 < random, "Z-order must provide strong locality");

    // Each PE owns one contiguous stretch of the curve.
    for pe in 0..pes {
        let first = region(pe).first().map_or(0, |r| r.key);
        let (x, y) = decode(first);
        println!("PE {pe}: {} points, curve region starts at ({x}, {y})", region(pe).len());
    }
}
