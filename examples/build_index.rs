//! Index construction — the paper's opening motivation: "sorting (or
//! similar computations) can be used to build index data structures."
//!
//! A crawl of (term-hash → document-id) postings arrives unsorted and
//! scattered over the cluster. Sorting it with CANONICALMERGESORT
//! yields, on every PE, a sorted partition of the postings — exactly
//! the layout an inverted index wants — and because the output is
//! *canonical* (PE `i` holds global ranks `⌊i·N/P⌋..`), a tiny
//! directory of partition boundaries makes any term findable in one
//! hop plus a local binary search over block first-keys.
//!
//! ```sh
//! cargo run --release --example build_index
//! ```

use demsort::prelude::*;
use demsort::types::{ranks, SortAlgo};
use demsort::workloads::splitmix64;

/// A posting: term hash → document id, packed as the paper's 16-byte
/// element (64-bit key, 64-bit payload).
fn posting(term_hash: u64, doc: u64) -> Element16 {
    Element16::new(term_hash, doc)
}

fn main() {
    let pes = 6;
    let postings_per_pe = 120_000usize;
    let machine = MachineConfig {
        pes,
        disks_per_pe: 2,
        block_bytes: 4 << 10,
        mem_bytes_per_pe: (4 << 10) * 128,
        cores_per_pe: 2,
    };
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid config");

    // Each PE crawled a shard: postings with term hashes scattered over
    // the whole key space (a zipf-flavoured term mix: a few hot terms,
    // a long tail).
    println!("building an inverted-index layout from {} postings...", pes * postings_per_pe);
    let postings: Vec<Element16> = (0..pes)
        .flat_map(|pe| {
            (0..postings_per_pe as u64).map(move |i| {
                let doc = (pe as u64) << 32 | i;
                let r = splitmix64(doc ^ 0xB16_B00B5);
                // 1 in 8 postings goes to one of 1024 hot terms (the
                // branch bit and the term id use disjoint bits of r).
                let term = if r.is_multiple_of(8) {
                    splitmix64((r >> 3) % 1024) // hot head
                } else {
                    splitmix64(r) // long tail
                };
                posting(term, doc)
            })
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("demsort-build-index-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (input, output) = (dir.join("postings.dat"), dir.join("index.dat"));
    write_record_file(&input, &postings).expect("write postings");
    sort_file::<Element16>(&cfg, SortAlgo::Canonical, &input, &output).expect("sort");
    let check = check_file::<Element16>(&output).expect("check index");
    assert!(check.is_sort_of(Fingerprint::of_slice(&postings)), "partitions ordered and complete");
    let index = read_record_file::<Element16>(&output).expect("read index");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");

    // PE `i`'s partition of the index is global ranks ⌊i·N/P⌋.., and
    // its blocks of `rpb` postings each start at the partition's start.
    let rpb = (4 << 10) / Element16::BYTES;
    let partition = |pe: usize| {
        let r = ranks::owned_range(pe, pes, index.len() as u64);
        &index[r.start as usize..r.end as usize]
    };
    let block_first_keys =
        |part: &[Element16]| -> Vec<u64> { part.chunks(rpb).map(|block| block[0].key).collect() };

    // The index directory: each partition's first key (P entries), plus
    // per-partition block first-keys.
    let mut directory = Vec::with_capacity(pes);
    for pe in 0..pes {
        directory.push((partition(pe).first().map(|r| r.key), pe));
    }
    println!("directory: {} partitions, block index depth 2 (partition → block → scan)", pes);

    // Look up a hot term: route by directory, then binary-search the
    // partition's block first-keys, then scan one block.
    let term = splitmix64(42); // hot term id 42
    let target_pe = directory
        .iter()
        .rev()
        .find(|(first, _)| first.is_some_and(|f| f <= term))
        .map(|&(_, pe)| pe)
        .unwrap_or(0);
    let recs = partition(target_pe);
    let block = block_first_keys(recs).partition_point(|&k| k <= term).saturating_sub(1);
    let lo = block * rpb;
    let hi = (lo + rpb).min(recs.len());
    let hits: Vec<u64> =
        recs[lo..hi].iter().filter(|r| r.key == term).map(|r| r.payload).take(5).collect();
    println!(
        "term {term:#018x}: partition {target_pe}, block {block}: {} matching postings in that block (first docs: {hits:?})",
        recs[lo..hi].iter().filter(|r| r.key == term).count(),
    );

    // Index-wide sanity: partitions ordered, postings preserved.
    let total = index.len();
    assert_eq!(total, pes * postings_per_pe);
    println!("index built over {total} postings — partitions ordered and complete");
}
