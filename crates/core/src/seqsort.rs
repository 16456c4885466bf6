//! In-node (shared-memory) parallel sorting.
//!
//! The paper's implementation used the GCC parallel mode / MCSTL \[26\]
//! for intra-node sorting and merging across the 8 cores of each node.
//! This module plays that role: *parallel multiway mergesort* —
//!
//! 1. split the input into `cores` chunks and sort them in parallel
//!    (one thread per chunk);
//! 2. split the merged output into `cores` equal ranges with **exact
//!    multiway selection** ([`crate::selection`], the same machinery
//!    \[12\] uses);
//! 3. merge each output range in parallel with a loser tree.
//!
//! For `cores = 1` steps 2 and 3 fall away and the one chunk is the
//! input, so PEs without intra-node parallelism pay nothing.
//!
//! A chunk of wide records (more than 64 bytes, i.e. `Record100`) is
//! sorted by **tags**, after Bingmann's string sorters (sort references
//! that carry a cached key prefix, move the data once): each record
//! gets one `u64` — the top `64 − b` bits of its key's
//! [`prefix64`](demsort_types::Key::prefix64) above its index in the
//! low `b = ⌈log₂ n⌉` bits — the tags are sorted, comparing the records
//! themselves only where two tags agree above the index, and the chunk
//! is then permuted in place along its cycles, so each record moves
//! once instead of being swapped about `log n` times. The order is the
//! records' `Ord`, so for a total order (`Record100`'s) the bytes are
//! `sort_unstable`'s. Narrower records (`Element16`) are sorted
//! directly. With `cores > 1` the sorted chunks' records are merged as
//! before.
//!
//! The tag sort pays where keys differ in the top `64 − b` bits of their
//! 8-byte prefix, as gensort keys do. Where prefixes cluster — many
//! records agree there — most comparisons read two records at random
//! positions of the chunk, and the tag sort can be slower than sorting
//! the records directly: on 41 856 records with four 8-byte prefixes,
//! four keys each, it took about 1.2× the direct sort's time on one
//! core of a 2-core Xeon VM, against 0.3–0.4× on gensort-like keys.

use crate::merge::{merge_work, par_merge_k_into};
use demsort_types::{CpuCounters, Key as _, Record};

/// Sort `data` in place using up to `cores` threads; returns the CPU
/// work counters (elements sorted, merge comparisons) for the cost
/// model.
///
/// The sort is by `Ord`, i.e. by key with whatever tie-break the record
/// type defines — identical to what a sequential `sort_unstable` would
/// produce (tests assert this). A loop that sorts many chunks keeps an
/// [`InNodeSort`] instead, so that its scratch is allocated once.
pub fn sort_in_node<R: Record + Ord>(data: &mut [R], cores: usize) -> CpuCounters {
    InNodeSort::with_capacity(0, cores).sort(data, cores)
}

/// The in-node sort and the scratch it keeps between calls: the tags of
/// a tag sort (`8·n` bytes) and, with `cores > 1`, the merge's output.
/// Run formation sorts every run with one, so after the first run it
/// allocates nothing run-sized.
pub struct InNodeSort<R> {
    tags: Vec<u64>,
    merged: Vec<R>,
}

impl<R: Record + Ord> InNodeSort<R> {
    /// A sort whose scratch is sized for chunks of up to `records`
    /// records at `cores` cores, so that no call grows it.
    pub fn with_capacity(records: usize, cores: usize) -> Self {
        let tags = if R::BYTES > TAG_SORT_MIN_BYTES { records } else { 0 };
        let merged = if cores > 1 { records } else { 0 };
        Self { tags: Vec::with_capacity(tags), merged: Vec::with_capacity(merged) }
    }

    /// [`sort_in_node`] with this sort's scratch.
    pub fn sort(&mut self, data: &mut [R], cores: usize) -> CpuCounters {
        let started = std::time::Instant::now();
        let n = data.len() as u64;
        let cores = cores.max(1).min(data.len().max(1));
        let log_n = 64 - (n.max(2) - 1).leading_zeros() as u64; // ⌈log2 n⌉
        let mut counters =
            CpuCounters { elements_sorted: n, sort_work: n * log_n, ..Default::default() };
        // One tag per record, the chunks' side by side.
        let tags: &mut [u64] = if R::BYTES > TAG_SORT_MIN_BYTES {
            self.tags.resize(data.len(), 0);
            &mut self.tags[..data.len()]
        } else {
            &mut []
        };

        if cores == 1 || data.len() < 2 * cores {
            sort_chunk(data, tags);
            counters.host_wall_ns = started.elapsed().as_nanos() as u64;
            return counters;
        }

        // Phase 1: sort `cores` chunks in parallel.
        let chunk = data.len().div_ceil(cores);
        std::thread::scope(|s| {
            let mut tags = tags.chunks_mut(chunk);
            for head in data.chunks_mut(chunk) {
                let tags = tags.next().unwrap_or_default();
                s.spawn(move || sort_chunk(head, tags));
            }
        });

        // Phases 2 + 3: exact splitters over the sorted chunks, then
        // merge each output range in parallel into the scratch buffer
        // and copy back — the shared in-node parallel merge does both.
        let chunks: Vec<&[R]> = data.chunks(chunk).collect();
        self.merged.clear();
        let pm = par_merge_k_into(&chunks, cores, &mut self.merged);
        drop(chunks);
        data.copy_from_slice(&self.merged);

        counters.elements_merged = n;
        counters.merge_work = merge_work(n, cores);
        counters.split_probes = pm.split_probes;
        counters.host_wall_ns = started.elapsed().as_nanos() as u64;
        counters
    }
}

/// Records wider than this many bytes are sorted by tag. Sorting 41 856
/// (one `canon_local` run) or 2^18 uniform records on one core of a
/// 2-core Xeon VM, the tag sort took 1.0–2.4× the direct sort's time at
/// 16 bytes, won or lost by up to 1.2× at 48 and 64 bytes, and took
/// 0.5× at 100 bytes.
const TAG_SORT_MIN_BYTES: usize = 64;

/// Sort one chunk on this thread: by tag for wide records, into `tags`
/// (one per record), directly otherwise.
fn sort_chunk<R: Record + Ord>(data: &mut [R], tags: &mut [u64]) {
    if R::BYTES > TAG_SORT_MIN_BYTES {
        tag_sort(data, tags);
    } else {
        data.sort_unstable();
    }
}

/// Sort `data` by its `u64` tags, written into `tags` (as long as
/// `data`), then move each record once.
fn tag_sort<R: Record + Ord>(data: &mut [R], tags: &mut [u64]) {
    if data.len() < 2 {
        return;
    }
    // b = ⌈log₂ n⌉ < 64: a slice holds fewer than 2^63 records.
    let b = usize::BITS - (data.len() - 1).leading_zeros();
    let index = (1u64 << b) - 1;
    for (i, (tag, r)) in tags.iter_mut().zip(&*data).enumerate() {
        *tag = r.key().prefix64() & !index | i as u64;
    }
    // Tags that differ above the index order their records (prefix64 is
    // monotone in the key, which `Ord` compares first); tags that agree
    // there fall back to the records. Records that compare equal may
    // land in either order: under a total order they are the same bytes.
    let records = &*data;
    tags.sort_unstable_by(|&x, &y| {
        if x ^ y > index {
            x.cmp(&y)
        } else {
            let at = |t: u64| &records[(t & index) as usize];
            at(x).cmp(at(y))
        }
    });
    permute(data, tags, index);
}

/// Put record `from[i] & index` at position `i` for every `i`, in place
/// along the permutation's cycles: each record moves once, plus one
/// temporary per cycle. `from` is used up — a position whose record has
/// arrived is marked as its own source.
fn permute<R: Copy>(data: &mut [R], from: &mut [u64], index: u64) {
    let source = |from: &[u64], i: usize| (from[i] & index) as usize;
    for start in 0..data.len() {
        if source(from, start) == start {
            continue;
        }
        let held = data[start];
        let mut at = start;
        loop {
            let next = source(from, at);
            from[at] = at as u64;
            if next == start {
                data[at] = held;
                break;
            }
            data[at] = data[next];
            at = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_types::{Element16, Key, Key10, Record100};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_elements(n: usize, seed: u64) -> Vec<Element16> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64).map(|i| Element16::new(rng.gen(), i)).collect()
    }

    fn record(key: [u8; 10], payload_byte: u8) -> Record100 {
        let mut payload = [0u8; 90];
        payload[89] = payload_byte;
        Record100::new(Key10(key), payload)
    }

    fn random_key(rng: &mut StdRng) -> [u8; 10] {
        let mut key = [0u8; 10];
        key[..8].copy_from_slice(&rng.gen::<u64>().to_be_bytes());
        key[8..].copy_from_slice(&rng.gen::<u16>().to_be_bytes());
        key
    }

    fn random_records(n: usize, seed: u64) -> Vec<Record100> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| record(random_key(&mut rng), rng.gen())).collect()
    }

    /// Sort a copy both ways and compare the bytes.
    fn assert_sorts_like_std<R: Record + Ord>(data: &[R], cores: usize) {
        let mut expected = data.to_vec();
        expected.sort_unstable();
        let mut got = data.to_vec();
        sort_in_node(&mut got, cores);
        assert!(got == expected, "n = {}, cores = {cores}", data.len());
    }

    #[test]
    fn sorts_like_std_for_all_core_counts() {
        for cores in [1, 2, 3, 4, 8] {
            let mut data = random_elements(10_000, 42);
            let mut expected = data.clone();
            expected.sort_unstable();
            let c = sort_in_node(&mut data, cores);
            assert_eq!(data, expected, "cores = {cores}");
            assert_eq!(c.elements_sorted, 10_000);
            assert_sorts_like_std(&random_records(10_000, 42), cores);
        }
    }

    #[test]
    fn tiny_inputs() {
        for n in 0..8 {
            let mut data = random_elements(n, n as u64);
            let mut expected = data.clone();
            expected.sort_unstable();
            sort_in_node(&mut data, 4);
            assert_eq!(data, expected, "n = {n}");
            assert_sorts_like_std(&random_records(n, n as u64), 4);
        }
    }

    #[test]
    fn already_sorted_and_reverse() {
        let asc: Vec<Element16> = (0..5000).map(|i| Element16::new(i, i)).collect();
        let desc: Vec<Element16> = asc.iter().rev().copied().collect();
        let wide = |i: u64| {
            let mut key = [0u8; 10];
            key[..8].copy_from_slice(&i.to_be_bytes());
            record(key, 0)
        };
        let asc_wide: Vec<Record100> = (0..5000).map(wide).collect();
        let desc_wide: Vec<Record100> = asc_wide.iter().rev().copied().collect();
        for cores in [1, 4] {
            assert_sorts_like_std(&asc, cores);
            assert_sorts_like_std(&desc, cores);
            assert_sorts_like_std(&asc_wide, cores);
            assert_sorts_like_std(&desc_wide, cores);
        }
    }

    #[test]
    fn heavy_duplicates() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<Element16> =
            (0..8000).map(|_| Element16::new(rng.gen_range(0..10), rng.gen_range(0..3))).collect();
        assert_sorts_like_std(&data, 8);
        let wide: Vec<Record100> =
            (0..8000).map(|_| record([rng.gen_range(0..10); 10], rng.gen_range(0..3))).collect();
        assert_sorts_like_std(&wide, 8);
    }

    #[test]
    fn sort_work_counter_is_n_log_n() {
        let mut data = random_elements(1 << 12, 9);
        let c = sort_in_node(&mut data, 2);
        assert_eq!(c.sort_work, (1 << 12) * 12, "n · ⌈log2 n⌉");
        let mut tiny = vec![Element16::new(3, 0), Element16::new(1, 0)];
        let c2 = sort_in_node(&mut tiny, 1);
        assert_eq!(c2.sort_work, 2, "n = 2 → 2 · log2(2)");
        let mut wide = random_records(1 << 12, 9);
        assert_eq!(sort_in_node(&mut wide, 2).sort_work, c.sort_work, "the tags change no counter");
    }

    #[test]
    fn counters_report_merge_work_only_when_parallel() {
        let mut a = random_elements(4000, 1);
        let c1 = sort_in_node(&mut a, 1);
        assert_eq!(c1.merge_work, 0, "single core merges nothing");
        let mut b = random_elements(4000, 1);
        let c4 = sort_in_node(&mut b, 4);
        assert_eq!(c4.merge_work, 4000 * 2, "4-way merge = 2 comparisons/element");
        assert_eq!(a, b);
    }

    /// A key whose `prefix64` runs backwards. Only the tag path reads
    /// the prefix, so a sort through this key shows which path ran: the
    /// direct path sorts ascending, the tag path descending.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Backwards(u64);

    impl Key for Backwards {
        const MIN_KEY: Self = Backwards(0);
        const MAX_KEY: Self = Backwards(u64::MAX);
        const BYTES: usize = 8;

        fn encode(&self, out: &mut [u8]) {
            self.0.encode(out);
        }

        fn decode(bytes: &[u8]) -> Self {
            Backwards(u64::decode(bytes))
        }

        fn prefix64(&self) -> u64 {
            !self.0
        }
    }

    /// A `WIDTH`-byte record that is its key.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Wide<const WIDTH: usize>(Backwards);

    impl<const WIDTH: usize> Record for Wide<WIDTH> {
        type Key = Backwards;
        const BYTES: usize = WIDTH;

        fn key(&self) -> Backwards {
            self.0
        }

        fn encode(&self, out: &mut [u8]) {
            out.fill(0);
            self.0.encode(&mut out[..8]);
        }

        fn decode(buf: &[u8]) -> Self {
            Wide(Backwards::decode(&buf[..8]))
        }
    }

    /// Keys that differ above any tag's index bits, shuffled, sorted on
    /// one core at width `WIDTH`; true if they came out ascending.
    fn sorts_directly<const WIDTH: usize>() -> bool {
        let mut data: Vec<Wide<WIDTH>> = (0..1000).map(|i| Wide(Backwards(i << 40))).collect();
        data.shuffle(&mut StdRng::seed_from_u64(5));
        sort_in_node(&mut data, 1);
        let ascending = data.windows(2).all(|w| w[0] < w[1]);
        assert!(ascending || data.windows(2).all(|w| w[0] > w[1]), "{WIDTH} bytes: unsorted");
        ascending
    }

    #[test]
    fn wide_records_sort_by_tag_and_narrow_ones_directly() {
        assert!(sorts_directly::<{ Element16::BYTES }>(), "Element16 sorts directly");
        assert!(sorts_directly::<TAG_SORT_MIN_BYTES>());
        assert!(!sorts_directly::<{ TAG_SORT_MIN_BYTES + 1 }>());
        assert!(!sorts_directly::<{ Record100::BYTES }>(), "Record100 sorts by tag");
    }

    #[test]
    fn permute_moves_every_record_to_its_place() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let mut from: Vec<u64> = (0..n as u64).collect();
            from.shuffle(&mut rng);
            // High bits above the index are ignored.
            let index = (n as u64).next_power_of_two().max(1) - 1;
            let mut tagged: Vec<u64> = from.iter().map(|&f| f | (0xAB << 56)).collect();
            let mut data: Vec<u32> = (0..n as u32).map(|i| i * 10).collect();
            permute(&mut data, &mut tagged, index);
            let expected: Vec<u32> = from.iter().map(|&f| f as u32 * 10).collect();
            assert_eq!(data, expected, "n = {n}");
        }
    }

    /// Inputs shaped to break a tag sort: the tags tie wherever the
    /// records' order has to come from the full comparison.
    fn shaped(shape: u8, n: usize, seed: u64) -> Vec<Record100> {
        let mut rng = StdRng::seed_from_u64(seed);
        let prefix = rng.gen::<u64>();
        // The bits of a tag that hold the index: ⌈log₂ n⌉.
        let index = n.max(1).next_power_of_two() as u64 - 1;
        (0..n)
            .map(|_| {
                let mut key = [0u8; 10];
                key[..8].copy_from_slice(&prefix.to_be_bytes());
                match shape {
                    // One 8-byte prefix, keys differ in bytes 8–9 only.
                    0 => key[8..].copy_from_slice(&rng.gen::<u16>().to_be_bytes()),
                    // Few equal keys, records differ in the payload only.
                    1 => key[9] = rng.gen_range(0..3),
                    // Exact duplicates of a few records.
                    2 => return record([rng.gen_range(0..4); 10], 0),
                    // All equal.
                    3 => return record(key, 7),
                    // Prefixes equal above the index bits, different
                    // inside them.
                    _ => {
                        let low = rng.gen::<u64>() & index;
                        key[..8].copy_from_slice(&(prefix & !index | low).to_be_bytes());
                    }
                }
                let mut r = record(key, rng.gen_range(0..4));
                r.payload[0] = rng.gen_range(0..2);
                r
            })
            .collect()
    }

    fn sizes() -> Vec<usize> {
        let mut ns = vec![0, 1, 2];
        for k in 2..=11 {
            ns.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        ns
    }

    proptest! {
        #[test]
        fn equals_std_sort(data in prop::collection::vec(0u64..20_000, 0..2000),
                           cores in 1usize..9) {
            let data: Vec<Element16> = data.into_iter().map(|x| Element16::new(x / 4, x % 4)).collect();
            let mut expected = data.clone();
            expected.sort_unstable();
            let mut got = data;
            sort_in_node(&mut got, cores);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn tag_sort_equals_std_sort(shape in 0u8..5, size in 0usize..33,
                                    cores in 1usize..=4, seed in 0u64..u64::MAX) {
            let n = sizes()[size];
            let data = shaped(shape, n, seed);
            let mut expected = data.clone();
            expected.sort_unstable();
            let mut got = data;
            sort_in_node(&mut got, cores);
            prop_assert!(got == expected, "shape {} n {} cores {}", shape, n, cores);
        }
    }
}
