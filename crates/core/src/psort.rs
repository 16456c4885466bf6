//! Distributed internal-memory parallel mergesort (Section IV-B).
//!
//! "Each node sorts its local data. Then, the internal memory variant
//! of the multiway selection algorithm is used to split the `P` sorted
//! sequences into `P` pieces of equal size. An all-to-all communication
//! is used to move the pieces to the right PE. Note that in the best
//! case, this is the only time when the data is actually communicated."
//!
//! Steps on each PE:
//!
//! 1. sort local data with the in-node parallel sort
//!    ([`crate::seqsort`], the MCSTL stand-in);
//! 2. exact splitters via distributed multiway selection: all `P − 1`
//!    splits together, in a few rounds of two collectives
//!    ([`crate::distselect`]);
//! 3. `alltoallv` the pieces (through the chunked variant that lifts
//!    MPI's 2 GiB limit, Section V);
//! 4. `P`-way merge of the received sorted pieces.
//!
//! The output is *canonical*: PE `i` ends up with the elements of
//! global ranks `⌊i·N/P⌋ .. ⌊(i+1)·N/P⌋`.
//!
//! Steps 2–4 are one kernel, [`Exchange::run`], and it is a stream: a
//! record is copied once on its way out (encoded into the message that
//! carries it) and once on its way in (merged into the caller's
//! [`RecordSink`] — for run formation the block it is written to disk
//! from). The piece a PE keeps is never encoded: it is merged from
//! `data` where it lies. A received piece is merged from the message
//! buffer it arrived in where the record type's layout allows
//! ([`Record::view_slice`]), and decoded into a buffer the kernel keeps
//! between calls where it does not. Nothing run-sized is allocated per
//! call except the outgoing messages. With `cores > 1` the merge runs
//! on several threads into an arena the kernel keeps, and the sink
//! takes that as one slab. [`parallel_sort`] wraps the kernel for
//! callers that want the result as a vector.
//!
//! [`Exchange::run_aligned`] moves the parts' boundaries down to
//! multiples of a grain — a block's worth of records when the striped
//! sort writes its last pass into the output file — and tells each PE
//! where its part starts before the first record reaches its sink.

use crate::distselect::{split_rank, Splitter};
use crate::merge::{merge_cpu, merge_k_each, par_merge_k_into};
use crate::recio::RecordSink;
use crate::seqsort::sort_in_node;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_types::{CpuCounters, Error, Record, Result};

/// What one PE receives of an exchanged sequence: the global ranks from
/// `start` on, of `total` records in all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Part {
    /// Global rank of the first record this PE receives.
    pub start: u64,
    /// Records in the whole sequence, over all PEs.
    pub total: u64,
}

/// Sort `data` across all PEs of `comm`; returns this PE's canonical
/// slice of the global sorted order plus CPU counters.
///
/// Every PE must call this collectively. Local input sizes may differ;
/// output sizes differ by at most one element.
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) if a peer dies during the
/// splitter selection or the all-to-all exchange.
pub fn parallel_sort<R: Record + Ord>(
    comm: &Communicator,
    mut data: Vec<R>,
    cores: usize,
) -> Result<(Vec<R>, CpuCounters)> {
    let cpu = sort_in_node(&mut data, cores);
    if comm.size() == 1 {
        return Ok((data, cpu));
    }
    let mut out = Vec::with_capacity(data.len());
    let exchange_cpu = Exchange::new().run(comm, &data, cores, &mut out)?;
    Ok((out, cpu.merge(&exchange_cpu)))
}

/// The exchange kernel (steps 2–4 above) and the buffers it keeps
/// between calls, so that a loop over runs or merge batches allocates
/// them once. The merge's two stay empty for a record type with a
/// zero-copy view merged on one core.
pub struct Exchange<R: Record> {
    /// The splitter selection's candidates and brackets.
    splitter: Splitter<R>,
    /// The received pieces, decoded back to back in source order —
    /// only for record types without [`Record::view_slice`].
    decoded: Vec<R>,
    /// Output of the multi-threaded merge (`cores > 1`).
    merged: Vec<R>,
}

impl<R: Record + Ord> Default for Exchange<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Record + Ord> Exchange<R> {
    /// A kernel with empty buffers.
    pub fn new() -> Self {
        Self { splitter: Splitter::default(), decoded: Vec::new(), merged: Vec::new() }
    }

    /// Redistribute the locally sorted `data` of all PEs canonically:
    /// this PE's slice of the global order goes to `sink`, in order.
    /// Collective. Returns the CPU counters of the merge (and of its
    /// thread split); the splitter selection's traffic is on `comm`.
    ///
    /// The output is in record order (`Ord`, which for `Record100`
    /// orders equal keys by payload); records that compare equal come
    /// out in source-rank order — the canonical (record, PE) tie-break
    /// the splitters were chosen under.
    ///
    /// # Errors
    /// [`Error::Comm`] if a peer dies during the splitter selection or
    /// the exchange, or sends a message that is not whole records;
    /// whatever `sink` fails with.
    pub fn run(
        &mut self,
        comm: &Communicator,
        data: &[R],
        cores: usize,
        sink: &mut impl RecordSink<R>,
    ) -> Result<CpuCounters> {
        let (cuts, _) = self.split(comm, data, 1)?;
        self.deliver(comm, data, &cuts, cores, sink)
    }

    /// [`run`](Self::run) with the parts' boundaries on multiples of
    /// `grain` ([`split_rank`]): PE `i` receives global ranks
    /// `a_i .. a_{i+1}`, `a_i = ⌊⌊i·n/P⌋ / grain⌋·grain`, so with a
    /// block's worth of records every part but the last PE's is whole
    /// blocks. The sink is made by `open` once the split has told this PE
    /// its [`Part`], and handed back with it.
    ///
    /// # Errors
    /// As [`run`](Self::run), and whatever `open` fails with.
    pub fn run_aligned<S: RecordSink<R>>(
        &mut self,
        comm: &Communicator,
        data: &[R],
        cores: usize,
        grain: u64,
        open: impl FnOnce(Part) -> Result<S>,
    ) -> Result<(CpuCounters, Part, S)> {
        let (cuts, total) = self.split(comm, data, grain)?;
        let part = Part { start: split_rank(comm.rank(), comm.size(), total, grain), total };
        let mut sink = open(part)?;
        let cpu = self.deliver(comm, data, &cuts, cores, &mut sink)?;
        Ok((cpu, part, sink))
    }

    /// This PE's cut positions in `data` and the global element count
    /// (one PE: all of it, with no communication).
    fn split(&mut self, comm: &Communicator, data: &[R], grain: u64) -> Result<(Vec<usize>, u64)> {
        debug_assert!(data.windows(2).all(|w| w[0] <= w[1]), "input must be locally sorted");
        match comm.size() {
            1 => Ok((vec![0, data.len()], data.len() as u64)),
            p => self.splitter.split(comm, data, p, grain),
        }
    }

    /// Steps 3 and 4: send piece `dst` of `data` (between `cuts[dst]`
    /// and `cuts[dst + 1]`) to PE `dst` and merge what arrives into
    /// `sink`.
    fn deliver(
        &mut self,
        comm: &Communicator,
        data: &[R],
        cuts: &[usize],
        cores: usize,
        sink: &mut impl RecordSink<R>,
    ) -> Result<CpuCounters> {
        let (me, p) = (comm.rank(), comm.size());
        if p == 1 {
            sink.emit_all(data)?;
            return Ok(CpuCounters::default());
        }

        // Piece `dst` of every PE goes to PE `dst`; the piece this PE
        // keeps stays in `data`.
        let msgs: Vec<Vec<u8>> = (0..p)
            .map(|dst| {
                let piece = if dst == me { &[][..] } else { &data[cuts[dst]..cuts[dst + 1]] };
                let mut buf = vec![0u8; piece.len() * R::BYTES];
                R::encode_slice(piece, &mut buf);
                buf
            })
            .collect();
        let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;

        // The P sorted pieces, indexed by source rank: views into the
        // message buffers where the layout allows, decoded otherwise.
        self.decoded.clear();
        let mut decoded_at = vec![0..0; p];
        for (src, buf) in received.iter().enumerate() {
            if !buf.len().is_multiple_of(R::BYTES) {
                return Err(Error::comm(format!(
                    "rank {me}: rank {src} sent {} bytes, not whole {}-byte records",
                    buf.len(),
                    R::BYTES
                )));
            }
            if R::view_slice(buf).is_none() {
                let at = self.decoded.len();
                R::decode_slice(buf, &mut self.decoded);
                decoded_at[src] = at..self.decoded.len();
            }
        }
        let pieces: Vec<&[R]> = (0..p)
            .map(|src| {
                if src == me {
                    return &data[cuts[me]..cuts[me + 1]];
                }
                R::view_slice(&received[src]).unwrap_or(&self.decoded[decoded_at[src].clone()])
            })
            .collect();

        // Merge them (source order is exactly the canonical (record, PE)
        // tie-break order) into the sink.
        let total: usize = pieces.iter().map(|v| v.len()).sum();
        let mut cpu = merge_cpu(total as u64, p);
        if cores > 1 {
            self.merged.clear();
            cpu.split_probes += par_merge_k_into(&pieces, cores, &mut self.merged).split_probes;
            sink.emit_all(&self.merged)?;
        } else {
            merge_k_each(&pieces, |rec| sink.emit(rec))?;
        }
        comm.recycle(received);
        Ok(cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::Fingerprint;
    use demsort_net::run_cluster;
    use demsort_types::{ranks, Element16, Key10, Record100};
    use demsort_workloads::{generate_pe_input, splitmix64, InputSpec};
    use proptest::prelude::*;

    /// The 100-byte record that sorts where `e` does: the kernel then
    /// merges it from a view of the message it arrived in, where an
    /// [`Element16`] (no such view) is decoded first.
    fn wide(e: Element16) -> Record100 {
        let (mut key, mut payload) = ([0u8; 10], [0u8; 90]);
        key[..8].copy_from_slice(&e.key.to_be_bytes());
        payload[..8].copy_from_slice(&e.payload.to_be_bytes());
        Record100::new(Key10(key), payload)
    }

    /// Run a parallel sort of `input(rank)` on `p` PEs — through the
    /// streaming merge (`cores = 1`) and through the arena
    /// (`cores = 2`) — and verify the three output properties: locally
    /// sorted, globally ordered across PEs, and a permutation of the
    /// input.
    fn check_psort_of<R: Record + Ord + std::fmt::Debug>(
        what: &str,
        p: usize,
        input: impl Fn(usize) -> Vec<R> + Copy + Send + Sync,
    ) {
        let all: Vec<R> = (0..p).flat_map(input).collect();
        let mut reference = all.clone();
        reference.sort_unstable();
        for cores in [1, 2] {
            let outputs = run_cluster(p, move |c| {
                let (out, _) = parallel_sort(&c, input(c.rank()), cores).expect("sort");
                out
            });
            // Balanced canonical sizes.
            for (pe, out) in outputs.iter().enumerate() {
                let expect = demsort_types::ranks::owned_len(pe, p, all.len() as u64);
                assert_eq!(out.len() as u64, expect, "PE {pe} size ({what}, P={p})");
            }
            // Concatenation equals the sequential reference sort.
            let concat: Vec<R> = outputs.concat();
            assert_eq!(concat, reference, "global order ({what}, P={p}, cores={cores})");
            let (got, want) = (Fingerprint::of_slice(&concat), Fingerprint::of_slice(&all));
            assert_eq!(got, want, "permutation ({what}, P={p})");
        }
    }

    /// [`check_psort_of`] on `local_n` generated elements per PE, as
    /// both record types.
    fn check_psort(spec: InputSpec, p: usize, local_n: usize) {
        let what = format!("{spec:?}");
        let gen = move |rank| generate_pe_input(spec, 99, rank, p, local_n);
        check_psort_of(&what, p, gen);
        check_psort_of(&what, p, move |r| gen(r).into_iter().map(wide).collect());
    }

    #[test]
    fn sorts_uniform_inputs() {
        for p in [1, 2, 3, 4, 8] {
            check_psort(InputSpec::Uniform, p, 500);
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        check_psort(InputSpec::Sorted, 4, 300);
        check_psort(InputSpec::ReverseSorted, 4, 300);
        check_psort(InputSpec::SkewedToOne, 4, 300);
        check_psort(InputSpec::Constant, 4, 300);
        check_psort(InputSpec::Banded { block_elems: 50 }, 4, 300);
    }

    #[test]
    fn tiny_inputs_and_more_pes_than_elements() {
        check_psort(InputSpec::Uniform, 4, 1);
        check_psort(InputSpec::Uniform, 3, 0);
        check_psort(InputSpec::Uniform, 2, 2);
    }

    #[test]
    fn both_record_types_at_every_cluster_size() {
        for p in [1, 2, 3, 5] {
            check_psort(InputSpec::Uniform, p, 257);
            // All keys equal: the splitters cut inside one tie.
            check_psort(InputSpec::Constant, p, 120);
            // Globally sorted: every piece but the one a PE keeps is
            // empty.
            check_psort(InputSpec::Sorted, p, 90);
        }
    }

    #[test]
    fn one_pe_holds_everything() {
        // Every piece the other PEs send is empty, and they receive
        // all they end up with.
        for p in [2, 3, 5] {
            let skewed = move |rank: usize| {
                generate_pe_input(InputSpec::Uniform, 5, rank, p, if rank == 1 { 403 } else { 0 })
            };
            check_psort_of("one PE holds everything", p, skewed);
            let wide_skewed = move |r| skewed(r).into_iter().map(wide).collect();
            check_psort_of("one PE holds everything", p, wide_skewed);
        }
    }

    /// An element ordered by its key alone, so that where equal keys
    /// end up shows the order the merge took them in.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    struct ByKey(Element16);

    impl PartialOrd for ByKey {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for ByKey {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.key.cmp(&other.0.key)
        }
    }

    impl Record for ByKey {
        type Key = u64;
        const BYTES: usize = Element16::BYTES;

        fn key(&self) -> u64 {
            self.0.key
        }

        fn encode(&self, out: &mut [u8]) {
            self.0.encode(out);
        }

        fn decode(buf: &[u8]) -> Self {
            ByKey(Element16::decode(buf))
        }
    }

    #[test]
    fn equal_keys_come_out_in_source_rank_order() {
        // Three keys, many ties; the payload is (source rank, position
        // there). Canonical order is (key, PE), and within a PE the
        // order the input had.
        for (p, cores) in [(2, 1), (3, 1), (5, 1), (3, 2)] {
            let local_n = 64u64;
            let outputs = run_cluster(p, move |c| {
                let rank = c.rank() as u64;
                let data: Vec<ByKey> = (0..local_n)
                    .map(|i| ByKey(Element16::new(i * 3 / local_n, rank * local_n + i)))
                    .collect();
                let (mut out, mut sink) = (Vec::new(), Vec::new());
                let mut exchange = Exchange::new();
                // Twice through one kernel: its buffers are reused.
                for out in [&mut out, &mut sink] {
                    exchange.run(&c, &data, cores, out).expect("exchange");
                }
                assert_eq!(out, sink, "a reused kernel gives the same slice");
                out
            });
            let concat: Vec<Element16> = outputs.concat().into_iter().map(|r| r.0).collect();
            let mut expect = concat.clone();
            expect.sort_unstable(); // by (key, payload) = (key, source rank, position)
            assert_eq!(concat, expect, "P={p}, cores={cores}");
            assert_eq!(concat.len() as u64, p as u64 * local_n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// With grain `g`, every part starts on a multiple of `g` (only
        /// the last PE's end need not), each PE's part is sorted and
        /// follows its predecessor's, the parts together are the input,
        /// and `g = 1` gives the canonical boundaries `⌊i·n/P⌋`.
        #[test]
        fn aligned_exchange_cuts_on_the_grain(
            sizes in prop::collection::vec(0usize..90, 1..5),
            key_range in 1u64..60,
            grain in 1u64..12,
            cores in 1usize..3,
            seed in 0u64..1000,
        ) {
            let p = sizes.len();
            // Payloads grow with (PE, position), so the canonical
            // (key, PE) order is the (key, payload) order.
            let locals: Vec<Vec<Element16>> = sizes
                .iter()
                .enumerate()
                .map(|(pe, &n)| {
                    let mut v: Vec<Element16> = (0..n as u64)
                        .map(|i| {
                            let gid = pe as u64 * 1000 + i;
                            Element16::new(splitmix64(seed ^ gid) % key_range, gid)
                        })
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let mut reference: Vec<Element16> = locals.concat();
            reference.sort_unstable();
            let total = reference.len() as u64;
            let locals_ref = &locals;
            let parts = run_cluster(p, move |c| {
                let mine = &locals_ref[c.rank()];
                let (_, part, out) = Exchange::new()
                    .run_aligned(&c, mine, cores, grain, |_| Ok(Vec::new()))
                    .expect("exchange");
                (part, out)
            });
            let mut start = 0u64;
            for (i, (part, out)) in parts.iter().enumerate() {
                prop_assert_eq!(*part, Part { start, total });
                prop_assert_eq!(start, split_rank(i, p, total, grain));
                prop_assert_eq!(start % grain, 0);
                if grain == 1 {
                    prop_assert_eq!(start, ranks::owned_range(i, p, total).start);
                }
                prop_assert!(out.windows(2).all(|w| w[0] <= w[1]), "PE {} unsorted", i);
                start += out.len() as u64;
            }
            let concat: Vec<Element16> = parts.into_iter().flat_map(|(_, out)| out).collect();
            prop_assert_eq!(concat, reference);
        }
    }

    #[test]
    fn communication_is_single_pass_for_presorted() {
        // A globally sorted input needs *zero* data movement: every
        // piece stays home. ("in the best case, this is the only time
        // when the data is actually communicated" — and for sorted
        // input even that is a self-message.)
        let p = 4;
        let sent_at = |local_n: usize| {
            let counters = run_cluster(p, move |c| {
                let data = generate_pe_input(InputSpec::Sorted, 1, c.rank(), p, local_n);
                let before = c.counters();
                let _ = parallel_sort(&c, data, 1).expect("sort");
                c.counters().delta_since(&before)
            });
            counters.iter().map(|c| c.bytes_sent).max().expect("nonempty")
        };
        // Only selection control traffic (O(P log N) tiny messages), no
        // bulk data: far below the 16 KiB of local payload, and growing
        // only logarithmically when the input grows 8-fold.
        let small = sent_at(1000);
        let big = sent_at(8000);
        assert!(small < 16_000, "control traffic too large: {small} bytes");
        assert!(
            (big as f64) < (small as f64) * 1.5,
            "control traffic must not scale with N: {small} -> {big}"
        );
    }

    #[test]
    fn uniform_input_communicates_about_once() {
        // Random input: ~ (P-1)/P of the data crosses the network once.
        let p = 4;
        let local_n = 2000usize;
        let counters = run_cluster(p, move |c| {
            let data = generate_pe_input(InputSpec::Uniform, 5, c.rank(), p, local_n);
            let before = c.counters();
            let _ = parallel_sort(&c, data, 1).expect("sort");
            c.counters().delta_since(&before)
        });
        let total_sent: u64 = counters.iter().map(|c| c.bytes_sent).sum();
        let n_bytes = (p * local_n * 16) as u64;
        let ratio = total_sent as f64 / n_bytes as f64;
        assert!(
            (0.5..=1.1).contains(&ratio),
            "expected ~0.75 N communicated, got ratio {ratio:.2}"
        );
    }
}
