//! Baseline algorithms for comparison (Section II).
//!
//! **NOW-Sort-style partition sort** \[5\]: one pass of key-space
//! partitioning — every PE streams its input, routes each record to
//! `bucket = ⌊key/keyspace · P⌋`, and each PE externally sorts what it
//! receives (run formation + local merge). "However, it only works
//! efficiently for random inputs. In the worst case, it deteriorates
//! to a sequential algorithm since all the data ends up in a single
//! processor." That degradation — and CANONICALMERGESORT's immunity to
//! it via *exact* splitting — is what the `baseline-skew` experiment
//! shows.

use crate::alltoall::MergeInput;
use crate::localmerge::final_merge;
use crate::recio::{records_per_block, FinishedRun, RecordRunReader, RecordRunWriter, RunDest};
use crate::runform::LocalInput;
use crate::seqsort::sort_in_node;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_storage::PeStorage;
use demsort_types::{Error, Key, Phase, PhaseStats, Record, Result, SortConfig};

/// Outcome of the NOW-Sort baseline on one PE.
pub struct NowSortOutcome<R: Record> {
    /// This PE's sorted output (key-space bucket `rank`).
    pub output: FinishedRun<R>,
    /// Elements this PE ended up sorting.
    pub local_elems: u64,
    /// `max_pe_elements / (N/P)` — 1.0 is perfect balance; the paper's
    /// worst case drives this to `P`.
    pub imbalance: f64,
    /// Per-phase counters (exchange → `RunFormation`+`AllToAll`,
    /// local external sort → `FinalMerge`).
    pub phases: Vec<(Phase, PhaseStats)>,
}

/// Key-space bucket of a key: `⌊prefix64 · P / 2^64⌋` — the uniform
/// assumption NOW-Sort relies on.
pub fn keyspace_bucket<K: Key>(key: &K, p: usize) -> usize {
    ((key.prefix64() as u128 * p as u128) >> 64) as usize
}

/// Run the NOW-Sort baseline. Collective.
pub fn nowsort<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
) -> Result<NowSortOutcome<R>> {
    let p = comm.size();
    let me = comm.rank();
    let rpb = records_per_block::<R>(st.block_bytes());
    let mem_elems = (cfg.machine.mem_bytes_per_pe / R::BYTES).max(2 * rpb);
    let chunk_elems = (mem_elems / 2).max(rpb);
    let mut rec = crate::ctx::PhaseRecorder::new(me, st.counters(), comm.counters());

    // ---- Phase 1: stream, partition, exchange, form runs ----
    let LocalInput::Blocks { run, elems } = input else {
        return Err(Error::config("the NOW-Sort baseline reads its input from the PE's disks"));
    };
    // In place: the input is recycled as it streams out.
    let mut reader = RecordRunReader::<R>::with_range(st, &run, elems, 0, elems, true);
    let rounds = {
        let local = elems.div_ceil(chunk_elems as u64);
        comm.allreduce_max(local)?.max(1)
    };
    let mut local_runs: Vec<FinishedRun<R>> = Vec::new();
    let mut received_total = 0u64;
    for _ in 0..rounds {
        // Read up to one chunk and bucket it.
        let mut buckets: Vec<Vec<R>> = vec![Vec::new(); p];
        for _ in 0..chunk_elems {
            match reader.next_rec()? {
                Some(r) => buckets[keyspace_bucket(&r.key(), p)].push(r),
                None => break,
            }
        }
        let msgs: Vec<Vec<u8>> = buckets
            .into_iter()
            .map(|b| {
                let mut buf = comm.frame(b.len() * R::BYTES);
                R::encode_slice(&b, &mut buf);
                buf
            })
            .collect();
        let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;
        // Sort what arrived and write it as one run (NOW-Sort's
        // receiver-side run formation).
        let mut run_data: Vec<R> = Vec::new();
        for buf in &received {
            R::decode_slice(buf, &mut run_data);
        }
        comm.recycle(received);
        received_total += run_data.len() as u64;
        if !run_data.is_empty() {
            let cpu = sort_in_node(&mut run_data, cores);
            rec.add_cpu(cpu);
            let mut w = RecordRunWriter::<R>::new(st, 0);
            w.push_all(&run_data)?;
            local_runs.push(w.finish()?);
        }
    }
    rec.finish_phase(Phase::RunFormation, st.counters(), comm.counters());

    // ---- Phase 2: local multiway merge of the received runs ----
    let inputs = local_runs.into_iter().map(MergeInput::whole).collect();
    let (output, merge_cpu) = final_merge::<R>(comm, st, inputs, RunDest::Scratch)?;
    rec.add_cpu(merge_cpu);
    rec.finish_phase(Phase::FinalMerge, st.counters(), comm.counters());

    let n = comm.allreduce_sum(received_total)?;
    let max_local = comm.allreduce_max(received_total)?;
    let imbalance = if n == 0 { 1.0 } else { max_local as f64 / (n as f64 / p as f64) };

    Ok(NowSortOutcome { output, local_elems: received_total, imbalance, phases: rec.into_stats() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ClusterStorage;
    use crate::recio::read_records;
    use crate::runform::ingest_input;
    use crate::validate::Fingerprint;
    use demsort_net::run_cluster;
    use demsort_types::{AlgoConfig, Element16, MachineConfig};
    use demsort_workloads::{generate_all, generate_pe_input, InputSpec};

    fn run_nowsort(
        p: usize,
        local_n: usize,
        spec: InputSpec,
    ) -> (Vec<Element16>, Vec<NowSortOutcome<Element16>>) {
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage_ref = &storage;
        let cfg2 = cfg.clone();
        let outcomes = run_cluster(p, move |c| {
            let st = storage_ref.pe(c.rank());
            let recs = generate_pe_input(spec, 31, c.rank(), p, local_n);
            let input = ingest_input(st, &recs).expect("ingest");
            nowsort::<Element16>(&c, st, &cfg2, input, 1).expect("nowsort")
        });
        let mut all = Vec::new();
        for (pe, o) in outcomes.iter().enumerate() {
            all.extend(
                read_records::<Element16>(storage.pe(pe), &o.output.run, o.output.elems)
                    .expect("read"),
            );
        }
        (all, outcomes)
    }

    #[test]
    fn sorts_uniform_input_with_good_balance() {
        let p = 4;
        let (got, outcomes) = run_nowsort(p, 800, InputSpec::Uniform);
        let mut reference = generate_all(InputSpec::Uniform, 31, p, 800);
        let checksum_in = Fingerprint::of_slice(&reference);
        reference.sort_unstable();
        let keys: Vec<u64> = got.iter().map(|e| e.key).collect();
        let ref_keys: Vec<u64> = reference.iter().map(|e| e.key).collect();
        assert_eq!(keys, ref_keys, "bucket concatenation is globally sorted");
        assert_eq!(Fingerprint::of_slice(&got), checksum_in);
        assert!(
            outcomes[0].imbalance < 1.3,
            "uniform input is near-balanced: {}",
            outcomes[0].imbalance
        );
    }

    #[test]
    fn degrades_to_sequential_on_skew() {
        // "In the worst case, it deteriorates to a sequential algorithm
        // since all the data ends up in a single processor."
        let p = 4;
        let (got, outcomes) = run_nowsort(p, 400, InputSpec::SkewedToOne);
        assert!(got.windows(2).all(|w| w[0].key <= w[1].key));
        assert!(
            (outcomes[0].imbalance - p as f64).abs() < 1e-9,
            "all data on one PE: imbalance {}",
            outcomes[0].imbalance
        );
        assert_eq!(outcomes[0].local_elems, 400 * p as u64, "PE 0 got everything");
        assert_eq!(outcomes[1].local_elems, 0);
    }

    #[test]
    fn partitioning_is_inexact_even_when_balanced() {
        // The paper's point versus sample/key-space methods: bucket
        // sizes only *approximate* N/P; exact splitting needs multiway
        // selection.
        let p = 4;
        let (_, outcomes) = run_nowsort(p, 1000, InputSpec::Uniform);
        let sizes: Vec<u64> = outcomes.iter().map(|o| o.local_elems).collect();
        assert!(sizes.iter().any(|&s| s != 1000), "key-space buckets are inexact: {sizes:?}");
    }

    #[test]
    fn empty_input_is_fine() {
        let (got, _) = run_nowsort(3, 0, InputSpec::Uniform);
        assert!(got.is_empty());
    }

    #[test]
    fn bucket_function_covers_and_orders() {
        let p = 7;
        assert_eq!(keyspace_bucket(&0u64, p), 0);
        assert_eq!(keyspace_bucket(&u64::MAX, p), p - 1);
        let mut prev = 0;
        for k in (0..64).map(|i| 1u64 << i) {
            let b = keyspace_bucket(&k, p);
            assert!(b >= prev && b < p);
            prev = b;
        }
    }
}
