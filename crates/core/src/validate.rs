//! Distributed output validation (valsort-style, but collective).
//!
//! A distributed sort is correct iff
//!
//! 1. every PE's output is locally key-sorted,
//! 2. the last key of PE `i` ≤ the first key of PE `i+1` (canonical
//!    output format), and
//! 3. the multiset of records is a permutation of the input — checked
//!    with an order-independent fingerprint (count + wrapping sum of
//!    per-record hashes), which detects loss, duplication, and
//!    mutation with probability `1 − 2^-64`-ish.
//!
//! Validation streams the output from disk (it never needs the whole
//! output in memory) and is itself a collective operation.

use crate::recio::{FinishedRun, RecordRunReader};
use demsort_net::Communicator;
use demsort_storage::PeStorage;
use demsort_types::wire::{from_peer, WireReader};
use demsort_types::{Error, Record, Result};

/// Order-independent record-stream fingerprint.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Records absorbed.
    pub count: u64,
    /// Wrapping sum of record hashes.
    pub sum: u64,
}

impl Fingerprint {
    /// Absorb one record.
    pub fn add<R: Record>(&mut self, rec: &R) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hash_record(rec));
    }

    /// Fingerprint of a record slice.
    pub fn of_slice<R: Record>(recs: &[R]) -> Self {
        let mut f = Self::default();
        for r in recs {
            f.add(r);
        }
        f
    }
}

/// Hash a record by its encoded bytes (stable across phases and PEs).
pub fn hash_record<R: Record>(rec: &R) -> u64 {
    let mut buf = [0u8; 128];
    debug_assert!(R::BYTES <= 128, "record larger than the hash buffer");
    rec.encode(&mut buf[..R::BYTES]);
    let mut h = 0x243F_6A88_85A3_08D3u64; // pi digits, arbitrary seed
    for chunk in buf[..R::BYTES].chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(b));
    }
    h
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result of a collective validation (identical on every PE).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ValidationReport {
    /// Global element count.
    pub elements: u64,
    /// Every PE's output was locally sorted.
    pub locally_sorted: bool,
    /// All cross-PE boundaries were ordered.
    pub boundaries_ordered: bool,
    /// Global output fingerprint (compare with the input's).
    pub fingerprint: Fingerprint,
}

impl ValidationReport {
    /// `true` iff the output is a correct canonical sort of an input
    /// with fingerprint `input`.
    pub fn is_valid_sort_of(&self, input: Fingerprint) -> bool {
        self.locally_sorted && self.boundaries_ordered && self.fingerprint == input
    }
}

/// Validate this PE's output run collectively. Streams from disk.
pub fn validate_output<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    output: &FinishedRun<R>,
) -> Result<ValidationReport> {
    let mut reader = RecordRunReader::<R>::new(st, &output.run, output.elems);
    let mut fp = Fingerprint::default();
    let mut sorted = true;
    let mut first: Option<R> = None;
    let mut last: Option<R> = None;
    while let Some(rec) = reader.next_rec()? {
        if let Some(prev) = &last {
            if prev.key() > rec.key() {
                sorted = false;
            }
        }
        if first.is_none() {
            first = Some(rec);
        }
        fp.add(&rec);
        last = Some(rec);
    }

    // Exchange (nonempty, first, last) and check boundary order over
    // the nonempty PEs in rank order.
    let mut msg = vec![0u8; 1 + 2 * R::BYTES];
    if let (Some(f), Some(l)) = (&first, &last) {
        msg[0] = 1;
        f.encode(&mut msg[1..1 + R::BYTES]);
        l.encode(&mut msg[1 + R::BYTES..]);
    }
    let gathered = comm.allgather(msg)?;
    let mut boundaries_ordered = true;
    let mut prev_last: Option<R::Key> = None;
    for (src, buf) in gathered.iter().enumerate() {
        let bad = |e: Error| from_peer(comm.rank(), src, "output boundary", e);
        let mut r = WireReader::new(buf);
        let nonempty = r.field("nonempty flag").bool().map_err(bad)?;
        let first = r.field("first record").raw(R::BYTES).map_err(bad)?;
        let last = r.field("last record").raw(R::BYTES).map_err(bad)?;
        if nonempty {
            boundaries_ordered &= prev_last.is_none_or(|pl| pl <= R::decode(first).key());
            prev_last = Some(R::decode(last).key());
        }
    }

    let count = comm.allreduce_sum(fp.count)?;
    Ok(ValidationReport {
        elements: count,
        locally_sorted: comm.allreduce_and(sorted)?,
        boundaries_ordered,
        fingerprint: Fingerprint {
            count,
            sum: comm.allreduce_u64(fp.sum, |a, b| a.wrapping_add(b))?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::sort_cluster;
    use crate::recio::write_records;
    use demsort_net::run_cluster;
    use demsort_storage::{DiskModel, MemBackend};
    use demsort_types::{AlgoConfig, Element16, MachineConfig, SortConfig};
    use demsort_workloads::{generate_pe_input, InputSpec};
    use std::sync::Arc;

    #[test]
    fn fingerprint_is_order_independent_and_sensitive() {
        let a: Vec<Element16> = (0..100).map(|i| Element16::new(i * 7, i)).collect();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(Fingerprint::of_slice(&a), Fingerprint::of_slice(&b));
        let mut c = a.clone();
        c[5].payload ^= 1;
        assert_ne!(Fingerprint::of_slice(&a), Fingerprint::of_slice(&c));
        assert_ne!(Fingerprint::of_slice(&a), Fingerprint::of_slice(&a[..99]));
    }

    #[test]
    fn checksum_detects_mutation_duplication_loss() {
        let a: Vec<Element16> = (0..50).map(|i| Element16::new(i, i)).collect();
        let base = Fingerprint::of_slice(&a);

        let mut changed = a.clone();
        changed[3].key ^= 1;
        assert_ne!(Fingerprint::of_slice(&changed), base, "mutation");

        let mut duped = a.clone();
        duped[10] = duped[11];
        assert_ne!(Fingerprint::of_slice(&duped), base, "duplication");

        assert_ne!(Fingerprint::of_slice(&a[..49]), base, "loss");
    }

    #[test]
    fn fingerprints_merge_like_concatenation() {
        // What `validate_output`'s reductions compute from the PEs'
        // parts is the fingerprint of the whole.
        let a: Vec<Element16> = (0..30).map(|i| Element16::new(i, 0)).collect();
        let (head, tail) = (Fingerprint::of_slice(&a[..13]), Fingerprint::of_slice(&a[13..]));
        let merged =
            Fingerprint { count: head.count + tail.count, sum: head.sum.wrapping_add(tail.sum) };
        assert_eq!(Fingerprint::of_slice(&a), merged);
    }

    #[test]
    fn record100_checksum_sensitive_to_payload() {
        let a = demsort_workloads::gensort_record(0, 1);
        let mut b = a;
        b.payload[50] ^= 0xFF;
        assert_ne!(Fingerprint::of_slice(&[a]), Fingerprint::of_slice(&[b]));
    }

    #[test]
    fn validates_a_correct_sort() {
        let p = 3;
        let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
        let outcome = sort_cluster::<Element16, _>(&cfg, |pe, p| {
            generate_pe_input(InputSpec::Uniform, 5, pe, p, 500)
        })
        .expect("sort");
        let input_fp = {
            let mut f = Fingerprint::default();
            for pe in 0..p {
                for r in generate_pe_input(InputSpec::Uniform, 5, pe, p, 500) {
                    f.add(&r);
                }
            }
            f
        };
        let storage = &outcome.storage;
        let outputs: Vec<_> = outcome.per_pe.iter().map(|o| o.output.clone()).collect();
        let outputs = &outputs;
        let reports = run_cluster(p, move |c| {
            validate_output::<Element16>(&c, storage.pe(c.rank()), &outputs[c.rank()])
                .expect("validate")
        });
        for r in &reports {
            assert_eq!(*r, reports[0], "all PEs agree");
            assert!(r.is_valid_sort_of(input_fp));
            assert_eq!(r.elements, 1500);
        }
    }

    #[test]
    fn detects_unsorted_output() {
        let p = 2;
        let cfg = MachineConfig::tiny(p);
        let storages: Vec<_> = (0..p)
            .map(|_| {
                demsort_storage::PeStorage::with_backend(
                    cfg.disks_per_pe,
                    cfg.block_bytes,
                    DiskModel::paper(),
                    Arc::new(MemBackend::new(cfg.disks_per_pe)),
                )
            })
            .collect();
        let storages = &storages;
        let reports = run_cluster(p, move |c| {
            let recs: Vec<Element16> = if c.rank() == 0 {
                vec![Element16::new(5, 0), Element16::new(3, 1)] // unsorted!
            } else {
                vec![Element16::new(9, 2)]
            };
            let fr = write_records(&storages[c.rank()], &recs).expect("write");
            validate_output::<Element16>(&c, &storages[c.rank()], &fr).expect("validate")
        });
        assert!(!reports[0].locally_sorted);
    }

    #[test]
    fn detects_misordered_boundaries() {
        let p = 2;
        let cfg = MachineConfig::tiny(p);
        let storages: Vec<_> = (0..p)
            .map(|_| {
                demsort_storage::PeStorage::with_backend(
                    cfg.disks_per_pe,
                    cfg.block_bytes,
                    DiskModel::paper(),
                    Arc::new(MemBackend::new(cfg.disks_per_pe)),
                )
            })
            .collect();
        let storages = &storages;
        let reports = run_cluster(p, move |c| {
            // PE 0 holds keys {10, 20}; PE 1 holds {15} → boundary
            // violation although both are locally sorted.
            let recs: Vec<Element16> = if c.rank() == 0 {
                vec![Element16::new(10, 0), Element16::new(20, 1)]
            } else {
                vec![Element16::new(15, 2)]
            };
            let fr = write_records(&storages[c.rank()], &recs).expect("write");
            validate_output::<Element16>(&c, &storages[c.rank()], &fr).expect("validate")
        });
        assert!(reports[0].locally_sorted);
        assert!(!reports[0].boundaries_ordered);
    }

    #[test]
    fn boundary_allgather_rejects_short_messages() {
        // Rank 1 sends the empty message or a strict prefix of its
        // `[nonempty][first][last]` boundary instead of the whole.
        let cfg = MachineConfig::tiny(2);
        let whole = [1u8; 1 + 2 * Element16::BYTES];
        for cut in 0..whole.len() {
            let msg = &whole[..cut];
            let results = run_cluster(2, move |c| {
                if c.rank() == 1 {
                    c.allgather(msg.to_vec()).expect("peer sends");
                    return None;
                }
                let st = demsort_storage::PeStorage::with_backend(
                    cfg.disks_per_pe,
                    cfg.block_bytes,
                    DiskModel::paper(),
                    Arc::new(MemBackend::new(cfg.disks_per_pe)),
                );
                let fr = write_records(&st, &[Element16::new(1, 0)]).expect("write");
                Some(validate_output::<Element16>(&c, &st, &fr))
            });
            let err = results[0].clone().expect("rank 0").expect_err("short boundary");
            let text = err.to_string();
            assert!(matches!(err, Error::Comm(_)), "{text}");
            assert!(text.contains("rank 0: bad output boundary from rank 1"), "{text}");
            let field = match cut {
                0 => "nonempty flag",
                c if c <= Element16::BYTES => "first record",
                _ => "last record",
            };
            assert!(text.contains(field), "cut {cut}: {text}");
        }
    }

    #[test]
    fn empty_pes_are_skipped_in_boundary_check() {
        let p = 3;
        let cfg = MachineConfig::tiny(p);
        let storages: Vec<_> = (0..p)
            .map(|_| {
                demsort_storage::PeStorage::with_backend(
                    cfg.disks_per_pe,
                    cfg.block_bytes,
                    DiskModel::paper(),
                    Arc::new(MemBackend::new(cfg.disks_per_pe)),
                )
            })
            .collect();
        let storages = &storages;
        let reports = run_cluster(p, move |c| {
            // PE 1 is empty; 0 and 2 are ordered.
            let recs: Vec<Element16> = match c.rank() {
                0 => vec![Element16::new(1, 0)],
                2 => vec![Element16::new(2, 1)],
                _ => Vec::new(),
            };
            let fr = write_records(&storages[c.rank()], &recs).expect("write");
            validate_output::<Element16>(&c, &storages[c.rank()], &fr).expect("validate")
        });
        assert!(reports[0].locally_sorted && reports[0].boundaries_ordered);
        assert_eq!(reports[0].elements, 2);
    }
}
