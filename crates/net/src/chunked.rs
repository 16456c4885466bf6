//! Chunked all-to-all: the paper's `MPI_Alltoallv` re-implementation.
//!
//! "Unfortunately, in MPI, data volumes are specified using 32-bit
//! signed integers. This means that no data volume greater than 2 GiB
//! can be passed to MPI routines. We have re-implemented
//! `MPI_Alltoallv` to break this barrier." (Section V)
//!
//! [`chunked_alltoallv`] splits every pairwise message into chunks of
//! at most `limit` bytes, runs one plain alltoallv per chunk round, and
//! reassembles on the receiver. The default limit is the real MPI
//! `i32` barrier; tests use tiny limits to exercise multi-round
//! reassembly.
//!
//! When the largest message anywhere fits one round — every exchange
//! the binaries make, a run piece being at most `m` — nothing is split
//! or reassembled: the message vectors go to
//! [`Communicator::alltoallv`] as they are, so over the in-process mesh
//! the receiver holds the very allocation the sender filled, and over
//! TCP the payload is written to the socket from it.

use crate::comm::Communicator;
use demsort_types::Result;

/// The 2 GiB (`i32::MAX`) volume limit of classic MPI interfaces.
pub const MPI_VOLUME_LIMIT: usize = i32::MAX as usize;

/// All-to-all of arbitrarily large messages by splitting into rounds of
/// at most `limit` bytes per pairwise message.
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) if a peer dies or goes silent
/// in any round (the allreduce agreeing on the round count included) —
/// every surviving rank gets the error, none hangs.
pub fn chunked_alltoallv(
    comm: &Communicator,
    msgs: Vec<Vec<u8>>,
    limit: usize,
) -> Result<Vec<Vec<u8>>> {
    assert!(limit > 0, "chunk limit must be positive");
    let p = comm.size();
    assert_eq!(msgs.len(), p);

    // Everyone must agree on the number of rounds: the global maximum
    // pairwise message decides.
    let local_max = msgs.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let global_max = comm.allreduce_max(local_max)? as usize;
    let rounds = global_max.div_ceil(limit).max(1);
    if rounds == 1 {
        return comm.alltoallv(msgs);
    }

    let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
    let mut offsets = vec![0usize; p];
    for _ in 0..rounds {
        let round_msgs: Vec<Vec<u8>> = msgs
            .iter()
            .enumerate()
            .map(|(j, m)| {
                let start = offsets[j].min(m.len());
                let end = (start + limit).min(m.len());
                m[start..end].to_vec()
            })
            .collect();
        for (j, m) in round_msgs.iter().enumerate() {
            offsets[j] += m.len();
        }
        let received = comm.alltoallv(round_msgs)?;
        for (src, part) in received.into_iter().enumerate() {
            out[src].extend_from_slice(&part);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cluster;

    fn payload(src: usize, dst: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (src * 31 + dst * 7 + i) as u8).collect()
    }

    #[test]
    fn reassembles_across_many_rounds() {
        let p = 4;
        for limit in [1usize, 3, 16, 1000] {
            let results = run_cluster(p, move |c| {
                let msgs: Vec<Vec<u8>> =
                    (0..p).map(|j| payload(c.rank(), j, 10 + 13 * j)).collect();
                chunked_alltoallv(&c, msgs, limit).expect("alltoallv")
            });
            for (me, r) in results.into_iter().enumerate() {
                for (src, m) in r.into_iter().enumerate() {
                    assert_eq!(m, payload(src, me, 10 + 13 * me), "limit {limit}");
                }
            }
        }
    }

    #[test]
    fn empty_and_skewed_messages() {
        let p = 3;
        let results = run_cluster(p, move |c| {
            // only rank 0 sends anything, and only to rank 2
            let mut msgs = vec![Vec::new(); p];
            if c.rank() == 0 {
                msgs[2] = vec![5u8; 100];
            }
            chunked_alltoallv(&c, msgs, 7).expect("alltoallv")
        });
        assert!(results[0].iter().all(|m| m.is_empty()));
        assert!(results[1].iter().all(|m| m.is_empty()));
        assert_eq!(results[2][0], vec![5u8; 100]);
        assert!(results[2][1].is_empty());
        assert!(results[2][2].is_empty());
    }

    #[test]
    fn all_empty_still_one_round() {
        let results =
            run_cluster(2, |c| chunked_alltoallv(&c, vec![Vec::new(); 2], 8).expect("alltoallv"));
        for r in results {
            assert!(r.iter().all(|m| m.is_empty()));
        }
    }

    #[test]
    fn single_round_hands_the_buffers_over_untouched() {
        // One round suffices: over the in-process mesh every buffer
        // must arrive at the address it was sent from — not a copy of
        // it — the one a rank sends to itself included.
        for p in [1usize, 2, 3] {
            let results = run_cluster(p, move |c| {
                let msgs: Vec<Vec<u8>> = (0..p).map(|j| payload(c.rank(), j, 40 + j)).collect();
                let sent: Vec<usize> = msgs.iter().map(|m| m.as_ptr() as usize).collect();
                let out = chunked_alltoallv(&c, msgs, MPI_VOLUME_LIMIT).expect("alltoallv");
                let got: Vec<usize> = out.iter().map(|m| m.as_ptr() as usize).collect();
                (sent, got, out)
            });
            for (me, (_, got, out)) in results.iter().enumerate() {
                for src in 0..p {
                    assert_eq!(out[src], payload(src, me, 40 + me), "P={p}: {src} -> {me}");
                    assert_eq!(got[src], results[src].0[me], "P={p}: {src} -> {me} was copied");
                }
            }
        }
    }

    #[test]
    fn dead_peer_fails_surviving_ranks() {
        // Rank 2 exits before the exchange: the survivors' collective
        // must return Error::Comm, not panic and not hang.
        let p = 3;
        let results = run_cluster(p, move |c| {
            if c.rank() == 2 {
                return Ok(Vec::new());
            }
            let msgs = vec![vec![1u8; 32]; p];
            chunked_alltoallv(&c, msgs, 8)
        });
        assert!(results[2].is_ok());
        for r in &results[..2] {
            let err = r.as_ref().expect_err("survivors must see the failure");
            assert!(matches!(err, demsort_types::Error::Comm(_)), "{err}");
        }
    }

    #[test]
    fn volume_limit_boundary_roundtrips_on_both_transports() {
        // Off-by-one guard at the volume limit: a payload of exactly
        // `limit` bytes must fit one round; `limit + 1` must split into
        // two and reassemble byte-exactly. Run the identical job over
        // the in-process mesh and the TCP loopback mesh (the real MPI
        // limit is `i32::MAX`; the chunking logic is size-agnostic, so
        // a small limit exercises the same boundary arithmetic).
        let p = 3;
        let limit = 1usize << 12;
        for extra in [0usize, 1] {
            let job = move |c: crate::Communicator| {
                // rank 0 sends a boundary-sized payload to rank 2;
                // everything else stays small/empty.
                let mut msgs = vec![Vec::new(); p];
                if c.rank() == 0 {
                    msgs[2] = payload(0, 2, limit + extra);
                    msgs[1] = vec![9u8; 3];
                }
                let before = c.counters().messages;
                let out = chunked_alltoallv(&c, msgs, limit).expect("alltoallv");
                (out, c.counters().messages - before)
            };
            let local = crate::cluster::run_cluster(p, job);
            let tcp = crate::cluster::run_cluster_tcp(p, job);
            for (transport, results) in [("local", &local), ("tcp", &tcp)] {
                let (out2, _) = &results[2];
                assert_eq!(
                    out2[0],
                    payload(0, 2, limit + extra),
                    "{transport}: limit+{extra} payload must reassemble"
                );
                assert!(out2[1].is_empty() && out2[2].is_empty());
                let (out1, _) = &results[1];
                assert_eq!(out1[0], vec![9u8; 3], "{transport}: small payload rides along");
            }
            // At the limit: one alltoall round; one byte over: two.
            // Each round costs every PE P-1 sends plus the allreduce's
            // ring traffic — identical across transports.
            let rounds_msgs_local = local[0].1;
            let rounds_msgs_tcp = tcp[0].1;
            assert_eq!(
                rounds_msgs_local, rounds_msgs_tcp,
                "message counts must be transport-independent (extra {extra})"
            );
            let expect_rounds = 1 + extra as u64;
            // allgather_u64 ring: P-1 sends per PE; each alltoallv
            // round: P-1 sends per PE.
            assert_eq!(
                rounds_msgs_local,
                (p as u64 - 1) * (1 + expect_rounds),
                "round count off-by-one at the volume limit (extra {extra})"
            );
        }
    }
}
