//! MPI-style communicator over a pluggable [`Transport`].
//!
//! All collectives (barrier, broadcast, gather, allgather, reductions,
//! alltoallv) are built from point-to-point sends exactly as an MPI
//! implementation would, against the [`Transport`] contract (per-source
//! FIFO, non-blocking send). The same `Communicator` therefore runs
//! unchanged over the in-process channel mesh
//! ([`LocalTransport`](crate::transport::LocalTransport)) and the
//! multi-process TCP mesh ([`TcpTransport`](crate::tcp::TcpTransport)).
//!
//! ## Failure model
//!
//! Every operation that touches the transport returns
//! [`demsort_types::Result`]: a dead or silent peer surfaces as
//! [`Error::Comm`](demsort_types::Error) on the *surviving* ranks
//! within the transport's receive timeout — collectives never panic and
//! never hang forever. Callers (the SPMD algorithms in `demsort-core`)
//! propagate the error out of the sort, so each rank of a cluster job
//! ends with a per-rank `Result` instead of unwinding, and a worker
//! process can report a structured failure to its launcher. Unlike
//! MPI's default `MPI_ERRORS_ARE_FATAL`, this is the
//! `MPI_ERRORS_RETURN` world, end to end.
//!
//! All remote traffic is metered per peer into [`CommCounters`] — the
//! communication volumes reported in the paper's analysis (Section
//! IV-D) are read off these counters, and they are *transport
//! independent*: a TCP run and an in-process run of the same job report
//! identical message and byte totals.
//!
//! Self-messages short-circuit (a real MPI does a memcpy); they are not
//! counted as network traffic.
//!
//! Control-word collectives (`allgather_u64` and the reductions built
//! on it) encode on the stack and send borrowed bytes
//! ([`Transport::send_bytes`]), so the hot send path allocates no
//! per-message `Vec` on transports that serialize onto a wire; bulk
//! payload senders can do the same via [`encode_u64s_into`] plus a
//! reused buffer.

use crate::frames::FrameCounts;
use crate::transport::Transport;
use demsort_types::trace::TraceEv;
use demsort_types::{CommCounters, Error, Result, Tracer};
use std::borrow::Cow;
use std::cell::Cell;

/// Per-peer traffic cells (interior mutability: the communicator is
/// `!Sync`, owned by its PE).
#[derive(Default)]
struct PeerMeter {
    bytes_sent: Cell<u64>,
    bytes_recv: Cell<u64>,
    messages: Cell<u64>,
}

/// One PE's endpoint of the cluster interconnect.
///
/// Not `Sync`: a communicator belongs to its PE thread/process, like an
/// MPI rank.
pub struct Communicator {
    transport: Box<dyn Transport>,
    peers: Vec<PeerMeter>,
    /// Collectives entered so far (never sent anywhere).
    collectives: Cell<u64>,
    tracer: Tracer,
}

impl Communicator {
    /// Wrap a transport endpoint into a communicator.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        let peers = (0..transport.size()).map(|_| PeerMeter::default()).collect();
        Self { transport, peers, collectives: Cell::new(0), tracer: Tracer::off() }
    }

    /// Attach a tracer: every collective is recorded as an enter/exit
    /// span in this rank's journal. Trace output does not touch the
    /// transport, so tracing never changes the metered traffic.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This rank's tracer handle (the off tracer unless
    /// [`set_tracer`](Self::set_tracer) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Record `f` as a collective span, closing it on both the success
    /// and the error path, and count it.
    fn traced<T>(&self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        self.collectives.set(self.collectives.get() + 1);
        let ev = || TraceEv::Collective { name: std::borrow::Cow::Borrowed(name) };
        let span = self.tracer.begin(ev());
        let out = f();
        self.tracer.end(span, ev());
        out
    }

    /// This PE's rank (`0..size`).
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of PEs.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Traffic counters so far (sum over peers; self-traffic is free).
    pub fn counters(&self) -> CommCounters {
        let mut total = CommCounters::default();
        for p in &self.peers {
            total.bytes_sent += p.bytes_sent.get();
            total.bytes_recv += p.bytes_recv.get();
            total.messages += p.messages.get();
        }
        total
    }

    /// Collectives this rank has entered so far — one per traced
    /// collective, whatever it is built from (the reductions count as
    /// the allgather they are).
    pub fn collectives(&self) -> u64 {
        self.collectives.get()
    }

    /// Traffic exchanged with one peer (zeros for `peer == rank`).
    pub fn peer_counters(&self, peer: usize) -> CommCounters {
        let p = &self.peers[peer];
        CommCounters {
            bytes_sent: p.bytes_sent.get(),
            bytes_recv: p.bytes_recv.get(),
            messages: p.messages.get(),
        }
    }

    fn meter_send(&self, to: usize, bytes: usize) {
        if to != self.rank() {
            let p = &self.peers[to];
            p.bytes_sent.set(p.bytes_sent.get() + bytes as u64);
            p.messages.set(p.messages.get() + 1);
        }
    }

    /// Send `msg` to PE `to` (non-blocking; the transport buffers).
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if the peer's connection
    /// is gone — a dead peer fails the send, it does not abort the
    /// process.
    pub fn send(&self, to: usize, msg: Vec<u8>) -> Result<()> {
        self.meter_send(to, msg.len());
        self.transport.send(to, msg)
    }

    /// Send a borrowed message — wire transports copy straight into
    /// their buffered writer, no intermediate allocation.
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if the peer's connection
    /// is gone.
    pub fn send_bytes(&self, to: usize, msg: &[u8]) -> Result<()> {
        self.meter_send(to, msg.len());
        self.transport.send_bytes(to, msg)
    }

    /// Receive the next message from PE `from` (blocking, FIFO per
    /// source).
    ///
    /// Flushes buffered sends first, so blocking here can never
    /// deadlock on bytes parked in this PE's own write buffers; this is
    /// the transport's collective-boundary flush point.
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if the peer is gone or the
    /// transport's receive timeout elapses — a dead peer is an error on
    /// every surviving rank, never a hang (the fallible analogue of an
    /// MPI error handler aborting the job).
    pub fn recv(&self, from: usize) -> Result<Vec<u8>> {
        self.transport.flush()?;
        let msg = self.transport.recv(from)?;
        if from != self.rank() {
            let p = &self.peers[from];
            p.bytes_recv.set(p.bytes_recv.get() + msg.len() as u64);
        }
        Ok(msg)
    }

    /// A frame of `len` bytes to build a message in, contents
    /// unspecified: from the endpoint's list of long frames where one
    /// fits ([`FrameList::take`](crate::FrameList::take)). Hand it back
    /// with [`recycle`](Self::recycle) if it is not sent; an owned
    /// message that is sent goes back to the list of the endpoint that
    /// ends up holding it.
    pub fn frame(&self, len: usize) -> Vec<u8> {
        self.transport.frames().take(len)
    }

    /// Hand back frames whose bytes are used up — the messages a
    /// collective returned, or frames from [`frame`](Self::frame) that
    /// were not sent — for this endpoint to receive or build later
    /// messages in instead of allocating them afresh.
    pub fn recycle(&self, frames: impl IntoIterator<Item = Vec<u8>>) {
        for frame in frames {
            self.transport.frames().give(frame);
        }
    }

    /// Drop the long frames this endpoint keeps
    /// ([`FrameList::release`](crate::FrameList::release)) — at the end
    /// of a phase, whose messages the next phase's do not resemble.
    pub fn release_frames(&self) {
        self.transport.frames().release();
    }

    /// How this endpoint's long frames were obtained so far: reused
    /// from its list, or freshly allocated.
    pub fn frame_counts(&self) -> FrameCounts {
        self.transport.frames().counts()
    }

    /// Send one control word, encoded on the stack — no allocation.
    fn send_u64(&self, to: usize, x: u64) -> Result<()> {
        self.send_bytes(to, &x.to_le_bytes())
    }

    fn recv_u64(&self, from: usize) -> Result<u64> {
        let buf = self.recv(from)?;
        let word: [u8; 8] = buf.as_slice().try_into().map_err(|_| {
            Error::comm(format!(
                "rank {from} sent a {}-byte frame where an 8-byte control word was expected",
                buf.len()
            ))
        })?;
        Ok(u64::from_le_bytes(word))
    }

    // ---------------------------------------------------------------
    // Collectives
    // ---------------------------------------------------------------

    /// Dissemination barrier: `⌈log2 P⌉` rounds.
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if any round's partner is
    /// dead or silent past the receive timeout.
    pub fn barrier(&self) -> Result<()> {
        self.traced("barrier", || {
            let mut dist = 1;
            while dist < self.size() {
                let to = (self.rank() + dist) % self.size();
                let from = (self.rank() + self.size() - dist) % self.size();
                self.send_bytes(to, &[])?;
                let _ = self.recv(from)?;
                dist <<= 1;
            }
            Ok(())
        })
    }

    /// Broadcast `msg` from `root` to everyone (binomial tree,
    /// `⌈log2 P⌉` depth).
    ///
    /// In the rotated rank space (root = 0) the parent of `v > 0` is
    /// `v` with its lowest set bit cleared, and the children of `v` are
    /// `v + 2^k` for all `2^k` below that bit (all powers of two for
    /// the root).
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if a tree parent or child
    /// is unreachable.
    pub fn broadcast(&self, root: usize, msg: Vec<u8>) -> Result<Vec<u8>> {
        self.traced("broadcast", || {
            let size = self.size();
            let vrank = (self.rank() + size - root) % size;
            let data = if vrank == 0 {
                msg
            } else {
                let parent_v = vrank & (vrank - 1);
                self.recv((parent_v + root) % size)?
            };
            let child_bit_limit = if vrank == 0 { size } else { vrank & vrank.wrapping_neg() };
            let mut b = 1;
            while b < child_bit_limit {
                let child_v = vrank + b;
                if child_v < size {
                    self.send_bytes((child_v + root) % size, &data)?;
                }
                b <<= 1;
            }
            // The root and interior tree nodes end the collective on a
            // send: flush so children never wait on locally parked
            // frames.
            self.transport.flush()?;
            Ok(data)
        })
    }

    /// Gather everyone's `msg` at `root`; non-roots get an empty vec.
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if the root cannot reach a
    /// contributor (or a non-root cannot reach the root).
    #[allow(clippy::needless_range_loop)] // rank loop skips self by index
    pub fn gather(&self, root: usize, msg: Vec<u8>) -> Result<Vec<Vec<u8>>> {
        self.traced("gather", || {
            if self.rank() == root {
                let mut out = vec![Vec::new(); self.size()];
                out[root] = msg;
                for i in 0..self.size() {
                    if i != root {
                        out[i] = self.recv(i)?;
                    }
                }
                Ok(out)
            } else {
                self.send(root, msg)?;
                // Non-roots end the collective on a send: flush so the
                // root never waits on locally parked frames.
                self.transport.flush()?;
                Ok(Vec::new())
            }
        })
    }

    /// Bruck's allgather: `⌈log2 P⌉` rounds. In the round at distance
    /// `d` this rank sends the first `min(d, P − d)` blocks it holds
    /// (its own, then those of ranks `rank + 1, …`) to `rank − d`, one
    /// frame each, and gets as many from `rank + d`, which it holds after
    /// its own. Each rank sends `P − 1` frames of one block in all, as
    /// the ring did; the result is indexed by rank.
    fn bruck<T>(
        &self,
        mine: T,
        send: impl Fn(usize, &T) -> Result<()>,
        recv: impl Fn(usize) -> Result<T>,
    ) -> Result<Vec<T>> {
        let (me, size) = (self.rank(), self.size());
        let mut held = Vec::with_capacity(size);
        held.push(mine);
        let mut dist = 1;
        while dist < size {
            let n = dist.min(size - dist);
            for block in &held[..n] {
                send((me + size - dist) % size, block)?;
            }
            for _ in 0..n {
                held.push(recv((me + dist) % size)?);
            }
            dist <<= 1;
        }
        // `held[j]` is rank `me + j`'s block.
        held.rotate_right(me);
        Ok(held)
    }

    /// Allgather: everyone receives everyone's message, indexed by rank
    /// ([`bruck`](Self::bruck)).
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if a round's partner dies
    /// mid-collective.
    pub fn allgather(&self, msg: Vec<u8>) -> Result<Vec<Vec<u8>>> {
        self.traced("allgather", || {
            self.bruck(msg, |to, b| self.send_bytes(to, b), |from| self.recv(from))
        })
    }

    /// Allgather of one `u64` per PE ([`bruck`](Self::bruck) with
    /// stack-encoded words — no per-message allocation on wire
    /// transports).
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) on a dead round partner
    /// or a malformed (non-8-byte) control frame.
    pub fn allgather_u64(&self, x: u64) -> Result<Vec<u64>> {
        self.traced("allgather_u64", || {
            self.bruck(x, |to, &w| self.send_u64(to, w), |from| self.recv_u64(from))
        })
    }

    /// Element-wise sum of one `u64` vector per PE (an
    /// [`allgather`](Self::allgather) of the vectors).
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) on a failed allgather, or a
    /// peer's vector of another length, naming the peer.
    pub fn allreduce_sum_u64s(&self, xs: &[u64]) -> Result<Vec<u64>> {
        let mut sum = vec![0u64; xs.len()];
        for (src, buf) in self.allgather(encode_u64s(xs))?.iter().enumerate() {
            if buf.len() != 8 * xs.len() {
                return Err(Error::comm(format!(
                    "rank {}: rank {src} sent {} bytes to a sum of {} words",
                    self.rank(),
                    buf.len(),
                    xs.len()
                )));
            }
            for (s, x) in sum.iter_mut().zip(decode_u64s(buf)?) {
                *s = s.wrapping_add(x);
            }
        }
        Ok(sum)
    }

    /// Allreduce of a `u64` with an associative, commutative `op`.
    ///
    /// # Errors
    /// Propagates the underlying [`allgather_u64`](Self::allgather_u64)
    /// failure.
    pub fn allreduce_u64(&self, x: u64, op: impl Fn(u64, u64) -> u64) -> Result<u64> {
        Ok(self.allgather_u64(x)?.into_iter().reduce(&op).expect("size >= 1"))
    }

    /// Sum-allreduce convenience.
    ///
    /// # Errors
    /// See [`allreduce_u64`](Self::allreduce_u64).
    pub fn allreduce_sum(&self, x: u64) -> Result<u64> {
        self.allreduce_u64(x, |a, b| a.wrapping_add(b))
    }

    /// Max-allreduce convenience.
    ///
    /// # Errors
    /// See [`allreduce_u64`](Self::allreduce_u64).
    pub fn allreduce_max(&self, x: u64) -> Result<u64> {
        self.allreduce_u64(x, |a, b| a.max(b))
    }

    /// Personalized all-to-all: `msgs[j]` goes to PE `j`; returns what
    /// each PE sent us, indexed by source rank.
    ///
    /// A message is owned (`Vec<u8>`, moved to an in-process receiver
    /// and, over TCP, handed back to this endpoint's frames once it is
    /// written) or borrowed (`&[u8]`, written to the socket from where
    /// it lies, or copied once into a frame in-process).
    ///
    /// Sends happen before receives; unbounded transport buffering
    /// makes this deadlock-free without MPI's internal buffering
    /// concerns.
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if any destination is
    /// unreachable or any source goes silent past the receive timeout.
    #[allow(clippy::needless_range_loop)] // rank loop skips self by index
    pub fn alltoallv<'a, M: Into<Cow<'a, [u8]>>>(&self, msgs: Vec<M>) -> Result<Vec<Vec<u8>>> {
        assert_eq!(msgs.len(), self.size(), "need exactly one message per PE");
        self.traced("alltoallv", || {
            let mut out = vec![Vec::new(); self.size()];
            for (j, m) in msgs.into_iter().enumerate() {
                match m.into() {
                    // Self-delivery without the transport round-trip.
                    Cow::Owned(m) if j == self.rank() => out[j] = m,
                    Cow::Borrowed(m) if j == self.rank() => {
                        out[j] = self.transport.frames().gather(&[m]);
                    }
                    Cow::Owned(m) => self.send(j, m)?,
                    Cow::Borrowed(m) => self.send_bytes(j, m)?,
                }
            }
            for i in 0..self.size() {
                if i != self.rank() {
                    out[i] = self.recv(i)?;
                }
            }
            Ok(out)
        })
    }
}

/// Encode a `u64` slice little-endian into a fresh buffer.
pub fn encode_u64s(xs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * 8);
    encode_u64s_into(xs, &mut out);
    out
}

/// Encode a `u64` slice little-endian into `out` (cleared first) —
/// reuse one buffer across messages to skip the per-message allocation.
pub fn encode_u64s_into(xs: &[u64], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(xs.len() * 8);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Decode a little-endian `u64` buffer into a fresh vector.
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) if the buffer length is not a
/// multiple of 8 — a peer's protocol violation must never panic the
/// receiver.
pub fn decode_u64s(buf: &[u8]) -> Result<Vec<u64>> {
    let mut out = Vec::with_capacity(buf.len() / 8);
    decode_u64s_into(buf, &mut out)?;
    Ok(out)
}

/// Decode a little-endian `u64` buffer into `out` (cleared first).
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) if the buffer length is not a
/// multiple of 8.
pub fn decode_u64s_into(buf: &[u8], out: &mut Vec<u64>) -> Result<()> {
    if !buf.len().is_multiple_of(8) {
        return Err(Error::comm(format!(
            "u64 buffer of {} bytes is not a whole number of control words",
            buf.len()
        )));
    }
    out.clear();
    out.reserve(buf.len() / 8);
    out.extend(buf.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cluster;

    #[test]
    fn u64_codec_roundtrip() {
        let xs = vec![0u64, 1, u64::MAX, 0xDEAD_BEEF];
        assert_eq!(decode_u64s(&encode_u64s(&xs)).expect("aligned"), xs);
    }

    #[test]
    fn u64_codec_rejects_misaligned_buffers() {
        assert!(matches!(decode_u64s(&[1, 2, 3]), Err(demsort_types::Error::Comm(_))));
        let mut out = vec![7u64];
        assert!(decode_u64s_into(&[0; 9], &mut out).is_err());
    }

    #[test]
    fn u64_codec_reuses_buffers() {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        for xs in [vec![1u64, 2, 3], vec![u64::MAX], vec![]] {
            encode_u64s_into(&xs, &mut buf);
            assert_eq!(buf.len(), xs.len() * 8);
            decode_u64s_into(&buf, &mut out).expect("aligned");
            assert_eq!(out, xs);
        }
    }

    #[test]
    fn p2p_send_recv() {
        let results = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send(1, vec![1, 2, 3]).expect("send");
                c.recv(1).expect("recv")
            } else {
                let got = c.recv(0).expect("recv");
                c.send(0, vec![9]).expect("send");
                got
            }
        });
        assert_eq!(results[0], vec![9]);
        assert_eq!(results[1], vec![1, 2, 3]);
    }

    #[test]
    fn barrier_all_sizes() {
        for p in 1..=9 {
            run_cluster(p, |c| {
                for _ in 0..3 {
                    c.barrier().expect("barrier");
                }
            });
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in 1..=8 {
            for root in 0..p {
                let results = run_cluster(p, move |c| {
                    let msg = if c.rank() == root { vec![42, root as u8] } else { Vec::new() };
                    c.broadcast(root, msg).expect("broadcast")
                });
                for r in results {
                    assert_eq!(r, vec![42, root as u8]);
                }
            }
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        for p in 1..=8 {
            let results = run_cluster(p, |c| {
                c.allgather(vec![c.rank() as u8; c.rank() + 1]).expect("gather")
            });
            for r in results {
                for (i, m) in r.iter().enumerate() {
                    assert_eq!(m, &vec![i as u8; i + 1]);
                }
            }
        }
    }

    #[test]
    fn allgather_takes_log_p_rounds_and_sends_p_minus_1_blocks() {
        // Bruck: a PE sends to ⌈log2 P⌉ peers (rank − 1, − 2, − 4, …),
        // P − 1 frames of one block in all — the ring's bytes and
        // messages, in ⌈log2 P⌉ hops instead of P − 1.
        for p in 1..=9usize {
            let results = run_cluster(p, move |c| {
                let _ = c.allgather(vec![7; 5]).expect("allgather");
                let _ = c.allgather_u64(7).expect("allgather_u64");
                let sent_to = (0..p).filter(|&j| c.peer_counters(j).messages > 0).count();
                (c.counters(), sent_to, c.collectives())
            });
            let hops = p.next_power_of_two().trailing_zeros() as usize;
            for (counters, sent_to, collectives) in results {
                assert_eq!(counters.messages, 2 * (p as u64 - 1), "P = {p}");
                assert_eq!(counters.bytes_sent, 13 * (p as u64 - 1), "P = {p}");
                assert_eq!(sent_to, hops, "P = {p}");
                assert_eq!(collectives, 2, "P = {p}");
            }
        }
    }

    #[test]
    fn vector_sum_adds_elementwise_and_names_a_short_peer() {
        let results = run_cluster(4, |c| {
            let r = c.rank() as u64;
            let sum = c.allreduce_sum_u64s(&[r, 10 * r, 1]).expect("sum");
            // Rank 2 sends one word short.
            let bad = if c.rank() == 2 { vec![0; 2] } else { vec![0; 3] };
            (sum, c.allreduce_sum_u64s(&bad))
        });
        for (rank, (sum, bad)) in results.into_iter().enumerate() {
            assert_eq!(sum, vec![6, 60, 4]);
            let err = bad.expect_err("lengths differ").to_string();
            let blamed = if rank == 2 { "rank 0 sent 24 bytes" } else { "rank 2 sent 16 bytes" };
            assert!(err.contains(&format!("rank {rank}: {blamed}")), "{err}");
        }
    }

    #[test]
    fn reductions_and_scan() {
        let results = run_cluster(5, |c| {
            let sum = c.allreduce_sum(c.rank() as u64 + 1).expect("sum");
            let max = c.allreduce_max(c.rank() as u64).expect("max");
            (sum, max)
        });
        for (sum, max) in results {
            assert_eq!(sum, 15);
            assert_eq!(max, 4);
        }
    }

    #[test]
    fn alltoallv_permutes() {
        let p = 6;
        let results = run_cluster(p, move |c| {
            let msgs: Vec<Vec<u8>> = (0..p).map(|j| vec![c.rank() as u8, j as u8, 7]).collect();
            c.alltoallv(msgs).expect("alltoallv")
        });
        for (me, r) in results.into_iter().enumerate() {
            for (src, m) in r.into_iter().enumerate() {
                assert_eq!(m, vec![src as u8, me as u8, 7]);
            }
        }
    }

    #[test]
    fn dead_peer_fails_the_collective_with_comm_error() {
        // Rank 1 exits before the barrier; rank 0's barrier must return
        // Error::Comm instead of panicking or hanging.
        let results = run_cluster(2, |c| {
            if c.rank() == 1 {
                return Ok(());
            }
            c.barrier()
        });
        assert!(results[1].is_ok());
        let err = results[0].as_ref().expect_err("dead peer must fail the barrier");
        assert!(matches!(err, demsort_types::Error::Comm(_)), "{err}");
    }

    #[test]
    fn counters_meter_remote_traffic_only() {
        let results = run_cluster(2, |c| {
            c.send(c.rank(), vec![0; 100]).expect("self send"); // self: free
            let _ = c.recv(c.rank()).expect("self recv");
            c.send(1 - c.rank(), vec![0; 50]).expect("send");
            let _ = c.recv(1 - c.rank()).expect("recv");
            c.counters()
        });
        for c in results {
            assert_eq!(c.bytes_sent, 50);
            assert_eq!(c.bytes_recv, 50);
            assert_eq!(c.messages, 1);
        }
    }

    #[test]
    fn collectives_emit_enter_exit_spans() {
        use demsort_types::trace::{validate_rank_journal, TraceEv};
        use demsort_types::Tracer;
        let results = run_cluster(3, |mut c| {
            let rank = c.rank();
            c.set_tracer(Tracer::to_buffer(rank));
            c.barrier().expect("barrier");
            let _ = c.allreduce_sum(1).expect("sum");
            (c.tracer().clone().drain(), c.counters())
        });
        // Same job untraced: tracing must not change the metered traffic.
        let untraced = run_cluster(3, |c| {
            c.barrier().expect("barrier");
            let _ = c.allreduce_sum(1).expect("sum");
            c.counters()
        });
        for (rank, (recs, counters)) in results.into_iter().enumerate() {
            assert_eq!(counters, untraced[rank], "rank {rank} metering changed");
            validate_rank_journal(&recs).expect("valid journal");
            assert!(recs.iter().all(|r| r.rank == rank));
            let names: Vec<String> = recs
                .iter()
                .filter_map(|r| match (&r.op, &r.ev) {
                    (demsort_types::trace::TraceOp::Begin(_), TraceEv::Collective { name }) => {
                        Some(name.to_string())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(names, vec!["barrier".to_string(), "allgather_u64".to_string()]);
        }
    }

    #[test]
    fn per_peer_metering_sums_to_totals() {
        let p = 3;
        let results = run_cluster(p, move |c| {
            // Send j+1 bytes to each peer j; receive theirs.
            for j in 0..p {
                if j != c.rank() {
                    c.send(j, vec![0; j + 1]).expect("send");
                }
            }
            for j in 0..p {
                if j != c.rank() {
                    let _ = c.recv(j).expect("recv");
                }
            }
            (0..p).map(|j| c.peer_counters(j)).collect::<Vec<_>>()
        });
        for (me, peers) in results.into_iter().enumerate() {
            let mut sum = CommCounters::default();
            for (j, pc) in peers.iter().enumerate() {
                if j == me {
                    assert_eq!(*pc, CommCounters::default(), "self-traffic is free");
                } else {
                    assert_eq!(pc.bytes_sent, j as u64 + 1, "PE {me} -> {j}");
                    assert_eq!(pc.bytes_recv, me as u64 + 1, "PE {me} <- {j}");
                    assert_eq!(pc.messages, 1);
                }
                sum = sum.merge(pc);
            }
            let expect_sent: u64 = (0..p).filter(|&j| j != me).map(|j| j as u64 + 1).sum();
            assert_eq!(sum.bytes_sent, expect_sent);
        }
    }
}
