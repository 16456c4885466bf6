//! The pluggable cluster transport: point-to-point byte frames with
//! per-source FIFO ordering.
//!
//! [`Communicator`](crate::Communicator) builds every MPI-style
//! collective from this interface, so swapping the transport swaps the
//! *cluster substrate* under every algorithm unchanged:
//!
//! * [`LocalTransport`] — the original in-process channel mesh (one PE
//!   per thread). This is the MVAPICH-over-shared-memory analogue: zero
//!   copies cross the kernel, a "send" is a channel push.
//! * [`TcpTransport`](crate::tcp::TcpTransport) — one PE per OS
//!   process, a full `P × P` socket mesh over TCP. This is the paper's
//!   actual deployment shape (200 nodes, MVAPICH over InfiniBand), with
//!   TCP standing in for the interconnect.
//!
//! The contract mirrors what the algorithms assume of MPI:
//!
//! 1. **Per-source FIFO**: two frames sent from the same rank to the
//!    same destination are received in send order. No ordering is
//!    promised across sources.
//! 2. **Non-blocking send**: `send` may buffer; it never waits for the
//!    receiver (unbounded buffering, like the channel mesh).
//! 3. **Self-delivery**: `send(rank, ..)` loops back through the same
//!    FIFO (a real MPI does a memcpy).
//! 4. **Failure is an `Err`, not a hang**: a disappeared peer must
//!    surface as [`Error::Comm`](demsort_types::Error) from `recv`
//!    within the transport's timeout.

use crate::frames::FrameList;
use crossbeam::channel::{unbounded, Receiver, Sender};
use demsort_types::{Error, Result};

/// Point-to-point byte-frame transport between `size` ranks.
///
/// Implementations must be `Send` (a rank's endpoint moves into its PE
/// thread/process) but need not be `Sync` — like an MPI rank, an
/// endpoint belongs to one execution context.
pub trait Transport: Send {
    /// This endpoint's rank (`0..size`).
    fn rank(&self) -> usize;

    /// Number of ranks in the cluster.
    fn size(&self) -> usize;

    /// Queue `frame` for delivery to `to` (non-blocking).
    fn send(&self, to: usize, frame: Vec<u8>) -> Result<()>;

    /// Queue a borrowed frame for delivery to `to`.
    ///
    /// Transports that serialize onto a wire (TCP) copy straight into
    /// their buffered writer — no intermediate `Vec` per message. The
    /// default copies it into a frame of [`frames`](Self::frames) for
    /// transports that hand frames across threads.
    fn send_bytes(&self, to: usize, frame: &[u8]) -> Result<()> {
        self.send_vectored(to, &[frame])
    }

    /// Queue one frame assembled from `parts` (gather-write).
    ///
    /// The frame delivered to `to` is the concatenation of the parts —
    /// receivers cannot tell it from a contiguous [`send`](Self::send).
    /// Wire transports (TCP) override this with a vectored write so a
    /// header-plus-payload frame never gets glued into an intermediate
    /// buffer; the default concatenates into a frame of
    /// [`frames`](Self::frames) for in-process transports that hand an
    /// owned `Vec` across threads.
    fn send_vectored(&self, to: usize, parts: &[&[u8]]) -> Result<()> {
        self.send(to, self.frames().gather(parts))
    }

    /// Receive the next frame from `from` (blocking, FIFO per source).
    ///
    /// Returns [`Error::Comm`](demsort_types::Error) if the peer
    /// disconnects or the transport's receive timeout elapses — never
    /// hangs forever on a dead peer.
    fn recv(&self, from: usize) -> Result<Vec<u8>>;

    /// The endpoint's long frames: what it receives long messages into
    /// and builds them in, handed back by
    /// [`Communicator::recycle`](crate::Communicator::recycle).
    fn frames(&self) -> &FrameList;

    /// Push buffered sends onto the wire.
    ///
    /// Buffering transports (TCP) may hold small frames back for
    /// batching; [`Communicator`](crate::Communicator) flushes before
    /// every blocking receive — the collective-boundary flush points —
    /// so no peer ever waits on bytes parked in a local buffer. In-
    /// process transports deliver eagerly and make this a no-op.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// `dead[j]` is `true` once the transport has observed rank `j`'s
    /// connection as gone for good (socket closed, process exited).
    /// Recovery uses this as the failure-detector snapshot. The
    /// default — for transports without a failure detector — reports
    /// every peer alive.
    fn dead_peers(&self) -> Vec<bool> {
        vec![false; self.size()]
    }

    /// Push an **epoch marker** through this rank's FIFO to every live
    /// peer (and to itself): a deterministic cut point separating
    /// traffic of the doomed sort from traffic of the recovery attempt
    /// that follows. Survivors call [`Transport::drain_to_epoch`] to
    /// discard everything queued before the marker, so a stale
    /// collective frame can never be mistaken for a recovery frame.
    /// No-op by default (in-process transports tear the whole mesh
    /// down instead of recovering).
    fn advance_epoch(&self, epoch: u64) -> Result<()> {
        let _ = epoch;
        Ok(())
    }

    /// Discard every data frame queued from `from` until the epoch
    /// watermark of that source reaches `epoch` (markers pushed by
    /// [`Transport::advance_epoch`]). No-op by default.
    ///
    /// # Errors
    /// [`Error::Comm`](demsort_types::Error) if the marker does not
    /// arrive within the transport's read timeout.
    fn drain_to_epoch(&self, from: usize, epoch: u64) -> Result<()> {
        let _ = (from, epoch);
        Ok(())
    }
}

/// A renumbered view of a subset of another transport's ranks: member
/// `i` of `members` appears as rank `i` of a `members.len()`-rank
/// cluster. This is `MPI_Comm_create` for the survivor group — after a
/// rank dies, the survivors build a `SubTransport` over the same
/// socket mesh (connections to live peers stay up; nothing re-dials)
/// and run the recovery sort as a dense, contiguous cluster.
///
/// The wrapper only renumbers; FIFO order, buffering, and failure
/// semantics are the inner transport's. Frames from non-member ranks
/// simply sit unread in the inner per-source queues.
pub struct SubTransport<T: Transport> {
    inner: T,
    /// `members[i]` = global rank appearing as sub-rank `i` (strictly
    /// increasing, so survivor order is deterministic on every rank).
    members: Vec<usize>,
    /// This endpoint's position in `members`.
    sub_rank: usize,
}

impl<T: Transport> SubTransport<T> {
    /// Wrap `inner` as member `members[i] == inner.rank()` of the
    /// subgroup.
    ///
    /// # Errors
    /// [`Error::Config`] if `members` is empty, not strictly
    /// increasing, out of range, or does not contain `inner.rank()`.
    pub fn new(inner: T, members: Vec<usize>) -> Result<Self> {
        if members.is_empty() {
            return Err(Error::config("subgroup needs at least one member"));
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::config(format!(
                "subgroup members must be strictly increasing, got {members:?}"
            )));
        }
        if *members.last().expect("non-empty") >= inner.size() {
            return Err(Error::config(format!(
                "subgroup member {} out of range for {} ranks",
                members.last().expect("non-empty"),
                inner.size()
            )));
        }
        let sub_rank = members.iter().position(|&g| g == inner.rank()).ok_or_else(|| {
            Error::config(format!("rank {} is not a member of subgroup {members:?}", inner.rank()))
        })?;
        Ok(Self { inner, members, sub_rank })
    }

    /// The global rank behind sub-rank `i`.
    pub fn global_of(&self, i: usize) -> usize {
        self.members[i]
    }

    /// The member list (strictly increasing global ranks).
    pub fn members(&self) -> &[usize] {
        &self.members
    }
}

impl<T: Transport> Transport for SubTransport<T> {
    fn rank(&self) -> usize {
        self.sub_rank
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn send(&self, to: usize, frame: Vec<u8>) -> Result<()> {
        self.inner.send(self.members[to], frame)
    }

    fn send_bytes(&self, to: usize, frame: &[u8]) -> Result<()> {
        self.inner.send_bytes(self.members[to], frame)
    }

    fn send_vectored(&self, to: usize, parts: &[&[u8]]) -> Result<()> {
        self.inner.send_vectored(self.members[to], parts)
    }

    fn recv(&self, from: usize) -> Result<Vec<u8>> {
        self.inner.recv(self.members[from])
    }

    fn frames(&self) -> &FrameList {
        self.inner.frames()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn dead_peers(&self) -> Vec<bool> {
        let global = self.inner.dead_peers();
        self.members.iter().map(|&g| global[g]).collect()
    }

    fn advance_epoch(&self, epoch: u64) -> Result<()> {
        self.inner.advance_epoch(epoch)
    }

    fn drain_to_epoch(&self, from: usize, epoch: u64) -> Result<()> {
        self.inner.drain_to_epoch(self.members[from], epoch)
    }
}

/// The in-process channel mesh: each rank pair has a dedicated
/// unbounded FIFO channel, each rank one endpoint.
pub struct LocalTransport {
    rank: usize,
    size: usize,
    /// `out[j]` feeds rank `j`'s inbox slot for this rank.
    out: Vec<Sender<Vec<u8>>>,
    /// `inbox[i]` receives what rank `i` sent us.
    inbox: Vec<Receiver<Vec<u8>>>,
    /// Receive timeout: `None` blocks until the sender's endpoint
    /// drops (the default — an in-process peer cannot be silently
    /// dead), `Some(t)` turns a peer silent for `t` into
    /// [`Error::Comm`], mirroring the TCP transport's read timeout.
    /// Failure-injection tests need this: a live survivor that bailed
    /// out of a collective mid-round never closes its channels.
    timeout: Option<std::time::Duration>,
    /// The frames borrowed messages are copied into, and received ones
    /// are handed back to: a long frame moves from its sender's list to
    /// its receiver's, and the exchanges are symmetric enough that each
    /// list keeps its size.
    frames: FrameList,
}

impl LocalTransport {
    /// Build the full `p × p` mesh and return one endpoint per rank.
    pub fn mesh(p: usize) -> Vec<LocalTransport> {
        assert!(p > 0, "cluster needs at least one rank");
        // senders[src][dst] / inboxes[dst][src]
        let mut senders: Vec<Vec<Sender<Vec<u8>>>> =
            (0..p).map(|_| Vec::with_capacity(p)).collect();
        let mut inboxes: Vec<Vec<Receiver<Vec<u8>>>> =
            (0..p).map(|_| Vec::with_capacity(p)).collect();
        for dst_inbox in inboxes.iter_mut() {
            for sender in senders.iter_mut() {
                let (tx, rx) = unbounded::<Vec<u8>>();
                sender.push(tx);
                dst_inbox.push(rx);
            }
        }
        senders
            .into_iter()
            .zip(inboxes)
            .enumerate()
            .map(|(rank, (out, inbox))| LocalTransport {
                rank,
                size: p,
                out,
                inbox,
                timeout: None,
                frames: FrameList::default(),
            })
            .collect()
    }

    /// [`mesh`](Self::mesh) with a receive timeout on every endpoint:
    /// a peer silent for `timeout` surfaces as
    /// [`Error::Comm`](demsort_types::Error) instead of blocking
    /// forever. Used by failure-injection tests, where a surviving
    /// rank can abandon a collective mid-round while its endpoint (and
    /// hence its channels) stays alive.
    pub fn mesh_with_timeout(p: usize, timeout: std::time::Duration) -> Vec<LocalTransport> {
        let mut mesh = Self::mesh(p);
        for t in &mut mesh {
            t.timeout = Some(timeout);
        }
        mesh
    }
}

impl Transport for LocalTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, frame: Vec<u8>) -> Result<()> {
        self.frames.sent(&frame);
        self.out[to]
            .send(frame)
            .map_err(|_| Error::comm(format!("send to rank {to}: peer hung up (channel closed)")))
    }

    fn recv(&self, from: usize) -> Result<Vec<u8>> {
        let frame = match self.timeout {
            None => self.inbox[from].recv().map_err(|_| {
                Error::comm(format!("recv from rank {from}: peer hung up (channel closed)"))
            }),
            Some(t) => self.inbox[from].recv_timeout(t).map_err(|_| {
                Error::comm(format!("recv from rank {from}: peer hung up or silent past {t:?}"))
            }),
        }?;
        self.frames.received(&frame);
        Ok(frame)
    }

    fn frames(&self) -> &FrameList {
        &self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_shapes() {
        let mesh = LocalTransport::mesh(3);
        assert_eq!(mesh.len(), 3);
        for (i, t) in mesh.iter().enumerate() {
            assert_eq!(t.rank(), i);
            assert_eq!(t.size(), 3);
        }
    }

    #[test]
    fn per_source_fifo_and_self_delivery() {
        let mut mesh = LocalTransport::mesh(2);
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t0.send(1, vec![1]).expect("send");
        t0.send_bytes(1, &[2]).expect("send");
        t0.send(0, vec![9]).expect("self send");
        assert_eq!(t1.recv(0).expect("recv"), vec![1]);
        assert_eq!(t1.recv(0).expect("recv"), vec![2]);
        assert_eq!(t0.recv(0).expect("self recv"), vec![9]);
    }

    #[test]
    fn send_vectored_concatenates_parts() {
        let mut mesh = LocalTransport::mesh(2);
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t0.send_vectored(1, &[&[1, 2], &[], &[3]]).expect("send");
        t0.send(1, vec![1, 2, 3]).expect("send");
        assert_eq!(t1.recv(0).expect("recv"), vec![1, 2, 3]);
        assert_eq!(t1.recv(0).expect("recv"), vec![1, 2, 3], "indistinguishable from send");
    }

    #[test]
    fn dead_peer_is_an_error_not_a_hang() {
        let mut mesh = LocalTransport::mesh(2);
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        drop(t1);
        let err = t0.recv(1).expect_err("peer gone");
        assert!(matches!(err, Error::Comm(_)), "{err}");
    }

    #[test]
    fn sub_transport_renumbers_a_survivor_group() {
        // Global cluster {0,1,2,3}; rank 2 "died" — survivors {0,1,3}
        // renumber as a dense 3-rank cluster.
        let mesh = LocalTransport::mesh(4);
        let mut subs: Vec<SubTransport<LocalTransport>> = mesh
            .into_iter()
            .enumerate()
            .filter(|(g, _)| *g != 2)
            .map(|(_, t)| SubTransport::new(t, vec![0, 1, 3]).expect("member"))
            .collect();
        let s3 = subs.pop().expect("sub 2");
        let s1 = subs.pop().expect("sub 1");
        let s0 = subs.pop().expect("sub 0");
        assert_eq!((s0.rank(), s0.size()), (0, 3));
        assert_eq!((s3.rank(), s3.size()), (2, 3));
        assert_eq!(s3.global_of(2), 3);
        assert_eq!(s0.members(), &[0, 1, 3]);
        // Sub-rank routing: sub 2 (global 3) sends to sub 1 (global 1).
        s3.send(1, vec![42]).expect("send");
        assert_eq!(s1.recv(2).expect("recv"), vec![42]);
        // Self-delivery still loops back.
        s0.send(0, vec![7]).expect("self send");
        assert_eq!(s0.recv(0).expect("self recv"), vec![7]);
    }

    #[test]
    fn sub_transport_rejects_bad_member_lists() {
        let err = |members: Vec<usize>| {
            let mesh = LocalTransport::mesh(4);
            let t0 = mesh.into_iter().next().expect("rank 0");
            match SubTransport::new(t0, members) {
                Ok(_) => panic!("must reject"),
                Err(e) => e,
            }
        };
        assert!(matches!(err(vec![]), Error::Config(_)));
        assert!(matches!(err(vec![0, 0, 1]), Error::Config(m) if m.contains("increasing")));
        assert!(matches!(err(vec![0, 9]), Error::Config(m) if m.contains("out of range")));
        assert!(matches!(err(vec![1, 3]), Error::Config(m) if m.contains("not a member")));
    }

    #[test]
    fn default_failure_hooks_are_benign() {
        let mesh = LocalTransport::mesh(2);
        assert_eq!(mesh[0].dead_peers(), vec![false, false]);
        mesh[0].advance_epoch(1).expect("no-op epoch");
        mesh[0].drain_to_epoch(1, 1).expect("no-op drain");
    }
}
