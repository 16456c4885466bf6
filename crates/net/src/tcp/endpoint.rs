//! One rank's endpoint of the mesh: its links, its per-source inboxes,
//! the reader threads that feed them, and the [`Transport`] contract
//! (point-to-point frames, failure detection, recovery epochs) on top.

use super::block::BlockChannel;
use super::link::{FrameReader, PeerLink, KIND_BLOCK_REQ, KIND_BLOCK_RESP, KIND_DATA, KIND_EPOCH};
use crate::frames::FrameList;
use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use demsort_types::trace::TraceEv;
use demsort_types::{Error, Result, Tracer};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tunables of the TCP transport.
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// How long a blocking receive (or probe) waits for a peer before
    /// reporting it dead.
    pub read_timeout: Duration,
    /// How long mesh bootstrap keeps re-dialing a peer that is not
    /// listening yet.
    pub connect_timeout: Duration,
    /// Capacity of each per-peer write buffer.
    pub write_buffer: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(10),
            write_buffer: 256 << 10,
        }
    }
}

/// One entry of a per-source FIFO inbox: either an ordinary data frame
/// or an **epoch marker** — the cut point a peer pushed through its
/// FIFO with [`Transport::advance_epoch`]. Keeping markers inside the
/// same queue preserves their exact position in the per-source order,
/// which is what makes the cut deterministic.
enum InboxMsg {
    Data(Vec<u8>),
    Epoch(u64),
}

pub(super) struct Inner {
    rank: usize,
    opts: TcpOptions,
    /// `peers[j]` — `None` at `j == rank`.
    pub(super) peers: Vec<Option<Arc<PeerLink>>>,
    /// Self-delivery queue feeding `inbox[rank]`.
    self_tx: Sender<InboxMsg>,
    /// Per-source FIFO data queues (mutex: receivers are single-
    /// consumer; contention is nil — one recv call at a time).
    inbox: Vec<Mutex<Receiver<InboxMsg>>>,
    /// Highest epoch marker consumed from each peer's FIFO (by `recv`
    /// or [`Transport::drain_to_epoch`]).
    epoch_seen: Vec<AtomicU64>,
    /// The long frames: the reader threads receive into them, owned
    /// sends go back to them once written ([`Transport::frames`]).
    frames: Arc<FrameList>,
    /// The block service: requests in flight, handlers, buffer pool.
    pub(super) block: Arc<BlockChannel>,
    shutdown: Arc<AtomicBool>,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Trace sink shared with the reader threads (they record peer
    /// deaths); `Tracer::off()` until [`TcpTransport::set_tracer`].
    tracer: Arc<Mutex<Tracer>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // A rank may exit while peers still depend on its last sends
        // (e.g. the final frames of a broadcast tree): push buffered
        // frames onto the wire before closing anything.
        for p in self.peers.iter().flatten() {
            // verify: allow(L2, best-effort flush in Drop — a dead peer's error has nowhere to go)
            let _ = p.flush();
        }
        self.shutdown.store(true, Ordering::Release);
        for p in self.peers.iter().flatten() {
            p.close();
        }
        for h in self.readers.lock().expect("reader handles").drain(..) {
            let _ = h.join();
        }
    }
}

/// One rank's endpoint of the TCP socket mesh (cheaply cloneable
/// handle; the last clone tears the connections down).
#[derive(Clone)]
pub struct TcpTransport {
    pub(super) inner: Arc<Inner>,
}

impl TcpTransport {
    /// Assemble the endpoint from established, handshaken streams
    /// (`streams[j]` connected to rank `j`, `None` at `j == rank`) and
    /// spawn one reader thread per connection.
    pub(super) fn from_streams(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        opts: TcpOptions,
    ) -> Result<Self> {
        let size = streams.len();
        let mut peers: Vec<Option<Arc<PeerLink>>> = Vec::with_capacity(size);
        let mut inbox = Vec::with_capacity(size);
        let (self_tx, self_rx) = unbounded::<InboxMsg>();
        let mut self_rx = Some(self_rx);
        let block = Arc::new(BlockChannel::new(rank, size, opts.read_timeout));
        let shutdown = Arc::new(AtomicBool::new(false));
        let tracer: Arc<Mutex<Tracer>> = Arc::new(Mutex::new(Tracer::off()));
        let mut readers = Vec::with_capacity(size.saturating_sub(1));
        let frames = Arc::new(FrameList::default());

        for (j, stream) in streams.into_iter().enumerate() {
            if j == rank {
                debug_assert!(stream.is_none(), "no stream to self");
                peers.push(None);
                inbox.push(Mutex::new(self_rx.take().expect("one self slot")));
                continue;
            }
            let stream = stream
                .ok_or_else(|| Error::comm(format!("no connection established to rank {j}")))?;
            let (link, rx) = PeerLink::open(j, stream, opts.write_buffer, Arc::clone(&shutdown))?;
            let (data_tx, data_rx) = unbounded::<InboxMsg>();
            let reader = ReaderCtx {
                rx,
                link: Arc::clone(&link),
                data_tx,
                frames: Arc::clone(&frames),
                block: Arc::clone(&block),
                tracer: Arc::clone(&tracer),
            };
            readers.push(
                std::thread::Builder::new()
                    .name(format!("demsort-rx-{rank}-from-{j}"))
                    .spawn(move || reader.run())
                    .map_err(|e| Error::comm(format!("spawn reader: {e}")))?,
            );
            peers.push(Some(link));
            inbox.push(Mutex::new(data_rx));
        }

        Ok(Self {
            inner: Arc::new(Inner {
                rank,
                opts,
                peers,
                self_tx,
                inbox,
                epoch_seen: (0..size).map(|_| AtomicU64::new(0)).collect(),
                frames,
                block,
                shutdown,
                readers: Mutex::new(readers),
                tracer,
            }),
        })
    }

    /// Install the trace sink for this endpoint. Reader threads record
    /// [`TraceEv::PeerDead`] through it when a peer's connection drops,
    /// and [`Transport::advance_epoch`] records the epoch cut. Pass
    /// [`Tracer::off`] to disable again (e.g. before teardown, so the
    /// deliberate close of peer sockets is not journalled as deaths).
    pub fn set_tracer(&self, t: Tracer) {
        *self.inner.tracer.lock().expect("tracer lock") = t;
    }

    /// Wire-level traffic to/from rank `j` (frame headers included).
    pub fn wire_peer(&self, j: usize) -> (u64, u64) {
        self.inner.peers[j].as_ref().map_or((0, 0), |p| p.wire_bytes())
    }

    /// Total wire-level traffic `(sent, received)` over all peers.
    pub fn wire_totals(&self) -> (u64, u64) {
        (0..self.size()).fold((0, 0), |(s, r), j| {
            let (ps, pr) = self.wire_peer(j);
            (s + ps, r + pr)
        })
    }

    /// Deliver `msg` to this rank's own inbox.
    fn send_to_self(&self, msg: InboxMsg) -> Result<()> {
        self.inner.self_tx.send(msg).map_err(|_| Error::comm("send to self: loopback queue closed"))
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.inner.rank
    }

    fn size(&self) -> usize {
        self.inner.peers.len()
    }

    fn send(&self, to: usize, frame: Vec<u8>) -> Result<()> {
        if to == self.inner.rank {
            // Self-delivery moves the owned frame into the loopback
            // queue — no copy.
            return self.send_to_self(InboxMsg::Data(frame));
        }
        self.send_bytes(to, &frame)?;
        // Written: its memory can carry the next message.
        self.inner.frames.give(frame);
        Ok(())
    }

    fn send_bytes(&self, to: usize, frame: &[u8]) -> Result<()> {
        self.send_vectored(to, &[frame])
    }

    fn send_vectored(&self, to: usize, parts: &[&[u8]]) -> Result<()> {
        match &self.inner.peers[to] {
            Some(link) => link.write_frame_parts(KIND_DATA, parts),
            None => self.send_to_self(InboxMsg::Data(self.inner.frames.gather(parts))),
        }
    }

    fn recv(&self, from: usize) -> Result<Vec<u8>> {
        let rx = self.inner.inbox[from].lock().expect("inbox lock");
        match rx.recv_timeout(self.inner.opts.read_timeout) {
            Ok(InboxMsg::Data(frame)) => Ok(frame),
            Ok(InboxMsg::Epoch(e)) => {
                // The peer cut its FIFO for recovery: the collective
                // this recv belongs to is doomed anyway, so surface a
                // clean failure (and record the watermark so a later
                // drain does not wait for a marker already consumed).
                self.inner.epoch_seen[from].fetch_max(e, Ordering::AcqRel);
                Err(Error::comm(format!(
                    "recv from rank {from}: peer advanced to recovery epoch {e}"
                )))
            }
            Err(RecvTimeoutError::Timeout) => Err(Error::comm(format!(
                "recv from rank {from}: timed out after {:?}",
                self.inner.opts.read_timeout
            ))),
            Err(RecvTimeoutError::Disconnected) => Err(Error::comm(format!(
                "recv from rank {from}: peer disconnected (socket closed)"
            ))),
        }
    }

    fn frames(&self) -> &FrameList {
        &self.inner.frames
    }

    fn flush(&self) -> Result<()> {
        // A link whose peer the failure detector already declared dead
        // keeps its dirty flag (its last flush failed, and nothing can
        // deliver those bytes anymore) — propagating that error here
        // would poison every later collective, including a survivor
        // sub-group's recovery traffic that never addresses the dead
        // rank. Suppress it; a *live* peer's flush failure still fails
        // the collective (and is how a death is first detected when
        // the write side notices before the reader does).
        let gone = self.dead_peers();
        for p in self.inner.peers.iter().flatten() {
            if let Err(e) = p.flush() {
                if !gone[p.peer] {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn dead_peers(&self) -> Vec<bool> {
        self.inner.block.dead_peers()
    }

    fn advance_epoch(&self, epoch: u64) -> Result<()> {
        let inner = &*self.inner;
        inner.tracer.lock().expect("tracer lock").instant(TraceEv::EpochAdvance { epoch });
        let marker = epoch.to_le_bytes();
        for link in inner.peers.iter().flatten() {
            // A write to a dead peer errors — that is exactly the rank
            // the epoch is cutting away; skip it and keep going so one
            // death cannot block the cut reaching the survivors.
            if link.write_frame(KIND_EPOCH, &marker).is_ok() {
                // verify: allow(L2, a flush error marks the peer dead — exactly the rank the epoch cuts away)
                let _ = link.flush();
            }
        }
        self.send_to_self(InboxMsg::Epoch(epoch))
    }

    fn drain_to_epoch(&self, from: usize, epoch: u64) -> Result<()> {
        let inner = &*self.inner;
        if inner.epoch_seen[from].load(Ordering::Acquire) >= epoch {
            return Ok(());
        }
        let rx = inner.inbox[from].lock().expect("inbox lock");
        loop {
            // Re-check under the inbox lock: a racing recv may have
            // consumed the marker and recorded the watermark.
            if inner.epoch_seen[from].load(Ordering::Acquire) >= epoch {
                return Ok(());
            }
            match rx.recv_timeout(inner.opts.read_timeout) {
                // Stale pre-epoch traffic: discard.
                Ok(InboxMsg::Data(frame)) => inner.frames.give(frame),
                Ok(InboxMsg::Epoch(e)) => {
                    inner.epoch_seen[from].fetch_max(e, Ordering::AcqRel);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(Error::comm(format!(
                        "drain to epoch {epoch} from rank {from}: timed out after {:?}",
                        inner.opts.read_timeout
                    )))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(Error::comm(format!(
                        "drain to epoch {epoch} from rank {from}: peer disconnected \
                         before its epoch marker arrived"
                    )))
                }
            }
        }
    }
}

/// Reader thread of one peer connection: demultiplexes its frames into
/// the peer's inbox and the block channel.
struct ReaderCtx {
    rx: FrameReader,
    link: Arc<PeerLink>,
    data_tx: Sender<InboxMsg>,
    frames: Arc<FrameList>,
    block: Arc<BlockChannel>,
    tracer: Arc<Mutex<Tracer>>,
}

impl ReaderCtx {
    fn run(mut self) {
        self.demux();
        let peer = self.link.peer;
        // Journal the death first — but only when the connection broke
        // on its own; a deliberate local teardown closes every socket
        // and is not a failure-detector verdict.
        if !self.rx.shutting_down() {
            self.tracer.lock().expect("tracer lock").instant(TraceEv::PeerDead { peer });
        }
        // Whatever ended the stream — the peer closing it or breaking
        // the protocol — nothing more is read from it: close it, so the
        // peer's reader sees that too, and dropping the inbox sender
        // (with `self`) wakes a blocked `recv`.
        self.link.close();
        self.block.peer_gone(peer);
    }

    /// Route frames until the connection ends or the peer breaks the
    /// protocol.
    fn demux(&mut self) {
        while let Some((kind, len)) = self.rx.next_frame() {
            let alive = match kind {
                KIND_BLOCK_REQ => self.block.on_request(&mut self.rx, &self.link, len),
                KIND_BLOCK_RESP => self.block.on_response(&mut self.rx, len),
                KIND_DATA | KIND_EPOCH => self.on_inbox_frame(kind, len),
                _ => false, // unknown frame kind: protocol violation
            };
            if !alive {
                return;
            }
        }
    }

    /// Queue a data frame or an epoch marker on this peer's FIFO.
    /// `false` ends the connection (it closed, the marker is malformed,
    /// or the endpoint was dropped).
    fn on_inbox_frame(&mut self, kind: u8, len: usize) -> bool {
        // A long frame lands in memory an earlier one left, where it fits.
        let mut payload = self.frames.take(len);
        if !self.rx.fill(&mut payload) {
            return false;
        }
        let msg = if kind == KIND_DATA {
            InboxMsg::Data(payload)
        } else {
            match <[u8; 8]>::try_from(&payload[..]) {
                Ok(bytes) => InboxMsg::Epoch(u64::from_le_bytes(bytes)),
                Err(_) => return false,
            }
        };
        self.data_tx.send(msg).is_ok()
    }
}
