//! The TCP cluster transport: one PE per OS process, a full `P × P`
//! socket mesh.
//!
//! This is the deployment shape of the paper's experiments — MVAPICH
//! over InfiniBand on 200 nodes — with TCP standing in for the
//! interconnect and this module for the MPI runtime:
//!
//! * **Wire framing** — every message is a length-prefixed frame
//!   `[kind: u8][len: u32 LE][payload]`; the connection identifies the
//!   source rank, so frames carry no addressing.
//! * **Mesh bootstrap** — every rank binds a listener, then rank `i`
//!   dials every `j < i` (with retry while the peer is still coming
//!   up) and accepts from every `j > i`. The first bytes on a fresh
//!   connection are a **rank handshake** (`magic, version, rank`), so
//!   connections may arrive in any order — the handshake, not arrival
//!   order, assigns the connection its peer slot.
//! * **Buffered writers** — sends copy into a per-peer `BufWriter`;
//!   [`Communicator`](crate::Communicator) flushes at collective
//!   boundaries (before every blocking receive), so batching can never
//!   deadlock a peer on bytes parked locally.
//! * **Reader threads** — one per peer socket, demultiplexing frames
//!   into per-source FIFO queues (preserving MPI's per-source
//!   ordering) and serving the **block service** out of band: remote
//!   block reads ("they have to request data from remote disks",
//!   Section IV-A) become request/reply frames served from the owning
//!   rank's storage by its reader thread — the remote PE's CPU never
//!   leaves its own phase, exactly like an RDMA get. Requests carry
//!   ids, so any number can be in flight per peer and responses are
//!   matched by id, not arrival order ([`TcpTransport::fetch_blocks`]
//!   pipelines a whole batch behind one flush).
//! * **Failure detection** — sockets carry read timeouts and queue
//!   receives are bounded by [`TcpOptions::read_timeout`], so a peer
//!   dying mid-collective surfaces as a clean
//!   [`Error::Comm`](demsort_types::Error), never a hang.

use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use demsort_types::trace::TraceEv;
use demsort_types::{fio, wire, BufferPool, Error, Result, Tracer};
use std::collections::HashMap;
use std::io::{BufWriter, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Handshake magic: `"DEMS"`.
const MAGIC: u32 = 0x4445_4D53;
/// Wire protocol version.
const VERSION: u8 = 1;
/// Upper bound on a single frame: the full reach of the `u32` length
/// field, so any message `chunked_alltoallv` produces under the 2 GiB
/// `MPI_VOLUME_LIMIT` (plus submessage headers) fits in one frame.
/// Senders reject larger payloads explicitly; receivers treat larger
/// prefixes as corruption.
const MAX_FRAME: usize = u32::MAX as usize;
/// Socket-level read timeout: the tick at which blocked reads re-check
/// the shutdown flag (liveness of teardown, not of peers — peer
/// liveness is [`TcpOptions::read_timeout`] at the queue level).
const READ_TICK: Duration = Duration::from_millis(100);

/// Frame kinds on the wire.
const KIND_DATA: u8 = 0;
const KIND_BLOCK_REQ: u8 = 1;
const KIND_BLOCK_RESP: u8 = 2;
const KIND_STORE_REQ: u8 = 3;
const KIND_STORE_RESP: u8 = 4;
const KIND_EPOCH: u8 = 5;

/// Serves remote block-service requests from this rank's local
/// storage: `(disk, slot) -> block bytes` (or a message for the
/// requester). Runs on the reader thread of the requesting peer's
/// connection, so serving never interrupts this rank's own phase.
pub type BlockHandler = Arc<dyn Fn(u32, u32) -> std::result::Result<Vec<u8>, String> + Send + Sync>;

/// Serves remote block-*store* requests into this rank's local
/// storage: `(disk_hint, data) -> assigned (disk, slot)` (or a message
/// for the requester). The serving rank allocates the slot itself —
/// its allocator stays the single authority over its disks — and
/// returns the assigned address, which the requester records (e.g. in
/// a replica directory). Runs on the requesting peer's reader thread,
/// like [`BlockHandler`].
pub type StoreHandler =
    Arc<dyn Fn(u32, &[u8]) -> std::result::Result<(u32, u32), String> + Send + Sync>;

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

/// One established peer connection: buffered writer plus wire-level
/// per-peer traffic meters (headers included — the payload-level
/// counters live in the transport-independent `Communicator`).
///
/// The link knows its peer's rank so every failure it reports names
/// the dead peer and the direction (`send to rank j` / `flush to rank
/// j`) — launch diagnostics point at a rank, not at "connection
/// reset".
struct PeerLink {
    /// Rank of the peer this link connects to.
    peer: usize,
    stream: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    /// Set inside the writer lock on every send, cleared inside the
    /// lock on flush — `flush_all` skips peers with nothing pending.
    dirty: AtomicBool,
    wire_sent: AtomicU64,
    wire_recv: AtomicU64,
}

impl PeerLink {
    fn write_frame(&self, kind: u8, payload: &[u8]) -> Result<()> {
        self.write_frame_parts(kind, &[payload])
    }

    /// Write one frame whose payload is the concatenation of `parts`,
    /// gather-style: header and parts go through `write_vectored`
    /// straight into the buffered writer — the frame is never glued
    /// into an intermediate buffer. Wire metering is identical to
    /// [`write_frame`](Self::write_frame) of the concatenated payload.
    fn write_frame_parts(&self, kind: u8, parts: &[&[u8]]) -> Result<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > MAX_FRAME {
            return Err(Error::comm(format!(
                "send to rank {}: frame of {len} bytes exceeds the wire limit ({MAX_FRAME}); \
                 split the message (chunked_alltoallv) before sending",
                self.peer
            )));
        }
        let mut w = self.writer.lock().expect("writer lock");
        let header = frame_header(kind, len);
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(parts.len() + 1);
        slices.push(IoSlice::new(&header));
        slices.extend(parts.iter().map(|p| IoSlice::new(p)));
        fio::write_all(&mut slices, |bufs, _| w.write_vectored(bufs)).map_err(|stopped| {
            let peer = self.peer;
            match stopped.cause.kind() {
                ErrorKind::WriteZero => {
                    Error::comm(format!("send to rank {peer}: connection closed mid-frame"))
                }
                _ => Error::comm(format!("send to rank {peer}: write failed: {}", stopped.cause)),
            }
        })?;
        self.dirty.store(true, Ordering::Release);
        self.wire_sent.fetch_add((header.len() + len) as u64, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        if self.dirty.load(Ordering::Acquire) {
            let mut w = self.writer.lock().expect("writer lock");
            w.flush().map_err(|e| Error::comm(format!("flush to rank {}: {e}", self.peer)))?;
            self.dirty.store(false, Ordering::Release);
        }
        Ok(())
    }
}

fn frame_header(kind: u8, len: usize) -> [u8; 5] {
    let mut h = [0u8; 5];
    h[0] = kind;
    h[1..5].copy_from_slice(&(len as u32).to_le_bytes());
    h
}

/// Pack an assigned `(disk, slot)` store address into the 8-byte LE
/// acknowledgement payload a [`WireStore`] decodes.
fn encode_store_ack((disk, slot): (u32, u32)) -> Vec<u8> {
    let mut ack = Vec::with_capacity(8);
    ack.extend_from_slice(&disk.to_le_bytes());
    ack.extend_from_slice(&slot.to_le_bytes());
    ack
}

/// Completion slot of one in-flight block request: the reader thread
/// that receives the matching response fills it and wakes the waiter.
struct FetchSlot {
    result: Mutex<Option<Result<Vec<u8>>>>,
    cv: Condvar,
}

impl FetchSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self { result: Mutex::new(None), cv: Condvar::new() })
    }

    fn complete(&self, r: Result<Vec<u8>>) {
        let mut guard = self.result.lock().expect("fetch slot lock");
        *guard = Some(r);
        self.cv.notify_all();
    }
}

/// Which half of the block service an in-flight request belongs to —
/// only the direction in its error messages differs (fetches read
/// *from* the peer, stores write *to* it).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum BlockOp {
    Fetch,
    Store,
}

impl BlockOp {
    /// `"block fetch from rank 3"` / `"block store to rank 3"`.
    fn describe(self, peer: usize) -> String {
        match self {
            BlockOp::Fetch => format!("block fetch from rank {peer}"),
            BlockOp::Store => format!("block store to rank {peer}"),
        }
    }
}

/// The in-flight block requests of one endpoint (fetches and stores
/// share one id space and one table), plus per-peer reader liveness.
/// One lock covers both so a reader thread's exit sweep and new
/// registrations serialize: a request is either swept (failed
/// immediately) or refused — never silently stranded to ride out the
/// full read timeout against a peer that can no longer answer.
struct PendingFetches {
    /// Request id → (owning peer, operation, completion slot).
    /// Responses carry the id, so they may arrive on any schedule and
    /// in any order.
    inflight: HashMap<u64, (usize, BlockOp, Arc<FetchSlot>)>,
    /// `true` once the peer's reader thread has exited (socket closed,
    /// protocol violation, teardown) — no response can arrive anymore.
    reader_gone: Vec<bool>,
}

type Pending = Mutex<PendingFetches>;

/// A pending remote block read issued by
/// [`TcpTransport::fetch_blocks`] — the wire-level sibling of the
/// storage engine's `IoHandle`. Dropping it without waiting abandons
/// the request (a late response is discarded by id).
#[must_use = "a WireFetch must be waited on, or the read is abandoned"]
pub struct WireFetch {
    id: u64,
    peer: usize,
    op: BlockOp,
    slot: Arc<FetchSlot>,
    pending: Arc<Pending>,
    read_timeout: Duration,
}

impl WireFetch {
    /// Block until the response arrives; bounded by the transport's
    /// read timeout from the moment of the call.
    ///
    /// # Errors
    /// [`Error::Comm`] if the owning rank disconnects or does not
    /// answer within the timeout; [`Error::Io`] if it answered with a
    /// storage error.
    pub fn wait(self) -> Result<Vec<u8>> {
        let deadline = Instant::now() + self.read_timeout;
        let mut guard = self.slot.result.lock().expect("fetch slot lock");
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::comm(format!(
                    "{}: timed out after {:?}",
                    self.op.describe(self.peer),
                    self.read_timeout
                )));
            }
            let (g, _) = self.slot.cv.wait_timeout(guard, left).expect("fetch slot lock");
            guard = g;
        }
    }

    /// `true` once the response has arrived (success or failure).
    pub fn is_done(&self) -> bool {
        self.slot.result.lock().expect("fetch slot lock").is_some()
    }
}

impl Drop for WireFetch {
    fn drop(&mut self) {
        // Deregister so an abandoned (or completed) request cannot leak
        // its slot; a response arriving later is dropped by id.
        self.pending.lock().expect("pending fetches lock").inflight.remove(&self.id);
    }
}

/// A pending remote block *store* issued by
/// [`TcpTransport::store_blocks`] — the write-side sibling of
/// [`WireFetch`]. Resolves to the `(disk, slot)` address the serving
/// rank assigned. Dropping it without waiting abandons the request
/// (the store may or may not have happened; a late response is
/// discarded by id).
#[must_use = "a WireStore must be waited on, or the write outcome is unknown"]
pub struct WireStore(WireFetch);

impl WireStore {
    /// Block until the serving rank acknowledges the store; returns
    /// the `(disk, slot)` it assigned to the copy.
    ///
    /// # Errors
    /// [`Error::Comm`] if the serving rank disconnects or does not
    /// answer within the timeout; [`Error::Io`] if it answered with a
    /// storage error.
    pub fn wait(self) -> Result<(u32, u32)> {
        let peer = self.0.peer;
        let bytes = self.0.wait()?;
        let arr: [u8; 8] = bytes.as_slice().try_into().map_err(|_| {
            Error::comm(format!(
                "block store to rank {peer}: malformed {}-byte acknowledgement",
                bytes.len()
            ))
        })?;
        let disk = u32::from_le_bytes(arr[..4].try_into().expect("4 bytes"));
        let slot = u32::from_le_bytes(arr[4..].try_into().expect("4 bytes"));
        Ok((disk, slot))
    }

    /// `true` once the acknowledgement has arrived (success or
    /// failure).
    pub fn is_done(&self) -> bool {
        self.0.is_done()
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

struct Inner {
    rank: usize,
    size: usize,
    opts: TcpOptions,
    /// `peers[j]` — `None` at `j == rank`.
    peers: Vec<Option<Arc<PeerLink>>>,
    /// Self-delivery queue feeding `inbox[rank]`.
    self_tx: Sender<InboxMsg>,
    /// Per-source FIFO data queues (mutex: receivers are single-
    /// consumer; contention is nil — one recv call at a time).
    inbox: Vec<Mutex<Receiver<InboxMsg>>>,
    /// Highest epoch marker consumed from each peer's FIFO (by `recv`
    /// or [`Transport::drain_to_epoch`]).
    epoch_seen: Vec<AtomicU64>,
    /// Block-service requests in flight, any number per peer.
    pending: Arc<Pending>,
    fetch_seq: AtomicU64,
    handler: Arc<RwLock<Option<BlockHandler>>>,
    store_handler: Arc<RwLock<Option<StoreHandler>>>,
    shutdown: Arc<AtomicBool>,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Trace sink shared with the reader threads (they record peer
    /// deaths); `Tracer::off()` until [`TcpTransport::set_tracer`].
    tracer: Arc<Mutex<Tracer>>,
    /// Block-buffer pool shared with reader threads: block-service
    /// responses land in recycled buffers and served blocks are
    /// returned here after their vectored send. `None` until
    /// [`TcpTransport::set_buffer_pool`].
    pool: Arc<RwLock<Option<BufferPool>>>,
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
            let _ = p.stream.shutdown(std::net::Shutdown::Both);
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
    inner: Arc<Inner>,
}

impl TcpTransport {
    /// Join the mesh: `addrs[rank]` must be the address `listener` is
    /// bound to; every other entry a peer's listener. Dials lower
    /// ranks (retrying while they come up), accepts higher ranks, and
    /// spawns one reader thread per established connection.
    pub fn connect_mesh(
        rank: usize,
        addrs: &[SocketAddr],
        listener: TcpListener,
        opts: TcpOptions,
    ) -> Result<Self> {
        let size = addrs.len();
        if rank >= size {
            return Err(Error::config(format!("rank {rank} out of range for {size} ranks")));
        }

        // Accept from higher ranks while dialing lower ranks.
        let expect_inbound = size - 1 - rank;
        let deadline = Instant::now() + opts.connect_timeout;
        let acceptor = std::thread::Builder::new()
            .name(format!("demsort-accept-{rank}"))
            .spawn(move || accept_peers(&listener, rank, size, expect_inbound, deadline))
            .map_err(|e| Error::comm(format!("spawn acceptor: {e}")))?;

        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        for (j, stream_slot) in streams.iter_mut().enumerate().take(rank) {
            let s = dial_peer(addrs[j], rank, deadline)
                .map_err(|e| Error::comm(format!("rank {rank} dialing rank {j}: {e}")))?;
            *stream_slot = Some(s);
        }
        let accepted = acceptor
            .join()
            .map_err(|_| Error::comm("acceptor thread panicked"))?
            .map_err(|e| Error::comm(format!("rank {rank} accepting peers: {e}")))?;
        for (j, s) in accepted {
            streams[j] = Some(s);
        }

        Self::from_streams(rank, size, streams, opts)
    }

    /// Assemble the endpoint from established, handshaken streams
    /// (`streams[j]` connected to rank `j`, `None` at `j == rank`).
    fn from_streams(
        rank: usize,
        size: usize,
        streams: Vec<Option<TcpStream>>,
        opts: TcpOptions,
    ) -> Result<Self> {
        let mut peers: Vec<Option<Arc<PeerLink>>> = Vec::with_capacity(size);
        let mut inbox = Vec::with_capacity(size);
        let (self_tx, self_rx) = unbounded::<InboxMsg>();
        let mut self_rx = Some(self_rx);
        let handler: Arc<RwLock<Option<BlockHandler>>> = Arc::new(RwLock::new(None));
        let store_handler: Arc<RwLock<Option<StoreHandler>>> = Arc::new(RwLock::new(None));
        let pending: Arc<Pending> = Arc::new(Mutex::new(PendingFetches {
            inflight: HashMap::new(),
            reader_gone: vec![false; size],
        }));
        let shutdown = Arc::new(AtomicBool::new(false));
        let tracer: Arc<Mutex<Tracer>> = Arc::new(Mutex::new(Tracer::off()));
        let pool: Arc<RwLock<Option<BufferPool>>> = Arc::new(RwLock::new(None));
        let mut readers = Vec::with_capacity(size.saturating_sub(1));

        for (j, stream) in streams.into_iter().enumerate() {
            if j == rank {
                debug_assert!(stream.is_none(), "no stream to self");
                peers.push(None);
                inbox.push(Mutex::new(self_rx.take().expect("one self slot")));
                continue;
            }
            let stream = stream
                .ok_or_else(|| Error::comm(format!("no connection established to rank {j}")))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_read_timeout(Some(READ_TICK)))
                .map_err(|e| Error::comm(format!("configure socket to rank {j}: {e}")))?;
            let write_half = stream
                .try_clone()
                .map_err(|e| Error::comm(format!("clone socket to rank {j}: {e}")))?;
            let link = Arc::new(PeerLink {
                peer: j,
                stream: stream.try_clone().map_err(|e| Error::comm(e.to_string()))?,
                writer: Mutex::new(BufWriter::with_capacity(opts.write_buffer, write_half)),
                dirty: AtomicBool::new(false),
                wire_sent: AtomicU64::new(0),
                wire_recv: AtomicU64::new(0),
            });
            let (data_tx, data_rx) = unbounded::<InboxMsg>();
            let reader = ReaderCtx {
                peer: j,
                stream,
                link: Arc::clone(&link),
                data_tx,
                pending: Arc::clone(&pending),
                handler: Arc::clone(&handler),
                store_handler: Arc::clone(&store_handler),
                shutdown: Arc::clone(&shutdown),
                tracer: Arc::clone(&tracer),
                pool: Arc::clone(&pool),
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
                size,
                opts,
                peers,
                self_tx,
                inbox,
                epoch_seen: (0..size).map(|_| AtomicU64::new(0)).collect(),
                pending,
                fetch_seq: AtomicU64::new(0),
                handler,
                store_handler,
                shutdown,
                readers: Mutex::new(readers),
                tracer,
                pool,
            }),
        })
    }

    /// Install the block-buffer pool for this endpoint. Reader threads
    /// then receive block-service response payloads of exactly the
    /// pool's buffer size into recycled buffers (zero-copy receive),
    /// and the block server recycles served blocks after their
    /// vectored send.
    pub fn set_buffer_pool(&self, pool: BufferPool) {
        *self.inner.pool.write().expect("pool lock") = Some(pool);
    }

    /// Install the trace sink for this endpoint. Reader threads record
    /// [`TraceEv::PeerDead`] through it when a peer's connection drops,
    /// and [`Transport::advance_epoch`] records the epoch cut. Pass
    /// [`Tracer::off`] to disable again (e.g. before teardown, so the
    /// deliberate close of peer sockets is not journalled as deaths).
    pub fn set_tracer(&self, t: Tracer) {
        *self.inner.tracer.lock().expect("tracer lock") = t;
    }

    /// Register the handler serving this rank's blocks to remote
    /// block-service requests (selection probes, striped reads).
    pub fn set_block_handler(&self, h: BlockHandler) {
        *self.inner.handler.write().expect("handler lock") = Some(h);
    }

    /// Drop the block handler (subsequent requests get an error reply).
    /// Workers clear it once no peer can read remotely anymore,
    /// breaking the handler's reference back to the storage.
    pub fn clear_block_handler(&self) {
        *self.inner.handler.write().expect("handler lock") = None;
    }

    /// Register the handler accepting remote block *stores* into this
    /// rank's storage (run replication).
    pub fn set_store_handler(&self, h: StoreHandler) {
        *self.inner.store_handler.write().expect("store handler lock") = Some(h);
    }

    /// Drop the store handler (subsequent store requests get an error
    /// reply).
    pub fn clear_store_handler(&self) {
        *self.inner.store_handler.write().expect("store handler lock") = None;
    }

    /// Issue a **batched, pipelined** read of `blocks` (as
    /// `(disk, slot)` addresses) from rank `pe`'s storage: every
    /// request goes onto the wire behind a single flush, responses are
    /// matched by request id (so they may arrive out of order relative
    /// to other in-flight batches), and the returned futures are in
    /// request order. Any number of fetches — from any threads — may
    /// be in flight to the same peer concurrently.
    ///
    /// # Errors
    /// [`Error::Comm`] if a request cannot be written to the peer.
    /// Per-block failures (including timeouts) surface from each
    /// [`WireFetch::wait`].
    pub fn fetch_blocks(&self, pe: usize, blocks: &[(u32, u32)]) -> Result<Vec<WireFetch>> {
        let inner = &*self.inner;
        let mut fetches = Vec::with_capacity(blocks.len());
        if pe == inner.rank {
            // Self-service: answer straight from the local handler.
            let handler = inner.handler.read().expect("handler lock").clone();
            for &(disk, slot) in blocks {
                let fetch = self.register_op(pe, BlockOp::Fetch);
                let result = match &handler {
                    Some(h) => h(disk, slot).map_err(Error::io),
                    None => Err(Error::io("no block handler registered")),
                };
                fetch.slot.complete(result);
                fetches.push(fetch);
            }
            return Ok(fetches);
        }
        let link = inner.peers[pe].as_ref().expect("peer link");
        for &(disk, slot) in blocks {
            let fetch = self.register_op(pe, BlockOp::Fetch);
            let mut req = [0u8; 16];
            req[..8].copy_from_slice(&fetch.id.to_le_bytes());
            req[8..12].copy_from_slice(&disk.to_le_bytes());
            req[12..16].copy_from_slice(&slot.to_le_bytes());
            link.write_frame(KIND_BLOCK_REQ, &req)?;
            fetches.push(fetch);
        }
        link.flush()?;
        Ok(fetches)
    }

    /// Fetch one block from rank `pe`'s storage (a one-element
    /// [`TcpTransport::fetch_blocks`] waited immediately).
    pub fn fetch_block(&self, pe: usize, disk: u32, slot: u32) -> Result<Vec<u8>> {
        let mut fetches = self.fetch_blocks(pe, &[(disk, slot)])?;
        fetches.pop().expect("one fetch issued").wait()
    }

    /// Issue a **batched, pipelined** store of `blocks` (as
    /// `(disk_hint, data)` pairs) into rank `pe`'s storage — the write
    /// half of the block service, mirroring
    /// [`fetch_blocks`](Self::fetch_blocks): every request goes onto
    /// the wire behind a single flush, acknowledgements are matched by
    /// request id, and the returned futures are in request order. The
    /// serving rank allocates each copy itself (honouring `disk_hint`)
    /// and answers with the assigned `(disk, slot)`.
    ///
    /// # Errors
    /// [`Error::Comm`] if a request cannot be written to the peer.
    /// Per-block failures (including timeouts) surface from each
    /// [`WireStore::wait`].
    pub fn store_blocks(&self, pe: usize, blocks: &[(u32, &[u8])]) -> Result<Vec<WireStore>> {
        let inner = &*self.inner;
        let mut stores = Vec::with_capacity(blocks.len());
        if pe == inner.rank {
            // Self-service: store straight through the local handler.
            let handler = inner.store_handler.read().expect("store handler lock").clone();
            for &(disk_hint, data) in blocks {
                let store = self.register_op(pe, BlockOp::Store);
                let result = match &handler {
                    Some(h) => h(disk_hint, data).map_err(Error::io).map(encode_store_ack),
                    None => Err(Error::io("no store handler registered")),
                };
                store.slot.complete(result);
                stores.push(WireStore(store));
            }
            return Ok(stores);
        }
        let link = inner.peers[pe].as_ref().expect("peer link");
        for &(disk_hint, data) in blocks {
            let store = self.register_op(pe, BlockOp::Store);
            // Gather-write the request: the 16-byte `[id][hint][len]`
            // prefix (the layout of `wire::encode_store_req`) plus the
            // block itself, never glued into one buffer.
            let mut prefix = [0u8; 16];
            prefix[..8].copy_from_slice(&store.id.to_le_bytes());
            prefix[8..12].copy_from_slice(&disk_hint.to_le_bytes());
            prefix[12..16].copy_from_slice(&(data.len() as u32).to_le_bytes());
            link.write_frame_parts(KIND_STORE_REQ, &[&prefix, data])?;
            stores.push(WireStore(store));
        }
        link.flush()?;
        Ok(stores)
    }

    /// Store one block into rank `pe`'s storage (a one-element
    /// [`TcpTransport::store_blocks`] waited immediately); returns the
    /// `(disk, slot)` the serving rank assigned.
    pub fn store_block(&self, pe: usize, disk_hint: u32, data: &[u8]) -> Result<(u32, u32)> {
        let mut stores = self.store_blocks(pe, &[(disk_hint, data)])?;
        stores.pop().expect("one store issued").wait()
    }

    /// Allocate a request id and register its completion slot. If the
    /// peer's reader thread is already gone (dead peer), the request
    /// comes back pre-failed — registration and the reader's exit
    /// sweep share one lock, so a request can never be stranded
    /// waiting on a peer that will never answer.
    fn register_op(&self, peer: usize, op: BlockOp) -> WireFetch {
        let inner = &*self.inner;
        let id = inner.fetch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = FetchSlot::new();
        {
            let mut pending = inner.pending.lock().expect("pending fetches lock");
            if peer != inner.rank && pending.reader_gone[peer] {
                slot.complete(Err(Error::comm(format!(
                    "{}: peer disconnected",
                    op.describe(peer)
                ))));
            } else {
                pending.inflight.insert(id, (peer, op, Arc::clone(&slot)));
            }
        }
        WireFetch {
            id,
            peer,
            op,
            slot,
            pending: Arc::clone(&inner.pending),
            read_timeout: inner.opts.read_timeout,
        }
    }

    /// Wire-level traffic to/from rank `j` (frame headers included).
    pub fn wire_peer(&self, j: usize) -> (u64, u64) {
        match &self.inner.peers[j] {
            Some(p) => (p.wire_sent.load(Ordering::Relaxed), p.wire_recv.load(Ordering::Relaxed)),
            None => (0, 0),
        }
    }

    /// Total wire-level traffic `(sent, received)` over all peers.
    pub fn wire_totals(&self) -> (u64, u64) {
        (0..self.inner.size).fold((0, 0), |(s, r), j| {
            let (ps, pr) = self.wire_peer(j);
            (s + ps, r + pr)
        })
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.inner.rank
    }

    fn size(&self) -> usize {
        self.inner.size
    }

    fn send(&self, to: usize, frame: Vec<u8>) -> Result<()> {
        if to == self.inner.rank {
            // Self-delivery moves the owned frame into the loopback
            // queue — no copy.
            return self
                .inner
                .self_tx
                .send(InboxMsg::Data(frame))
                .map_err(|_| Error::comm("send to self: loopback queue closed"));
        }
        self.send_bytes(to, &frame)
    }

    fn send_bytes(&self, to: usize, frame: &[u8]) -> Result<()> {
        if to == self.inner.rank {
            return self
                .inner
                .self_tx
                .send(InboxMsg::Data(frame.to_vec()))
                .map_err(|_| Error::comm("send to self: loopback queue closed"));
        }
        self.inner.peers[to].as_ref().expect("peer link").write_frame(KIND_DATA, frame)
    }

    fn send_vectored(&self, to: usize, parts: &[&[u8]]) -> Result<()> {
        if to == self.inner.rank {
            let mut frame = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
            for p in parts {
                frame.extend_from_slice(p);
            }
            return self
                .inner
                .self_tx
                .send(InboxMsg::Data(frame))
                .map_err(|_| Error::comm("send to self: loopback queue closed"));
        }
        self.inner.peers[to].as_ref().expect("peer link").write_frame_parts(KIND_DATA, parts)
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

    fn flush(&self) -> Result<()> {
        // A link whose peer the failure detector already declared dead
        // keeps its dirty flag (its last flush failed, and nothing can
        // deliver those bytes anymore) — propagating that error here
        // would poison every later collective, including a survivor
        // sub-group's recovery traffic that never addresses the dead
        // rank. Suppress it; a *live* peer's flush failure still fails
        // the collective (and is how a death is first detected when
        // the write side notices before the reader does).
        let gone = self.inner.pending.lock().expect("pending fetches lock").reader_gone.clone();
        for p in self.inner.peers.iter().flatten() {
            if let Err(e) = p.flush() {
                if !gone.get(p.peer).copied().unwrap_or(false) {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn dead_peers(&self) -> Vec<bool> {
        self.inner.pending.lock().expect("pending fetches lock").reader_gone.clone()
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
        inner
            .self_tx
            .send(InboxMsg::Epoch(epoch))
            .map_err(|_| Error::comm("advance epoch: self loopback queue closed"))
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
                Ok(InboxMsg::Data(_)) => {} // stale pre-epoch traffic: discard
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

// -------------------------------------------------------------------
// Reader thread: demultiplex one peer's frames.
// -------------------------------------------------------------------

struct ReaderCtx {
    peer: usize,
    stream: TcpStream,
    link: Arc<PeerLink>,
    data_tx: Sender<InboxMsg>,
    pending: Arc<Pending>,
    handler: Arc<RwLock<Option<BlockHandler>>>,
    store_handler: Arc<RwLock<Option<StoreHandler>>>,
    shutdown: Arc<AtomicBool>,
    tracer: Arc<Mutex<Tracer>>,
    pool: Arc<RwLock<Option<BufferPool>>>,
}

impl ReaderCtx {
    fn run(self) {
        let peer = self.peer;
        let pending = Arc::clone(&self.pending);
        let shutdown = Arc::clone(&self.shutdown);
        let tracer = Arc::clone(&self.tracer);
        self.demux();
        // Journal the death first — but only when the connection broke
        // on its own; a deliberate local teardown closes every socket
        // and is not a failure-detector verdict.
        if !shutdown.load(Ordering::Acquire) {
            tracer.lock().expect("tracer lock").instant(TraceEv::PeerDead { peer });
        }
        // This reader is the only path a response from `peer` can
        // take: once it exits (socket closed, protocol violation,
        // teardown), fail every request still in flight to the peer
        // immediately — waiters must not ride out the full read
        // timeout against a rank that can no longer answer — and mark
        // the peer so later registrations come back pre-failed.
        let mut p = pending.lock().expect("pending fetches lock");
        p.reader_gone[peer] = true;
        let gone: Vec<u64> = p
            .inflight
            .iter()
            .filter(|(_, (owner, _, _))| *owner == peer)
            .map(|(id, _)| *id)
            .collect();
        for id in gone {
            if let Some((_, op, slot)) = p.inflight.remove(&id) {
                slot.complete(Err(Error::comm(format!(
                    "{}: peer disconnected",
                    op.describe(peer)
                ))));
            }
        }
    }

    fn demux(mut self) {
        loop {
            let mut header = [0u8; 5];
            match self.read_full(&mut header) {
                ReadOutcome::Ok => {}
                ReadOutcome::Closed | ReadOutcome::Shutdown => return,
            }
            let kind = header[0];
            let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
            if kind == KIND_BLOCK_RESP {
                // Split receive: the 9-byte `[id][status]` prefix lands
                // on the stack, the body straight into its final buffer
                // (a recycled pool buffer when the size matches) — the
                // decode buffer *is* the handed-off buffer, no `to_vec`.
                if len < 9 {
                    return; // malformed response: protocol violation
                }
                let mut prefix = [0u8; 9];
                match self.read_full(&mut prefix) {
                    ReadOutcome::Ok => {}
                    ReadOutcome::Closed | ReadOutcome::Shutdown => return,
                }
                let mut body = self.body_buf(len - 9);
                match self.read_full(&mut body) {
                    ReadOutcome::Ok => {}
                    ReadOutcome::Closed | ReadOutcome::Shutdown => return,
                }
                self.link.wire_recv.fetch_add((5 + len) as u64, Ordering::Relaxed);
                let id = u64::from_le_bytes(prefix[..8].try_into().expect("8 bytes"));
                let resp = if prefix[8] == 0 {
                    Ok(body)
                } else {
                    // The owner answered with a storage error.
                    Err(Error::io(String::from_utf8_lossy(&body).into_owned()))
                };
                self.complete_by_id(id, resp);
                continue;
            }
            let mut payload = vec![0u8; len];
            match self.read_full(&mut payload) {
                ReadOutcome::Ok => {}
                ReadOutcome::Closed | ReadOutcome::Shutdown => return,
            }
            self.link.wire_recv.fetch_add((5 + len) as u64, Ordering::Relaxed);
            match kind {
                KIND_DATA => {
                    if self.data_tx.send(InboxMsg::Data(payload)).is_err() {
                        return; // endpoint dropped
                    }
                }
                KIND_BLOCK_REQ => {
                    if self.serve_block(&payload).is_err() {
                        return;
                    }
                }
                KIND_STORE_REQ => {
                    if self.serve_store(&payload).is_err() {
                        return;
                    }
                }
                KIND_STORE_RESP => {
                    let Ok((id, reply)) = wire::decode_store_resp(&payload) else {
                        return; // malformed acknowledgement: protocol violation
                    };
                    let resp = match reply {
                        Ok(addr) => Ok(encode_store_ack(addr)),
                        // The serving rank answered with a storage error.
                        Err(msg) => Err(Error::io(msg)),
                    };
                    self.complete_by_id(id, resp);
                }
                KIND_EPOCH => {
                    let Ok(bytes) = <[u8; 8]>::try_from(&payload[..]) else {
                        return; // malformed epoch marker: protocol violation
                    };
                    let epoch = u64::from_le_bytes(bytes);
                    if self.data_tx.send(InboxMsg::Epoch(epoch)).is_err() {
                        return; // endpoint dropped
                    }
                }
                _ => return, // unknown frame kind: protocol violation
            }
        }
    }

    /// A buffer of exactly `len` bytes for an incoming response body:
    /// a recycled pool buffer when the transport has a pool of that
    /// size, a fresh allocation otherwise. Contents are garbage; the
    /// caller must fill it completely.
    fn body_buf(&self, len: usize) -> Vec<u8> {
        if let Some(pool) = self.pool.read().expect("pool lock").as_ref() {
            if pool.buf_bytes() == len {
                return pool.get().into_vec();
            }
        }
        vec![0u8; len]
    }

    /// Resolve the in-flight request `id` with `resp`. An unknown id
    /// is a response to an abandoned (dropped or timed-out) request:
    /// discard it.
    fn complete_by_id(&self, id: u64, resp: Result<Vec<u8>>) {
        let slot = self.pending.lock().expect("pending fetches lock").inflight.remove(&id);
        if let Some((_, _, slot)) = slot {
            slot.complete(resp);
        }
    }

    /// Answer one block-service request from this peer out of local
    /// storage.
    fn serve_block(&self, req: &[u8]) -> Result<()> {
        if req.len() != 16 {
            return Err(Error::comm(format!("malformed block request from rank {}", self.peer)));
        }
        let id = u64::from_le_bytes(req[..8].try_into().expect("8 bytes"));
        let disk = u32::from_le_bytes(req[8..12].try_into().expect("4 bytes"));
        let slot = u32::from_le_bytes(req[12..16].try_into().expect("4 bytes"));
        let handler = self.handler.read().expect("handler lock").clone();
        let result = match handler {
            Some(h) => h(disk, slot),
            None => Err("no block handler registered on remote rank".to_string()),
        };
        // Gather-write the `[id][status]` prefix and the body without
        // assembling an intermediate response buffer; the served block
        // is recycled into the pool afterwards.
        let mut prefix = [0u8; 9];
        prefix[..8].copy_from_slice(&id.to_le_bytes());
        match result {
            Ok(data) => {
                prefix[8] = 0;
                self.link.write_frame_parts(KIND_BLOCK_RESP, &[&prefix, &data])?;
                if let Some(pool) = self.pool.read().expect("pool lock").as_ref() {
                    pool.put_vec(data);
                }
            }
            Err(msg) => {
                prefix[8] = 1;
                self.link.write_frame_parts(KIND_BLOCK_RESP, &[&prefix, msg.as_bytes()])?;
            }
        }
        self.link.flush()
    }

    /// Answer one block-*store* request from this peer: allocate a
    /// slot in local storage (this rank's allocator is the single
    /// authority over its disks), write the data, and acknowledge with
    /// the assigned address.
    fn serve_store(&self, req: &[u8]) -> Result<()> {
        let (id, disk_hint, data) = wire::decode_store_req(req).map_err(|e| {
            Error::comm(format!("malformed store request from rank {}: {e}", self.peer))
        })?;
        let handler = self.store_handler.read().expect("store handler lock").clone();
        let reply: wire::StoreReply = match handler {
            Some(h) => h(disk_hint, data),
            None => Err("no store handler registered on remote rank".to_string()),
        };
        let resp = wire::encode_store_resp(id, &reply);
        self.link.write_frame(KIND_STORE_RESP, &resp)?;
        self.link.flush()
    }

    /// Fill `buf`, riding out socket read-timeout ticks (idle peers are
    /// normal; the shutdown flag ends the wait, a closed socket ends
    /// the connection).
    fn read_full(&mut self, buf: &mut [u8]) -> ReadOutcome {
        let mut filled = 0;
        while filled < buf.len() {
            if self.shutdown.load(Ordering::Acquire) {
                return ReadOutcome::Shutdown;
            }
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
        ReadOutcome::Ok
    }
}

enum ReadOutcome {
    Ok,
    Closed,
    Shutdown,
}

// -------------------------------------------------------------------
// Mesh bootstrap
// -------------------------------------------------------------------

/// Dial `addr`, retrying while the peer's listener is still coming up,
/// then send the rank handshake.
fn dial_peer(addr: SocketAddr, my_rank: usize, deadline: Instant) -> std::io::Result<TcpStream> {
    loop {
        // Per-attempt timeout generous enough for high-RTT links (the
        // multi-host hostfile mode); the retry loop handles peers that
        // are not listening yet, bounded by the overall deadline.
        let attempt = Duration::from_secs(2).min(
            deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(250)),
        );
        match TcpStream::connect_timeout(&addr, attempt) {
            Ok(mut s) => {
                let mut hello = [0u8; 9];
                hello[..4].copy_from_slice(&MAGIC.to_le_bytes());
                hello[4] = VERSION;
                hello[5..9].copy_from_slice(&(my_rank as u32).to_le_bytes());
                s.write_all(&hello)?;
                s.flush()?;
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Accept `expect` handshaken connections from ranks above `my_rank`,
/// in any arrival order.
///
/// Connections that fail the handshake — silent probers (a port
/// scanner or health check hitting a well-known hostfile port), bad
/// magic/version, or duplicate/out-of-range ranks — are dropped and
/// accepting continues; only the deadline aborts the bootstrap.
fn accept_peers(
    listener: &TcpListener,
    my_rank: usize,
    size: usize,
    expect: usize,
    deadline: Instant,
) -> std::io::Result<Vec<(usize, TcpStream)>> {
    listener.set_nonblocking(true)?;
    let mut got: Vec<(usize, TcpStream)> = Vec::with_capacity(expect);
    while got.len() < expect {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some((rank, stream)) = handshake_inbound(stream, my_rank, size, &got) {
                    got.push((rank, stream));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "rank {my_rank}: only {} of {expect} inbound connections arrived",
                            got.len()
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Validate one inbound connection's rank handshake; `None` drops it.
fn handshake_inbound(
    mut stream: TcpStream,
    my_rank: usize,
    size: usize,
    got: &[(usize, TcpStream)],
) -> Option<(usize, TcpStream)> {
    stream.set_nonblocking(false).ok()?;
    // A real peer writes its hello immediately on connect, so a short
    // timeout suffices — and bounds how long a silent stray can stall
    // the (single-threaded) accept loop.
    stream.set_read_timeout(Some(Duration::from_millis(1000))).ok()?;
    let mut hello = [0u8; 9];
    stream.read_exact(&mut hello).ok()?;
    let magic = u32::from_le_bytes(hello[..4].try_into().expect("4 bytes"));
    let version = hello[4];
    let rank = u32::from_le_bytes(hello[5..9].try_into().expect("4 bytes")) as usize;
    if magic != MAGIC || version != VERSION {
        return None;
    }
    if rank <= my_rank || rank >= size || got.iter().any(|(r, _)| *r == rank) {
        return None; // out-of-range or duplicate: first connection wins
    }
    Some((rank, stream))
}

/// Bind an ephemeral loopback listener (mesh address to register with
/// the coordinator or hostfile).
pub fn bind_loopback() -> Result<(TcpListener, SocketAddr)> {
    let l = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| Error::comm(format!("bind loopback listener: {e}")))?;
    let addr = l.local_addr().map_err(|e| Error::comm(e.to_string()))?;
    Ok((l, addr))
}

/// Parse a rendezvous host file: one `host:port` per line (rank =
/// line order), blank lines and `#` comments ignored.
///
/// Every line must resolve to a *distinct* address: two ranks sharing
/// one `host:port` would both try to bind it and the mesh handshake
/// would mis-assign their connections, so duplicates are rejected
/// up front with [`Error::Config`] naming both lines.
pub fn parse_hostfile(text: &str) -> Result<Vec<SocketAddr>> {
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut lines: Vec<usize> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut resolved = line
            .to_socket_addrs()
            .map_err(|e| Error::config(format!("hostfile line {}: {e}", lineno + 1)))?;
        let addr = resolved.next().ok_or_else(|| {
            Error::config(format!("hostfile line {} resolves to no address", lineno + 1))
        })?;
        if let Some(dup) = addrs.iter().position(|a| *a == addr) {
            return Err(Error::config(format!(
                "hostfile line {} duplicates rank {}'s address {addr} (line {}): \
                 every rank needs its own host:port",
                lineno + 1,
                dup,
                lines[dup] + 1
            )));
        }
        addrs.push(addr);
        lines.push(lineno);
    }
    if addrs.is_empty() {
        return Err(Error::config("hostfile contains no addresses"));
    }
    Ok(addrs)
}

/// Bootstrap a full loopback mesh of `p` endpoints within this process
/// (each rank on its own thread during the handshake). Used by tests
/// and benchmarks to exercise the complete wire path.
pub fn loopback_mesh(p: usize, opts: TcpOptions) -> Result<Vec<TcpTransport>> {
    let mut listeners = Vec::with_capacity(p);
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let (l, a) = bind_loopback()?;
        listeners.push(l);
        addrs.push(a);
    }
    let addrs = &addrs;
    let opts = &opts;
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                s.spawn(move || TcpTransport::connect_mesh(rank, addrs, listener, opts.clone()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mesh thread")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster, run_cluster_tcp};
    use crate::comm::Communicator;

    fn fast_opts() -> TcpOptions {
        TcpOptions {
            read_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(5),
            write_buffer: 4 << 10,
        }
    }

    #[test]
    fn loopback_collectives_match_local_transport() {
        let job = |c: Communicator| {
            c.barrier().expect("barrier");
            let gathered = c.allgather(vec![c.rank() as u8; 3]).expect("allgather");
            let sum = c.allreduce_sum(c.rank() as u64 + 1).expect("allreduce");
            let msgs: Vec<Vec<u8>> = (0..c.size()).map(|j| vec![c.rank() as u8, j as u8]).collect();
            let a2a = c.alltoallv(msgs).expect("alltoallv");
            let bc = c
                .broadcast(1, if c.rank() == 1 { vec![7, 7] } else { Vec::new() })
                .expect("broadcast");
            (gathered, sum, a2a, bc, c.counters())
        };
        let local = run_cluster(4, job);
        let tcp = run_cluster_tcp(4, job);
        for (l, t) in local.iter().zip(&tcp) {
            assert_eq!(l.0, t.0, "allgather");
            assert_eq!(l.1, t.1, "allreduce");
            assert_eq!(l.2, t.2, "alltoallv");
            assert_eq!(l.3, t.3, "broadcast");
            // The headline transport property: metered traffic is
            // byte-for-byte identical across transports.
            assert_eq!(l.4, t.4, "CommCounters parity");
        }
    }

    #[test]
    fn mesh_survives_out_of_order_connects() {
        // Stagger rank start-up in reverse order: high ranks dial
        // before low ranks even listen-accept, so connections arrive
        // out of order and the rank handshake must sort them out.
        let p = 4;
        let mut listeners = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..p {
            let (l, a) = bind_loopback().expect("bind");
            listeners.push(l);
            addrs.push(a);
        }
        let addrs = &addrs;
        let transports: Vec<TcpTransport> = std::thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    s.spawn(move || {
                        std::thread::sleep(Duration::from_millis(30 * (p - rank) as u64));
                        TcpTransport::connect_mesh(rank, addrs, listener, fast_opts())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("thread").expect("mesh")).collect()
        });
        // The mesh must be fully usable: run a barrier + alltoall.
        let comms: Vec<Communicator> =
            transports.into_iter().map(|t| Communicator::new(Box::new(t))).collect();
        let results = crate::cluster::run_cluster_over(comms, |c| {
            c.barrier().expect("barrier");
            c.allgather_u64(c.rank() as u64 * 100).expect("allgather")
        });
        for r in results {
            assert_eq!(r, vec![0, 100, 200, 300]);
        }
    }

    #[test]
    fn mesh_tolerates_stray_connections() {
        // A stray client hits rank 0's listener (where rank 1 is also
        // expected) with a garbage handshake: the bootstrap must drop
        // it and still complete the mesh.
        let (l0, a0) = bind_loopback().expect("bind 0");
        let (l1, a1) = bind_loopback().expect("bind 1");
        let addrs = vec![a0, a1];
        let mut stray = std::net::TcpStream::connect(a0).expect("stray connect");
        stray.write_all(&[0xFF; 9]).expect("stray garbage");
        let addrs = &addrs;
        let (t0, t1) = std::thread::scope(|s| {
            let h0 = s.spawn(move || TcpTransport::connect_mesh(0, addrs, l0, fast_opts()));
            let h1 = s.spawn(move || TcpTransport::connect_mesh(1, addrs, l1, fast_opts()));
            (
                h0.join().expect("thread 0").expect("mesh 0"),
                h1.join().expect("thread 1").expect("mesh 1"),
            )
        });
        drop(stray);
        t1.send(0, vec![5]).expect("send");
        t1.flush().expect("flush");
        assert_eq!(t0.recv(1).expect("recv"), vec![5]);
    }

    #[test]
    fn dead_peer_surfaces_error_not_hang() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.send(0, vec![1, 2]).expect("send");
        t1.flush().expect("flush");
        assert_eq!(t0.recv(1).expect("first frame"), vec![1, 2]);
        // Rank 1 dies mid-collective: its sockets close.
        drop(t1);
        let start = Instant::now();
        let err = t0.recv(1).expect_err("dead peer must error");
        assert!(matches!(err, Error::Comm(_)), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn silent_peer_times_out() {
        let mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        // Rank 1 stays alive but sends nothing.
        let start = Instant::now();
        let err = mesh[0].recv(1).expect_err("silence must time out");
        assert!(matches!(err, Error::Comm(ref m) if m.contains("timed out")), "{err}");
        assert!(start.elapsed() >= Duration::from_millis(400));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn block_fetch_round_trip_and_missing_handler() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        // No handler yet: the requester gets an error reply, not a hang.
        let err = t0.fetch_block(1, 0, 0).expect_err("no handler");
        assert!(err.to_string().contains("no block handler"), "{err}");
        // Register a handler on rank 1 serving synthetic blocks.
        t1.set_block_handler(Arc::new(|disk, slot| {
            if disk > 3 {
                return Err(format!("no such disk {disk}"));
            }
            Ok(vec![disk as u8, slot as u8, 0xAB])
        }));
        assert_eq!(t0.fetch_block(1, 2, 9).expect("fetch"), vec![2, 9, 0xAB]);
        let err = t0.fetch_block(1, 7, 0).expect_err("bad disk");
        assert!(err.to_string().contains("no such disk"), "{err}");
        // The block service is out of band: data frames sent before a
        // fetch do not block it, and per-source FIFO of data survives.
        t1.send(0, vec![42]).expect("send");
        assert_eq!(t0.fetch_block(1, 0, 1).expect("fetch"), vec![0, 1, 0xAB]);
        assert_eq!(t0.recv(1).expect("data"), vec![42]);
    }

    #[test]
    fn batched_fetches_pipeline_and_match_by_id() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.set_block_handler(Arc::new(|disk, slot| {
            if slot == 13 {
                return Err("slot 13 is cursed".to_string());
            }
            Ok(vec![disk as u8, slot as u8])
        }));
        // One flush puts a whole batch on the wire; futures come back
        // in request order even though they complete independently.
        let blocks: Vec<(u32, u32)> = (0..40u32).map(|i| (i % 4, i)).collect();
        let fetches = t0.fetch_blocks(1, &blocks).expect("issue batch");
        assert_eq!(fetches.len(), blocks.len());
        // Wait in REVERSE order: matching is by id, not arrival order.
        let mut results: Vec<Option<Vec<u8>>> = (0..blocks.len()).map(|_| None).collect();
        for (i, f) in fetches.into_iter().enumerate().rev() {
            if i == 13 {
                let err = f.wait().expect_err("cursed slot");
                assert!(err.to_string().contains("cursed"), "{err}");
                results[i] = Some(Vec::new());
            } else {
                results[i] = Some(f.wait().expect("fetch"));
            }
        }
        for (i, r) in results.iter().enumerate() {
            if i == 13 {
                continue;
            }
            assert_eq!(r.as_deref(), Some(&[(i % 4) as u8, i as u8][..]), "block {i}");
        }
    }

    #[test]
    fn concurrent_fetches_from_many_threads() {
        // No serialization lock: several threads may have fetches in
        // flight to the same peer at once, and each gets its own
        // responses back (routing is by request id).
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.set_block_handler(Arc::new(|disk, slot| Ok(vec![disk as u8, slot as u8])));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|thread| {
                    let t0 = t0.clone();
                    s.spawn(move || {
                        for slot in 0..25u32 {
                            let got = t0.fetch_block(1, thread, slot).expect("fetch");
                            assert_eq!(got, vec![thread as u8, slot as u8]);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("fetch thread");
            }
        });
    }

    #[test]
    fn dead_peer_fails_fetches_fast_not_after_timeout() {
        // A generous read timeout that a hung fetch would ride out.
        let opts = TcpOptions { read_timeout: Duration::from_secs(30), ..fast_opts() };
        let mut mesh = loopback_mesh(2, opts).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        drop(t1); // peer dies; no response can ever arrive
        let start = Instant::now();
        // Depending on timing the requests are refused up front (the
        // reader already noticed the closed socket), fail at flush, or
        // are swept when the reader exits — every path must resolve
        // far below the read timeout.
        let err = match t0.fetch_blocks(1, &[(0, 0), (1, 1)]) {
            Ok(fetches) => {
                let mut first_err = None;
                for f in fetches {
                    if let Err(e) = f.wait() {
                        first_err = Some(e);
                        break;
                    }
                }
                first_err.expect("dead peer must fail the fetch")
            }
            Err(e) => e,
        };
        assert!(matches!(err, Error::Comm(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead peer must fail fetches promptly, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn abandoned_fetch_discards_late_response() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.set_block_handler(Arc::new(|disk, slot| Ok(vec![disk as u8, slot as u8])));
        // Drop the future without waiting: the request is abandoned and
        // the late response must be discarded, not corrupt a later one.
        let fetches = t0.fetch_blocks(1, &[(0, 1)]).expect("issue");
        drop(fetches);
        // A subsequent fetch still gets exactly its own block.
        assert_eq!(t0.fetch_block(1, 2, 3).expect("fetch"), vec![2, 3]);
    }

    #[test]
    fn wire_meters_count_headers() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t0.send(1, vec![0; 100]).expect("send");
        t0.flush().expect("flush");
        assert_eq!(t1.recv(0).expect("recv").len(), 100);
        let (sent, _) = t0.wire_peer(1);
        assert_eq!(sent, 105, "payload + 5-byte frame header");
        let (_, recv) = t1.wire_peer(0);
        assert_eq!(recv, 105);
        assert_eq!(t0.wire_totals().0, 105);
    }

    #[test]
    fn hostfile_parses_and_rejects() {
        let text = "# demsort hosts\n127.0.0.1:9000\n\n127.0.0.1:9001\n";
        let addrs = parse_hostfile(text).expect("parse");
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[0].port(), 9000);
        assert_eq!(addrs[1].port(), 9001);
        assert!(parse_hostfile("").is_err(), "empty hostfile");
        assert!(parse_hostfile("not-an-address").is_err(), "garbage line");
    }

    #[test]
    fn hostfile_rejects_duplicate_addresses_and_parses_non_loopback() {
        // Two ranks on one host:port would fight over the bind and the
        // handshake would mis-assign connections: reject up front,
        // naming both offending lines.
        let err = parse_hostfile("10.0.0.1:9000\n10.0.0.2:9000\n\n10.0.0.1:9000\n")
            .expect_err("duplicate address");
        assert!(
            matches!(err, Error::Config(ref m) if m.contains("line 4") && m.contains("line 1")),
            "{err}"
        );
        // Real cluster hostfiles carry non-loopback addresses; rank
        // order and ports must survive parsing unchanged.
        let addrs = parse_hostfile("10.1.2.3:7000\n10.1.2.4:7001\n").expect("parse");
        assert_eq!(addrs.len(), 2);
        assert!(!addrs[0].ip().is_loopback());
        assert_eq!(addrs[0], SocketAddr::from(([10, 1, 2, 3], 7000)));
        assert_eq!(addrs[1], SocketAddr::from(([10, 1, 2, 4], 7001)));
        // Same host on distinct ports is fine (multi-PE per node).
        assert!(parse_hostfile("10.1.2.3:7000\n10.1.2.3:7001\n").is_ok());
    }

    #[test]
    fn mesh_over_non_loopback_addresses() {
        // Find a routable non-loopback local IP (CI/container safe: a
        // connected UDP socket does a route lookup, no packets move).
        let probe = std::net::UdpSocket::bind("0.0.0.0:0").expect("udp bind");
        let ip = match probe.connect("192.0.2.1:9").and_then(|()| probe.local_addr()) {
            Ok(a) if !a.ip().is_loopback() => a.ip(),
            // No non-loopback interface (fully isolated sandbox):
            // nothing beyond the loopback tests to exercise.
            _ => return,
        };
        let mut listeners = Vec::new();
        let mut rendered = String::new();
        for _ in 0..2 {
            let l = TcpListener::bind((ip, 0)).expect("bind non-loopback");
            let a = l.local_addr().expect("addr");
            rendered.push_str(&format!("{a}\n"));
            listeners.push(l);
        }
        // Round-trip through the hostfile path the launcher uses.
        let addrs = parse_hostfile(&rendered).expect("parse");
        assert!(!addrs[0].ip().is_loopback());
        let l1 = listeners.pop().expect("listener 1");
        let l0 = listeners.pop().expect("listener 0");
        let addrs = &addrs;
        let (t0, t1) = std::thread::scope(|s| {
            let h0 = s.spawn(move || TcpTransport::connect_mesh(0, addrs, l0, fast_opts()));
            let h1 = s.spawn(move || TcpTransport::connect_mesh(1, addrs, l1, fast_opts()));
            (
                h0.join().expect("thread 0").expect("mesh 0"),
                h1.join().expect("thread 1").expect("mesh 1"),
            )
        });
        t1.send(0, vec![0xEE]).expect("send");
        t1.flush().expect("flush");
        assert_eq!(t0.recv(1).expect("recv"), vec![0xEE]);
    }

    #[test]
    fn block_store_round_trip_and_missing_handler() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        // No handler yet: the requester gets an error reply, not a hang.
        let err = t0.store_block(1, 0, &[1, 2, 3]).expect_err("no handler");
        assert!(err.to_string().contains("no store handler"), "{err}");
        // Rank 1 accepts stores: its allocator assigns slots in
        // arrival order on the hinted disk.
        type StoredBlocks = Arc<Mutex<Vec<(u32, Vec<u8>)>>>;
        let stored: StoredBlocks = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stored);
        t1.set_store_handler(Arc::new(move |hint, data| {
            if hint > 3 {
                return Err(format!("no such disk {hint}"));
            }
            let mut s = sink.lock().expect("sink lock");
            s.push((hint, data.to_vec()));
            Ok((hint, (s.len() - 1) as u32))
        }));
        assert_eq!(t0.store_block(1, 2, &[0xAA, 0xBB]).expect("store"), (2, 0));
        assert_eq!(t0.store_block(1, 1, &[0xCC]).expect("store"), (1, 1));
        let err = t0.store_block(1, 9, &[0]).expect_err("bad disk");
        assert!(matches!(err, Error::Io(ref m) if m.contains("no such disk")), "{err}");
        // Self-stores go through the same handler without the wire.
        assert_eq!(t1.store_block(1, 3, &[0x01]).expect("self store"), (3, 2));
        assert_eq!(
            *stored.lock().expect("sink lock"),
            vec![(2, vec![0xAA, 0xBB]), (1, vec![0xCC]), (3, vec![0x01])]
        );
    }

    #[test]
    fn batched_stores_pipeline_and_match_by_id() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        t1.set_store_handler(Arc::new(move |hint, data| {
            if data.first() == Some(&13) {
                return Err("payload 13 is cursed".to_string());
            }
            Ok((hint, c.fetch_add(1, Ordering::Relaxed) as u32))
        }));
        // One flush puts the whole batch on the wire; acknowledgements
        // come back in request order even when waited in reverse.
        let payloads: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i, i ^ 0xFF]).collect();
        let blocks: Vec<(u32, &[u8])> =
            payloads.iter().enumerate().map(|(i, p)| ((i % 4) as u32, p.as_slice())).collect();
        let stores = t0.store_blocks(1, &blocks).expect("issue batch");
        assert_eq!(stores.len(), blocks.len());
        let mut addrs: Vec<Option<(u32, u32)>> = (0..blocks.len()).map(|_| None).collect();
        for (i, st) in stores.into_iter().enumerate().rev() {
            if i == 13 {
                let err = st.wait().expect_err("cursed payload");
                assert!(err.to_string().contains("cursed"), "{err}");
                addrs[i] = Some((u32::MAX, u32::MAX));
            } else {
                addrs[i] = Some(st.wait().expect("store"));
            }
        }
        for (i, a) in addrs.iter().enumerate() {
            if i == 13 {
                continue;
            }
            // Requests are served in wire order, so the allocator's
            // slot counter tracks the request index (skipping the
            // failed store).
            let expect_slot = if i < 13 { i } else { i - 1 } as u32;
            assert_eq!(*a, Some(((i % 4) as u32, expect_slot)), "store {i}");
        }
        assert_eq!(count.load(Ordering::Relaxed), 39);
    }

    #[test]
    fn dead_peer_fails_stores_fast_not_after_timeout() {
        let opts = TcpOptions { read_timeout: Duration::from_secs(30), ..fast_opts() };
        let mut mesh = loopback_mesh(2, opts).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        drop(t1); // peer dies; no acknowledgement can ever arrive
        let start = Instant::now();
        let data = [7u8; 4];
        let err = match t0.store_blocks(1, &[(0, &data[..]), (1, &data[..])]) {
            Ok(stores) => {
                let mut first_err = None;
                for st in stores {
                    if let Err(e) = st.wait() {
                        first_err = Some(e);
                        break;
                    }
                }
                first_err.expect("dead peer must fail the store")
            }
            Err(e) => e,
        };
        assert!(matches!(err, Error::Comm(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead peer must fail stores promptly, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn dead_peers_snapshot_reports_the_dead_rank() {
        let mut mesh = loopback_mesh(3, fast_opts()).expect("mesh");
        let t2 = mesh.pop().expect("rank 2");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        assert_eq!(t0.dead_peers(), vec![false, false, false]);
        drop(t1);
        // Readers notice the closed sockets within a tick or two; both
        // survivors converge on the same snapshot.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let d0 = t0.dead_peers();
            let d2 = t2.dead_peers();
            if d0 == vec![false, true, false] && d2 == vec![false, true, false] {
                break;
            }
            assert!(Instant::now() < deadline, "rank 1 never reported dead: {d0:?} / {d2:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The surviving pair still talks.
        t2.send(0, vec![9]).expect("send");
        t2.flush().expect("flush");
        assert_eq!(t0.recv(2).expect("recv"), vec![9]);
    }

    #[test]
    fn epoch_marker_cuts_stale_traffic_deterministically() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        // Rank 1 leaves stale pre-recovery traffic queued at rank 0,
        // then cuts over and sends a recovery frame.
        t1.send(0, vec![1]).expect("stale");
        t1.send(0, vec![2]).expect("stale");
        t1.advance_epoch(1).expect("epoch");
        t1.send(0, vec![3]).expect("post-epoch");
        t1.flush().expect("flush");
        // Draining to the marker discards exactly the stale frames.
        t0.drain_to_epoch(1, 1).expect("drain");
        assert_eq!(t0.recv(1).expect("recv"), vec![3]);
        // A watermark already reached makes the drain a no-op (it must
        // not eat post-epoch data).
        t1.send(0, vec![4]).expect("data");
        t1.flush().expect("flush");
        t0.drain_to_epoch(1, 1).expect("idempotent");
        assert_eq!(t0.recv(1).expect("recv"), vec![4]);
        // A recv that runs into a marker surfaces a clean Comm error
        // and records the watermark for a later drain.
        t1.advance_epoch(2).expect("epoch 2");
        let err = t0.recv(1).expect_err("marker surfaces as Comm");
        assert!(matches!(err, Error::Comm(ref m) if m.contains("epoch")), "{err}");
        t0.drain_to_epoch(1, 2).expect("watermark already recorded");
        // The marker also cuts the sender's own self FIFO.
        t1.send(1, vec![5]).expect("self send");
        t1.advance_epoch(3).expect("epoch 3");
        t1.drain_to_epoch(1, 3).expect("self drain");
        t1.send(1, vec![6]).expect("self send");
        assert_eq!(t1.recv(1).expect("self recv"), vec![6]);
    }

    #[test]
    fn single_rank_mesh_needs_no_sockets() {
        let mesh = loopback_mesh(1, fast_opts()).expect("mesh");
        let c = Communicator::new(Box::new(mesh.into_iter().next().expect("one")));
        c.barrier().expect("barrier");
        assert_eq!(c.allreduce_sum(3).expect("allreduce"), 3);
    }
}
