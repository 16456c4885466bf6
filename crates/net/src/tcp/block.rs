//! The block channel: one request/reply exchange for reading and
//! writing blocks on another rank's disks, out of band of the data
//! frames.
//!
//! A request ([`wire::BlockReq`]) names an operation — fetch the block
//! at `(disk, slot)`, or store the attached payload near `disk` — and
//! carries an id; the owner's reader thread serves it from the
//! registered handler and answers `[id][status][body]`, where the body
//! is the block, the assigned store address, or the owner's error
//! text. Requests carry ids, so any number can be in flight per peer
//! and responses are matched by id, not arrival order
//! ([`TcpTransport::fetch_blocks`] / [`TcpTransport::store_blocks`]
//! pipeline a whole batch behind one flush). Block-sized payloads, in
//! either direction, are received straight into buffers of the
//! endpoint's [`BufferPool`].

use super::endpoint::TcpTransport;
use super::link::{FrameReader, PeerLink, KIND_BLOCK_REQ, KIND_BLOCK_RESP};
use demsort_types::wire::{self, BlockOp, BlockReq};
use demsort_types::{BufferPool, Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

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

/// `"block fetch from rank 3"` / `"block store to rank 3"` — only the
/// direction differs in the two operations' error messages.
fn describe(op: BlockOp, peer: usize) -> String {
    match op {
        BlockOp::Fetch => format!("block fetch from rank {peer}"),
        BlockOp::Store => format!("block store to rank {peer}"),
    }
}

/// Completion slot of one in-flight request: the reader thread that
/// receives the matching response fills it and wakes the waiter.
struct FetchSlot {
    result: Mutex<Option<Result<Vec<u8>>>>,
    cv: Condvar,
}

impl FetchSlot {
    fn complete(&self, r: Result<Vec<u8>>) {
        let mut guard = self.result.lock().expect("fetch slot lock");
        *guard = Some(r);
        self.cv.notify_all();
    }
}

/// The in-flight requests of one endpoint (fetches and stores share
/// one id space and one table), plus per-peer reader liveness. One
/// lock covers both so a reader thread's exit sweep and new
/// registrations serialize: a request is either swept (failed
/// immediately) or refused — never silently stranded to ride out the
/// full read timeout against a peer that can no longer answer.
struct Pending {
    /// Request id → (owning peer, operation, completion slot).
    /// Responses carry the id, so they may arrive on any schedule and
    /// in any order.
    inflight: HashMap<u64, (usize, BlockOp, Arc<FetchSlot>)>,
    /// `true` once the peer's reader thread has exited (socket closed,
    /// protocol violation, teardown) — no response can arrive anymore.
    reader_gone: Vec<bool>,
}

/// One endpoint's side of the block channel, shared with its reader
/// threads: what it serves with, and what it is waiting for.
pub(super) struct BlockChannel {
    rank: usize,
    read_timeout: Duration,
    pending: Mutex<Pending>,
    seq: AtomicU64,
    fetch_handler: RwLock<Option<BlockHandler>>,
    store_handler: RwLock<Option<StoreHandler>>,
    /// Block-sized payloads land in this pool's buffers and go back to
    /// it once handed on. `None` until
    /// [`TcpTransport::set_buffer_pool`].
    pool: RwLock<Option<BufferPool>>,
}

impl BlockChannel {
    pub(super) fn new(rank: usize, size: usize, read_timeout: Duration) -> Self {
        Self {
            rank,
            read_timeout,
            pending: Mutex::new(Pending {
                inflight: HashMap::new(),
                reader_gone: vec![false; size],
            }),
            seq: AtomicU64::new(0),
            fetch_handler: RwLock::new(None),
            store_handler: RwLock::new(None),
            pool: RwLock::new(None),
        }
    }

    /// Per rank, whether its reader thread has exited — the failure
    /// detector's verdict.
    pub(super) fn dead_peers(&self) -> Vec<bool> {
        self.pending.lock().expect("pending requests lock").reader_gone.clone()
    }

    /// Allocate a request id and register its completion slot. If the
    /// peer's reader thread is already gone (dead peer), the request
    /// comes back pre-failed — registration and the reader's exit
    /// sweep share one lock, so a request can never be stranded
    /// waiting on a peer that will never answer.
    fn register(self: &Arc<Self>, peer: usize, op: BlockOp) -> WireFetch {
        let id = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = Arc::new(FetchSlot { result: Mutex::new(None), cv: Condvar::new() });
        {
            let mut pending = self.pending.lock().expect("pending requests lock");
            if peer != self.rank && pending.reader_gone[peer] {
                slot.complete(Err(Error::comm(format!(
                    "{}: peer disconnected",
                    describe(op, peer)
                ))));
            } else {
                pending.inflight.insert(id, (peer, op, Arc::clone(&slot)));
            }
        }
        WireFetch { id, peer, op, slot, chan: Arc::clone(self) }
    }

    /// Issue one batch of `op` requests to rank `pe` — `(disk, slot,
    /// payload)` each — over `link`, all behind a single flush. A batch
    /// addressed to this rank itself (`link` is `None`) is served on
    /// the spot, without the wire.
    fn issue<'a>(
        self: &Arc<Self>,
        pe: usize,
        link: Option<&PeerLink>,
        op: BlockOp,
        requests: impl Iterator<Item = (u32, u32, &'a [u8])>,
    ) -> Result<Vec<WireFetch>> {
        let mut issued = Vec::with_capacity(requests.size_hint().0);
        for (disk, slot, payload) in requests {
            let pending = self.register(pe, op);
            // (The link refuses a payload beyond the frame limit, so
            // the length field cannot wrap.)
            let req = BlockReq { id: pending.id, op, disk, slot, len: payload.len() as u32 };
            match link {
                // The header and the block itself, never glued into
                // one buffer.
                Some(link) => link.write_frame_parts(KIND_BLOCK_REQ, &[&req.encode(), payload])?,
                None => pending.slot.complete(self.serve(&req, payload).map_err(Error::io)),
            }
            issued.push(pending);
        }
        if let Some(link) = link {
            link.flush()?;
        }
        Ok(issued)
    }

    /// Serve one request out of this rank's storage, through the
    /// registered handler: the response body, or a message for the
    /// requester.
    fn serve(&self, req: &BlockReq, payload: &[u8]) -> std::result::Result<Vec<u8>, String> {
        match req.op {
            BlockOp::Fetch => {
                let handler = self.fetch_handler.read().expect("handler lock").clone();
                let handler = handler
                    .ok_or_else(|| format!("no block handler registered on rank {}", self.rank))?;
                handler(req.disk, req.slot)
            }
            BlockOp::Store => {
                let handler = self.store_handler.read().expect("handler lock").clone();
                let handler = handler
                    .ok_or_else(|| format!("no store handler registered on rank {}", self.rank))?;
                let (disk, slot) = handler(req.disk, payload)?;
                Ok([disk.to_le_bytes(), slot.to_le_bytes()].concat())
            }
        }
    }

    /// A buffer of exactly `len` bytes for an incoming payload: a
    /// recycled pool buffer when the endpoint has a pool of that size,
    /// a fresh allocation otherwise. Contents are garbage; the caller
    /// must fill it completely.
    fn payload_buf(&self, len: usize) -> Vec<u8> {
        match self.pool.read().expect("pool lock").as_ref() {
            Some(pool) if pool.buf_bytes() == len => pool.get().into_vec(),
            _ => vec![0u8; len],
        }
    }

    /// Hand a buffer this channel is done with back to the pool, if it
    /// is one of the pool's size.
    fn recycle(&self, buf: Vec<u8>) {
        if let Some(pool) = self.pool.read().expect("pool lock").as_ref() {
            if buf.len() == pool.buf_bytes() {
                pool.put_vec(buf);
            }
        }
    }

    /// Reader thread: receive the rest of a request frame (`len` bytes
    /// after the frame header), serve it, and answer on `link`. `false`
    /// ends the connection — it closed, or the peer broke the protocol.
    pub(super) fn on_request(&self, rx: &mut FrameReader, link: &PeerLink, len: usize) -> bool {
        // Split receive: the request header lands on the stack, the
        // payload in a pooled buffer that goes back to the pool as soon
        // as the handler has returned.
        let mut header = [0u8; BlockReq::BYTES];
        if len < header.len() || !rx.fill(&mut header) {
            return false;
        }
        let Ok(req) = BlockReq::decode(&header, len - header.len()) else {
            return false; // malformed or length-lying request: protocol violation
        };
        let mut payload = self.payload_buf(req.len as usize);
        if !rx.fill(&mut payload) {
            return false;
        }
        let result = self.serve(&req, &payload);
        self.recycle(payload);
        // Gather-write the prefix and the body without assembling an
        // intermediate response buffer; a served block is recycled
        // into the pool afterwards.
        let prefix = wire::encode_block_resp(req.id, result.is_ok());
        let body = match &result {
            Ok(body) => body.as_slice(),
            Err(msg) => msg.as_bytes(),
        };
        let sent = link.write_frame_parts(KIND_BLOCK_RESP, &[&prefix, body]);
        if let Ok(body) = result {
            self.recycle(body);
        }
        sent.and_then(|()| link.flush()).is_ok()
    }

    /// Reader thread: receive the rest of a response frame and resolve
    /// the request it answers. `false` ends the connection.
    pub(super) fn on_response(&self, rx: &mut FrameReader, len: usize) -> bool {
        // Split receive: the prefix lands on the stack, the body
        // straight into its final buffer (a recycled pool buffer when
        // the size matches) — the decode buffer *is* the handed-off
        // buffer, no `to_vec`.
        let mut prefix = [0u8; wire::BLOCK_RESP_PREFIX];
        if len < prefix.len() || !rx.fill(&mut prefix) {
            return false;
        }
        let Ok((id, ok)) = wire::decode_block_resp(&prefix) else {
            return false; // malformed response: protocol violation
        };
        let mut body = self.payload_buf(len - prefix.len());
        if !rx.fill(&mut body) {
            return false;
        }
        // An unknown id is a response to an abandoned (dropped or
        // timed-out) request: discard it.
        let waiter = self.pending.lock().expect("pending requests lock").inflight.remove(&id);
        match waiter {
            Some((_, _, slot)) if ok => slot.complete(Ok(body)),
            // The owner answered with a storage error.
            Some((_, _, slot)) => {
                slot.complete(Err(Error::io(String::from_utf8_lossy(&body).into_owned())))
            }
            None => self.recycle(body),
        }
        true
    }

    /// `peer`'s reader thread is exiting — the only path a response
    /// from `peer` can take: fail every request still in flight to it
    /// immediately (waiters must not ride out the full read timeout
    /// against a rank that can no longer answer) and mark the peer so
    /// later registrations come back pre-failed.
    pub(super) fn peer_gone(&self, peer: usize) {
        let mut p = self.pending.lock().expect("pending requests lock");
        p.reader_gone[peer] = true;
        p.inflight.retain(|_, (owner, op, slot)| {
            if *owner == peer {
                slot.complete(Err(Error::comm(format!(
                    "{}: peer disconnected",
                    describe(*op, peer)
                ))));
            }
            *owner != peer
        });
    }
}

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
    chan: Arc<BlockChannel>,
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
        let timeout = self.chan.read_timeout;
        let deadline = Instant::now() + timeout;
        let mut guard = self.slot.result.lock().expect("fetch slot lock");
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::comm(format!(
                    "{}: timed out after {timeout:?}",
                    describe(self.op, self.peer)
                )));
            }
            let (g, _) = self.slot.cv.wait_timeout(guard, left).expect("fetch slot lock");
            guard = g;
        }
    }
}

impl Drop for WireFetch {
    fn drop(&mut self) {
        // Deregister so an abandoned (or completed) request cannot leak
        // its slot; a response arriving later is dropped by id.
        self.chan.pending.lock().expect("pending requests lock").inflight.remove(&self.id);
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
}

impl TcpTransport {
    /// Install the block-buffer pool for this endpoint. Reader threads
    /// then receive block-service payloads of exactly the pool's
    /// buffer size — fetched blocks and blocks sent here to be stored —
    /// into recycled buffers, and return served blocks and handled
    /// store payloads to it.
    pub fn set_buffer_pool(&self, pool: BufferPool) {
        *self.inner.block.pool.write().expect("pool lock") = Some(pool);
    }

    /// Register the handler serving this rank's blocks to remote
    /// block-channel requests.
    pub fn set_block_handler(&self, h: BlockHandler) {
        *self.inner.block.fetch_handler.write().expect("handler lock") = Some(h);
    }

    /// Drop the block handler (subsequent requests get an error reply),
    /// and with it whatever the handler holds.
    pub fn clear_block_handler(&self) {
        *self.inner.block.fetch_handler.write().expect("handler lock") = None;
    }

    /// Register the handler accepting remote block *stores* into this
    /// rank's storage.
    pub fn set_store_handler(&self, h: StoreHandler) {
        *self.inner.block.store_handler.write().expect("handler lock") = Some(h);
    }

    /// Drop the store handler (subsequent store requests get an error
    /// reply).
    pub fn clear_store_handler(&self) {
        *self.inner.block.store_handler.write().expect("handler lock") = None;
    }

    /// Issue a **batched, pipelined** read of `blocks` (as
    /// `(disk, slot)` addresses) from rank `pe`'s storage: every
    /// request goes onto the wire behind a single flush, responses are
    /// matched by request id (so they may arrive out of order relative
    /// to other in-flight batches), and the returned futures are in
    /// request order. Any number of requests — from any threads — may
    /// be in flight to the same peer concurrently.
    ///
    /// # Errors
    /// [`Error::Config`] if `pe` is not a rank of the mesh;
    /// [`Error::Comm`] if a request cannot be written to the peer.
    /// Per-block failures (including timeouts) surface from each
    /// [`WireFetch::wait`].
    pub fn fetch_blocks(&self, pe: usize, blocks: &[(u32, u32)]) -> Result<Vec<WireFetch>> {
        let requests = blocks.iter().map(|&(disk, slot)| (disk, slot, &[][..]));
        self.inner.block.issue(pe, self.link_to(pe)?, BlockOp::Fetch, requests)
    }

    /// Fetch one block from rank `pe`'s storage (a one-element
    /// [`TcpTransport::fetch_blocks`] waited immediately).
    pub fn fetch_block(&self, pe: usize, disk: u32, slot: u32) -> Result<Vec<u8>> {
        let mut fetches = self.fetch_blocks(pe, &[(disk, slot)])?;
        fetches.pop().expect("one fetch issued").wait()
    }

    /// Issue a **batched, pipelined** store of `blocks` (as
    /// `(disk_hint, data)` pairs) into rank `pe`'s storage — the same
    /// exchange as [`fetch_blocks`](Self::fetch_blocks) with the block
    /// travelling in the request: one flush per batch, acknowledgements
    /// matched by request id, futures in request order. The serving
    /// rank allocates each copy itself (honouring `disk_hint`) and
    /// answers with the assigned `(disk, slot)`.
    ///
    /// # Errors
    /// As [`fetch_blocks`](Self::fetch_blocks); per-block failures
    /// surface from each [`WireStore::wait`].
    pub fn store_blocks(&self, pe: usize, blocks: &[(u32, &[u8])]) -> Result<Vec<WireStore>> {
        let requests = blocks.iter().map(|&(disk_hint, data)| (disk_hint, 0, data));
        let issued = self.inner.block.issue(pe, self.link_to(pe)?, BlockOp::Store, requests)?;
        Ok(issued.into_iter().map(WireStore).collect())
    }

    /// Store one block into rank `pe`'s storage (a one-element
    /// [`TcpTransport::store_blocks`] waited immediately); returns the
    /// `(disk, slot)` the serving rank assigned.
    pub fn store_block(&self, pe: usize, disk_hint: u32, data: &[u8]) -> Result<(u32, u32)> {
        let mut stores = self.store_blocks(pe, &[(disk_hint, data)])?;
        stores.pop().expect("one store issued").wait()
    }

    /// The link block requests to rank `pe` travel on; `None` for this
    /// rank itself.
    fn link_to(&self, pe: usize) -> Result<Option<&PeerLink>> {
        match self.inner.peers.get(pe) {
            Some(link) => Ok(link.as_deref()),
            None => Err(Error::config(format!(
                "rank {pe} out of range for {} ranks",
                self.inner.peers.len()
            ))),
        }
    }
}
