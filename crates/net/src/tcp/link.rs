//! One peer connection: the frame layout, the buffered gather-writer,
//! the reader's blocking fill, and the wire meters.
//!
//! Every message is a length-prefixed frame `[kind: u8][len: u32 LE]
//! [payload]`; the connection identifies the source rank, so frames
//! carry no addressing. Both halves meter what they move (headers
//! included): [`PeerLink`] counts bytes written, [`FrameReader`] bytes
//! read.

use demsort_types::{fio, Error, Result};
use std::io::{BufWriter, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound on a single frame: the full reach of the `u32` length
/// field, so any message `chunked_alltoallv` produces under the 2 GiB
/// `MPI_VOLUME_LIMIT` (plus submessage headers) fits in one frame.
/// Senders reject larger payloads explicitly; receivers treat larger
/// prefixes as corruption.
const MAX_FRAME: usize = u32::MAX as usize;
/// Socket-level read timeout: the tick at which blocked reads re-check
/// the shutdown flag (liveness of teardown, not of peers — peer
/// liveness is `TcpOptions::read_timeout` at the queue level).
const READ_TICK: Duration = Duration::from_millis(100);

/// Frame kinds on the wire.
pub(super) const KIND_DATA: u8 = 0;
pub(super) const KIND_BLOCK_REQ: u8 = 1;
pub(super) const KIND_BLOCK_RESP: u8 = 2;
pub(super) const KIND_EPOCH: u8 = 3;

/// `[kind][len]`.
const FRAME_HEADER: usize = 5;

/// The write half of one established peer connection: buffered writer
/// plus wire-level per-peer traffic meters (headers included — the
/// payload-level counters live in the transport-independent
/// `Communicator`).
///
/// The link knows its peer's rank so every failure it reports names
/// the dead peer and the direction (`send to rank j` / `flush to rank
/// j`) — launch diagnostics point at a rank, not at "connection
/// reset".
pub(super) struct PeerLink {
    /// Rank of the peer this link connects to.
    pub(super) peer: usize,
    stream: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    /// Set inside the writer lock on every send, cleared inside the
    /// lock on flush — `flush_all` skips peers with nothing pending.
    dirty: AtomicBool,
    wire_sent: AtomicU64,
    wire_recv: AtomicU64,
}

impl PeerLink {
    /// Split the handshaken `stream` to rank `peer` into its write half
    /// (the link) and its read half, which stops at `shutdown`.
    pub(super) fn open(
        peer: usize,
        stream: TcpStream,
        write_buffer: usize,
        shutdown: Arc<AtomicBool>,
    ) -> Result<(Arc<Self>, FrameReader)> {
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TICK)))
            .map_err(|e| Error::comm(format!("configure socket to rank {peer}: {e}")))?;
        let clone = || {
            stream.try_clone().map_err(|e| Error::comm(format!("clone socket to rank {peer}: {e}")))
        };
        let link = Arc::new(Self {
            peer,
            writer: Mutex::new(BufWriter::with_capacity(write_buffer, clone()?)),
            stream: clone()?,
            dirty: AtomicBool::new(false),
            wire_sent: AtomicU64::new(0),
            wire_recv: AtomicU64::new(0),
        });
        Ok((Arc::clone(&link), FrameReader { stream, link, shutdown }))
    }

    pub(super) fn write_frame(&self, kind: u8, payload: &[u8]) -> Result<()> {
        self.write_frame_parts(kind, &[payload])
    }

    /// Write one frame whose payload is the concatenation of `parts`,
    /// gather-style: header and parts go through `write_vectored`
    /// straight into the buffered writer — the frame is never glued
    /// into an intermediate buffer. Wire metering is identical to
    /// [`write_frame`](Self::write_frame) of the concatenated payload.
    pub(super) fn write_frame_parts(&self, kind: u8, parts: &[&[u8]]) -> Result<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > MAX_FRAME {
            return Err(Error::comm(format!(
                "send to rank {}: frame of {len} bytes exceeds the wire limit ({MAX_FRAME}); \
                 split the message (chunked_alltoallv) before sending",
                self.peer
            )));
        }
        let mut w = self.writer.lock().expect("writer lock");
        let mut header = [0u8; FRAME_HEADER];
        header[0] = kind;
        header[1..].copy_from_slice(&(len as u32).to_le_bytes());
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
        self.wire_sent.fetch_add((FRAME_HEADER + len) as u64, Ordering::Relaxed);
        Ok(())
    }

    pub(super) fn flush(&self) -> Result<()> {
        if self.dirty.load(Ordering::Acquire) {
            let mut w = self.writer.lock().expect("writer lock");
            w.flush().map_err(|e| Error::comm(format!("flush to rank {}: {e}", self.peer)))?;
            self.dirty.store(false, Ordering::Release);
        }
        Ok(())
    }

    /// Close both directions of the connection (teardown, or a peer
    /// that broke the protocol); the peer's reader sees end-of-stream.
    pub(super) fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Wire-level bytes `(sent, received)` on this connection.
    pub(super) fn wire_bytes(&self) -> (u64, u64) {
        (self.wire_sent.load(Ordering::Relaxed), self.wire_recv.load(Ordering::Relaxed))
    }
}

/// The read half of a peer connection, owned by that peer's reader
/// thread.
pub(super) struct FrameReader {
    stream: TcpStream,
    link: Arc<PeerLink>,
    shutdown: Arc<AtomicBool>,
}

impl FrameReader {
    /// The next frame's `(kind, payload length)`; `None` once the
    /// connection has ended. The caller must [`fill`](Self::fill)
    /// exactly that many payload bytes before asking again.
    pub(super) fn next_frame(&mut self) -> Option<(u8, usize)> {
        let mut header = [0u8; FRAME_HEADER];
        self.fill(&mut header).then(|| {
            (header[0], u32::from_le_bytes(header[1..].try_into().expect("4 bytes")) as usize)
        })
    }

    /// `true` once this endpoint is tearing its connections down — the
    /// stream then ended by our own doing, not the peer's.
    pub(super) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Fill `buf`, riding out socket read-timeout ticks (idle peers are
    /// normal). `false` means the connection has ended — the socket
    /// closed or failed, or this endpoint is shutting down.
    pub(super) fn fill(&mut self, buf: &mut [u8]) -> bool {
        let mut filled = 0;
        while filled < buf.len() {
            if self.shutting_down() {
                return false;
            }
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => return false,
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.link.wire_recv.fetch_add(buf.len() as u64, Ordering::Relaxed);
        true
    }
}
