//! Asynchronous block I/O engine.
//!
//! Every simulated disk has a FIFO request queue, like STXXL's disk
//! queues. Callers get [`IoHandle`]s — lightweight futures they can
//! poll or block on — so algorithms naturally overlap computation,
//! communication, and I/O (the "Overlapping" optimization of Section
//! IV-E is just *not waiting immediately*).
//!
//! A request is served on the thread that waits for it whenever that
//! will not block, and each disk's worker thread runs only the reads
//! that would wait for a device. The disks are buffered files, whose
//! page cache already makes their I/O asynchronous, and handing a
//! block to a thread costs more than the `pread` it wraps:
//!
//! * a write, file write or fence is served at submit, on the
//!   submitting thread, if nothing is queued on its disk; otherwise it
//!   queues;
//! * a read queues, and [`IoHandle::wait`] serves its disk's queue up
//!   to it on the waiting thread, each read through
//!   [`Backend::read_nowait`] (for files, `preadv2` with `RWF_NOWAIT`:
//!   [`fio::read_cached_at`]);
//! * a read that would block goes to the disk's worker, and the disk
//!   turns *cold*: the worker runs the rest of the queue ahead of its
//!   waiters, in issue order, and every request submitted to a cold
//!   disk, a write too, goes to the worker at once. Each time it is
//!   woken the worker, too, asks the page cache for reads until one
//!   would block, and a read it answers turns the disk warm again. So
//!   a cold disk runs as if every request were handed to a thread, and
//!   its I/O overlaps with computation after one miss; a warm disk's
//!   requests cost no hand-off.
//!
//! Either thread runs the same `serve`, holding the disk's
//! service lock, and the queue is served in ticket (issue) order: a
//! disk still runs one operation at a time, in the order they were
//! submitted, so a write given a slot whose read is queued lands after
//! that read. A waited handle's state goes back to its disk for the
//! next request, so in steady state a request allocates nothing.
//!
//! Timing is accounted, not slept: each operation charges its modeled
//! service time ([`DiskModel`]) to the disk's busy-time counter when it
//! is submitted, which the cost model later reads.
//!
//! Beside the backend's slots a queue also serves an [`EdgeFile`] — a
//! job's input or output, read or written at a byte offset with
//! `pread`/`pwrite` into and out of pooled blocks. Each such request is
//! the block operation it stands for: a read fills one block (its tail
//! past the valid bytes zeroed) and a write moves one block's valid
//! bytes, and either is metered as one block of `B` bytes, so the
//! counters do not tell a file edge from a slot.

use crate::backend::Backend;
use crate::block::BlockId;
use crate::disk::{DiskModel, DiskStats};
use demsort_types::fio::{self, Stopped};
use demsort_types::{BufferPool, Error, IoCounters, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A file outside the PE's disks that the engine reads or writes at
/// byte offsets: a job's input or its output, shared by the ranks.
/// Every failure names the rank, the path, the byte offset and the OS
/// error (`rank 1: read in.dat at byte 30000: short read: end of
/// file`).
#[derive(Debug)]
pub struct EdgeFile {
    file: File,
    path: PathBuf,
    rank: usize,
}

impl EdgeFile {
    /// `file`, which rank `rank` opened at `path`.
    pub fn new(file: File, path: &Path, rank: usize) -> Self {
        Self { file, path: path.to_path_buf(), rank }
    }

    fn fail(&self, op: &str, stopped: Stopped, at: u64) -> Error {
        Error::io(format!("rank {}: {}", self.rank, stopped.describe(op, self.path.display(), at)))
    }
}

enum Request {
    /// Read `slot` into a pooled block: `buf`, once a waiter has drawn
    /// it and found that the read would block.
    Read {
        slot: u64,
        buf: Option<Box<[u8]>>,
        state: Arc<HandleState>,
    },
    Write {
        slot: u64,
        data: Box<[u8]>,
        state: Arc<HandleState>,
    },
    /// Read `len` bytes at byte `at` of `file` into `buf`.
    ReadAt {
        file: Arc<EdgeFile>,
        at: u64,
        len: usize,
        buf: Box<[u8]>,
        state: Arc<HandleState>,
    },
    /// Write the first `len` bytes of `data` at byte `at` of `file`.
    WriteAt {
        file: Arc<EdgeFile>,
        at: u64,
        len: usize,
        data: Box<[u8]>,
        state: Arc<HandleState>,
    },
    /// Completes once everything queued before it has been served;
    /// touches neither the backend nor the counters.
    Fence {
        state: Arc<HandleState>,
    },
}

struct HandleState {
    outcome: Mutex<Outcome>,
    cv: Condvar,
}

#[derive(Default)]
struct Outcome {
    result: Option<Result<Box<[u8]>>>,
    /// A thread sleeps on the condvar: most requests complete on the
    /// thread that waits for them, which need not be woken.
    sleeper: bool,
}

impl HandleState {
    fn new() -> Arc<Self> {
        Arc::new(Self { outcome: Mutex::default(), cv: Condvar::new() })
    }

    fn complete(&self, r: Result<Box<[u8]>>) {
        let mut outcome = self.outcome.lock();
        outcome.result = Some(r);
        if outcome.sleeper {
            self.cv.notify_all();
        }
    }
}

/// One disk's request queue, its worker's wake-up, and what serving a
/// request needs.
struct Disk {
    index: usize,
    backend: Arc<dyn Backend>,
    pool: BufferPool,
    queue: Mutex<Queue>,
    /// Wakes the worker, to run ahead or to shut down.
    wake: Condvar,
    /// Held by whoever serves one of this disk's requests, so the disk
    /// runs one at a time.
    service: Mutex<()>,
    /// Handle states whose requests are done, for the next requests:
    /// in steady state a request allocates nothing.
    spare: Mutex<Vec<Arc<HandleState>>>,
}

#[derive(Default)]
struct Queue {
    /// Requests not yet served, by ticket: issue order.
    pending: VecDeque<(u64, Request)>,
    next_ticket: u64,
    /// The worker serves the queue until it is empty. Waiters leave the
    /// queue to it meanwhile.
    run_ahead: bool,
    /// The last read served would have waited for a device: each
    /// request submitted goes to the worker at once.
    cold: bool,
    /// The engine is gone: the worker serves what is left and exits.
    shutdown: bool,
}

/// What serving a request came to.
enum Served {
    /// A read the page cache answered.
    Cached,
    /// A write, a fence, or a read that may have waited for a device.
    Done,
    /// A read that would wait for a device, handed back unserved.
    WouldBlock(Request),
}

impl Disk {
    /// A handle state for a new request.
    fn handle_state(&self) -> Arc<HandleState> {
        self.spare.lock().pop().unwrap_or_else(HandleState::new)
    }

    /// Take back the state of a waited handle, unless whoever served
    /// its request still holds it.
    fn recycle(&self, state: Arc<HandleState>) {
        if Arc::strong_count(&state) == 1 {
            *state.outcome.lock() = Outcome::default();
            self.spare.lock().push(state);
        }
    }

    /// Serve `req`. Unless `may_block`, a read that would wait for a
    /// device is not run but handed back.
    fn serve(&self, req: Request, may_block: bool) -> Served {
        match req {
            Request::Read { slot, buf, state } => {
                // Recycled buffers keep stale bytes; the backend fills
                // the whole block on success and errors otherwise.
                let mut buf = buf.unwrap_or_else(|| self.pool.get());
                let (res, served) = if may_block {
                    (self.backend.read(self.index, slot, &mut buf), Served::Done)
                } else if let Some(res) = self.backend.read_nowait(self.index, slot, &mut buf) {
                    (res, Served::Cached)
                } else {
                    return Served::WouldBlock(Request::Read { slot, buf: Some(buf), state });
                };
                state.complete(res.map(|()| buf));
                served
            }
            Request::Write { slot, data, state } => {
                let res = self.backend.write(self.index, slot, &data);
                state.complete(res.map(|()| data));
                Served::Done
            }
            Request::ReadAt { file, at, len, mut buf, state } => {
                let (valid, tail) = buf.split_at_mut(len);
                tail.fill(0);
                let (res, served) = if may_block {
                    let res = fio::read_exact_at(&file.file, valid, at)
                        .map_err(|s| file.fail("read", s, at));
                    (res, Served::Done)
                } else if fio::read_cached_at(&file.file, valid, at) {
                    (Ok(()), Served::Cached)
                } else {
                    return Served::WouldBlock(Request::ReadAt { file, at, len, buf, state });
                };
                state.complete(res.map(|()| buf));
                served
            }
            Request::WriteAt { file, at, len, data, state } => {
                let res = fio::write_all_at(&file.file, &data[..len], at)
                    .map_err(|s| file.fail("write", s, at));
                state.complete(res.map(|()| data));
                Served::Done
            }
            Request::Fence { state } => {
                state.complete(Ok(Vec::new().into_boxed_slice()));
                Served::Done
            }
        }
    }

    /// Serve the queue in ticket order through ticket `upto`, each read
    /// from the page cache if it can be. The worker runs a read that
    /// would block itself, and then the rest of its reads without
    /// asking the page cache: on a cold disk the next one would most
    /// likely block too, and asking costs a system call. A waiter
    /// leaves the queue to a worker that runs ahead, and hands it a
    /// read that would block, waking it to run ahead; once the worker
    /// is shut down, a waiter blocks on reads itself.
    fn serve_upto(&self, upto: u64, worker: bool) {
        // What the last read served found, for the disk's `cold` flag.
        let mut cold = None;
        // Whether to ask the page cache before a read that may block.
        let mut ask = true;
        loop {
            let _serving = self.service.lock();
            let mut q = self.queue.lock();
            if let Some(cold) = cold.take() {
                q.cold = cold;
            }
            let may_block = worker || q.shutdown;
            if (q.run_ahead && !may_block) || q.pending.front().is_none_or(|&(t, _)| t > upto) {
                return;
            }
            let Some((ticket, req)) = q.pending.pop_front() else { return };
            drop(q);
            match self.serve(req, may_block && !ask) {
                Served::Cached => cold = Some(false),
                Served::Done => {}
                Served::WouldBlock(req) if may_block => {
                    self.serve(req, true);
                    (cold, ask) = (Some(true), false);
                }
                Served::WouldBlock(req) => {
                    let mut q = self.queue.lock();
                    q.pending.push_front((ticket, req));
                    (q.cold, q.run_ahead) = (true, true);
                    self.wake.notify_one();
                    return;
                }
            }
        }
    }

    /// The disk's worker: asleep until a read would block or is
    /// submitted to a cold disk, then runs the queue until it is empty;
    /// at shutdown serves what is left.
    fn work(&self) {
        loop {
            let mut q = self.queue.lock();
            while !(q.shutdown || q.run_ahead && !q.pending.is_empty()) {
                // Run ahead only until the queue empties.
                q.run_ahead = false;
                // verify: allow(L2, parking_lot Condvar::wait returns unit — not the fallible IoHandle::wait)
                self.wake.wait(&mut q);
            }
            let shutdown = q.shutdown;
            drop(q);
            self.serve_upto(u64::MAX, true);
            if shutdown {
                return;
            }
        }
    }
}

/// A pending I/O operation. For reads, resolves to the filled block
/// buffer; for writes, resolves to the written buffer (handed back for
/// reuse).
#[must_use = "an IoHandle must be waited on, or the I/O may be lost"]
pub struct IoHandle {
    state: Arc<HandleState>,
    /// The disk that takes the state back (none for a ready handle).
    disk: Option<Arc<Disk>>,
    /// The request's ticket while it is queued on `disk`.
    ticket: Option<u64>,
}

impl IoHandle {
    /// Block until the operation completes; returns the buffer. A
    /// queued request is served here, with everything queued on its
    /// disk before it, unless the disk's worker runs the queue (a read
    /// among them would block, or the disk is cold).
    pub fn wait(self) -> Result<Box<[u8]>> {
        let IoHandle { state, disk, ticket } = self;
        if let (Some(disk), Some(ticket)) = (&disk, ticket) {
            if state.outcome.lock().result.is_none() {
                disk.serve_upto(ticket, false);
            }
        }
        let result = {
            let mut outcome = state.outcome.lock();
            while outcome.result.is_none() {
                outcome.sleeper = true;
                // verify: allow(L2, parking_lot Condvar::wait returns unit — not the fallible IoHandle::wait)
                state.cv.wait(&mut outcome);
            }
            outcome.result.take().expect("completed state present")
        };
        if let Some(disk) = disk {
            disk.recycle(state);
        }
        result
    }

    /// `true` once the operation has completed (success or failure).
    pub fn is_done(&self) -> bool {
        self.state.outcome.lock().result.is_some()
    }

    /// An already-completed handle (used when data is served from a
    /// cache or buffer without touching the disk).
    pub fn ready(data: Box<[u8]>) -> Self {
        let state = HandleState::new();
        state.complete(Ok(data));
        Self { state, disk: None, ticket: None }
    }
}

/// Multi-disk asynchronous I/O engine for one PE.
pub struct IoEngine {
    disks: Vec<Arc<Disk>>,
    workers: Vec<JoinHandle<()>>,
    stats: Vec<DiskStats>,
    model: DiskModel,
    block_bytes: usize,
    pool: BufferPool,
}

impl IoEngine {
    /// Spawn one worker per disk over the shared `backend`, with a
    /// default-sized buffer pool (the prefetch+carry minimum of two
    /// buffers per disk plus two spares).
    pub fn new(
        disks: usize,
        block_bytes: usize,
        model: DiskModel,
        backend: Arc<dyn Backend>,
    ) -> Self {
        let pool = BufferPool::new(block_bytes, 2 * disks + 2);
        Self::with_pool(disks, block_bytes, model, backend, pool)
    }

    /// Spawn workers over `backend` drawing read buffers from `pool`.
    ///
    /// The pool's buffer size must equal `block_bytes`; reads pop a
    /// recycled buffer (or allocate on a pool miss) and hand it to the
    /// caller through the [`IoHandle`], so callers that return buffers
    /// via [`BufferPool::put`] make the steady-state read path
    /// allocation-free.
    pub fn with_pool(
        disks: usize,
        block_bytes: usize,
        model: DiskModel,
        backend: Arc<dyn Backend>,
        pool: BufferPool,
    ) -> Self {
        assert!(disks > 0, "need at least one disk");
        assert_eq!(pool.buf_bytes(), block_bytes, "pool buffer size must match block size");
        let disks: Vec<Arc<Disk>> = (0..disks)
            .map(|index| {
                Arc::new(Disk {
                    index,
                    backend: Arc::clone(&backend),
                    pool: pool.clone(),
                    queue: Mutex::new(Queue::default()),
                    wake: Condvar::new(),
                    service: Mutex::new(()),
                    spare: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let workers = disks
            .iter()
            .map(|disk| {
                let disk = Arc::clone(disk);
                std::thread::Builder::new()
                    .name(format!("demsort-disk-{}", disk.index))
                    .spawn(move || disk.work())
                    .expect("spawn disk worker")
            })
            .collect();
        let stats = disks.iter().map(|_| DiskStats::default()).collect();
        Self { disks, workers, stats, model, block_bytes, pool }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// The block-buffer pool read buffers are drawn from. Callers done
    /// with a buffer return it here ([`BufferPool::put`]) so subsequent
    /// reads reuse it instead of allocating.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.disks.len()
    }

    /// Hand the request `make` builds to disk `disk`. A write or fence
    /// is served here and now if the disk is warm and nothing on it is
    /// queued or being served; otherwise it queues, as a read always
    /// does. A request submitted to a cold disk wakes its worker.
    fn submit(
        &self,
        disk: usize,
        read: bool,
        make: impl FnOnce(Arc<HandleState>) -> Request,
    ) -> IoHandle {
        let disk = &self.disks[disk];
        let state = disk.handle_state();
        let req = make(Arc::clone(&state));
        let handle = |ticket| IoHandle { state, disk: Some(Arc::clone(disk)), ticket };
        if !read {
            if let Some(_serving) = disk.service.try_lock() {
                let q = disk.queue.lock();
                if !q.cold && q.pending.is_empty() {
                    drop(q);
                    let served = disk.serve(req, true);
                    debug_assert!(matches!(served, Served::Done), "a write is served");
                    return handle(None);
                }
            }
        }
        let mut q = disk.queue.lock();
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.pending.push_back((ticket, req));
        if q.cold && !q.run_ahead {
            q.run_ahead = true;
            disk.wake.notify_one();
        }
        handle(Some(ticket))
    }

    /// Charge one block read at `slot` of disk `disk`.
    fn meter_read(&self, disk: usize, slot: u64) {
        let ns = self.model.service_ns_at(self.block_bytes, slot);
        self.stats[disk].record_read(self.block_bytes, ns);
    }

    /// Charge one block write at `slot` of disk `disk`.
    fn meter_write(&self, disk: usize, slot: u64) {
        let ns = self.model.service_ns_at(self.block_bytes, slot);
        self.stats[disk].record_write(self.block_bytes, ns);
    }

    /// Enqueue an asynchronous read of `id`.
    pub fn read(&self, id: BlockId) -> IoHandle {
        let (disk, slot) = (id.disk as usize, id.slot as u64);
        self.meter_read(disk, slot);
        self.submit(disk, true, |state| Request::Read { slot, buf: None, state })
    }

    /// Enqueue an asynchronous write of `data` to `id`.
    /// `data.len()` must equal the block size.
    pub fn write(&self, id: BlockId, data: Box<[u8]>) -> IoHandle {
        assert_eq!(data.len(), self.block_bytes, "write must be exactly one block");
        let (disk, slot) = (id.disk as usize, id.slot as u64);
        self.meter_write(disk, slot);
        self.submit(disk, false, |state| Request::Write { slot, data, state })
    }

    /// Enqueue a read of `len` bytes (at most one block) from byte `at`
    /// of `file` on disk `disk`'s queue, into a pooled block whose tail
    /// past `len` is zeroed. A file that ends before `at + len` is an
    /// error, not zeros. Metered as one block read.
    pub fn read_at(&self, disk: usize, file: &Arc<EdgeFile>, at: u64, len: usize) -> IoHandle {
        assert!(len <= self.block_bytes, "a file read fills at most one block");
        self.meter_read(disk, at / self.block_bytes as u64);
        // The block is drawn on the caller's thread, which consumes and
        // frees it: a pool miss allocates there, not in the disk worker.
        let (file, buf) = (Arc::clone(file), self.pool.get());
        self.submit(disk, true, |state| Request::ReadAt { file, at, len, buf, state })
    }

    /// Enqueue a write of the first `len` bytes of `data` (exactly one
    /// block) to byte `at` of `file` on disk `disk`'s queue. Metered as
    /// one block write; the handle hands `data` back.
    pub fn write_at(
        &self,
        disk: usize,
        file: &Arc<EdgeFile>,
        at: u64,
        data: Box<[u8]>,
        len: usize,
    ) -> IoHandle {
        assert_eq!(data.len(), self.block_bytes, "write must be exactly one block");
        assert!(len <= data.len(), "a file write moves at most one block");
        self.meter_write(disk, at / self.block_bytes as u64);
        let file = Arc::clone(file);
        self.submit(disk, false, |state| Request::WriteAt { file, at, len, data, state })
    }

    /// Synchronous read convenience.
    pub fn read_sync(&self, id: BlockId) -> Result<Box<[u8]>> {
        self.read(id).wait()
    }

    /// Synchronous write convenience.
    pub fn write_sync(&self, id: BlockId, data: Box<[u8]>) -> Result<()> {
        self.write(id, data).wait().map(|_| ())
    }

    /// Wait until all requests enqueued so far have been served (FIFO
    /// queues make a per-disk fence sufficient; waiting on one serves
    /// what is queued before it).
    pub fn drain(&self) -> Result<()> {
        let fences: Vec<IoHandle> = (0..self.disks())
            .map(|d| self.submit(d, false, |state| Request::Fence { state }))
            .collect();
        for f in fences {
            f.wait()?;
        }
        Ok(())
    }

    /// Aggregate I/O counters for this PE: byte/block totals summed over
    /// disks, busy time of the busiest disk (they run in parallel).
    pub fn counters(&self) -> IoCounters {
        let mut c = IoCounters::default();
        for d in self.stats.iter() {
            let s = d.snapshot();
            c.bytes_read += s.bytes_read;
            c.bytes_written += s.bytes_written;
            c.blocks_read += s.reads;
            c.blocks_written += s.writes;
            c.max_disk_busy_ns = c.max_disk_busy_ns.max(s.busy_ns);
        }
        c
    }

    /// Per-disk snapshots (for imbalance diagnostics, Figure 3).
    pub fn per_disk(&self) -> Vec<crate::disk::DiskStatsSnapshot> {
        self.stats.iter().map(|d| d.snapshot()).collect()
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        for d in &self.disks {
            d.queue.lock().shutdown = true;
            d.wake.notify_one();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultInjectingBackend, MemBackend};
    use demsort_types::Error;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    fn engine(disks: usize, block: usize) -> IoEngine {
        IoEngine::new(disks, block, DiskModel::paper(), Arc::new(MemBackend::new(disks)))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let e = engine(2, 32);
        let id = BlockId::new(1, 4);
        let mut data = vec![0u8; 32].into_boxed_slice();
        data.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8);
        e.write_sync(id, data.clone()).expect("write");
        let back = e.read_sync(id).expect("read");
        assert_eq!(&back[..], &data[..]);
    }

    #[test]
    fn many_concurrent_ops_complete() {
        let e = engine(4, 64);
        let writes: Vec<IoHandle> = (0..200u32)
            .map(|i| {
                let id = BlockId::new(i % 4, i / 4);
                let buf = vec![(i % 251) as u8; 64].into_boxed_slice();
                e.write(id, buf)
            })
            .collect();
        for w in writes {
            w.wait().expect("write ok");
        }
        let reads: Vec<(u32, IoHandle)> =
            (0..200u32).map(|i| (i, e.read(BlockId::new(i % 4, i / 4)))).collect();
        for (i, r) in reads {
            let buf = r.wait().expect("read ok");
            assert!(buf.iter().all(|&b| b == (i % 251) as u8));
        }
    }

    #[test]
    fn counters_track_traffic() {
        let e = engine(2, 128);
        for i in 0..10 {
            e.write_sync(BlockId::new(i % 2, i), vec![0u8; 128].into_boxed_slice()).expect("write");
        }
        for i in 0..10 {
            e.read_sync(BlockId::new(i % 2, i)).expect("read");
        }
        let c = e.counters();
        assert_eq!(c.bytes_written, 10 * 128);
        assert_eq!(c.bytes_read, 10 * 128);
        assert_eq!(c.blocks_read, 10);
        assert!(c.max_disk_busy_ns > 0);
    }

    #[test]
    fn counters_report_the_busiest_disk_not_the_sum() {
        // Three writes on disk 0, one on disk 1: the disks work in
        // parallel, so the PE's disk time is disk 0's.
        let e = engine(2, 128);
        for (disk, slot) in [(0, 0), (0, 1), (0, 2), (1, 0)] {
            e.write_sync(BlockId::new(disk, slot), vec![0u8; 128].into_boxed_slice())
                .expect("write");
        }
        let busy: Vec<u64> = e.per_disk().iter().map(|d| d.busy_ns).collect();
        assert!(busy[0] > busy[1] && busy[1] > 0, "{busy:?}");
        assert_eq!(e.counters().max_disk_busy_ns, busy[0], "the busiest disk, of {busy:?}");
    }

    #[test]
    fn errors_propagate_through_handles() {
        let backend = FaultInjectingBackend::new(MemBackend::new(1), 0);
        let e = IoEngine::new(1, 16, DiskModel::paper(), Arc::new(backend));
        let res = e.write_sync(BlockId::new(0, 0), vec![0u8; 16].into_boxed_slice());
        assert!(matches!(res, Err(Error::Io(_))));
        // engine still usable afterwards
        e.write_sync(BlockId::new(0, 0), vec![1u8; 16].into_boxed_slice()).expect("recovers");
    }

    #[test]
    fn read_of_unwritten_block_is_error_not_panic() {
        let e = engine(1, 16);
        assert!(e.read_sync(BlockId::new(0, 7)).is_err());
    }

    #[test]
    fn drain_waits_for_all() {
        let e = engine(3, 256);
        let mut handles = Vec::new();
        for i in 0..60u32 {
            handles.push(e.write(BlockId::new(i % 3, i / 3), vec![7u8; 256].into_boxed_slice()));
        }
        e.drain().expect("drain");
        for h in handles {
            assert!(h.is_done(), "drain must imply completion of prior requests");
            h.wait().expect("completed ok");
        }
    }

    #[test]
    fn ready_handle_completes_immediately() {
        let h = IoHandle::ready(vec![3u8; 4].into_boxed_slice());
        assert!(h.is_done());
        assert_eq!(&h.wait().expect("ready")[..], &[3, 3, 3, 3]);
    }

    #[test]
    fn read_buffers_recycle_through_the_pool() {
        let e = engine(1, 32);
        e.write_sync(BlockId::new(0, 0), vec![9u8; 32].into_boxed_slice()).expect("write");
        let first = e.read_sync(BlockId::new(0, 0)).expect("read");
        let misses_after_first = e.pool().counters().misses;
        e.pool().put(first);
        let second = e.read_sync(BlockId::new(0, 0)).expect("read");
        assert_eq!(&second[..], &[9u8; 32][..]);
        let c = e.pool().counters();
        assert_eq!(c.misses, misses_after_first, "second read must reuse the returned buffer");
        assert!(c.hits >= 1);
    }

    #[test]
    fn file_requests_move_valid_bytes_and_meter_whole_blocks() {
        let path = std::env::temp_dir().join(format!("demsort-engine-edge-{}", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("create");
        let file = Arc::new(EdgeFile::new(file, &path, 3));
        let e = engine(2, 32);
        let back = e.write_at(1, &file, 7, vec![0xAB; 32].into_boxed_slice(), 20).wait();
        assert_eq!(&back.expect("write")[..], &[0xAB; 32], "the block comes back");
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 27, "valid bytes only");

        // A recycled buffer keeps stale bytes; the tail past the read is
        // zeroed anyway.
        e.pool().put(vec![0xEE; 32].into_boxed_slice());
        let block = e.read_at(0, &file, 7, 20).wait().expect("read");
        assert_eq!((&block[..20], &block[20..]), (&[0xAB; 20][..], &[0u8; 12][..]));
        let c = e.counters();
        assert_eq!(
            (c.bytes_read, c.bytes_written, c.blocks_read, c.blocks_written),
            (32, 32, 1, 1)
        );

        // A file that ends early is an error naming rank, path and byte.
        let err = e.read_at(1, &file, 17, 20).wait().expect_err("file ends at byte 27");
        let want = format!("rank 3: read {} at byte 27: short read", path.display());
        assert!(matches!(&err, Error::Io(m) if m.starts_with(&want)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// A [`MemBackend`] that notes which thread runs each read and
    /// write, and whose every read would block while it is `cold`.
    struct Watched {
        inner: MemBackend,
        cold: AtomicBool,
        readers: Mutex<Vec<String>>,
        writers: Mutex<Vec<String>>,
    }

    fn thread_name() -> String {
        std::thread::current().name().unwrap_or("unnamed").to_string()
    }

    impl Watched {
        fn new(disks: usize, cold: bool) -> Self {
            let (readers, writers) = (Mutex::default(), Mutex::default());
            Self { inner: MemBackend::new(disks), cold: AtomicBool::new(cold), readers, writers }
        }

        fn readers(&self) -> Vec<String> {
            self.readers.lock().clone()
        }
    }

    impl Backend for Watched {
        fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
            self.readers.lock().push(thread_name());
            self.inner.read(disk, slot, buf)
        }

        fn read_nowait(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Option<Result<()>> {
            (!self.cold.load(Ordering::SeqCst)).then(|| self.read(disk, slot, buf))
        }

        fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
            self.writers.lock().push(thread_name());
            self.inner.write(disk, slot, data)
        }

        fn discard(&self, disk: usize, slot: u64) {
            self.inner.discard(disk, slot)
        }
    }

    /// An engine of `disks` disks of 16-byte blocks over `backend`,
    /// block `(d, s)` holding `16·s + d` in every byte.
    fn filled(disks: u32, slots: u32, backend: Arc<dyn Backend>) -> IoEngine {
        let e = IoEngine::new(disks as usize, 16, DiskModel::paper(), backend);
        for d in 0..disks {
            for s in 0..slots {
                let fill = vec![(16 * s + d) as u8; 16].into_boxed_slice();
                e.write_sync(BlockId::new(d, s), fill).expect("write");
            }
        }
        e
    }

    fn check(h: IoHandle, d: u32, s: u32) {
        assert_eq!(&h.wait().expect("read")[..], &[(16 * s + d) as u8; 16][..], "d{d}:{s}");
    }

    #[test]
    fn cached_reads_are_served_on_the_waiting_thread() {
        let backend = Arc::new(Watched::new(2, false));
        let e = filled(2, 4, backend.clone());
        let reads: Vec<_> = (0..8u32).map(|i| (i % 2, i / 2)).collect();
        let handles: Vec<_> = reads.iter().map(|&(d, s)| e.read(BlockId::new(d, s))).collect();
        assert!(backend.readers().is_empty(), "a read is served when waited for, not at submit");
        for (h, &(d, s)) in handles.into_iter().zip(&reads).rev() {
            check(h, d, s);
        }
        assert_eq!(backend.readers(), vec![thread_name(); 8]);
        assert_eq!(e.counters().blocks_read, 8);
    }

    /// Wait until every handle of `hs` is done, without waiting on one.
    fn served_unwaited(hs: &[IoHandle]) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !hs.iter().all(IoHandle::is_done) {
            assert!(Instant::now() < deadline, "the worker did not serve the reads");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn reads_that_would_block_go_to_the_disk_thread_which_runs_ahead() {
        let backend = Arc::new(Watched::new(1, true));
        let e = filled(1, 8, backend.clone());
        let mut handles: Vec<_> = (0..8).map(|s| e.read(BlockId::new(0, s))).collect();
        std::thread::sleep(Duration::from_millis(20));
        assert!(handles.iter().all(|h| !h.is_done()), "a warm disk's reads wait for a waiter");
        let rest = handles.split_off(1);
        check(handles.remove(0), 0, 0);
        // The first read would block, so the worker took it and the
        // reads queued behind it, none of which has been waited for.
        served_unwaited(&rest);
        assert_eq!(backend.readers(), vec!["demsort-disk-0".to_string(); 8]);
        for (s, h) in (1..).zip(rest) {
            check(h, 0, s);
        }
        // Drained, the disk stays cold: a read submitted now goes to
        // the worker at once and is served before anyone waits for it.
        let later: Vec<_> = (3..5).map(|s| e.read(BlockId::new(0, s))).collect();
        served_unwaited(&later);
        for (s, h) in (3..).zip(later) {
            check(h, 0, s);
        }
        assert_eq!(backend.readers(), vec!["demsort-disk-0".to_string(); 10]);
        // So does a write: a cold disk hands every request to its worker.
        let w = e.write(BlockId::new(0, 0), vec![7; 16].into_boxed_slice());
        served_unwaited(std::slice::from_ref(&w));
        w.wait().expect("write");
        assert_eq!(backend.writers.lock().last().map(String::as_str), Some("demsort-disk-0"));
    }

    #[test]
    fn a_cold_disk_turns_warm_when_the_page_cache_answers_its_worker() {
        let backend = Arc::new(Watched::new(1, true));
        let e = filled(1, 4, backend.clone());
        // The worker asks the page cache again only once it has been
        // woken again: let it go back to sleep after this miss.
        let asleep = || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while e.disks[0].queue.lock().run_ahead {
                assert!(Instant::now() < deadline, "the worker did not go back to sleep");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        check(e.read(BlockId::new(0, 0)), 0, 0);
        asleep();
        backend.cold.store(false, Ordering::SeqCst);
        // Cold, the disk hands this read to its worker, which now finds
        // it cached: the disk is warm again.
        let h = e.read(BlockId::new(0, 1));
        served_unwaited(std::slice::from_ref(&h));
        check(h, 0, 1);
        asleep();
        assert!(!e.disks[0].queue.lock().cold, "the worker's cached read warmed the disk");
        let h = e.read(BlockId::new(0, 2));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_done(), "a warm disk's read waits for its waiter");
        check(h, 0, 2);
        let worker = "demsort-disk-0".to_string();
        assert_eq!(backend.readers(), vec![worker.clone(), worker, thread_name()]);
        // Warm, a write with nothing queued before it goes in at submit.
        drop(e.write(BlockId::new(0, 0), vec![7; 16].into_boxed_slice()));
        assert_eq!(backend.writers.lock().last(), Some(&thread_name()));
    }

    #[test]
    fn a_write_queued_behind_a_read_of_its_slot_does_not_overtake_it() {
        for cold in [false, true] {
            let e = filled(1, 2, Arc::new(Watched::new(1, cold)));
            let id = BlockId::new(0, 1);
            let read = e.read(id);
            let write = e.write(id, vec![0xAB; 16].into_boxed_slice());
            assert!(!write.is_done(), "cold {cold}: the write queues behind the read");
            // Waiting for the write serves the read ahead of it.
            write.wait().expect("write");
            assert!(read.is_done(), "cold {cold}");
            check(read, 0, 1);
            assert_eq!(&e.read_sync(id).expect("read")[..], &[0xAB; 16], "cold {cold}");
        }
    }

    #[test]
    fn drain_completes_queued_reads() {
        for cold in [false, true] {
            let e = filled(3, 4, Arc::new(Watched::new(3, cold)));
            let handles: Vec<_> = (0..12).map(|i| (i % 3, i / 3)).collect();
            let handles: Vec<_> =
                handles.into_iter().map(|(d, s)| (d, s, e.read(BlockId::new(d, s)))).collect();
            e.drain().expect("drain");
            for (d, s, h) in handles {
                assert!(h.is_done(), "cold {cold}: d{d}:{s} served by drain");
                check(h, d, s);
            }
        }
    }

    #[test]
    fn injected_faults_reach_the_handle_on_both_paths() {
        for cold in [false, true] {
            // Operations 0 and 1 are the writes; 2 and 3 the reads.
            let backend = FaultInjectingBackend::new(Watched::new(1, cold), 2);
            let e = filled(1, 2, Arc::new(backend));
            let (first, second) = (e.read(BlockId::new(0, 0)), e.read(BlockId::new(0, 1)));
            match first.wait() {
                Err(Error::Io(m)) => {
                    assert_eq!(m, "injected fault at operation 2: read d0:0", "cold {cold}")
                }
                other => panic!("cold {cold}: expected the injected fault, got {other:?}"),
            }
            check(second, 0, 1);
        }
    }

    #[test]
    fn a_waited_handle_gives_its_state_to_the_next_request() {
        let e = engine(1, 16);
        let first = e.write(BlockId::new(0, 0), vec![1u8; 16].into_boxed_slice());
        let state = Arc::as_ptr(&first.state);
        first.wait().expect("write");
        let second = e.read(BlockId::new(0, 0));
        assert_eq!(Arc::as_ptr(&second.state), state, "the state is reused");
        assert!(!second.is_done(), "and starts out pending");
        assert_eq!(&second.wait().expect("read")[..], &[1u8; 16]);
        let spare = || e.disks[0].spare.lock().len();
        assert_eq!(spare(), 1);
        // A handle dropped unwaited takes its state with it.
        drop(e.write(BlockId::new(0, 1), vec![2u8; 16].into_boxed_slice()));
        assert_eq!(spare(), 0);
        assert_eq!(&e.read_sync(BlockId::new(0, 1)).expect("read")[..], &[2u8; 16]);
        assert_eq!(spare(), 1);
    }

    #[test]
    #[should_panic(expected = "exactly one block")]
    fn wrong_size_write_panics() {
        let e = engine(1, 64);
        let _ = e.write(BlockId::new(0, 0), vec![0u8; 32].into_boxed_slice());
    }
}
