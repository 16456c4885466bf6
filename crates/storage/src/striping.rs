//! Per-PE storage facade and striped sequential runs.
//!
//! [`PeStorage`] bundles the async engine, the block allocator, and the
//! backend for one PE. [`RunWriter`] streams a byte sequence (a "run")
//! as blocks striped round-robin over the PE's local disks with a
//! write-behind window, and [`read_run`] reads one back through the
//! [`MergePrefetcher`] — the overlap machinery of Section IV-E.

use crate::alloc::BlockAllocator;
use crate::backend::{Backend, MemBackend};
use crate::block::BlockId;
use crate::disk::DiskModel;
use crate::engine::{IoEngine, IoHandle};
use crate::prefetch::MergePrefetcher;
use demsort_types::{BufferPool, Error, IoCounters, MachineConfig, Result};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default number of outstanding writes for [`RunWriter`] (one per disk
/// keeps all spindles busy, paper: "We maintain D buffer blocks").
pub const DEFAULT_WRITE_BEHIND: usize = 4;
/// Default read-ahead depth of a sequential byte read ([`read_run`], the
/// output file edge), at least one block per disk.
pub const DEFAULT_READAHEAD: usize = 4;

/// All storage state owned by one PE.
pub struct PeStorage {
    engine: IoEngine,
    alloc: BlockAllocator,
    backend: Arc<dyn Backend>,
}

impl PeStorage {
    /// In-memory storage shaped by `cfg` (the default for experiments).
    /// The buffer pool is sized to the PE's memory budget in blocks.
    pub fn new_mem(cfg: &MachineConfig) -> Self {
        Self::new_mem_with_pool_blocks(cfg, cfg.mem_blocks_per_pe())
    }

    /// In-memory storage with an explicit pool capacity (the resolved
    /// `pool_blocks` of a validated config); clamped to the machine's
    /// prefetch+carry minimum.
    pub fn new_mem_with_pool_blocks(cfg: &MachineConfig, pool_blocks: usize) -> Self {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new(cfg.disks_per_pe));
        let pool = BufferPool::new(cfg.block_bytes, pool_blocks.max(cfg.min_pool_blocks()));
        Self::with_backend_pool(
            cfg.disks_per_pe,
            cfg.block_bytes,
            DiskModel::paper(),
            backend,
            pool,
        )
    }

    /// Storage over an arbitrary backend (files, fault injection, ...),
    /// with the engine's default-sized buffer pool.
    pub fn with_backend(
        disks: usize,
        block_bytes: usize,
        model: DiskModel,
        backend: Arc<dyn Backend>,
    ) -> Self {
        Self {
            engine: IoEngine::new(disks, block_bytes, model, Arc::clone(&backend)),
            alloc: BlockAllocator::new(disks),
            backend,
        }
    }

    /// Storage over an arbitrary backend drawing block buffers from
    /// `pool`.
    pub fn with_backend_pool(
        disks: usize,
        block_bytes: usize,
        model: DiskModel,
        backend: Arc<dyn Backend>,
        pool: BufferPool,
    ) -> Self {
        Self {
            engine: IoEngine::with_pool(disks, block_bytes, model, Arc::clone(&backend), pool),
            alloc: BlockAllocator::new(disks),
            backend,
        }
    }

    /// The async I/O engine.
    pub fn engine(&self) -> &IoEngine {
        &self.engine
    }

    /// The PE's block-buffer pool (shared with the engine's readers).
    pub fn pool(&self) -> &BufferPool {
        self.engine.pool()
    }

    /// The block allocator.
    pub fn alloc(&self) -> &BlockAllocator {
        &self.alloc
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.engine.block_bytes()
    }

    /// Number of local disks.
    pub fn disks(&self) -> usize {
        self.engine.disks()
    }

    /// Free a block: return the slot to the allocator and drop backing
    /// bytes (in-place recycling).
    pub fn free_block(&self, id: BlockId) {
        self.backend.discard(id.disk as usize, id.slot as u64);
        self.alloc.free(id);
    }

    /// Current I/O counters (cumulative).
    pub fn counters(&self) -> IoCounters {
        self.engine.counters()
    }
}

/// A sequence of blocks holding `bytes` logical bytes (the final block
/// may be partially filled; the tail is zero-padded on disk).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Run {
    /// Blocks in logical order.
    pub blocks: Vec<BlockId>,
    /// Logical byte length.
    pub bytes: u64,
}

impl Run {
    /// `true` if the run holds no data.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

/// Streaming run writer: buffers into one block at a time, issues async
/// writes striped over the local disks, keeps at most `write_behind`
/// writes in flight.
pub struct RunWriter<'a> {
    st: &'a PeStorage,
    buf: Vec<u8>,
    pending: VecDeque<IoHandle>,
    write_behind: usize,
    blocks: Vec<BlockId>,
    bytes: u64,
}

impl<'a> RunWriter<'a> {
    /// Start a new run on `st`.
    pub fn new(st: &'a PeStorage) -> Self {
        Self::with_window(st, DEFAULT_WRITE_BEHIND.max(st.disks()))
    }

    /// Start a new run with an explicit write-behind window.
    pub fn with_window(st: &'a PeStorage, write_behind: usize) -> Self {
        Self {
            st,
            buf: st.pool().get_vec(),
            pending: VecDeque::new(),
            write_behind: write_behind.max(1),
            blocks: Vec::new(),
            bytes: 0,
        }
    }

    fn retire_until(&mut self, max_pending: usize) -> Result<()> {
        while self.pending.len() > max_pending {
            let h = self.pending.pop_front().expect("nonempty");
            // The engine hands the written buffer back; recycle it so
            // the next flush reuses it instead of allocating.
            self.st.pool().put(h.wait()?);
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        debug_assert!(!self.buf.is_empty());
        let b = self.st.block_bytes();
        self.buf.resize(b, 0); // zero-pad a partial tail block
        let data = std::mem::replace(&mut self.buf, self.st.pool().get_vec()).into_boxed_slice();
        let id = self.st.alloc.alloc_striped();
        self.blocks.push(id);
        self.pending.push_back(self.st.engine.write(id, data));
        self.retire_until(self.write_behind.saturating_sub(1))
    }

    /// Append bytes to the run.
    pub fn push(&mut self, mut data: &[u8]) -> Result<()> {
        let b = self.st.block_bytes();
        self.bytes += data.len() as u64;
        while !data.is_empty() {
            let room = b - self.buf.len();
            let take = room.min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buf.len() == b {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Append a whole pre-assembled block-sized buffer (avoids a copy
    /// when the caller already works block-wise and the writer is
    /// aligned).
    pub fn push_block(&mut self, data: Box<[u8]>) -> Result<()> {
        let b = self.st.block_bytes();
        assert_eq!(data.len(), b, "push_block requires exactly one block");
        if self.buf.is_empty() {
            self.bytes += b as u64;
            let id = self.st.alloc.alloc_striped();
            self.blocks.push(id);
            self.pending.push_back(self.st.engine.write(id, data));
            self.retire_until(self.write_behind.saturating_sub(1))
        } else {
            self.push(&data)
        }
    }

    /// Bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush outstanding data and return the completed [`Run`].
    pub fn finish(mut self) -> Result<Run> {
        if !self.buf.is_empty() {
            self.flush_block()?;
        }
        self.retire_until(0)?;
        // Hand the (now idle) staging buffer back to the pool; resize
        // to full length first so the Vec → Box conversion is free.
        let b = self.st.block_bytes();
        let mut buf = std::mem::take(&mut self.buf);
        buf.resize(b, 0);
        self.st.pool().put_vec(buf);
        Ok(Run { blocks: std::mem::take(&mut self.blocks), bytes: self.bytes })
    }
}

/// Read an arbitrary run fully (valid bytes only) through the
/// [`MergePrefetcher`] in naive order. Block buffers are recycled into
/// the PE's pool as they drain; the bytes copied out are charged to the
/// pool's copy meter.
pub fn read_run(st: &PeStorage, run: &Run) -> Result<Vec<u8>> {
    let readahead = DEFAULT_READAHEAD.max(st.disks());
    let mut blocks = MergePrefetcher::naive(st, run.blocks.clone(), readahead, false);
    let mut out = Vec::with_capacity(run.bytes as usize);
    while let Some(block) = blocks.next()? {
        let valid = (run.bytes - out.len() as u64).min(block.len() as u64) as usize;
        out.extend_from_slice(&block[..valid]);
        st.pool().add_copied(valid as u64);
        st.pool().put(block);
    }
    Ok(out)
}

/// Write `data` as a new run (convenience).
pub fn write_run(st: &PeStorage, data: &[u8]) -> Result<Run> {
    let mut w = RunWriter::new(st);
    w.push(data)?;
    w.finish()
}

/// Free all blocks of a run.
pub fn free_run(st: &PeStorage, run: &Run) {
    for &b in &run.blocks {
        st.free_block(b);
    }
}

/// Validate that `run`'s metadata is consistent with the block size.
pub fn check_run(run: &Run, block_bytes: usize) -> Result<()> {
    let needed = (run.bytes as usize).div_ceil(block_bytes);
    if needed != run.blocks.len() {
        return Err(Error::io(format!(
            "run claims {} bytes over {} blocks (block size {}, expected {} blocks)",
            run.bytes,
            run.blocks.len(),
            block_bytes,
            needed
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage(disks: usize, block: usize) -> PeStorage {
        PeStorage::with_backend(disks, block, DiskModel::paper(), Arc::new(MemBackend::new(disks)))
    }

    #[test]
    fn write_read_roundtrip_partial_tail() {
        let st = storage(3, 64);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let run = write_run(&st, &data).expect("write");
        assert_eq!(run.bytes, 1000);
        assert_eq!(run.blocks.len(), 1000usize.div_ceil(64));
        check_run(&run, 64).expect("consistent");
        assert_eq!(read_run(&st, &run).expect("read"), data);
    }

    #[test]
    fn empty_run() {
        let st = storage(2, 64);
        let run = write_run(&st, &[]).expect("write");
        assert!(run.is_empty());
        assert!(run.blocks.is_empty());
        assert_eq!(read_run(&st, &run).expect("read"), Vec::<u8>::new());
    }

    #[test]
    fn blocks_stripe_over_disks() {
        let st = storage(4, 32);
        let run = write_run(&st, &vec![1u8; 32 * 8]).expect("write");
        let disks: Vec<u32> = run.blocks.iter().map(|b| b.disk).collect();
        assert_eq!(disks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn push_block_fast_path_equals_push() {
        let st = storage(2, 16);
        let mut w = RunWriter::new(&st);
        w.push_block(vec![5u8; 16].into_boxed_slice()).expect("block");
        w.push(&[1, 2, 3]).expect("partial");
        w.push_block(vec![9u8; 16].into_boxed_slice()).expect("unaligned block");
        let run = w.finish().expect("finish");
        assert_eq!(run.bytes, 16 + 3 + 16);
        let mut expect = vec![5u8; 16];
        expect.extend_from_slice(&[1, 2, 3]);
        expect.extend_from_slice(&[9u8; 16]);
        assert_eq!(read_run(&st, &run).expect("read"), expect);
    }

    #[test]
    fn free_after_read_recycles_blocks() {
        let st = storage(2, 32);
        let run = write_run(&st, &[3u8; 32 * 6]).expect("write");
        assert_eq!(st.alloc().in_use(), 6);
        // The block reader with a budget of 2, freeing as it reads.
        let mut r = MergePrefetcher::naive(&st, run.blocks, 2, true);
        let mut total = 0;
        while let Some(block) = r.next().expect("read") {
            total += block.len();
        }
        assert_eq!(total, 32 * 6);
        assert_eq!(st.alloc().in_use(), 0, "all blocks recycled");
    }

    #[test]
    fn streaming_many_blocks_with_small_windows() {
        let st = storage(2, 16);
        let data: Vec<u8> = (0..16 * 100).map(|i| (i % 89) as u8).collect();
        let mut w = RunWriter::with_window(&st, 1);
        w.push(&data).expect("write");
        let run = w.finish().expect("finish");
        // The block reader with a budget of 1: one read in flight.
        let mut r = MergePrefetcher::naive(&st, run.blocks, 1, false);
        let mut got = Vec::new();
        while let Some(block) = r.next().expect("read") {
            got.extend_from_slice(&block);
        }
        assert_eq!(got, data);
    }

    #[test]
    fn run_io_reaches_pool_steady_state() {
        // After warmup, a write→read→write cycle must stop allocating:
        // writer buffers retire into the pool, reads draw from it.
        let st = storage(2, 32);
        let data: Vec<u8> = (0..32 * 40).map(|i| (i % 97) as u8).collect();
        let run = write_run(&st, &data).expect("warmup write");
        assert_eq!(read_run(&st, &run).expect("warmup read"), data);
        free_run(&st, &run);
        let warm = st.pool().counters();
        let run2 = write_run(&st, &data).expect("steady write");
        assert_eq!(read_run(&st, &run2).expect("steady read"), data);
        let steady = st.pool().counters();
        assert_eq!(steady.misses, warm.misses, "steady-state run I/O must not allocate");
        assert!(steady.hits > warm.hits);
    }

    #[test]
    fn check_run_detects_mismatch() {
        let mut run = Run { blocks: vec![BlockId::new(0, 0)], bytes: 100 };
        assert!(check_run(&run, 64).is_err());
        run.blocks.push(BlockId::new(0, 1));
        assert!(check_run(&run, 64).is_ok());
    }

    #[test]
    fn counters_reflect_run_io() {
        let st = storage(2, 64);
        let run = write_run(&st, &vec![1u8; 64 * 4]).expect("write");
        let after_write = st.counters();
        assert_eq!(after_write.bytes_written, 64 * 4);
        read_run(&st, &run).expect("read");
        let after_read = st.counters();
        assert_eq!(after_read.bytes_read, 64 * 4);
    }
}
