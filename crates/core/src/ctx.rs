//! Per-PE execution context: storage for every PE, phase accounting.
//!
//! A PE owns its communicator endpoint and *operates on* its own
//! storage; peers' storage is reachable through the
//! **location-transparent block service** of [`ClusterStorage`] — the
//! remote probes of external multiway selection (Section IV-A: "they
//! have to request data from remote disks"), the cross-rank block
//! reads of the globally striped algorithm (Section III) and the
//! stores of run replication. In a real deployment those are
//! one-block RDMA gets and puts / MPI request-reply pairs. The
//! in-process cluster holds every PE's storage in one
//! [`ClusterStorage`], so a request reaches the owner's storage
//! directly; the multi-process runtime gives each worker a single-rank
//! view over its mesh endpoint ([`ClusterStorage::over_mesh`]) whose
//! requests for peers' blocks cross the wire (the TCP transport's
//! out-of-band block channel) and are served there by the owner's
//! view. Either way the block is **served by one pair of functions**
//! of this module (`serve_fetch` / `serve_store`): the I/O lands on the
//! owning PE's disks (exactly where the paper's bottleneck analysis
//! puts it) and is staged in the owner's buffer pool. Requests are
//! asynchronous [`BlockFetch`] / [`BlockStore`] handles mirroring the
//! storage engine's `IoHandle` (so callers overlap remote I/O with
//! computation), and the transferred bytes are charged to the
//! requester as communication.

use demsort_net::tcp::{TcpTransport, WireFetch, WireStore};
use demsort_net::{Communicator, Transport as _};
use demsort_storage::{Backend, BlockId, DiskModel, IoHandle, MemBackend, PeStorage};
use demsort_types::trace::TraceEv;
use demsort_types::{
    BufferPool, CommCounters, CpuCounters, Error, IoCounters, MachineConfig, Phase, PhaseStats,
    Result, SortConfig, SortReport, Tracer,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Issues asynchronous batched reads and writes of blocks owned by a
/// remote PE. The multi-process runtime's is the mesh endpoint itself
/// ([`TcpTransport`]'s block channel); tests substitute fakes. Requests
/// are pipelined — all go out before any is waited on — and responses
/// may complete in any order.
pub trait RemoteBlockService: Send + Sync {
    /// Issue reads of `ids` owned by rank `pe`; handles are returned
    /// in request order.
    fn fetch_blocks(&self, pe: usize, ids: &[BlockId]) -> Result<Vec<BlockFetch>>;

    /// Issue stores of `(disk_hint, data)` blocks into rank `pe`'s
    /// storage; handles are returned in request order and resolve to
    /// the address `pe`'s allocator assigned.
    fn store_blocks(&self, pe: usize, blocks: &[(u32, &[u8])]) -> Result<Vec<BlockStore>>;
}

impl RemoteBlockService for TcpTransport {
    fn fetch_blocks(&self, pe: usize, ids: &[BlockId]) -> Result<Vec<BlockFetch>> {
        let addrs: Vec<(u32, u32)> = ids.iter().map(|id| (id.disk, id.slot)).collect();
        let issued = TcpTransport::fetch_blocks(self, pe, &addrs)?;
        Ok(issued.into_iter().map(|f| BlockFetch(FetchState::Remote(f))).collect())
    }

    fn store_blocks(&self, pe: usize, blocks: &[(u32, &[u8])]) -> Result<Vec<BlockStore>> {
        let issued = TcpTransport::store_blocks(self, pe, blocks)?;
        Ok(issued.into_iter().map(|s| BlockStore(StoreState::Remote(s))).collect())
    }
}

enum FetchState {
    /// Served by a local engine (the owner's disk pays the I/O).
    Local(IoHandle),
    /// In flight on the wire.
    Remote(WireFetch),
}

/// One pending block read through [`ClusterStorage::fetch_blocks`],
/// local or remote — resolve with [`BlockFetch::wait`].
#[must_use = "a BlockFetch must be waited on, or the read is abandoned"]
pub struct BlockFetch(FetchState);

impl BlockFetch {
    /// An already-completed fetch (cache hits, tests).
    pub fn ready(data: Box<[u8]>) -> Self {
        Self(FetchState::Local(IoHandle::ready(data)))
    }

    /// Block until the read completes; returns the block bytes.
    pub fn wait(self) -> Result<Box<[u8]>> {
        match self.0 {
            FetchState::Local(h) => h.wait(),
            FetchState::Remote(f) => f.wait().map(Vec::into_boxed_slice),
        }
    }
}

enum StoreState {
    /// Written through a local engine: the address is already
    /// assigned, the engine write is (possibly) still in flight, and
    /// its staging buffer goes back to `pool` when it retires.
    Local { id: BlockId, write: IoHandle, pool: BufferPool },
    /// In flight on the wire; the serving rank assigns the address.
    Remote(WireStore),
    /// Already decided (a refused store, tests).
    Ready(Result<BlockId>),
}

/// One pending block store through [`ClusterStorage::store_blocks`],
/// local or remote — the write-side counterpart of [`BlockFetch`].
/// Resolves to the [`BlockId`] the owning rank's allocator assigned.
#[must_use = "a BlockStore must be waited on, or the write outcome is unknown"]
pub struct BlockStore(StoreState);

impl BlockStore {
    /// An already-acknowledged store (tests).
    pub fn ready(id: BlockId) -> Self {
        Self(StoreState::Ready(Ok(id)))
    }

    /// Block until the write is durable at the owner; returns the
    /// assigned address.
    pub fn wait(self) -> Result<BlockId> {
        match self.0 {
            StoreState::Local { id, write, pool } => write.wait().map(|staged| {
                pool.put(staged);
                id
            }),
            StoreState::Remote(s) => s.wait().map(|(disk, slot)| BlockId::new(disk, slot)),
            StoreState::Ready(outcome) => outcome,
        }
    }
}

/// Serve a read of block `id` out of `pe`'s storage — the one place a
/// rank's block is read for somebody else, whether the request arrived
/// by function call (in-process cluster) or over the wire. Serving
/// journals nothing: the requester's view does.
fn serve_fetch(pe: &PeStorage, id: BlockId) -> BlockFetch {
    BlockFetch(FetchState::Local(pe.engine().read(id)))
}

/// Serve a store of `data` into `pe`'s storage, the write-side twin of
/// [`serve_fetch`]: `pe`'s allocator assigns the slot (it stays the
/// single authority over its disks; `disk_hint` is folded into its disk
/// range), the bytes are staged in a buffer of `pe`'s pool — the one
/// copy, metered there — and the buffer returns to that pool when the
/// write retires. A payload short of a block is zero-padded; one
/// beyond a block is refused.
fn serve_store(pe: &PeStorage, disk_hint: u32, data: &[u8]) -> BlockStore {
    let pool = pe.pool();
    if data.len() > pool.buf_bytes() {
        return BlockStore(StoreState::Ready(Err(Error::io(format!(
            "store of {} bytes exceeds the {}-byte block",
            data.len(),
            pool.buf_bytes()
        )))));
    }
    let id = pe.alloc().alloc_on(disk_hint as usize % pe.disks());
    let mut staged = pool.get();
    staged[..data.len()].copy_from_slice(data);
    staged[data.len()..].fill(0);
    pool.add_copied(data.len() as u64);
    BlockStore(StoreState::Local { id, write: pe.engine().write(id, staged), pool: pool.clone() })
}

/// Which path a [`ClusterStorage::store_blocks`] write took,
/// classified by *ownership* (`owner != my_rank` is remote), not by
/// deployment shape — in the in-process cluster a buddy's storage
/// happens to share the address space, but the bytes still count as
/// communication, exactly like [`FetchSource`] on the read side.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StoreTarget {
    /// The caller's own disks.
    LocalDisk,
    /// Another PE's disks (communication charged to the caller).
    RemoteDisk,
}

/// The storage view of one participant in the cluster.
///
/// * In-process cluster: every PE's storage, shared between PE
///   threads (`base_rank = 0`, all ranks local).
/// * Multi-process cluster: one worker's own storage plus a remote
///   block service for its peers' blocks.
pub struct ClusterStorage {
    /// Cluster size (`P`), which may exceed `pes.len()` in single-rank
    /// mode.
    size: usize,
    /// Rank of `pes[0]`.
    base_rank: usize,
    pes: Vec<PeStorage>,
    remote: Option<Box<dyn RemoteBlockService>>,
    /// Journals block-service traffic ([`TraceEv::Fetch`] /
    /// [`TraceEv::Store`]) and feeds the progress byte meter. Off
    /// unless a single-rank view is given one. Journal writes bypass
    /// the metered storage path, so tracing never perturbs the
    /// counters.
    tracer: Tracer,
}

/// One PE's storage as every view builds it: the paper's disk model
/// over `backend`, with a block-buffer pool of `pool_blocks`.
fn pe_storage(cfg: &MachineConfig, pool_blocks: usize, backend: Arc<dyn Backend>) -> PeStorage {
    PeStorage::with_backend_pool(
        cfg.disks_per_pe,
        cfg.block_bytes,
        DiskModel::paper(),
        backend,
        BufferPool::new(cfg.block_bytes, pool_blocks),
    )
}

impl ClusterStorage {
    /// In-memory storage for `cfg.pes` PEs (the experiment default).
    pub fn new_mem(cfg: &MachineConfig) -> Arc<Self> {
        Self::with_backends(cfg, |c| Arc::new(MemBackend::new(c.disks_per_pe)))
    }

    /// [`ClusterStorage::new_mem`] with an explicit per-PE block-buffer
    /// pool capacity — what generator-fed sorts use to honor
    /// [`demsort_types::AlgoConfig::pool_blocks`]; `new_mem` itself
    /// always applies the auto policy.
    pub fn new_mem_sized(cfg: &MachineConfig, pool_blocks: usize) -> Arc<Self> {
        let mem = |_| Arc::new(MemBackend::new(cfg.disks_per_pe)) as Arc<dyn Backend>;
        Self::with_rank_backends(cfg, pool_blocks, (0..cfg.pes).map(mem).collect())
    }

    /// Storage with a custom backend per PE (files, fault injection).
    pub fn with_backends(
        cfg: &MachineConfig,
        mut make: impl FnMut(&MachineConfig) -> Arc<dyn Backend>,
    ) -> Arc<Self> {
        // Each PE gets a buffer pool sized to its memory budget (the
        // auto policy of `AlgoConfig::effective_pool_blocks`), so the
        // steady-state data plane recycles instead of allocating.
        let pool_blocks = cfg.mem_blocks_per_pe().max(cfg.min_pool_blocks());
        Self::with_rank_backends(cfg, pool_blocks, (0..cfg.pes).map(|_| make(cfg)).collect())
    }

    /// Storage over `backends[rank]` for every rank of the cluster,
    /// each PE with a block-buffer pool of `pool_blocks` — how a file
    /// job's storage is assembled from
    /// [`rank_backend`](crate::job::rank_backend).
    pub fn with_rank_backends(
        cfg: &MachineConfig,
        pool_blocks: usize,
        backends: Vec<Arc<dyn Backend>>,
    ) -> Arc<Self> {
        let pes: Vec<PeStorage> =
            backends.into_iter().map(|backend| pe_storage(cfg, pool_blocks, backend)).collect();
        Arc::new(Self { size: pes.len(), base_rank: 0, pes, remote: None, tracer: Tracer::off() })
    }

    /// Single-rank view: `rank`'s own storage plus a block service for
    /// its peers' blocks; `size` is the cluster size `P`. Every batch
    /// of fetches and stores issued through the view is journalled to
    /// `tracer` as a [`TraceEv::Fetch`] / [`TraceEv::Store`] instant
    /// carrying the owning rank and locality, and the moved bytes feed
    /// the tracer's progress byte meter ([`Tracer::off`] for neither).
    pub fn single_traced(
        rank: usize,
        size: usize,
        storage: PeStorage,
        remote: Box<dyn RemoteBlockService>,
        tracer: Tracer,
    ) -> Arc<Self> {
        assert!(rank < size, "rank {rank} out of range for {size} ranks");
        Arc::new(Self { size, base_rank: rank, pes: vec![storage], remote: Some(remote), tracer })
    }

    /// A worker's view of the cluster over its mesh endpoint: this
    /// rank's storage on `backend` (same engine, disk model and pool
    /// policy as the in-process cluster's, so counters compare run for
    /// run), its buffer pool installed on the endpoint (wire frames
    /// recycle the buffers the disk path uses), the endpoint as the
    /// service for peers' blocks, and this rank's blocks served to
    /// those peers — through the same `serve_fetch` / `serve_store` the
    /// in-process cluster calls — for as long as the view lives.
    pub fn over_mesh(
        mesh: &TcpTransport,
        cfg: &MachineConfig,
        pool_blocks: usize,
        backend: Arc<dyn Backend>,
        tracer: Tracer,
    ) -> MeshView {
        let rank = mesh.rank();
        let disks = pe_storage(cfg, pool_blocks, backend);
        mesh.set_buffer_pool(disks.pool().clone());
        let storage = Self::single_traced(rank, mesh.size(), disks, Box::new(mesh.clone()), tracer);
        let served = Arc::clone(&storage);
        mesh.set_block_handler(Arc::new(move |disk, slot| {
            let block = serve_fetch(served.pe(rank), BlockId::new(disk, slot)).wait();
            block.map(|b| b.into_vec()).map_err(|e| e.to_string())
        }));
        let served = Arc::clone(&storage);
        mesh.set_store_handler(Arc::new(move |disk_hint, data| {
            let id = serve_store(served.pe(rank), disk_hint, data).wait();
            id.map(|id| (id.disk, id.slot)).map_err(|e| e.to_string())
        }));
        MeshView { storage, mesh: mesh.clone() }
    }

    /// `true` if rank `rank`'s storage lives in this view.
    pub fn is_local(&self, rank: usize) -> bool {
        rank >= self.base_rank && rank - self.base_rank < self.pes.len()
    }

    /// Storage of PE `rank` (panics if the rank is not local to this
    /// view — remote blocks go through [`ClusterStorage::fetch_block`]).
    pub fn pe(&self, rank: usize) -> &PeStorage {
        assert!(
            self.is_local(rank),
            "PE {rank}'s storage is not local to this view (base {}, {} local)",
            self.base_rank,
            self.pes.len()
        );
        &self.pes[rank - self.base_rank]
    }

    /// The view's way to rank `rank`'s blocks, in or out of it.
    fn route(&self, rank: usize) -> Result<Route<'_>> {
        if rank >= self.size {
            return Err(Error::config(format!("rank {rank} out of range for {} ranks", self.size)));
        }
        if self.is_local(rank) {
            return Ok(Route::Local(self.pe(rank)));
        }
        self.remote.as_deref().map(Route::Remote).ok_or_else(|| {
            Error::io(format!(
                "PE {rank}'s storage is remote and no remote block service is registered"
            ))
        })
    }

    /// Read one block of PE `rank`'s storage, local or remote — a
    /// one-element [`ClusterStorage::fetch_blocks`] waited immediately
    /// (the multiway-selection probe path).
    pub fn fetch_block(&self, rank: usize, id: BlockId) -> Result<Box<[u8]>> {
        let mut fetches = self.fetch_blocks(rank, &[id])?;
        fetches.pop().expect("one fetch issued").wait()
    }

    /// Issue asynchronous reads of blocks owned by PE `rank`, local or
    /// remote — the location-transparent block service. Handles come
    /// back in request order; all reads are issued (and, for remote
    /// owners, pipelined on the wire) before any is waited on, so
    /// callers overlap the fetches with computation. Local reads go
    /// through the owner's engine (its disk pays the I/O, and issue
    /// order shapes its per-disk FIFO queues — pass ids in a prefetch
    /// schedule order to realize it); remote reads go through the
    /// registered [`RemoteBlockService`].
    pub fn fetch_blocks(&self, rank: usize, ids: &[BlockId]) -> Result<Vec<BlockFetch>> {
        let route = self.route(rank)?;
        if self.tracer.enabled() && !ids.is_empty() {
            self.tracer.instant(TraceEv::Fetch {
                owner: rank,
                blocks: ids.len(),
                remote: !self.is_local(rank),
            });
            self.tracer.add_bytes((ids.len() * self.block_bytes_hint()) as u64);
        }
        match route {
            Route::Local(pe) => Ok(ids.iter().map(|&id| serve_fetch(pe, id)).collect()),
            Route::Remote(service) => service.fetch_blocks(rank, ids),
        }
    }

    /// Issue asynchronous stores of `(disk_hint, data)` blocks into PE
    /// `owner`'s storage, local or remote — the **write half** of the
    /// location-transparent block service (run replication rides
    /// this). The owner's allocator assigns every address (hints are
    /// folded into its disk range), so replicas land round-robin
    /// across the buddy's disks without two writers ever colliding on
    /// a slot. Handles come back in request order; all stores are
    /// issued (and, for remote owners, pipelined on the wire behind
    /// one flush) before any is waited on.
    ///
    /// The returned [`StoreTarget`] classifies the write by ownership
    /// relative to `my_rank` — a cross-PE store is
    /// [`StoreTarget::RemoteDisk`] even in the in-process cluster,
    /// where the buddy's storage shares the address space: counters
    /// must not depend on the deployment shape.
    ///
    /// # Errors
    /// [`Error::Config`] for an out-of-range owner. Per-block failures
    /// surface from each [`BlockStore::wait`].
    pub fn store_blocks(
        &self,
        my_rank: usize,
        owner: usize,
        blocks: &[(u32, &[u8])],
    ) -> Result<(Vec<BlockStore>, StoreTarget)> {
        let route = self.route(owner)?;
        let target =
            if owner == my_rank { StoreTarget::LocalDisk } else { StoreTarget::RemoteDisk };
        if self.tracer.enabled() && !blocks.is_empty() {
            self.tracer.instant(TraceEv::Store {
                owner,
                blocks: blocks.len(),
                remote: target == StoreTarget::RemoteDisk,
            });
            self.tracer.add_bytes(blocks.iter().map(|&(_, d)| d.len() as u64).sum());
        }
        let stores = match route {
            Route::Local(pe) => blocks.iter().map(|&(hint, d)| serve_store(pe, hint, d)).collect(),
            Route::Remote(service) => service.store_blocks(owner, blocks)?,
        };
        Ok((stores, target))
    }

    /// [`ClusterStorage::fetch_blocks`], but issue the reads in
    /// `schedule` order (a permutation of indices into `ids`, e.g. a
    /// prefetch schedule from
    /// [`duality_issue_order`](demsort_storage::duality_issue_order))
    /// while returning the handles in `ids` order — the disks service
    /// the schedule, the caller consumes in logical order.
    pub fn fetch_blocks_scheduled(
        &self,
        rank: usize,
        ids: &[BlockId],
        schedule: &[usize],
    ) -> Result<Vec<BlockFetch>> {
        debug_assert_eq!(schedule.len(), ids.len(), "schedule must be a permutation of the ids");
        let ordered: Vec<BlockId> = schedule.iter().map(|&i| ids[i]).collect();
        let issued = self.fetch_blocks(rank, &ordered)?;
        let mut handles: Vec<Option<BlockFetch>> = ids.iter().map(|_| None).collect();
        for (&i, f) in schedule.iter().zip(issued) {
            handles[i] = Some(f);
        }
        Ok(handles.into_iter().map(|h| h.expect("schedule is a permutation")).collect())
    }

    /// Read one block of PE `owner`'s storage through `cache`: a hit
    /// costs nothing, a miss fetches through the block service and
    /// populates the cache. The returned [`FetchSource`] says which
    /// path served the read, classified relative to `my_rank` — a
    /// cross-PE fetch is [`FetchSource::RemoteDisk`] even in the
    /// in-process cluster, where every PE's storage happens to share
    /// the address space (the counters must not depend on the
    /// deployment shape).
    pub fn fetch_block_cached(
        &self,
        my_rank: usize,
        owner: usize,
        id: BlockId,
        cache: &mut BlockCache,
    ) -> Result<(Arc<[u8]>, FetchSource)> {
        if let Some(data) = cache.get(owner, id) {
            return Ok((data, FetchSource::Cache));
        }
        let block = self.fetch_block(owner, id)?;
        // The cache shares blocks by `Arc`, which needs one copy into
        // the refcounted allocation; the fetch buffer itself goes back
        // to the pool.
        let data: Arc<[u8]> = Arc::from(&block[..]);
        if self.is_local(my_rank) {
            let pool = self.pe(my_rank).pool();
            pool.add_copied(block.len() as u64);
            pool.put(block);
        }
        cache.put(owner, id, Arc::clone(&data));
        let source =
            if owner == my_rank { FetchSource::LocalDisk } else { FetchSource::RemoteDisk };
        Ok((data, source))
    }

    /// Block size the byte meter charges per fetched block (uniform
    /// across the cluster by construction — every PE is built from the
    /// same [`MachineConfig`]).
    fn block_bytes_hint(&self) -> usize {
        self.pes.first().map_or(0, PeStorage::block_bytes)
    }

    /// Number of PEs in the cluster (`P`, not the local count).
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` if the cluster has no PEs (never in practice).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

/// Where a view finds a rank's blocks.
enum Route<'a> {
    /// In the view: the owner's storage itself.
    Local(&'a PeStorage),
    /// Out of it: ask the owner.
    Remote(&'a dyn RemoteBlockService),
}

/// A worker's [`ClusterStorage`] view over its mesh endpoint
/// ([`ClusterStorage::over_mesh`]), which serves this rank's blocks to
/// its peers while it lives. The serve handlers hold the storage, which
/// holds the endpoint, whose reader threads hold the handlers — a cycle
/// only clearing the handlers breaks, so dropping the view clears them
/// on every exit path (errors included): peers then get an error reply
/// instead of a block, and the reader threads, sockets and storage go
/// with the last endpoint handle instead of leaking for the process
/// lifetime.
pub struct MeshView {
    storage: Arc<ClusterStorage>,
    mesh: TcpTransport,
}

impl std::ops::Deref for MeshView {
    type Target = ClusterStorage;

    fn deref(&self) -> &ClusterStorage {
        &self.storage
    }
}

impl Drop for MeshView {
    fn drop(&mut self) {
        self.mesh.clear_block_handler();
        self.mesh.clear_store_handler();
    }
}

/// Which path served a [`ClusterStorage::fetch_block_cached`] read.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FetchSource {
    /// The block cache — no I/O at all.
    Cache,
    /// The caller's own disks.
    LocalDisk,
    /// Another PE's disks (communication charged to the caller).
    RemoteDisk,
}

/// Cache key: the owning PE and the block's id on its disks.
type CacheKey = (usize, BlockId);
/// Cache value: LRU stamp plus the shared block buffer.
type CacheEntry = (u64, Arc<[u8]>);

/// LRU cache of fetched blocks, shared across the probes of one
/// external selection (capacity 0 disables caching — the paper's
/// ablation). Keyed by `(owning PE, block id)`; values are decoded
/// block buffers shared by `Arc`.
pub struct BlockCache {
    cap: usize,
    clock: u64,
    map: HashMap<CacheKey, CacheEntry>,
}

impl BlockCache {
    /// A cache holding at most `cap` blocks.
    pub fn new(cap: usize) -> Self {
        Self { cap, clock: 0, map: HashMap::with_capacity(cap) }
    }

    fn get(&mut self, owner: usize, id: BlockId) -> Option<Arc<[u8]>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&(owner, id)).map(|(stamp, data)| {
            *stamp = clock;
            Arc::clone(data)
        })
    }

    fn put(&mut self, owner: usize, id: BlockId, data: Arc<[u8]>) {
        if self.cap == 0 {
            return;
        }
        self.clock += 1;
        let key = (owner, id);
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            // Evict the least recently used entry (capacities are small
            // — tens of blocks — so a scan beats bookkeeping).
            if let Some(&old) = self.map.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| k) {
                self.map.remove(&old);
            }
        }
        self.map.insert(key, (self.clock, data));
    }
}

/// Phase-by-phase counter recorder for one PE.
///
/// Phases are delimited by [`PhaseRecorder::finish_phase`], which
/// snapshots the cumulative I/O and communication counters and
/// attributes the delta (plus explicitly accumulated CPU work and any
/// extra communication such as remote selection probes) to the phase.
pub struct PhaseRecorder {
    rank: usize,
    stats: Vec<(Phase, PhaseStats)>,
    last_io: IoCounters,
    last_comm: CommCounters,
    pending_cpu: CpuCounters,
    pending_comm_extra: CommCounters,
    phase_started: std::time::Instant,
}

impl PhaseRecorder {
    /// Start recording for PE `rank` from the given counter baselines.
    pub fn new(rank: usize, io_now: IoCounters, comm_now: CommCounters) -> Self {
        Self {
            rank,
            stats: Vec::new(),
            last_io: io_now,
            last_comm: comm_now,
            pending_cpu: CpuCounters::default(),
            pending_comm_extra: CommCounters::default(),
            phase_started: std::time::Instant::now(),
        }
    }

    /// Accumulate CPU work into the current phase.
    pub fn add_cpu(&mut self, cpu: CpuCounters) {
        self.pending_cpu = self.pending_cpu.merge(&cpu);
    }

    /// Accumulate out-of-band communication (remote storage probes).
    pub fn add_comm(&mut self, comm: CommCounters) {
        self.pending_comm_extra = self.pending_comm_extra.merge(&comm);
    }

    /// Close the current phase, attributing counter deltas to `phase`.
    pub fn finish_phase(&mut self, phase: Phase, io_now: IoCounters, comm_now: CommCounters) {
        let mut cpu = std::mem::take(&mut self.pending_cpu);
        cpu.host_wall_ns += self.phase_started.elapsed().as_nanos() as u64;
        let stats = PhaseStats {
            io: io_now.delta_since(&self.last_io),
            comm: comm_now
                .delta_since(&self.last_comm)
                .merge(&std::mem::take(&mut self.pending_comm_extra)),
            cpu,
        };
        self.last_io = io_now;
        self.last_comm = comm_now;
        self.phase_started = std::time::Instant::now();
        self.stats.push((phase, stats));
    }

    /// Run `body` as one phase of the sort — the scope both drivers
    /// open their phases through, so the journal's phase spans delimit
    /// the intervals the counters are attributed to. Reports progress,
    /// opens the phase span on `comm`'s tracer and runs `body` with the
    /// recorder (for its CPU and out-of-band traffic); on success
    /// closes the recorder phase against `st`'s and `comm`'s counters,
    /// journals a `mem` instant and ends the span. On error the span
    /// stays open: an unclosed phase is what a post-mortem reads.
    pub fn phase<T>(
        &mut self,
        phase: Phase,
        comm: &Communicator,
        st: &PeStorage,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let tr = comm.tracer();
        tr.progress(phase, 0, 1);
        let span = tr.begin(TraceEv::Phase { phase });
        let out = body(self)?;
        self.finish_phase(phase, st.counters(), comm.counters());
        tr.mem();
        tr.end(span, TraceEv::Phase { phase });
        Ok(out)
    }

    /// This PE's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The recorded per-phase stats.
    pub fn into_stats(self) -> Vec<(Phase, PhaseStats)> {
        self.stats
    }
}

/// Assemble per-PE recorder outputs into a [`SortReport`].
pub fn assemble_report(
    cfg: &SortConfig,
    elements: u64,
    element_bytes: usize,
    runs: usize,
    per_pe: Vec<Vec<(Phase, PhaseStats)>>,
) -> SortReport {
    let mut report = SortReport::new(cfg.machine.pes, elements, element_bytes, runs);
    for (pe, phases) in per_pe.into_iter().enumerate() {
        for (phase, stats) in phases {
            report.record(pe, phase, stats);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_types::AlgoConfig;

    #[test]
    fn cluster_storage_shapes_from_config() {
        let cfg = MachineConfig::tiny(3);
        let cs = ClusterStorage::new_mem(&cfg);
        assert_eq!(cs.len(), 3);
        assert!(!cs.is_empty());
        assert_eq!(cs.pe(1).disks(), cfg.disks_per_pe);
        assert_eq!(cs.pe(2).block_bytes(), cfg.block_bytes);
        assert!((0..3).all(|r| cs.is_local(r)));
    }

    /// Stands in for the peers: a fetch echoes the requested address
    /// instead of real data, a store is acknowledged with a synthetic
    /// address derived from the hint.
    struct FakePeers;

    impl RemoteBlockService for FakePeers {
        fn fetch_blocks(&self, pe: usize, ids: &[BlockId]) -> Result<Vec<BlockFetch>> {
            Ok(ids
                .iter()
                .map(|id| {
                    BlockFetch::ready(
                        vec![pe as u8, id.disk as u8, id.slot as u8].into_boxed_slice(),
                    )
                })
                .collect())
        }

        fn store_blocks(&self, pe: usize, blocks: &[(u32, &[u8])]) -> Result<Vec<BlockStore>> {
            let ack = |(i, &(hint, _))| BlockStore::ready(BlockId::new(hint + pe as u32, i as u32));
            Ok(blocks.iter().enumerate().map(ack).collect())
        }
    }

    fn mem_disks(cfg: &MachineConfig) -> Arc<dyn Backend> {
        Arc::new(MemBackend::new(cfg.disks_per_pe))
    }

    fn one_rank_view(rank: usize, size: usize) -> (Arc<ClusterStorage>, BlockId) {
        let cfg = MachineConfig::tiny(size);
        let st = pe_storage(&cfg, cfg.min_pool_blocks(), mem_disks(&cfg));
        let id = st.alloc().alloc_striped();
        st.engine()
            .write_sync(id, vec![7u8; cfg.block_bytes].into_boxed_slice())
            .expect("write local block");
        (ClusterStorage::single_traced(rank, size, st, Box::new(FakePeers), Tracer::off()), id)
    }

    #[test]
    fn single_rank_view_routes_local_and_remote_fetches() {
        let (cs, local_id) = one_rank_view(1, 3);
        assert_eq!(cs.len(), 3, "logical cluster size, not local count");
        assert!(cs.is_local(1));
        assert!(!cs.is_local(0) && !cs.is_local(2));
        // Local fetch reads the real block through the own engine.
        assert_eq!(&cs.fetch_block(1, local_id).expect("local")[..3], &[7, 7, 7]);
        // Remote fetch goes through the registered block service.
        let got = cs.fetch_block(2, BlockId::new(1, 5)).expect("remote");
        assert_eq!(&*got, &[2u8, 1, 5][..]);
        // Batched fetches return handles in request order.
        let ids = [BlockId::new(0, 1), BlockId::new(1, 2)];
        let fetches = cs.fetch_blocks(0, &ids).expect("batch");
        let got: Vec<Box<[u8]>> =
            fetches.into_iter().map(|f| f.wait().expect("remote block")).collect();
        assert_eq!(&*got[0], &[0u8, 0, 1][..]);
        assert_eq!(&*got[1], &[0u8, 1, 2][..]);
        // Out-of-range ranks are clean errors.
        assert!(cs.fetch_blocks(9, &ids).is_err());
    }

    #[test]
    fn traced_view_journals_block_service_traffic() {
        let cfg = MachineConfig::tiny(3);
        let st = pe_storage(&cfg, cfg.min_pool_blocks(), mem_disks(&cfg));
        let id = st.alloc().alloc_striped();
        st.engine()
            .write_sync(id, vec![7u8; cfg.block_bytes].into_boxed_slice())
            .expect("write local block");
        let tracer = Tracer::to_buffer(1);
        let cs = ClusterStorage::single_traced(1, 3, st, Box::new(FakePeers), tracer.clone());
        cs.fetch_block(1, id).expect("local fetch");
        cs.fetch_block(2, BlockId::new(0, 0)).expect("remote fetch");
        let data = vec![0xC3u8; cs.pe(1).block_bytes()];
        let (stores, _) = cs.store_blocks(1, 1, &[(0, data.as_slice())]).expect("local store");
        for s in stores {
            s.wait().expect("store lands");
        }
        let evs: Vec<TraceEv> = tracer.drain().into_iter().map(|r| r.ev).collect();
        assert_eq!(
            evs,
            vec![
                TraceEv::Fetch { owner: 1, blocks: 1, remote: false },
                TraceEv::Fetch { owner: 2, blocks: 1, remote: true },
                TraceEv::Store { owner: 1, blocks: 1, remote: false },
            ],
            "one instant per block-service batch, locality by ownership"
        );
    }

    #[test]
    fn store_blocks_allocates_locally_and_classifies_by_owner() {
        let (cs, _) = one_rank_view(1, 3);
        let block_bytes = cs.pe(1).block_bytes();
        let disks = cs.pe(1).disks();
        let a = vec![0xA1u8; block_bytes];
        let b = vec![0xB2u8; block_bytes];
        // Store into the own rank: the local allocator assigns
        // addresses on the hinted disks; ownership says LocalDisk.
        let (stores, target) =
            cs.store_blocks(1, 1, &[(0, a.as_slice()), (7, b.as_slice())]).expect("local stores");
        assert_eq!(target, StoreTarget::LocalDisk);
        let ids: Vec<BlockId> =
            stores.into_iter().map(|s| s.wait().expect("local store")).collect();
        assert_eq!(ids[0].disk, 0);
        assert_eq!(ids[1].disk, (7 % disks) as u32);
        assert_eq!(&cs.fetch_block(1, ids[0]).expect("read back")[..], &a[..]);
        assert_eq!(&cs.fetch_block(1, ids[1]).expect("read back")[..], &b[..]);
        // Out-of-range owners are clean config errors.
        assert!(cs.store_blocks(1, 9, &[(0, a.as_slice())]).is_err());
    }

    #[test]
    fn store_blocks_routes_remote_owners_through_the_service() {
        let (cs, _) = one_rank_view(1, 3);
        let data = vec![0u8; cs.pe(1).block_bytes()];
        let (stores, target) = cs
            .store_blocks(1, 2, &[(4, data.as_slice()), (5, data.as_slice())])
            .expect("remote stores");
        assert_eq!(target, StoreTarget::RemoteDisk);
        let ids: Vec<BlockId> = stores.into_iter().map(|s| s.wait().expect("ack")).collect();
        assert_eq!(ids, vec![BlockId::new(6, 0), BlockId::new(7, 1)]);
    }

    #[test]
    fn scheduled_fetch_returns_handles_in_request_order() {
        let (cs, _) = one_rank_view(1, 3);
        let ids = [BlockId::new(0, 4), BlockId::new(1, 1), BlockId::new(0, 9)];
        // Issue back-to-front; handles must still line up with `ids`.
        let fetches = cs.fetch_blocks_scheduled(2, &ids, &[2, 0, 1]).expect("scheduled");
        let got: Vec<Box<[u8]>> = fetches.into_iter().map(|f| f.wait().expect("block")).collect();
        assert_eq!(&*got[0], &[2u8, 0, 4][..]);
        assert_eq!(&*got[1], &[2u8, 1, 1][..]);
        assert_eq!(&*got[2], &[2u8, 0, 9][..]);
    }

    #[test]
    fn cached_fetch_classifies_sources_by_owner_not_view() {
        let (cs, local_id) = one_rank_view(1, 3);
        let mut cache = BlockCache::new(8);
        let (_, src) = cs.fetch_block_cached(1, 1, local_id, &mut cache).expect("own block");
        assert_eq!(src, FetchSource::LocalDisk);
        let (_, src) = cs.fetch_block_cached(1, 1, local_id, &mut cache).expect("cached");
        assert_eq!(src, FetchSource::Cache);
        let remote_id = BlockId::new(0, 3);
        let (data, src) = cs.fetch_block_cached(1, 2, remote_id, &mut cache).expect("peer block");
        assert_eq!(src, FetchSource::RemoteDisk);
        assert_eq!(&*data, &[2u8, 0, 3][..]);
        let (_, src) = cs.fetch_block_cached(1, 2, remote_id, &mut cache).expect("cached");
        assert_eq!(src, FetchSource::Cache);
        // The in-process view classifies the same way: a cross-PE fetch
        // is remote even though the storage is reachable directly.
        let all = ClusterStorage::new_mem(&MachineConfig::tiny(2));
        let id = all.pe(1).alloc().alloc_striped();
        all.pe(1)
            .engine()
            .write_sync(id, vec![9u8; all.pe(1).block_bytes()].into_boxed_slice())
            .expect("write");
        let mut cache = BlockCache::new(0); // capacity 0: cache disabled
        let (_, src) = all.fetch_block_cached(0, 1, id, &mut cache).expect("cross-PE");
        assert_eq!(src, FetchSource::RemoteDisk);
        let (_, src) = all.fetch_block_cached(0, 1, id, &mut cache).expect("uncached");
        assert_eq!(src, FetchSource::RemoteDisk, "capacity 0 must never hit");
        let (_, src) = all.fetch_block_cached(1, 1, id, &mut cache).expect("own");
        assert_eq!(src, FetchSource::LocalDisk);
    }

    #[test]
    fn lru_cache_evicts_least_recent() {
        let mut c = BlockCache::new(2);
        let data: Arc<[u8]> = Arc::from(vec![0u8; 4].into_boxed_slice());
        c.put(0, BlockId::new(0, 0), Arc::clone(&data));
        c.put(0, BlockId::new(0, 1), Arc::clone(&data));
        assert!(c.get(0, BlockId::new(0, 0)).is_some()); // refresh 0
        c.put(0, BlockId::new(0, 2), Arc::clone(&data)); // evicts (0,1)
        assert!(c.get(0, BlockId::new(0, 1)).is_none());
        assert!(c.get(0, BlockId::new(0, 0)).is_some());
        assert!(c.get(0, BlockId::new(0, 2)).is_some());
    }

    #[test]
    #[should_panic(expected = "not local to this view")]
    fn single_rank_view_rejects_direct_remote_storage_access() {
        let (cs, _) = one_rank_view(1, 3);
        let _ = cs.pe(0);
    }

    #[test]
    fn in_process_view_has_no_remote_fetcher() {
        let cs = ClusterStorage::new_mem(&MachineConfig::tiny(2));
        // An unallocated-but-valid address read through fetch_block
        // routes to the local engine (error or not, it must not demand
        // a remote fetcher).
        let id = cs.pe(1).alloc().alloc_striped();
        cs.pe(1)
            .engine()
            .write_sync(id, vec![3u8; cs.pe(1).block_bytes()].into_boxed_slice())
            .expect("write");
        assert_eq!(&cs.fetch_block(1, id).expect("local fetch")[..2], &[3, 3]);
    }

    #[test]
    fn recorder_attributes_deltas_per_phase() {
        let io0 = IoCounters::default();
        let comm0 = CommCounters::default();
        let mut rec = PhaseRecorder::new(0, io0, comm0);

        rec.add_cpu(CpuCounters { elements_sorted: 10, ..Default::default() });
        let io1 = IoCounters { bytes_read: 100, ..Default::default() };
        rec.finish_phase(Phase::RunFormation, io1, comm0);

        rec.add_comm(CommCounters { bytes_recv: 55, ..Default::default() });
        let io2 = IoCounters { bytes_read: 150, ..Default::default() };
        rec.finish_phase(Phase::MultiwaySelection, io2, comm0);

        let stats = rec.into_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, Phase::RunFormation);
        assert_eq!(stats[0].1.io.bytes_read, 100);
        assert_eq!(stats[0].1.cpu.elements_sorted, 10);
        assert_eq!(stats[1].1.io.bytes_read, 50, "second phase gets only its delta");
        assert_eq!(stats[1].1.comm.bytes_recv, 55, "probe traffic counted");
    }

    #[test]
    fn phase_scope_brackets_the_body_and_leaves_a_failed_phase_open() {
        use demsort_types::trace::TraceOp;
        let mut comm = demsort_net::build_mesh(1).pop().expect("one rank");
        let tracer = Tracer::to_buffer(0);
        comm.set_tracer(tracer.clone());
        let cs = ClusterStorage::new_mem(&MachineConfig::tiny(1));
        let st = cs.pe(0);
        let mut rec = PhaseRecorder::new(0, st.counters(), comm.counters());

        let got = rec.phase(Phase::RunFormation, &comm, st, |rec| {
            rec.add_cpu(CpuCounters { elements_sorted: 3, ..Default::default() });
            Ok(7)
        });
        assert_eq!(got, Ok(7));
        let failed: Result<()> =
            rec.phase(Phase::FinalMerge, &comm, st, |_| Err(Error::comm("peer died")));
        assert_eq!(failed, Err(Error::comm("peer died")));

        let stats = rec.into_stats();
        assert_eq!(stats.len(), 1, "a failed phase records nothing");
        assert_eq!(stats[0].0, Phase::RunFormation);
        assert_eq!(stats[0].1.cpu.elements_sorted, 3);
        let spans: Vec<(bool, Phase)> = tracer
            .drain()
            .into_iter()
            .filter_map(|r| match (r.op, r.ev) {
                (TraceOp::Begin(_), TraceEv::Phase { phase }) => Some((true, phase)),
                (TraceOp::End(_), TraceEv::Phase { phase }) => Some((false, phase)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            [(true, Phase::RunFormation), (false, Phase::RunFormation), (true, Phase::FinalMerge)],
            "the failed phase's span stays open for the post-mortem"
        );
    }

    #[test]
    fn report_assembly_round_trips() {
        let cfg = SortConfig::new(MachineConfig::tiny(2), AlgoConfig::default()).expect("valid");
        let per_pe = vec![
            vec![(
                Phase::FinalMerge,
                PhaseStats {
                    io: IoCounters { bytes_written: 64, ..Default::default() },
                    ..Default::default()
                },
            )],
            vec![],
        ];
        let report = assemble_report(&cfg, 1000, 16, 2, per_pe);
        assert_eq!(report.pes, 2);
        assert_eq!(report.runs, 2);
        assert_eq!(report.get(0, Phase::FinalMerge).io.bytes_written, 64);
        assert_eq!(report.get(1, Phase::FinalMerge).io.bytes_written, 0);
    }

    // ---------------------------------------------------------------
    // One block service on both substrates: the same bodies run against
    // the all-local view (every rank's `views[r]` is the one shared
    // storage) and against single-rank views over a loopback TCP mesh.
    // ---------------------------------------------------------------

    const P: usize = 3;

    fn with_all_local_view(body: impl Fn(&[&ClusterStorage])) {
        let all = ClusterStorage::new_mem(&MachineConfig::tiny(P));
        body(&[&*all; P]);
    }

    /// A loopback mesh and every rank's view over its endpoint.
    fn mesh_views() -> (Vec<TcpTransport>, Vec<MeshView>) {
        let cfg = MachineConfig::tiny(P);
        let mesh = demsort_net::tcp::loopback_mesh(P, Default::default()).expect("mesh");
        let view = |tcp| {
            let pool_blocks = cfg.min_pool_blocks();
            ClusterStorage::over_mesh(tcp, &cfg, pool_blocks, mem_disks(&cfg), Tracer::off())
        };
        let views = mesh.iter().map(view).collect();
        (mesh, views)
    }

    fn with_mesh_views(body: impl Fn(&[&ClusterStorage])) {
        let (_mesh, views) = mesh_views();
        body(&views.iter().map(|v| &**v).collect::<Vec<_>>());
    }

    /// What the block service promises, whoever serves: `views[r]` is
    /// rank `r`'s view of the cluster.
    fn conformance(views: &[&ClusterStorage]) {
        let st = views[0].pe(0);
        let (disks, block_bytes) = (st.disks() as u32, st.block_bytes());
        let write = |rank: usize, tag: u8| {
            let id = views[rank].pe(rank).alloc().alloc_striped();
            let block = vec![tag; block_bytes].into_boxed_slice();
            views[rank].pe(rank).engine().write_sync(id, block).expect("write own block");
            id
        };

        // A fetch of an own or a peer's block returns the written bytes.
        let own: Vec<BlockId> = (0..P).map(|r| write(r, r as u8 + 1)).collect();
        for (me, view) in views.iter().enumerate() {
            for (owner, &id) in own.iter().enumerate() {
                let got = view.fetch_block(owner, id).expect("fetch");
                assert_eq!(&*got, &vec![owner as u8 + 1; block_bytes][..], "{me} reads {owner}");
            }
        }

        // Issued in schedule order, handed back in `ids` order.
        let ids = [write(1, 10), write(1, 11), write(1, 12)];
        for me in [0, 1] {
            let fetches = views[me].fetch_blocks_scheduled(1, &ids, &[2, 0, 1]).expect("issue");
            let tags: Vec<u8> = fetches.into_iter().map(|f| f.wait().expect("block")[0]).collect();
            assert_eq!(tags, [10, 11, 12], "rank {me}");
        }

        // A store with hint `h` lands on disk `h % disks` at the owner
        // and reads back from every rank; a short payload still stores
        // (zero-padded to a block), one beyond a block is refused at
        // the owner and fails on the requester. Classified by ownership.
        let (full, short) = (vec![0xA5u8; block_bytes], vec![0x5Au8; block_bytes / 2 + 1]);
        let long = vec![1u8; block_bytes + 1];
        for (me, owner) in [(0, 0), (0, 1), (2, 1)] {
            let hint = disks + 1;
            let blocks = [(hint, &full[..]), (0, &short[..]), (0, &long[..])];
            let (stores, target) = views[me].store_blocks(me, owner, &blocks).expect("issue");
            let expect = if me == owner { StoreTarget::LocalDisk } else { StoreTarget::RemoteDisk };
            assert_eq!(target, expect, "{me} stores into {owner}");
            let mut acks: Vec<Result<BlockId>> = stores.into_iter().map(BlockStore::wait).collect();
            let err = acks.pop().expect("three stores").expect_err("beyond a block");
            assert!(matches!(&err, Error::Io(m) if m.contains("exceeds")), "{err}");
            let ids: Vec<BlockId> = acks.into_iter().map(|a| a.expect("stored")).collect();
            assert_eq!((ids[0].disk, ids[1].disk), (hint % disks, 0));
            let mut padded = short.clone();
            padded.resize(block_bytes, 0);
            for (reader, view) in views.iter().enumerate() {
                let got = view.fetch_block(owner, ids[0]).expect("read back");
                assert_eq!(&*got, &full[..], "{reader} reads {me}'s store at {owner}");
                let got = view.fetch_block(owner, ids[1]).expect("read back");
                assert_eq!(&*got, &padded[..], "{reader} reads {me}'s short store at {owner}");
            }
        }

        // A never-written slot fails on the requester with the owner's
        // error text; a rank outside the cluster is a config error.
        let hole = BlockId::new(0, 9_999);
        for (me, owner) in [(0, 0), (0, 1), (2, 1)] {
            let err = views[me].fetch_block(owner, hole).expect_err("never written");
            assert!(matches!(&err, Error::Io(m) if m.contains("unwritten block d0:9999")), "{err}");
        }
        assert!(matches!(views[0].fetch_blocks(P, &[hole]), Err(Error::Config(_))));
        assert!(matches!(views[0].store_blocks(0, P, &[(0, &full[..])]), Err(Error::Config(_))));

        // Reads classify by ownership too, whatever the view holds.
        for (me, owner) in [(1, 1), (0, 1)] {
            let mut cache = BlockCache::new(4);
            let expect = if me == owner { FetchSource::LocalDisk } else { FetchSource::RemoteDisk };
            let (_, src) =
                views[me].fetch_block_cached(me, owner, own[owner], &mut cache).expect("read");
            assert_eq!(src, expect, "{me} reads {owner}");
            let (_, src) =
                views[me].fetch_block_cached(me, owner, own[owner], &mut cache).expect("read");
            assert_eq!(src, FetchSource::Cache);
        }
    }

    #[test]
    fn all_local_view_conforms() {
        with_all_local_view(conformance);
    }

    #[test]
    fn mesh_views_conform() {
        with_mesh_views(conformance);
    }

    /// A store served for a peer is staged in the *owner's* pool and
    /// the buffer returns there when the write retires: the owner's
    /// misses follow the in-flight window, not the number of blocks.
    fn served_stores_recycle_through_the_owners_pool(views: &[&ClusterStorage]) {
        const WINDOW: usize = 4;
        const BATCHES: usize = 16;
        let block = vec![0xEEu8; views[1].pe(1).block_bytes()];
        let batch: Vec<(u32, &[u8])> = (0..WINDOW).map(|i| (i as u32, &block[..])).collect();
        for _ in 0..BATCHES {
            let (stores, _) = views[0].store_blocks(0, 1, &batch).expect("issue");
            for s in stores {
                s.wait().expect("stored");
            }
        }
        let c = views[1].pe(1).pool().counters();
        assert!(c.hits > 0 && c.recycled > 0, "{c:?}");
        assert!(c.misses <= 2 * WINDOW as u64, "{} stores, {c:?}", WINDOW * BATCHES);
        assert_eq!(c.copied_bytes, (WINDOW * BATCHES * block.len()) as u64, "one staging copy");
    }

    #[test]
    fn served_stores_recycle_on_both_substrates() {
        with_all_local_view(served_stores_recycle_through_the_owners_pool);
        with_mesh_views(served_stores_recycle_through_the_owners_pool);
    }

    #[test]
    fn dropping_a_mesh_view_answers_peers_with_an_error_and_frees_the_endpoint() {
        let (mut mesh, mut views) = mesh_views();
        let id = views[2].pe(2).alloc().alloc_striped();
        let block = vec![9u8; views[2].pe(2).block_bytes()];
        views[2].pe(2).engine().write_sync(id, block.clone().into_boxed_slice()).expect("write");
        assert_eq!(&*views[0].fetch_block(2, id).expect("served"), &block[..]);
        // Rank 2's view goes (its job ended, or failed) while its
        // endpoint is still up: peers get an error reply at once.
        drop(views.pop());
        let err = views[0].fetch_block(2, id).expect_err("no longer served");
        assert!(matches!(&err, Error::Io(m) if m.contains("no block handler")), "{err}");
        let (mut stores, _) = views[0].store_blocks(0, 2, &[(0, &block[..])]).expect("issue");
        let err = stores.pop().expect("one store").wait().expect_err("no longer served");
        assert!(matches!(&err, Error::Io(m) if m.contains("no store handler")), "{err}");
        // With the view gone nothing else holds the endpoint: dropping
        // the last handle closes its sockets, which its peers notice.
        drop(mesh.pop());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !mesh[0].dead_peers()[2] {
            assert!(std::time::Instant::now() < deadline, "rank 2's endpoint leaked");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}
