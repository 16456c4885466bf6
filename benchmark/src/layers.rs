//! The per-layer ladder: one driver per public entry point of the
//! crates the sorter is built from, bottom (host) to top (core).
//!
//! Every driver times only calls into public functions, on at most two
//! busy threads (the I/O engine's per-disk workers and the transports'
//! reader threads are the layers' own). A driver repeats its *unit* — a
//! few tens of milliseconds of work — until a sample's timed region
//! reaches the budget, and reports one rate per sample; the harness
//! prints the median. Bulk units move 32 MiB at the workloads' large
//! block size (256 KiB), small-block units use 16 KiB.

use crate::spans::Spans;
use demsort_core::recio::{read_records, write_records};
use demsort_core::{merge, multiway_select, parallel_sort, sort_in_node};
use demsort_net::tcp::{loopback_mesh, TcpOptions, TcpTransport};
use demsort_net::{build_mesh, run_cluster_over, Communicator};
use demsort_storage::{
    free_run, read_run, write_run, Backend, BlockId, DiskModel, FileBackend, IoEngine, MemBackend,
    MergePrefetcher, PeStorage,
};
use demsort_types::{BufferPool, Key10, Record as _, Record100};
use demsort_workloads::gensort_records;
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLOCK: usize = 256 << 10;
const SMALL_BLOCK: usize = 16 << 10;
const DISKS: usize = 4;
const BULK_BYTES: usize = 32 << 20;
const BULK_BLOCKS: usize = BULK_BYTES / BLOCK;
const SMALL_BLOCKS: usize = 1024;
/// Records the CPU-bound drivers sort, merge and encode (26 MB).
const RECORDS: usize = 1 << 18;
/// Number of `rate`/`duet` calls below (`host.nproc` and
/// `host.build_s` are read, not sampled); only used to split a total
/// time budget, so a miscount shifts the run time by a few percent.
const SAMPLED_DRIVERS: usize = 38;

/// How long to measure: `samples` values per driver, each timing at
/// least `sample_s` seconds of work.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub samples: usize,
    pub sample_s: f64,
}

impl Budget {
    /// `samples` samples per driver such that the whole ladder times
    /// about `seconds` of work.
    pub fn spread_over(seconds: f64, samples: usize) -> Budget {
        Budget { samples, sample_s: seconds / (samples * SAMPLED_DRIVERS) as f64 }
    }
}

type Timed = (f64, Duration);

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Sample a single-threaded driver: `unit` does one unit of work and
/// returns how much it did and how long the timed part took. One unit
/// runs off the clock first, so first-touch page faults of the driver's
/// own buffers and lazy set-up are not in any sample.
fn rate(b: Budget, mut unit: impl FnMut() -> Timed) -> Vec<f64> {
    unit();
    (0..b.samples)
        .map(|_| {
            let (mut work, mut time) = (0.0, Duration::ZERO);
            while time.as_secs_f64() < b.sample_s || work == 0.0 {
                let (w, t) = unit();
                work += w;
                time += t;
            }
            work / time.as_secs_f64()
        })
        .collect()
}

/// Sample a two-rank SPMD driver: both ranks call `unit`; rank 0's
/// clock counts and rank 0 decides, through a collective both ranks
/// join, whether the sample needs another unit. As in [`rate`], one
/// unit runs off the clock first.
fn duet(
    comms: Vec<Communicator>,
    b: Budget,
    unit: impl Fn(&Communicator) -> Timed + Sync,
) -> Vec<f64> {
    let per_rank = run_cluster_over(comms, |comm| {
        unit(&comm);
        (0..b.samples)
            .map(|_| {
                let (mut work, mut time) = (0.0, Duration::ZERO);
                loop {
                    let (w, t) = unit(&comm);
                    work += w;
                    time += t;
                    let more = u64::from(time.as_secs_f64() < b.sample_s);
                    if comm.allgather_u64(more).expect("continue flag")[0] == 0 {
                        break;
                    }
                }
                work / time.as_secs_f64()
            })
            .collect::<Vec<f64>>()
    });
    per_rank.into_iter().next().expect("rank 0")
}

fn tcp_comms(mesh: &[TcpTransport]) -> Vec<Communicator> {
    mesh.iter().map(|t| Communicator::new(Box::new(t.clone()))).collect()
}

/// Turn operations per second into microseconds per operation.
fn micros(per_second: Vec<f64>) -> Vec<f64> {
    per_second.into_iter().map(|r| 1e6 / r).collect()
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

fn mrec(records: usize) -> f64 {
    records as f64 / 1e6
}

fn mem_storage(block: usize) -> PeStorage {
    PeStorage::with_backend(DISKS, block, DiskModel::paper(), Arc::new(MemBackend::new(DISKS)))
}

fn block_id(i: usize) -> BlockId {
    BlockId::new((i % DISKS) as u32, (i / DISKS) as u32)
}

/// Named sample series; the reported value of a metric is the median.
pub type Series = Vec<(String, Vec<f64>)>;

/// Run the whole ladder. `scratch` holds `FileBackend`'s files.
pub fn run_ladder(b: Budget, seed: u64, scratch: &Path, spans: &mut Spans) -> Series {
    let recs = gensort_records(seed, 0, RECORDS);
    let mut out = Series::new();
    let mut layer = |name: &str, f: &mut dyn FnMut() -> Series| {
        out.extend(spans.scope(name, "", |_| f()));
    };
    layer("layer:host", &mut || host(b, &recs));
    layer("layer:types", &mut || types(b, &recs));
    layer("layer:storage", &mut || storage(b, scratch));
    layer("layer:net.local", &mut || net_collectives(b, "local", build_mesh));
    let mesh = loopback_mesh(2, TcpOptions::default()).expect("loopback mesh");
    layer("layer:net.tcp", &mut || net_collectives(b, "tcp", |_| tcp_comms(&mesh)));
    layer("layer:net.tcp.blocksvc", &mut || net_tcp_block_service(b, &mesh));
    drop(mesh);
    layer("layer:core", &mut || core(b, &recs));
    out
}

// -------------------------------------------------------------------
// host
// -------------------------------------------------------------------

fn host(b: Budget, recs: &[Record100]) -> Series {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let memcpy = rate(b, || {
        let ((), t) = timed(|| dst.copy_from_slice(black_box(&src)));
        black_box(&dst);
        (mb(BYTES), t)
    });
    drop((src, dst));
    // A fresh anonymous mapping, one write per page, unmapped again:
    // the page-fault cost every newly allocated buffer of the sorter
    // pays (allocations this large always come from mmap).
    let first_touch = rate(b, || {
        let ((), t) = timed(|| {
            let mut v = vec![0u8; BYTES];
            v.iter_mut().step_by(4096).for_each(|byte| *byte = 1);
            black_box(&v);
        });
        (mb(BYTES), t)
    });
    let sort_unstable = rate(b, || {
        let mut v = recs.to_vec();
        let ((), t) = timed(|| v.sort_unstable());
        black_box(&v);
        (mrec(v.len()), t)
    });
    vec![
        ("host.memcpy_mb_s".into(), memcpy),
        ("host.first_touch_mb_s".into(), first_touch),
        ("host.sort_unstable_mrec_s".into(), sort_unstable),
    ]
}

// -------------------------------------------------------------------
// types
// -------------------------------------------------------------------

fn types(b: Budget, recs: &[Record100]) -> Series {
    let bytes = recs.len() * Record100::BYTES;
    let mut buf = vec![0u8; bytes];
    let encode = rate(b, || {
        let ((), t) = timed(|| Record100::encode_slice(black_box(recs), &mut buf));
        black_box(&buf);
        (mb(bytes), t)
    });
    let mut decoded: Vec<Record100> = Vec::with_capacity(recs.len());
    let decode = rate(b, || {
        decoded.clear();
        let ((), t) = timed(|| Record100::decode_slice(black_box(&buf), &mut decoded));
        black_box(&decoded);
        (mb(bytes), t)
    });
    // The hit path: a get served from the free list, the buffer put
    // straight back.
    let pool = BufferPool::new(BLOCK, 8);
    pool.put(pool.get());
    let get_put = rate(b, || {
        const OPS: usize = 100_000;
        let ((), t) = timed(|| (0..OPS).for_each(|_| pool.put(black_box(pool.get()))));
        (OPS as f64 / 1e6, t)
    });
    vec![
        ("types.record.encode_mb_s".into(), encode),
        ("types.record.decode_mb_s".into(), decode),
        ("types.buf.get_put_mops".into(), get_put),
    ]
}

// -------------------------------------------------------------------
// storage
// -------------------------------------------------------------------

/// Write then read `BULK_BLOCKS` blocks through the [`Backend`] trait;
/// writes go to a fresh backend (as the sorter's mostly do), reads come
/// from the last one written.
fn backend_pair(b: Budget, mut fresh: impl FnMut() -> Box<dyn Backend>) -> (Vec<f64>, Vec<f64>) {
    let data = vec![7u8; BLOCK];
    let mut last: Option<Box<dyn Backend>> = None;
    let write = rate(b, || {
        let backend = fresh();
        let ((), t) = timed(|| {
            for i in 0..BULK_BLOCKS {
                backend.write(i % DISKS, (i / DISKS) as u64, black_box(&data)).expect("write");
            }
        });
        last = Some(backend);
        (mb(BULK_BYTES), t)
    });
    let backend = last.expect("at least one unit ran");
    let mut buf = vec![0u8; BLOCK];
    let read = rate(b, || {
        let ((), t) = timed(|| {
            for i in 0..BULK_BLOCKS {
                backend.read(i % DISKS, (i / DISKS) as u64, &mut buf).expect("read");
                black_box(&buf);
            }
        });
        (mb(BULK_BYTES), t)
    });
    (write, read)
}

/// Write then read `blocks` blocks through the asynchronous engine with
/// a bounded window of requests in flight; returns operations/s.
fn engine_pair(b: Budget, block: usize, blocks: usize) -> (Vec<f64>, Vec<f64>) {
    const WINDOW: usize = 2 * DISKS;
    let fresh =
        || IoEngine::new(DISKS, block, DiskModel::paper(), Arc::new(MemBackend::new(DISKS)));
    let mut last = None;
    let write = rate(b, || {
        let engine = fresh();
        let ((), t) = timed(|| {
            let mut inflight = VecDeque::with_capacity(WINDOW);
            for i in 0..blocks {
                if inflight.len() == WINDOW {
                    let h: demsort_storage::IoHandle = inflight.pop_front().expect("window");
                    engine.pool().put(h.wait().expect("write"));
                }
                inflight.push_back(engine.write(block_id(i), engine.pool().get()));
            }
            for h in inflight {
                engine.pool().put(h.wait().expect("write"));
            }
        });
        last = Some(engine);
        (blocks as f64, t)
    });
    let engine = last.expect("at least one unit ran");
    let read = rate(b, || {
        let ((), t) = timed(|| {
            let mut inflight = VecDeque::with_capacity(WINDOW);
            for i in 0..blocks {
                if inflight.len() == WINDOW {
                    let h: demsort_storage::IoHandle = inflight.pop_front().expect("window");
                    engine.pool().put(black_box(h.wait().expect("read")));
                }
                inflight.push_back(engine.read(block_id(i)));
            }
            for h in inflight {
                engine.pool().put(black_box(h.wait().expect("read")));
            }
        });
        (blocks as f64, t)
    });
    (write, read)
}

fn storage(b: Budget, scratch: &Path) -> Series {
    let (mem_write, mem_read) = backend_pair(b, || Box::new(MemBackend::new(DISKS)));
    // Page-cache file I/O: nothing here syncs or bypasses the cache.
    let dir = scratch.join("filebackend");
    let (file_write, file_read) = backend_pair(b, || {
        Box::new(FileBackend::create(&dir, DISKS, BLOCK).expect("file backend"))
    });
    let _ = std::fs::remove_dir_all(&dir);

    let per_block_mb = |ops: Vec<f64>| ops.into_iter().map(|o| o * mb(BLOCK)).collect::<Vec<f64>>();
    let (engine_write, engine_read) = engine_pair(b, BLOCK, BULK_BLOCKS);
    let (small_write, small_read) = engine_pair(b, SMALL_BLOCK, SMALL_BLOCKS);
    // One figure for small operations: the harmonic mean of the write
    // and read rates, i.e. operations per second over an equal mix.
    let small_ops =
        small_write.iter().zip(&small_read).map(|(w, r)| 2.0 / (1.0 / w + 1.0 / r)).collect();

    let st = mem_storage(BLOCK);
    let data = vec![3u8; BULK_BYTES];
    let run_write = rate(b, || {
        let (run, t) = timed(|| write_run(&st, black_box(&data)).expect("write_run"));
        free_run(&st, &run);
        (mb(BULK_BYTES), t)
    });
    let run = write_run(&st, &data).expect("write_run");
    let run_read = rate(b, || {
        let (bytes, t) = timed(|| read_run(&st, &run).expect("read_run"));
        black_box(&bytes);
        (mb(BULK_BYTES), t)
    });
    let prefetch = rate(b, || {
        let ((), t) = timed(|| {
            let mut pf = MergePrefetcher::optimal(&st, run.blocks.clone(), 2 * DISKS, false);
            while let Some(block) = pf.next().expect("prefetch") {
                st.pool().put(black_box(block));
            }
        });
        (mb(BULK_BYTES), t)
    });
    vec![
        ("storage.mem.write_mb_s".into(), mem_write),
        ("storage.mem.read_mb_s".into(), mem_read),
        ("storage.file.write_mb_s".into(), file_write),
        ("storage.file.read_mb_s".into(), file_read),
        ("storage.engine.write_mb_s".into(), per_block_mb(engine_write)),
        ("storage.engine.read_mb_s".into(), per_block_mb(engine_read)),
        ("storage.engine.small_ops_s".into(), small_ops),
        ("storage.run.write_mb_s".into(), run_write),
        ("storage.run.read_mb_s".into(), run_read),
        ("storage.prefetch.read_mb_s".into(), prefetch),
    ]
}

// -------------------------------------------------------------------
// net
// -------------------------------------------------------------------

/// The `Communicator` drivers over either transport; `comms(2)` hands
/// out a fresh pair of endpoints per driver. Rates are per rank: what
/// one rank sends its peer per second while the peer does the same.
fn net_collectives(
    b: Budget,
    transport: &'static str,
    comms: impl Fn(usize) -> Vec<Communicator>,
) -> Series {
    const MSG: usize = 256 << 10;
    const MSGS: usize = 64;
    let payload = vec![5u8; MSG];
    let stream = duet(comms(2), b, |comm| {
        if comm.rank() == 0 {
            let ((), t) = timed(|| {
                for _ in 0..MSGS {
                    comm.send_bytes(1, &payload).expect("send");
                }
                comm.recv(1).expect("ack");
            });
            (mb(MSG * MSGS), t)
        } else {
            for _ in 0..MSGS {
                black_box(comm.recv(0).expect("recv"));
            }
            comm.send_bytes(0, &[1]).expect("ack");
            (0.0, Duration::ZERO)
        }
    });
    let pingpong = duet(comms(2), b, |comm| {
        const TRIPS: usize = 200;
        let ((), t) = timed(|| {
            for _ in 0..TRIPS {
                if comm.rank() == 0 {
                    comm.send_bytes(1, &[0u8; 8]).expect("ping");
                    comm.recv(1).expect("pong");
                } else {
                    comm.recv(0).expect("ping");
                    comm.send_bytes(0, &[0u8; 8]).expect("pong");
                }
            }
        });
        (TRIPS as f64, t)
    });
    let alltoallv = duet(comms(2), b, |comm| {
        const PART: usize = 2 << 20;
        const CALLS: usize = 4;
        let mut time = Duration::ZERO;
        for _ in 0..CALLS {
            let msgs = vec![vec![9u8; PART]; 2];
            let (got, t) = timed(|| comm.alltoallv(msgs).expect("alltoallv"));
            black_box(got);
            time += t;
        }
        (mb(PART * CALLS), time)
    });
    let name = |metric: &str| format!("net.{transport}.{metric}");
    let mut out: Series = vec![
        (name("stream_mb_s"), stream),
        (name("pingpong_us"), micros(pingpong)),
        (name("alltoallv_mb_s"), alltoallv),
    ];
    if transport == "tcp" {
        let allgather = duet(comms(2), b, |comm| {
            const CALLS: usize = 200;
            let ((), t) = timed(|| {
                for i in 0..CALLS {
                    black_box(comm.allgather_u64(i as u64).expect("allgather_u64"));
                }
            });
            (CALLS as f64, t)
        });
        out.push(("net.tcp.allgather_u64_us".into(), micros(allgather)));
        let connect = rate(b, || {
            let (mesh, t) = timed(|| loopback_mesh(2, TcpOptions::default()).expect("mesh"));
            drop(mesh);
            (1.0, t)
        });
        out.push((
            "net.tcp.mesh_connect_ms".into(),
            connect.into_iter().map(|r| 1e3 / r).collect(),
        ));
    }
    out
}

/// Rank 1 of `mesh` serving its storage through the block service
/// exactly as a worker does, and rank 0 as its client.
struct BlockService<'a> {
    client: &'a TcpTransport,
    server: &'a TcpTransport,
    st: Arc<PeStorage>,
    client_pool: BufferPool,
    block: Vec<u8>,
    blocks: usize,
}

impl<'a> BlockService<'a> {
    const BATCH: usize = 32;

    fn new(mesh: &'a [TcpTransport], block_bytes: usize, blocks: usize) -> Self {
        let (client, server) = (&mesh[0], &mesh[1]);
        let st = Arc::new(mem_storage(block_bytes));
        let client_pool = BufferPool::new(block_bytes, 2 * Self::BATCH);
        client.set_buffer_pool(client_pool.clone());
        server.set_buffer_pool(st.pool().clone());
        let block = vec![11u8; block_bytes];
        for i in 0..blocks {
            st.engine().write_sync(block_id(i), block.clone().into_boxed_slice()).expect("fill");
        }
        let serve = Arc::clone(&st);
        server.set_block_handler(Arc::new(move |disk, slot| {
            let block = serve.engine().read_sync(BlockId::new(disk, slot));
            block.map(|b| b.into_vec()).map_err(|e| e.to_string())
        }));
        let store = Arc::clone(&st);
        server.set_store_handler(Arc::new(move |disk_hint, data| {
            let id = store.alloc().alloc_on(disk_hint as usize % store.disks());
            let wrote = store.engine().write_sync(id, data.to_vec().into_boxed_slice());
            wrote.map(|()| (id.disk, id.slot)).map_err(|e| e.to_string())
        }));
        Self { client, server, st, client_pool, block, blocks }
    }

    /// Pipelined batches of remote reads; block operations per second.
    fn fetch(&self, b: Budget) -> Vec<f64> {
        let addrs: Vec<(u32, u32)> =
            (0..self.blocks).map(|i| (block_id(i).disk, block_id(i).slot)).collect();
        rate(b, || {
            let ((), t) = timed(|| {
                for batch in addrs.chunks(Self::BATCH) {
                    for f in self.client.fetch_blocks(1, batch).expect("fetch_blocks") {
                        self.client_pool.put_vec(black_box(f.wait().expect("fetch")));
                    }
                }
            });
            (self.blocks as f64, t)
        })
    }

    /// Pipelined batches of remote writes (freed again off the clock);
    /// block operations per second.
    fn store(&self, b: Budget) -> Vec<f64> {
        let batch: Vec<(u32, &[u8])> =
            (0..Self::BATCH).map(|i| (i as u32, self.block.as_slice())).collect();
        let batches = self.blocks / Self::BATCH;
        rate(b, || {
            let mut stored = Vec::with_capacity(self.blocks);
            let ((), t) = timed(|| {
                for _ in 0..batches {
                    for s in self.client.store_blocks(1, &batch).expect("store_blocks") {
                        stored.push(s.wait().expect("store"));
                    }
                }
            });
            for (disk, slot) in stored {
                self.st.free_block(BlockId::new(disk, slot));
            }
            ((batches * Self::BATCH) as f64, t)
        })
    }
}

impl Drop for BlockService<'_> {
    fn drop(&mut self) {
        self.server.clear_block_handler();
        self.server.clear_store_handler();
    }
}

fn net_tcp_block_service(b: Budget, mesh: &[TcpTransport]) -> Series {
    let per_block_mb = |ops: Vec<f64>| ops.into_iter().map(|o| o * mb(BLOCK)).collect::<Vec<f64>>();
    let large = BlockService::new(mesh, BLOCK, BULK_BLOCKS);
    let (fetch, store) = (large.fetch(b), large.store(b));
    drop(large);
    // The pool installed on a transport is per block size, so the
    // small-block fetches get a mesh of their own.
    let small_mesh = loopback_mesh(2, TcpOptions::default()).expect("loopback mesh");
    let fetch_small = BlockService::new(&small_mesh, SMALL_BLOCK, SMALL_BLOCKS).fetch(b);
    vec![
        ("net.tcp.fetch_mb_s".into(), per_block_mb(fetch)),
        ("net.tcp.store_mb_s".into(), per_block_mb(store)),
        ("net.tcp.fetch_small_ops_s".into(), fetch_small),
    ]
}

// -------------------------------------------------------------------
// core
// -------------------------------------------------------------------

/// `recs` cut into `k` equal chunks, each sorted.
fn sorted_chunks(recs: &[Record100], k: usize) -> Vec<Vec<Record100>> {
    recs.chunks(recs.len().div_ceil(k))
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        })
        .collect()
}

fn core(b: Budget, recs: &[Record100]) -> Series {
    let mut out = Series::new();
    for (name, cores) in [("core.seqsort.c1_mrec_s", 1), ("core.seqsort.c2_mrec_s", 2)] {
        let samples = rate(b, || {
            let mut v = recs.to_vec();
            let (_, t) = timed(|| sort_in_node(&mut v, cores));
            black_box(&v);
            (mrec(v.len()), t)
        });
        out.push((name.into(), samples));
    }

    let mut merged: Vec<Record100> = Vec::with_capacity(recs.len());
    let merges = [
        ("core.merge.k4_mrec_s", 4, 1),
        ("core.merge.k16_mrec_s", 16, 1),
        ("core.merge.k128_mrec_s", 128, 1),
        ("core.merge.par2_k16_mrec_s", 16, 2),
    ];
    for (name, k, threads) in merges {
        let chunks = sorted_chunks(recs, k);
        let seqs: Vec<&[Record100]> = chunks.iter().map(Vec::as_slice).collect();
        let samples = rate(b, || {
            merged.clear();
            let ((), t) = timed(|| {
                if threads == 1 {
                    merge::merge_k_into(black_box(&seqs), &mut merged);
                } else {
                    merge::par_merge_k_into(black_box(&seqs), threads, &mut merged);
                }
            });
            black_box(&merged);
            (mrec(merged.len()), t)
        });
        out.push((name.into(), samples));
    }

    let keys: Vec<Vec<Key10>> =
        sorted_chunks(recs, 128).iter().map(|c| c.iter().map(|r| r.key).collect()).collect();
    let total: u64 = keys.iter().map(|k| k.len() as u64).sum();
    let mut target = 0u64;
    let selection = rate(b, || {
        const SELECTS: usize = 20;
        let mut seqs: Vec<&[Key10]> = keys.iter().map(Vec::as_slice).collect();
        let ((), t) = timed(|| {
            for _ in 0..SELECTS {
                target = (target + 7919 * 997) % total;
                black_box(multiway_select(&mut seqs, target).expect("in-memory selection"));
            }
        });
        (SELECTS as f64, t)
    });
    out.push(("core.selection.k128_us".into(), micros(selection)));

    let st = mem_storage(BLOCK);
    let recio_write = rate(b, || {
        let (run, t) = timed(|| write_records(&st, black_box(recs)).expect("write_records"));
        free_run(&st, &run.run);
        (mrec(recs.len()), t)
    });
    let run = write_records(&st, recs).expect("write_records");
    let recio_read = rate(b, || {
        let (back, t) =
            timed(|| read_records::<Record100>(&st, &run.run, run.elems).expect("read_records"));
        black_box(&back);
        (mrec(recs.len()), t)
    });
    out.push(("core.recio.write_mrec_s".into(), recio_write));
    out.push(("core.recio.read_mrec_s".into(), recio_read));

    let psort = duet(build_mesh(2), b, |comm| {
        let half = recs.len() / 2;
        let mine = recs[comm.rank() * half..(comm.rank() + 1) * half].to_vec();
        let (sorted, t) = timed(|| parallel_sort(comm, mine, 1).expect("parallel_sort"));
        black_box(&sorted);
        (mrec(2 * half), t)
    });
    out.push(("core.psort.p2_mrec_s".into(), psort));
    out
}
