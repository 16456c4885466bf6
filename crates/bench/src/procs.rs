//! The multi-process cluster runtime: coordinator, launcher, worker.
//!
//! `demsort-launch` plays the role of `mpirun` on the paper's cluster:
//! it binds a coordinator port, spawns one `demsort-worker` process
//! per rank, rendezvouses them (each worker reports its mesh listener
//! address, the coordinator assigns ranks and broadcasts the address
//! table plus the [`JobConfig`]), and collects per-rank
//! [`RankReport`]s when the sort finishes. The workers build the full
//! `P × P` TCP mesh among themselves and run the same rank program as
//! the in-process cluster — [`run_rank_job`], so the same sort, the
//! same collectives, the same counters.
//!
//! ## Data path of a worker
//!
//! [`run_rank`] builds this substrate's `(comm, storage, hooks)` — the
//! rank's disks and its storage over them ([`pe_storage`], its buffer
//! pool shared with the mesh endpoint), the TCP mesh, recovery hooks
//! wired to the transport's failure detector — and hands them to
//! [`run_rank_job`], which sorts the rank's shard of the input, read
//! where it lies, and writes the blocks it ends up owning into its byte
//! ranges of the shared output file in the sort's last pass. No rank
//! reads or writes another's disks: everything a peer needs arrives
//! over the communicator. Any
//! file failure is an `Error::Io` naming the path, the rank and the
//! byte offset, shipped to the launcher like every other failure. The
//! rank's disks are the files [`rank_backend`] creates under the job's
//! scratch directory (`SCRATCH/rank<K>/disk_<D>.bin`), so a worker's
//! memory follows `--mem-mib`, not its `N/P` share of the data. A rank
//! removes its files when it is done, however it ends; the launcher
//! sweeps what a killed rank could not ([`LaunchControl`]'s drop).
//!
//! ## Failure model
//!
//! Collectives are fallible end-to-end: a peer dying mid-sort surfaces
//! as `Error::Comm` from the sort on every surviving rank (within the
//! transport's read timeout — no hang, no abort). A worker whose sort
//! fails ships a **structured failed [`RankReport`]** (the `error`
//! field set) back over its coordinator connection instead of
//! unwinding; a SIGKILLed worker simply closes its connection. The
//! launcher classifies every rank into a [`RankOutcome`] — reported,
//! failed, or vanished — and its error names the dead rank(s) first,
//! so `demsort-launch` exits non-zero identifying exactly who died.
//!
//! ## Coordinator protocol
//!
//! Length-prefixed messages (`[len: u32 LE][tag: u8][body]`) over the
//! worker's coordinator connection:
//!
//! | tag | direction | body |
//! |---|---|---|
//! | `JOIN`     | worker → launcher | mesh listener address, worker pid |
//! | `ASSIGN`   | launcher → worker | rank, address table, job config |
//! | `REPORT`   | worker → launcher | [`RankReport`] (success *or* structured failure) |
//! | `PROGRESS` | worker → launcher | [`ProgressFrame`] (tracing runs only) |
//!
//! With tracing on ([`JobConfig::trace_dir`] non-empty), each worker
//! appends a JSONL event journal to `<trace_dir>/rank<K>.jsonl` and
//! streams coarse [`ProgressFrame`]s (phase, batch `b`/`of`, bytes
//! moved) over its coordinator connection, which the launcher renders
//! as live per-rank status lines while it polls for reports. Progress
//! rides the unmetered control socket, so the sort's communication
//! counters are untouched.
//!
//! Workers can alternatively rendezvous without a coordinator from a
//! host file (`demsort-worker --hostfile`), each binding its listed
//! address — the multi-host path, where the job config comes from
//! flags instead of the wire.

use demsort_core::ctx::pe_storage;
use demsort_core::job::{
    cluster_report, default_scratch, probe_scratch, rank_backend, rank_tracer, run_rank_job,
    sweep_scratch,
};
use demsort_core::striped::ResilientHooks;
use demsort_net::tcp::{bind_loopback, TcpOptions, TcpTransport};
use demsort_net::{Communicator, SubTransport, Transport as _};
use demsort_types::wire::{
    decode_job, decode_progress, decode_rank_report, encode_job, encode_progress,
    encode_rank_report, RankReport, WireReader, WireWriter,
};
use demsort_types::{
    AlgoConfig, Error, JobConfig, MachineConfig, ProgressFrame, Record as _, Record100, Result,
    SortAlgo, SortReport, Tracer,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TAG_JOIN: u8 = 1;
const TAG_ASSIGN: u8 = 2;
const TAG_REPORT: u8 = 3;
const TAG_PROGRESS: u8 = 4;

/// Upper bound on a coordinator message (reports are tiny).
const MAX_CTRL_MSG: usize = 64 << 20;

fn write_msg(s: &mut TcpStream, tag: u8, body: &[u8]) -> Result<()> {
    let len = (body.len() + 1) as u32;
    s.write_all(&len.to_le_bytes())
        .and_then(|()| s.write_all(&[tag]))
        .and_then(|()| s.write_all(body))
        .and_then(|()| s.flush())
        .map_err(|e| Error::comm(format!("coordinator write: {e}")))
}

/// Read one `[len][tag][body]` control message, bounded by `deadline`
/// (the socket must carry a read timeout so blocked reads tick). The
/// framing itself lives in [`MsgProgress`] — the same state machine
/// the launcher's poll loop drives nonblockingly — so the two paths
/// cannot drift.
fn read_msg_deadline(s: &mut TcpStream, deadline: Instant) -> Result<(u8, Vec<u8>)> {
    let mut progress = MsgProgress::new();
    loop {
        match progress.pump(s) {
            Pump::Done(tag, body) => return Ok((tag, body)),
            Pump::Closed(msg) => return Err(Error::comm(msg)),
            Pump::Pending => {
                // Partial progress survives across read-timeout ticks,
                // so a tick can never corrupt message framing.
                if Instant::now() >= deadline {
                    return Err(Error::comm("timed out"));
                }
            }
        }
    }
}

// -------------------------------------------------------------------
// Worker
// -------------------------------------------------------------------

/// Join a cluster through the coordinator at `coordinator`, run the
/// assigned rank's share of the job, and report back. The normal body
/// of `demsort-worker`.
///
/// Collectives are fallible, so a dead peer mid-sort comes back as a
/// plain `Err` from [`run_rank`] — no unwinding and no panic
/// translation: the error is shipped to the launcher as a structured
/// failed [`RankReport`] and also returned (so the worker process
/// exits non-zero).
pub fn run_worker(coordinator: &str) -> Result<RankReport> {
    let mut ctrl = TcpStream::connect(coordinator)
        .map_err(|e| Error::comm(format!("connect coordinator {coordinator}: {e}")))?;
    ctrl.set_read_timeout(Some(Duration::from_millis(250)))
        .map_err(|e| Error::comm(e.to_string()))?;
    let (listener, mesh_addr) = bind_loopback()?;

    let mut w = WireWriter::new();
    w.string(&mesh_addr.to_string());
    w.u32(std::process::id());
    write_msg(&mut ctrl, TAG_JOIN, &w.finish())?;

    // The rendezvous is quick (the launcher itself gives up after
    // 30 s); a wedged launcher must not hang the worker forever.
    let (tag, body) = read_msg_deadline(&mut ctrl, Instant::now() + Duration::from_secs(60))
        .map_err(|e| Error::comm(format!("waiting for rank assignment: {e}")))?;
    if tag != TAG_ASSIGN {
        return Err(Error::comm(format!("expected ASSIGN, got tag {tag}")));
    }
    let (rank, addrs, job) = decode_assign(&body)?;

    // With tracing on, the journal goes to the shared trace directory
    // and coarse progress frames ride this control connection back to
    // the launcher. Progress is best-effort: a write error must not
    // fail the sort, so the callback swallows it.
    let mut tracer = rank_tracer(&job.trace_dir, rank)?;
    if tracer.enabled() {
        if let Ok(stream) = ctrl.try_clone() {
            let stream = std::sync::Mutex::new(stream);
            tracer = tracer.with_progress(Box::new(move |f: &ProgressFrame| {
                let mut s = stream.lock().expect("progress stream lock");
                let _ = write_msg(&mut s, TAG_PROGRESS, &encode_progress(f));
            }));
        }
    }

    // Run the rank. Errors (a dead peer surfacing as Error::Comm from
    // a collective, storage faults, bad input) come back as plain
    // Results — the panic-translating unwind shim is gone.
    match run_rank(rank, &addrs, listener, &job, tracer) {
        Ok(report) => {
            write_msg(&mut ctrl, TAG_REPORT, &encode_rank_report(&report))?;
            Ok(report)
        }
        Err(e) => {
            let failed = RankReport::failed(rank, e.to_string());
            let _ = write_msg(&mut ctrl, TAG_REPORT, &encode_rank_report(&failed));
            Err(e)
        }
    }
}

/// Run one rank of `job` over an established rendezvous: backend, mesh,
/// this rank's view of the cluster, communicator, [`run_rank_job`],
/// then hold the mesh up until every live peer is done too. Shared by
/// the coordinator and hostfile bootstrap paths.
///
/// `tracer` is threaded through the transport and the communicator so
/// a traced run journals every layer under one
/// rank/clock; pass [`Tracer::off`] for an untraced run.
pub fn run_rank(
    rank: usize,
    addrs: &[SocketAddr],
    listener: TcpListener,
    job: &JobConfig,
    tracer: Tracer,
) -> Result<RankReport> {
    job.validate()?;
    let p = job.machine.pes;
    if addrs.len() != p {
        return Err(Error::config(format!(
            "address table has {} entries for {} ranks",
            addrs.len(),
            p
        )));
    }

    // This rank's disks, before anything that can fail for a peer's
    // sake: the guard is declared first so it drops last, and the
    // rank's scratch files go whichever way this function returns.
    let (backend, _scratch) = rank_backend(job, rank)?;

    let opts = TcpOptions {
        read_timeout: Duration::from_millis(job.read_timeout_ms),
        ..TcpOptions::default()
    };
    let tcp = TcpTransport::connect_mesh(rank, addrs, listener, opts)?;
    tcp.set_tracer(tracer.clone());

    // This rank's storage; wire frames recycle the buffers its disk
    // path uses.
    let st = pe_storage(&job.machine, backend);
    tcp.set_buffer_pool(st.pool().clone());

    // The rank program — the same body the in-process cluster runs.
    let mut comm = Communicator::new(Box::new(tcp.clone()));
    comm.set_tracer(tracer.clone());
    let report = run_rank_job(job, &comm, &st, Some(recovery_hooks(&tcp)))?;

    // Ranks must not tear the mesh down while a slower peer still
    // depends on it (the final phases interleave). After a degraded
    // striped completion a global barrier would wait on the dead rank
    // forever, so synchronize over the live group only.
    let dead = tcp.dead_peers();
    if dead.iter().any(|&d| d) {
        let members: Vec<usize> = (0..p).filter(|&r| !dead[r]).collect();
        let sub = SubTransport::new(tcp.clone(), members)?;
        Communicator::new(Box::new(sub)).barrier()?;
    } else {
        comm.barrier()?;
    }

    // The job is done: detach the tracer before teardown so the mesh
    // closing under the reader threads isn't journalled as a wave of
    // peer deaths, then flush what the rank actually recorded.
    tcp.set_tracer(Tracer::off());
    // verify: allow(L2, Tracer::flush is infallible and returns unit — journal write errors are swallowed by design)
    tracer.flush();
    Ok(report)
}

/// Rank-failure recovery over the TCP mesh, for the striped sort:
/// with `--replication f` (f > 0), a rank dying mid-merge is detected
/// by the survivors' failure detector ([`TcpTransport`]'s reader
/// threads), the survivors cut stale traffic with an epoch marker,
/// regroup over a renumbered [`SubTransport`], re-route the dead
/// rank's blocks to their replicas, and finish the sort degraded.
///
/// Failure-injection harness (read at merge start, used by the
/// cluster tests): if `DEMSORT_MERGE_START_MARKER_DIR` is set, each
/// rank drops a `merge-start-<rank>` file there when its merge phase
/// begins (so a launcher can SIGKILL a specific rank at that exact
/// point); if `DEMSORT_MERGE_START_STALL_MS` is set, each rank then
/// stalls that long before merging (so the kill lands before any
/// survivor enters the merge).
fn recovery_hooks(tcp: &TcpTransport) -> ResilientHooks<'_> {
    let marker_dir = std::env::var_os("DEMSORT_MERGE_START_MARKER_DIR");
    let stall_ms =
        std::env::var("DEMSORT_MERGE_START_STALL_MS").ok().and_then(|s| s.parse::<u64>().ok());
    ResilientHooks {
        dead_set: Box::new(|| tcp.dead_peers()),
        subgroup: Box::new(move |members: &[usize]| {
            // Epoch cut: discard every frame the doomed attempt left
            // in flight, from every surviving member (self included —
            // the self-channel FIFO got a marker too), then renumber.
            tcp.advance_epoch(1)?;
            for &m in members {
                tcp.drain_to_epoch(m, 1)?;
            }
            let sub = SubTransport::new(tcp.clone(), members.to_vec())?;
            Ok(Communicator::new(Box::new(sub)))
        }),
        on_merge_start: Some(Box::new(move |r| {
            if let Some(dir) = &marker_dir {
                let _ = std::fs::write(
                    std::path::Path::new(dir).join(format!("merge-start-{r}")),
                    b"1",
                );
            }
            if let Some(ms) = stall_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            true
        })),
    }
}

// -------------------------------------------------------------------
// Launcher
// -------------------------------------------------------------------

/// Result of a multi-process launch.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// Aggregated per-rank, per-phase counters
    /// ([`cluster_report`], as on the in-process cluster).
    pub report: SortReport,
    /// The raw per-rank reports, in rank order.
    pub per_rank: Vec<RankReport>,
}

/// What became of one rank of a launch (indexed by rank).
#[derive(Debug)]
pub enum RankOutcome {
    /// The rank completed and reported counters.
    Report(RankReport),
    /// The rank reported a structured failure (e.g. `Error::Comm` after
    /// a peer died) and exited cleanly.
    Failed(String),
    /// The rank's coordinator connection closed or timed out before any
    /// report arrived — the process died (crash, SIGKILL, node loss).
    Vanished(String),
}

/// Exit with a usage error (shared by the CLI bins).
pub fn cli_die(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(2);
}

/// Parse a CLI flag value or exit with a usage error.
pub fn cli_parse<T: std::str::FromStr>(bin: &str, s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| cli_die(bin, &format!("invalid {what}: {s}")))
}

/// Locate the `demsort-worker` binary next to the running executable.
pub fn sibling_worker_bin() -> Result<PathBuf> {
    let exe = std::env::current_exe().map_err(|e| Error::io(e.to_string()))?;
    let dir = exe.parent().ok_or_else(|| Error::io("executable has no parent dir"))?;
    let candidate = dir.join("demsort-worker");
    if candidate.exists() {
        return Ok(candidate);
    }
    Err(Error::config(format!(
        "demsort-worker not found next to {} — build it (cargo build -p demsort-bench) or pass \
         --worker-bin",
        exe.display()
    )))
}

/// Incremental framing state of one polled coordinator connection:
/// partial reads across poll rounds preserve message boundaries (a
/// `WouldBlock` mid-header can never corrupt the frame).
struct MsgProgress {
    /// Length prefix (4 bytes) + tag.
    head: [u8; 5],
    head_filled: usize,
    body: Vec<u8>,
    body_filled: usize,
}

/// One poll round's outcome for a connection.
enum Pump {
    /// No complete message yet; the connection is still live.
    Pending,
    /// A complete `(tag, body)` control message arrived.
    Done(u8, Vec<u8>),
    /// The connection is unusable (closed, garbage framing, error).
    Closed(String),
}

impl MsgProgress {
    fn new() -> Self {
        Self { head: [0u8; 5], head_filled: 0, body: Vec::new(), body_filled: 0 }
    }

    /// Drive the read as far as currently possible without blocking.
    fn pump(&mut self, s: &mut TcpStream) -> Pump {
        loop {
            let (buf, filled) = if self.head_filled < self.head.len() {
                (&mut self.head[..], &mut self.head_filled)
            } else if self.body_filled < self.body.len() {
                (&mut self.body[..], &mut self.body_filled)
            } else {
                return Pump::Done(self.head[4], std::mem::take(&mut self.body));
            };
            match s.read(&mut buf[*filled..]) {
                Ok(0) => return Pump::Closed("connection closed".to_string()),
                Ok(n) => {
                    *filled += n;
                    if self.head_filled == self.head.len() && self.body.is_empty() {
                        let len = u32::from_le_bytes(self.head[..4].try_into().expect("4 bytes"))
                            as usize;
                        if len == 0 || len > MAX_CTRL_MSG {
                            return Pump::Closed(format!("bad coordinator message length {len}"));
                        }
                        self.body = vec![0u8; len - 1];
                        self.body_filled = 0;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    return Pump::Pending;
                }
                Err(e) => return Pump::Closed(format!("coordinator read: {e}")),
            }
        }
    }
}

/// Classify one complete REPORT message from `rank`'s connection.
fn classify_report(rank: usize, body: &[u8]) -> RankOutcome {
    match decode_rank_report(body) {
        Ok(rep) if rep.rank != rank => {
            RankOutcome::Vanished(format!("rank {rank}'s connection reported rank {}", rep.rank))
        }
        Ok(rep) => match &rep.error {
            Some(msg) => RankOutcome::Failed(msg.clone()),
            None => RankOutcome::Report(rep),
        },
        Err(e) => RankOutcome::Vanished(format!("undecodable report: {e}")),
    }
}

/// A launched-but-not-yet-collected cluster job: the worker processes
/// are running the sort, ranks are assigned, the job config has been
/// shipped. Used directly by failure-injection tests (which kill a
/// worker mid-sort) and by [`launch`] (which immediately collects).
///
/// Dropping the control kills and reaps any children not yet reaped,
/// then sweeps the job's scratch directory: a rank removes its own
/// files on every exit it lives through, and this removes those of a
/// rank that was killed.
pub struct LaunchControl {
    children: Vec<std::process::Child>,
    conns: Vec<TcpStream>,
    /// OS pid per rank (reported in each worker's JOIN).
    pids: Vec<u32>,
    collect_deadline: Instant,
    /// The job's scratch directory and rank count, for the sweep.
    scratch: String,
    ranks: usize,
}

impl LaunchControl {
    /// The OS pid of the worker that holds `rank`.
    pub fn pid_of_rank(&self, rank: usize) -> u32 {
        self.pids[rank]
    }

    /// SIGKILL the worker holding `rank` (failure injection).
    pub fn kill_rank(&mut self, rank: usize) -> Result<()> {
        let pid = self.pids[rank];
        let child = self
            .children
            .iter_mut()
            .find(|c| c.id() == pid)
            .ok_or_else(|| Error::config(format!("no child process with pid {pid}")))?;
        child.kill().map_err(|e| Error::io(format!("kill rank {rank} (pid {pid}): {e}")))
    }

    /// Collect every rank's outcome: a report, a structured failure, or
    /// a vanished connection. All connections are **polled
    /// concurrently** — a slow rank never delays classifying the ranks
    /// that already reported (at cluster scale, waiting on connections
    /// one at a time would serialize the collection behind the slowest
    /// rank encountered first). Never fails as a whole and never hangs:
    /// the loop is bounded by the collect deadline (scaled from the
    /// job's comm timeout), and a dead worker's closed socket
    /// classifies immediately.
    pub fn collect_outcomes(&mut self) -> Vec<RankOutcome> {
        let deadline = self.collect_deadline;
        let n = self.conns.len();
        let mut outcomes: Vec<Option<RankOutcome>> = (0..n).map(|_| None).collect();
        let mut progress: Vec<MsgProgress> = (0..n).map(|_| MsgProgress::new()).collect();
        for c in &self.conns {
            // Poll nonblockingly; a connection that cannot switch
            // classifies through its first read error.
            let _ = c.set_nonblocking(true);
        }
        loop {
            let mut open = 0usize;
            for (rank, conn) in self.conns.iter_mut().enumerate() {
                if outcomes[rank].is_some() {
                    continue;
                }
                // Inner loop: several progress frames may be queued
                // ahead of the report; drain them all this round.
                loop {
                    match progress[rank].pump(conn) {
                        Pump::Pending => {
                            open += 1;
                            break;
                        }
                        Pump::Done(TAG_PROGRESS, body) => {
                            // Live status from a traced worker. Frames
                            // are cosmetic: a malformed one is dropped,
                            // never fatal.
                            if let Ok(f) = decode_progress(&body) {
                                print_progress(&f);
                            }
                            progress[rank] = MsgProgress::new();
                        }
                        Pump::Done(TAG_REPORT, body) => {
                            outcomes[rank] = Some(classify_report(rank, &body));
                            break;
                        }
                        Pump::Done(tag, _) => {
                            outcomes[rank] =
                                Some(RankOutcome::Vanished(format!("unexpected tag {tag}")));
                            break;
                        }
                        Pump::Closed(msg) => {
                            outcomes[rank] = Some(RankOutcome::Vanished(msg));
                            break;
                        }
                    }
                }
            }
            if open == 0 {
                break;
            }
            if Instant::now() >= deadline {
                for o in outcomes.iter_mut().filter(|o| o.is_none()) {
                    *o = Some(RankOutcome::Vanished("timed out".to_string()));
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        outcomes.into_iter().map(|o| o.expect("every rank classified")).collect()
    }

    /// Collect outcomes, reap the workers, and aggregate — the tail of
    /// [`launch`].
    pub fn finish(mut self, job: &JobConfig) -> Result<LaunchOutcome> {
        let outcomes = self.collect_outcomes();
        let all_ok = outcomes.iter().all(|o| matches!(o, RankOutcome::Report(_)));
        let mut child_failure = None;
        for (i, mut c) in self.children.drain(..).enumerate() {
            let status = if all_ok {
                c.wait().ok()
            } else {
                let _ = c.kill();
                c.wait().ok()
            };
            if let Some(st) = status {
                if !st.success() && child_failure.is_none() {
                    child_failure = Some(format!("worker process {i} exited with {st}"));
                }
            }
        }
        let outcome = summarize_outcomes(job, outcomes)?;
        if let Some(msg) = child_failure {
            return Err(Error::comm(msg));
        }
        Ok(outcome)
    }
}

/// Render one live worker progress frame on the launcher's stderr,
/// e.g. `[rank 2] final merge 3/12 (24.0 MiB moved)`. Stderr keeps the
/// machine-readable report on stdout clean.
fn print_progress(f: &ProgressFrame) {
    let mib = f.bytes as f64 / (1024.0 * 1024.0);
    eprintln!(
        "[rank {}] {} {}/{} ({mib:.1} MiB moved)",
        f.rank,
        f.phase.name(),
        f.batch,
        f.batches
    );
}

impl Drop for LaunchControl {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            // verify: allow(L2, reaping an already-killed child in Drop — the exit status is meaningless here)
            let _ = c.wait();
        }
        sweep_scratch(&self.scratch, 0..self.ranks);
    }
}

/// Aggregate per-rank outcomes into a [`LaunchOutcome`], or an error
/// that **names the failed ranks** — vanished (dead) ranks first, then
/// ranks that reported structured failures.
pub fn summarize_outcomes(job: &JobConfig, outcomes: Vec<RankOutcome>) -> Result<LaunchOutcome> {
    let mut per_rank = Vec::with_capacity(outcomes.len());
    let mut vanished: Vec<String> = Vec::new();
    let mut failed: Vec<String> = Vec::new();
    for (rank, o) in outcomes.into_iter().enumerate() {
        match o {
            RankOutcome::Report(rep) => per_rank.push(rep),
            RankOutcome::Failed(msg) => failed.push(format!("rank {rank} failed: {msg}")),
            RankOutcome::Vanished(msg) => {
                vanished.push(format!("rank {rank} died without reporting ({msg})"));
            }
        }
    }
    if !vanished.is_empty() || !failed.is_empty() {
        let mut parts = vanished;
        parts.extend(failed);
        return Err(Error::comm(parts.join("; ")));
    }

    let cfg = job.validate()?;
    let report = cluster_report(&cfg, Record100::BYTES, &per_rank);
    Ok(LaunchOutcome { report, per_rank })
}

/// Spawn `job.machine.pes` local worker processes (running
/// `worker_bin`), rendezvous them over a loopback coordinator port,
/// ship the job, and return the running cluster for collection (or
/// failure injection).
pub fn launch_workers(job: &JobConfig, worker_bin: &std::path::Path) -> Result<LaunchControl> {
    launch_workers_env(job, worker_bin, &[])
}

/// [`launch_workers`] with extra environment variables set on every
/// worker process — the failure-injection tests use this to arm the
/// merge-start marker/stall harness (`recovery_hooks` reads it)
/// without mutating the test process's own environment.
pub fn launch_workers_env(
    job: &JobConfig,
    worker_bin: &std::path::Path,
    envs: &[(&str, String)],
) -> Result<LaunchControl> {
    job.validate()?;
    let p = job.machine.pes;

    // Create and size the output early, by the ranks' own rule
    // (`OutputFile::open`): no truncation, so an output that is the
    // input keeps its bytes until the last pass overwrites them.
    let in_len = std::fs::metadata(&job.input)
        .map_err(|e| Error::io(format!("stat {}: {e}", job.input)))?
        .len();
    let out = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&job.output)
        .map_err(|e| Error::io(format!("create {}: {e}", job.output)))?;
    out.set_len(in_len).map_err(|e| Error::io(format!("size {}: {e}", job.output)))?;
    drop(out);

    let coordinator = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| Error::comm(format!("bind coordinator: {e}")))?;
    let coord_addr = coordinator.local_addr().map_err(|e| Error::comm(e.to_string()))?;
    coordinator.set_nonblocking(true).map_err(|e| Error::comm(e.to_string()))?;

    // Spawn all workers; children are killed and reaped (and the
    // scratch directory swept) by the LaunchControl's Drop on any later
    // failure, so nothing leaks.
    let mut ctl = LaunchControl {
        children: Vec::with_capacity(p),
        conns: Vec::new(),
        pids: Vec::new(),
        scratch: job.scratch.clone(),
        ranks: p,
        // A dying worker closes its socket (read error, not a hang); a
        // wedged-but-alive worker is cut off by a deadline scaled from
        // the job's transport timeout — a legitimately long sort
        // should raise `read_timeout_ms` (it bounds both).
        collect_deadline: Instant::now()
            + Duration::from_millis(job.read_timeout_ms)
                .saturating_mul(20)
                .max(Duration::from_secs(300)),
    };
    for _ in 0..p {
        let child = std::process::Command::new(worker_bin)
            .arg("--coordinator")
            .arg(coord_addr.to_string())
            .envs(envs.iter().map(|(k, v)| (k, v)))
            .spawn()
            .map_err(|e| Error::io(format!("spawn {}: {e}", worker_bin.display())))?;
        ctl.children.push(child);
    }

    rendezvous(job, &coordinator, p, &mut ctl)?;
    Ok(ctl)
}

/// Spawn, rendezvous, sort, collect: the whole multi-process launch
/// (what `demsort-launch` and `sortfile --transport tcp` run).
///
/// # Errors
/// Besides setup failures, the launch fails with an [`Error::Comm`]
/// naming every rank that died without reporting and every rank that
/// reported a structured failure.
pub fn launch(job: &JobConfig, worker_bin: &std::path::Path) -> Result<LaunchOutcome> {
    launch_workers(job, worker_bin)?.finish(job)
}

/// Accept `p` JOINs, assign ranks in arrival order, and ship the job.
fn rendezvous(
    job: &JobConfig,
    coordinator: &TcpListener,
    p: usize,
    ctl: &mut LaunchControl,
) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut mesh_addrs: Vec<String> = Vec::with_capacity(p);
    while ctl.conns.len() < p {
        match coordinator.accept() {
            Ok((mut stream, _)) => {
                // A connection that is not a prompt, well-formed JOIN
                // (e.g. a stray prober) is dropped; only the overall
                // deadline fails the rendezvous.
                let join = stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_read_timeout(Some(Duration::from_millis(250))))
                    .map_err(|e| Error::comm(e.to_string()))
                    .and_then(|()| {
                        read_msg_deadline(&mut stream, Instant::now() + Duration::from_secs(5))
                    });
                match join {
                    Ok((TAG_JOIN, body)) => {
                        let mut r = WireReader::new(&body);
                        match (r.string(), r.u32()) {
                            (Ok(addr), Ok(pid)) => {
                                mesh_addrs.push(addr);
                                ctl.pids.push(pid);
                                ctl.conns.push(stream);
                            }
                            _ => continue, // garbage JOIN body: drop it too
                        }
                    }
                    Ok(_) | Err(_) => continue,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(Error::comm(format!(
                        "only {} of {p} workers joined within 30s",
                        ctl.conns.len()
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(Error::comm(format!("coordinator accept: {e}"))),
        }
    }

    let encoded_job = encode_job(job);
    for (rank, conn) in ctl.conns.iter_mut().enumerate() {
        write_msg(conn, TAG_ASSIGN, &encode_assign(rank, &mesh_addrs, &encoded_job))?;
    }
    Ok(())
}

/// The ASSIGN body the coordinator sends each worker:
/// `[rank u32][p u32]`, `p` mesh addresses, then the encoded job.
fn encode_assign(rank: usize, mesh_addrs: &[String], encoded_job: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(rank as u32).u32(mesh_addrs.len() as u32);
    for a in mesh_addrs {
        w.string(a);
    }
    w.bytes(encoded_job);
    w.finish()
}

/// Decode an ASSIGN body into the worker's rank, the mesh address
/// table and the job. The coordinator's bytes are checked, never
/// trusted: every address takes at least its 4-byte length, so a count
/// the body cannot hold fails before anything is allocated for it.
///
/// # Errors
/// [`Error::Comm`] on truncation, an impossible address count, a bad
/// address, a bad job, or trailing bytes.
fn decode_assign(body: &[u8]) -> Result<(usize, Vec<SocketAddr>, JobConfig)> {
    let mut r = WireReader::new(body);
    let rank = r.field("rank").u32()? as usize;
    let p = r.field("rank count").u32()? as usize;
    if p > r.remaining() / 4 {
        return Err(Error::comm(format!(
            "ASSIGN claims {p} mesh addresses but only {} bytes follow",
            r.remaining()
        )));
    }
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let a = r.field("mesh address").string()?;
        addrs.push(
            a.parse::<SocketAddr>()
                .map_err(|e| Error::comm(format!("bad mesh address {a}: {e}")))?,
        );
    }
    let job = decode_job(&r.field("job").bytes()?)?;
    if r.remaining() != 0 {
        return Err(Error::comm(format!("ASSIGN carries {} trailing bytes", r.remaining())));
    }
    Ok((rank, addrs, job))
}

// -------------------------------------------------------------------
// Shared CLI glue of the TCP job-building bins
// -------------------------------------------------------------------

/// The job-building flags shared by `demsort-launch` and
/// `sortfile --transport tcp` (hoisted here so the two bins cannot
/// drift): cluster shape, seed, comm timeout, worker binary.
#[derive(Clone, Debug)]
pub struct TcpJobCli {
    /// Number of worker processes / PEs (`--ranks` / `--pes`).
    pub ranks: usize,
    /// Memory per PE in MiB (`--mem-mib`).
    pub mem_mib: usize,
    /// Block size in KiB (`--block-kib`).
    pub block_kib: usize,
    /// Disks per PE (`--disks`).
    pub disks: usize,
    /// Algorithm seed (`--seed`), default config seed if unset.
    pub seed: Option<u64>,
    /// Comm read timeout in milliseconds (`--comm-timeout`): how long
    /// a rank waits on a silent peer before declaring it dead
    /// ([`JobConfig::read_timeout_ms`]).
    pub comm_timeout_ms: u64,
    /// Which sorting algorithm the job runs (`--algo
    /// canonical|striped`).
    pub algorithm: SortAlgo,
    /// Run-replication factor (`--replication`, striped only): how
    /// many buddy-rank copies of every formed run block are stored,
    /// i.e. how many rank deaths the merge phase can survive.
    pub replication: usize,
    /// Intra-rank merge/sort threads (`--cores`). Defaults to the
    /// host's parallelism split evenly across the local ranks.
    pub cores: Option<usize>,
    /// Explicit worker binary path (`--worker-bin`).
    pub worker_bin: Option<String>,
    /// Trace directory (`--trace DIR`): when set, every rank appends a
    /// JSONL event journal `rank<K>.jsonl` under it and streams live
    /// progress frames to the launcher. Empty/`None` disables tracing.
    pub trace_dir: Option<String>,
    /// Scratch directory (`--scratch DIR`): where the ranks keep the
    /// blocks being sorted, as `DIR/rank<K>/disk_<D>.bin`. `None` puts
    /// it next to the output ([`default_scratch`]).
    pub scratch: Option<String>,
}

impl Default for TcpJobCli {
    fn default() -> Self {
        Self {
            ranks: 4,
            mem_mib: 8,
            block_kib: 64,
            disks: 4,
            seed: None,
            comm_timeout_ms: 30_000,
            algorithm: SortAlgo::Canonical,
            replication: 0,
            cores: None,
            worker_bin: None,
            trace_dir: None,
            scratch: None,
        }
    }
}

impl TcpJobCli {
    /// Help text for the shared flags (one line per flag).
    pub const FLAG_HELP: &'static str =
        "  --ranks P         worker processes / PEs (default 4; alias --pes)\n  \
         --mem-mib M       memory per PE in MiB (default 8)\n  \
         --block-kib K     block size in KiB (default 64)\n  \
         --disks D         disks per PE (default 4)\n  \
         --seed S          algorithm seed\n  \
         --comm-timeout MS comm read timeout in ms (default 30000)\n  \
         --algo A          sorting algorithm: canonical (default) or striped\n  \
         --replication F   store F buddy-rank replicas of every run block (striped only; \
         default 0)\n  \
         --cores C         merge/sort threads per rank (default: host parallelism / local \
         ranks)\n  \
         --worker-bin PATH explicit demsort-worker binary\n  \
         --trace DIR       write per-rank JSONL event journals under DIR and stream live \
         progress\n  \
         --scratch DIR     keep the blocks being sorted under DIR, as DIR/rank<K>/disk_<D>.bin \
         (default: OUTPUT.scratch). Needs about the input's size on that device (one more per \
         --replication); plain buffered files, not durable, removed when the job ends";

    /// Consume `flag` if it is one of the shared job flags (pulling its
    /// value from `args`); returns `false` for flags the bin must
    /// handle itself.
    pub fn try_flag(
        &mut self,
        bin: &str,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> bool {
        let mut next =
            |flag: &str| args.next().unwrap_or_else(|| cli_die(bin, &format!("{flag} VALUE")));
        match flag {
            "--ranks" | "--pes" => self.ranks = cli_parse(bin, &next(flag), "ranks"),
            "--mem-mib" => self.mem_mib = cli_parse(bin, &next(flag), "mem-mib"),
            "--block-kib" => self.block_kib = cli_parse(bin, &next(flag), "block-kib"),
            "--disks" => self.disks = cli_parse(bin, &next(flag), "disks"),
            "--seed" => self.seed = Some(cli_parse(bin, &next(flag), "seed")),
            "--comm-timeout" => self.comm_timeout_ms = cli_parse(bin, &next(flag), "comm-timeout"),
            "--algo" => {
                self.algorithm =
                    SortAlgo::parse(&next(flag)).unwrap_or_else(|e| cli_die(bin, &e.to_string()))
            }
            "--replication" => self.replication = cli_parse(bin, &next(flag), "replication"),
            "--cores" => self.cores = Some(cli_parse(bin, &next(flag), "cores")),
            "--worker-bin" => self.worker_bin = Some(next(flag)),
            "--trace" => self.trace_dir = Some(next(flag)),
            "--scratch" => self.scratch = Some(next(flag)),
            _ => return false,
        }
        true
    }

    /// The cluster shape these flags describe (cores split the host's
    /// parallelism across the ranks).
    pub fn machine(&self) -> MachineConfig {
        MachineConfig {
            pes: self.ranks,
            disks_per_pe: self.disks,
            block_bytes: self.block_kib << 10,
            mem_bytes_per_pe: self.mem_mib << 20,
            cores_per_pe: self
                .cores
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, |c| c.get() / self.ranks.max(1))
                })
                .max(1),
        }
    }

    /// Assemble the [`JobConfig`] for `input` → `output`.
    pub fn job(&self, input: &str, output: &str) -> JobConfig {
        let mut algo = AlgoConfig::default();
        if let Some(s) = self.seed {
            algo.seed = s;
        }
        algo.replication = self.replication;
        JobConfig {
            input: input.to_string(),
            output: output.to_string(),
            machine: self.machine(),
            algo,
            algorithm: self.algorithm,
            read_timeout_ms: self.comm_timeout_ms,
            trace_dir: self.trace_dir.clone().unwrap_or_default(),
            scratch: self.scratch.clone().unwrap_or_else(|| default_scratch(output)),
        }
    }

    /// [`TcpJobCli::job`] for a bin about to run it: a flag value the
    /// job rejects or a scratch directory it cannot use is a usage
    /// error (exit 2) before any rank starts, like a flag nobody knows;
    /// a sort that fails later exits 1.
    pub fn checked_job(&self, bin: &str, input: &str, output: &str) -> JobConfig {
        let job = self.job(input, output);
        job.validate()
            .and_then(|_| probe_scratch(&job))
            .unwrap_or_else(|e| cli_die(bin, &e.to_string()));
        job
    }

    /// Resolve the worker binary: the explicit `--worker-bin` path or
    /// the `demsort-worker` sibling of the running executable.
    pub fn worker(&self, bin: &str) -> PathBuf {
        match &self.worker_bin {
            Some(p) => PathBuf::from(p),
            None => sibling_worker_bin().unwrap_or_else(|e| cli_die(bin, &e.to_string())),
        }
    }
}

/// Print a finished job's summary line on stderr — the same on either
/// transport, so the volumes of a local and a TCP run compare by `diff`.
pub fn print_done(report: &SortReport) {
    eprintln!(
        "done: {} records on {} ranks, {} runs, I/O volume {:.2} N, communication {:.2} N",
        report.elements,
        report.pes,
        report.runs,
        report.io_volume_over_n(),
        report.comm_volume_over_n(),
    );
}

/// Launch `job` with `worker`, print the per-rank and summary lines,
/// and exit — non-zero (naming the failed rank) on any failure. The
/// shared tail of `demsort-launch` and `sortfile --transport tcp`.
pub fn launch_and_report(bin: &str, job: &JobConfig, worker: &std::path::Path) -> ! {
    eprintln!(
        "launching {} worker processes ({} each) via {}",
        job.machine.pes,
        demsort_types::fmtsize::fmt_bytes(job.machine.mem_bytes_per_pe as u64),
        worker.display()
    );
    match launch(job, worker) {
        Ok(outcome) => {
            for rep in &outcome.per_rank {
                eprintln!("  rank {}: {} records, {} runs", rep.rank, rep.elems, rep.runs);
            }
            print_done(&outcome.report);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctrl_messages_roundtrip_over_a_socketpair() {
        let deadline = || Instant::now() + Duration::from_secs(5);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
            let (tag, body) = read_msg_deadline(&mut s, deadline()).expect("read");
            write_msg(&mut s, tag + 1, &body).expect("write");
        });
        let mut c = TcpStream::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
        write_msg(&mut c, TAG_JOIN, b"hello").expect("write");
        let (tag, body) = read_msg_deadline(&mut c, deadline()).expect("read");
        assert_eq!(tag, TAG_JOIN + 1);
        assert_eq!(body, b"hello");
        t.join().expect("echo thread");
        // A silent peer times out instead of hanging.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _silent = TcpStream::connect(addr).expect("connect");
        let (mut s, _) = listener.accept().expect("accept");
        s.set_read_timeout(Some(Duration::from_millis(20))).expect("timeout");
        let err = read_msg_deadline(&mut s, Instant::now() + Duration::from_millis(100))
            .expect_err("silence");
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn poll_collection_classifies_when_rank_zero_reports_last() {
        // Four synthetic "workers": ranks 1 and 3 report immediately,
        // rank 2 dies without reporting, and rank 0 reports LAST —
        // split across two writes with a pause in between, so the poll
        // loop must carry partial framing across rounds. The
        // collection must classify every rank correctly and finish
        // about when rank 0's report lands, not at any per-connection
        // deadline.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let n = 4;
        let mut worker_ends = Vec::with_capacity(n);
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            worker_ends.push(TcpStream::connect(addr).expect("connect"));
            conns.push(listener.accept().expect("accept").0);
        }
        let mut ctl = LaunchControl {
            children: Vec::new(),
            conns,
            pids: vec![0; n],
            collect_deadline: Instant::now() + Duration::from_secs(30),
            scratch: String::new(),
            ranks: n,
        };

        let report = |rank: usize| RankReport {
            rank,
            elems: 10 + rank as u64,
            runs: 2,
            phases: Vec::new(),
            error: None,
        };
        let rank0 = worker_ends.remove(0);
        let feeder = std::thread::spawn(move || {
            let mut rank0 = rank0;
            for (i, mut c) in worker_ends.into_iter().enumerate() {
                let rank = i + 1;
                if rank == 2 {
                    drop(c); // vanishes without a report
                    continue;
                }
                write_msg(&mut c, TAG_REPORT, &encode_rank_report(&report(rank)))
                    .expect("fast rank report");
                // Keep the connection open past collection.
                std::mem::forget(c);
            }
            // Rank 0 reports last, in two fragments.
            std::thread::sleep(Duration::from_millis(200));
            let body = encode_rank_report(&report(0));
            let mut msg = ((body.len() + 1) as u32).to_le_bytes().to_vec();
            msg.push(TAG_REPORT);
            msg.extend_from_slice(&body);
            let split = 7; // mid-header of the framed message body
            rank0.write_all(&msg[..split]).expect("first fragment");
            rank0.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(100));
            rank0.write_all(&msg[split..]).expect("second fragment");
            std::mem::forget(rank0);
        });

        let started = Instant::now();
        let outcomes = ctl.collect_outcomes();
        let elapsed = started.elapsed();
        feeder.join().expect("feeder");

        assert!(matches!(&outcomes[0], RankOutcome::Report(r) if r.elems == 10), "{outcomes:?}");
        assert!(matches!(&outcomes[1], RankOutcome::Report(r) if r.elems == 11), "{outcomes:?}");
        assert!(matches!(&outcomes[2], RankOutcome::Vanished(_)), "{outcomes:?}");
        assert!(matches!(&outcomes[3], RankOutcome::Report(r) if r.elems == 13), "{outcomes:?}");
        assert!(
            elapsed < Duration::from_secs(10),
            "collection must finish when the last report lands, took {elapsed:?}"
        );
    }

    #[test]
    fn run_rank_rejects_mismatched_address_table() {
        let (listener, _) = bind_loopback().expect("bind");
        let job = JobConfig {
            input: "/nonexistent".into(),
            output: "/nonexistent".into(),
            machine: demsort_types::MachineConfig::tiny(3),
            algo: demsort_types::AlgoConfig::default(),
            algorithm: SortAlgo::default(),
            read_timeout_ms: 1000,
            trace_dir: String::new(),
            scratch: String::new(),
        };
        let err = run_rank(0, &[], listener, &job, Tracer::off()).expect_err("empty address table");
        assert!(err.to_string().contains("address table"), "{err}");
    }

    #[test]
    fn summarize_names_dead_ranks_before_survivor_failures() {
        let job = JobConfig {
            input: "in".into(),
            output: "out".into(),
            machine: demsort_types::MachineConfig::tiny(3),
            algo: demsort_types::AlgoConfig::default(),
            algorithm: SortAlgo::default(),
            read_timeout_ms: 1000,
            trace_dir: String::new(),
            scratch: String::new(),
        };
        let outcomes = vec![
            RankOutcome::Failed("communication error: recv from rank 1: timed out".into()),
            RankOutcome::Vanished("connection closed".into()),
            RankOutcome::Failed("communication error: recv from rank 1: peer disconnected".into()),
        ];
        let err = summarize_outcomes(&job, outcomes).expect_err("failed job");
        let msg = err.to_string();
        let died = msg.find("rank 1 died").expect("dead rank named");
        let survivor = msg.find("rank 0 failed").expect("survivor failure named");
        assert!(died < survivor, "dead rank leads the message: {msg}");
        assert!(msg.contains("rank 2 failed"), "{msg}");
    }

    #[test]
    fn shared_cli_flags_build_the_job() {
        let mut cli = TcpJobCli::default();
        let mut args = [
            "--ranks",
            "3",
            "--mem-mib",
            "2",
            "--block-kib",
            "32",
            "--disks",
            "2",
            "--seed",
            "9",
            "--comm-timeout",
            "1500",
            "--algo",
            "striped",
            "--replication",
            "1",
            "--cores",
            "2",
            "--scratch",
            "/mnt/fast/scr",
        ]
        .iter()
        .map(|s| s.to_string());
        while let Some(flag) = args.next() {
            assert!(cli.try_flag("test", &flag, &mut args), "{flag} must be shared");
        }
        assert!(!cli.try_flag("test", "--transport", &mut std::iter::empty()));
        let job = cli.job("a.dat", "b.dat");
        assert_eq!(job.machine.pes, 3);
        assert_eq!(job.machine.mem_bytes_per_pe, 2 << 20);
        assert_eq!(job.machine.block_bytes, 32 << 10);
        assert_eq!(job.machine.disks_per_pe, 2);
        assert_eq!(job.algo.seed, 9);
        assert_eq!(job.read_timeout_ms, 1500);
        assert_eq!(job.algorithm, SortAlgo::Striped);
        assert_eq!(job.algo.replication, 1);
        assert_eq!(job.machine.cores_per_pe, 2, "--cores overrides the derived default");
        assert_eq!(job.scratch, "/mnt/fast/scr", "--scratch names another device");
        // Without --scratch the blocks go next to the output; there is
        // no spelling that keeps them in memory.
        assert_eq!(TcpJobCli::default().job("a.dat", "out/b.dat").scratch, "out/b.dat.scratch");
        // Without --cores the default splits the host over the ranks.
        let derived = TcpJobCli { ranks: 3, ..TcpJobCli::default() }.machine().cores_per_pe;
        let host = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(derived, (host / 3).max(1));
    }

    #[test]
    fn every_help_flag_is_a_shared_flag() {
        let flags: Vec<&str> = TcpJobCli::FLAG_HELP
            .split_whitespace()
            .filter_map(|w| w.trim_end_matches(|c: char| !c.is_alphanumeric()).strip_prefix("--"))
            .collect();
        assert!(flags.len() >= 12, "{flags:?}");
        for flag in flags {
            let value = if flag == "algo" { "striped" } else { "1" };
            let mut args = std::iter::once(value.to_string());
            assert!(
                TcpJobCli::default().try_flag("test", &format!("--{flag}"), &mut args),
                "--{flag} is in the help text but not parsed"
            );
        }
    }

    #[test]
    fn assign_decode_rejects_malformed_bodies() {
        let job = TcpJobCli { ranks: 2, ..TcpJobCli::default() }.job("in.dat", "out.dat");
        let addrs = ["127.0.0.1:4000".to_string(), "127.0.0.1:4001".to_string()];
        let body = encode_assign(1, &addrs, &encode_job(&job));
        let (rank, got, decoded) = decode_assign(&body).expect("valid body");
        assert_eq!((rank, got.len(), decoded.machine), (1, 2, job.machine));

        let mut huge = WireWriter::new();
        huge.u32(0).u32(u32::MAX);
        let huge = huge.finish();
        let trailing = [&body[..], &[0]].concat();
        let bad = (0..body.len()).map(|n| &body[..n]).chain([&huge[..], &trailing[..]]);
        for b in bad {
            let err = decode_assign(b).expect_err("malformed ASSIGN body");
            assert!(matches!(err, Error::Comm(_)), "{} bytes: {err}", b.len());
        }
    }
}
