//! Structured cluster tracing: per-rank JSONL event journals.
//!
//! Every layer of the suite — collectives in `demsort-net`, the block
//! service and phase recorder in `demsort-core`, the striped merge
//! loop, the TCP failure detector — reports what it does through a
//! [`Tracer`] handle. A tracer is either *off* (the default: every
//! call is a branch on a `None` and nothing else) or appends typed
//! records to a per-rank journal file, one JSON object per line:
//!
//! ```json
//! {"rank":2,"ts":10500,"op":"begin","span":1,"ev":"phase","phase":"run_formation"}
//! {"rank":2,"ts":11000,"op":"event","ev":"merge_issued","pass":0,"group":0,"batch":1,"batches":6}
//! {"rank":2,"ts":12000,"op":"end","span":1,"ev":"phase","phase":"run_formation"}
//! ```
//!
//! `ts` is monotonic nanoseconds since the rank's tracer was created
//! (stamped under the journal lock, so a journal's lines are sorted by
//! `ts`); `span` pairs a `begin` with its `end`. In-process and TCP
//! runs emit the same schema. `demsort-trace` merges the per-rank
//! journals into one chronological cluster timeline and a Chrome
//! trace-format export (`chrome://tracing` / Perfetto), and the
//! invariant checks in [`validate_rank_journal`] are what the test
//! suite pins merge pipelining and recovery against.
//!
//! Journal I/O deliberately bypasses the metered storage and transport
//! paths: enabling tracing must not change a job's reported I/O or
//! communication volumes.

use crate::counters::Phase;
use crate::error::{Error, Result};
use crate::json::{parse_jsonl, Json};
use std::borrow::Cow;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a trace record describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEv {
    /// An algorithm phase (span).
    Phase {
        /// Which phase.
        phase: Phase,
    },
    /// A collective operation on the communicator (span).
    Collective {
        /// Collective name (`"barrier"`, `"alltoallv"`, ...).
        name: Cow<'static, str>,
    },
    /// Block fetches issued through the cluster block service (event).
    Fetch {
        /// Rank that owns the blocks.
        owner: usize,
        /// How many blocks were requested.
        blocks: usize,
        /// Whether the request left this process (wire fetch).
        remote: bool,
    },
    /// Block stores issued through the cluster block service (event).
    Store {
        /// Rank that will own the stored blocks.
        owner: usize,
        /// How many blocks were shipped.
        blocks: usize,
        /// Whether the request left this process (wire store).
        remote: bool,
    },
    /// A merge batch's fetches were issued (event).
    MergeIssued {
        /// Merge pass.
        pass: usize,
        /// Run group within the pass.
        group: usize,
        /// Batch index within the group.
        batch: usize,
        /// Total batches in the group.
        batches: usize,
    },
    /// A merge batch's records were merged and emitted (event).
    MergeEmitted {
        /// Merge pass.
        pass: usize,
        /// Run group within the pass.
        group: usize,
        /// Batch index within the group.
        batch: usize,
        /// Total batches in the group.
        batches: usize,
    },
    /// One thread's output range of the in-node parallel batch merge
    /// (span; each merge batch emits one per merge thread).
    MergePar {
        /// Merge pass.
        pass: usize,
        /// Run group within the pass.
        group: usize,
        /// Batch index within the group.
        batch: usize,
        /// Merge thread index within the batch (0-based).
        thread: usize,
        /// Number of merge threads the batch ran on.
        threads: usize,
        /// Records this thread merged (its output range length).
        len: usize,
        /// Records the whole batch emitted (Σ `len` over its threads).
        total: usize,
    },
    /// Cumulative buffer-pool counters at a checkpoint, typically the
    /// end of a phase or the whole sort (event). Hit/miss splits are
    /// timing-dependent, so this is diagnostics — never a pinned
    /// identity surface.
    PoolStats {
        /// Pool gets served from the free list.
        hits: u64,
        /// Pool gets that allocated fresh.
        misses: u64,
        /// Buffers returned to the free list.
        recycled: u64,
        /// Returned buffers dropped (wrong size or pool full).
        discarded: u64,
        /// Bytes memcpy'd on non-zero-copy paths.
        copied_bytes: u64,
    },
    /// The process's resident set at a checkpoint — the end of a phase
    /// or of a file edge — so a journal says in which phase the peak
    /// was set (event; [`Tracer::mem`]). All ranks of an in-process
    /// cluster share one process and report the same numbers.
    Mem {
        /// Peak resident set so far (`VmHWM`), KiB.
        hwm_kb: u64,
        /// Resident set now (`VmRSS`), KiB.
        rss_kb: u64,
    },
    /// The failure detector declared a peer dead (event).
    PeerDead {
        /// The dead peer's rank.
        peer: usize,
    },
    /// The transport entered a new recovery epoch (event).
    EpochAdvance {
        /// The new epoch number.
        epoch: u64,
    },
}

impl TraceEv {
    /// Stable schema tag for the `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEv::Phase { .. } => "phase",
            TraceEv::Collective { .. } => "collective",
            TraceEv::Fetch { .. } => "fetch",
            TraceEv::Store { .. } => "store",
            TraceEv::MergeIssued { .. } => "merge_issued",
            TraceEv::MergeEmitted { .. } => "merge_emitted",
            TraceEv::MergePar { .. } => "merge_par",
            TraceEv::PoolStats { .. } => "pool",
            TraceEv::Mem { .. } => "mem",
            TraceEv::PeerDead { .. } => "peer_dead",
            TraceEv::EpochAdvance { .. } => "epoch_advance",
        }
    }

    /// Compact human-readable label (timeline and Chrome-trace names).
    pub fn label(&self) -> String {
        match self {
            TraceEv::Phase { phase } => format!("phase:{}", phase.key()),
            TraceEv::Collective { name } => format!("collective:{name}"),
            TraceEv::Fetch { owner, blocks, remote } => {
                format!("fetch owner={owner} blocks={blocks} {}", locality(*remote))
            }
            TraceEv::Store { owner, blocks, remote } => {
                format!("store owner={owner} blocks={blocks} {}", locality(*remote))
            }
            TraceEv::MergeIssued { pass, group, batch, batches } => {
                format!("issued pass={pass} group={group} batch={batch}/{batches}")
            }
            TraceEv::MergeEmitted { pass, group, batch, batches } => {
                format!("emitted pass={pass} group={group} batch={batch}/{batches}")
            }
            TraceEv::MergePar { pass, group, batch, thread, threads, len, .. } => {
                format!("merge pass={pass} group={group} batch={batch} thread={thread}/{threads} len={len}")
            }
            TraceEv::PoolStats { hits, misses, recycled, discarded, copied_bytes } => {
                format!(
                    "pool hits={hits} misses={misses} recycled={recycled} \
                     discarded={discarded} copied={copied_bytes}B"
                )
            }
            TraceEv::Mem { hwm_kb, rss_kb } => format!("mem peak={hwm_kb}KiB now={rss_kb}KiB"),
            TraceEv::PeerDead { peer } => format!("peer {peer} declared dead"),
            TraceEv::EpochAdvance { epoch } => format!("epoch -> {epoch}"),
        }
    }

    fn fields(&self, out: &mut Vec<(String, Json)>) {
        let u = |x: usize| Json::Uint(x as u64);
        match self {
            TraceEv::Phase { phase } => out.push(("phase".into(), Json::str(phase.key()))),
            TraceEv::Collective { name } => out.push(("name".into(), Json::str(name.as_ref()))),
            TraceEv::Fetch { owner, blocks, remote } | TraceEv::Store { owner, blocks, remote } => {
                out.push(("owner".into(), u(*owner)));
                out.push(("blocks".into(), u(*blocks)));
                out.push(("remote".into(), Json::Bool(*remote)));
            }
            TraceEv::MergeIssued { pass, group, batch, batches }
            | TraceEv::MergeEmitted { pass, group, batch, batches } => {
                out.push(("pass".into(), u(*pass)));
                out.push(("group".into(), u(*group)));
                out.push(("batch".into(), u(*batch)));
                out.push(("batches".into(), u(*batches)));
            }
            TraceEv::MergePar { pass, group, batch, thread, threads, len, total } => {
                out.push(("pass".into(), u(*pass)));
                out.push(("group".into(), u(*group)));
                out.push(("batch".into(), u(*batch)));
                out.push(("thread".into(), u(*thread)));
                out.push(("threads".into(), u(*threads)));
                out.push(("len".into(), u(*len)));
                out.push(("total".into(), u(*total)));
            }
            TraceEv::PoolStats { hits, misses, recycled, discarded, copied_bytes } => {
                out.push(("hits".into(), Json::Uint(*hits)));
                out.push(("misses".into(), Json::Uint(*misses)));
                out.push(("recycled".into(), Json::Uint(*recycled)));
                out.push(("discarded".into(), Json::Uint(*discarded)));
                out.push(("copied_bytes".into(), Json::Uint(*copied_bytes)));
            }
            TraceEv::Mem { hwm_kb, rss_kb } => {
                out.push(("hwm_kb".into(), Json::Uint(*hwm_kb)));
                out.push(("rss_kb".into(), Json::Uint(*rss_kb)));
            }
            TraceEv::PeerDead { peer } => out.push(("peer".into(), u(*peer))),
            TraceEv::EpochAdvance { epoch } => out.push(("epoch".into(), Json::Uint(*epoch))),
        }
    }

    fn from_json(kind: &str, v: &Json) -> Result<TraceEv> {
        let bad = |what: &str| Error::validation(format!("trace record {kind:?}: bad {what}"));
        let num = |key: &str| v.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
        let us = |key: &str| num(key).map(|x| x as usize);
        Ok(match kind {
            "phase" => {
                let key = v.get("phase").and_then(Json::as_str).ok_or_else(|| bad("phase"))?;
                let phase = Phase::from_key(key)
                    .ok_or_else(|| Error::validation(format!("unknown phase key {key:?}")))?;
                TraceEv::Phase { phase }
            }
            "collective" => {
                let name = v.get("name").and_then(Json::as_str).ok_or_else(|| bad("name"))?;
                TraceEv::Collective { name: Cow::Owned(name.to_string()) }
            }
            "fetch" | "store" => {
                let owner = us("owner")?;
                let blocks = us("blocks")?;
                let remote =
                    v.get("remote").and_then(Json::as_bool).ok_or_else(|| bad("remote"))?;
                if kind == "fetch" {
                    TraceEv::Fetch { owner, blocks, remote }
                } else {
                    TraceEv::Store { owner, blocks, remote }
                }
            }
            "merge_issued" | "merge_emitted" => {
                let (pass, group) = (us("pass")?, us("group")?);
                let (batch, batches) = (us("batch")?, us("batches")?);
                if kind == "merge_issued" {
                    TraceEv::MergeIssued { pass, group, batch, batches }
                } else {
                    TraceEv::MergeEmitted { pass, group, batch, batches }
                }
            }
            "merge_par" => TraceEv::MergePar {
                pass: us("pass")?,
                group: us("group")?,
                batch: us("batch")?,
                thread: us("thread")?,
                threads: us("threads")?,
                len: us("len")?,
                total: us("total")?,
            },
            "pool" => TraceEv::PoolStats {
                hits: num("hits")?,
                misses: num("misses")?,
                recycled: num("recycled")?,
                discarded: num("discarded")?,
                copied_bytes: num("copied_bytes")?,
            },
            "mem" => TraceEv::Mem { hwm_kb: num("hwm_kb")?, rss_kb: num("rss_kb")? },
            "peer_dead" => TraceEv::PeerDead { peer: us("peer")? },
            "epoch_advance" => TraceEv::EpochAdvance { epoch: num("epoch")? },
            other => return Err(Error::validation(format!("unknown trace event kind {other:?}"))),
        })
    }
}

fn locality(remote: bool) -> &'static str {
    if remote {
        "remote"
    } else {
        "local"
    }
}

/// Whether a record opens a span, closes one, or stands alone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// Span open; the id pairs it with its `End`.
    Begin(u64),
    /// Span close.
    End(u64),
    /// Instantaneous event.
    Instant,
}

/// One journal line: who, when, what.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Emitting rank.
    pub rank: usize,
    /// Monotonic nanoseconds since the rank's tracer was created.
    pub ts_ns: u64,
    /// Span open/close or instantaneous event.
    pub op: TraceOp,
    /// The event payload.
    pub ev: TraceEv,
}

impl TraceRecord {
    /// Serialize to one JSON object (a journal line, sans newline).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("rank".into(), Json::Uint(self.rank as u64)),
            ("ts".into(), Json::Uint(self.ts_ns)),
        ];
        match self.op {
            TraceOp::Begin(id) => {
                fields.push(("op".into(), Json::str("begin")));
                fields.push(("span".into(), Json::Uint(id)));
            }
            TraceOp::End(id) => {
                fields.push(("op".into(), Json::str("end")));
                fields.push(("span".into(), Json::Uint(id)));
            }
            TraceOp::Instant => fields.push(("op".into(), Json::str("event"))),
        }
        fields.push(("ev".into(), Json::str(self.ev.kind())));
        self.ev.fields(&mut fields);
        Json::Obj(fields)
    }

    /// Parse one journal line's object.
    ///
    /// # Errors
    /// [`Error::Validation`] if a required field is missing or malformed.
    pub fn from_json(v: &Json) -> Result<TraceRecord> {
        let bad = |what: &str| Error::validation(format!("trace record: bad or missing {what}"));
        let rank = v.get("rank").and_then(Json::as_u64).ok_or_else(|| bad("rank"))? as usize;
        let ts_ns = v.get("ts").and_then(Json::as_u64).ok_or_else(|| bad("ts"))?;
        let op_tag = v.get("op").and_then(Json::as_str).ok_or_else(|| bad("op"))?;
        let span = || v.get("span").and_then(Json::as_u64).ok_or_else(|| bad("span"));
        let op = match op_tag {
            "begin" => TraceOp::Begin(span()?),
            "end" => TraceOp::End(span()?),
            "event" => TraceOp::Instant,
            other => return Err(Error::validation(format!("unknown trace op {other:?}"))),
        };
        let kind = v.get("ev").and_then(Json::as_str).ok_or_else(|| bad("ev"))?;
        let ev = TraceEv::from_json(kind, v)?;
        Ok(TraceRecord { rank, ts_ns, op, ev })
    }
}

/// Coarse progress of a running rank, streamed to the launcher so a
/// multi-process run shows live per-rank status.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProgressFrame {
    /// Reporting rank.
    pub rank: usize,
    /// Phase the rank is currently in.
    pub phase: Phase,
    /// Completed merge batches in the current group (0 outside merge).
    pub batch: u64,
    /// Total merge batches in the current group (0 outside merge).
    pub batches: u64,
    /// Bytes moved through the block service so far.
    pub bytes: u64,
}

type ProgressFn = dyn Fn(&ProgressFrame) + Send + Sync;

enum Sink {
    File(std::io::BufWriter<std::fs::File>),
    Buffer(Vec<TraceRecord>),
}

struct TracerInner {
    rank: usize,
    epoch: Instant,
    span_seq: AtomicU64,
    bytes_moved: AtomicU64,
    sink: Mutex<Sink>,
    progress: Option<Box<ProgressFn>>,
}

/// A rank's handle on its trace journal.
///
/// Cheap to clone (an `Arc` under the hood) and safe to share across a
/// rank's threads; the default handle is *off* and every operation on
/// it is a no-op. Timestamps are stamped under the journal lock, so a
/// journal's lines are totally ordered by `ts` even when multiple
/// threads (e.g. the transport's reader threads) trace concurrently.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The disabled tracer: all methods are no-ops.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// Trace `rank` into a journal file at `path` (truncates).
    ///
    /// # Errors
    /// [`Error::Io`] if the file cannot be created.
    pub fn to_path(rank: usize, path: &std::path::Path) -> Result<Tracer> {
        let file = std::fs::File::create(path).map_err(|e| {
            Error::io(format!("cannot create trace journal {}: {e}", path.display()))
        })?;
        Ok(Tracer::with_sink(rank, Sink::File(std::io::BufWriter::new(file))))
    }

    /// Trace `rank` into an in-memory buffer (tests); collect with
    /// [`Tracer::drain`].
    pub fn to_buffer(rank: usize) -> Tracer {
        Tracer::with_sink(rank, Sink::Buffer(Vec::new()))
    }

    fn with_sink(rank: usize, sink: Sink) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                rank,
                epoch: Instant::now(),
                span_seq: AtomicU64::new(0),
                bytes_moved: AtomicU64::new(0),
                sink: Mutex::new(sink),
                progress: None,
            })),
        }
    }

    /// Attach a progress callback, fired by [`Tracer::progress`] with
    /// each coarse status update. Must be called on a freshly
    /// constructed, unshared tracer (before any clone).
    pub fn with_progress(self, cb: Box<ProgressFn>) -> Tracer {
        let arc = self.inner.expect("with_progress needs an enabled tracer");
        let mut inner =
            Arc::try_unwrap(arc).ok().expect("set the progress callback before cloning");
        inner.progress = Some(cb);
        Tracer { inner: Some(Arc::new(inner)) }
    }

    /// Whether this tracer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(&self, op: TraceOp, ev: TraceEv) {
        let Some(inner) = &self.inner else { return };
        let mut sink = inner.sink.lock().expect("trace sink lock");
        // Stamp inside the lock: journal order == timestamp order.
        let ts_ns = inner.epoch.elapsed().as_nanos() as u64;
        let rec = TraceRecord { rank: inner.rank, ts_ns, op, ev };
        match &mut *sink {
            Sink::File(w) => {
                let mut line = String::with_capacity(128);
                rec.to_json().write_into(&mut line);
                line.push('\n');
                // A full disk must not fail the sort; the journal just
                // ends early (demsort-trace reports unclosed spans).
                let _ = w.write_all(line.as_bytes());
            }
            Sink::Buffer(v) => v.push(rec),
        }
    }

    /// Open a span; returns the id to pass to [`Tracer::end`] (0 when
    /// disabled).
    pub fn begin(&self, ev: TraceEv) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let id = inner.span_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.emit(TraceOp::Begin(id), ev);
        id
    }

    /// Close the span `id` opened by [`Tracer::begin`].
    pub fn end(&self, id: u64, ev: TraceEv) {
        if id == 0 {
            return;
        }
        self.emit(TraceOp::End(id), ev);
    }

    /// Record an instantaneous event. [`TraceEv::Fetch`]/[`TraceEv::Store`]
    /// events also feed the byte meter reported in progress frames
    /// (`blocks * block_bytes` supplied by the caller via
    /// [`Tracer::add_bytes`]).
    pub fn instant(&self, ev: TraceEv) {
        self.emit(TraceOp::Instant, ev);
    }

    /// Record the process's resident set, now and at its peak so far
    /// ([`TraceEv::Mem`]), where the platform reports them in
    /// `/proc/self/status`; elsewhere, and when off, nothing.
    pub fn mem(&self) {
        if !self.enabled() {
            return;
        }
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return };
        let kb = |field: &str| {
            let line = status.lines().find_map(|l| l.strip_prefix(field))?;
            line.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        };
        if let (Some(hwm_kb), Some(rss_kb)) = (kb("VmHWM:"), kb("VmRSS:")) {
            self.instant(TraceEv::Mem { hwm_kb, rss_kb });
        }
    }

    /// Add to the bytes-moved meter included in progress frames.
    pub fn add_bytes(&self, bytes: u64) {
        if let Some(inner) = &self.inner {
            inner.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Fire the progress callback (if any) with the current phase and
    /// batch position; bytes moved comes from the tracer's meter.
    pub fn progress(&self, phase: Phase, batch: u64, batches: u64) {
        let Some(inner) = &self.inner else { return };
        if let Some(cb) = &inner.progress {
            cb(&ProgressFrame {
                rank: inner.rank,
                phase,
                batch,
                batches,
                bytes: inner.bytes_moved.load(Ordering::Relaxed),
            });
        }
    }

    /// Flush buffered journal lines to the file (no-op for buffers).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Sink::File(w) = &mut *inner.sink.lock().expect("trace sink lock") {
                // verify: allow(L2, tracing is best-effort — a journal flush error must never fail the sort)
                let _ = w.flush();
            }
        }
    }

    /// Take the records accumulated by a [`Tracer::to_buffer`] tracer.
    pub fn drain(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(inner) => match &mut *inner.sink.lock().expect("trace sink lock") {
                Sink::Buffer(v) => std::mem::take(v),
                Sink::File(_) => Vec::new(),
            },
            None => Vec::new(),
        }
    }
}

/// Parse a journal file's text into records (empty lines skipped).
///
/// # Errors
/// [`Error::Validation`] naming the first malformed line or field.
pub fn read_journal(text: &str) -> Result<Vec<TraceRecord>> {
    parse_jsonl(text)?.iter().map(TraceRecord::from_json).collect()
}

/// Check one rank's journal invariants: a single emitting rank,
/// monotone timestamps, every span closed exactly once by an `end` of
/// the same event kind, phase spans opening in algorithm order
/// ([`Phase::ALL`], possibly skipping phases), and parallel-merge
/// spans forming, per merge batch, a complete set of thread ranges
/// (`thread` = 0..`threads`, each opened once) whose lengths sum to
/// the batch's emitted `total`.
///
/// # Errors
/// [`Error::Validation`] describing the first violated invariant.
pub fn validate_rank_journal(records: &[TraceRecord]) -> Result<()> {
    let mut open: Vec<(u64, &'static str)> = Vec::new();
    let mut closed: Vec<u64> = Vec::new();
    let mut last_ts = 0u64;
    let mut last_phase: Option<usize> = None;
    // (pass, group, batch) -> accumulating thread-range set. A key can
    // recur (a degraded re-merge restarts pass numbering), so each set
    // is checked and cleared the moment it completes.
    // Each entry records one opened thread range: (thread, threads, len, total).
    #[allow(clippy::type_complexity)]
    let mut par: std::collections::BTreeMap<
        (usize, usize, usize),
        Vec<(usize, usize, usize, usize)>,
    > = std::collections::BTreeMap::new();
    let rank = records.first().map(|r| r.rank);
    for (i, r) in records.iter().enumerate() {
        let at = |msg: String| Error::validation(format!("record {i}: {msg}"));
        if let TraceEv::MergePar { pass, group, batch, thread, threads, len, total } = &r.ev {
            if matches!(r.op, TraceOp::Begin(_)) {
                let set = par.entry((*pass, *group, *batch)).or_default();
                if set.iter().any(|(t, _, _, _)| t == thread) {
                    return Err(at(format!(
                        "merge_par batch ({pass},{group},{batch}) opened thread {thread} twice"
                    )));
                }
                if set.iter().any(|&(_, th, _, to)| th != *threads || to != *total) {
                    return Err(at(format!(
                        "merge_par batch ({pass},{group},{batch}) disagrees on threads/total"
                    )));
                }
                if *thread >= *threads {
                    return Err(at(format!(
                        "merge_par thread {thread} out of range for {threads} threads"
                    )));
                }
                set.push((*thread, *threads, *len, *total));
                if set.len() == *threads {
                    let sum: usize = set.iter().map(|&(_, _, l, _)| l).sum();
                    if sum != *total {
                        return Err(at(format!(
                            "merge_par batch ({pass},{group},{batch}) thread ranges sum to \
                             {sum}, batch emitted {total}"
                        )));
                    }
                    par.remove(&(*pass, *group, *batch));
                }
            }
        }
        if Some(r.rank) != rank {
            return Err(at(format!("rank {} in a journal for rank {:?}", r.rank, rank)));
        }
        if r.ts_ns < last_ts {
            return Err(at(format!("timestamp {} goes back past {last_ts}", r.ts_ns)));
        }
        last_ts = r.ts_ns;
        match r.op {
            TraceOp::Begin(id) => {
                if open.iter().any(|(o, _)| *o == id) || closed.contains(&id) {
                    return Err(at(format!("span {id} opened twice")));
                }
                open.push((id, r.ev.kind()));
                if let TraceEv::Phase { phase } = &r.ev {
                    let idx = phase.index();
                    if let Some(prev) = last_phase {
                        if idx <= prev {
                            return Err(at(format!(
                                "phase {} opened after {}",
                                phase.key(),
                                Phase::ALL[prev].key()
                            )));
                        }
                    }
                    last_phase = Some(idx);
                }
            }
            TraceOp::End(id) => {
                let Some(pos) = open.iter().position(|(o, _)| *o == id) else {
                    return Err(at(format!("span {id} closed without a matching begin")));
                };
                let (_, kind) = open.remove(pos);
                if kind != r.ev.kind() {
                    return Err(at(format!(
                        "span {id} opened as {kind} but closed as {}",
                        r.ev.kind()
                    )));
                }
                closed.push(id);
            }
            TraceOp::Instant => {}
        }
    }
    if let Some((id, kind)) = open.first() {
        return Err(Error::validation(format!("span {id} ({kind}) never closed")));
    }
    if let Some(((pass, group, batch), set)) = par.iter().next() {
        return Err(Error::validation(format!(
            "merge_par batch ({pass},{group},{batch}) opened only {} of its thread ranges",
            set.len()
        )));
    }
    Ok(())
}

/// Merge per-rank journals into one cluster timeline, ordered by
/// timestamp (ties broken by rank). Per-rank clocks start at each
/// rank's tracer creation, so cross-rank order is accurate to the
/// rendezvous skew — exact within a rank, approximate across ranks.
pub fn merge_journals(per_rank: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> = per_rank.into_iter().flatten().collect();
    all.sort_by_key(|r| (r.ts_ns, r.rank));
    all
}

/// Render records as a Chrome trace-format JSON array (load in
/// `chrome://tracing` or Perfetto): spans become `B`/`E` duration
/// events, instants become `i`, with one "process" per rank.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let events: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut fields: Vec<(String, Json)> = vec![
                ("name".into(), Json::str(chrome_name(&r.ev))),
                ("cat".into(), Json::str(r.ev.kind())),
                ("ts".into(), Json::Num(r.ts_ns as f64 / 1000.0)),
                ("pid".into(), Json::Uint(r.rank as u64)),
                ("tid".into(), Json::Uint(0)),
            ];
            match r.op {
                TraceOp::Begin(_) => fields.push(("ph".into(), Json::str("B"))),
                TraceOp::End(_) => fields.push(("ph".into(), Json::str("E"))),
                TraceOp::Instant => {
                    fields.push(("ph".into(), Json::str("i")));
                    fields.push(("s".into(), Json::str("t")));
                }
            }
            let mut args = Vec::new();
            r.ev.fields(&mut args);
            fields.push(("args".into(), Json::Obj(args)));
            Json::Obj(fields)
        })
        .collect();
    Json::Arr(events).to_string()
}

fn chrome_name(ev: &TraceEv) -> String {
    match ev {
        TraceEv::Phase { phase } => phase.key().to_string(),
        TraceEv::Collective { name } => name.to_string(),
        other => other.kind().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_evs() -> Vec<TraceEv> {
        vec![
            TraceEv::Phase { phase: Phase::RunFormation },
            TraceEv::Collective { name: Cow::Borrowed("barrier") },
            TraceEv::Fetch { owner: 3, blocks: 16, remote: true },
            TraceEv::Store { owner: 0, blocks: 4, remote: false },
            TraceEv::MergeIssued { pass: 0, group: 1, batch: 2, batches: 6 },
            TraceEv::MergeEmitted { pass: 1, group: 0, batch: 5, batches: 6 },
            TraceEv::MergePar {
                pass: 0,
                group: 1,
                batch: 2,
                thread: 1,
                threads: 4,
                len: 40,
                total: 160,
            },
            TraceEv::PoolStats {
                hits: 120,
                misses: 16,
                recycled: 130,
                discarded: 2,
                copied_bytes: 4096,
            },
            TraceEv::Mem { hwm_kb: 36_512, rss_kb: 30_208 },
            TraceEv::PeerDead { peer: 2 },
            TraceEv::EpochAdvance { epoch: 7 },
        ]
    }

    #[test]
    fn records_roundtrip_through_json() {
        for (i, ev) in sample_evs().into_iter().enumerate() {
            for op in [TraceOp::Begin(9), TraceOp::End(9), TraceOp::Instant] {
                let rec = TraceRecord { rank: 3, ts_ns: 1234 + i as u64, op, ev: ev.clone() };
                let back = TraceRecord::from_json(&rec.to_json()).expect("roundtrip");
                assert_eq!(back, rec);
            }
        }
    }

    #[test]
    fn off_tracer_is_a_no_op() {
        let t = Tracer::off();
        assert!(!t.enabled());
        let id = t.begin(TraceEv::Phase { phase: Phase::FinalMerge });
        assert_eq!(id, 0);
        t.end(id, TraceEv::Phase { phase: Phase::FinalMerge });
        t.instant(TraceEv::PeerDead { peer: 0 });
        t.progress(Phase::FinalMerge, 1, 2);
        t.flush();
        assert!(t.drain().is_empty());
    }

    #[test]
    fn buffer_tracer_records_spans_and_monotone_timestamps() {
        let t = Tracer::to_buffer(5);
        let sp = t.begin(TraceEv::Phase { phase: Phase::RunFormation });
        t.instant(TraceEv::MergeIssued { pass: 0, group: 0, batch: 0, batches: 1 });
        t.end(sp, TraceEv::Phase { phase: Phase::RunFormation });
        let recs = t.drain();
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|r| r.rank == 5));
        validate_rank_journal(&recs).expect("valid journal");
        assert_eq!(recs[0].op, TraceOp::Begin(sp));
        assert_eq!(recs[2].op, TraceOp::End(sp));
    }

    #[test]
    fn mem_events_are_instants_a_journal_may_hold_anywhere() {
        let t = Tracer::to_buffer(1);
        let sp = t.begin(TraceEv::Phase { phase: Phase::RunFormation });
        t.mem();
        t.end(sp, TraceEv::Phase { phase: Phase::RunFormation });
        t.mem();
        let recs = t.drain();
        validate_rank_journal(&recs).expect("valid journal");
        let mems: Vec<(u64, u64)> = recs
            .iter()
            .filter_map(|r| match (&r.ev, r.op) {
                (TraceEv::Mem { hwm_kb, rss_kb }, TraceOp::Instant) => Some((*hwm_kb, *rss_kb)),
                _ => None,
            })
            .collect();
        // Where the platform has no /proc/self/status nothing is
        // recorded; where it has, the peak never falls and is never
        // below the present.
        if std::path::Path::new("/proc/self/status").exists() {
            assert_eq!(mems.len(), 2);
            assert!(mems[0].0 <= mems[1].0);
            assert!(mems.iter().all(|&(hwm, rss)| hwm >= rss && rss > 0));
        } else {
            assert!(mems.is_empty());
        }
    }

    #[test]
    fn file_tracer_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("demsort-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("rank0.jsonl");
        let t = Tracer::to_path(0, &path).expect("create");
        let sp = t.begin(TraceEv::Collective { name: Cow::Borrowed("barrier") });
        t.end(sp, TraceEv::Collective { name: Cow::Borrowed("barrier") });
        t.flush();
        let text = std::fs::read_to_string(&path).expect("read");
        let recs = read_journal(&text).expect("parse");
        assert_eq!(recs.len(), 2);
        validate_rank_journal(&recs).expect("valid");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_callback_sees_byte_meter() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let t = Tracer::to_buffer(2)
            .with_progress(Box::new(move |f| sink.lock().expect("lock").push(*f)));
        t.add_bytes(100);
        t.progress(Phase::FinalMerge, 3, 8);
        let frames = seen.lock().expect("lock");
        assert_eq!(
            frames.as_slice(),
            &[ProgressFrame {
                rank: 2,
                phase: Phase::FinalMerge,
                batch: 3,
                batches: 8,
                bytes: 100
            }]
        );
    }

    #[test]
    fn validation_rejects_broken_journals() {
        let ev = || TraceEv::Collective { name: Cow::Borrowed("barrier") };
        let rec = |ts_ns, op| TraceRecord { rank: 0, ts_ns, op, ev: ev() };
        // Unclosed span.
        let err = validate_rank_journal(&[rec(1, TraceOp::Begin(1))]).expect_err("unclosed");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("never closed")), "{err}");
        // Double close.
        let err = validate_rank_journal(&[
            rec(1, TraceOp::Begin(1)),
            rec(2, TraceOp::End(1)),
            rec(3, TraceOp::End(1)),
        ])
        .expect_err("double close");
        assert!(
            matches!(err, Error::Validation(ref m) if m.contains("without a matching")),
            "{err}"
        );
        // Kind mismatch between begin and end.
        let err = validate_rank_journal(&[
            rec(1, TraceOp::Begin(1)),
            TraceRecord {
                rank: 0,
                ts_ns: 2,
                op: TraceOp::End(1),
                ev: TraceEv::Phase { phase: Phase::FinalMerge },
            },
        ])
        .expect_err("kind mismatch");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("closed as")), "{err}");
        // Time going backwards.
        let err = validate_rank_journal(&[rec(5, TraceOp::Instant), rec(4, TraceOp::Instant)])
            .expect_err("time warp");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("goes back")), "{err}");
        // Phases out of order.
        let phase = |ts_ns, id, phase| TraceRecord {
            rank: 0,
            ts_ns,
            op: TraceOp::Begin(id),
            ev: TraceEv::Phase { phase },
        };
        let err = validate_rank_journal(&[
            phase(1, 1, Phase::FinalMerge),
            phase(2, 2, Phase::RunFormation),
        ])
        .expect_err("phase order");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("opened after")), "{err}");
        // Mixed ranks in one journal.
        let err = validate_rank_journal(&[
            rec(1, TraceOp::Instant),
            TraceRecord { rank: 1, ts_ns: 2, op: TraceOp::Instant, ev: ev() },
        ])
        .expect_err("mixed ranks");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("rank")), "{err}");
    }

    #[test]
    fn merge_par_thread_ranges_must_cover_the_batch() {
        let span = |ts_ns, id, op, thread, len| TraceRecord {
            rank: 0,
            ts_ns,
            op: match op {
                0 => TraceOp::Begin(id),
                _ => TraceOp::End(id),
            },
            ev: TraceEv::MergePar {
                pass: 0,
                group: 0,
                batch: 3,
                thread,
                threads: 2,
                len,
                total: 10,
            },
        };
        // Complete set summing to the total: valid (threads overlap in
        // time, as real merge threads do).
        validate_rank_journal(&[
            span(1, 1, 0, 0, 6),
            span(2, 2, 0, 1, 4),
            span(3, 2, 1, 1, 4),
            span(4, 1, 1, 0, 6),
        ])
        .expect("complete batch");
        // Lengths that do not sum to the batch total.
        let err = validate_rank_journal(&[
            span(1, 1, 0, 0, 6),
            span(2, 2, 0, 1, 5),
            span(3, 2, 1, 1, 5),
            span(4, 1, 1, 0, 6),
        ])
        .expect_err("bad sum");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("sum to")), "{err}");
        // A thread index opened twice within one batch.
        let err = validate_rank_journal(&[
            span(1, 1, 0, 0, 6),
            span(2, 2, 0, 0, 4),
            span(3, 2, 1, 0, 4),
            span(4, 1, 1, 0, 6),
        ])
        .expect_err("dup thread");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("twice")), "{err}");
        // A batch that never opens its full thread set.
        let err = validate_rank_journal(&[span(1, 1, 0, 0, 6), span(2, 1, 1, 0, 6)])
            .expect_err("incomplete");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("only 1")), "{err}");
        // A re-merged batch may reuse the same (pass, group, batch) key
        // with a different shape, as long as each set completes.
        let redo = |ts_ns, id, op, thread, len| TraceRecord {
            rank: 0,
            ts_ns,
            op: match op {
                0 => TraceOp::Begin(id),
                _ => TraceOp::End(id),
            },
            ev: TraceEv::MergePar {
                pass: 0,
                group: 0,
                batch: 3,
                thread,
                threads: 1,
                len,
                total: len,
            },
        };
        validate_rank_journal(&[
            span(1, 1, 0, 0, 6),
            span(2, 2, 0, 1, 4),
            span(3, 2, 1, 1, 4),
            span(4, 1, 1, 0, 6),
            redo(5, 3, 0, 0, 9),
            redo(6, 3, 1, 0, 9),
        ])
        .expect("re-merge with a fresh complete set");
    }

    #[test]
    fn merged_timeline_orders_by_timestamp_then_rank() {
        let r = |rank, ts_ns| TraceRecord {
            rank,
            ts_ns,
            op: TraceOp::Instant,
            ev: TraceEv::EpochAdvance { epoch: 1 },
        };
        let merged = merge_journals(vec![vec![r(1, 10), r(1, 30)], vec![r(0, 10), r(0, 20)]]);
        let order: Vec<(usize, u64)> = merged.iter().map(|x| (x.rank, x.ts_ns)).collect();
        assert_eq!(order, vec![(0, 10), (1, 10), (0, 20), (1, 30)]);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_pid_per_rank() {
        let t = Tracer::to_buffer(4);
        let sp = t.begin(TraceEv::Phase { phase: Phase::RunFormation });
        t.instant(TraceEv::Fetch { owner: 1, blocks: 2, remote: true });
        t.end(sp, TraceEv::Phase { phase: Phase::RunFormation });
        let text = chrome_trace(&t.drain());
        let v = Json::parse(&text).expect("valid JSON");
        let events = v.as_arr().expect("array");
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.get("pid").and_then(Json::as_u64) == Some(4)));
        let phs: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Json::as_str)).collect();
        assert_eq!(phs, vec!["B", "i", "E"]);
    }
}
