//! Wire codec for cluster control messages.
//!
//! The multi-process runtime (`demsort-launch` / `demsort-worker`)
//! ships job configuration to workers and collects per-rank reports
//! back over the coordinator connection. This module is the shared
//! vocabulary for that control plane: a tiny, dependency-free
//! little-endian codec plus encode/decode for the config and counter
//! types. Payloads are versioned by the launcher protocol, not here —
//! the codec is strictly structural.

use crate::config::{AlgoConfig, JobConfig, MachineConfig, SortAlgo};
use crate::counters::{CommCounters, CpuCounters, IoCounters, Phase, PhaseStats};
use crate::error::{Error, Result};
use crate::trace::ProgressFrame;

/// Append-only encoder over a byte buffer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Start with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start with an empty buffer that holds `bytes` without growing.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes) }
    }

    /// Start with `buf` emptied: whatever it holds is dropped, its
    /// capacity kept — a recycled message frame, say.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, x: u8) -> &mut Self {
        self.buf.push(x);
        self
    }

    pub fn u16(&mut self, x: u16) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    pub fn u32(&mut self, x: u32) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    pub fn bool(&mut self, x: bool) -> &mut Self {
        self.u8(x as u8)
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }

    /// Append `n` zero bytes with no prefix and hand them out to be
    /// filled in place — a record payload is encoded where it is sent
    /// from. The reader's twin is [`WireReader::raw`].
    pub fn raw(&mut self, n: usize) -> &mut [u8] {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        &mut self.buf[at..]
    }
}

/// Cursor-based decoder over a byte slice. Every read is
/// bounds-checked and returns [`Error::Comm`] on truncation — a
/// malformed control frame must never panic a worker.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What the next reads are reads of ([`WireReader::field`]).
    field: &'static str,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, field: "" }
    }

    /// Name the field the following reads belong to, so that a
    /// truncation is reported as a truncation *of that field*.
    pub fn field(&mut self, name: &'static str) -> &mut Self {
        self.field = name;
        self
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            let field = if self.field.is_empty() { "" } else { " for " };
            return Err(Error::comm(format!(
                "truncated control frame: wanted {n} bytes{field}{} at offset {}, have {}",
                self.field,
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| Error::comm("control frame string is not UTF-8"))
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// The next `n` bytes, borrowed from the frame (no prefix, no
    /// copy): a record payload is decoded or merged where it arrived.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

/// The error a rank reports for a peer's message it could not decode:
/// `err` (a truncation naming its field, or a range check) prefixed
/// with the receiving rank `me`, the sending rank `src` and what the
/// message was. Bytes that arrive from a peer are checked, never
/// indexed — a bad frame fails the collective, it does not panic a rank.
pub fn from_peer(me: usize, src: usize, what: &str, err: Error) -> Error {
    let (Error::Config(why) | Error::Io(why) | Error::Comm(why) | Error::Validation(why)) = err;
    Error::comm(format!("rank {me}: bad {what} from rank {src}: {why}"))
}

// -------------------------------------------------------------------
// Config codecs
// -------------------------------------------------------------------

/// Encode a [`MachineConfig`].
pub fn encode_machine(w: &mut WireWriter, m: &MachineConfig) {
    w.u64(m.pes as u64)
        .u64(m.disks_per_pe as u64)
        .u64(m.block_bytes as u64)
        .u64(m.mem_bytes_per_pe as u64)
        .u64(m.cores_per_pe as u64);
}

/// Decode a [`MachineConfig`].
pub fn decode_machine(r: &mut WireReader<'_>) -> Result<MachineConfig> {
    Ok(MachineConfig {
        pes: r.u64()? as usize,
        disks_per_pe: r.u64()? as usize,
        block_bytes: r.u64()? as usize,
        mem_bytes_per_pe: r.u64()? as usize,
        cores_per_pe: r.u64()? as usize,
    })
}

/// Encode an [`AlgoConfig`].
pub fn encode_algo(w: &mut WireWriter, a: &AlgoConfig) {
    w.bool(a.randomize)
        .u64(a.sample_every as u64)
        .bool(a.overlap)
        .u64(a.seed)
        .u64(a.replication as u64);
}

/// Decode an [`AlgoConfig`].
pub fn decode_algo(r: &mut WireReader<'_>) -> Result<AlgoConfig> {
    Ok(AlgoConfig {
        randomize: r.bool()?,
        sample_every: r.u64()? as usize,
        overlap: r.bool()?,
        seed: r.u64()?,
        replication: r.u64()? as usize,
    })
}

fn algo_tag(a: SortAlgo) -> u8 {
    match a {
        SortAlgo::Canonical => 0,
        SortAlgo::Striped => 1,
    }
}

fn algo_from_tag(t: u8) -> Result<SortAlgo> {
    match t {
        0 => Ok(SortAlgo::Canonical),
        1 => Ok(SortAlgo::Striped),
        _ => Err(Error::comm(format!("unknown algorithm tag {t}"))),
    }
}

/// Encode a [`JobConfig`].
pub fn encode_job(job: &JobConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.string(&job.input).string(&job.output);
    encode_machine(&mut w, &job.machine);
    encode_algo(&mut w, &job.algo);
    w.u8(algo_tag(job.algorithm));
    w.u64(job.read_timeout_ms);
    w.string(&job.trace_dir).string(&job.scratch);
    w.finish()
}

/// Decode a [`JobConfig`].
///
/// # Errors
/// [`Error::Comm`] on truncation, an unknown algorithm tag, or trailing
/// garbage.
pub fn decode_job(buf: &[u8]) -> Result<JobConfig> {
    let mut r = WireReader::new(buf);
    let job = JobConfig {
        input: r.string()?,
        output: r.string()?,
        machine: decode_machine(&mut r)?,
        algo: decode_algo(&mut r)?,
        algorithm: algo_from_tag(r.u8()?)?,
        read_timeout_ms: r.u64()?,
        trace_dir: r.string()?,
        scratch: r.string()?,
    };
    if r.remaining() != 0 {
        return Err(Error::comm(format!("job carries {} trailing bytes", r.remaining())));
    }
    Ok(job)
}

// -------------------------------------------------------------------
// Progress frame codec (worker -> launcher live status)
// -------------------------------------------------------------------

/// Decode a [`Phase`] from its wire tag, [`Phase::index`].
fn phase_from_tag(tag: u8) -> Result<Phase> {
    Phase::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| Error::comm(format!("unknown phase tag {tag}")))
}

/// Encode a [`ProgressFrame`]: `[rank][phase][batch][batches][bytes]`.
///
/// Workers stream these over the coordinator control connection while
/// the sort runs so the launcher can render live per-rank status.
pub fn encode_progress(f: &ProgressFrame) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(f.rank as u32).u8(f.phase.index() as u8).u64(f.batch).u64(f.batches).u64(f.bytes);
    w.finish()
}

/// Decode a [`ProgressFrame`].
///
/// # Errors
/// [`Error::Comm`] on truncation, an unknown phase tag, or trailing
/// garbage.
pub fn decode_progress(buf: &[u8]) -> Result<ProgressFrame> {
    let mut r = WireReader::new(buf);
    let rank = r.u32()? as usize;
    let phase = phase_from_tag(r.u8()?)?;
    let frame = ProgressFrame { rank, phase, batch: r.u64()?, batches: r.u64()?, bytes: r.u64()? };
    if r.remaining() != 0 {
        return Err(Error::comm(format!(
            "progress frame carries {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(frame)
}

// -------------------------------------------------------------------
// Block-service frames (one request, one response, reads and writes)
// -------------------------------------------------------------------

/// What a block-service request asks the owning rank to do.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BlockOp {
    /// Read the block at `(disk, slot)`; the request carries no payload
    /// and the response body is the block.
    Fetch,
    /// Store the payload on disk `disk` (a placement hint — the owner's
    /// allocator assigns the slot, `slot` is unused); the response body
    /// is the assigned `[disk: u32][slot: u32]`.
    Store,
}

/// Header of a block-service request frame:
/// `[id: u64][op: u8][disk: u32][slot: u32][len: u32]`, followed by
/// `len` payload bytes. `id` matches the response to the request
/// (requests are pipelined and answered in any order).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BlockReq {
    pub id: u64,
    pub op: BlockOp,
    pub disk: u32,
    pub slot: u32,
    /// Payload bytes following the header.
    pub len: u32,
}

impl BlockReq {
    /// Encoded header size.
    pub const BYTES: usize = 21;

    /// The header bytes (the payload is gather-written after them).
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut h = [0u8; Self::BYTES];
        h[..8].copy_from_slice(&self.id.to_le_bytes());
        h[8] = match self.op {
            BlockOp::Fetch => 0,
            BlockOp::Store => 1,
        };
        h[9..13].copy_from_slice(&self.disk.to_le_bytes());
        h[13..17].copy_from_slice(&self.slot.to_le_bytes());
        h[17..21].copy_from_slice(&self.len.to_le_bytes());
        h
    }

    /// Decode a header whose frame carries `carried` bytes after it.
    ///
    /// # Errors
    /// [`Error::Comm`] if the header is truncated, the operation is
    /// unknown, a fetch carries a payload, or the claimed payload
    /// length is not exactly what the frame carries — an oversized
    /// claim must fail before any allocation, and trailing garbage is
    /// a protocol violation, not padding.
    pub fn decode(header: &[u8], carried: usize) -> Result<Self> {
        let mut r = WireReader::new(header);
        let id = r.u64()?;
        let op = match r.u8()? {
            0 => BlockOp::Fetch,
            1 => BlockOp::Store,
            other => return Err(Error::comm(format!("unknown block operation {other}"))),
        };
        let (disk, slot, len) = (r.u32()?, r.u32()?, r.u32()?);
        if len as usize != carried {
            return Err(Error::comm(format!(
                "block request claims {len} payload bytes but carries {carried}"
            )));
        }
        if op == BlockOp::Fetch && len != 0 {
            return Err(Error::comm(format!("block fetch request carries a {len}-byte payload")));
        }
        Ok(Self { id, op, disk, slot, len })
    }
}

/// Size of a block-service response prefix: `[id: u64][status: u8]`.
/// The body follows — the block or store address on success, the
/// owner's error text (UTF-8) otherwise.
pub const BLOCK_RESP_PREFIX: usize = 9;

/// Encode a block-service response prefix.
pub fn encode_block_resp(id: u64, ok: bool) -> [u8; BLOCK_RESP_PREFIX] {
    let mut p = [0u8; BLOCK_RESP_PREFIX];
    p[..8].copy_from_slice(&id.to_le_bytes());
    p[8] = !ok as u8;
    p
}

/// Decode a block-service response prefix into `(id, ok)`.
///
/// # Errors
/// [`Error::Comm`] on truncation or an unknown status byte.
pub fn decode_block_resp(prefix: &[u8]) -> Result<(u64, bool)> {
    let mut r = WireReader::new(prefix);
    let id = r.u64()?;
    match r.u8()? {
        0 => Ok((id, true)),
        1 => Ok((id, false)),
        other => Err(Error::comm(format!("unknown block response status {other}"))),
    }
}

// -------------------------------------------------------------------
// Counter codecs (worker -> launcher report)
// -------------------------------------------------------------------

/// Encode one phase's stats.
pub fn encode_phase_stats(w: &mut WireWriter, phase: Phase, s: &PhaseStats) {
    w.u8(phase.index() as u8);
    w.u64(s.io.bytes_read)
        .u64(s.io.bytes_written)
        .u64(s.io.blocks_read)
        .u64(s.io.blocks_written)
        .u64(s.io.max_disk_busy_ns);
    w.u64(s.comm.bytes_sent).u64(s.comm.bytes_recv).u64(s.comm.messages);
    w.u64(s.cpu.elements_sorted)
        .u64(s.cpu.sort_work)
        .u64(s.cpu.elements_merged)
        .u64(s.cpu.merge_work)
        .u64(s.cpu.split_probes)
        .u64(s.cpu.host_wall_ns);
}

/// Decode one phase's stats.
pub fn decode_phase_stats(r: &mut WireReader<'_>) -> Result<(Phase, PhaseStats)> {
    let phase = phase_from_tag(r.u8()?)?;
    let io = IoCounters {
        bytes_read: r.u64()?,
        bytes_written: r.u64()?,
        blocks_read: r.u64()?,
        blocks_written: r.u64()?,
        max_disk_busy_ns: r.u64()?,
    };
    let comm = CommCounters { bytes_sent: r.u64()?, bytes_recv: r.u64()?, messages: r.u64()? };
    let cpu = CpuCounters {
        elements_sorted: r.u64()?,
        sort_work: r.u64()?,
        elements_merged: r.u64()?,
        merge_work: r.u64()?,
        split_probes: r.u64()?,
        host_wall_ns: r.u64()?,
    };
    Ok((phase, PhaseStats { io, comm, cpu }))
}

/// One worker's result summary, shipped back to the launcher.
///
/// A report is also the *failure* surface of a rank: a worker whose
/// sort returns `Err` (a dead peer mid-collective, a storage fault)
/// ships a report with [`RankReport::error`] set instead of unwinding —
/// the launcher then knows exactly which rank failed and why.
#[derive(Clone, Debug, PartialEq)]
pub struct RankReport {
    /// The reporting rank.
    pub rank: usize,
    /// Elements in this rank's canonical output.
    pub elems: u64,
    /// Number of runs formed (`R`, identical across ranks).
    pub runs: usize,
    /// Per-phase measured counters, in phase order.
    pub phases: Vec<(Phase, PhaseStats)>,
    /// `Some(message)` if this rank's sort failed; `None` on success.
    pub error: Option<String>,
}

impl RankReport {
    /// A structured failure report for `rank`.
    pub fn failed(rank: usize, error: impl Into<String>) -> Self {
        Self { rank, elems: 0, runs: 0, phases: Vec::new(), error: Some(error.into()) }
    }

    /// `true` if the rank completed its share of the job.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Size of one encoded phase entry (tag + 14 × u64, pinned against
/// [`encode_phase_stats`] by a test) — bounds a decoded phase count by
/// what the payload can actually hold.
const PHASE_WIRE_BYTES: usize = 1 + 14 * 8;

/// Encode a [`RankReport`].
pub fn encode_rank_report(rep: &RankReport) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(rep.rank as u64).u64(rep.elems).u64(rep.runs as u64);
    w.u32(rep.phases.len() as u32);
    for (phase, stats) in &rep.phases {
        encode_phase_stats(&mut w, *phase, stats);
    }
    match &rep.error {
        Some(msg) => w.bool(true).string(msg),
        None => w.bool(false),
    };
    w.finish()
}

/// Decode a [`RankReport`].
///
/// # Errors
/// [`Error::Comm`] on truncation or a phase count larger than the
/// payload could possibly hold — a garbage frame must neither panic nor
/// allocate unboundedly.
pub fn decode_rank_report(buf: &[u8]) -> Result<RankReport> {
    let mut r = WireReader::new(buf);
    let rank = r.u64()? as usize;
    let elems = r.u64()?;
    let runs = r.u64()? as usize;
    let n = r.u32()? as usize;
    if n > r.remaining() / PHASE_WIRE_BYTES {
        return Err(Error::comm(format!(
            "rank report claims {n} phases but only {} bytes follow",
            r.remaining()
        )));
    }
    let mut phases = Vec::with_capacity(n);
    for _ in 0..n {
        phases.push(decode_phase_stats(&mut r)?);
    }
    let error = if r.bool()? { Some(r.string()?) } else { None };
    Ok(RankReport { rank, elems, runs, phases, error })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX).bool(true).string("héllo").bytes(&[1, 2]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().expect("u8"), 7);
        assert_eq!(r.u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(r.u64().expect("u64"), u64::MAX);
        assert!(r.bool().expect("bool"));
        assert_eq!(r.string().expect("string"), "héllo");
        assert_eq!(r.bytes().expect("bytes"), vec![1, 2]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.u32(1000); // string length, no body
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.string(), Err(Error::Comm(_))));
        let mut r = WireReader::new(&[1, 2]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn raw_payloads_are_borrowed_and_a_truncation_names_its_field() {
        let mut w = WireWriter::with_capacity(8);
        w.u32(3);
        w.raw(3).copy_from_slice(b"abc");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let n = r.field("count").u32().expect("count") as usize;
        let payload = r.field("records").raw(n).expect("payload");
        assert_eq!(payload, b"abc");
        assert!(std::ptr::eq(payload.as_ptr(), buf[4..].as_ptr()), "no copy");
        let err = r.raw(1).expect_err("nothing left");
        assert!(err.to_string().contains("for records"), "{err}");
        let err = from_peer(2, 5, "striped piece", err);
        let text = err.to_string();
        assert!(matches!(err, Error::Comm(_)));
        assert!(
            text.contains("rank 2") && text.contains("rank 5") && text.contains("striped piece")
        );
    }

    #[test]
    fn job_config_roundtrip() {
        let job = JobConfig {
            input: "/tmp/in.dat".to_string(),
            output: "/tmp/out.dat".to_string(),
            machine: MachineConfig::tiny(4),
            algo: AlgoConfig { seed: 42, sample_every: 7, replication: 1, ..AlgoConfig::default() },
            algorithm: SortAlgo::Striped,
            read_timeout_ms: 12_345,
            trace_dir: "/tmp/trace".to_string(),
            scratch: "/tmp/out.dat.scratch".to_string(),
        };
        let decoded = decode_job(&encode_job(&job)).expect("decode");
        assert_eq!(decoded.input, job.input);
        assert_eq!(decoded.output, job.output);
        assert_eq!(decoded.machine, job.machine);
        assert_eq!(decoded.algo, job.algo);
        assert_eq!(decoded.algorithm, SortAlgo::Striped);
        assert_eq!(decoded.read_timeout_ms, 12_345);
        assert_eq!(decoded.trace_dir, "/tmp/trace");
        assert_eq!(decoded.scratch, "/tmp/out.dat.scratch");
    }

    #[test]
    fn progress_frames_roundtrip_and_reject_garbage() {
        for phase in Phase::ALL {
            let f = ProgressFrame { rank: 3, phase, batch: 5, batches: 9, bytes: 1 << 40 };
            assert_eq!(decode_progress(&encode_progress(&f)).expect("decode"), f);
        }
        // Unknown phase tag.
        let mut w = WireWriter::new();
        w.u32(0).u8(9).u64(0).u64(0).u64(0);
        assert!(matches!(decode_progress(&w.finish()), Err(Error::Comm(_))));
        // Trailing garbage.
        let mut buf = encode_progress(&ProgressFrame {
            rank: 0,
            phase: Phase::RunFormation,
            batch: 0,
            batches: 0,
            bytes: 0,
        });
        buf.push(0);
        assert!(matches!(decode_progress(&buf), Err(Error::Comm(_))));
        // Truncation.
        let full = encode_progress(&ProgressFrame {
            rank: 0,
            phase: Phase::FinalMerge,
            batch: 1,
            batches: 2,
            bytes: 3,
        });
        for cut in 0..full.len() {
            assert!(matches!(decode_progress(&full[..cut]), Err(Error::Comm(_))), "cut {cut}");
        }
    }

    #[test]
    fn rank_report_roundtrip() {
        let rep = RankReport {
            rank: 3,
            elems: 999,
            runs: 4,
            phases: vec![
                (
                    Phase::RunFormation,
                    PhaseStats {
                        io: IoCounters { bytes_read: 1, bytes_written: 2, ..Default::default() },
                        comm: CommCounters { bytes_sent: 3, bytes_recv: 4, messages: 5 },
                        cpu: CpuCounters { elements_sorted: 6, ..Default::default() },
                    },
                ),
                (Phase::FinalMerge, PhaseStats::default()),
            ],
            error: None,
        };
        assert_eq!(decode_rank_report(&encode_rank_report(&rep)).expect("decode"), rep);
    }

    #[test]
    fn failed_rank_report_roundtrips() {
        let rep = RankReport::failed(2, "communication error: recv from rank 1: timed out");
        assert!(!rep.is_ok());
        let decoded = decode_rank_report(&encode_rank_report(&rep)).expect("decode");
        assert_eq!(decoded, rep);
        assert_eq!(
            decoded.error.as_deref(),
            Some("communication error: recv from rank 1: timed out")
        );
    }

    #[test]
    fn oversized_phase_count_is_rejected_without_allocating() {
        // A garbage frame claiming u32::MAX phases must be a clean
        // Error::Comm — with_capacity on the claimed count would abort
        // the process on allocation failure.
        let mut w = WireWriter::new();
        w.u64(0).u64(0).u64(0).u32(u32::MAX);
        let err = decode_rank_report(&w.finish()).expect_err("oversized phase count");
        assert!(matches!(err, Error::Comm(_)), "{err}");
    }

    /// A store request frame as the wire carries it: header, payload.
    fn store_frame(id: u64, disk: u32, data: &[u8]) -> Vec<u8> {
        let req = BlockReq { id, op: BlockOp::Store, disk, slot: 0, len: data.len() as u32 };
        [&req.encode()[..], data].concat()
    }

    /// Decode a request frame the way the transport's reader does: the
    /// header first, checked against what the frame carries after it.
    fn decode_frame(frame: &[u8]) -> Result<(BlockReq, &[u8])> {
        let (header, payload) = frame.split_at(frame.len().min(BlockReq::BYTES));
        Ok((BlockReq::decode(header, payload.len())?, payload))
    }

    #[test]
    fn store_frames_roundtrip() {
        let data = vec![7u8; 256];
        let frame = store_frame(42, 1, &data);
        let (req, body) = decode_frame(&frame).expect("decode");
        assert_eq!((req.id, req.op, req.disk, req.len), (42, BlockOp::Store, 1, 256));
        assert_eq!(body, &data[..]);

        let fetch = BlockReq { id: 43, op: BlockOp::Fetch, disk: 2, slot: 99, len: 0 };
        assert_eq!(decode_frame(&fetch.encode()).expect("decode"), (fetch, &[][..]));

        assert_eq!(decode_block_resp(&encode_block_resp(7, true)).expect("decode"), (7, true));
        assert_eq!(decode_block_resp(&encode_block_resp(8, false)).expect("decode"), (8, false));
    }

    #[test]
    fn store_req_length_must_match_exactly() {
        // Oversized claim: says 100 bytes, carries 3.
        let mut buf = store_frame(1, 0, &[0u8; 100]);
        buf.truncate(BlockReq::BYTES + 3);
        assert!(matches!(decode_frame(&buf), Err(Error::Comm(_))));
        // Trailing garbage after the claimed payload.
        let mut buf = store_frame(1, 0, &[1, 2, 3]);
        buf.push(0xFF);
        assert!(matches!(decode_frame(&buf), Err(Error::Comm(_))));
        // A fetch carries no payload, whatever its length field says.
        let mut fetch = BlockReq { id: 1, op: BlockOp::Fetch, disk: 0, slot: 0, len: 4 };
        assert!(matches!(BlockReq::decode(&fetch.encode(), 4), Err(Error::Comm(_))));
        fetch.len = 0;
        assert!(matches!(BlockReq::decode(&fetch.encode(), 4), Err(Error::Comm(_))));
        // Unknown operation and unknown status byte.
        let mut header = fetch.encode();
        header[8] = 9;
        assert!(matches!(BlockReq::decode(&header, 0), Err(Error::Comm(_))));
        let mut prefix = encode_block_resp(1, true);
        prefix[8] = 9;
        assert!(matches!(decode_block_resp(&prefix), Err(Error::Comm(_))));
    }

    #[test]
    fn every_phase_tag_roundtrips() {
        for p in Phase::ALL {
            assert_eq!(phase_from_tag(p.index() as u8).expect("tag"), p);
        }
        assert!(phase_from_tag(9).is_err());
    }

    #[test]
    fn phase_entry_size_matches_the_encoder() {
        let mut w = WireWriter::new();
        encode_phase_stats(&mut w, Phase::AllToAll, &PhaseStats::default());
        assert_eq!(w.finish().len(), PHASE_WIRE_BYTES);
    }

    mod codec_error_paths {
        //! Satellite of the fallible-collectives PR: the wire codec's
        //! error paths. Truncated, oversized, and garbage frames must
        //! decode to `Error::Comm` — never panic, never abort.
        use super::super::*;
        use proptest::prelude::*;

        fn job() -> JobConfig {
            JobConfig {
                input: "/tmp/in".into(),
                output: "/tmp/out".into(),
                machine: MachineConfig {
                    pes: 3,
                    disks_per_pe: 2,
                    block_bytes: 256,
                    mem_bytes_per_pe: 4096,
                    cores_per_pe: 1,
                },
                algo: AlgoConfig::default(),
                algorithm: SortAlgo::default(),
                read_timeout_ms: 1234,
                trace_dir: "/tmp/trace".into(),
                scratch: "/tmp/scratch".into(),
            }
        }

        fn report() -> RankReport {
            RankReport {
                rank: 1,
                elems: 77,
                runs: 2,
                phases: vec![
                    (Phase::RunFormation, PhaseStats::default()),
                    (Phase::AllToAll, PhaseStats::default()),
                ],
                error: Some("boom".into()),
            }
        }

        proptest! {
            /// Arbitrary byte soup: decoders return, they never panic.
            #[test]
            fn garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
                let _ = decode_job(&bytes);
                let _ = decode_rank_report(&bytes);
                let mut r = WireReader::new(&bytes);
                let _ = r.string();
                let mut r = WireReader::new(&bytes);
                let _ = r.bytes();
                let mut r = WireReader::new(&bytes);
                while r.u64().is_ok() {}
            }

            /// Every strict prefix of a valid encoding (a truncated
            /// frame) is a clean `Error::Comm`.
            #[test]
            fn truncated_job_is_comm_error(cut in 0usize..10_000) {
                let full = encode_job(&job());
                let cut = cut % full.len(); // strict prefix
                let err = decode_job(&full[..cut]).expect_err("truncated");
                prop_assert!(matches!(err, Error::Comm(_)), "{err}");
            }

            #[test]
            fn truncated_report_is_comm_error(cut in 0usize..10_000) {
                let full = encode_rank_report(&report());
                let cut = cut % full.len(); // strict prefix
                let err = decode_rank_report(&full[..cut]).expect_err("truncated");
                prop_assert!(matches!(err, Error::Comm(_)), "{err}");
            }

            /// Oversized length prefixes (string/bytes/phase counts that
            /// claim more than the payload holds) are `Error::Comm`.
            #[test]
            fn oversized_length_prefix_is_comm_error(claim in 1u32..=u32::MAX, tail in 0usize..32) {
                let mut w = WireWriter::new();
                w.u32(claim);
                let mut buf = w.finish();
                let tail = tail.min(claim as usize - 1);
                buf.extend(std::iter::repeat_n(0u8, tail));
                let mut r = WireReader::new(&buf);
                let err = r.string().expect_err("oversized claim");
                prop_assert!(matches!(err, Error::Comm(_)), "{err}");
            }

            /// Flipping any single byte of a valid report either decodes
            /// to *some* report or fails cleanly — never a panic.
            #[test]
            fn bitflips_never_panic(pos in 0usize..10_000, flip in 1u8..=255) {
                let mut buf = encode_rank_report(&report());
                let pos = pos % buf.len();
                buf[pos] ^= flip;
                let _ = decode_rank_report(&buf);
            }
        }
    }

    mod store_frame_paths {
        //! Error paths of the block-service frames, matching the
        //! control-frame suite above. Truncated, oversized, and garbage
        //! frames must decode to `Error::Comm` — never panic, never
        //! allocate on a claimed (rather than actual) length.
        use super::super::*;
        use super::{decode_frame, store_frame};
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary byte soup: the block-service decoders return,
            /// they never panic.
            #[test]
            fn garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
                let _ = decode_frame(&bytes);
                let _ = decode_block_resp(&bytes);
            }

            /// Round trip over arbitrary ids, hints and payloads.
            #[test]
            fn store_req_roundtrips(
                id in 0u64..=u64::MAX,
                hint in 0u32..=u32::MAX,
                data in prop::collection::vec(0u8..=255, 0..512),
            ) {
                let frame = store_frame(id, hint, &data);
                let (req, d) = decode_frame(&frame).expect("roundtrip");
                prop_assert_eq!((req.id, req.op, req.disk, d), (id, BlockOp::Store, hint, &data[..]));
            }

            /// Every strict prefix of a valid request is `Error::Comm`
            /// (the payload length check also catches cuts inside the
            /// payload).
            #[test]
            fn truncated_store_req_is_comm_error(cut in 0usize..10_000) {
                let full = store_frame(9, 2, &[5u8; 64]);
                let cut = cut % full.len(); // strict prefix
                let err = decode_frame(&full[..cut]).expect_err("truncated");
                prop_assert!(matches!(err, Error::Comm(_)), "{err}");
            }

            /// Every strict prefix of a response prefix is `Error::Comm`.
            #[test]
            fn truncated_store_resp_is_comm_error(cut in 0usize..BLOCK_RESP_PREFIX, ok in 0u8..=1) {
                let full = encode_block_resp(11, ok == 1);
                let err = decode_block_resp(&full[..cut]).expect_err("truncated");
                prop_assert!(matches!(err, Error::Comm(_)), "{err}");
            }

            /// A request whose length field claims more than the frame
            /// carries is a capacity bomb — it must be a clean
            /// `Error::Comm` before any allocation of the claimed size.
            #[test]
            fn oversized_store_claim_is_comm_error(claim in 1u32..=u32::MAX, carry in 0usize..64) {
                let req = BlockReq { id: 0, op: BlockOp::Store, disk: 0, slot: 0, len: claim };
                let carry = carry.min(claim as usize - 1);
                let err = BlockReq::decode(&req.encode(), carry).expect_err("oversized claim");
                prop_assert!(matches!(err, Error::Comm(_)), "{err}");
            }

            /// Flipping any single byte of a valid frame either decodes
            /// to *something* or fails cleanly — never a panic.
            #[test]
            fn store_bitflips_never_panic(pos in 0usize..10_000, flip in 1u8..=255) {
                let mut req = store_frame(3, 1, &[9u8; 32]);
                let pos_req = pos % req.len();
                req[pos_req] ^= flip;
                let _ = decode_frame(&req);
                let mut resp = encode_block_resp(3, false);
                resp[pos % BLOCK_RESP_PREFIX] ^= flip;
                let _ = decode_block_resp(&resp);
            }
        }
    }
}
