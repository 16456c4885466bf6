//! Per-PE execution context: storage for every PE, phase accounting.
//!
//! A PE owns its communicator endpoint and *operates on* its own
//! storage: no PE reads or writes another's disks. Both sorts' merges
//! read the PE's own blocks, multiway selection reads the parts of its
//! windows that lie on them and pushes those, and records reach other
//! ranks only through the communicator. A worker process holds just
//! its own [`PeStorage`] ([`pe_storage`]); the in-process cluster holds
//! every PE's in one [`ClusterStorage`], each PE thread using its own.
//!
//! Both build a PE's storage the same way: the paper's disk model over
//! the PE's backend and a buffer pool of [`MachineConfig::pool_blocks`]
//! blocks, a size the machine decides — no constructor takes it as a
//! setting except [`ClusterStorage::new_mem_sized`].

use demsort_net::Communicator;
use demsort_storage::{Backend, DiskModel, MemBackend, PeStorage};
use demsort_types::trace::TraceEv;
use demsort_types::{
    BufferPool, CommCounters, CpuCounters, IoCounters, MachineConfig, Phase, PhaseStats, Result,
    SortConfig, SortReport,
};
use std::sync::Arc;

/// Every PE's storage of the in-process cluster, indexed by rank.
pub struct ClusterStorage {
    pes: Vec<PeStorage>,
}

/// One PE's storage on `backend`: the paper's disk model, with a
/// block-buffer pool of [`MachineConfig::pool_blocks`] blocks.
pub fn pe_storage(cfg: &MachineConfig, backend: Arc<dyn Backend>) -> PeStorage {
    pe_storage_sized(cfg, cfg.pool_blocks(), backend)
}

fn pe_storage_sized(
    cfg: &MachineConfig,
    pool_blocks: usize,
    backend: Arc<dyn Backend>,
) -> PeStorage {
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
        Self::new_mem_sized(cfg, cfg.pool_blocks())
    }

    /// [`ClusterStorage::new_mem`] with a per-PE block-buffer pool of
    /// `pool_blocks`.
    pub fn new_mem_sized(cfg: &MachineConfig, pool_blocks: usize) -> Arc<Self> {
        let mem =
            |_| pe_storage_sized(cfg, pool_blocks, Arc::new(MemBackend::new(cfg.disks_per_pe)));
        Arc::new(Self { pes: (0..cfg.pes).map(mem).collect() })
    }

    /// Storage over `backends[rank]` for every rank of the cluster (files,
    /// fault injection) — how a file job's storage is assembled from
    /// [`rank_backend`](crate::job::rank_backend).
    pub fn with_backends(cfg: &MachineConfig, backends: Vec<Arc<dyn Backend>>) -> Arc<Self> {
        let pes = backends.into_iter().map(|backend| pe_storage(cfg, backend)).collect();
        Arc::new(Self { pes })
    }

    /// Storage of PE `rank`.
    pub fn pe(&self, rank: usize) -> &PeStorage {
        &self.pes[rank]
    }

    /// Number of PEs in the cluster (`P`).
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// `true` if the cluster has no PEs (never in practice).
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }
}

/// Phase-by-phase counter recorder for one PE.
///
/// Phases are delimited by [`PhaseRecorder::finish_phase`], which
/// snapshots the cumulative I/O and communication counters and
/// attributes the delta (plus explicitly accumulated CPU work and any
/// extra communication such as a recovery's subgroup traffic) to the
/// phase.
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

    /// Accumulate communication the phase's communicator does not meter
    /// (a recovery's subgroup and re-served blocks).
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
    /// releases the phase's message frames
    /// ([`Communicator::release_frames`]: the next phase's messages are
    /// shaped otherwise), journals a `mem` instant and ends the span. On
    /// error the span stays open: an unclosed phase is what a post-mortem
    /// reads.
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
        comm.release_frames();
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
    use demsort_types::{AlgoConfig, Error, Tracer};

    #[test]
    fn cluster_storage_shapes_from_config() {
        let cfg = MachineConfig::tiny(3);
        let cs = ClusterStorage::new_mem(&cfg);
        assert_eq!(cs.len(), 3);
        assert!(!cs.is_empty());
        assert_eq!(cs.pe(1).disks(), cfg.disks_per_pe);
        assert_eq!(cs.pe(2).block_bytes(), cfg.block_bytes);
        assert_eq!(cs.pe(0).pool().capacity(), cfg.pool_blocks());
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
        assert_eq!(stats[1].1.comm.bytes_recv, 55, "out-of-band traffic counted");
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
}
