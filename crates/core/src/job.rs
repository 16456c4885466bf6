//! The rank program: what every rank of a file-to-file sort runs,
//! whatever it runs on.
//!
//! DEMSort is one SPMD program. [`run_rank_job`] is its body — stream
//! this rank's shard of the input onto its disks, sort, stream this
//! rank's part of the output — and the paper's two algorithms differ
//! only in the middle step (Sections III–IV). A substrate's whole job
//! is to build `(comm, storage, hooks)` and call it:
//!
//! * the in-process cluster ([`run_job_local`], under [`sort_file`] and
//!   `sortfile --transport local`): one thread per PE over the channel
//!   mesh, all PEs' storage in one [`ClusterStorage`];
//! * the multi-process cluster (`demsort-worker`): a TCP mesh, this
//!   rank's storage plus a block service for its peers', and
//!   rank-failure recovery hooks wired to the transport.
//!
//! [`run_in_process`] is the in-process harness itself, for rank
//! bodies that are not file jobs (generator-fed sorts, baselines), and
//! [`cluster_report`] turns the ranks' reports into the cluster's on
//! either substrate.

use crate::canonical::canonical_mergesort;
use crate::ctx::{assemble_report, ClusterStorage};
use crate::fileio::{
    file_records, ingest_file_shard, write_run_to_file, write_striped_blocks_to_file,
};
use crate::striped::{striped_mergesort_resilient, ResilientHooks};
use demsort_net::{run_cluster, Communicator};
use demsort_types::wire::RankReport;
use demsort_types::{
    ranks, Error, JobConfig, Record, Record100, Result, SortAlgo, SortConfig, SortReport, TraceEv,
    Tracer,
};
use std::path::Path;
use std::sync::Arc;

/// Run this rank's share of `job` (collective): ingest its shard of
/// the input file, sort with `job.algorithm`, write its part of the
/// output file, and report its counters.
///
/// `storage.pe(comm.rank())` must be this rank's own storage. `hooks`
/// are the substrate's rank-failure recovery callbacks; only the
/// striped sort recovers, so the canonical sort ignores them.
///
/// A rank writes its output as soon as its own sort returns. Every
/// peer has ingested its shard by then — either sort opens with a
/// collective — so the output may be the input file where the
/// substrate leaves it intact until then.
pub fn run_rank_job(
    job: &JobConfig,
    comm: &Communicator,
    storage: &ClusterStorage,
    hooks: Option<ResilientHooks<'_>>,
) -> Result<RankReport> {
    type R = Record100;
    let (rank, p) = (comm.rank(), comm.size());
    let st = storage.pe(rank);
    let cfg = SortConfig::new(job.machine.clone(), job.algo.clone())?;
    let cores = cfg.machine.cores_per_pe;
    let (input, output) = (Path::new(&job.input), Path::new(&job.output));

    let total = file_records::<R>(input)?;
    let local = ingest_file_shard::<R>(st, input, rank, p, total)?;
    let (elems, runs, phases) = match job.algorithm {
        SortAlgo::Canonical => {
            // Rank `r`'s output is global ranks `⌊r·n/p⌋ ..`, so the
            // outputs concatenate at the shard boundaries.
            let o = canonical_mergesort::<R>(comm, storage, &cfg, local, cores)?;
            let own = ranks::owned_range(rank, p, total);
            debug_assert_eq!(o.output.elems, own.end - own.start);
            let (len, at) = (total * R::BYTES as u64, own.start * R::BYTES as u64);
            write_run_to_file(st, &o.output, output, rank, len, at)?;
            (o.output.elems, o.runs, o.phases)
        }
        SortAlgo::Striped => {
            let o =
                striped_mergesort_resilient::<R>(comm, storage, &cfg, local, cores, None, hooks)?;
            let elems = write_striped_blocks_to_file(st, &o.output, R::BYTES, output, rank)?;
            (elems, o.runs, o.phases)
        }
    };

    // Checkpoint the buffer-pool counters: in steady state the journal
    // shows hits far above misses (diagnostics only — the split is
    // timing-dependent, never an identity surface).
    let pc = st.pool().counters();
    comm.tracer().instant(TraceEv::PoolStats {
        hits: pc.hits,
        misses: pc.misses,
        recycled: pc.recycled,
        discarded: pc.discarded,
        copied_bytes: pc.copied_bytes,
    });
    Ok(RankReport { rank, elems, runs, phases, error: None })
}

/// Rank `rank`'s journal under `trace_dir` (`rank<K>.jsonl`, the
/// directory created if missing), or the disabled tracer when
/// `trace_dir` is empty ([`JobConfig::trace_dir`]'s "tracing off").
pub fn rank_tracer(trace_dir: &str, rank: usize) -> Result<Tracer> {
    if trace_dir.is_empty() {
        return Ok(Tracer::off());
    }
    let dir = Path::new(trace_dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::io(format!("create trace dir {trace_dir}: {e}")))?;
    Tracer::to_path(rank, &dir.join(format!("rank{rank}.jsonl")))
}

/// The cluster's report from its ranks' reports (in rank order): the
/// output sizes add up, the run count is global.
pub fn cluster_report(cfg: &SortConfig, element_bytes: usize, ranks: &[RankReport]) -> SortReport {
    assemble_report(
        cfg,
        ranks.iter().map(|r| r.elems).sum(),
        element_bytes,
        ranks.first().map_or(0, |r| r.runs),
        ranks.iter().map(|r| r.phases.clone()).collect(),
    )
}

/// The in-process cluster: run `rank_body` on `cfg.machine.pes` PE
/// threads over the channel mesh, all sharing one in-memory
/// [`ClusterStorage`], and aggregate. Each body returns its rank's
/// report plus whatever else the caller wants back; the first error
/// (in rank order) wins.
///
/// Returns the cluster report, the bodies' extra results in rank
/// order, and the storage (what the ranks left on their disks stays
/// readable through it).
pub fn run_in_process<T, F>(
    cfg: &SortConfig,
    element_bytes: usize,
    rank_body: F,
) -> Result<(SortReport, Vec<T>, Arc<ClusterStorage>)>
where
    T: Send,
    F: Fn(Communicator, &ClusterStorage) -> Result<(RankReport, T)> + Send + Sync,
{
    let storage =
        ClusterStorage::new_mem_sized(&cfg.machine, cfg.algo.effective_pool_blocks(&cfg.machine));
    let results = run_cluster(cfg.machine.pes, |comm| rank_body(comm, &storage));
    let (reports, extras): (Vec<RankReport>, Vec<T>) =
        results.into_iter().collect::<Result<Vec<_>>>()?.into_iter().unzip();
    Ok((cluster_report(cfg, element_bytes, &reports), extras, storage))
}

/// Run `job` on the in-process cluster: every PE thread is one rank of
/// [`run_rank_job`], journalling to `job.trace_dir` like a worker
/// process does. The output is created, or overwritten in place, only
/// by ranks whose sort has finished — so it may be the input file.
pub fn run_job_local(job: &JobConfig) -> Result<SortReport> {
    job.validate()?;
    let cfg = SortConfig::new(job.machine.clone(), job.algo.clone())?;
    let (report, _, _) = run_in_process(&cfg, Record100::BYTES, |mut comm, storage| {
        // The communicator is the journal's only holder: the journal
        // is flushed and closed when the rank's thread drops it.
        comm.set_tracer(rank_tracer(&job.trace_dir, comm.rank())?);
        Ok((run_rank_job(job, &comm, storage, None)?, ()))
    })?;
    Ok(report)
}

/// Sort the SortBenchmark file `input` into `output` (which may be the
/// same file) with `algo` on the in-process cluster `cfg` describes:
/// [`run_job_local`] for callers that hold a [`SortConfig`] and paths
/// rather than a [`JobConfig`].
///
/// The file edges stream in `O(window · B)` memory per PE; the
/// in-memory disks still hold the data set itself.
pub fn sort_file(
    cfg: &SortConfig,
    algo: SortAlgo,
    input: &Path,
    output: &Path,
) -> Result<SortReport> {
    let utf8 = |p: &Path| {
        p.to_str()
            .map(str::to_string)
            .ok_or_else(|| Error::config(format!("path {} is not valid UTF-8", p.display())))
    };
    run_job_local(&JobConfig {
        input: utf8(input)?,
        output: utf8(output)?,
        machine: cfg.machine.clone(),
        algo: cfg.algo.clone(),
        algorithm: algo,
        // Nothing times out in-process; any positive value validates.
        read_timeout_ms: 1,
        trace_dir: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_types::{AlgoConfig, MachineConfig};

    #[test]
    fn rank_tracer_is_off_without_a_directory_and_creates_it_otherwise() {
        assert!(!rank_tracer("", 3).expect("off").enabled());
        let dir = std::env::temp_dir().join(format!("demsort-job-trace-{}", std::process::id()));
        let nested = dir.join("a/b");
        let tracer = rank_tracer(&nested.to_string_lossy(), 3).expect("journal");
        assert!(tracer.enabled());
        assert!(nested.join("rank3.jsonl").is_file());
        // A path that cannot be a directory is an error, not a panic.
        let file = nested.join("rank3.jsonl").join("sub");
        assert!(matches!(rank_tracer(&file.to_string_lossy(), 0), Err(Error::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn local_jobs_are_validated_like_launched_ones() {
        // What `launch_workers` rejects before spawning, the in-process
        // substrate rejects before touching a file.
        let job = JobConfig {
            input: "/nonexistent".into(),
            output: "/nonexistent".into(),
            machine: MachineConfig::tiny(2),
            algo: AlgoConfig { replication: 1, ..AlgoConfig::default() },
            algorithm: SortAlgo::Canonical,
            read_timeout_ms: 1000,
            trace_dir: String::new(),
        };
        let err = run_job_local(&job).expect_err("replication needs the striped sort");
        assert!(matches!(&err, Error::Config(m) if m.contains("striped")), "{err}");
    }
}
