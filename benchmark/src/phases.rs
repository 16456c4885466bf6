//! The traced rep: per-rank journals → a phase table whose rows add up
//! to the job's wall clock, plus the counts the journals carry.
//!
//! The three TCP workloads are traced with the program's own
//! `--trace DIR` flag and their `rank<K>.jsonl` journals parsed with
//! [`demsort_types::trace::read_journal`]. `sortfile --transport
//! local` ignores `--trace`, so for `canon_local` a child of the
//! harness repeats that binary's steps — load shards, ingest, sort,
//! write the output a record at a time — with a tracer on each PE's
//! communicator ([`traced_local_job`]) and leaves the same journals.
//! No span is added inside the program either way.

use crate::jobs::{Workload, CORES, DISKS, RANKS};
use demsort_core::canonical::canonical_mergesort;
use demsort_core::ctx::assemble_report;
use demsort_core::recio::read_records;
use demsort_core::runform::ingest_input;
use demsort_core::ClusterStorage;
use demsort_net::run_cluster;
use demsort_types::trace::{read_journal, TraceEv, TraceOp, TraceRecord};
use demsort_types::{
    ranks, AlgoConfig, MachineConfig, Phase, PoolCounters, Record as _, Record100, SortConfig,
    Tracer,
};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::SystemTime;

/// One rank's journal, placed on the job's clock: `origin_s` is when
/// the rank's tracer was created, in seconds after the job was spawned
/// (journal timestamps count from there).
pub struct RankJournal {
    pub origin_s: f64,
    pub records: Vec<TraceRecord>,
}

/// Where one traced rep's wall clock went, on the job's clock (spawn =
/// 0). A phase of the job begins when its last rank enters it and ends
/// when its last rank leaves it — "a phase ends when its slowest PE
/// does" — so a rank that arrives late charges the row where it lost
/// the time, not the row where its peer waited for it. Every row but
/// `collective_s` (which overlaps the phases) is an interval of the
/// wall; `unattributed_s` is what they leave uncovered: the gaps
/// between one phase's end and the next one's begin.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTable {
    pub wall_s: f64,
    /// Spawn → every rank is in its first phase: process launch,
    /// rendezvous, mesh set-up, reading and ingesting the input shard.
    pub launch_ingest_s: f64,
    /// One row per [`Phase`], in [`Phase::ALL`] order.
    pub phase_s: [f64; 4],
    /// Every rank has left its last phase → exit: writing the output
    /// file, final barrier, reports, teardown.
    pub output_s: f64,
    /// Time inside top-level collective spans on the rank that spent
    /// most there (waiting for the other rank shows up here).
    pub collective_s: f64,
    pub unattributed_s: f64,
}

/// Counts carried by the journals, summed over ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalCounts {
    pub pool: PoolCounters,
    pub remote_blocks: u64,
    pub local_blocks: u64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Build the phase table of a rep that took `wall_s` from its ranks'
/// journals.
pub fn phase_table(wall_s: f64, ranks: &[RankJournal]) -> PhaseTable {
    let mut t = PhaseTable { wall_s, ..PhaseTable::default() };
    // Per phase, when the last rank entered and left it; NaN until a
    // rank has (`f64::max` returns its other operand for a NaN).
    let mut entered = [f64::NAN; 4];
    let mut left = [f64::NAN; 4];
    for rank in ranks {
        let at = |ts_ns: u64| rank.origin_s + secs(ts_ns);
        let mut my_entered = [f64::NAN; 4];
        let (mut collective_ns, mut collective_depth, mut collective_began) = (0u64, 0usize, 0u64);
        for r in &rank.records {
            match (&r.ev, r.op) {
                (TraceEv::Phase { phase }, TraceOp::Begin(_)) => {
                    let first = &mut my_entered[phase.index()];
                    *first = first.min(at(r.ts_ns));
                }
                (TraceEv::Phase { phase }, TraceOp::End(_)) => {
                    let slot = &mut left[phase.index()];
                    *slot = slot.max(at(r.ts_ns));
                }
                (TraceEv::Collective { .. }, TraceOp::Begin(_)) => {
                    if collective_depth == 0 {
                        collective_began = r.ts_ns;
                    }
                    collective_depth += 1;
                }
                (TraceEv::Collective { .. }, TraceOp::End(_)) if collective_depth > 0 => {
                    collective_depth -= 1;
                    if collective_depth == 0 {
                        collective_ns += r.ts_ns - collective_began;
                    }
                }
                _ => {}
            }
        }
        for (last, mine) in entered.iter_mut().zip(my_entered) {
            *last = last.max(mine);
        }
        t.collective_s = t.collective_s.max(secs(collective_ns));
    }
    let ran = || (0..4).filter(|&p| !entered[p].is_nan() && !left[p].is_nan());
    for p in ran() {
        t.phase_s[p] = left[p] - entered[p];
    }
    if let (Some(first), Some(last)) = (ran().next(), ran().next_back()) {
        t.launch_ingest_s = entered[first];
        t.output_s = wall_s - left[last];
    }
    t.unattributed_s = wall_s - t.launch_ingest_s - t.phase_s.iter().sum::<f64>() - t.output_s;
    t
}

/// Sum the block-service and pool events of all ranks. Pool events are
/// cumulative checkpoints, so the last one of a rank is its total.
pub fn journal_counts(ranks: &[RankJournal]) -> JournalCounts {
    let mut c = JournalCounts::default();
    for rank in ranks {
        let mut last_pool = PoolCounters::default();
        for r in &rank.records {
            match &r.ev {
                TraceEv::Fetch { blocks, remote, .. } | TraceEv::Store { blocks, remote, .. } => {
                    if *remote {
                        c.remote_blocks += *blocks as u64;
                    } else {
                        c.local_blocks += *blocks as u64;
                    }
                }
                TraceEv::PoolStats { hits, misses, recycled, discarded, copied_bytes } => {
                    last_pool = PoolCounters {
                        hits: *hits,
                        misses: *misses,
                        recycled: *recycled,
                        discarded: *discarded,
                        copied_bytes: *copied_bytes,
                    };
                }
                _ => {}
            }
        }
        c.pool = c.pool.merge(&last_pool);
    }
    c
}

/// Load `rank<K>.jsonl` for every rank of a TCP job spawned at
/// `spawned_at`. A journal's timestamps count from its tracer's
/// creation, which the file does not record; its last line is written
/// by the final flush, so the file's mtime minus the last timestamp
/// places the origin on the job's clock (to the few milliseconds of
/// the filesystem's timestamp granularity).
pub fn load_journals(dir: &Path, spawned_at: SystemTime) -> Result<Vec<RankJournal>, String> {
    (0..RANKS)
        .map(|rank| {
            let path = dir.join(format!("rank{rank}.jsonl"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let records = read_journal(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let mtime = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .map_err(|e| format!("stat {}: {e}", path.display()))?;
            let flushed_s = mtime.duration_since(spawned_at).map_or(0.0, |d| d.as_secs_f64());
            let last_ts = records.last().map_or(0, |r| r.ts_ns);
            Ok(RankJournal { origin_s: (flushed_s - secs(last_ts)).max(0.0), records })
        })
        .collect()
}

/// `canon_local`'s traced rep, run in a child of the harness
/// (`--traced-local`): the steps of `sortfile`'s local path — load each
/// PE's shard, canonical mergesort on the in-process cluster,
/// concatenate the per-PE outputs into `output` one record at a time —
/// driven from here so each PE's communicator can carry a tracer.
/// Leaves what `demsort-launch --trace` leaves: `rank<K>.jsonl` under
/// `trace_dir` (with the pool totals as a closing `pool` event) and a
/// `done:` line on stderr.
pub fn traced_local_job(
    w: &Workload,
    input: &Path,
    output: &Path,
    trace_dir: &Path,
) -> Result<(), String> {
    let machine = MachineConfig {
        pes: RANKS,
        disks_per_pe: DISKS,
        block_bytes: w.block_kib << 10,
        mem_bytes_per_pe: w.mem_mib << 20,
        cores_per_pe: CORES,
    };
    let cfg = SortConfig::new(machine, AlgoConfig::default()).map_err(|e| e.to_string())?;
    let total = std::fs::metadata(input).map_err(|e| format!("stat input: {e}"))?.len()
        / Record100::BYTES as u64;
    std::fs::create_dir_all(trace_dir)
        .map_err(|e| format!("create {}: {e}", trace_dir.display()))?;

    let storage =
        ClusterStorage::new_mem_sized(&cfg.machine, cfg.algo.effective_pool_blocks(&cfg.machine));
    let results = run_cluster(RANKS, |mut comm| {
        let rank = comm.rank();
        let tracer = Tracer::to_path(rank, &trace_dir.join(format!("rank{rank}.jsonl")))
            .map_err(|e| e.to_string())?;
        comm.set_tracer(tracer.clone());
        let shard = ranks::owned_range(rank, RANKS, total);
        let mut f = std::fs::File::open(input).map_err(|e| format!("open input: {e}"))?;
        f.seek(SeekFrom::Start(shard.start * Record100::BYTES as u64))
            .map_err(|e| e.to_string())?;
        let mut bytes = vec![0u8; (shard.end - shard.start) as usize * Record100::BYTES];
        f.read_exact(&mut bytes).map_err(|e| format!("read shard: {e}"))?;
        let mut recs = Vec::with_capacity((shard.end - shard.start) as usize);
        Record100::decode_slice(&bytes, &mut recs);
        drop(bytes);
        let local = ingest_input(storage.pe(rank), &recs).map_err(|e| e.to_string())?;
        drop(recs);
        let outcome = canonical_mergesort::<Record100>(&comm, &storage, &cfg, local, CORES)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((outcome, tracer))
    });
    let mut per_pe = Vec::with_capacity(RANKS);
    for r in results {
        per_pe.push(r?);
    }

    let file = std::fs::File::create(output).map_err(|e| format!("create output: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let mut buf = vec![0u8; Record100::BYTES];
    for (pe, (o, _)) in per_pe.iter().enumerate() {
        let recs = read_records::<Record100>(storage.pe(pe), &o.output.run, o.output.elems)
            .map_err(|e| e.to_string())?;
        for rec in recs {
            rec.encode(&mut buf);
            out.write_all(&buf).map_err(|e| format!("write output: {e}"))?;
        }
    }
    out.flush().map_err(|e| format!("flush output: {e}"))?;

    // Close each journal after the output is written, as a worker's
    // final barrier does, so the flush time marks the end of the work.
    for (pe, (_, tracer)) in per_pe.iter().enumerate() {
        let c = storage.pe(pe).pool().counters();
        tracer.instant(TraceEv::PoolStats {
            hits: c.hits,
            misses: c.misses,
            recycled: c.recycled,
            discarded: c.discarded,
            copied_bytes: c.copied_bytes,
        });
        tracer.flush();
    }
    let elements = per_pe.iter().map(|(o, _)| o.output.elems).sum();
    let runs = per_pe.first().map_or(0, |(o, _)| o.runs);
    let phases = per_pe.into_iter().map(|(o, _)| o.phases).collect();
    let report = assemble_report(&cfg, elements, Record100::BYTES, runs, phases);
    eprintln!(
        "done: {runs} runs, I/O volume {:.2} N, communication {:.2} N",
        report.io_volume_over_n(),
        report.comm_volume_over_n()
    );
    Ok(())
}

/// Name the table's rows as the metric registry does.
pub fn phase_metrics(t: &PhaseTable) -> Vec<(String, f64)> {
    let mut rows = vec![("phase.launch_ingest_s".to_string(), t.launch_ingest_s)];
    for (phase, s) in Phase::ALL.iter().zip(t.phase_s) {
        rows.push((format!("phase.{}_s", phase.key()), s));
    }
    rows.push(("phase.output_s".into(), t.output_s));
    rows.push(("phase.collective_s".into(), t.collective_s));
    rows.push(("phase.unattributed_s".into(), t.unattributed_s));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_types::json::Json;

    /// A real two-rank `demsort-launch --algo striped --replication 1
    /// --trace` run (20 000 records, 1 MiB memory, 4 KiB blocks),
    /// checked in with the wall clock and journal mtimes the harness
    /// saw: `tests/fixtures/two_rank/`.
    fn fixture() -> (f64, Vec<RankJournal>) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/two_rank");
        let meta = std::fs::read_to_string(dir.join("meta.json")).expect("meta.json");
        let meta = Json::parse(&meta).expect("meta parses");
        let f = |k: &str| meta.get(k).and_then(Json::as_f64).expect(k);
        let journals = (0..RANKS)
            .map(|rank| {
                let text = std::fs::read_to_string(dir.join(format!("rank{rank}.jsonl")))
                    .expect("journal");
                let records = read_journal(&text).expect("journal parses");
                demsort_types::trace::validate_rank_journal(&records).expect("journal invariants");
                let last_ts = records.last().expect("non-empty").ts_ns;
                RankJournal {
                    origin_s: f(&format!("rank{rank}_flushed_s")) - secs(last_ts),
                    records,
                }
            })
            .collect();
        (f("wall_s"), journals)
    }

    #[test]
    fn fixture_journals_parse_into_phases_collectives_and_counts() {
        let (wall_s, journals) = fixture();
        let t = phase_table(wall_s, &journals);
        let [run_formation, selection, all_to_all, final_merge] = t.phase_s;
        assert!(run_formation > 0.0 && final_merge > 0.0, "{t:?}");
        assert_eq!(
            (selection, all_to_all),
            (0.0, 0.0),
            "striped has no selection/all-to-all phase"
        );
        assert!(t.launch_ingest_s > 0.0 && t.output_s > 0.0, "{t:?}");
        assert!(t.collective_s > 0.0 && t.collective_s < wall_s, "{t:?}");

        let c = journal_counts(&journals);
        assert!(c.pool.hits > 0 && c.pool.misses > 0 && c.pool.copied_bytes > 0, "{c:?}");
        assert!(c.remote_blocks > 0 && c.local_blocks > 0, "replication stores remotely: {c:?}");
    }

    #[test]
    fn phase_rows_sum_to_the_wall_clock_within_two_percent() {
        let (wall_s, journals) = fixture();
        let t = phase_table(wall_s, &journals);
        let named = t.launch_ingest_s + t.phase_s.iter().sum::<f64>() + t.output_s;
        assert!(
            (named - wall_s).abs() <= 0.02 * wall_s,
            "named rows cover {named:.4} s of a {wall_s:.4} s wall: {t:?}"
        );
        assert!((named + t.unattributed_s - wall_s).abs() < 1e-9);
        let names: Vec<String> = phase_metrics(&t).into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().all(|n| crate::metrics::find(n).is_some()), "{names:?}");
    }

    #[test]
    fn nested_collectives_count_once_and_the_last_rank_sets_each_boundary() {
        let ev = |rank, ts_ns, op, ev| TraceRecord { rank, ts_ns, op, ev };
        let phase = |p| TraceEv::Phase { phase: p };
        let coll = || TraceEv::Collective { name: "barrier".into() };
        let fast = RankJournal {
            origin_s: 0.1,
            records: vec![
                ev(0, 100_000_000, TraceOp::Begin(1), phase(Phase::RunFormation)),
                ev(0, 150_000_000, TraceOp::Begin(2), coll()),
                ev(0, 160_000_000, TraceOp::Begin(3), coll()),
                ev(0, 170_000_000, TraceOp::End(3), coll()),
                ev(0, 250_000_000, TraceOp::End(2), coll()),
                ev(0, 300_000_000, TraceOp::End(1), phase(Phase::RunFormation)),
                ev(0, 310_000_000, TraceOp::Begin(4), phase(Phase::FinalMerge)),
                ev(0, 350_000_000, TraceOp::End(4), phase(Phase::FinalMerge)),
            ],
        };
        let slow = RankJournal {
            origin_s: 0.2,
            records: vec![
                ev(1, 100_000_000, TraceOp::Begin(1), phase(Phase::RunFormation)),
                ev(1, 400_000_000, TraceOp::End(1), phase(Phase::RunFormation)),
                ev(1, 450_000_000, TraceOp::Begin(2), phase(Phase::FinalMerge)),
                ev(1, 500_000_000, TraceOp::End(2), phase(Phase::FinalMerge)),
            ],
        };
        let t = phase_table(1.0, &[fast, slow]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t.collective_s, 0.1), "outer span only: {t:?}");
        assert!(close(t.launch_ingest_s, 0.3), "the slow rank enters run formation at 0.3: {t:?}");
        assert!(close(t.phase_s[0], 0.3) && close(t.phase_s[3], 0.05), "{t:?}");
        assert!(close(t.output_s, 0.3), "{t:?}");
        assert!(close(t.unattributed_s, 0.05), "the slow rank's gap between its phases: {t:?}");
    }
}
