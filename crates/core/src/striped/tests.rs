use super::merge::MergeJob;
use super::recovery::remap_runs;
use super::runs::{DiskOutput, RankView};
use super::*;
use crate::job::run_in_process;
use crate::runform::ingest_input;
use crate::validate::Fingerprint;
use demsort_net::run_cluster;
use demsort_storage::BlockId;
use demsort_types::wire::RankReport;
use demsort_types::{
    AlgoConfig, Element16, MachineConfig, PhaseStats, SortReport, TraceEv, TraceRecord, Tracer,
};
use demsort_workloads::{generate_all, generate_pe_input, InputSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `tiny(2)` at the smallest memory the machine accepts, 4 blocks per
/// PE: the derived fan-in `P·m/B` is 8, so 1200 records per PE (19
/// runs) need several merge groups and passes.
fn low_fan_in() -> MachineConfig {
    MachineConfig { mem_bytes_per_pe: 4 * 256, ..MachineConfig::tiny(2) }
}

/// A fresh path for one sort's output file (tests run in parallel, so
/// each sort takes its own).
fn out_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("demsort-striped-{}-{n}.dat", std::process::id()))
}

/// The records of an output file, which is removed.
fn take_output(path: &Path) -> Vec<Element16> {
    let bytes = std::fs::read(path).expect("read output");
    let _ = std::fs::remove_file(path);
    let mut recs = Vec::new();
    Element16::decode_slice(&bytes, &mut recs);
    recs
}

/// Sort `inputs[pe]` on each PE of the in-process cluster into an output
/// file: the sorted records, the report and every PE's outcome.
fn sort_into_file(
    cfg: &SortConfig,
    inputs: &[Vec<Element16>],
) -> (Vec<Element16>, SortReport, Vec<StripedOutcome>) {
    let path = out_path();
    let records = inputs.iter().map(|i| i.len() as u64).sum();
    let output = OutputFile { path: &path, records };
    let (report, per_pe, _) = run_in_process(cfg, Element16::BYTES, |comm, storage| {
        let rank = comm.rank();
        let input = ingest_input(storage.pe(rank), &inputs[rank])?;
        let cores = cfg.machine.cores_per_pe;
        let o = striped_mergesort::<Element16>(&comm, storage, cfg, input, cores, None, output)?;
        let phases = o.phases.clone();
        Ok((RankReport { rank, elems: o.written, runs: o.runs, phases, error: None }, o))
    })
    .expect("sort");
    (take_output(&path), report, per_pe)
}

/// Every PE's input of `spec` at seed 21.
fn inputs(spec: InputSpec, p: usize, local_n: usize) -> Vec<Vec<Element16>> {
    (0..p).map(|pe| generate_pe_input(spec, 21, pe, p, local_n)).collect()
}

fn sort_striped(
    machine: MachineConfig,
    local_n: usize,
    spec: InputSpec,
) -> (Vec<Element16>, Vec<StripedOutcome>) {
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
    let (got, _, per_pe) = sort_into_file(&cfg, &inputs(spec, cfg.machine.pes, local_n));
    (got, per_pe)
}

/// A sort on `p` PEs of `cfg` with a per-rank buffer tracer on the
/// communicator: the output file's records, and each rank's outcome
/// alongside its drained journal, so tests pin the merge interleaving
/// from the trace.
fn sort_traced(
    cfg: &SortConfig,
    cores: usize,
    local_n: usize,
) -> (Vec<Element16>, Vec<(StripedOutcome, Vec<TraceRecord>)>) {
    let p = cfg.machine.pes;
    let path = out_path();
    let output = OutputFile { path: &path, records: (p * local_n) as u64 };
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let storage_ref = &storage;
    let results: Vec<Result<(StripedOutcome, Vec<TraceRecord>)>> =
        run_cluster(p, move |mut comm| {
            let tracer = Tracer::to_buffer(comm.rank());
            comm.set_tracer(tracer.clone());
            let st = storage_ref.pe(comm.rank());
            let recs = generate_pe_input(InputSpec::Uniform, 21, comm.rank(), p, local_n);
            let input = ingest_input(st, &recs)?;
            let o = striped_mergesort::<Element16>(
                &comm,
                storage_ref,
                cfg,
                input,
                cores,
                None,
                output,
            )?;
            Ok((o, tracer.drain()))
        });
    let per_pe = results.into_iter().map(|r| r.expect("traced sort")).collect();
    (take_output(&path), per_pe)
}

fn sort_striped_traced(
    machine: MachineConfig,
    local_n: usize,
) -> Vec<(StripedOutcome, Vec<TraceRecord>)> {
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
    sort_traced(&cfg, cfg.machine.cores_per_pe, local_n).1
}

/// Merge `runs` striped runs of `per_pe` records per PE each — run `j`
/// the sorted uniform input of seed `j`, written by a [`DiskOutput`] —
/// back onto the disks with `MergeJob::merge_to_disks`: per rank, the
/// merged run's directory and how many pieces the merge emitted.
fn merged_on_disks(
    machine: MachineConfig,
    runs: u64,
    per_pe: usize,
) -> Vec<(StripedRun<u64>, usize)> {
    let p = machine.pes;
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let (storage, cfg) = (&storage, &cfg);
    let merged = run_cluster(p, move |mut comm| {
        let tracer = Tracer::to_buffer(comm.rank());
        comm.set_tracer(tracer.clone());
        let (me, view) = (comm.rank(), RankView::identity(comm.rank(), p));
        let st = storage.pe(me);
        let mut exchange = crate::psort::Exchange::new();
        let group = (0..runs)
            .map(|seed| {
                let mut all = generate_all(InputSpec::Uniform, seed, p, per_pe);
                all.sort_unstable();
                let mine = demsort_types::ranks::owned_range(me, p, all.len() as u64);
                let mut run = DiskOutput::new(&view, 0);
                run.append(
                    &comm,
                    st,
                    cfg,
                    &mut exchange,
                    &all[mine.start as usize..mine.end as usize],
                    1,
                )?;
                Ok(run.finish())
            })
            .collect::<Result<Vec<_>>>()?;
        let job = MergeJob {
            comm: &comm,
            view: &view,
            storage,
            cfg,
            cores: 1,
            k_max: cfg.machine.merge_fan_in(),
            free_consumed: true,
            tracer: comm.tracer(),
        };
        let (run, _) = job.merge_to_disks::<Element16>(&group, 0, 0)?;
        let emitted = |r: &TraceRecord| matches!(r.ev, TraceEv::MergeEmitted { .. });
        Ok((run, tracer.drain().iter().filter(|r| emitted(r)).count()))
    });
    let merged: Vec<(StripedRun<u64>, usize)> =
        merged.into_iter().map(|r: Result<_>| r.expect("merge to the disks")).collect();
    // The directory is identical on every PE.
    let (run0, _) = &merged[0];
    assert_eq!(run0.elems, runs * (p * per_pe) as u64);
    for (run, _) in &merged {
        assert_eq!((&run.owners, &run.blocks), (&run0.owners, &run0.blocks));
        assert_eq!((&run.first_keys, &run.counts), (&run0.first_keys, &run0.counts));
    }
    merged
}

fn check(machine: MachineConfig, local_n: usize, spec: InputSpec) {
    let p = machine.pes;
    let (got, outcomes) = sort_striped(machine, local_n, spec);
    let mut reference = generate_all(spec, 21, p, local_n);
    let checksum_in = Fingerprint::of_slice(&reference);
    reference.sort_unstable();
    let keys: Vec<u64> = got.iter().map(|e| e.key).collect();
    let ref_keys: Vec<u64> = reference.iter().map(|e| e.key).collect();
    assert_eq!(keys, ref_keys, "striped output keys ({spec:?}, P={p})");
    assert_eq!(Fingerprint::of_slice(&got), checksum_in, "permutation");
    // The PEs' parts of the file cover it.
    let written: u64 = outcomes.iter().map(|o| o.written).sum();
    assert_eq!(written, (p * local_n) as u64, "records written");
}

#[test]
fn sorts_single_run_case() {
    check(MachineConfig::tiny(2), 200, InputSpec::Uniform);
}

#[test]
fn sorts_multi_run_single_pass() {
    check(MachineConfig::tiny(3), 700, InputSpec::Uniform);
}

#[test]
fn sorts_adversarial_inputs() {
    check(MachineConfig::tiny(2), 600, InputSpec::ReverseSorted);
    check(MachineConfig::tiny(2), 600, InputSpec::Constant);
    check(MachineConfig::tiny(2), 600, InputSpec::Banded { block_elems: 16 });
}

#[test]
fn multi_pass_merging_with_tiny_fanin() {
    let (_, outcomes) = sort_striped(low_fan_in(), 1200, InputSpec::Uniform);
    assert!(outcomes[0].passes >= 2, "fan-in 8 over 19 runs needs ≥2 passes");
    check(low_fan_in(), 1200, InputSpec::Uniform);
}

#[test]
fn blocks_stripe_over_all_pes() {
    // A merge pass that writes back to the disks stripes its run over
    // every PE's disks.
    let merged = merged_on_disks(MachineConfig::tiny(3), 3, 300);
    let owners = &merged[0].0.owners;
    for pe in 0..3u32 {
        assert!(owners.contains(&pe), "every PE owns merged blocks");
    }
}

#[test]
fn phases_cover_run_formation_and_merging() {
    // External case: both phases recorded, counters attributed.
    let (_, outcomes) = sort_striped(MachineConfig::tiny(2), 700, InputSpec::Uniform);
    for o in &outcomes {
        assert!(o.passes >= 1, "external case must merge");
        let phases: Vec<Phase> = o.phases.iter().map(|(p, _)| *p).collect();
        assert_eq!(phases, vec![Phase::RunFormation, Phase::FinalMerge]);
        assert!(o.phases[0].1.io.bytes_written > 0, "runs written in phase 1");
        assert!(o.phases[1].1.io.bytes_read > 0, "merge reads in phase 2");
    }
    // Single-run case: only run formation.
    let (_, outcomes) = sort_striped(MachineConfig::tiny(2), 200, InputSpec::Uniform);
    for o in &outcomes {
        assert_eq!(o.passes, 0);
        let phases: Vec<Phase> = o.phases.iter().map(|(p, _)| *p).collect();
        assert_eq!(phases, vec![Phase::RunFormation]);
    }
}

#[test]
fn merge_phase_merges_instead_of_sorting() {
    // Single merge pass: the merge phase must charge *merge* work
    // only — n·⌈log2 R⌉ for the batch loser trees plus n·⌈log2 P⌉
    // for the exchange merges — and no sort comparisons at all
    // (the seed re-sorted every batch: ~n·log n per batch).
    let p = 2;
    let local_n = 700;
    let (_, outcomes) = sort_striped(MachineConfig::tiny(p), local_n, InputSpec::Uniform);
    assert_eq!(outcomes[0].passes, 1, "config must give a single merge pass");
    let runs = outcomes[0].runs;
    let n = (p * local_n) as u64;
    let mut sort_work = 0u64;
    let mut merge_work_total = 0u64;
    let mut merged = 0u64;
    for o in &outcomes {
        let (_, stats) =
            o.phases.iter().find(|(ph, _)| *ph == Phase::FinalMerge).expect("merge phase recorded");
        sort_work += stats.cpu.sort_work;
        merge_work_total += stats.cpu.merge_work;
        merged += stats.cpu.elements_merged;
    }
    assert_eq!(sort_work, 0, "batches are merged, never re-sorted");
    assert_eq!(merged, 2 * n, "each element merges once locally, once in the exchange");
    assert_eq!(
        merge_work_total,
        crate::merge::merge_work(n, runs) + crate::merge::merge_work(n, p),
        "merge comparisons are n·(⌈log2 R⌉ + ⌈log2 P⌉), R = {runs}"
    );
}

#[test]
fn next_batch_fetches_issued_before_current_batch_emits() {
    // Multi-batch single-pass merge: the trace must show batch
    // b+1's fetches handed to the block service before batch b's
    // piece is written — the fetch/merge overlap of Section IV-E.
    for (o, recs) in &sort_striped_traced(MachineConfig::tiny(2), 1200) {
        assert_eq!(o.passes, 1);
        let evs: Vec<TraceEv> = recs.iter().map(|r| r.ev.clone()).collect();
        let batches = evs.iter().filter(|e| matches!(e, TraceEv::MergeEmitted { .. })).count();
        assert!(batches >= 2, "config must force multiple merge batches, got {batches}");
        let pos = |want: TraceEv| evs.iter().position(|e| *e == want).expect("event");
        for b in 0..batches - 1 {
            assert!(
                pos(TraceEv::MergeIssued { pass: 0, group: 0, batch: b + 1, batches })
                    < pos(TraceEv::MergeEmitted { pass: 0, group: 0, batch: b, batches }),
                "batch {}'s fetches must be in flight before batch {b} emits: {evs:?}",
                b + 1
            );
        }
    }
}

#[test]
fn multi_piece_output_stripes_evenly_over_disks() {
    // A run merged back onto the disks is stitched from several emitted
    // pieces; each piece continues the round-robin striping where the
    // previous left off, so per-disk block counts differ by ≤ 1.
    let machine = MachineConfig::tiny(2);
    let dpp = machine.disks_per_pe;
    let mut per_disk = vec![0u64; machine.total_disks()];
    let (run, pieces) = merged_on_disks(machine, 3, 600).swap_remove(0);
    assert!(pieces >= 2, "test must cover a multi-piece run, got {pieces} piece(s)");
    for (g, id) in run.blocks.iter().enumerate() {
        per_disk[run.owners[g] as usize * dpp + id.disk as usize] += 1;
    }
    let (min, max) = (per_disk.iter().min().expect("disks"), per_disk.iter().max().expect("disks"));
    assert!(max - min <= 1, "stitched run must stripe evenly over all disks, got {per_disk:?}");
}

#[test]
fn merge_events_carry_pass_and_group_context() {
    // Fan-in 8 over 19 runs: several merge groups and passes emit
    // batches whose local indices restart at 0. The pass/group
    // tags must keep the trace unambiguous — batch 0 of every
    // (pass, group) appears exactly once.
    let traced = sort_striped_traced(low_fan_in(), 1200);
    let (o, recs) = &traced[0];
    assert!(o.passes >= 2, "fan-in 8 over 19 runs needs ≥2 passes");
    let passes_seen: std::collections::BTreeSet<usize> = recs
        .iter()
        .filter_map(|r| match &r.ev {
            TraceEv::MergeIssued { pass, .. } | TraceEv::MergeEmitted { pass, .. } => Some(*pass),
            _ => None,
        })
        .collect();
    assert_eq!(passes_seen.len(), o.passes, "every pass appears in the trace");
    let mut zero_batches: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    for r in recs {
        if let TraceEv::MergeIssued { pass, group, batch: 0, .. } = &r.ev {
            *zero_batches.entry((*pass, *group)).or_insert(0) += 1;
        }
    }
    assert!(zero_batches.len() >= 2, "trace must span several merge groups or passes");
    assert!(
        zero_batches.values().all(|&c| c == 1),
        "batch 0 of each (pass, group) must be unique, got {zero_batches:?}"
    );
}

#[test]
fn parallel_batch_merge_is_byte_identical_and_journals_thread_ranges() {
    // The same input sorted with cores = 1 and cores = 4: records,
    // merge comparisons, and split-selection determinism must all
    // match, and the cores = 4 journal must carry valid `merge_par`
    // thread-range spans (complete per-batch sets summing to the
    // batch size — validate_rank_journal enforces both).
    let p = 2;
    let local_n = 1200;
    let run = |cores: usize| {
        // Tiny inputs sit below the engagement threshold; force the
        // fan-out so the byte-identity and journal pins stay
        // meaningful at test scale.
        let algo = AlgoConfig { par_merge_min_per_thread: 1, ..AlgoConfig::default() };
        let cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
        sort_traced(&cfg, cores, local_n)
    };
    let (seq, seq_pe) = run(1);
    let (par, par_pe) = run(4);
    assert_eq!(par, seq, "cores = 4 output must be byte-identical to cores = 1");
    let merge_phase = |o: &StripedOutcome| {
        o.phases
            .iter()
            .find(|(ph, _)| *ph == Phase::FinalMerge)
            .map(|(_, s)| s.cpu)
            .expect("merge phase recorded")
    };
    for ((so, _), (po, precs)) in seq_pe.iter().zip(&par_pe) {
        let (sm, pm) = (merge_phase(so), merge_phase(po));
        assert_eq!(
            pm.merge_work, sm.merge_work,
            "per-thread merge comparisons must sum to the single-thread bound"
        );
        assert_eq!(pm.sort_work, 0, "parallel batches are merged, never re-sorted");
        assert_eq!(pm.elements_merged, sm.elements_merged);
        assert!(pm.split_probes > 0, "parallel merge must account split probes");
        assert_eq!(sm.split_probes, 0, "cores = 1 never splits");
        demsort_types::trace::validate_rank_journal(precs).expect("valid journal");
        let spans: Vec<(usize, usize)> = precs
            .iter()
            .filter_map(|r| match (&r.op, &r.ev) {
                (
                    demsort_types::trace::TraceOp::Begin(_),
                    TraceEv::MergePar { thread, threads, .. },
                ) => Some((*thread, *threads)),
                _ => None,
            })
            .collect();
        assert!(!spans.is_empty(), "cores = 4 merge must journal merge_par spans");
        assert!(
            spans.iter().any(|&(_, threads)| threads > 1),
            "at least one batch must actually fan out, got {spans:?}"
        );
    }
    // Split selection is deterministic: both ranks of the parallel
    // run charge probes, and identical runs charge identically.
    let (_, par_pe2) = run(4);
    for ((a, _), (b, _)) in par_pe.iter().zip(&par_pe2) {
        assert_eq!(
            merge_phase(a).split_probes,
            merge_phase(b).split_probes,
            "split probes deterministic"
        );
    }
}

#[test]
fn remap_reroutes_dead_owner_blocks_to_first_live_replica() {
    let run = StripedRun::<u64> {
        owners: vec![0, 1, 2],
        blocks: vec![BlockId::new(0, 0), BlockId::new(0, 1), BlockId::new(0, 2)],
        first_keys: vec![0, 10, 20],
        counts: vec![5, 5, 5],
        replicas: vec![
            vec![(1, BlockId::new(1, 0))],
            vec![(2, BlockId::new(1, 1))],
            vec![(3, BlockId::new(1, 2))],
        ],
        elems: 15,
    };
    let dead = vec![false, true, false, false];
    let (remapped, served) = remap_runs(std::slice::from_ref(&run), &dead, 2).expect("remap");
    assert_eq!(remapped[0].owners, vec![0, 2, 2], "dead owner replaced by its replica");
    assert_eq!(remapped[0].blocks[1], BlockId::new(1, 1), "replica's block id substituted");
    assert_eq!(remapped[0].blocks[0], BlockId::new(0, 0), "live owners untouched");
    assert_eq!(served, 1, "rank 2 re-serves exactly the dead rank's block");
    // Owner and its only replica both dead → unrecoverable.
    let dead = vec![false, true, true, false];
    assert!(remap_runs(&[run], &dead, 0).is_err(), "no live replica must fail");
}

#[test]
fn replication_off_and_on_produce_identical_output() {
    let p = 3;
    let inputs = inputs(InputSpec::Uniform, p, 700);
    let plain_cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
    let (a, _, plain) = sort_into_file(&plain_cfg, &inputs);
    let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
    let repl_cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
    let (b, _, repl) = sort_into_file(&repl_cfg, &inputs);
    assert_eq!(a, b, "replication must not perturb the sorted output");
    // The replicas' pieces are run-formation communication.
    let sent = |per_pe: &[StripedOutcome]| {
        per_pe.iter().map(|o| o.phases[0].1.comm.bytes_sent).sum::<u64>()
    };
    assert!(
        sent(&repl) > sent(&plain),
        "replica pieces must show up in the run-formation comm counters"
    );
}

#[test]
fn replicated_sort_survives_a_rank_death_at_merge_start() {
    use demsort_net::{build_mesh, run_cluster_over, LocalTransport};
    use std::sync::Mutex;
    let p = 4;
    let victim = 2usize;
    let inputs = inputs(InputSpec::Uniform, p, 700);

    // Reference: the same input sorted undisturbed.
    let plain_cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
    let (want, _, _) = sort_into_file(&plain_cfg, &inputs);
    let mut want_bytes = vec![0u8; want.len() * Element16::BYTES];
    Element16::encode_slice(&want, &mut want_bytes);

    let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
    let cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
    // An output file whose stale bytes every survivor's part of the
    // re-merge overwrites.
    let path = out_path();
    std::fs::write(&path, vec![0xAA; want_bytes.len()]).expect("stale output");
    let output = OutputFile { path: &path, records: want.len() as u64 };
    let storage = ClusterStorage::new_mem(&cfg.machine);
    // Pre-built survivor endpoints: the in-process stand-in for
    // the epoch cut + subgroup regroup the TCP harness performs
    // (rank `victim` dies, so {0, 1, 3} renumber as {0, 1, 2}).
    let spare: Mutex<Vec<Option<Communicator>>> =
        Mutex::new(build_mesh(p - 1).into_iter().map(Some).collect());

    // The main mesh carries a receive timeout: a survivor that
    // abandons a collective mid-round keeps its channels alive, so
    // without a timeout its ring neighbour would block forever
    // (the TCP transport's read timeout plays this role on the
    // real cluster).
    let comms: Vec<Communicator> =
        LocalTransport::mesh_with_timeout(p, std::time::Duration::from_secs(2))
            .into_iter()
            .map(|t| Communicator::new(Box::new(t)))
            .collect();
    let (storage_ref, cfg_ref, spare_ref, inputs) = (&storage, &cfg, &spare, &inputs);
    let results: Vec<Result<StripedOutcome>> = run_cluster_over(comms, move |comm| {
        let me = comm.rank();
        let input = ingest_input(storage_ref.pe(me), &inputs[me])?;
        let hooks = ResilientHooks {
            dead_set: Box::new(move || {
                let mut dead = vec![false; p];
                dead[victim] = true;
                dead
            }),
            subgroup: Box::new(move |members: &[usize]| {
                assert_eq!(members, [0, 1, 3], "survivor membership");
                let idx = members.iter().position(|&r| r == me).expect("survivor");
                Ok(spare_ref.lock().expect("spare mesh")[idx]
                    .take()
                    .expect("subgroup built once per survivor"))
            }),
            on_merge_start: Some(Box::new(move |rank| rank != victim)),
        };
        striped_mergesort::<Element16>(
            &comm,
            storage_ref,
            cfg_ref,
            input,
            cfg_ref.machine.cores_per_pe,
            Some(hooks),
            output,
        )
    });

    // The victim abandoned; every survivor finished degraded.
    assert!(results[victim].is_err(), "victim must abandon at merge start");
    let mut survivors = Vec::new();
    for (r, res) in results.into_iter().enumerate() {
        if r == victim {
            continue;
        }
        let o = res.unwrap_or_else(|e| panic!("survivor {r} must finish degraded: {e}"));
        survivors.push(o);
    }
    // The three renumbered survivors wrote the whole file between
    // them, byte-identical to the undisturbed sort.
    let written: u64 = survivors.iter().map(|o| o.written).sum();
    assert_eq!(written, want.len() as u64, "the survivors write every record");
    let got = std::fs::read(&path).expect("read degraded output");
    let _ = std::fs::remove_file(&path);
    assert!(got == want_bytes, "the degraded file must equal the undisturbed output");
}

#[test]
fn first_keys_that_lie_are_an_error_not_a_panic() {
    // One run of three full blocks with keys from 1000 on. Its
    // directory — which peers send — may claim first keys 0, 1, 2: then
    // the first batch (two blocks) merges nothing below the claimed
    // threshold 2 and would carry two blocks above it, more than a
    // directory that matches its blocks ever lets through.
    let machine = MachineConfig { mem_bytes_per_pe: 4 * 256, ..MachineConfig::tiny(1) };
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let rpb = crate::recio::records_per_block::<Element16>(cfg.machine.block_bytes);
    let recs: Vec<Element16> = (0..3 * rpb as u64).map(|i| Element16::new(1000 + i, i)).collect();
    let blocks = crate::recio::write_records(storage.pe(0), &recs).expect("write").run.blocks;
    let path = out_path();
    let output = OutputFile { path: &path, records: recs.len() as u64 };
    let merge = |first_keys: Vec<u64>| {
        let run = StripedRun {
            owners: vec![0; 3],
            blocks: blocks.clone(),
            first_keys,
            counts: vec![rpb as u32; 3],
            replicas: Vec::new(),
            elems: recs.len() as u64,
        };
        let (storage, cfg) = (&storage, &cfg);
        run_cluster(1, move |comm| {
            let view = RankView::identity(0, 1);
            let job = MergeJob {
                comm: &comm,
                view: &view,
                storage,
                cfg,
                cores: 1,
                k_max: cfg.machine.merge_fan_in(),
                free_consumed: false,
                tracer: comm.tracer(),
            };
            job.run::<Element16>(vec![run.clone(), StripedRun::empty()], output)
        })
        .remove(0)
    };

    let truthful = merge(recs.iter().step_by(rpb).map(|r| r.key).collect());
    assert_eq!(truthful.expect("merge").0, recs.len() as u64);
    assert_eq!(take_output(&path), recs, "a directory that matches its blocks merges");

    let err = merge(vec![0, 1, 2]).map(|_| ()).expect_err("lying first keys");
    let _ = std::fs::remove_file(&path);
    let text = err.to_string();
    assert!(matches!(err, Error::Validation(_)), "{text}");
    assert!(text.contains("rank 0: merge pass 0, group 0, run 0: 32 carried records"), "{text}");
}

#[test]
fn cluster_driver_report_aggregates_striped_phases() {
    let cfg = SortConfig::new(MachineConfig::tiny(2), AlgoConfig::default()).expect("valid");
    let (_, report, _) = sort_into_file(&cfg, &inputs(InputSpec::Uniform, 2, 700));
    assert_eq!(report.elements, 2 * 700);
    assert_eq!(report.pes, 2);
    assert!(report.runs > 1, "external case");
    // Striped I/O: two passes, each record read and written once per
    // pass.
    let io_over_n = report.io_volume_over_n();
    assert!(io_over_n > 3.0, "two-pass external I/O, got {io_over_n}");
    // Run formation exchanges and stripes every run, and the last pass
    // exchanges every batch once: three communications of the data.
    assert!(report.comm_volume_over_n() > 1.0);
}

#[test]
fn replica_buffers_recycle_across_runs() {
    // Twelve runs of 64 blocks per PE, each block replicated once. What
    // run formation keeps in flight per run is a group's reads and the
    // striped write's copies — a window of whole ones being written and
    // the few that wait for a piece from another PE — and that, not
    // the 1 536 copies written, is what it may allocate: a copy's
    // buffer goes back to the pool once its write retires, and the next
    // copy is encoded or assembled into it. (Twice the working set, as
    // in `runform::block_buffers_recycle_across_runs`; it was 832
    // misses when replication dropped the buffers it read back.)
    let machine = MachineConfig {
        pes: 2,
        disks_per_pe: 2,
        block_bytes: 4 << 10,
        mem_bytes_per_pe: 256 << 10,
        cores_per_pe: 1,
    };
    let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
    let cfg = SortConfig::new(machine, algo).expect("valid config");
    let (p, bpr, runs) = (cfg.machine.pes, cfg.machine.mem_blocks_per_pe(), 12);
    let local_n = runs * bpr * crate::recio::records_per_block::<Element16>(4 << 10);
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let (storage, cfg) = (&storage, &cfg);
    let misses = run_cluster(p, move |c| {
        let st = storage.pe(c.rank());
        let recs = generate_pe_input(InputSpec::Uniform, 11, c.rank(), p, local_n);
        let input = ingest_input(st, &recs).expect("ingest");
        let before = st.pool().counters();
        // Stop where run formation and replication end.
        let hooks = ResilientHooks {
            dead_set: Box::new(Vec::new),
            subgroup: Box::new(|_| Err(Error::comm("no regroup in this test"))),
            on_merge_start: Some(Box::new(|_| false)),
        };
        // Twelve runs: the output is opened by the last merge, which
        // never starts.
        let output = OutputFile { path: Path::new("never-opened.dat"), records: 0 };
        let stopped =
            striped_mergesort::<Element16>(&c, storage, cfg, input, 1, Some(hooks), output);
        assert!(stopped.is_err(), "abandoned at merge start");
        st.pool().counters().misses - before.misses
    });
    for misses in misses {
        let in_flight = 2 * bpr as u64;
        assert!(misses <= 2 * in_flight, "{misses} misses for {in_flight} blocks in flight");
    }
}

#[test]
fn replicas_ride_the_striping_all_to_all() {
    // Run formation at replication f against f = 0: P ranks of two
    // disks, 256-byte blocks (16 records) and 48 blocks of memory per
    // PE, three runs. Each rank's part of a run is 48 whole blocks, a
    // whole number of the 2·P-block striping cycle at P = 2, 3 and 4,
    // so for every copy index a part holds the same share, (P−1)/P, of
    // blocks whose holder is another rank.
    //
    // Stated before running: every copy is written by its holder from
    // the records the run's one all-to-all brought it. So bytes_read
    // and the message count equal f = 0's, bytes_written is (f + 1)
    // times f = 0's, and bytes_sent exceeds f = 0's by exactly
    // f·(P−1)/P of the run bytes plus two overheads: the 16-byte header
    // of each extra piece, and the 36-byte directory entry of each
    // replica, which the ring allgather forwards P−1 times.
    const BLOCKS_PER_PART: u64 = 48;
    const RUNS: u64 = 3;
    const RPB: u64 = 16;
    const HEADER: u64 = 16;
    const DIR_ENTRY: u64 = 20 + 16;
    let rec = Element16::BYTES as u64;
    for (p, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 1), (4, 2)] {
        let machine = MachineConfig {
            pes: p,
            disks_per_pe: 2,
            block_bytes: (RPB * rec) as usize,
            mem_bytes_per_pe: (BLOCKS_PER_PART * RPB * rec) as usize,
            cores_per_pe: 1,
        };
        let local_n = (RUNS * BLOCKS_PER_PART * RPB) as usize;
        let inputs = inputs(InputSpec::Uniform, p, local_n);
        let run_formation = |f: usize| {
            let algo = AlgoConfig { replication: f, ..AlgoConfig::default() };
            let cfg = SortConfig::new(machine.clone(), algo).expect("valid");
            let (out, _, per_pe) = sort_into_file(&cfg, &inputs);
            assert_eq!(per_pe[0].runs, RUNS as usize, "P = {p}");
            let total =
                per_pe.iter().fold(PhaseStats::default(), |all, o| all.merge(&o.phases[0].1));
            (out, total)
        };
        let (plain_out, plain) = run_formation(0);
        let (repl_out, repl) = run_formation(f);
        assert!(repl_out == plain_out, "P = {p}, f = {f}: replication changed the output");

        let (np, nf) = (p as u64, f as u64);
        let run_bytes = RUNS * np * BLOCKS_PER_PART * RPB * rec;
        let extra_pieces = RUNS * nf * (np - 1) * BLOCKS_PER_PART;
        let replicas = RUNS * nf * np * BLOCKS_PER_PART;
        let extra = nf * (np - 1) * run_bytes / np
            + extra_pieces * HEADER
            + replicas * DIR_ENTRY * (np - 1);
        let at = format!("P = {p}, f = {f}");
        assert_eq!(repl.io.bytes_read, plain.io.bytes_read, "{at}: nothing is read back");
        assert_eq!(repl.io.bytes_written, (nf + 1) * plain.io.bytes_written, "{at}");
        assert_eq!(repl.comm.messages, plain.comm.messages, "{at}: no extra round");
        assert_eq!(repl.comm.bytes_sent, plain.comm.bytes_sent + extra, "{at}");
        assert_eq!(repl.comm.bytes_recv, repl.comm.bytes_sent, "{at}");
    }
}
