use super::recovery::remap_runs;
use super::*;
use demsort_net::run_cluster;
use demsort_storage::BlockId;
use demsort_types::{AlgoConfig, Element16, MachineConfig, TraceEv, Tracer};
use demsort_workloads::{checksum_elements, generate_all, generate_pe_input, InputSpec};

fn sort_striped(
    p: usize,
    local_n: usize,
    spec: InputSpec,
    k_max: Option<usize>,
) -> (Vec<Element16>, Vec<StripedOutcome<Element16>>, std::sync::Arc<ClusterStorage>) {
    let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
    let outcome = striped_sort_cluster::<Element16, _>(
        &cfg,
        |pe, p| generate_pe_input(spec, 21, pe, p, local_n),
        k_max,
    )
    .expect("sort");
    let got = read_striped::<Element16>(&outcome.storage, &outcome.per_pe[0].output).expect("read");
    (got, outcome.per_pe, outcome.storage)
}

/// [`sort_striped`] with a per-rank buffer tracer on the
/// communicator: returns each rank's outcome alongside its drained
/// journal, so tests pin the merge interleaving from the trace.
fn sort_striped_traced(
    p: usize,
    local_n: usize,
    spec: InputSpec,
    k_max: Option<usize>,
) -> Vec<(StripedOutcome<Element16>, Vec<demsort_types::TraceRecord>)> {
    let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let storage_ref = &storage;
    let results: Vec<Result<(StripedOutcome<Element16>, Vec<demsort_types::TraceRecord>)>> =
        run_cluster(p, move |mut comm| {
            let tracer = Tracer::to_buffer(comm.rank());
            comm.set_tracer(tracer.clone());
            let st = storage_ref.pe(comm.rank());
            let input = ingest_input(st, &generate_pe_input(spec, 21, comm.rank(), p, local_n))?;
            let o = striped_mergesort::<Element16>(
                &comm,
                storage_ref,
                &cfg,
                input,
                cfg.machine.cores_per_pe,
                k_max,
            )?;
            Ok((o, tracer.drain()))
        });
    results.into_iter().map(|r| r.expect("traced sort")).collect()
}

fn check(p: usize, local_n: usize, spec: InputSpec, k_max: Option<usize>) {
    let (got, outcomes, _storage) = sort_striped(p, local_n, spec, k_max);
    let mut reference = generate_all(spec, 21, p, local_n);
    let checksum_in = checksum_elements(&reference);
    reference.sort_unstable();
    let keys: Vec<u64> = got.iter().map(|e| e.key).collect();
    let ref_keys: Vec<u64> = reference.iter().map(|e| e.key).collect();
    assert_eq!(keys, ref_keys, "striped output keys ({spec:?}, P={p})");
    assert_eq!(checksum_elements(&got), checksum_in, "permutation");
    // Output directory identical on all PEs.
    for o in &outcomes {
        assert_eq!(o.output.elems, outcomes[0].output.elems);
        assert_eq!(o.output.blocks.len(), outcomes[0].output.blocks.len());
    }
}

#[test]
fn sorts_single_run_case() {
    check(2, 200, InputSpec::Uniform, None);
}

#[test]
fn sorts_multi_run_single_pass() {
    check(3, 700, InputSpec::Uniform, None);
}

#[test]
fn sorts_adversarial_inputs() {
    check(2, 600, InputSpec::ReverseSorted, None);
    check(2, 600, InputSpec::Constant, None);
    check(2, 600, InputSpec::Banded { block_elems: 16 }, None);
}

#[test]
fn multi_pass_merging_with_tiny_fanin() {
    let (_, outcomes, _) = sort_striped(2, 1200, InputSpec::Uniform, Some(2));
    assert!(outcomes[0].passes >= 2, "fan-in 2 over ≥3 runs needs ≥2 passes");
    check(2, 1200, InputSpec::Uniform, Some(2));
}

#[test]
fn blocks_stripe_over_all_pes() {
    let (_, outcomes, _) = sort_striped(3, 900, InputSpec::Uniform, None);
    let owners = &outcomes[0].output.owners;
    for pe in 0..3u32 {
        assert!(owners.contains(&pe), "every PE owns output blocks");
    }
}

#[test]
fn phases_cover_run_formation_and_merging() {
    // External case: both phases recorded, counters attributed.
    let (_, outcomes, _) = sort_striped(2, 700, InputSpec::Uniform, None);
    for o in &outcomes {
        assert!(o.passes >= 1, "external case must merge");
        let phases: Vec<Phase> = o.phases.iter().map(|(p, _)| *p).collect();
        assert_eq!(phases, vec![Phase::RunFormation, Phase::FinalMerge]);
        assert!(o.phases[0].1.io.bytes_written > 0, "runs written in phase 1");
        assert!(o.phases[1].1.io.bytes_read > 0, "merge reads in phase 2");
    }
    // Single-run case: only run formation.
    let (_, outcomes, _) = sort_striped(2, 200, InputSpec::Uniform, None);
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
    let (_, outcomes, _) = sort_striped(p, local_n, InputSpec::Uniform, None);
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
    for (o, recs) in &sort_striped_traced(2, 1200, InputSpec::Uniform, None) {
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
    // The merged output is stitched from several emitted pieces;
    // each piece continues the round-robin striping where the
    // previous left off, so per-disk block counts differ by ≤ 1.
    let p = 2;
    let traced = sort_striped_traced(p, 1200, InputSpec::Uniform, None);
    let (o, recs) = &traced[0];
    let pieces = recs.iter().filter(|r| matches!(r.ev, TraceEv::MergeEmitted { .. })).count();
    assert!(pieces >= 2, "test must cover a multi-piece run, got {pieces} piece(s)");
    let cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
    let dpp = cfg.machine.disks_per_pe;
    let mut per_disk = vec![0u64; cfg.machine.total_disks()];
    for (g, id) in o.output.blocks.iter().enumerate() {
        per_disk[o.output.owners[g] as usize * dpp + id.disk as usize] += 1;
    }
    let (min, max) = (per_disk.iter().min().expect("disks"), per_disk.iter().max().expect("disks"));
    assert!(max - min <= 1, "stitched run must stripe evenly over all disks, got {per_disk:?}");
}

#[test]
fn merge_events_carry_pass_and_group_context() {
    // Fan-in 2 over ≥3 runs: several merge groups and passes emit
    // batches whose local indices restart at 0. The pass/group
    // tags must keep the trace unambiguous — batch 0 of every
    // (pass, group) appears exactly once.
    let traced = sort_striped_traced(2, 1200, InputSpec::Uniform, Some(2));
    let (o, recs) = &traced[0];
    assert!(o.passes >= 2, "fan-in 2 over ≥3 runs needs ≥2 passes");
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
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage_ref = &storage;
        let cfg_ref = &cfg;
        let results: Vec<Result<(StripedOutcome<Element16>, Vec<demsort_types::TraceRecord>)>> =
            run_cluster(p, move |mut comm| {
                let tracer = Tracer::to_buffer(comm.rank());
                comm.set_tracer(tracer.clone());
                let st = storage_ref.pe(comm.rank());
                let input = ingest_input(
                    st,
                    &generate_pe_input(InputSpec::Uniform, 21, comm.rank(), p, local_n),
                )?;
                let o = striped_mergesort::<Element16>(
                    &comm,
                    storage_ref,
                    cfg_ref,
                    input,
                    cores,
                    None,
                )?;
                Ok((o, tracer.drain()))
            });
        let per_pe: Vec<_> = results.into_iter().map(|r| r.expect("sort")).collect();
        let got = read_striped::<Element16>(&storage, &per_pe[0].0.output).expect("read");
        (got, per_pe)
    };
    let (seq, seq_pe) = run(1);
    let (par, par_pe) = run(4);
    assert_eq!(par, seq, "cores = 4 output must be byte-identical to cores = 1");
    let merge_phase = |o: &StripedOutcome<Element16>| {
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
    let gen = |pe: usize, p: usize| generate_pe_input(InputSpec::Uniform, 21, pe, p, 700);
    let plain_cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
    let plain = striped_sort_cluster::<Element16, _>(&plain_cfg, gen, None).expect("sort");
    let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
    let repl_cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
    let repl = striped_sort_cluster::<Element16, _>(&repl_cfg, gen, None).expect("sort");
    let a = read_striped::<Element16>(&plain.storage, &plain.per_pe[0].output).expect("read");
    let b = read_striped::<Element16>(&repl.storage, &repl.per_pe[0].output).expect("read");
    assert_eq!(a, b, "replication must not perturb the sorted output");
    // The replica stores are charged as run-formation communication.
    let sent = |o: &StripedClusterOutcome<Element16>| {
        o.per_pe.iter().map(|o| o.phases[0].1.comm.bytes_sent).sum::<u64>()
    };
    assert!(
        sent(&repl) > sent(&plain),
        "replica stores must show up in the run-formation comm counters"
    );
}

#[test]
fn replicated_sort_survives_a_rank_death_at_merge_start() {
    use demsort_net::{build_mesh, run_cluster_over, LocalTransport};
    use std::sync::Mutex;
    let p = 4;
    let victim = 2usize;
    let gen = |pe: usize, p: usize| generate_pe_input(InputSpec::Uniform, 21, pe, p, 700);

    // Reference: the same input sorted undisturbed.
    let plain_cfg = SortConfig::new(MachineConfig::tiny(p), AlgoConfig::default()).expect("valid");
    let plain = striped_sort_cluster::<Element16, _>(&plain_cfg, gen, None).expect("sort");
    let want = read_striped::<Element16>(&plain.storage, &plain.per_pe[0].output).expect("read");

    let algo = AlgoConfig { replication: 1, ..AlgoConfig::default() };
    let cfg = SortConfig::new(MachineConfig::tiny(p), algo).expect("valid");
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
    let (storage_ref, cfg_ref, spare_ref) = (&storage, &cfg, &spare);
    let results: Vec<Result<StripedOutcome<Element16>>> = run_cluster_over(comms, move |comm| {
        let me = comm.rank();
        let input = ingest_input(storage_ref.pe(me), &gen(me, p))?;
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
        striped_mergesort_resilient::<Element16>(
            &comm,
            storage_ref,
            cfg_ref,
            input,
            cfg_ref.machine.cores_per_pe,
            None,
            Some(hooks),
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
        assert!(
            o.output.owners.iter().all(|&own| own as usize != victim),
            "no output block may live on the dead rank"
        );
        survivors.push(o);
    }
    for o in &survivors {
        assert_eq!(o.output.blocks.len(), survivors[0].output.blocks.len());
        assert_eq!(o.output.elems, survivors[0].output.elems);
    }
    // Degraded output: byte-identical record stream to the
    // undisturbed sort.
    let got = read_striped::<Element16>(&storage, &survivors[0].output).expect("read");
    assert_eq!(got, want, "degraded completion must reproduce the undisturbed output");
}

#[test]
fn cluster_driver_report_aggregates_striped_phases() {
    let cfg = SortConfig::new(MachineConfig::tiny(2), AlgoConfig::default()).expect("valid");
    let outcome = striped_sort_cluster::<Element16, _>(
        &cfg,
        |pe, p| generate_pe_input(InputSpec::Uniform, 21, pe, p, 700),
        None,
    )
    .expect("sort");
    assert_eq!(outcome.report.elements, 2 * 700);
    assert_eq!(outcome.report.pes, 2);
    assert!(outcome.report.runs > 1, "external case");
    // Striped I/O: 2 passes = ~4N plus the re-striping writes.
    let io_over_n = outcome.report.io_volume_over_n();
    assert!(io_over_n > 3.0, "two-pass external I/O, got {io_over_n}");
    // Striping costs communication on every pass ("4-5
    // communications for two passes").
    assert!(outcome.report.comm_volume_over_n() > 1.0);
}

#[test]
fn replica_buffers_recycle_across_runs() {
    // Twelve runs of 64 blocks per PE, each block replicated once. What
    // run formation keeps in flight per run is a group's reads and the
    // blocks assembled for the striped write, and replication a window
    // of the run's own blocks read back plus the window the buddy
    // stages — and that, not the 768 blocks replicated, is what they
    // may allocate: a replicated block's buffer goes back to the pool
    // once the last buddy has stored it. (Twice the working set, as in
    // `runform::block_buffers_recycle_across_runs`; it was 832 misses
    // when the buffers were dropped.)
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
        let stopped =
            striped_mergesort_resilient::<Element16>(&c, storage, cfg, input, 1, None, Some(hooks));
        assert!(stopped.is_err(), "abandoned at merge start");
        st.pool().counters().misses - before.misses
    });
    for misses in misses {
        let in_flight = 2 * bpr as u64;
        assert!(misses <= 2 * in_flight, "{misses} misses for {in_flight} blocks in flight");
    }
}
