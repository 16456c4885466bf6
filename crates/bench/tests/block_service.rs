//! Regression tests for the unified [`ClusterStorage`] block service
//! across transports.
//!
//! The selection probe counters (sample hits, cache hits, local and
//! remote block fetches) are algorithm-level quantities — Section
//! IV-A's bottleneck analysis and the Appendix B ablation depend on
//! them — so they must be **identical** whether the cluster is the
//! in-process shared-memory view or real single-rank views probing
//! each other over TCP sockets. Likewise, `read_striped` must
//! reconstruct a striped run from any single rank, fetching peers'
//! blocks through the wire.

use demsort_core::ctx::{ClusterStorage, MeshView};
use demsort_core::extselect::{select_rank_external, SelectionStats};
use demsort_core::rundir::build_directory;
use demsort_core::runform::{form_runs, ingest_input};
use demsort_core::striped::{read_striped, striped_mergesort};
use demsort_net::tcp::{loopback_mesh, TcpOptions, TcpTransport};
use demsort_net::{run_cluster, Communicator};
use demsort_storage::MemBackend;
use demsort_types::{ranks, AlgoConfig, Element16, MachineConfig, SortConfig, Tracer};
use demsort_workloads::{generate_all, generate_pe_input, InputSpec};
use std::sync::Arc;

const P: usize = 3;
const LOCAL_N: usize = 700;
const SEED: u64 = 11;

/// A worker's view over `tcp`, as `procs::run_rank` builds it.
fn single_rank_storage(cfg: &SortConfig, tcp: &TcpTransport) -> MeshView {
    let pool_blocks = cfg.algo.effective_pool_blocks(&cfg.machine);
    let disks = Arc::new(MemBackend::new(cfg.machine.disks_per_pe));
    ClusterStorage::over_mesh(tcp, &cfg.machine, pool_blocks, disks, Tracer::off())
}

#[test]
fn probe_counters_identical_across_local_and_tcp_transports() {
    let cfg = SortConfig::new(MachineConfig::tiny(P), AlgoConfig::default()).expect("valid");

    // --- in-process reference: shared storage, direct-memory probes ---
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let st_ref = &storage;
    let cfg2 = cfg.clone();
    let local_stats: Vec<SelectionStats> = run_cluster(P, move |c| {
        let st = st_ref.pe(c.rank());
        let recs = generate_pe_input(InputSpec::Uniform, SEED, c.rank(), P, LOCAL_N);
        let input = ingest_input(st, &recs).expect("ingest");
        let out = form_runs::<Element16>(&c, st, &cfg2, input, 1).expect("form");
        let dir = build_directory(&c, out.local).expect("directory");
        let r = ranks::owned_range(c.rank(), P, dir.total_elems()).start;
        let (_, stats) =
            select_rank_external(st_ref, c.rank(), &dir, r, &cfg2.algo).expect("select");
        stats
    });
    assert!(
        local_stats.iter().any(|s| s.blocks_remote > 0),
        "the reference must include cross-PE probes"
    );

    // --- TCP: single-rank views, probes cross real sockets ---
    let mesh = loopback_mesh(P, TcpOptions::default()).expect("mesh");
    let cfg3 = &cfg;
    let tcp_stats: Vec<SelectionStats> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(rank, tcp)| {
                s.spawn(move || {
                    let storage = single_rank_storage(cfg3, &tcp);
                    let comm = Communicator::new(Box::new(tcp.clone()));
                    let st = storage.pe(rank);
                    let recs = generate_pe_input(InputSpec::Uniform, SEED, rank, P, LOCAL_N);
                    let input = ingest_input(st, &recs).expect("ingest");
                    let out = form_runs::<Element16>(&comm, st, cfg3, input, 1).expect("form");
                    let dir = build_directory(&comm, out.local).expect("directory");
                    let r = ranks::owned_range(rank, P, dir.total_elems()).start;
                    let (_, stats) =
                        select_rank_external(&storage, rank, &dir, r, &cfg3.algo).expect("select");
                    // Peers may still be probing this rank's blocks —
                    // keep serving (the view) until everyone is done.
                    comm.barrier().expect("barrier");
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    });

    assert_eq!(local_stats, tcp_stats, "probe counters must not depend on the transport");
}

#[test]
fn read_striped_reconstructs_from_one_rank_over_tcp() {
    let cfg = SortConfig::new(MachineConfig::tiny(P), AlgoConfig::default()).expect("valid");
    let mesh = loopback_mesh(P, TcpOptions::default()).expect("mesh");
    let cfg_ref = &cfg;
    let got: Vec<Option<Vec<Element16>>> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(rank, tcp)| {
                s.spawn(move || {
                    let storage = single_rank_storage(cfg_ref, &tcp);
                    let comm = Communicator::new(Box::new(tcp.clone()));
                    let st = storage.pe(rank);
                    let recs = generate_pe_input(InputSpec::Uniform, SEED, rank, P, LOCAL_N);
                    let input = ingest_input(st, &recs).expect("ingest");
                    let outcome =
                        striped_mergesort::<Element16>(&comm, &storage, cfg_ref, input, 1, None)
                            .expect("striped sort");
                    // Rank 0 alone reconstructs the whole striped run:
                    // ~2/3 of the blocks live on peers and arrive
                    // through the block service while those peers sit
                    // at the barrier (their reader threads serve).
                    let full = (rank == 0).then(|| {
                        read_striped::<Element16>(&storage, &outcome.output)
                            .expect("single-rank striped read over TCP")
                    });
                    comm.barrier().expect("barrier");
                    full
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    });

    let mut reference = generate_all(InputSpec::Uniform, SEED, P, LOCAL_N);
    reference.sort_unstable();
    let got = got[0].as_ref().expect("rank 0 read the run");
    let keys: Vec<u64> = got.iter().map(|e| e.key).collect();
    let ref_keys: Vec<u64> = reference.iter().map(|e| e.key).collect();
    assert_eq!(keys, ref_keys, "single-rank remote read must yield the sorted sequence");
}
