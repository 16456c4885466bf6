//! Multiway selection's counters do not depend on the transport.
//!
//! Each PE reads the parts of every rank's window that lie on its own
//! disks and pushes them to that rank ([`select_splitters`]). What it
//! reads, pushes and selects over follows from the run directory alone,
//! so the [`SelectionStats`] — window records, own blocks read, bytes
//! pushed — and the splitters must be **identical** whether the cluster
//! is the in-process one or real worker-shaped ranks over loopback TCP
//! sockets.

use demsort_core::ctx::{pe_storage, ClusterStorage};
use demsort_core::extselect::{select_splitters, RunSplitters, SelectionStats};
use demsort_core::rundir::build_directory;
use demsort_core::runform::{form_runs, ingest_input};
use demsort_net::tcp::{loopback_mesh, TcpOptions};
use demsort_net::{run_cluster, Communicator};
use demsort_storage::{MemBackend, PeStorage};
use demsort_types::{AlgoConfig, Element16, MachineConfig, SortConfig};
use demsort_workloads::{generate_pe_input, InputSpec};
use std::sync::Arc;

const P: usize = 3;
const LOCAL_N: usize = 700;
const SEED: u64 = 11;

/// Form this rank's runs on `st` and select its splitters.
fn select(comm: &Communicator, st: &PeStorage, cfg: &SortConfig) -> (RunSplitters, SelectionStats) {
    let recs = generate_pe_input(InputSpec::Uniform, SEED, comm.rank(), P, LOCAL_N);
    let input = ingest_input(st, &recs).expect("ingest");
    let out = form_runs::<Element16>(comm, st, cfg, input, 1, None).expect("form");
    let dir = build_directory(comm, out.local).expect("directory");
    assert!(dir.num_runs() > 1, "the selection must split several runs");
    select_splitters(comm, st, &dir).expect("select")
}

#[test]
fn selection_counters_identical_across_local_and_tcp_transports() {
    let cfg = SortConfig::new(MachineConfig::tiny(P), AlgoConfig::default()).expect("valid");

    // --- in-process reference: every PE's storage in one process ---
    let storage = ClusterStorage::new_mem(&cfg.machine);
    let (st_ref, cfg_ref) = (&storage, &cfg);
    let local = run_cluster(P, move |c| select(&c, st_ref.pe(c.rank()), cfg_ref));
    for (rank, (_, stats)) in local.iter().enumerate().skip(1) {
        assert!(stats.window_records > 0, "rank {rank} selects over a window");
    }
    assert!(local.iter().all(|(_, s)| s.blocks_read > 0), "every rank reads window parts");
    assert!(local.iter().any(|(_, s)| s.bytes_pushed > 8 * P as u64), "records cross ranks");

    // --- TCP: one storage per rank, as a worker builds it ---
    let mesh = loopback_mesh(P, TcpOptions::default()).expect("mesh");
    let tcp: Vec<(RunSplitters, SelectionStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|tcp| {
                let cfg = &cfg;
                s.spawn(move || {
                    let st = pe_storage(
                        &cfg.machine,
                        Arc::new(MemBackend::new(cfg.machine.disks_per_pe)),
                    );
                    tcp.set_buffer_pool(st.pool().clone());
                    let comm = Communicator::new(Box::new(tcp));
                    select(&comm, &st, cfg)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    });

    assert_eq!(local, tcp, "splitters and selection counters must not depend on the transport");
}
