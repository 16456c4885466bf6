//! Failure injection: storage errors must surface as `Err`, never as
//! silent corruption, through every layer of the stack.

use demsort::core::canonical::canonical_mergesort;
use demsort::core::ctx::ClusterStorage;
use demsort::core::runform::ingest_input;
use demsort::net::run_cluster;
use demsort::prelude::*;
use demsort::storage::{Backend, FaultInjectingBackend, MemBackend};
use demsort::workloads::generate_pe_input;
use std::sync::Arc;

/// A single-PE cluster whose backend fails at operation `fail_at`.
/// (Single PE: a failing collective participant would stall its peers,
/// which is the real-MPI behaviour — job abort — that an in-process
/// harness cannot imitate gracefully.)
fn faulty_cluster(fail_at: u64) -> (Arc<ClusterStorage>, SortConfig) {
    let machine = MachineConfig::tiny(1);
    let faulty: Arc<dyn Backend> =
        Arc::new(FaultInjectingBackend::new(MemBackend::new(machine.disks_per_pe), fail_at));
    let storage = ClusterStorage::with_backends(&machine, vec![faulty]);
    let cfg = SortConfig::new(machine, AlgoConfig::default()).expect("valid");
    (storage, cfg)
}

/// Run the full sort against a backend that fails at `fail_at`;
/// returns Ok(()) if the sort succeeded, Err otherwise.
fn sort_with_fault(fail_at: u64) -> Result<(), demsort::types::Error> {
    let (storage, cfg) = faulty_cluster(fail_at);
    let storage_ref = &storage;
    let cfg2 = cfg.clone();
    let results = run_cluster(1, move |c| {
        let st = storage_ref.pe(0);
        let recs = generate_pe_input(InputSpec::Uniform, 3, 0, 1, 600);
        let input = ingest_input(st, &recs)?;
        canonical_mergesort::<Element16>(&c, storage_ref, &cfg2, input, 1)?;
        Ok(())
    });
    results.into_iter().next().expect("one PE")
}

#[test]
fn fault_during_ingest_is_reported() {
    let err = sort_with_fault(0).expect_err("first write must fail");
    assert!(matches!(err, demsort::types::Error::Io(_)), "{err}");
}

#[test]
fn faults_in_every_phase_are_reported_not_swallowed() {
    // Sweep the injection point across the whole run: every failure
    // must produce Err(Io) — and with injection beyond the total op
    // count, the sort must succeed.
    let total_ops = {
        // Count ops with an unreachable injection point.
        sort_with_fault(u64::MAX).expect("clean run");
        // Rerun with a counting backend to learn the op count: reuse
        // the fault counter by bisection instead — find the first
        // injection point that no longer fails.
        let mut lo = 0u64;
        let mut hi = 1 << 20;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if sort_with_fault(mid).is_err() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    assert!(total_ops > 10, "a real sort does many I/O ops (got {total_ops})");

    // Probe a spread of injection points strictly below the total.
    for frac in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let at = ((total_ops - 1) as f64 * frac) as u64;
        let err = sort_with_fault(at).expect_err("injected fault must surface");
        assert!(matches!(err, demsort::types::Error::Io(_)), "at op {at}: {err}");
    }
    // And beyond it, the sort succeeds.
    sort_with_fault(total_ops).expect("no fault reached");
}

#[test]
fn engine_survives_fault_and_stays_usable() {
    // After an injected failure the engine and allocator must stay
    // consistent: a fresh sort on the same storage object succeeds.
    let (storage, cfg) = faulty_cluster(5);
    let storage_ref = &storage;
    let cfg2 = cfg.clone();
    let first = run_cluster(1, move |_c| {
        let st = storage_ref.pe(0);
        let recs = generate_pe_input(InputSpec::Uniform, 3, 0, 1, 600);
        ingest_input(st, &recs).map(|_| ())
    });
    assert!(first[0].is_err(), "fault at op 5 hits ingest");

    let storage_ref = &storage;
    let results = run_cluster(1, move |c| {
        let st = storage_ref.pe(0);
        let recs = generate_pe_input(InputSpec::Uniform, 4, 0, 1, 200);
        let input = ingest_input(st, &recs)?;
        canonical_mergesort::<Element16>(&c, storage_ref, &cfg2, input, 1).map(|_| ())
    });
    results.into_iter().next().expect("one PE").expect("second run succeeds past the fault");
}
