//! # demsort
//!
//! A reproduction of *"Scalable Distributed-Memory External Sorting"*
//! (Rahn, Sanders, Singler; ICDE 2010) — the DEMSort system that led the
//! Indy GraySort and MinuteSort categories of the SortBenchmark in 2009.
//!
//! This facade crate re-exports the whole suite:
//!
//! * [`types`] — records, keys, configuration, counters;
//! * [`storage`] — the asynchronous multi-disk block engine (STXXL-style);
//! * [`net`] — the in-process MPI-style cluster runtime;
//! * [`core`] — the algorithms: CANONICALMERGESORT, globally striped
//!   mergesort, the NOW-Sort baseline, and all their building blocks;
//! * [`workloads`] — input generators and validators;
//! * [`simcost`] — the hardware cost model that reports paper-scale
//!   times from measured volumes.
//!
//! ## Quickstart
//!
//! ```
//! use demsort::prelude::*;
//!
//! // A 4-PE simulated cluster with tiny blocks (tests/demos).
//! let cfg = SortConfig::new(MachineConfig::tiny(4), AlgoConfig::default()).unwrap();
//!
//! // Sort 4 × 2000 uniformly random 16-byte elements.
//! let outcome = demsort::core::canonical::sort_cluster::<Element16, _>(&cfg, |pe, p| {
//!     demsort::workloads::generate_pe_input(InputSpec::Uniform, 42, pe, p, 2000)
//! })
//! .unwrap();
//!
//! // PE i now holds the elements of global ranks ⌊i·N/P⌋..⌊(i+1)·N/P⌋,
//! // sorted and striped over its local disks.
//! assert_eq!(outcome.per_pe.len(), 4);
//! let n: u64 = outcome.per_pe.iter().map(|o| o.output.elems).sum();
//! assert_eq!(n, 8000);
//!
//! // Measured volumes: an external sort reads and writes the data
//! // about twice (4N of disk traffic), communicating it about once.
//! assert!(outcome.report.io_volume_over_n() < 7.0);
//! ```
//!
//! ## Sorting a file
//!
//! [`sort_file`] is the whole local file-to-file sort of SortBenchmark
//! records in one call (what `sortfile --transport local` runs): every
//! PE streams its shard of the input onto its disks, the cluster sorts,
//! and all PEs stream their part of the output file concurrently. The
//! disks are files under `<output>.scratch/` for as long as the call
//! runs, so its memory is set by `mem_bytes_per_pe`, not by the file.
//!
//! ```
//! use demsort::prelude::*;
//! use demsort::types::SortAlgo;
//!
//! let dir = std::env::temp_dir().join(format!("demsort-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let (input, output) = (dir.join("in.dat"), dir.join("out.dat"));
//! let recs = demsort::workloads::gensort_records(1, 0, 500);
//! let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
//! Record100::encode_slice(&recs, &mut bytes);
//! std::fs::write(&input, &bytes).unwrap();
//!
//! let cfg = SortConfig::new(MachineConfig::tiny(2), AlgoConfig::default()).unwrap();
//! let report = demsort::sort_file(&cfg, SortAlgo::Canonical, &input, &output).unwrap();
//! assert_eq!(report.elements, 500);
//!
//! let sorted = std::fs::read(&output).unwrap();
//! assert!(sorted.chunks(100).is_sorted_by_key(|r| &r[..10]));
//! assert!(!dir.join("out.dat.scratch").exists());
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub use demsort_core as core;
pub use demsort_core::sort_file;
pub use demsort_net as net;
pub use demsort_simcost as simcost;
pub use demsort_storage as storage;
pub use demsort_types as types;
pub use demsort_workloads as workloads;

/// Commonly used items for application code.
pub mod prelude {
    pub use demsort_core::canonical::{
        canonical_mergesort, sort_cluster, ClusterOutcome, PeOutcome,
    };
    pub use demsort_core::ctx::ClusterStorage;
    pub use demsort_core::recio::read_records;
    pub use demsort_core::validate::{validate_output, Fingerprint, ValidationReport};
    pub use demsort_simcost::{CostModel, HardwareProfile};
    pub use demsort_types::{
        AlgoConfig, Element16, Key, Key10, MachineConfig, Phase, Record, Record100, SortConfig,
        SortReport,
    };
    pub use demsort_workloads::InputSpec;
}
