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
//! [`sort_file`] is the whole local file-to-file sort in one call (what
//! `sortfile --transport local` runs, for records of any [`Record`]
//! type): every PE reads its shard of the input where it lies, the
//! cluster sorts, and every PE writes its part of the output where it
//! belongs. The disks the runs live on in between are files under
//! `<output>.scratch/` for as long as the call runs, so its memory is
//! set by `mem_bytes_per_pe`, not by the file.
//!
//! [`Record`]: types::Record
//!
//! ```
//! use demsort::prelude::*;
//! use demsort::types::SortAlgo;
//!
//! let dir = std::env::temp_dir().join(format!("demsort-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let (input, output) = (dir.join("in.dat"), dir.join("out.dat"));
//!
//! // 4 × 2000 uniformly random 16-byte elements, in a file.
//! let recs = demsort::workloads::generate_all(InputSpec::Uniform, 42, 4, 2000);
//! write_record_file(&input, &recs).unwrap();
//!
//! // A 4-PE simulated cluster with tiny blocks (tests/demos).
//! let cfg = SortConfig::new(MachineConfig::tiny(4), AlgoConfig::default()).unwrap();
//! let report = sort_file::<Element16>(&cfg, SortAlgo::Canonical, &input, &output).unwrap();
//! assert_eq!(report.elements, 8000);
//!
//! // Measured volumes: an external sort reads and writes the data
//! // about twice (4N of disk traffic), communicating it about once.
//! assert!(report.io_volume_over_n() < 7.0);
//!
//! // The output is sorted and a permutation of the input.
//! let check = check_file::<Element16>(&output).unwrap();
//! assert!(check.is_sort_of(Fingerprint::of_slice(&recs)));
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
    pub use demsort_core::canonical::PeOutcome;
    pub use demsort_core::fileio::{read_record_file, write_record_file};
    pub use demsort_core::sort_file;
    pub use demsort_core::validate::{check_file, FileCheck, Fingerprint};
    pub use demsort_simcost::{CostModel, HardwareProfile};
    pub use demsort_types::{
        AlgoConfig, Element16, Key, Key10, MachineConfig, Phase, Record, Record100, SortConfig,
        SortReport,
    };
    pub use demsort_workloads::InputSpec;
}
