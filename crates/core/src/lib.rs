//! # demsort-core
//!
//! The algorithms of *"Scalable Distributed-Memory External Sorting"*
//! (Rahn, Sanders, Singler; ICDE 2010): CANONICALMERGESORT (Section IV,
//! the DEMSort record-setter) and the globally striped mergesort
//! (Section III), together with every algorithmic building block the
//! paper describes:
//!
//! * [`merge`] — k-way merging with a loser tree, its in-node parallel
//!   form, and the carry-merge kernel both sorts' batch merges use;
//! * [`batchmerge`] — the one batch merge loop: a group's blocks in
//!   prediction order, each PE reading its own through a prefetcher,
//!   merged into a sink (Section III);
//! * [`seqsort`] — in-node (multi-core) sorting;
//! * [`selection`] — exact multiway selection (Section IV-A);
//! * [`psort`] — distributed internal parallel mergesort (Section IV-B);
//! * [`runform`] — randomized, overlapped run formation (Section IV-E),
//!   and the group reader both sorts' run formation starts from;
//! * [`extselect`] — external multiway selection: the sample brackets
//!   every split to a window, the PEs push the windows from their own
//!   disks, and the selection finishes in memory (Section IV-A,
//!   Appendix B);
//! * [`alltoall`] — the memory-bounded external all-to-all
//!   (Section IV-C);
//! * [`localmerge`] — the phase-3 local multiway merge: the batch loop
//!   over the PE's own disks, into its output run;
//! * [`canonical`] — the CANONICALMERGESORT driver (Figure 1);
//! * [`striped`] — mergesort with global striping (Section III): the
//!   driver, its striped runs and the output file's writer, its merge
//!   passes and its rank-failure recovery, a submodule each;
//! * [`ctx`] — each PE's storage, the in-process cluster's set of
//!   them, phase accounting, and the phase scope both drivers open
//!   their phases through;
//! * [`fileio`] — the file edges: the input shard run formation reads
//!   where it lies, the output file the last pass writes into;
//! * [`job`] — the rank program (input shard → sort → output part)
//!   every substrate runs, the in-process harness, and the one-call
//!   local file sort;
//! * [`baselines`] — comparison algorithms (NOW-Sort-style);
//! * [`validate`] — output validation: the fingerprint, the file check.

pub mod alltoall;
pub mod baselines;
pub mod batchmerge;
pub mod canonical;
pub mod ctx;
pub mod distselect;
pub mod extselect;
pub mod fileio;
pub mod job;
pub mod localmerge;
pub mod merge;
pub mod psort;
pub mod recio;
pub mod replacement;
pub mod rundir;
pub mod runform;
pub mod selection;
pub mod seqsort;
pub mod striped;
pub mod validate;

pub use canonical::{canonical_mergesort, PeOutcome};
pub use ctx::ClusterStorage;
pub use distselect::{dist_select_rank, dist_split};
pub use job::sort_file;
pub use merge::{merge_k, par_merge_k_into, LoserTree, ParMerge};
pub use psort::parallel_sort;
pub use selection::{multiway_select, SelectionResult};
pub use seqsort::sort_in_node;
pub use striped::{striped_mergesort, ResilientHooks};

#[cfg(test)]
/// A directory of one test's own under the system's temp directory,
/// removed on drop. Tests run in parallel, so each directory's name
/// ends in a number no other takes.
pub(crate) struct TestDir(pub std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    pub fn new(name: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("demsort-core-{}-{name}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        Self(dir)
    }

    /// The file `name` in the directory.
    pub fn file(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }

    /// [`TestDir::file`] as a `String`, as a [`demsort_types::JobConfig`]
    /// names its files.
    pub fn path(&self, name: &str) -> String {
        self.file(name).to_string_lossy().into_owned()
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
