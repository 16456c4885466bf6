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
//! * [`seqsort`] — in-node (multi-core) sorting;
//! * [`selection`] — exact multiway selection (Section IV-A);
//! * [`psort`] — distributed internal parallel mergesort (Section IV-B);
//! * [`runform`] — randomized, overlapped run formation (Section IV-E),
//!   and the group reader both sorts' run formation starts from;
//! * [`extselect`] — external multiway selection with sampling and
//!   block caching (Section IV-A, Appendix B);
//! * [`alltoall`] — the memory-bounded external all-to-all
//!   (Section IV-C);
//! * [`localmerge`] — the phase-3 local multiway merge;
//! * [`canonical`] — the CANONICALMERGESORT driver (Figure 1);
//! * [`striped`] — mergesort with global striping (Section III): the
//!   driver over its striped runs, its merge passes and its rank-failure
//!   recovery, a submodule each;
//! * [`ctx`] — each PE's view of the cluster's storage (the block
//!   service), phase accounting, and the phase scope both drivers open
//!   their phases through;
//! * [`fileio`] — the file edges: streamed shard ingest, streamed
//!   output;
//! * [`job`] — the rank program (ingest → sort → write-out) every
//!   substrate runs, the in-process harness, and the one-call local
//!   file sort;
//! * [`baselines`] — comparison algorithms (NOW-Sort-style);
//! * [`validate`] — distributed output validation.

pub mod alltoall;
pub mod baselines;
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

pub use canonical::{canonical_mergesort, sort_cluster, ClusterOutcome, PeOutcome};
pub use ctx::{
    BlockCache, BlockFetch, BlockStore, ClusterStorage, FetchSource, MeshView, RemoteBlockService,
    StoreTarget,
};
pub use distselect::{dist_select_rank, dist_split};
pub use job::sort_file;
pub use merge::{merge_k, par_merge_k_below_into, par_merge_k_into, LoserTree, ParMerge};
pub use psort::parallel_sort;
pub use selection::{multiway_select, SelectionResult};
pub use seqsort::sort_in_node;
pub use striped::{
    read_striped, read_striped_blocks, striped_mergesort, striped_mergesort_resilient,
    striped_sort_cluster, ResilientHooks, StripedClusterOutcome,
};
