//! # demsort-storage
//!
//! The external-memory substrate of the demsort suite: a multi-disk,
//! asynchronous, block-oriented storage engine in the spirit of STXXL
//! (which the paper's DEMSort implementation used "for handling
//! asynchronous block-wise access to the multiple disks highly
//! efficiently").
//!
//! Layers, bottom up:
//!
//! * [`backend`] — where bytes live: RAM ([`MemBackend`]), files
//!   ([`FileBackend`]), or a fault-injecting wrapper for tests.
//! * [`disk`] — the timing model (Seagate 7200.10 defaults from the
//!   paper) and per-disk statistics. Time is *accounted, not slept*.
//! * [`engine`] — FIFO request queues per disk, futures-style
//!   [`IoHandle`]s, requests served on the waiting thread when they
//!   will not block and on the disk's thread when they would; this is
//!   what makes I/O overlap real.
//!   The same queues read a job's input and write its output
//!   ([`EdgeFile`]) at byte offsets, one block per request.
//! * [`alloc`] — per-disk free-list allocation with a high-water mark,
//!   enabling the paper's (nearly) in-place operation.
//! * [`striping`] — [`PeStorage`] facade plus the streaming
//!   [`RunWriter`] with write-behind over RAID-0 striping.
//! * [`prefetch`] — the one block reader, [`MergePrefetcher`]: a block
//!   sequence read ahead under a buffer budget in naive or
//!   duality-optimal order (Appendix A of the paper, \[13\]). Every
//!   sequential local read — [`read_run`], the record reader — goes
//!   through it.

pub mod alloc;
pub mod backend;
pub mod block;
pub mod disk;
pub mod engine;
pub mod prefetch;
pub mod striping;

pub use alloc::BlockAllocator;
pub use backend::{Backend, FaultInjectingBackend, FileBackend, MemBackend};
pub use block::{alloc_buf, BlockId};
pub use disk::{DiskModel, DiskStats, DiskStatsSnapshot};
pub use engine::{EdgeFile, IoEngine, IoHandle};
pub use prefetch::{
    duality_issue_order, naive_issue_order, simulate_schedule, MergePrefetcher, ScheduleSim,
};
pub use striping::{check_run, free_run, read_run, write_run, PeStorage, Run, RunWriter};
