//! # demsort-types
//!
//! Shared vocabulary types for the `demsort` suite, a reproduction of
//! *"Scalable Distributed-Memory External Sorting"* (Rahn, Sanders,
//! Singler; ICDE 2010).
//!
//! This crate is dependency-free and holds everything the substrate and
//! algorithm crates need to agree on:
//!
//! * [`Record`] / [`Key`] — fixed-size sortable records with bulk
//!   encode/decode ([`Element16`] is the paper's 16-byte element with a
//!   64-bit key, [`Record100`] the SortBenchmark 100-byte record with a
//!   10-byte key),
//! * [`MachineConfig`] / [`AlgoConfig`] — the machine parameters `P`,
//!   `M`, `B`, `D` of the paper's Table I and the algorithm switches
//!   (randomization, sampling, overlap),
//! * [`PhaseStats`] and friends — per-PE, per-phase I/O, communication,
//!   and CPU counters that the cost model turns into cluster times,
//! * rank arithmetic for the canonical output format (PE `i` holds the
//!   elements of global ranks `i·N/P .. (i+1)·N/P`),
//! * [`fio`] — the write-all / read-exact transfer loops the file
//!   edges, the file-backed disks and the socket frames share.

pub mod buf;
pub mod config;
pub mod counters;
pub mod error;
pub mod fio;
pub mod fmtsize;
pub mod json;
pub mod ranks;
pub mod record;
pub mod trace;
pub mod wire;

pub use buf::{BufferPool, PoolCounters};
pub use config::{AlgoConfig, JobConfig, MachineConfig, SortAlgo, SortConfig};
pub use counters::{CommCounters, CpuCounters, IoCounters, Phase, PhaseStats, SortReport};
pub use error::{Error, Result};
pub use record::{Element16, Key, Key10, Record, Record100};
pub use trace::{ProgressFrame, TraceEv, TraceRecord, Tracer};
