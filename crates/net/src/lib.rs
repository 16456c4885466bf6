//! # demsort-net
//!
//! The cluster substrate of the demsort suite: an MPI-flavoured
//! message-passing layer over a **pluggable transport**.
//!
//! The paper ran CANONICALMERGESORT on a 200-node InfiniBand cluster
//! under MVAPICH. Algorithms here are written exactly as SPMD MPI
//! programs (rank/size, point-to-point, barriers, reductions,
//! allgather, alltoallv) against one facade, [`Communicator`], which
//! meters all remote traffic for the cost model and builds every
//! collective from the [`Transport`] contract — point-to-point byte
//! frames with per-source FIFO ordering. Two transports implement it:
//!
//! * [`LocalTransport`] — the in-process channel mesh: each PE is an
//!   OS thread, each PE pair a dedicated FIFO channel. This plays the
//!   role MVAPICH's shared-memory device plays on one node: delivery
//!   is a pointer move, and the whole cluster lives in one address
//!   space.
//! * [`TcpTransport`](tcp::TcpTransport) — the multi-process mesh:
//!   each PE is an OS process, each PE pair one TCP connection carrying
//!   length-prefixed frames, with a rank handshake at connect time, a
//!   full `P × P` mesh bootstrapped from a rendezvous host file or a
//!   coordinator, buffered writers flushed at collective boundaries,
//!   and per-socket timeouts so dead peers surface as errors. This
//!   plays the role of MVAPICH's network device on the paper's
//!   cluster. It also carries an out-of-band block channel
//!   ([`tcp::TcpTransport::fetch_block`], the batched, pipelined
//!   [`tcp::TcpTransport::fetch_blocks`] and
//!   [`tcp::TcpTransport::store_blocks`]): id-matched request/reply
//!   exchanges served by the owner's reader thread. No sort reads or
//!   writes another rank's disk, so the channel has no caller in the
//!   sorts; it serves only the benchmark ladder's block-transfer rows
//!   and goes with them.
//!
//! Because metering happens in the facade, the message/byte counters of
//! a job are **identical across transports** — the in-process cluster
//! predicts exactly what the wire cluster will send.
//!
//! * [`Communicator`] — one PE's endpoint with collectives.
//! * [`Transport`] / [`LocalTransport`] / [`tcp::TcpTransport`] — the
//!   transport layer.
//! * [`run_cluster`] — spawn P PE threads and run an SPMD closure
//!   (in-process transport); [`run_cluster_tcp`] — the same over a
//!   loopback TCP mesh (full wire path, one process).
//! * [`chunked_alltoallv`] — the paper's reimplementation of
//!   `MPI_Alltoallv` lifting the 2 GiB (`i32`) volume limit.

pub mod chunked;
pub mod cluster;
pub mod comm;
pub mod frames;
pub mod tcp;
pub mod transport;

pub use chunked::{chunked_alltoallv, MPI_VOLUME_LIMIT};
pub use cluster::{build_mesh, run_cluster, run_cluster_over, run_cluster_tcp};
pub use comm::{decode_u64s, decode_u64s_into, encode_u64s, encode_u64s_into, Communicator};
pub use frames::{FrameCounts, FrameList};
pub use transport::{LocalTransport, SubTransport, Transport};
