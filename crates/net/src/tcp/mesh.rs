//! Mesh bootstrap: how `P` processes become a full `P × P` socket
//! mesh, and where the addresses come from.
//!
//! Every rank binds a listener, then rank `i` dials every `j < i` (with
//! retry while the peer is still coming up) and accepts from every
//! `j > i`. The first bytes on a fresh connection are a **rank
//! handshake** (`magic, version, rank`), so connections may arrive in
//! any order — the handshake, not arrival order, assigns the connection
//! its peer slot. Addresses come from a coordinator, a rendezvous host
//! file ([`parse_hostfile`]) or, for a mesh inside one process,
//! [`loopback_mesh`].

use super::endpoint::{TcpOptions, TcpTransport};
use demsort_types::{Error, Result};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Handshake magic: `"DEMS"`.
const MAGIC: u32 = 0x4445_4D53;
/// Wire protocol version (2: one block-service request/response pair
/// for reads and writes).
const VERSION: u8 = 2;

/// The rank handshake a dialing rank opens its connection with.
pub(super) fn hello(my_rank: usize) -> [u8; 9] {
    let mut hello = [0u8; 9];
    hello[..4].copy_from_slice(&MAGIC.to_le_bytes());
    hello[4] = VERSION;
    hello[5..9].copy_from_slice(&(my_rank as u32).to_le_bytes());
    hello
}

impl TcpTransport {
    /// Join the mesh: `addrs[rank]` must be the address `listener` is
    /// bound to; every other entry a peer's listener. Dials lower
    /// ranks (retrying while they come up), accepts higher ranks, and
    /// spawns one reader thread per established connection.
    pub fn connect_mesh(
        rank: usize,
        addrs: &[SocketAddr],
        listener: TcpListener,
        opts: TcpOptions,
    ) -> Result<Self> {
        let size = addrs.len();
        if rank >= size {
            return Err(Error::config(format!("rank {rank} out of range for {size} ranks")));
        }

        // Accept from higher ranks while dialing lower ranks.
        let expect_inbound = size - 1 - rank;
        let deadline = Instant::now() + opts.connect_timeout;
        let acceptor = std::thread::Builder::new()
            .name(format!("demsort-accept-{rank}"))
            .spawn(move || accept_peers(&listener, rank, size, expect_inbound, deadline))
            .map_err(|e| Error::comm(format!("spawn acceptor: {e}")))?;

        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        for (j, stream_slot) in streams.iter_mut().enumerate().take(rank) {
            let s = dial_peer(addrs[j], rank, deadline)
                .map_err(|e| Error::comm(format!("rank {rank} dialing rank {j}: {e}")))?;
            *stream_slot = Some(s);
        }
        let accepted = acceptor
            .join()
            .map_err(|_| Error::comm("acceptor thread panicked"))?
            .map_err(|e| Error::comm(format!("rank {rank} accepting peers: {e}")))?;
        for (j, s) in accepted {
            streams[j] = Some(s);
        }

        Self::from_streams(rank, streams, opts)
    }
}

/// Dial `addr`, retrying while the peer's listener is still coming up,
/// then send the rank handshake.
fn dial_peer(addr: SocketAddr, my_rank: usize, deadline: Instant) -> std::io::Result<TcpStream> {
    loop {
        // Per-attempt timeout generous enough for high-RTT links (the
        // multi-host hostfile mode); the retry loop handles peers that
        // are not listening yet, bounded by the overall deadline.
        let attempt = Duration::from_secs(2).min(
            deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(250)),
        );
        match TcpStream::connect_timeout(&addr, attempt) {
            Ok(mut s) => {
                s.write_all(&hello(my_rank))?;
                s.flush()?;
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Accept `expect` handshaken connections from ranks above `my_rank`,
/// in any arrival order.
///
/// Connections that fail the handshake — silent probers (a port
/// scanner or health check hitting a well-known hostfile port), bad
/// magic/version, or duplicate/out-of-range ranks — are dropped and
/// accepting continues; only the deadline aborts the bootstrap.
fn accept_peers(
    listener: &TcpListener,
    my_rank: usize,
    size: usize,
    expect: usize,
    deadline: Instant,
) -> std::io::Result<Vec<(usize, TcpStream)>> {
    listener.set_nonblocking(true)?;
    let mut got: Vec<(usize, TcpStream)> = Vec::with_capacity(expect);
    while got.len() < expect {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some((rank, stream)) = handshake_inbound(stream, my_rank, size, &got) {
                    got.push((rank, stream));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "rank {my_rank}: only {} of {expect} inbound connections arrived",
                            got.len()
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Validate one inbound connection's rank handshake; `None` drops it.
fn handshake_inbound(
    mut stream: TcpStream,
    my_rank: usize,
    size: usize,
    got: &[(usize, TcpStream)],
) -> Option<(usize, TcpStream)> {
    stream.set_nonblocking(false).ok()?;
    // A real peer writes its hello immediately on connect, so a short
    // timeout suffices — and bounds how long a silent stray can stall
    // the (single-threaded) accept loop.
    stream.set_read_timeout(Some(Duration::from_millis(1000))).ok()?;
    let mut hello = [0u8; 9];
    stream.read_exact(&mut hello).ok()?;
    let magic = u32::from_le_bytes(hello[..4].try_into().expect("4 bytes"));
    let version = hello[4];
    let rank = u32::from_le_bytes(hello[5..9].try_into().expect("4 bytes")) as usize;
    if magic != MAGIC || version != VERSION {
        return None;
    }
    if rank <= my_rank || rank >= size || got.iter().any(|(r, _)| *r == rank) {
        return None; // out-of-range or duplicate: first connection wins
    }
    Some((rank, stream))
}

/// Bind an ephemeral loopback listener (mesh address to register with
/// the coordinator or hostfile).
pub fn bind_loopback() -> Result<(TcpListener, SocketAddr)> {
    let l = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| Error::comm(format!("bind loopback listener: {e}")))?;
    let addr = l.local_addr().map_err(|e| Error::comm(e.to_string()))?;
    Ok((l, addr))
}

/// Parse a rendezvous host file: one `host:port` per line (rank =
/// line order), blank lines and `#` comments ignored.
///
/// Every line must resolve to a *distinct* address: two ranks sharing
/// one `host:port` would both try to bind it and the mesh handshake
/// would mis-assign their connections, so duplicates are rejected
/// up front with [`Error::Config`] naming both lines.
pub fn parse_hostfile(text: &str) -> Result<Vec<SocketAddr>> {
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut lines: Vec<usize> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut resolved = line
            .to_socket_addrs()
            .map_err(|e| Error::config(format!("hostfile line {}: {e}", lineno + 1)))?;
        let addr = resolved.next().ok_or_else(|| {
            Error::config(format!("hostfile line {} resolves to no address", lineno + 1))
        })?;
        if let Some(dup) = addrs.iter().position(|a| *a == addr) {
            return Err(Error::config(format!(
                "hostfile line {} duplicates rank {}'s address {addr} (line {}): \
                 every rank needs its own host:port",
                lineno + 1,
                dup,
                lines[dup] + 1
            )));
        }
        addrs.push(addr);
        lines.push(lineno);
    }
    if addrs.is_empty() {
        return Err(Error::config("hostfile contains no addresses"));
    }
    Ok(addrs)
}

/// Bootstrap a full loopback mesh of `p` endpoints within this process
/// (each rank on its own thread during the handshake). Used by tests
/// and benchmarks to exercise the complete wire path.
pub fn loopback_mesh(p: usize, opts: TcpOptions) -> Result<Vec<TcpTransport>> {
    let mut listeners = Vec::with_capacity(p);
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let (l, a) = bind_loopback()?;
        listeners.push(l);
        addrs.push(a);
    }
    let addrs = &addrs;
    let opts = &opts;
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                s.spawn(move || TcpTransport::connect_mesh(rank, addrs, listener, opts.clone()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mesh thread")).collect()
    })
}
