//! The TCP cluster transport: one PE per OS process, a full `P × P`
//! socket mesh.
//!
//! This is the deployment shape of the paper's experiments — MVAPICH
//! over InfiniBand on 200 nodes — with TCP standing in for the
//! interconnect and this module for the MPI runtime. By concern:
//!
//! * `mesh` — **bootstrap**: every rank binds a listener, dials the
//!   lower ranks and accepts the higher ones; a rank handshake
//!   (`magic, version, rank`) assigns each connection its peer slot, so
//!   connections may arrive in any order. Also the rendezvous host
//!   file and the in-process [`loopback_mesh`].
//! * `link` — **one connection**: length-prefixed frames
//!   `[kind: u8][len: u32 LE][payload]` (the connection identifies the
//!   source rank, so frames carry no addressing), gather-written into a
//!   per-peer `BufWriter` that [`Communicator`](crate::Communicator)
//!   flushes at collective boundaries (before every blocking receive),
//!   so batching can never deadlock a peer on bytes parked locally;
//!   the blocking read the reader threads use; the wire meters.
//! * `block` — an out-of-band block channel: reads and writes of
//!   another rank's blocks are one request/reply exchange, served from
//!   the owning rank's registered handler by its reader thread — the
//!   remote PE's CPU never leaves its own phase, like an RDMA get.
//!   Requests carry ids, so any number can be in flight per peer and
//!   responses are matched by id, not arrival order
//!   ([`TcpTransport::fetch_blocks`] and [`TcpTransport::store_blocks`]
//!   pipeline a whole batch behind one flush). No sort reads or writes
//!   another rank's disk, so only the benchmark ladder's block-transfer
//!   rows use the channel.
//! * `endpoint` — **the [`Transport`](crate::Transport)**: one reader
//!   thread per peer socket demultiplexes frames into per-source FIFO
//!   queues (preserving MPI's per-source ordering) and into the block
//!   channel; recovery epochs cut those queues. **Failure detection**:
//!   sockets carry read timeouts and queue receives are bounded by
//!   [`TcpOptions::read_timeout`], so a peer dying mid-collective
//!   surfaces as a clean [`Error::Comm`](demsort_types::Error), never a
//!   hang; a reader that exits fails the block requests in flight to
//!   its peer at once.

mod block;
mod endpoint;
mod link;
mod mesh;

pub use block::{BlockHandler, StoreHandler, WireFetch, WireStore};
pub use endpoint::{TcpOptions, TcpTransport};
pub use mesh::{bind_loopback, loopback_mesh, parse_hostfile};

#[cfg(test)]
mod tests {
    use super::link::KIND_BLOCK_REQ;
    use super::*;
    use crate::cluster::{run_cluster, run_cluster_tcp};
    use crate::comm::Communicator;
    use crate::transport::Transport;
    use demsort_types::wire::{BlockOp, BlockReq};
    use demsort_types::Error;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    fn fast_opts() -> TcpOptions {
        TcpOptions {
            read_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(5),
            write_buffer: 4 << 10,
        }
    }

    #[test]
    fn loopback_collectives_match_local_transport() {
        let job = |c: Communicator| {
            c.barrier().expect("barrier");
            let gathered = c.allgather(vec![c.rank() as u8; 3]).expect("allgather");
            let sum = c.allreduce_sum(c.rank() as u64 + 1).expect("allreduce");
            let msgs: Vec<Vec<u8>> = (0..c.size()).map(|j| vec![c.rank() as u8, j as u8]).collect();
            let a2a = c.alltoallv(msgs).expect("alltoallv");
            let bc = c
                .broadcast(1, if c.rank() == 1 { vec![7, 7] } else { Vec::new() })
                .expect("broadcast");
            (gathered, sum, a2a, bc, c.counters())
        };
        let local = run_cluster(4, job);
        let tcp = run_cluster_tcp(4, job);
        for (l, t) in local.iter().zip(&tcp) {
            assert_eq!(l.0, t.0, "allgather");
            assert_eq!(l.1, t.1, "allreduce");
            assert_eq!(l.2, t.2, "alltoallv");
            assert_eq!(l.3, t.3, "broadcast");
            // The headline transport property: metered traffic is
            // byte-for-byte identical across transports.
            assert_eq!(l.4, t.4, "CommCounters parity");
        }
    }

    #[test]
    fn long_frames_are_received_into_the_recycled_one() {
        // Rank 1 hands back the first long frame before rank 0 sends the
        // next (the empty frame orders the two): the next, a little
        // longer, and the one after, shorter, land in the same memory;
        // a short frame gets its own.
        let got = run_cluster_tcp(2, |c| {
            if c.rank() == 0 {
                for len in [200_000, 210_000, 150_000, 100] {
                    c.send(1, vec![len as u8; len]).expect("send");
                    let _ = c.recv(1).expect("go on");
                }
                return Vec::new();
            }
            let mut seen = Vec::new();
            for _ in 0..4 {
                let frame = c.recv(0).expect("frame");
                assert!(frame.iter().all(|&b| b == frame.len() as u8));
                seen.push(frame.as_ptr() as usize);
                // Indexed by source rank: the frame came from rank 0.
                c.recycle(vec![frame, Vec::new()]);
                c.send(0, Vec::new()).expect("ack");
            }
            seen
        });
        let seen = &got[1];
        assert_eq!(seen[1], seen[0], "{seen:?}");
        assert_eq!(seen[2], seen[0], "{seen:?}");
        assert_ne!(seen[3], seen[0], "{seen:?}");
    }

    #[test]
    fn mesh_survives_out_of_order_connects() {
        // Stagger rank start-up in reverse order: high ranks dial
        // before low ranks even listen-accept, so connections arrive
        // out of order and the rank handshake must sort them out.
        let p = 4;
        let mut listeners = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..p {
            let (l, a) = bind_loopback().expect("bind");
            listeners.push(l);
            addrs.push(a);
        }
        let addrs = &addrs;
        let transports: Vec<TcpTransport> = std::thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    s.spawn(move || {
                        std::thread::sleep(Duration::from_millis(30 * (p - rank) as u64));
                        TcpTransport::connect_mesh(rank, addrs, listener, fast_opts())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("thread").expect("mesh")).collect()
        });
        // The mesh must be fully usable: run a barrier + alltoall.
        let comms: Vec<Communicator> =
            transports.into_iter().map(|t| Communicator::new(Box::new(t))).collect();
        let results = crate::cluster::run_cluster_over(comms, |c| {
            c.barrier().expect("barrier");
            c.allgather_u64(c.rank() as u64 * 100).expect("allgather")
        });
        for r in results {
            assert_eq!(r, vec![0, 100, 200, 300]);
        }
    }

    #[test]
    fn mesh_tolerates_stray_connections() {
        // A stray client hits rank 0's listener (where rank 1 is also
        // expected) with a garbage handshake: the bootstrap must drop
        // it and still complete the mesh.
        let (l0, a0) = bind_loopback().expect("bind 0");
        let (l1, a1) = bind_loopback().expect("bind 1");
        let addrs = vec![a0, a1];
        let mut stray = TcpStream::connect(a0).expect("stray connect");
        stray.write_all(&[0xFF; 9]).expect("stray garbage");
        let addrs = &addrs;
        let (t0, t1) = std::thread::scope(|s| {
            let h0 = s.spawn(move || TcpTransport::connect_mesh(0, addrs, l0, fast_opts()));
            let h1 = s.spawn(move || TcpTransport::connect_mesh(1, addrs, l1, fast_opts()));
            (
                h0.join().expect("thread 0").expect("mesh 0"),
                h1.join().expect("thread 1").expect("mesh 1"),
            )
        });
        drop(stray);
        t1.send(0, vec![5]).expect("send");
        t1.flush().expect("flush");
        assert_eq!(t0.recv(1).expect("recv"), vec![5]);
    }

    #[test]
    fn dead_peer_surfaces_error_not_hang() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.send(0, vec![1, 2]).expect("send");
        t1.flush().expect("flush");
        assert_eq!(t0.recv(1).expect("first frame"), vec![1, 2]);
        // Rank 1 dies mid-collective: its sockets close.
        drop(t1);
        let start = Instant::now();
        let err = t0.recv(1).expect_err("dead peer must error");
        assert!(matches!(err, Error::Comm(_)), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn silent_peer_times_out() {
        let mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        // Rank 1 stays alive but sends nothing.
        let start = Instant::now();
        let err = mesh[0].recv(1).expect_err("silence must time out");
        assert!(matches!(err, Error::Comm(ref m) if m.contains("timed out")), "{err}");
        assert!(start.elapsed() >= Duration::from_millis(400));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn block_fetch_round_trip_and_missing_handler() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        // No handler yet: the requester gets an error reply, not a hang.
        let err = t0.fetch_block(1, 0, 0).expect_err("no handler");
        assert!(err.to_string().contains("no block handler"), "{err}");
        // Register a handler on rank 1 serving synthetic blocks.
        t1.set_block_handler(Arc::new(|disk, slot| {
            if disk > 3 {
                return Err(format!("no such disk {disk}"));
            }
            Ok(vec![disk as u8, slot as u8, 0xAB])
        }));
        assert_eq!(t0.fetch_block(1, 2, 9).expect("fetch"), vec![2, 9, 0xAB]);
        let err = t0.fetch_block(1, 7, 0).expect_err("bad disk");
        assert!(err.to_string().contains("no such disk"), "{err}");
        // The block service is out of band: data frames sent before a
        // fetch do not block it, and per-source FIFO of data survives.
        t1.send(0, vec![42]).expect("send");
        assert_eq!(t0.fetch_block(1, 0, 1).expect("fetch"), vec![0, 1, 0xAB]);
        assert_eq!(t0.recv(1).expect("data"), vec![42]);
    }

    #[test]
    fn batched_fetches_pipeline_and_match_by_id() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.set_block_handler(Arc::new(|disk, slot| {
            if slot == 13 {
                return Err("slot 13 is cursed".to_string());
            }
            Ok(vec![disk as u8, slot as u8])
        }));
        // One flush puts a whole batch on the wire; futures come back
        // in request order even though they complete independently.
        let blocks: Vec<(u32, u32)> = (0..40u32).map(|i| (i % 4, i)).collect();
        let fetches = t0.fetch_blocks(1, &blocks).expect("issue batch");
        assert_eq!(fetches.len(), blocks.len());
        // Wait in REVERSE order: matching is by id, not arrival order.
        let mut results: Vec<Option<Vec<u8>>> = (0..blocks.len()).map(|_| None).collect();
        for (i, f) in fetches.into_iter().enumerate().rev() {
            if i == 13 {
                let err = f.wait().expect_err("cursed slot");
                assert!(err.to_string().contains("cursed"), "{err}");
                results[i] = Some(Vec::new());
            } else {
                results[i] = Some(f.wait().expect("fetch"));
            }
        }
        for (i, r) in results.iter().enumerate() {
            if i == 13 {
                continue;
            }
            assert_eq!(r.as_deref(), Some(&[(i % 4) as u8, i as u8][..]), "block {i}");
        }
    }

    #[test]
    fn concurrent_fetches_from_many_threads() {
        // No serialization lock: several threads may have fetches in
        // flight to the same peer at once, and each gets its own
        // responses back (routing is by request id).
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.set_block_handler(Arc::new(|disk, slot| Ok(vec![disk as u8, slot as u8])));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|thread| {
                    let t0 = t0.clone();
                    s.spawn(move || {
                        for slot in 0..25u32 {
                            let got = t0.fetch_block(1, thread, slot).expect("fetch");
                            assert_eq!(got, vec![thread as u8, slot as u8]);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("fetch thread");
            }
        });
    }

    #[test]
    fn dead_peer_fails_fetches_fast_not_after_timeout() {
        // A generous read timeout that a hung fetch would ride out.
        let opts = TcpOptions { read_timeout: Duration::from_secs(30), ..fast_opts() };
        let mut mesh = loopback_mesh(2, opts).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        drop(t1); // peer dies; no response can ever arrive
        let start = Instant::now();
        // Depending on timing the requests are refused up front (the
        // reader already noticed the closed socket), fail at flush, or
        // are swept when the reader exits — every path must resolve
        // far below the read timeout.
        let err = match t0.fetch_blocks(1, &[(0, 0), (1, 1)]) {
            Ok(fetches) => {
                let mut first_err = None;
                for f in fetches {
                    if let Err(e) = f.wait() {
                        first_err = Some(e);
                        break;
                    }
                }
                first_err.expect("dead peer must fail the fetch")
            }
            Err(e) => e,
        };
        assert!(matches!(err, Error::Comm(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead peer must fail fetches promptly, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn abandoned_fetch_discards_late_response() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.set_block_handler(Arc::new(|disk, slot| Ok(vec![disk as u8, slot as u8])));
        // Drop the future without waiting: the request is abandoned and
        // the late response must be discarded, not corrupt a later one.
        let fetches = t0.fetch_blocks(1, &[(0, 1)]).expect("issue");
        drop(fetches);
        // A subsequent fetch still gets exactly its own block.
        assert_eq!(t0.fetch_block(1, 2, 3).expect("fetch"), vec![2, 3]);
    }

    #[test]
    fn wire_meters_count_headers() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t0.send(1, vec![0; 100]).expect("send");
        t0.flush().expect("flush");
        assert_eq!(t1.recv(0).expect("recv").len(), 100);
        let (sent, _) = t0.wire_peer(1);
        assert_eq!(sent, 105, "payload + 5-byte frame header");
        let (_, recv) = t1.wire_peer(0);
        assert_eq!(recv, 105);
        assert_eq!(t0.wire_totals().0, 105);
    }

    #[test]
    fn hostfile_parses_and_rejects() {
        let text = "# demsort hosts\n127.0.0.1:9000\n\n127.0.0.1:9001\n";
        let addrs = parse_hostfile(text).expect("parse");
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[0].port(), 9000);
        assert_eq!(addrs[1].port(), 9001);
        assert!(parse_hostfile("").is_err(), "empty hostfile");
        assert!(parse_hostfile("not-an-address").is_err(), "garbage line");
    }

    #[test]
    fn hostfile_rejects_duplicate_addresses_and_parses_non_loopback() {
        // Two ranks on one host:port would fight over the bind and the
        // handshake would mis-assign connections: reject up front,
        // naming both offending lines.
        let err = parse_hostfile("10.0.0.1:9000\n10.0.0.2:9000\n\n10.0.0.1:9000\n")
            .expect_err("duplicate address");
        assert!(
            matches!(err, Error::Config(ref m) if m.contains("line 4") && m.contains("line 1")),
            "{err}"
        );
        // Real cluster hostfiles carry non-loopback addresses; rank
        // order and ports must survive parsing unchanged.
        let addrs = parse_hostfile("10.1.2.3:7000\n10.1.2.4:7001\n").expect("parse");
        assert_eq!(addrs.len(), 2);
        assert!(!addrs[0].ip().is_loopback());
        assert_eq!(addrs[0], SocketAddr::from(([10, 1, 2, 3], 7000)));
        assert_eq!(addrs[1], SocketAddr::from(([10, 1, 2, 4], 7001)));
        // Same host on distinct ports is fine (multi-PE per node).
        assert!(parse_hostfile("10.1.2.3:7000\n10.1.2.3:7001\n").is_ok());
    }

    #[test]
    fn mesh_over_non_loopback_addresses() {
        // Find a routable non-loopback local IP (CI/container safe: a
        // connected UDP socket does a route lookup, no packets move).
        let probe = std::net::UdpSocket::bind("0.0.0.0:0").expect("udp bind");
        let ip = match probe.connect("192.0.2.1:9").and_then(|()| probe.local_addr()) {
            Ok(a) if !a.ip().is_loopback() => a.ip(),
            // No non-loopback interface (fully isolated sandbox):
            // nothing beyond the loopback tests to exercise.
            _ => return,
        };
        let mut listeners = Vec::new();
        let mut rendered = String::new();
        for _ in 0..2 {
            let l = TcpListener::bind((ip, 0)).expect("bind non-loopback");
            let a = l.local_addr().expect("addr");
            rendered.push_str(&format!("{a}\n"));
            listeners.push(l);
        }
        // Round-trip through the hostfile path the launcher uses.
        let addrs = parse_hostfile(&rendered).expect("parse");
        assert!(!addrs[0].ip().is_loopback());
        let l1 = listeners.pop().expect("listener 1");
        let l0 = listeners.pop().expect("listener 0");
        let addrs = &addrs;
        let (t0, t1) = std::thread::scope(|s| {
            let h0 = s.spawn(move || TcpTransport::connect_mesh(0, addrs, l0, fast_opts()));
            let h1 = s.spawn(move || TcpTransport::connect_mesh(1, addrs, l1, fast_opts()));
            (
                h0.join().expect("thread 0").expect("mesh 0"),
                h1.join().expect("thread 1").expect("mesh 1"),
            )
        });
        t1.send(0, vec![0xEE]).expect("send");
        t1.flush().expect("flush");
        assert_eq!(t0.recv(1).expect("recv"), vec![0xEE]);
    }

    #[test]
    fn block_store_round_trip_and_missing_handler() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        // No handler yet: the requester gets an error reply, not a hang.
        let err = t0.store_block(1, 0, &[1, 2, 3]).expect_err("no handler");
        assert!(err.to_string().contains("no store handler"), "{err}");
        // Rank 1 accepts stores: its allocator assigns slots in
        // arrival order on the hinted disk.
        type StoredBlocks = Arc<Mutex<Vec<(u32, Vec<u8>)>>>;
        let stored: StoredBlocks = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stored);
        t1.set_store_handler(Arc::new(move |hint, data| {
            if hint > 3 {
                return Err(format!("no such disk {hint}"));
            }
            let mut s = sink.lock().expect("sink lock");
            s.push((hint, data.to_vec()));
            Ok((hint, (s.len() - 1) as u32))
        }));
        assert_eq!(t0.store_block(1, 2, &[0xAA, 0xBB]).expect("store"), (2, 0));
        assert_eq!(t0.store_block(1, 1, &[0xCC]).expect("store"), (1, 1));
        let err = t0.store_block(1, 9, &[0]).expect_err("bad disk");
        assert!(matches!(err, Error::Io(ref m) if m.contains("no such disk")), "{err}");
        // Self-stores go through the same handler without the wire.
        assert_eq!(t1.store_block(1, 3, &[0x01]).expect("self store"), (3, 2));
        assert_eq!(
            *stored.lock().expect("sink lock"),
            vec![(2, vec![0xAA, 0xBB]), (1, vec![0xCC]), (3, vec![0x01])]
        );
    }

    #[test]
    fn batched_stores_pipeline_and_match_by_id() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        t1.set_store_handler(Arc::new(move |hint, data| {
            if data.first() == Some(&13) {
                return Err("payload 13 is cursed".to_string());
            }
            Ok((hint, c.fetch_add(1, Ordering::Relaxed) as u32))
        }));
        // One flush puts the whole batch on the wire; acknowledgements
        // come back in request order even when waited in reverse.
        let payloads: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i, i ^ 0xFF]).collect();
        let blocks: Vec<(u32, &[u8])> =
            payloads.iter().enumerate().map(|(i, p)| ((i % 4) as u32, p.as_slice())).collect();
        let stores = t0.store_blocks(1, &blocks).expect("issue batch");
        assert_eq!(stores.len(), blocks.len());
        let mut addrs: Vec<Option<(u32, u32)>> = (0..blocks.len()).map(|_| None).collect();
        for (i, st) in stores.into_iter().enumerate().rev() {
            if i == 13 {
                let err = st.wait().expect_err("cursed payload");
                assert!(err.to_string().contains("cursed"), "{err}");
                addrs[i] = Some((u32::MAX, u32::MAX));
            } else {
                addrs[i] = Some(st.wait().expect("store"));
            }
        }
        for (i, a) in addrs.iter().enumerate() {
            if i == 13 {
                continue;
            }
            // Requests are served in wire order, so the allocator's
            // slot counter tracks the request index (skipping the
            // failed store).
            let expect_slot = if i < 13 { i } else { i - 1 } as u32;
            assert_eq!(*a, Some(((i % 4) as u32, expect_slot)), "store {i}");
        }
        assert_eq!(count.load(Ordering::Relaxed), 39);
    }

    #[test]
    fn dead_peer_fails_stores_fast_not_after_timeout() {
        let opts = TcpOptions { read_timeout: Duration::from_secs(30), ..fast_opts() };
        let mut mesh = loopback_mesh(2, opts).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        drop(t1); // peer dies; no acknowledgement can ever arrive
        let start = Instant::now();
        let data = [7u8; 4];
        let err = match t0.store_blocks(1, &[(0, &data[..]), (1, &data[..])]) {
            Ok(stores) => {
                let mut first_err = None;
                for st in stores {
                    if let Err(e) = st.wait() {
                        first_err = Some(e);
                        break;
                    }
                }
                first_err.expect("dead peer must fail the store")
            }
            Err(e) => e,
        };
        assert!(matches!(err, Error::Comm(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead peer must fail stores promptly, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn dead_peers_snapshot_reports_the_dead_rank() {
        let mut mesh = loopback_mesh(3, fast_opts()).expect("mesh");
        let t2 = mesh.pop().expect("rank 2");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        assert_eq!(t0.dead_peers(), vec![false, false, false]);
        drop(t1);
        // Readers notice the closed sockets within a tick or two; both
        // survivors converge on the same snapshot.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let d0 = t0.dead_peers();
            let d2 = t2.dead_peers();
            if d0 == vec![false, true, false] && d2 == vec![false, true, false] {
                break;
            }
            assert!(Instant::now() < deadline, "rank 1 never reported dead: {d0:?} / {d2:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The surviving pair still talks.
        t2.send(0, vec![9]).expect("send");
        t2.flush().expect("flush");
        assert_eq!(t0.recv(2).expect("recv"), vec![9]);
    }

    #[test]
    fn epoch_marker_cuts_stale_traffic_deterministically() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        // Rank 1 leaves stale pre-recovery traffic queued at rank 0,
        // then cuts over and sends a recovery frame.
        t1.send(0, vec![1]).expect("stale");
        t1.send(0, vec![2]).expect("stale");
        t1.advance_epoch(1).expect("epoch");
        t1.send(0, vec![3]).expect("post-epoch");
        t1.flush().expect("flush");
        // Draining to the marker discards exactly the stale frames.
        t0.drain_to_epoch(1, 1).expect("drain");
        assert_eq!(t0.recv(1).expect("recv"), vec![3]);
        // A watermark already reached makes the drain a no-op (it must
        // not eat post-epoch data).
        t1.send(0, vec![4]).expect("data");
        t1.flush().expect("flush");
        t0.drain_to_epoch(1, 1).expect("idempotent");
        assert_eq!(t0.recv(1).expect("recv"), vec![4]);
        // A recv that runs into a marker surfaces a clean Comm error
        // and records the watermark for a later drain.
        t1.advance_epoch(2).expect("epoch 2");
        let err = t0.recv(1).expect_err("marker surfaces as Comm");
        assert!(matches!(err, Error::Comm(ref m) if m.contains("epoch")), "{err}");
        t0.drain_to_epoch(1, 2).expect("watermark already recorded");
        // The marker also cuts the sender's own self FIFO.
        t1.send(1, vec![5]).expect("self send");
        t1.advance_epoch(3).expect("epoch 3");
        t1.drain_to_epoch(1, 3).expect("self drain");
        t1.send(1, vec![6]).expect("self send");
        assert_eq!(t1.recv(1).expect("self recv"), vec![6]);
    }

    #[test]
    fn single_rank_mesh_needs_no_sockets() {
        let mesh = loopback_mesh(1, fast_opts()).expect("mesh");
        let c = Communicator::new(Box::new(mesh.into_iter().next().expect("one")));
        c.barrier().expect("barrier");
        assert_eq!(c.allreduce_sum(3).expect("allreduce"), 3);
    }

    /// Rank 0 of a two-rank mesh as a real endpoint and rank 1 as a
    /// bare socket that has shaken hands: the test plays rank 1's side
    /// of the wire by hand.
    fn endpoint_and_raw_peer(opts: TcpOptions) -> (TcpTransport, TcpStream) {
        let (l0, a0) = bind_loopback().expect("bind 0");
        let (_l1, a1) = bind_loopback().expect("bind 1");
        let mut raw = TcpStream::connect(a0).expect("raw connect");
        raw.write_all(&mesh::hello(1)).expect("handshake");
        let t0 = TcpTransport::connect_mesh(0, &[a0, a1], l0, opts).expect("mesh 0");
        raw.set_read_timeout(Some(Duration::from_secs(5))).expect("raw timeout");
        (t0, raw)
    }

    #[test]
    fn malformed_request_is_a_protocol_violation_that_closes_the_connection() {
        let store = |len: u32| BlockReq { id: 1, op: BlockOp::Store, disk: 0, slot: 0, len };
        let mut unknown_op = store(0).encode().to_vec();
        unknown_op[8] = 9;
        let fetch_with_payload = BlockReq { id: 1, op: BlockOp::Fetch, disk: 0, slot: 0, len: 3 };
        let bad_frames: Vec<(&str, Vec<u8>)> = vec![
            ("claims more than it carries", [&store(100).encode()[..], &[1, 2, 3]].concat()),
            ("carries more than it claims", [&store(2).encode()[..], &[1, 2, 3]].concat()),
            ("shorter than a request header", vec![0u8; BlockReq::BYTES - 1]),
            ("unknown operation", unknown_op),
            ("fetch with a payload", [&fetch_with_payload.encode()[..], &[1, 2, 3]].concat()),
        ];
        for (what, frame) in bad_frames {
            let (t0, mut raw) = endpoint_and_raw_peer(fast_opts());
            let served = Arc::new(AtomicU64::new(0));
            let count = Arc::clone(&served);
            t0.set_store_handler(Arc::new(move |hint, _| {
                count.fetch_add(1, Ordering::Relaxed);
                Ok((hint, 0))
            }));
            raw.write_all(&[KIND_BLOCK_REQ]).expect("kind");
            raw.write_all(&(frame.len() as u32).to_le_bytes()).expect("len");
            raw.write_all(&frame).expect("frame");
            // No reply, no hang: rank 0 hangs up on the violator and
            // declares it dead.
            let hung_up = match raw.read(&mut [0u8; 1]) {
                Ok(n) => n == 0,
                Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            };
            assert!(hung_up, "{what}: expected the connection closed without a reply");
            let deadline = Instant::now() + Duration::from_secs(5);
            while !t0.dead_peers()[1] {
                assert!(Instant::now() < deadline, "{what}: violator never declared dead");
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(served.load(Ordering::Relaxed), 0, "{what}: the handler ran");
        }
    }

    #[test]
    fn dead_peer_fails_inflight_and_future_requests_of_both_operations() {
        // A read timeout that requests left hanging would ride out.
        let opts = TcpOptions { read_timeout: Duration::from_secs(30), ..fast_opts() };
        let (t0, raw) = endpoint_and_raw_peer(opts);
        // Rank 1 never answers, so these are in flight for certain.
        let fetches = t0.fetch_blocks(1, &[(0, 0), (1, 1)]).expect("issue fetches");
        let stores = t0.store_blocks(1, &[(0, &[7u8; 4][..])]).expect("issue stores");
        let start = Instant::now();
        drop(raw); // rank 1 dies
        for f in fetches {
            let err = f.wait().expect_err("dead peer must fail the fetch");
            assert!(matches!(err, Error::Comm(ref m) if m.contains("fetch from rank 1")), "{err}");
        }
        for s in stores {
            let err = s.wait().expect_err("dead peer must fail the store");
            assert!(matches!(err, Error::Comm(ref m) if m.contains("store to rank 1")), "{err}");
        }
        // Later requests come back failed as well, whichever path
        // notices first.
        let later_fetch = t0.fetch_block(1, 0, 0).expect_err("fetch from a dead rank");
        let later_store = t0.store_block(1, 0, &[1]).expect_err("store to a dead rank");
        assert!(matches!(later_fetch, Error::Comm(_)), "{later_fetch}");
        assert!(matches!(later_store, Error::Comm(_)), "{later_store}");
        assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
    }

    #[test]
    fn cleared_handlers_answer_with_an_error_not_a_hang() {
        let mut mesh = loopback_mesh(2, fast_opts()).expect("mesh");
        let t1 = mesh.pop().expect("rank 1");
        let t0 = mesh.pop().expect("rank 0");
        t1.set_block_handler(Arc::new(|_, _| Ok(vec![1])));
        t1.set_store_handler(Arc::new(|hint, _| Ok((hint, 0))));
        assert_eq!(t0.fetch_block(1, 0, 0).expect("served"), vec![1]);
        assert_eq!(t0.store_block(1, 3, &[9]).expect("served"), (3, 0));
        t1.clear_block_handler();
        t1.clear_store_handler();
        let err = t0.fetch_block(1, 0, 0).expect_err("cleared");
        assert!(matches!(err, Error::Io(ref m) if m.contains("no block handler")), "{err}");
        let err = t0.store_block(1, 3, &[9]).expect_err("cleared");
        assert!(matches!(err, Error::Io(ref m) if m.contains("no store handler")), "{err}");
        // Not a rank of the mesh at all: a configuration error.
        assert!(matches!(t0.fetch_blocks(2, &[(0, 0)]), Err(Error::Config(_))));
        assert!(matches!(t0.store_blocks(2, &[]), Err(Error::Config(_))));
    }

    #[test]
    fn malformed_acknowledgement_fails_the_store_it_answers() {
        use super::link::KIND_BLOCK_RESP;
        use demsort_types::wire::encode_block_resp;
        let respond = |raw: &mut TcpStream, prefix: [u8; 9], body: &[u8]| {
            raw.write_all(&[KIND_BLOCK_RESP]).expect("kind");
            raw.write_all(&((prefix.len() + body.len()) as u32).to_le_bytes()).expect("len");
            raw.write_all(&[&prefix[..], body].concat()).expect("frame");
        };
        // An address with trailing garbage is not an address (request
        // ids count from 1).
        let (t0, mut raw) = endpoint_and_raw_peer(fast_opts());
        let mut stores = t0.store_blocks(1, &[(0, &[7u8; 4][..])]).expect("issue");
        respond(&mut raw, encode_block_resp(1, true), &[0u8; 9]);
        let err = stores.pop().expect("one store").wait().expect_err("9-byte address");
        assert!(matches!(err, Error::Comm(ref m) if m.contains("malformed 9-byte")), "{err}");
        // An unknown status byte is a protocol violation: the peer is
        // declared dead, which fails the request at once.
        let mut stores = t0.store_blocks(1, &[(0, &[7u8; 4][..])]).expect("issue");
        let mut prefix = encode_block_resp(2, true);
        prefix[8] = 9;
        respond(&mut raw, prefix, &[0u8; 8]);
        let err = stores.pop().expect("one store").wait().expect_err("unknown status");
        assert!(matches!(err, Error::Comm(ref m) if m.contains("peer disconnected")), "{err}");
    }
}
