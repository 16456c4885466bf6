//! Surviving a rank's death: [`replicate_run`] stores every formed run
//! block on its owner's buddy ranks at run formation, and [`regroup`]
//! turns a merge attempt that failed with [`Error::Comm`] into what the
//! survivors re-merge with — see
//! [`striped_mergesort`](super::striped_mergesort) for the contract.

use super::runs::{RankView, StripedRun};
use crate::ctx::{ClusterStorage, PhaseRecorder};
use demsort_net::{decode_u64s, encode_u64s, Communicator};
use demsort_storage::BlockId;
use demsort_types::wire::{from_peer, WireReader, WireWriter};
use demsort_types::{CommCounters, Error, Result};
use std::time::{Duration, Instant};

/// Factory for a survivor communicator over the given (strictly
/// increasing, global) member ranks — the `subgroup` hook of
/// [`ResilientHooks`].
pub type SubgroupFn<'a> = Box<dyn FnMut(&[usize]) -> Result<Communicator> + 'a>;

/// Failure-recovery callbacks for
/// [`striped_mergesort`](super::striped_mergesort). The sort itself is
/// transport-agnostic; these hooks supply the three things only the
/// harness knows: who died, how the survivors regroup, and (for tests) a
/// seam to abandon a rank at a deterministic point.
pub struct ResilientHooks<'a> {
    /// Failure-detector snapshot: `dead[r]` is true once rank `r` is
    /// known dead (e.g. [`Transport::dead_peers`]). Polled after a
    /// merge attempt fails with [`Error::Comm`].
    ///
    /// [`Transport::dead_peers`]: demsort_net::Transport::dead_peers
    pub dead_set: Box<dyn Fn() -> Vec<bool> + 'a>,
    /// Build a communicator over the given **global** ranks (strictly
    /// increasing, containing this rank). The harness is responsible
    /// for the epoch cut that makes the new group's channels clean
    /// (e.g. [`Transport::advance_epoch`] + drain, then
    /// [`SubTransport`]).
    ///
    /// [`Transport::advance_epoch`]: demsort_net::Transport::advance_epoch
    /// [`SubTransport`]: demsort_net::SubTransport
    pub subgroup: SubgroupFn<'a>,
    /// Test seam, called with this rank's global rank when run
    /// formation (and replication) is complete and merging is about
    /// to start. Returning `false` makes this rank abandon the sort
    /// with [`Error::Comm`] — the in-process stand-in for a killed
    /// process (its transport endpoint drops, so peers see it dead).
    pub on_merge_start: Option<Box<dyn Fn(usize) -> bool + 'a>>,
}

/// How long recovery waits for the failure detector to name a dead
/// rank after a merge attempt dies with a communication error.
const DEAD_SET_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll interval while waiting on the failure detector.
const DEAD_SET_POLL: Duration = Duration::from_millis(20);

/// One replica a rank stored: replica `i` (`1..=f`) of global block `g`
/// of the run, at `id` on rank `(owner + i) mod P`.
type ReplicaEntry = (usize, usize, BlockId);

fn encode_replicas(entries: &[ReplicaEntry]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(entries.len() * 20);
    for &(g, i, id) in entries {
        w.u64(g as u64).u32(i as u32).u32(id.disk).u32(id.slot);
    }
    w.finish()
}

/// One rank's replica directory message for a run of `blocks` blocks
/// replicated `f` times.
fn decode_replicas(buf: &[u8], blocks: usize, f: usize) -> Result<Vec<ReplicaEntry>> {
    let mut r = WireReader::new(buf);
    let mut entries = Vec::with_capacity(buf.len() / 20);
    while r.remaining() > 0 {
        let g = r.field("g").u64()?;
        let i = r.field("replica index").u32()? as usize;
        let disk = r.field("disk").u32()?;
        let slot = r.field("slot").u32()?;
        if g >= blocks as u64 {
            return Err(Error::comm(format!("g = {g} of {blocks} blocks")));
        }
        if i == 0 || i > f {
            return Err(Error::comm(format!("replica index {i} at replication {f}")));
        }
        entries.push((g as usize, i, BlockId::new(disk, slot)));
    }
    Ok(entries)
}

/// Store `f` replicas of every block of `run` this rank owns on its
/// buddy ranks — replica `i` of a block owned by `o` goes to rank
/// `(o + i) mod P` — through the write side of the block service,
/// then allgather the replica directory so every rank can fail over
/// without communication. Charges the stores to `rec` as
/// communication (one message and one block of send volume per stored
/// replica on the sender; the mirror receive volume on the buddy).
pub(super) fn replicate_run<K>(
    comm: &Communicator,
    storage: &ClusterStorage,
    f: usize,
    run: &mut StripedRun<K>,
    rec: &mut PhaseRecorder,
) -> Result<()> {
    let me = comm.rank();
    let p = comm.size();
    let st = storage.pe(me);
    let block_bytes = st.block_bytes();

    // Read this rank's blocks of the run back once and fan the bytes out
    // to each buddy — a window at a time, so that what is read here and
    // what the buddies stage while storing stays inside the buffer pool,
    // and every buffer goes back to it once the last buddy has its copy.
    // Directory entries this rank contributes: the owner is already in
    // the run directory and the replica rank is derived as
    // (owner + i) mod P.
    let mine: Vec<usize> =
        (0..run.blocks.len()).filter(|&g| run.owners[g] as usize == me).collect();
    let window = (st.pool().capacity() / 4).max(1);
    let mut entries: Vec<ReplicaEntry> = Vec::with_capacity(mine.len() * f);
    for chunk in mine.chunks(window) {
        let ids: Vec<BlockId> = chunk.iter().map(|&g| run.blocks[g]).collect();
        let mut data: Vec<Box<[u8]>> = Vec::with_capacity(ids.len());
        for fetch in storage.fetch_blocks(me, &ids)? {
            data.push(fetch.wait()?);
        }
        for i in 1..=f {
            let blocks: Vec<(u32, &[u8])> =
                ids.iter().zip(&data).map(|(id, d)| (id.disk, d.as_ref())).collect();
            let (stores, _target) = storage.store_blocks(me, (me + i) % p, &blocks)?;
            for (&g, store) in chunk.iter().zip(stores) {
                entries.push((g, i, store.wait()?));
            }
        }
        for buf in data {
            st.pool().put(buf);
        }
    }
    let stored = (mine.len() * f) as u64;
    let received = (1..=f)
        .map(|i| {
            let giver = (me + p - i) % p;
            run.owners.iter().filter(|&&o| o as usize == giver).count() as u64
        })
        .sum::<u64>();
    rec.add_comm(CommCounters {
        messages: stored,
        bytes_sent: stored * block_bytes as u64,
        bytes_recv: received * block_bytes as u64,
    });

    // Allgather the replica directory: replica i of every block, once,
    // from the block's owner.
    let gathered = comm.allgather(encode_replicas(&entries))?;
    let mut replicas: Vec<Vec<Option<BlockId>>> = vec![vec![None; f]; run.blocks.len()];
    for (src, buf) in gathered.iter().enumerate() {
        let bad = |e: Error| from_peer(me, src, "replica directory", e);
        for (g, i, id) in decode_replicas(buf, run.blocks.len(), f).map_err(bad)? {
            if run.owners[g] as usize != src {
                let owner = run.owners[g];
                return Err(bad(Error::comm(format!("g = {g} is owned by rank {owner}"))));
            }
            if replicas[g][i - 1].replace(id).is_some() {
                let twice = format!("replica index {i} of block {g} listed twice");
                return Err(bad(Error::comm(twice)));
            }
        }
    }
    run.replicas = Vec::with_capacity(run.blocks.len());
    for (g, reps) in replicas.into_iter().enumerate() {
        let owner = run.owners[g] as usize;
        let mut listed = Vec::with_capacity(f);
        for (i, id) in reps.into_iter().enumerate() {
            let id = id.ok_or_else(|| {
                Error::comm(format!(
                    "rank {me}: replica directory: rank {owner} lists no replica {} of block {g}",
                    i + 1
                ))
            })?;
            listed.push((((owner + i + 1) % p) as u32, id));
        }
        run.replicas.push(listed);
    }
    Ok(())
}

/// Re-route every block owned by a dead rank to its first live
/// replica: the returned runs have `owners[g]`/`blocks[g]` rewritten
/// to the replica's rank and block id. Also returns how many blocks
/// rank `me` re-serves after the remap (the failover volume it
/// records). Fails with [`Error::Comm`] if any dead-owned block has
/// no live replica (every buddy also died).
pub(super) fn remap_runs<K: Clone>(
    runs: &[StripedRun<K>],
    dead: &[bool],
    me: usize,
) -> Result<(Vec<StripedRun<K>>, u64)> {
    let is_dead = |r: usize| dead.get(r).copied().unwrap_or(false);
    let mut served = 0u64;
    let mut out = Vec::with_capacity(runs.len());
    for (ri, run) in runs.iter().enumerate() {
        let mut run = run.clone();
        for g in 0..run.blocks.len() {
            let owner = run.owners[g] as usize;
            if !is_dead(owner) {
                continue;
            }
            let live = |reps: &Vec<(u32, BlockId)>| {
                reps.iter().find(|&&(r, _)| !is_dead(r as usize)).copied()
            };
            let Some((rank, id)) = run.replicas.get(g).and_then(live) else {
                return Err(Error::comm(format!(
                    "run {ri} block {g}: owner rank {owner} is dead and no live replica exists"
                )));
            };
            run.owners[g] = rank;
            run.blocks[g] = id;
            if rank as usize == me {
                served += 1;
            }
        }
        out.push(run);
    }
    Ok((out, served))
}

/// Every member of `sub` must hold the same member list, or the
/// re-merge would deadlock on mismatched collectives: allgather the
/// lists — at any `P` — and compare. A disagreement is an error on
/// **every** rank, since each sees at least one list that is not its own.
fn agree_on_members(sub: &Communicator, members: &[usize]) -> Result<()> {
    let mine: Vec<u64> = members.iter().map(|&r| r as u64).collect();
    let lists: Vec<Vec<u64>> =
        sub.allgather(encode_u64s(&mine))?.iter().map(|l| decode_u64s(l)).collect::<Result<_>>()?;
    if lists.iter().all(|l| *l == mine) {
        return Ok(());
    }
    Err(Error::comm(format!("survivors disagree on who survived: their lists are {lists:?}")))
}

/// What the survivors of a failed merge attempt re-merge with.
pub(super) struct Survivors<K> {
    /// The communicator over the surviving ranks.
    pub comm: Communicator,
    /// Its ranks' global ranks.
    pub view: RankView,
    /// The initial runs, dead owners' blocks re-routed to replicas.
    pub runs: Vec<StripedRun<K>>,
    /// Blocks this rank now serves in a dead owner's place.
    pub served: u64,
}

/// Regroup after a merge attempt over `p` ranks failed with `err`: wait
/// for the failure detector to name the dead, build the survivors'
/// communicator, check that all of them built the same one, and re-route
/// the dead ranks' blocks of `runs` to their replicas.
pub(super) fn regroup<K: Clone>(
    hooks: &mut ResilientHooks<'_>,
    err: Error,
    me: usize,
    p: usize,
    runs: &[StripedRun<K>],
) -> Result<Survivors<K>> {
    let deadline = Instant::now() + DEAD_SET_TIMEOUT;
    let dead = loop {
        let dead = (hooks.dead_set)();
        if dead.iter().any(|&d| d) {
            break dead;
        }
        if Instant::now() >= deadline {
            return Err(Error::comm(format!(
                "merge failed ({err}) but the failure detector names no dead rank"
            )));
        }
        std::thread::sleep(DEAD_SET_POLL);
    };
    let members: Vec<usize> = (0..p).filter(|&r| !dead.get(r).copied().unwrap_or(false)).collect();
    if members.len() < 2 || !members.contains(&me) {
        return Err(err);
    }
    let comm = (hooks.subgroup)(&members)?;
    agree_on_members(&comm, &members)?;
    let (runs, served) = remap_runs(runs, &dead, me)?;
    Ok(Survivors { comm, view: RankView { my_global: me, globals: members }, runs, served })
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_net::run_cluster;
    use proptest::prelude::*;

    #[test]
    fn survivors_that_disagree_on_the_membership_all_fail() {
        // Identical lists pass on every rank.
        for res in run_cluster(3, |c| agree_on_members(&c, &[0, 1, 3])) {
            assert_eq!(res, Ok(()));
        }
        // One rank saw another rank die: nobody may start the re-merge.
        let results = run_cluster(3, |c| {
            let members: &[usize] = if c.rank() == 1 { &[0, 1, 2] } else { &[0, 1, 3] };
            agree_on_members(&c, members)
        });
        for (r, res) in results.into_iter().enumerate() {
            let err = res.expect_err("disagreement");
            let text = err.to_string();
            assert!(matches!(err, Error::Comm(_)), "rank {r}: {text}");
            assert!(text.contains("[0, 1, 3]") && text.contains("[0, 1, 2]"), "rank {r}: {text}");
        }
    }

    #[test]
    fn replica_directory_rejects_short_frames_and_out_of_range_fields() {
        let entries = vec![(0, 1, BlockId::new(1, 7)), (4, 2, BlockId::new(0, 9))];
        let buf = encode_replicas(&entries);
        assert_eq!(decode_replicas(&buf, 5, 2), Ok(entries.clone()));
        for cut in 0..buf.len() {
            match decode_replicas(&buf[..cut], 5, 2) {
                Err(Error::Comm(_)) => {}
                // On an entry boundary: fewer entries, which the
                // per-block completeness check rejects.
                other => assert!(matches!(&other, Ok(e) if e.len() < entries.len()), "cut {cut}"),
            }
        }
        for (bad, field) in [
            ((5, 1, BlockId::new(0, 0)), "g = "),
            ((0, 0, BlockId::new(0, 0)), "replica index"),
            ((0, 3, BlockId::new(0, 0)), "replica index"),
        ] {
            let err = decode_replicas(&encode_replicas(&[bad]), 5, 2).expect_err(field);
            assert!(matches!(&err, Error::Comm(m) if m.contains(field)), "{field}: {err}");
        }
    }

    proptest! {
        #[test]
        fn replica_directory_round_trips(
            gs in prop::collection::vec(0usize..50, 0..30),
            slots in prop::collection::vec(0u32..u32::MAX, 30..31),
        ) {
            let entries: Vec<ReplicaEntry> = gs
                .iter()
                .zip(&slots)
                .map(|(&g, &s)| (g, 1 + s as usize % 3, BlockId::new(s % 4, s)))
                .collect();
            prop_assert_eq!(decode_replicas(&encode_replicas(&entries), 50, 3), Ok(entries));
        }
    }
}
