//! Surviving a rank's death: run formation writes every block of an
//! initial run to its owner's buddy ranks too, in the run's one
//! striping all-to-all (`runs::DiskOutput`), and [`regroup`] turns a
//! merge attempt that failed with [`Error::Comm`] into what the
//! survivors re-merge with — see
//! [`striped_mergesort`](super::striped_mergesort) for the contract.

use super::runs::{RankView, StripedRun};
use demsort_net::{decode_u64s, encode_u64s, Communicator};
use demsort_storage::BlockId;
use demsort_types::{Error, Result};
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
}
