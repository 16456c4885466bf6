//! The block reader: prefetching a known block sequence under a buffer
//! budget.
//!
//! During a merge pass the order in which blocks are needed is known in
//! advance from the *prediction sequence* (the smallest key in each
//! block, Section III / \[11\]); a sequential read knows it trivially.
//! Two schedules are provided:
//!
//! * [`naive_issue_order`] — fetch blocks simply in consumption order
//!   (works well for random inputs, \[11\]);
//! * [`duality_issue_order`] — the asymptotically optimal schedule of
//!   Hutchinson–Sanders–Vitter (\[13\], Appendix A of the paper):
//!   simulate *lazy buffered writing* of the reversed sequence and play
//!   the resulting steps backwards. With `Ω(D)` buffers this keeps all
//!   disks busy even for adversarial disk layouts.
//!
//! [`MergePrefetcher`] executes a schedule against a [`PeStorage`],
//! bounding in-flight blocks by the buffer budget. It is the reader of
//! every sequential local read: [`read_run`](crate::read_run) and the
//! record reader of `demsort-core` (final merge, all-to-all, output
//! validation) drive it in naive order.
//! [`simulate_schedule`] evaluates a schedule analytically (parallel
//! I/O steps, consumer stalls) for tests and the ablation bench.

use crate::block::BlockId;
use crate::engine::IoHandle;
use crate::striping::PeStorage;
use demsort_types::Result;
use std::collections::VecDeque;

/// Fetch blocks in exactly the order the merger will consume them.
pub fn naive_issue_order(seq: &[BlockId]) -> Vec<usize> {
    (0..seq.len()).collect()
}

/// Optimal-prefetching issue order via write/prefetch duality.
///
/// Process the reversed consumption sequence as if *writing* with a
/// buffer of `buffers` blocks: queue each block on its disk; whenever
/// the buffer is full, perform an output step in which every disk with
/// a queued block writes (pops) one. The prefetch schedule is the
/// write steps in reverse order.
pub fn duality_issue_order(seq: &[BlockId], buffers: usize) -> Vec<usize> {
    let buffers = buffers.max(1);
    let num_disks = seq.iter().map(|b| b.disk as usize + 1).max().unwrap_or(1);
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); num_disks];
    let mut buffered = 0usize;
    let mut steps: Vec<Vec<usize>> = Vec::new();

    let mut output_step = |queues: &mut Vec<VecDeque<usize>>, buffered: &mut usize| {
        let mut step = Vec::new();
        for q in queues.iter_mut() {
            if let Some(idx) = q.pop_front() {
                step.push(idx);
                *buffered -= 1;
            }
        }
        if !step.is_empty() {
            steps.push(step);
        }
    };

    for idx in (0..seq.len()).rev() {
        queues[seq[idx].disk as usize].push_back(idx);
        buffered += 1;
        if buffered >= buffers {
            output_step(&mut queues, &mut buffered);
        }
    }
    while buffered > 0 {
        output_step(&mut queues, &mut buffered);
    }

    // Prefetch order = write steps reversed (within a step the blocks
    // hit distinct disks, so their relative order is irrelevant).
    let mut order = Vec::with_capacity(seq.len());
    for step in steps.iter().rev() {
        order.extend(step.iter().copied());
    }
    debug_assert_eq!(order.len(), seq.len());
    order
}

/// Result of analytically simulating a prefetch schedule.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleSim {
    /// Parallel I/O steps until the whole sequence is consumed
    /// (lower bound: `⌈max per-disk load⌉`).
    pub io_steps: u64,
    /// Steps in which the consumer made no progress while data was
    /// still outstanding.
    pub consumer_stalls: u64,
}

/// Simulate executing `issue_order` over `seq` with `buffers` block
/// buffers: each I/O step every disk delivers at most one queued fetch;
/// the consumer drains blocks in `seq` order as they arrive.
pub fn simulate_schedule(seq: &[BlockId], issue_order: &[usize], buffers: usize) -> ScheduleSim {
    assert_eq!(seq.len(), issue_order.len());
    let buffers = buffers.max(1);
    let num_disks = seq.iter().map(|b| b.disk as usize + 1).max().unwrap_or(1);
    let n = seq.len();
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); num_disks];
    let mut resident = vec![false; n];
    let mut pending = 0usize; // queued + resident, bounded by `buffers`
    let mut next_issue = 0usize;
    let mut consumed = 0usize;
    let mut sim = ScheduleSim::default();

    // Prime the queues before the first step.
    while next_issue < n && pending < buffers {
        let idx = issue_order[next_issue];
        queues[seq[idx].disk as usize].push_back(idx);
        pending += 1;
        next_issue += 1;
    }

    while consumed < n {
        sim.io_steps += 1;
        // Every disk delivers one queued block.
        for q in queues.iter_mut() {
            if let Some(idx) = q.pop_front() {
                resident[idx] = true;
            }
        }
        // Consumer drains in order.
        let before = consumed;
        while consumed < n && resident[consumed] {
            resident[consumed] = false;
            pending -= 1;
            consumed += 1;
        }
        if consumed == before {
            sim.consumer_stalls += 1;
        }
        // Issue more fetches into the freed budget.
        while next_issue < n && pending < buffers {
            let idx = issue_order[next_issue];
            queues[seq[idx].disk as usize].push_back(idx);
            pending += 1;
            next_issue += 1;
        }
    }
    sim
}

/// Online prefetcher: issues reads per a schedule, bounded by a buffer
/// budget, and yields blocks in consumption order. Each call of
/// [`next`](Self::next) tops the reads in flight up to the budget,
/// waits for the next block in order, frees its slot if asked to, and
/// tops up again before handing the block over.
pub struct MergePrefetcher<'a> {
    st: &'a PeStorage,
    seq: Vec<BlockId>,
    /// The order reads are issued in, as positions in `seq` (`None`:
    /// consumption order); a permutation either way.
    issue_order: Option<Vec<usize>>,
    /// The reads in flight, at most `buffers`, by position in `seq`.
    in_flight: VecDeque<(usize, IoHandle)>,
    next_issue: usize,
    next_deliver: usize,
    buffers: usize,
    free_after_read: bool,
}

impl<'a> MergePrefetcher<'a> {
    /// Prefetch `seq` from `st` following `issue_order`, keeping at most
    /// `buffers` blocks issued-but-undelivered. If `free_after_read`,
    /// each block is recycled as soon as it is delivered.
    fn new(
        st: &'a PeStorage,
        seq: Vec<BlockId>,
        issue_order: Option<Vec<usize>>,
        buffers: usize,
        free_after_read: bool,
    ) -> Self {
        debug_assert!(issue_order.as_ref().is_none_or(|order| order.len() == seq.len()));
        Self {
            st,
            seq,
            issue_order,
            in_flight: VecDeque::new(),
            next_issue: 0,
            next_deliver: 0,
            buffers: buffers.max(1),
            free_after_read,
        }
    }

    /// Convenience: naive schedule.
    pub fn naive(st: &'a PeStorage, seq: Vec<BlockId>, buffers: usize, free: bool) -> Self {
        Self::new(st, seq, None, buffers, free)
    }

    /// Convenience: duality-optimal schedule.
    pub fn optimal(st: &'a PeStorage, seq: Vec<BlockId>, buffers: usize, free: bool) -> Self {
        let order = duality_issue_order(&seq, buffers);
        Self::new(st, seq, Some(order), buffers, free)
    }

    fn top_up(&mut self) {
        while self.in_flight.len() < self.buffers && self.next_issue < self.seq.len() {
            let idx = self.issue_order.as_ref().map_or(self.next_issue, |o| o[self.next_issue]);
            self.in_flight.push_back((idx, self.st.engine().read(self.seq[idx])));
            self.next_issue += 1;
        }
    }

    /// The number of blocks remaining to deliver.
    pub fn remaining(&self) -> usize {
        self.seq.len() - self.next_deliver
    }

    /// Next block in consumption order, or `None` after the last one.
    /// (Not an `Iterator`: delivery is fallible, so the signature is
    /// `Result<Option<..>>`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Box<[u8]>>> {
        self.top_up();
        let idx = self.next_deliver;
        // Both schedules issue block `idx` before `buffers` blocks
        // consumed after it are in flight (the duality order holds at
        // most `buffers - 1` of them ahead of it), so after a top-up
        // the next block's read is issued unless the sequence is done.
        let pos = self.in_flight.iter().position(|&(i, _)| i == idx);
        let Some((_, h)) = pos.and_then(|at| self.in_flight.remove(at)) else {
            debug_assert_eq!(idx, self.seq.len(), "block {idx} not issued");
            return Ok(None);
        };
        let data = h.wait()?;
        self.next_deliver += 1;
        if self.free_after_read {
            self.st.free_block(self.seq[idx]);
        }
        self.top_up();
        Ok(Some(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::disk::DiskModel;
    use std::sync::Arc;

    fn storage(disks: usize, block: usize) -> PeStorage {
        PeStorage::with_backend(disks, block, DiskModel::paper(), Arc::new(MemBackend::new(disks)))
    }

    /// A consumption sequence that is adversarial for naive prefetching:
    /// long stretches on a single disk.
    fn clustered_seq(per_disk: usize, disks: u32) -> Vec<BlockId> {
        let mut seq = Vec::new();
        for d in 0..disks {
            for s in 0..per_disk as u32 {
                seq.push(BlockId::new(d, s));
            }
        }
        seq
    }

    fn striped_seq(n: usize, disks: u32) -> Vec<BlockId> {
        (0..n as u32).map(|i| BlockId::new(i % disks, i / disks)).collect()
    }

    #[test]
    fn duality_order_is_a_permutation() {
        for buffers in [1, 2, 4, 7, 64] {
            let seq = clustered_seq(13, 3);
            let order = duality_issue_order(&seq, buffers);
            let mut seen = vec![false; seq.len()];
            for &i in &order {
                assert!(!seen[i], "duplicate index {i}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn striped_sequence_achieves_full_parallelism() {
        let seq = striped_seq(64, 4);
        let sim = simulate_schedule(&seq, &naive_issue_order(&seq), 8);
        // 64 blocks over 4 disks: at least 16 steps; striping should be
        // within one step of that.
        assert!(sim.io_steps <= 17, "steps = {}", sim.io_steps);
    }

    #[test]
    fn duality_never_worse_than_naive() {
        // Engineering note: with queued asynchronous disks (per-disk
        // FIFO queues, budget counted at issue time) the in-order naive
        // schedule already realizes the cross-cluster overlap that the
        // duality schedule encodes explicitly, so the two tie on most
        // sequences — consistent with [11] observing naive order works
        // well in practice. The theoretical gap of [6]/[13] needs the
        // queue-less fetch-step model. We assert the optimal schedule is
        // never *worse*, on clustered, striped, and random layouts.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut cases = vec![clustered_seq(32, 4), striped_seq(128, 4)];
        let mut next_slot = [0u32; 4];
        cases.push(
            (0..150)
                .map(|_| {
                    let d = rng.gen_range(0..4u32);
                    let s = next_slot[d as usize];
                    next_slot[d as usize] += 1;
                    BlockId::new(d, s)
                })
                .collect(),
        );
        for seq in cases {
            for buffers in [4usize, 8, 16, 64] {
                let naive = simulate_schedule(&seq, &naive_issue_order(&seq), buffers);
                let optimal = simulate_schedule(&seq, &duality_issue_order(&seq, buffers), buffers);
                assert!(
                    optimal.io_steps <= naive.io_steps,
                    "optimal {} vs naive {} (buffers {buffers})",
                    optimal.io_steps,
                    naive.io_steps
                );
            }
        }
    }

    #[test]
    fn duality_step_count_near_lower_bound_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let disks = 4u32;
        let mut next_slot = vec![0u32; disks as usize];
        let seq: Vec<BlockId> = (0..200)
            .map(|_| {
                let d = rng.gen_range(0..disks);
                let s = next_slot[d as usize];
                next_slot[d as usize] += 1;
                BlockId::new(d, s)
            })
            .collect();
        let buffers = 4 * disks as usize;
        let sim = simulate_schedule(&seq, &duality_issue_order(&seq, buffers), buffers);
        let max_load = *next_slot.iter().max().expect("disks") as u64;
        assert!(
            sim.io_steps <= max_load * 2,
            "steps {} vs per-disk load {}",
            sim.io_steps,
            max_load
        );
    }

    #[test]
    fn prefetcher_delivers_in_order_both_schedules() {
        let st = storage(3, 16);
        // Write blocks with identifiable contents in clustered layout.
        let seq = clustered_seq(10, 3);
        for (i, id) in seq.iter().enumerate() {
            st.engine().write_sync(*id, vec![i as u8; 16].into_boxed_slice()).expect("write");
        }
        for optimal in [false, true] {
            let mut pf = if optimal {
                MergePrefetcher::optimal(&st, seq.clone(), 4, false)
            } else {
                MergePrefetcher::naive(&st, seq.clone(), 4, false)
            };
            let mut i = 0u8;
            while let Some(block) = pf.next().expect("read") {
                assert!(block.iter().all(|&b| b == i), "block {i} content");
                i += 1;
            }
            assert_eq!(i as usize, seq.len());
        }
    }

    #[test]
    fn prefetcher_frees_blocks_in_place_mode() {
        let st = storage(2, 16);
        let ids: Vec<BlockId> = (0..6).map(|_| st.alloc().alloc_striped()).collect();
        for id in &ids {
            st.engine().write_sync(*id, vec![1u8; 16].into_boxed_slice()).expect("write");
        }
        assert_eq!(st.alloc().in_use(), 6);
        let mut pf = MergePrefetcher::optimal(&st, ids, 2, true);
        while pf.next().expect("read").is_some() {}
        assert_eq!(st.alloc().in_use(), 0);
    }

    #[test]
    fn tiny_buffer_budget_still_correct() {
        let st = storage(2, 8);
        let seq = striped_seq(20, 2);
        for (i, id) in seq.iter().enumerate() {
            st.engine().write_sync(*id, vec![i as u8; 8].into_boxed_slice()).expect("write");
        }
        let mut pf = MergePrefetcher::optimal(&st, seq.clone(), 1, false);
        let mut count = 0;
        while let Some(b) = pf.next().expect("read") {
            assert_eq!(b[0] as usize, count);
            count += 1;
        }
        assert_eq!(count, seq.len());
    }

    #[test]
    fn duality_order_has_the_next_block_in_flight_at_any_budget() {
        // No fallback read: the next block's read must be in flight
        // after every top-up, on random layouts, whatever the budget.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for budget in [1, 2, 3, 5, 8] {
            let st = storage(3, 8);
            let mut next_slot = [0u32; 3];
            let seq: Vec<BlockId> = (0..60)
                .map(|_| {
                    let d = rng.gen_range(0..3u32);
                    next_slot[d as usize] += 1;
                    BlockId::new(d, next_slot[d as usize] - 1)
                })
                .collect();
            for (i, id) in seq.iter().enumerate() {
                st.engine().write_sync(*id, vec![i as u8; 8].into_boxed_slice()).expect("write");
            }
            let mut pf = MergePrefetcher::optimal(&st, seq.clone(), budget, false);
            for i in 0..seq.len() {
                let block = pf.next().expect("read").expect("block in flight");
                assert_eq!(block[0] as usize, i, "budget {budget}");
                let next = i + 1 == seq.len() || pf.in_flight.iter().any(|&(j, _)| j == i + 1);
                assert!(next, "budget {budget}: block {} not in flight", i + 1);
            }
            assert!(pf.next().expect("read").is_none());
        }
    }

    #[test]
    fn empty_sequence() {
        let st = storage(1, 8);
        let mut pf = MergePrefetcher::naive(&st, Vec::new(), 4, false);
        assert!(pf.next().expect("read").is_none());
        assert_eq!(pf.remaining(), 0);
    }
}
