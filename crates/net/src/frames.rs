//! The long frames one transport endpoint receives messages into and
//! builds them in, kept across messages.
//!
//! A run's exchange moves about `m` bytes per PE, in messages of a few
//! hundred KiB to a few MiB. Allocated and freed afresh every run, such
//! buffers leave the allocator's state — and so the process's resident
//! set — to the timing of the frees: glibc raises its mmap threshold on
//! every free of an mmapped chunk, so a later run's buffer may come from
//! a heap whose freed space stays resident. A [`FrameList`] hands the
//! same few frames out run after run instead ("clear arena, reuse
//! capacity, repeat"): once the first run has sized them, nothing
//! message-sized is allocated again.
//!
//! Only frames of at least [`LONG_FRAME`] bytes are kept or counted;
//! shorter ones are allocated and dropped as before. The list never
//! holds more frames than the endpoint had out at once — taken or
//! received, not yet handed back or sent — and a sort
//! [releases](FrameList::release) it when a phase ends, so it keeps no
//! frame that no sender or receiver of the phase reuses.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Frames of at least this many bytes come from, and go back to, the
/// endpoint's [`FrameList`].
pub const LONG_FRAME: usize = 64 << 10;

/// How an endpoint's long frames were obtained so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameCounts {
    /// Long frames served from the list: memory used before.
    pub reused: u64,
    /// Long frames allocated because no frame in the list was long
    /// enough.
    pub fresh: u64,
    /// Bytes copied into frames ([`FrameList::gather`]): the borrowed
    /// messages an in-process endpoint hands to a peer, and those any
    /// endpoint delivers to itself.
    pub copied: u64,
}

/// One endpoint's long frames (shared with its reader threads).
#[derive(Debug, Default)]
pub struct FrameList {
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    free: Vec<Vec<u8>>,
    /// Long frames out of the list now, and at most so far.
    out: usize,
    peak: usize,
    counts: FrameCounts,
}

impl FrameList {
    /// The list, whatever a thread that panicked holding it left: every
    /// state it can leave is a valid list.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A frame of exactly `len` bytes, whose contents are unspecified
    /// (a recycled frame keeps its old bytes). A long one is the
    /// shortest frame in the list that holds `len` bytes, or a fresh one
    /// with an eighth of headroom, so that the next messages, about as
    /// long, fit it too.
    pub fn take(&self, len: usize) -> Vec<u8> {
        if len < LONG_FRAME {
            return vec![0; len];
        }
        let mut s = self.state();
        s.out += 1;
        s.peak = s.peak.max(s.out);
        let fit = (0..s.free.len())
            .filter(|&i| s.free[i].capacity() >= len)
            .min_by_key(|&i| s.free[i].capacity());
        let mut frame = match fit {
            Some(i) => {
                s.counts.reused += 1;
                s.free.swap_remove(i)
            }
            None => {
                s.counts.fresh += 1;
                Vec::with_capacity(len + len / 8)
            }
        };
        drop(s);
        if frame.len() >= len {
            frame.truncate(len);
        } else {
            frame.resize(len, 0);
        }
        frame
    }

    /// A frame holding the concatenation of `parts`.
    pub fn gather(&self, parts: &[&[u8]]) -> Vec<u8> {
        let len = parts.iter().map(|p| p.len()).sum();
        self.state().counts.copied += len as u64;
        let mut frame = self.take(len);
        let mut at = 0;
        for p in parts {
            frame[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        frame
    }

    /// Take back a frame whose bytes are used up. A long one is kept
    /// while the list holds fewer frames than were out at once, and
    /// otherwise in place of a shorter one, if any.
    pub fn give(&self, frame: Vec<u8>) {
        if frame.capacity() < LONG_FRAME {
            return;
        }
        let mut s = self.state();
        s.out = s.out.saturating_sub(1);
        if s.free.len() < s.peak {
            s.free.push(frame);
        } else if let Some(i) = (0..s.free.len()).min_by_key(|&i| s.free[i].capacity()) {
            if s.free[i].capacity() < frame.capacity() {
                s.free[i] = frame;
            }
        }
    }

    /// Drop the frames the list holds, and forget how many were out at
    /// once: what a phase of the sort needed is no guide to the next,
    /// whose messages have other lengths and other counts.
    pub fn release(&self) {
        let mut s = self.state();
        s.free.clear();
        s.peak = s.out;
    }

    /// A long frame this endpoint built left it (moved to another
    /// in-process endpoint, which will keep it).
    pub fn sent(&self, frame: &Vec<u8>) {
        if frame.capacity() >= LONG_FRAME {
            let mut s = self.state();
            s.out = s.out.saturating_sub(1);
        }
    }

    /// A long frame another in-process endpoint built arrived here; it
    /// joins the list when it is handed back.
    pub fn received(&self, frame: &Vec<u8>) {
        if frame.capacity() >= LONG_FRAME {
            let mut s = self.state();
            s.out += 1;
            s.peak = s.peak.max(s.out);
        }
    }

    /// How the long frames were obtained so far.
    pub fn counts(&self) -> FrameCounts {
        self.state().counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_handed_back_serves_the_next_request_it_fits() {
        let list = FrameList::default();
        let first = list.take(200_000);
        assert_eq!(first.len(), 200_000);
        let at = first.as_ptr();
        list.give(first);
        // A little longer fits the headroom; shorter fits anyway.
        for len in [210_000, 150_000] {
            let f = list.take(len);
            assert_eq!((f.len(), f.as_ptr()), (len, at));
            list.give(f);
        }
        // Longer than the headroom: a fresh frame.
        let long = list.take(300_000);
        assert_ne!(long.as_ptr(), at);
        list.give(long);
        // Short frames bypass the list.
        list.give(list.take(100));
        assert_eq!(list.counts(), FrameCounts { reused: 2, fresh: 2, copied: 0 });
        let parts: [&[u8]; 2] = [&[1; 70_000], &[2; 30_000]];
        assert_eq!(list.gather(&parts), [&[1; 70_000][..], &[2; 30_000]].concat());
        assert_eq!(list.counts().copied, 100_000);
    }

    #[test]
    fn the_list_keeps_no_more_frames_than_were_out_at_once() {
        let list = FrameList::default();
        let (a, b) = (list.take(100_000), list.take(100_000));
        list.give(a);
        list.give(b);
        // Two were out at once: both are kept, and serve two requests.
        let (c, d) = (list.take(100_000), list.take(100_000));
        assert_eq!(list.counts(), FrameCounts { reused: 2, fresh: 2, copied: 0 });
        // A third frame arriving from elsewhere raises the peak to 3.
        let e = vec![0u8; 120_000];
        list.received(&e);
        list.give(e);
        list.give(c);
        list.give(d);
        // Frames beyond the peak are dropped, or replace a shorter one.
        list.give(vec![0u8; 500_000]);
        let mut caps: Vec<usize> = list.state().free.iter().map(Vec::capacity).collect();
        caps.sort_unstable();
        assert_eq!(caps.len(), 3);
        assert_eq!(caps[2], 500_000, "the longest frame replaced the shortest");
        // Released, the list starts over: nothing kept, no peak.
        list.release();
        list.give(list.take(100_000));
        assert_eq!(list.counts(), FrameCounts { reused: 2, fresh: 3, copied: 0 });
        assert_eq!(list.state().free.len(), 1);
    }
}
