//! The two transfer loops behind every file and socket write-out: move
//! *all* of a list of buffers through a call that may move only some.
//!
//! [`write_all`] and [`read_exact`] own the retry-on-`EINTR`,
//! advance-the-slices and zero-means-stuck logic once; the caller
//! supplies the one system call (vectored at a descriptor's position,
//! positioned, or into a buffered socket). A transfer that stops early
//! comes back as a [`Stopped`] saying how many bytes had moved and why,
//! and [`Stopped::describe`] is the one text shape of a failed file
//! transfer: operation, target, byte offset, then the short transfer or
//! the OS error by name.
//!
//! [`write_all_at`] / [`read_exact_at`] are the positioned
//! (`pwrite`/`pread`) single-buffer forms the storage backend uses.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, ErrorKind, IoSlice, IoSliceMut};
use std::os::unix::fs::FileExt;

/// A transfer that stopped before every byte had moved.
#[derive(Debug)]
pub struct Stopped {
    /// Bytes moved before it stopped.
    pub done: u64,
    /// The OS error, or `WriteZero` / `UnexpectedEof` when the call
    /// kept succeeding without moving a byte (full device, file that
    /// ends early, closed connection).
    pub cause: io::Error,
}

impl Stopped {
    /// `"<op> <what> at byte <N>: <cause>"`, where `N` is the byte the
    /// transfer stopped at given that it began at byte `start`.
    pub fn describe(&self, op: &str, what: impl Display, start: u64) -> String {
        format!("{op} {what} at byte {}: {}", start + self.done, self.cause)
    }
}

/// Write every byte of `bufs`: `write_some` is given the slices still
/// to go and the bytes moved so far, and returns how many more it
/// moved. Returns the total.
pub fn write_all(
    mut bufs: &mut [IoSlice<'_>],
    mut write_some: impl FnMut(&[IoSlice<'_>], u64) -> io::Result<usize>,
) -> Result<u64, Stopped> {
    let mut done = 0u64;
    // Advancing drops the slices it passes, empty ones included, so
    // only leading empties need dropping up front: a call handed
    // nothing but empty slices returns 0, which reads as stuck.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match write_some(bufs, done) {
            Ok(0) => {
                let cause = io::Error::new(ErrorKind::WriteZero, "short write: no bytes accepted");
                return Err(Stopped { done, cause });
            }
            Ok(n) => {
                done += n as u64;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(cause) => return Err(Stopped { done, cause }),
        }
    }
    Ok(done)
}

/// Fill every byte of `bufs`: the reading twin of [`write_all`]. A
/// source that ends early is an error.
pub fn read_exact(
    mut bufs: &mut [IoSliceMut<'_>],
    mut read_some: impl FnMut(&mut [IoSliceMut<'_>], u64) -> io::Result<usize>,
) -> Result<u64, Stopped> {
    let mut done = 0u64;
    IoSliceMut::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match read_some(bufs, done) {
            Ok(0) => {
                let cause = io::Error::new(ErrorKind::UnexpectedEof, "short read: end of file");
                return Err(Stopped { done, cause });
            }
            Ok(n) => {
                done += n as u64;
                IoSliceMut::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(cause) => return Err(Stopped { done, cause }),
        }
    }
    Ok(done)
}

/// `pwrite` all of `data` at byte `at` of `file`; the descriptor's
/// position is neither used nor moved.
pub fn write_all_at(file: &File, data: &[u8], at: u64) -> Result<(), Stopped> {
    write_all(&mut [IoSlice::new(data)], |bufs, done| file.write_at(&bufs[0], at + done))
        .map(|_| ())
}

/// `pread` all of `buf` from byte `at` of `file`.
pub fn read_exact_at(file: &File, buf: &mut [u8], at: u64) -> Result<(), Stopped> {
    read_exact(&mut [IoSliceMut::new(buf)], |bufs, done| file.read_at(&mut bufs[0], at + done))
        .map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loops_survive_partial_transfers_interrupts_and_empty_slices() {
        // A sink that takes three bytes at a time and is interrupted
        // before every other call.
        let (a, b, c) = (b"hello ".as_slice(), b"".as_slice(), b"world".as_slice());
        let mut bufs = [IoSlice::new(b), IoSlice::new(a), IoSlice::new(b), IoSlice::new(c)];
        let (mut sink, mut calls) = (Vec::new(), 0);
        let total = write_all(&mut bufs, |bufs, done| {
            calls += 1;
            if calls % 2 == 1 {
                return Err(ErrorKind::Interrupted.into());
            }
            assert_eq!(done as usize, sink.len());
            let first = bufs.iter().find(|b| !b.is_empty()).expect("bytes left");
            let n = first.len().min(3);
            sink.extend_from_slice(&first[..n]);
            Ok(n)
        })
        .expect("write");
        assert_eq!((total, sink.as_slice()), (11, b"hello world".as_slice()));

        let source = b"hello world";
        let (mut x, mut y) = ([0u8; 4], [0u8; 7]);
        let mut bufs = [IoSliceMut::new(&mut x), IoSliceMut::new(&mut []), IoSliceMut::new(&mut y)];
        let total = read_exact(&mut bufs, |bufs, done| {
            let n = bufs[0].len().min(3);
            bufs[0][..n].copy_from_slice(&source[done as usize..][..n]);
            Ok(n)
        })
        .expect("read");
        assert_eq!((total, &x, &y), (11, b"hell", b"o world"));

        // Nothing to move is not a stuck transfer.
        assert_eq!(write_all(&mut [IoSlice::new(b"")], |_, _| Ok(0)).expect("empty"), 0);
    }

    #[test]
    fn a_stuck_transfer_names_where_it_stopped_and_why() {
        let stopped = write_all(&mut [IoSlice::new(b"abcdef")], |_, done| Ok(4 - done as usize))
            .expect_err("sink fills up after 4 bytes");
        assert_eq!((stopped.done, stopped.cause.kind()), (4, ErrorKind::WriteZero));
        assert_eq!(
            stopped.describe("write", "/x/y", 100),
            "write /x/y at byte 104: short write: no bytes accepted"
        );
        let mut buf = [0u8; 6];
        let stopped = read_exact(&mut [IoSliceMut::new(&mut buf)], |_, done| {
            if done == 0 {
                Ok(2)
            } else {
                Err(io::Error::from_raw_os_error(5))
            }
        })
        .expect_err("EIO after 2 bytes");
        let text = stopped.describe("read", "disk 1", 10);
        assert!(text.starts_with("read disk 1 at byte 12: "), "{text}");
        assert!(text.contains("os error 5"), "{text}");
    }

    #[test]
    fn positioned_forms_round_trip_and_report_a_short_file() {
        let path = std::env::temp_dir().join(format!("demsort-fio-{}", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("create");
        write_all_at(&file, b"0123456789", 5).expect("pwrite");
        let mut back = [0u8; 4];
        read_exact_at(&file, &mut back, 9).expect("pread");
        assert_eq!(&back, b"4567");
        let stopped = read_exact_at(&file, &mut [0u8; 8], 11).expect_err("file ends at 15");
        assert_eq!((stopped.done, stopped.cause.kind()), (4, ErrorKind::UnexpectedEof));
        let _ = std::fs::remove_file(&path);
    }
}
