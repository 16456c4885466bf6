//! Storage backends: where block bytes actually live.
//!
//! * [`MemBackend`] — blocks live in RAM; fast, deterministic, the
//!   default for experiments (the *timing* of a disk comes from the
//!   [`DiskModel`](crate::disk::DiskModel), not the backend).
//! * [`FileBackend`] — one file per simulated disk; real external
//!   memory for runs larger than RAM, and what every shipping sort
//!   runs on.
//! * [`FaultInjectingBackend`] — wraps another backend and fails the
//!   n-th operation; used by failure-injection tests.
//!
//! The backends are interchangeable: one conformance suite (this
//! module's tests) holds both to the same round-trip, sparse-slot,
//! read-before-write, discard and bad-argument behaviour.

use demsort_types::{fio, Error, Result};
use parking_lot::{Mutex, RwLock};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Abstract block store addressed by `(disk, slot)`.
///
/// Implementations must be safe for concurrent access from any thread,
/// with different disks in parallel and one operation at a time per
/// disk.
pub trait Backend: Send + Sync + 'static {
    /// Read the block at `(disk, slot)` into `buf` (whose length is the
    /// block size).
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()>;

    /// [`read`](Self::read) if it will not wait for a device; `None`
    /// if it would, and then the engine hands the read to the disk's
    /// thread. The default reads: right for a backend that answers at
    /// memory speed. A backend that models a device's latency answers
    /// `None`, so the engine overlaps its reads as a real disk's.
    fn read_nowait(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Option<Result<()>> {
        Some(self.read(disk, slot, buf))
    }

    /// Write `data` (block size bytes) to `(disk, slot)`.
    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()>;

    /// Drop any stored data for `(disk, slot)` (in-place recycling).
    /// Reading a discarded slot is an error until it is rewritten.
    fn discard(&self, disk: usize, slot: u64);

    /// How error text names `(disk, slot)`; a backend that knows more
    /// about where the block lives (a file path) says so here.
    fn locate(&self, disk: usize, slot: u64) -> String {
        format!("d{disk}:{slot}")
    }
}

/// One disk's slot table: present blocks by slot index.
type SlotTable = Vec<Option<Box<[u8]>>>;

/// In-memory backend: per disk, a growable slot table.
pub struct MemBackend {
    disks: Vec<RwLock<SlotTable>>,
}

impl MemBackend {
    /// Create a backend with `disks` empty disks.
    pub fn new(disks: usize) -> Self {
        Self { disks: (0..disks).map(|_| RwLock::new(Vec::new())).collect() }
    }

    /// Bytes currently resident (for space-bound tests).
    pub fn resident_bytes(&self) -> u64 {
        self.disks
            .iter()
            .map(|d| d.read().iter().map(|s| s.as_ref().map_or(0, |b| b.len() as u64)).sum::<u64>())
            .sum()
    }

    /// Number of occupied slots across all disks.
    pub fn resident_blocks(&self) -> u64 {
        self.disks.iter().map(|d| d.read().iter().filter(|s| s.is_some()).count() as u64).sum()
    }
}

impl Backend for MemBackend {
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
        let disk_tbl =
            self.disks.get(disk).ok_or_else(|| Error::io(format!("no such disk {disk}")))?.read();
        let data = disk_tbl
            .get(slot as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| Error::io(format!("read of unwritten block d{disk}:{slot}")))?;
        if data.len() != buf.len() {
            return Err(Error::io(format!(
                "block size mismatch at d{disk}:{slot}: stored {} read {}",
                data.len(),
                buf.len()
            )));
        }
        buf.copy_from_slice(data);
        Ok(())
    }

    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
        let mut disk_tbl =
            self.disks.get(disk).ok_or_else(|| Error::io(format!("no such disk {disk}")))?.write();
        let slot = slot as usize;
        if disk_tbl.len() <= slot {
            disk_tbl.resize_with(slot + 1, || None);
        }
        // Reuse the old allocation when possible.
        match &mut disk_tbl[slot] {
            Some(old) if old.len() == data.len() => old.copy_from_slice(data),
            entry => *entry = Some(data.to_vec().into_boxed_slice()),
        }
        Ok(())
    }

    fn discard(&self, disk: usize, slot: u64) {
        if let Some(d) = self.disks.get(disk) {
            let mut tbl = d.write();
            if let Some(entry) = tbl.get_mut(slot as usize) {
                *entry = None;
            }
        }
    }
}

/// One file-backed disk: its file, where it is (for error text), and
/// which slots hold a block.
struct FileDisk {
    file: File,
    path: PathBuf,
    /// Bit `s` is set while slot `s` holds a written, undiscarded
    /// block. A file cannot tell a never-written slot from zeros (a
    /// sparse hole reads back as zeros), so this is what makes reading
    /// one the error it is on [`MemBackend`]. Held across each
    /// operation: the engine runs one operation per disk at a time,
    /// whichever thread serves it, so the lock is uncontended and a
    /// read never sees half a write.
    written: Mutex<Vec<u64>>,
}

fn slot_written(bits: &[u64], slot: u64) -> bool {
    bits.get((slot / 64) as usize).is_some_and(|word| word >> (slot % 64) & 1 == 1)
}

fn mark_slot(bits: &mut Vec<u64>, slot: u64, written: bool) {
    let (word, bit) = ((slot / 64) as usize, 1u64 << (slot % 64));
    if written {
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        bits[word] |= bit;
    } else if let Some(w) = bits.get_mut(word) {
        *w &= !bit;
    }
}

/// File-based backend: disk `i` is the file `disk_<i>.bin` in a
/// directory; slot `s` occupies bytes `[s·B, (s+1)·B)`.
///
/// Blocks move by positioned `pread`/`pwrite` straight between the
/// file and the caller's buffer. The files are ordinary buffered files
/// and nothing is ever synced: the disk is there to bound memory, not
/// to survive a crash. A discarded slot keeps its extent; the
/// allocator hands the slot out again, so the files grow only to the
/// high-water mark of live blocks.
///
/// Every failure names the file (whose directory names the rank, in
/// the job layout `SCRATCH/rank<K>/disk_<D>.bin`), the slot, the
/// operation, the byte offset and the OS error.
pub struct FileBackend {
    disks: Vec<FileDisk>,
    block_bytes: usize,
}

impl FileBackend {
    /// Create (or truncate) `disks` backing files in `dir`, creating
    /// `dir` itself if missing.
    pub fn create(dir: &Path, disks: usize, block_bytes: usize) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("create scratch directory {}: {e}", dir.display())))?;
        let disks = (0..disks)
            .map(|i| {
                let path = dir.join(format!("disk_{i}.bin"));
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)
                    .map_err(|e| Error::io(format!("create {}: {e}", path.display())))?;
                Ok(FileDisk { file, path, written: Mutex::new(Vec::new()) })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { disks, block_bytes })
    }

    /// Disk `disk` and the byte offset of `slot` on it, for a transfer
    /// of `len` bytes — which must be exactly one block, or the slot
    /// layout would tear.
    fn slot_of(&self, op: &str, disk: usize, slot: u64, len: usize) -> Result<(&FileDisk, u64)> {
        let d = self.disks.get(disk).ok_or_else(|| Error::io(format!("no such disk {disk}")))?;
        if len != self.block_bytes {
            return Err(Error::io(format!(
                "block size mismatch at {}: {op} of {len} bytes, blocks are {}",
                self.locate(disk, slot),
                self.block_bytes
            )));
        }
        Ok((d, slot * self.block_bytes as u64))
    }

    /// Read `(disk, slot)` into `buf` with `pread`, once the slot is
    /// known to hold a block.
    fn read_with<T>(
        &self,
        disk: usize,
        slot: u64,
        buf: &mut [u8],
        pread: impl FnOnce(&File, &mut [u8], u64) -> T,
    ) -> Result<T> {
        let (d, at) = self.slot_of("read", disk, slot, buf.len())?;
        let written = d.written.lock();
        if !slot_written(&written, slot) {
            return Err(Error::io(format!("read of unwritten block {}", self.locate(disk, slot))));
        }
        Ok(pread(&d.file, buf, at))
    }
}

impl Backend for FileBackend {
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
        self.read_with(disk, slot, buf, |file, buf, at| {
            fio::read_exact_at(file, buf, at)
                .map_err(|s| Error::io(s.describe("read", self.locate(disk, slot), at)))
        })?
    }

    fn read_nowait(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Option<Result<()>> {
        match self.read_with(disk, slot, buf, fio::read_cached_at) {
            Ok(cached) => cached.then_some(Ok(())),
            Err(e) => Some(Err(e)),
        }
    }

    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
        let (d, at) = self.slot_of("write", disk, slot, data.len())?;
        let mut written = d.written.lock();
        // A rewrite that fails part-way leaves the slot unreadable,
        // not half old and half new.
        mark_slot(&mut written, slot, false);
        fio::write_all_at(&d.file, data, at)
            .map_err(|s| Error::io(s.describe("write", self.locate(disk, slot), at)))?;
        mark_slot(&mut written, slot, true);
        Ok(())
    }

    fn discard(&self, disk: usize, slot: u64) {
        if let Some(d) = self.disks.get(disk) {
            mark_slot(&mut d.written.lock(), slot, false);
        }
    }

    fn locate(&self, disk: usize, slot: u64) -> String {
        match self.disks.get(disk) {
            Some(d) => format!("{} slot {slot}", d.path.display()),
            None => format!("d{disk}:{slot}"),
        }
    }
}

/// Test helper: delegates to an inner backend but fails a chosen
/// operation, to verify error propagation through the async engine.
pub struct FaultInjectingBackend<B> {
    inner: B,
    fail_at_op: u64,
    ops: AtomicU64,
}

impl<B: Backend> FaultInjectingBackend<B> {
    /// Fail the `fail_at_op`-th operation (0-based) with an I/O error.
    pub fn new(inner: B, fail_at_op: u64) -> Self {
        Self { inner, fail_at_op, ops: AtomicU64::new(0) }
    }

    fn tick(&self, op: &str, disk: usize, slot: u64) -> Result<()> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n == self.fail_at_op {
            let at = self.inner.locate(disk, slot);
            Err(Error::io(format!("injected fault at operation {n}: {op} {at}")))
        } else {
            Ok(())
        }
    }
}

impl<B: Backend> Backend for FaultInjectingBackend<B> {
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
        self.tick("read", disk, slot)?;
        self.inner.read(disk, slot, buf)
    }

    /// A read that would block is not an operation yet: it counts when
    /// the blocking [`read`](Backend::read) runs it.
    fn read_nowait(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Option<Result<()>> {
        let res = self.inner.read_nowait(disk, slot, buf)?;
        Some(self.tick("read", disk, slot).and(res))
    }

    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
        self.tick("write", disk, slot)?;
        self.inner.write(disk, slot, data)
    }

    fn discard(&self, disk: usize, slot: u64) {
        self.inner.discard(disk, slot)
    }

    fn locate(&self, disk: usize, slot: u64) -> String {
        self.inner.locate(disk, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::disk::DiskModel;
    use crate::engine::IoEngine;
    use std::sync::Arc;

    /// Block size of every backend under test.
    const B: usize = 64;

    /// A directory of this test's own under the temp dir, removed on
    /// drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("demsort-backend-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn read_block(b: &dyn Backend, disk: usize, slot: u64) -> Result<Vec<u8>> {
        let mut out = vec![0xEE; B];
        b.read(disk, slot, &mut out).map(|()| out)
    }

    fn assert_io_err<T: std::fmt::Debug>(res: Result<T>, needle: &str, case: &str) {
        match res {
            Err(Error::Io(m)) if m.contains(needle) => {}
            other => panic!("{case}: expected an I/O error containing {needle:?}, got {other:?}"),
        }
    }

    /// What every two-disk backend does, whatever it keeps bytes in.
    fn conformance(b: &dyn Backend) {
        let block = |fill: u8| vec![fill; B];
        // Round trip, sparse slots, rewrite in place.
        b.write(0, 3, &block(7)).expect("write");
        b.write(1, 10, &block(9)).expect("write a sparse slot");
        assert_eq!(read_block(b, 0, 3).expect("read"), block(7));
        assert_eq!(read_block(b, 1, 10).expect("read"), block(9));
        b.write(0, 3, &block(8)).expect("rewrite");
        assert_eq!(read_block(b, 0, 3).expect("read"), block(8));

        // Never-written slots — below, between and beyond written ones
        // — are errors, not a sparse file's zeros.
        for (disk, slot) in [(0, 0), (0, 2), (1, 9), (1, 11), (0, 99), (1, 1 << 20)] {
            assert_io_err(read_block(b, disk, slot), "unwritten", &format!("d{disk}:{slot}"));
        }

        // A discarded slot reads as unwritten until it is rewritten;
        // its neighbour is untouched, and discarding what is not there
        // is harmless.
        b.write(0, 4, &block(5)).expect("write neighbour");
        b.discard(0, 3);
        b.discard(0, 3);
        b.discard(0, 1000);
        b.discard(7, 0);
        assert_io_err(read_block(b, 0, 3), "unwritten", "read after discard");
        assert_eq!(read_block(b, 0, 4).expect("neighbour"), block(5));
        b.write(0, 3, &block(6)).expect("rewrite a discarded slot");
        assert_eq!(read_block(b, 0, 3).expect("read"), block(6));

        // A buffer that is not one block long.
        for len in [B - 1, B + 1, 0] {
            let res = b.read(0, 3, &mut vec![0u8; len]);
            assert_io_err(res, "block size mismatch", &format!("read into {len} bytes"));
        }
        assert_eq!(read_block(b, 0, 3).expect("intact after a refused read"), block(6));

        // A disk that does not exist.
        assert_io_err(read_block(b, 2, 0), "no such disk 2", "read");
        assert_io_err(b.write(2, 0, &block(1)), "no such disk 2", "write");
    }

    #[test]
    fn mem_backend_conforms() {
        conformance(&MemBackend::new(2));
    }

    #[test]
    fn file_backend_conforms() {
        let dir = TempDir::new("conform");
        conformance(&FileBackend::create(&dir.0, 2, B).expect("create"));
    }

    #[test]
    fn mem_discard_frees_the_bytes() {
        let b = MemBackend::new(1);
        b.write(0, 0, &[1u8; 32]).expect("write");
        assert_eq!((b.resident_blocks(), b.resident_bytes()), (1, 32));
        b.discard(0, 0);
        assert_eq!((b.resident_blocks(), b.resident_bytes()), (0, 0));
    }

    #[test]
    fn file_backend_starts_empty_over_a_stale_directory() {
        let dir = TempDir::new("stale");
        let path = dir.0.join("disk_0.bin");
        {
            let crashed = FileBackend::create(&dir.0, 1, B).expect("create");
            crashed.write(0, 5, &[3u8; B]).expect("write");
            assert_eq!(std::fs::metadata(&path).expect("stat").len(), 6 * B as u64);
        }
        let b = FileBackend::create(&dir.0, 1, B).expect("reuse the directory");
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0, "stale bytes truncated");
        assert_io_err(read_block(&b, 0, 5), "unwritten", "a stale slot");
    }

    #[test]
    fn file_errors_name_file_slot_operation_offset_and_cause() {
        let dir = TempDir::new("errors");
        let rank_dir = dir.0.join("rank3");
        std::fs::create_dir_all(&rank_dir).expect("mkdir");
        // Disk 1 is a device that is always full.
        let full = Path::new("/dev/full");
        if full.exists() {
            std::os::unix::fs::symlink(full, rank_dir.join("disk_1.bin")).expect("symlink");
        }
        let b = FileBackend::create(&rank_dir, 2, B).expect("create");
        let disk0 = rank_dir.join("disk_0.bin");

        if full.exists() {
            let res = b.write(1, 2, &[1u8; B]);
            let want = format!("write {}/disk_1.bin slot 2 at byte 128: ", rank_dir.display());
            assert_io_err(res.clone(), &want, "ENOSPC");
            assert_io_err(res, "os error 28", "ENOSPC");
            assert_io_err(read_block(&b, 1, 2), "unwritten", "a slot whose write failed");
        }

        // The file shrinks behind the backend's back: a short read.
        b.write(0, 2, &[1u8; B]).expect("write");
        std::fs::File::options()
            .write(true)
            .open(&disk0)
            .and_then(|f| f.set_len(2 * B as u64 + 10))
            .expect("truncate");
        let want = format!("read {} slot 2 at byte 138: short read", disk0.display());
        assert_io_err(read_block(&b, 0, 2), &want, "short read");

        // A write that is not one block would tear the slot layout.
        assert_io_err(b.write(0, 0, &[0u8; B + 1]), "block size mismatch", "long write");

        // A directory that cannot be made.
        let under_a_file = disk0.join("sub");
        let res = FileBackend::create(&under_a_file, 1, B).map(|_| ());
        assert_io_err(res, &format!("create scratch directory {}", under_a_file.display()), "");
    }

    #[test]
    fn fault_injection_fails_once() {
        let b = FaultInjectingBackend::new(MemBackend::new(1), 1);
        let data = vec![1u8; 16];
        b.write(0, 0, &data).expect("op 0 fine");
        assert_io_err(b.write(0, 1, &data), "operation 1: write d0:1", "op 1 injected");
        b.write(0, 1, &data).expect("op 2 fine");
    }

    #[test]
    fn injected_fault_on_a_file_disk_surfaces_through_the_engine() {
        let dir = TempDir::new("inject");
        let files = FileBackend::create(&dir.0.join("rank3"), 2, B).expect("create");
        let engine =
            IoEngine::new(2, B, DiskModel::paper(), Arc::new(FaultInjectingBackend::new(files, 1)));
        let block = || vec![4u8; B].into_boxed_slice();
        engine.write_sync(BlockId::new(0, 0), block()).expect("op 0 fine");
        let res = engine.write(BlockId::new(1, 4), block()).wait();
        assert_io_err(res.clone(), "injected fault at operation 1: write ", "through IoHandle");
        assert_io_err(res, "rank3/disk_1.bin slot 4", "names rank, disk and slot");
        // The engine and the files stay usable.
        engine.write_sync(BlockId::new(1, 4), block()).expect("op 2 fine");
        assert_eq!(&engine.read_sync(BlockId::new(1, 4)).expect("read")[..], &block()[..]);
    }
}
