//! Block identifiers and buffers.
//!
//! The storage layer is byte-oriented: a *block* is a fixed-size byte
//! buffer (`B` bytes, [`MachineConfig::block_bytes`]), identified by a
//! [`BlockId`] naming a disk and a slot on that disk. This mirrors the
//! external-memory model of the paper (Table I) and STXXL's BID concept.
//!
//! [`MachineConfig::block_bytes`]: demsort_types::MachineConfig

/// Identifies one block: `(disk, slot)` within a single PE's local
/// storage. BlockIds are PE-local — remote blocks are never addressed
//  directly (all remote data moves through the communicator).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// Local disk index (`0..disks_per_pe`).
    pub disk: u32,
    /// Slot index on that disk (block-granular offset).
    pub slot: u32,
}

impl BlockId {
    /// Construct a block id.
    #[inline]
    pub const fn new(disk: u32, slot: u32) -> Self {
        Self { disk, slot }
    }

    /// What a run's block list records for a block written into a job's
    /// output file instead of a slot: the disk queue that wrote it, and
    /// no slot — reading it back is an error, not another block. Only
    /// the canonical sort lists such blocks, in its output's run; the
    /// striped sort's file output keeps no block list.
    #[inline]
    pub const fn in_file(disk: u32) -> Self {
        Self::new(disk, u32::MAX)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}:{}", self.disk, self.slot)
    }
}

/// Allocate a zeroed block buffer of `block_bytes`.
pub fn alloc_buf(block_bytes: usize) -> Box<[u8]> {
    vec![0u8; block_bytes].into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_display_and_order() {
        let a = BlockId::new(0, 5);
        let b = BlockId::new(1, 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "d0:5");
    }

    #[test]
    fn buffers_are_zeroed() {
        let buf = alloc_buf(128);
        assert_eq!(buf.len(), 128);
        assert!(buf.iter().all(|&b| b == 0));
    }
}
