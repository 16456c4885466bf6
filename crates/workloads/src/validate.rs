//! Output validation, in the spirit of the SortBenchmark's `valsort`:
//! a streaming check that each PE's output is non-decreasing, which
//! also hands out its last key for the boundary check between PEs.
//! The permutation check is `demsort_core::validate::Fingerprint`.

use demsort_types::Record;

/// Streaming sortedness checker for one PE's output.
#[derive(Debug)]
pub struct SortednessCheck<R: Record> {
    last: Option<R>,
    violations: u64,
    count: u64,
}

impl<R: Record + Ord> Default for SortednessCheck<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Record + Ord> SortednessCheck<R> {
    /// Fresh checker.
    pub fn new() -> Self {
        Self { last: None, violations: 0, count: 0 }
    }

    /// Feed the next record in output order.
    pub fn push(&mut self, r: R) {
        if let Some(prev) = &self.last {
            if prev.key() > r.key() {
                self.violations += 1;
            }
        }
        self.last = Some(r);
        self.count += 1;
    }

    /// Feed a whole slice.
    pub fn push_all(&mut self, rs: &[R]) {
        for r in rs {
            self.push(*r);
        }
    }

    /// Records seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Key-order violations seen.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Last key seen (for cross-PE boundary checks), if any records seen.
    pub fn last_key(&self) -> Option<R::Key> {
        self.last.as_ref().map(|r| r.key())
    }

    /// `true` iff no violations.
    pub fn is_sorted(&self) -> bool {
        self.violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_types::Element16;

    #[test]
    fn sortedness_checker_counts_violations() {
        let mut c = SortednessCheck::new();
        c.push_all(&[
            Element16::new(1, 0),
            Element16::new(2, 0),
            Element16::new(2, 1), // equal keys fine
            Element16::new(1, 2), // violation
            Element16::new(5, 3),
        ]);
        assert_eq!(c.violations(), 1);
        assert_eq!(c.count(), 5);
        assert!(!c.is_sorted());
        assert_eq!(c.last_key(), Some(5));
    }
}
