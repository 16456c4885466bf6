//! # demsort-workloads
//!
//! Input generators and output validators for the demsort experiments.
//!
//! * [`gen`] — the paper's input classes: uniform random (Figures 2/3),
//!   banded worst case (Figures 4/5/6), plus skew/sorted/duplicate
//!   stress inputs for the baselines and tests.
//! * [`gensort`] — deterministic SortBenchmark-style 100-byte records
//!   (10-byte key), our stand-in for `gensort` (Section VI).
//! * [`validate`] — the streaming, `valsort`-style sortedness check.

pub mod gen;
pub mod gensort;
pub mod validate;

pub use gen::{generate_all, generate_pe_input, InputSpec};
pub use gensort::{gensort_record, gensort_records, record_index};
pub use validate::SortednessCheck;

/// SplitMix64: tiny, high-quality 64-bit mixer used for deterministic
/// record synthesis.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // consecutive seeds land far apart
        let a = splitmix64(100);
        let b = splitmix64(101);
        assert!(a.abs_diff(b) > 1 << 32);
    }
}
