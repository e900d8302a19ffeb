//! Critical-bit tree (binary PATRICIA trie) baselines CB1/CB2.
//!
//! The paper's evaluation (Sect. 4.1) compares the PH-tree against two
//! "crit-bit" trees: binary PATRICIA tries over the **interleaved**
//! bit-string of a multi-dimensional key, as proposed by Nickerson & Shi
//! and Kirschenhofer et al. This crate provides two independent
//! implementations:
//!
//! * [`CritBit1`] — the classic pointer-linked crit-bit tree: leaves
//!   hold the full key, inner nodes hold the index of the first
//!   differing interleaved bit.
//! * [`CritBit2`] — an arena-based variant with index links and free
//!   lists: fewer allocations, better locality, lower bytes/entry
//!   (mirroring the CB1/CB2 spread in the paper's Table 1).
//!
//! Keys are `[u64; K]` integers (convert floats with
//! `phtree::key::f64_to_key`). The interleaving is bit-level
//! round-robin: interleaved bit `i` is bit `63 - i/K` of dimension
//! `i % K`, most significant first.
//!
//! Range queries are implemented as guarded scans
//! ([`CritBit1::window_scan`]): as the paper notes, crit-bit trees over
//! interleaved keys have no efficient range query — the scan visits
//! essentially the whole trie and is measured separately to demonstrate
//! exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cb1;
pub mod cb2;
pub mod morton;

pub use cb1::CritBit1;
pub use cb2::CritBit2;

/// Assumed allocator overhead per heap allocation (kept equal across all
/// crates for fair space comparisons).
pub const ALLOC_OVERHEAD: usize = 16;

/// Returns interleaved bit `i` of `key` (0 = most significant bit of
/// dimension 0).
///
/// ```
/// // 2-D: bit 0 is the MSB of dim 0, bit 1 the MSB of dim 1, bit 2 the
/// // second bit of dim 0, …
/// assert_eq!(critbit::ibit(&[1u64 << 63, 0], 0), 1);
/// assert_eq!(critbit::ibit(&[0, 1u64 << 63], 1), 1);
/// assert_eq!(critbit::ibit(&[1u64 << 62, 0], 2), 1);
/// ```
#[inline]
pub fn ibit(key: &[u64], i: u32) -> u64 {
    let k = key.len() as u32;
    (key[(i % k) as usize] >> (63 - i / k)) & 1
}

/// Index of the first differing interleaved bit between `a` and `b`, or
/// `None` if equal. O(k), not O(k·w): per-dimension XOR + leading_zeros.
#[inline]
pub fn first_diff(a: &[u64], b: &[u64]) -> Option<u32> {
    let k = a.len() as u32;
    let mut best: Option<u32> = None;
    for d in 0..k {
        let x = a[d as usize] ^ b[d as usize];
        if x != 0 {
            let i = x.leading_zeros() * k + d;
            if best.is_none_or(|b| i < b) {
                best = Some(i);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibit_interleaving_order() {
        let key = [0b10u64 << 62, 0b01u64 << 62]; // dim0 = 10…, dim1 = 01…
        assert_eq!(ibit(&key, 0), 1); // dim0 bit 63
        assert_eq!(ibit(&key, 1), 0); // dim1 bit 63
        assert_eq!(ibit(&key, 2), 0); // dim0 bit 62
        assert_eq!(ibit(&key, 3), 1); // dim1 bit 62
    }

    #[test]
    fn first_diff_picks_earliest_interleaved_position() {
        // dim1 differs at bit 63 (interleaved 1), dim0 at bit 62
        // (interleaved 2) → first diff is 1.
        let a = [0u64, 0u64];
        let b = [1u64 << 62, 1u64 << 63];
        assert_eq!(first_diff(&a, &b), Some(1));
        assert_eq!(first_diff(&a, &a), None);
        // Lowest possible difference.
        assert_eq!(first_diff(&[0, 0], &[0, 1]), Some(63 * 2 + 1));
    }

    #[test]
    fn first_diff_matches_bit_scan() {
        let a = [0xDEAD_BEEF_0123_4567u64, 0x0F0F_F0F0_AAAA_5555];
        let b = [0xDEAD_BEEF_0123_4567u64, 0x0F0F_F0F0_AAAA_5554];
        let want = (0..128).find(|&i| ibit(&a, i) != ibit(&b, i));
        assert_eq!(first_diff(&a, &b), want);
    }
}
