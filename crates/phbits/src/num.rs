//! Small numeric helpers shared by the PH-tree and the crit-bit baseline.

/// Returns the highest bit position (0..=63) at which any dimension of
/// `a` and `b` differ, or `None` if the keys are equal.
///
/// This is the bit depth at which a new sub-node must split when two keys
/// collide in one hypercube slot.
#[inline]
pub fn max_diverging_bit(a: &[u64], b: &[u64]) -> Option<u32> {
    let mut x = 0u64;
    for (&va, &vb) in a.iter().zip(b) {
        x |= va ^ vb;
    }
    if x == 0 {
        None
    } else {
        Some(63 - x.leading_zeros())
    }
}

/// Returns true if all dimensions of `a` and `b` agree on the bit range
/// `lo..=hi` (inclusive, 0 = LSB).
#[inline]
pub fn bits_equal_in_range(a: &[u64], b: &[u64], lo: u32, hi: u32) -> bool {
    debug_assert!(lo <= hi && hi < 64);
    let width = hi - lo + 1;
    let m = if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << lo
    };
    a.iter().zip(b).all(|(&va, &vb)| (va ^ vb) & m == 0)
}

/// Mask with bits `0..nbits` set.
#[inline]
pub fn low_mask(nbits: u32) -> u64 {
    if nbits >= 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// Packs one field per dimension of `key` — `width` bits taken at bit
/// position `shift` of each component — back-to-back into the
/// little-endian word array `out`, returning the total bit count
/// (`key.len() * width`).
///
/// This builds the comparand for [`BitBuf::eq_range`] /
/// [`BitBuf::cmp_range`]: the packed form is exactly what the PH-tree
/// node stores for a postfix (`shift == 0`) or infix
/// (`shift == post_len + 1`) run. The first `ceil(total/64)` words of
/// `out` are fully overwritten; since `width <= 63`, a `[u64; K]`
/// scratch always suffices for `K` dimensions.
///
/// [`BitBuf::eq_range`]: crate::BitRead::eq_range
/// [`BitBuf::cmp_range`]: crate::BitRead::cmp_range
///
/// # Panics
///
/// Panics if `out` holds fewer than `ceil(total/64)` words. Requires
/// `width + shift <= 64` (debug-asserted).
#[inline]
pub fn pack_key(key: &[u64], shift: u32, width: u32, out: &mut [u64]) -> usize {
    debug_assert!(width + shift <= 64, "field must fit a word");
    let total = width as usize * key.len();
    let nwords = total.div_ceil(64);
    assert!(out.len() >= nwords, "pack_key scratch too small");
    for w in out[..nwords].iter_mut() {
        *w = 0;
    }
    if width == 0 {
        return 0;
    }
    let m = low_mask(width);
    let mut word = 0usize;
    let mut bit = 0u32;
    for &v in key {
        let field = (v >> shift) & m;
        out[word] |= field << bit;
        let have = 64 - bit;
        if width >= have {
            word += 1;
            bit = width - have;
            if bit > 0 {
                out[word] = field >> have;
            }
        } else {
            bit += width;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitRead, BitWrite};

    #[test]
    fn diverging_bit_basic() {
        assert_eq!(max_diverging_bit(&[0b1000], &[0b1001]), Some(0));
        assert_eq!(max_diverging_bit(&[0b1000], &[0b0000]), Some(3));
        assert_eq!(max_diverging_bit(&[5, 5], &[5, 5]), None);
        // Divergence across dimensions takes the max.
        assert_eq!(max_diverging_bit(&[0b001, 0b100], &[0b000, 0b000]), Some(2));
    }

    #[test]
    fn diverging_bit_msb() {
        assert_eq!(max_diverging_bit(&[1 << 63], &[0]), Some(63));
    }

    #[test]
    fn bits_equal_ranges() {
        let a = [0b1010_1010u64];
        let b = [0b1010_0110u64];
        // Bits 4..=7 agree, bits 2..=3 differ.
        assert!(bits_equal_in_range(&a, &b, 4, 7));
        assert!(!bits_equal_in_range(&a, &b, 2, 3));
        assert!(bits_equal_in_range(&a, &b, 0, 1));
        assert!(bits_equal_in_range(&a, &a, 0, 63));
    }

    #[test]
    fn low_mask_widths() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(63), u64::MAX >> 1);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    fn pack_key_matches_bitbuf_layout() {
        // pack_key must produce exactly the words a BitBuf holds after
        // writing the same fields with write_key.
        let key = [0xDEAD_BEEF_u64, 0x1234_5678, u64::MAX, 0, 0xA5A5];
        for (width, shift) in [(1u32, 0u32), (7, 0), (13, 5), (31, 0), (59, 5), (63, 1)] {
            let total = width as usize * key.len();
            let shifted: Vec<u64> = key.iter().map(|&v| v << shift).collect();
            let mut buf = crate::BitBuf::zeroed(total);
            buf.write_key(0, width, shift, &shifted);
            let mut out = [u64::MAX; 5]; // dirty scratch must be overwritten
            let nbits = pack_key(&key, 0, width, &mut out);
            assert_eq!(nbits, total);
            assert_eq!(&out[..total.div_ceil(64)], buf.words(), "w={width}");
            // shift only selects which source bits are packed.
            let mut out2 = [0u64; 5];
            pack_key(&shifted, shift, width, &mut out2);
            assert_eq!(
                out[..total.div_ceil(64)],
                out2[..total.div_ceil(64)],
                "w={width} s={shift}"
            );
        }
    }

    #[test]
    fn pack_key_zero_width() {
        let mut out = [u64::MAX; 2];
        assert_eq!(pack_key(&[1, 2, 3], 0, 0, &mut out), 0);
    }
}
