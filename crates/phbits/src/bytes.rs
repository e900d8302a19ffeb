//! Read-only bit-stream kernels over **unaligned byte slices**.
//!
//! [`crate::BitBuf`] owns its words; the packed read-only tree format
//! (crate `phpack`) instead walks node bit strings *borrowed from disk
//! pages*, where no alignment can be assumed — a record starts at an
//! arbitrary byte offset inside a 4 KiB page and the backing buffer is
//! only byte-aligned. These kernels mirror the `BitBuf` read surface on
//! `&[u8]` with the identical bit order (bit `i` of the stream is bit
//! `i % 8` of byte `i / 8` — exactly what serialising `BitBuf::words`
//! little-endian produces), so a bit string written from a `BitBuf` can
//! be re-read in place without copying it into words first.
//!
//! All reads **zero-pad past the end of the slice** instead of
//! panicking: the packed reader's corruption handling requires that no
//! hostile length field can turn a bit read into a panic. Callers
//! validate record bounds once per node; the zero padding is the
//! belt-and-braces backstop behind that check.

/// Loads up to 8 bytes little-endian starting at `byte`, zero-padding
/// past the end of `buf`.
#[inline]
fn load64(buf: &[u8], byte: usize) -> u64 {
    if let Some(chunk) = buf.get(byte..byte + 8) {
        return u64::from_le_bytes(chunk.try_into().unwrap());
    }
    let mut out = [0u8; 8];
    if let Some(tail) = buf.get(byte..) {
        out[..tail.len()].copy_from_slice(tail);
    }
    u64::from_le_bytes(out)
}

#[inline]
fn mask(nbits: u32) -> u64 {
    if nbits >= 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// Reads `nbits` (≤ 64) starting at bit offset `off`, LSB-first.
/// Bits past the end of `buf` read as zero.
#[inline]
pub fn read_bits(buf: &[u8], off: usize, nbits: u32) -> u64 {
    debug_assert!(nbits <= 64);
    if nbits == 0 {
        return 0;
    }
    let byte = off / 8;
    let bit = (off % 8) as u32;
    let lo = load64(buf, byte) >> bit;
    let have = 64 - bit;
    let v = if nbits <= have {
        lo
    } else {
        // A ≤64-bit field at bit offset 1..=7 spans at most 9 bytes.
        let hi = *buf.get(byte + 8).unwrap_or(&0) as u64;
        lo | (hi << have)
    };
    v & mask(nbits)
}

/// Counts set bits in the `n`-bit run starting at `off` (word-chunked
/// popcount, the sibling of [`crate::BitRead::count_ones`]).
pub fn count_ones(buf: &[u8], off: usize, n: usize) -> usize {
    let mut total = 0usize;
    let mut done = 0usize;
    while done < n {
        let chunk = (n - done).min(64) as u32;
        total += read_bits(buf, off + done, chunk).count_ones() as usize;
        done += chunk as usize;
    }
    total
}

/// Gathers `key.len()` fields of `width` bits each from the packed run
/// at `off` (field `d` at `off + d*width`) into bits
/// `shift..shift + width` of `key[d]`, preserving the other bits —
/// the byte-slice sibling of [`crate::BitRead::read_key_into`].
/// Requires `width + shift <= 64` (debug-asserted).
#[inline]
pub fn read_key_into(buf: &[u8], off: usize, width: u32, shift: u32, key: &mut [u64]) {
    if width == 0 {
        return;
    }
    debug_assert!(width + shift <= 64, "field must fit a word");
    let m = mask(width);
    let place = !(m << shift);
    let mut pos = off;
    for v in key.iter_mut() {
        let field = read_bits(buf, pos, width);
        *v = (*v & place) | (field << shift);
        pos += width as usize;
    }
}

/// Compares `key.len()` fields of `width` bits each in the packed run
/// at `off` against bits `shift..shift + width` of `key[d]`, exiting on
/// the first mismatch — the byte-slice sibling of
/// [`crate::BitRead::eq_key`]. Requires `width + shift <= 64`
/// (debug-asserted).
#[inline]
pub fn eq_key(buf: &[u8], off: usize, width: u32, shift: u32, key: &[u64]) -> bool {
    if width == 0 {
        return true;
    }
    debug_assert!(width + shift <= 64, "field must fit a word");
    let m = mask(width);
    let mut pos = off;
    for &v in key {
        if read_bits(buf, pos, width) != (v >> shift) & m {
            return false;
        }
        pos += width as usize;
    }
    true
}

/// Three-way compare of the `nbits`-bit run at `off` against the
/// packed little-endian bit string in `key` (the byte-slice sibling of
/// [`crate::BitRead::cmp_range`]): runs are compared word-by-word from
/// the low end, with the **higher** bit positions more significant.
pub fn cmp_range(buf: &[u8], off: usize, key: &[u64], nbits: usize) -> std::cmp::Ordering {
    // Compare from the most-significant chunk down.
    let mut remaining = nbits;
    while remaining > 0 {
        let chunk = if remaining.is_multiple_of(64) {
            64
        } else {
            (remaining % 64) as u32
        };
        remaining -= chunk as usize;
        let stored = read_bits(buf, off + remaining, chunk);
        let probe = (key[remaining / 64] >> (remaining % 64)) & mask(chunk);
        match stored.cmp(&probe) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitBuf, BitRead, BitWrite};

    /// Serialises a BitBuf the way the packed format stores bit
    /// strings: backing words little-endian, truncated to whole bytes.
    fn to_bytes(b: &BitBuf) -> Vec<u8> {
        let mut out = Vec::with_capacity(b.words().len() * 8);
        for w in b.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(b.len().div_ceil(8));
        out
    }

    fn sample_buf(nbits: usize, seed: u64) -> BitBuf {
        let mut b = BitBuf::zeroed(nbits);
        let mut x = seed | 1;
        for i in 0..nbits {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.set(i, x >> 60 > 7);
        }
        b
    }

    #[test]
    fn read_bits_matches_bitbuf() {
        let b = sample_buf(517, 42);
        let bytes = to_bytes(&b);
        for off in [0usize, 1, 7, 8, 63, 64, 65, 100, 300, 511] {
            for n in [1u32, 2, 7, 8, 9, 31, 32, 33, 63, 64] {
                if off + n as usize > b.len() {
                    continue;
                }
                assert_eq!(
                    read_bits(&bytes, off, n),
                    b.read_bits(off, n),
                    "off {off} n {n}"
                );
            }
        }
    }

    #[test]
    fn reads_past_end_are_zero() {
        let bytes = [0xFFu8; 4];
        assert_eq!(read_bits(&bytes, 0, 64), 0xFFFF_FFFF);
        assert_eq!(read_bits(&bytes, 30, 10), 0b11);
        assert_eq!(read_bits(&bytes, 32, 8), 0);
        assert_eq!(read_bits(&bytes, 1000, 64), 0);
        assert_eq!(count_ones(&bytes, 0, 4096), 32);
    }

    #[test]
    fn count_ones_matches_bitbuf() {
        let b = sample_buf(700, 9);
        let bytes = to_bytes(&b);
        for (off, n) in [(0usize, 700usize), (3, 130), (64, 64), (65, 63), (699, 1)] {
            assert_eq!(count_ones(&bytes, off, n), b.count_ones(off, n));
        }
    }

    #[test]
    fn key_gather_and_compare_match_bitbuf() {
        let mut b = BitBuf::zeroed(4 * 21 + 11);
        let key = [0xDEAD_BEEF_u64, 0x1234_5678_9ABC_DEF0, 7, u64::MAX];
        b.write_key(11, 21, 3, &key);
        let bytes = to_bytes(&b);

        let mut got_a = [0u64; 4];
        let mut got_b = [0u64; 4];
        b.read_key_into(11, 21, 3, &mut got_a);
        read_key_into(&bytes, 11, 21, 3, &mut got_b);
        assert_eq!(got_a, got_b);

        assert!(eq_key(&bytes, 11, 21, 3, &key));
        let mut off_key = key;
        off_key[2] ^= 1 << 3;
        assert!(!eq_key(&bytes, 11, 21, 3, &off_key));
        // A flip below `shift` is outside the compared field.
        let mut low_key = key;
        low_key[2] ^= 1;
        assert!(eq_key(&bytes, 11, 21, 3, &low_key));
    }

    #[test]
    fn cmp_range_matches_bitbuf() {
        let b = sample_buf(300, 77);
        let bytes = to_bytes(&b);
        for off in [0usize, 5, 64, 130] {
            for nbits in [1usize, 8, 22, 64, 65, 128] {
                if off + nbits > b.len() {
                    continue;
                }
                // Probe with the stored value (Equal) and perturbed
                // values (must agree with BitBuf::cmp_range).
                let words = nbits.div_ceil(64);
                let mut probe = vec![0u64; words];
                for (w, word) in probe.iter_mut().enumerate() {
                    let chunk = (nbits - w * 64).min(64) as u32;
                    *word = b.read_bits(off + w * 64, chunk);
                }
                assert_eq!(
                    cmp_range(&bytes, off, &probe, nbits),
                    std::cmp::Ordering::Equal
                );
                for delta in [1u64, 1 << (nbits.min(64) - 1).min(63)] {
                    let mut p = probe.clone();
                    p[0] = p[0].wrapping_add(delta);
                    if nbits < 64 {
                        p[0] &= (1u64 << nbits) - 1;
                    }
                    assert_eq!(
                        cmp_range(&bytes, off, &p, nbits),
                        b.cmp_range(off, &p, nbits),
                        "off {off} nbits {nbits} delta {delta}"
                    );
                }
            }
        }
    }
}
