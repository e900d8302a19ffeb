//! Property-based tests for the bit buffer and hypercube helpers, checked
//! against naive `Vec<bool>` / filter-scan models.

use phbits::{hc, num, BitBuf, BitRead, BitWrite};
use proptest::prelude::*;

/// Reference model: a plain vector of bools.
#[derive(Clone, Debug, Default)]
struct Model(Vec<bool>);

impl Model {
    fn read(&self, off: usize, n: u32) -> u64 {
        let mut v = 0u64;
        for i in (0..n as usize).rev() {
            v = (v << 1) | self.0[off + i] as u64;
        }
        v
    }

    fn write(&mut self, off: usize, val: u64, n: u32) {
        for i in 0..n as usize {
            self.0[off + i] = (val >> i) & 1 == 1;
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Push(u64, u32),
    Write(usize, u64, u32),
    InsertGap(usize, usize),
    RemoveRange(usize, usize),
    Truncate(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), 0u32..=64).prop_map(|(v, n)| Op::Push(v, n)),
        (any::<usize>(), any::<u64>(), 0u32..=64).prop_map(|(o, v, n)| Op::Write(o, v, n)),
        (any::<usize>(), 0usize..150).prop_map(|(o, n)| Op::InsertGap(o, n)),
        (any::<usize>(), 0usize..150).prop_map(|(o, n)| Op::RemoveRange(o, n)),
        any::<usize>().prop_map(Op::Truncate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitbuf_matches_bool_vec_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut buf = BitBuf::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Push(v, n) => {
                    buf.push_bits(v, n);
                    let base = model.0.len();
                    model.0.resize(base + n as usize, false);
                    model.write(base, v, n);
                }
                Op::Write(o, v, n) => {
                    if model.0.len() >= n as usize {
                        let o = o % (model.0.len() - n as usize + 1);
                        buf.write_bits(o, v, n);
                        model.write(o, v, n);
                    }
                }
                Op::InsertGap(o, n) => {
                    let o = if model.0.is_empty() { 0 } else { o % (model.0.len() + 1) };
                    buf.insert_gap(o, n);
                    model.0.splice(o..o, std::iter::repeat_n(false, n));
                }
                Op::RemoveRange(o, n) => {
                    if model.0.len() >= n {
                        let o = o % (model.0.len() - n + 1);
                        buf.remove_range(o, n);
                        model.0.drain(o..o + n);
                    }
                }
                Op::Truncate(l) => {
                    if !model.0.is_empty() {
                        let l = l % (model.0.len() + 1);
                        buf.truncate(l);
                        model.0.truncate(l);
                    }
                }
            }
            prop_assert_eq!(buf.len(), model.0.len());
        }
        // Full content comparison in 64-bit chunks.
        let mut off = 0;
        while off < model.0.len() {
            let n = (model.0.len() - off).min(64) as u32;
            prop_assert_eq!(buf.read_bits(off, n), model.read(off, n), "offset {}", off);
            off += n as usize;
        }
    }

    #[test]
    fn read_after_write_roundtrip(off in 0usize..500, v in any::<u64>(), n in 0u32..=64) {
        let mut buf = BitBuf::new();
        buf.grow(off + 64 + n as usize);
        buf.write_bits(off, v, n);
        prop_assert_eq!(buf.read_bits(off, n), v & num::low_mask(n));
    }

    #[test]
    fn copy_bits_preserves_content(
        src_bits in proptest::collection::vec(any::<bool>(), 1..300),
        seed in any::<u64>(),
    ) {
        let mut src = BitBuf::new();
        for &b in &src_bits {
            src.push_bits(b as u64, 1);
        }
        let src_off = (seed as usize) % src_bits.len();
        let n = src_bits.len() - src_off;
        let mut dst = BitBuf::new();
        dst.grow(17 + n);
        dst.copy_bits_from(&src, src_off, 17, n);
        for i in 0..n {
            prop_assert_eq!(dst.get(17 + i), src_bits[src_off + i]);
        }
    }

    #[test]
    fn hc_addr_apply_roundtrip(h in any::<u64>(), bit in 0u32..64, k in 1usize..12) {
        let h = h & num::low_mask(k as u32);
        let mut key = vec![0u64; k];
        hc::apply_addr(&mut key, h, bit);
        prop_assert_eq!(hc::addr(&key, bit), h);
    }

    #[test]
    fn hc_successor_equals_filter_scan(m_l in any::<u64>(), m_u in any::<u64>(), k in 1u32..10) {
        let m = num::low_mask(k);
        let (m_l, m_u) = (m_l & m, m_u & m);
        let fast: Vec<u64> = hc::valid_addrs(m_l, m_u).collect();
        let slow: Vec<u64> = (0..(1u64 << k))
            .filter(|&h| hc::addr_valid(h, m_l, m_u))
            .collect();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn diverging_bit_agrees_with_scan(a in proptest::collection::vec(any::<u64>(), 1..6), flip in any::<u64>(), dim_sel in any::<usize>()) {
        let mut b = a.clone();
        let d = dim_sel % a.len();
        b[d] ^= flip;
        let expected = (0..64u32).rev().find(|&bit| {
            a.iter().zip(&b).any(|(&x, &y)| (x ^ y) >> bit & 1 == 1)
        });
        prop_assert_eq!(num::max_diverging_bit(&a, &b), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Multi-gap insertion equals applying single gaps back-to-front.
    #[test]
    fn insert_gaps_matches_sequential(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        raw_gaps in proptest::collection::vec((any::<usize>(), 0usize..40), 0..6),
    ) {
        let mut base = BitBuf::new();
        for &b in &bits {
            base.push_bits(b as u64, 1);
        }
        let mut gaps: Vec<(usize, usize)> = raw_gaps
            .iter()
            .map(|&(o, g)| (o % (bits.len() + 1), g))
            .collect();
        gaps.sort();
        let mut multi = base.clone();
        multi.insert_gaps(&gaps);
        let mut seq = base.clone();
        for &(off, gap) in gaps.iter().rev() {
            seq.insert_gap(off, gap);
        }
        prop_assert_eq!(multi, seq);
    }

    /// Multi-range removal equals applying single removals back-to-front.
    #[test]
    fn remove_ranges_matches_sequential(
        bits in proptest::collection::vec(any::<bool>(), 1..300),
        cuts in proptest::collection::vec((any::<usize>(), 1usize..20), 0..5),
    ) {
        let mut base = BitBuf::new();
        for &b in &bits {
            base.push_bits(b as u64, 1);
        }
        // Build sorted, disjoint in-bounds ranges.
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut cursor = 0usize;
        for &(o, n) in &cuts {
            let remaining = bits.len().saturating_sub(cursor);
            if remaining < 2 {
                break;
            }
            let off = cursor + o % (remaining / 2).max(1);
            let len = 1 + n % (bits.len() - off).max(1).min(n.max(1));
            let len = len.min(bits.len() - off);
            ranges.push((off, len));
            cursor = off + len;
        }
        let mut multi = base.clone();
        multi.remove_ranges(&ranges);
        let mut seq = base.clone();
        for &(off, n) in ranges.iter().rev() {
            seq.remove_range(off, n);
        }
        prop_assert_eq!(multi, seq);
    }

    /// Aligned-residue copies (`src_off % 64 == dst_off % 64`) take the
    /// word-level fast path; check it against the bool model.
    #[test]
    fn copy_bits_aligned_matches_model(
        src_bits in proptest::collection::vec(any::<bool>(), 1..400),
        residue in 0usize..64,
        src_word in 0usize..3,
        dst_word in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut src = BitBuf::new();
        for &b in &src_bits {
            src.push_bits(b as u64, 1);
        }
        let src_off = src_word * 64 + residue;
        prop_assume!(src_off < src_bits.len());
        let n = 1 + (seed as usize) % (src_bits.len() - src_off);
        let dst_off = dst_word * 64 + residue;
        let mut dst = BitBuf::new();
        dst.grow(dst_off + n + 19);
        // Pre-fill with junk so clobbered neighbours would be caught.
        for i in 0..dst.len() {
            dst.write_bits(i, (seed >> (i % 64)) & 1, 1);
        }
        let before: Vec<bool> = (0..dst.len()).map(|i| dst.get(i)).collect();
        dst.copy_bits_from(&src, src_off, dst_off, n);
        for i in 0..dst.len() {
            let want = if (dst_off..dst_off + n).contains(&i) {
                src_bits[src_off + i - dst_off]
            } else {
                before[i]
            };
            prop_assert_eq!(dst.get(i), want, "bit {}", i);
        }
    }

    /// `words`/`from_words` is a lossless round trip, and `from_words`
    /// rejects stale high bits.
    #[test]
    fn words_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let mut b = BitBuf::new();
        for &x in &bits {
            b.push_bits(x as u64, 1);
        }
        let words: Box<[u64]> = b.words().into();
        let back = BitBuf::from_words(words.clone(), b.len()).expect("valid");
        prop_assert_eq!(&back, &b);
        // Wrong length is rejected.
        prop_assert!(BitBuf::from_words(words.clone(), b.len() + 70).is_none());
        // Stale bits beyond len are rejected.
        if !b.len().is_multiple_of(64) {
            let mut bad = words.clone();
            let last = bad.len() - 1;
            bad[last] |= 1u64 << 63;
            if b.len() % 64 != 64 {
                prop_assert!(BitBuf::from_words(bad, b.len()).is_none());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests: word-level kernels vs naive bit-by-bit references.
// ---------------------------------------------------------------------------

/// Builds a buffer from a bool vector.
fn buf_from_bits(bits: &[bool]) -> BitBuf {
    let mut b = BitBuf::new();
    for &x in bits {
        b.push_bits(x as u64, 1);
    }
    b
}

/// Naive reference for `eq_range`: compare bit-by-bit against the packed key.
fn eq_range_naive(bits: &[bool], off: usize, key: &[u64], nbits: usize) -> bool {
    (0..nbits).all(|i| bits[off + i] == ((key[i / 64] >> (i % 64)) & 1 == 1))
}

/// Naive reference for `cmp_range`: little-endian integer order.
fn cmp_range_naive(bits: &[bool], off: usize, key: &[u64], nbits: usize) -> std::cmp::Ordering {
    for i in (0..nbits).rev() {
        let v = bits[off + i];
        let k = (key[i / 64] >> (i % 64)) & 1 == 1;
        if v != k {
            return v.cmp(&k);
        }
    }
    std::cmp::Ordering::Equal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `eq_range` agrees with a bit-by-bit scan, on both exact copies and
    /// single-bit corruptions, across aligned and shifted offsets.
    #[test]
    fn eq_range_matches_naive(
        bits in proptest::collection::vec(any::<bool>(), 1..400),
        off_sel in any::<usize>(),
        len_sel in any::<usize>(),
        flip_sel in any::<usize>(),
        corrupt in any::<bool>(),
    ) {
        let b = buf_from_bits(&bits);
        let off = off_sel % bits.len();
        let nbits = 1 + len_sel % (bits.len() - off);
        // Pack the exact range, then optionally flip one bit of the key.
        let mut key = vec![0u64; nbits.div_ceil(64)];
        for i in 0..nbits {
            if bits[off + i] {
                key[i / 64] |= 1u64 << (i % 64);
            }
        }
        if corrupt {
            let f = flip_sel % nbits;
            key[f / 64] ^= 1u64 << (f % 64);
        }
        prop_assert_eq!(
            b.eq_range(off, &key, nbits),
            eq_range_naive(&bits, off, &key, nbits)
        );
        prop_assert_eq!(b.eq_range(off, &key, nbits), !corrupt);
    }

    /// `cmp_range` orders ranges like little-endian integers, matching a
    /// top-down bit scan.
    #[test]
    fn cmp_range_matches_naive(
        bits in proptest::collection::vec(any::<bool>(), 1..400),
        off_sel in any::<usize>(),
        len_sel in any::<usize>(),
        key_raw in proptest::collection::vec(any::<u64>(), 7..8),
    ) {
        let b = buf_from_bits(&bits);
        let off = off_sel % bits.len();
        let nbits = 1 + len_sel % (bits.len() - off);
        let nwords = nbits.div_ceil(64);
        let mut key = key_raw[..nwords].to_vec();
        // High bits beyond nbits are ignored by contract; mask to be explicit.
        let rem = (nbits % 64) as u32;
        if rem != 0 {
            key[nwords - 1] &= num::low_mask(rem);
        }
        prop_assert_eq!(
            b.cmp_range(off, &key, nbits),
            cmp_range_naive(&bits, off, &key, nbits)
        );
    }

    /// `read_key_into` / `write_key` agree with a per-dimension
    /// `read_bits` / `write_bits` loop for K in 1..24 and any legal
    /// (width, shift) split of a word.
    #[test]
    fn key_kernels_match_naive(
        k in 1usize..24,
        width in 0u32..=64,
        shift_sel in any::<u32>(),
        off_sel in any::<usize>(),
        key_raw in proptest::collection::vec(any::<u64>(), 24..25),
        backing in proptest::collection::vec(any::<bool>(), 1600..1700),
    ) {
        let shift = if width == 64 { 0 } else { shift_sel % (64 - width + 1) };
        let total = width as usize * k;
        let off = off_sel % (backing.len() - total);
        let key = &key_raw[..k];

        // --- write_key vs naive write_bits loop ---
        let mut fast = buf_from_bits(&backing);
        fast.write_key(off, width, shift, key);
        let mut slow = buf_from_bits(&backing);
        for (d, &v) in key.iter().enumerate() {
            slow.write_bits(off + d * width as usize, (v >> shift) & num::low_mask(width), width);
        }
        prop_assert_eq!(&fast, &slow);

        // --- read_key_into vs naive read_bits loop ---
        let mut got = key_raw[..k].to_vec();
        fast.read_key_into(off, width, shift, &mut got);
        let keep = !(num::low_mask(width) << shift);
        for (d, g) in got.iter().enumerate() {
            let field = slow.read_bits(off + d * width as usize, width);
            let want = (key_raw[d] & keep) | (field << shift);
            prop_assert_eq!(*g, want, "dim {}", d);
        }

        // --- pack_key agrees with the committed write_key layout ---
        let mut packed = vec![u64::MAX; 24];
        let nbits = num::pack_key(key, shift, width, &mut packed);
        prop_assert_eq!(nbits, total);
        for i in 0..total {
            let want = fast.get(off + i);
            prop_assert_eq!((packed[i / 64] >> (i % 64)) & 1 == 1, want, "bit {}", i);
        }
        // And eq_range/eq_key accept the written key at the written offset.
        if total > 0 {
            prop_assert!(fast.eq_range(off, &packed, total));
        }
        prop_assert!(fast.eq_key(off, width, shift, key));
        // eq_key agrees with a per-dimension read_bits compare after a flip.
        if width > 0 {
            let mut fuzz = fast.clone();
            let f = off + off_sel % total;
            fuzz.set(f, !fuzz.get(f));
            let naive = key.iter().enumerate().all(|(d, &v)| {
                fuzz.read_bits(off + d * width as usize, width) == (v >> shift) & num::low_mask(width)
            });
            prop_assert_eq!(fuzz.eq_key(off, width, shift, key), naive);
            prop_assert!(!fuzz.eq_key(off, width, shift, key));
        }
    }
}
