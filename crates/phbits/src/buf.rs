//! Packed bit strings with word-level access kernels.
//!
//! Bits are stored in `u64` words. Bit index `i` lives in word `i / 64`
//! at bit position `i % 64` counted from the least significant bit.
//! Multi-bit values are stored little-endian within the string: the
//! value's bit 0 is at the lowest index. This keeps every read/write a
//! one- or two-word operation.
//!
//! The kernels are written once, as the provided methods of
//! [`BitRead`] and [`BitWrite`], over *any* word slice with a bit
//! length: the owned, growable [`BitBuf`] here, and the words region
//! of a PH-tree node's one heap block, for which `phtree` implements
//! the two accessors. A kernel never resizes; resizing belongs to
//! whoever owns the words. So the two structural
//! edits come in halves: [`BitWrite::open_gaps`] shifts right inside a
//! string its owner has already lengthened, [`BitWrite::close_ranges`]
//! shifts left and leaves the owner to cut the tail off, and
//! [`BitBuf::insert_gaps`] / [`BitBuf::remove_ranges`] are those halves
//! around the buffer's own `grow` / `truncate`.
//!
//! Beyond single-value reads and writes there are **word-level
//! kernels** for the PH-tree's node hot paths: [`BitRead::eq_range`] /
//! [`BitRead::cmp_range`] compare a packed bit range against a
//! caller-packed key in `O(nbits/64)` word operations, and
//! [`BitRead::read_key_into`] / [`BitWrite::write_key`] gather/scatter
//! a run of `K` fixed-width fields (one per dimension) with a single
//! rolling word cursor instead of `K` independent sub-word accesses.

#[inline]
fn mask(nbits: u32) -> u64 {
    if nbits >= 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// The words a non-empty bit range `off..off + n` touches: index of the
/// first and last word, and the masks selecting the range's bits within
/// them (all words in between are covered whole).
#[inline]
fn word_span(off: usize, n: usize) -> (usize, usize, u64, u64) {
    debug_assert!(n > 0);
    let end = off + n - 1;
    (
        off / 64,
        end / 64,
        u64::MAX << (off % 64),
        mask((end % 64 + 1) as u32),
    )
}

/// Replaces the bits of `w[i]` selected by `m` with those of `val`.
#[inline]
fn put(w: &mut [u64], i: usize, val: u64, m: u64) {
    w[i] = (w[i] & !m) | (val & m);
}

/// Read access to a packed bit string: `len` bits in
/// `ceil(len / 64)` words. Implementors supply the two accessors; the
/// kernels are provided.
pub trait BitRead {
    /// The backing words (exactly `ceil(len/64)`; bits beyond `len` in
    /// the last word are zero).
    fn words(&self) -> &[u64];

    /// Number of bits stored.
    fn len(&self) -> usize;

    /// Whether the string holds no bits.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `nbits` bits (0..=64) starting at bit offset `off`.
    ///
    /// The result's bit 0 is the bit at index `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + nbits` exceeds [`BitRead::len`] or `nbits > 64`.
    #[inline]
    fn read_bits(&self, off: usize, nbits: u32) -> u64 {
        assert!(nbits <= 64, "read of more than 64 bits");
        assert!(off + nbits as usize <= self.len(), "bit read out of bounds");
        if nbits == 0 {
            return 0;
        }
        let w = self.words();
        let word = off / 64;
        let shift = (off % 64) as u32;
        let lo = w[word] >> shift;
        let have = 64 - shift;
        let v = if nbits <= have {
            lo
        } else {
            lo | (w[word + 1] << have)
        };
        v & mask(nbits)
    }

    /// Returns the single bit at index `i` as a bool.
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.read_bits(i, 1) != 0
    }

    /// Counts the 1-bits in the range `off..off + n`.
    ///
    /// Word-chunked: O(n/64). Used for rank queries over packed
    /// child-kind bits.
    #[inline]
    fn count_ones(&self, off: usize, n: usize) -> usize {
        assert!(off + n <= self.len(), "count range out of bounds");
        let mut total = 0usize;
        let mut done = 0usize;
        while done < n {
            let chunk = (n - done).min(64) as u32;
            total += self.read_bits(off + done, chunk).count_ones() as usize;
            done += chunk as usize;
        }
        total
    }

    /// Whether the `nbits` bits at `off..off + nbits` equal the packed
    /// little-endian key in `key` (word `i` holds bits `i*64..`, trailing
    /// bits of the last word are ignored).
    ///
    /// Word-chunked: one (aligned) or two (shifted) word reads per 64
    /// compared bits, instead of one `read_bits` per field.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`BitRead::len`] or `key` holds fewer
    /// than `ceil(nbits/64)` words.
    #[inline]
    fn eq_range(&self, off: usize, key: &[u64], nbits: usize) -> bool {
        assert!(off + nbits <= self.len(), "eq_range out of bounds");
        if nbits == 0 {
            return true;
        }
        let nwords = nbits.div_ceil(64);
        assert!(key.len() >= nwords, "eq_range key too short");
        let words = self.words();
        let word = off / 64;
        let shift = (off % 64) as u32;
        if shift == 0 {
            let full = nbits / 64;
            if words[word..word + full] != key[..full] {
                return false;
            }
            let rem = (nbits % 64) as u32;
            rem == 0 || (words[word + full] ^ key[full]) & mask(rem) == 0
        } else {
            let inv = 64 - shift;
            let mut rem = nbits;
            for (w, &k) in (word..).zip(key[..nwords].iter()) {
                let take = rem.min(64) as u32;
                let lo = words[w] >> shift;
                let v = if take <= inv {
                    lo
                } else {
                    lo | (words[w + 1] << inv)
                };
                if (v ^ k) & mask(take) != 0 {
                    return false;
                }
                rem -= take as usize;
            }
            true
        }
    }

    /// Compares the `nbits` bits at `off..` against the packed
    /// little-endian key in `key`, both interpreted as `nbits`-bit
    /// unsigned integers (bit 0 least significant).
    ///
    /// Decides from the most significant word down, so mismatching keys
    /// usually resolve on the first word.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`BitRead::len`] or `key` holds fewer
    /// than `ceil(nbits/64)` words.
    #[inline]
    fn cmp_range(&self, off: usize, key: &[u64], nbits: usize) -> std::cmp::Ordering {
        assert!(off + nbits <= self.len(), "cmp_range out of bounds");
        let nwords = nbits.div_ceil(64);
        assert!(key.len() >= nwords, "cmp_range key too short");
        if nbits == 0 {
            return std::cmp::Ordering::Equal;
        }
        if nbits <= 64 {
            // Single-word fields (K <= 64 hypercube addresses) compare in
            // one extract, skipping the word loop entirely.
            let take = nbits as u32;
            return self.read_bits(off, take).cmp(&(key[0] & mask(take)));
        }
        for i in (0..nwords).rev() {
            let take = (nbits - i * 64).min(64) as u32;
            let v = self.read_bits(off + i * 64, take);
            let k = key[i] & mask(take);
            if v != k {
                return v.cmp(&k);
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Gathers `key.len()` fields of `width` bits each, laid out
    /// back-to-back from `off` (field `d` at `off + d*width`), merging
    /// field `d` into `key[d]` at bit position `shift`:
    /// `key[d] = (key[d] & !(mask << shift)) | (field << shift)`.
    ///
    /// This is the PH-tree postfix (`shift == 0`) / infix
    /// (`shift == post_len + 1`) read: the packed run is walked once
    /// with a rolling word cursor instead of `K` independent
    /// [`BitRead::read_bits`] calls re-deriving word/bit offsets.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds [`BitRead::len`]. Requires
    /// `width + shift <= 64` (debug-asserted).
    #[inline]
    fn read_key_into(&self, off: usize, width: u32, shift: u32, key: &mut [u64]) {
        if width == 0 {
            return;
        }
        debug_assert!(width + shift <= 64, "field must fit a word");
        let total = width as usize * key.len();
        assert!(off + total <= self.len(), "key read out of bounds");
        let words = self.words();
        let m = mask(width);
        let place = !(m << shift);
        let mut word = off / 64;
        let mut bit = (off % 64) as u32;
        for v in key.iter_mut() {
            let lo = words[word] >> bit;
            let have = 64 - bit;
            let field = if width <= have {
                lo & m
            } else {
                (lo | (words[word + 1] << have)) & m
            };
            *v = (*v & place) | (field << shift);
            bit += width;
            if bit >= 64 {
                word += 1;
                bit -= 64;
            }
        }
    }

    /// Compares `key.len()` fields of `width` bits each in the packed
    /// run at `off` (field `d` at `off + d*width`) against bits
    /// `shift..shift + width` of `key[d]`, returning whether every field
    /// matches. The compare-side sibling of [`BitRead::read_key_into`]:
    /// the same rolling cursor, but it exits on the first mismatching
    /// dimension — on miss-heavy probes (point queries are 50 % misses
    /// in the paper's workload) that usually means one field of work.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds [`BitRead::len`]. Requires
    /// `width + shift <= 64` (debug-asserted).
    #[inline]
    fn eq_key(&self, off: usize, width: u32, shift: u32, key: &[u64]) -> bool {
        if width == 0 {
            return true;
        }
        debug_assert!(width + shift <= 64, "field must fit a word");
        let total = width as usize * key.len();
        assert!(off + total <= self.len(), "key compare out of bounds");
        let words = self.words();
        let m = mask(width);
        let mut word = off / 64;
        let mut bit = (off % 64) as u32;
        for &v in key {
            let lo = words[word] >> bit;
            let have = 64 - bit;
            let field = if width <= have {
                lo & m
            } else {
                (lo | (words[word + 1] << have)) & m
            };
            if field != (v >> shift) & m {
                return false;
            }
            bit += width;
            if bit >= 64 {
                word += 1;
                bit -= 64;
            }
        }
        true
    }
}

/// Write access to a packed bit string of fixed length: every kernel
/// that edits bits in place. None of them changes the length.
pub trait BitWrite: BitRead {
    /// The backing words, mutably.
    fn words_mut(&mut self) -> &mut [u64];

    /// Writes the low `nbits` bits (0..=64) of `value` at bit offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + nbits` exceeds [`BitRead::len`] or `nbits > 64`.
    #[inline]
    fn write_bits(&mut self, off: usize, value: u64, nbits: u32) {
        assert!(nbits <= 64, "write of more than 64 bits");
        assert!(
            off + nbits as usize <= self.len(),
            "bit write out of bounds"
        );
        if nbits == 0 {
            return;
        }
        let w = self.words_mut();
        let value = value & mask(nbits);
        let word = off / 64;
        let shift = (off % 64) as u32;
        let have = 64 - shift;
        if nbits <= have {
            put(w, word, value << shift, mask(nbits) << shift);
        } else {
            put(w, word, value << shift, mask(have) << shift);
            put(w, word + 1, value >> have, mask(nbits - have));
        }
    }

    /// Sets the single bit at index `i`.
    #[inline]
    fn set(&mut self, i: usize, v: bool) {
        self.write_bits(i, v as u64, 1);
    }

    /// Scatters `key.len()` fields of `width` bits each into the packed
    /// run at `off` (field `d` at `off + d*width`), taking field `d`
    /// from bits `shift..shift + width` of `key[d]`. The write-side dual
    /// of [`BitRead::read_key_into`]: each touched word is loaded and
    /// stored once via a rolling cursor.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds [`BitRead::len`]. Requires
    /// `width + shift <= 64` (debug-asserted).
    #[inline]
    fn write_key(&mut self, off: usize, width: u32, shift: u32, key: &[u64]) {
        if width == 0 {
            return;
        }
        debug_assert!(width + shift <= 64, "field must fit a word");
        let total = width as usize * key.len();
        assert!(off + total <= self.len(), "key write out of bounds");
        let words = self.words_mut();
        let m = mask(width);
        let mut word = off / 64;
        let mut bit = (off % 64) as u32;
        let mut cur = words[word];
        for &v in key {
            let field = (v >> shift) & m;
            let have = 64 - bit;
            if width < have {
                cur = (cur & !(m << bit)) | (field << bit);
                bit += width;
            } else if width == have {
                cur = (cur & !(m << bit)) | (field << bit);
                words[word] = cur;
                word += 1;
                bit = 0;
                if word < words.len() {
                    cur = words[word];
                }
            } else {
                // Field spans into the next word: `field << bit`
                // truncates the spill, which lands in the next word.
                cur = (cur & !(u64::MAX << bit)) | (field << bit);
                words[word] = cur;
                word += 1;
                let spill = width - have;
                cur = (words[word] & !mask(spill)) | (field >> have);
                bit = spill;
            }
        }
        if bit > 0 {
            words[word] = cur;
        }
    }

    /// Copies `n` bits from `src` (another bit string) at `src_off` into
    /// `self` at `dst_off`. The destination range must already exist.
    ///
    /// When both offsets share the same residue mod 64 (the common case
    /// in node relayouts, where whole regions shift by multiples of the
    /// postfix stride), the middle of the range is moved with a plain
    /// word `copy_from_slice` instead of per-chunk shifting.
    fn copy_bits_from<S: BitRead + ?Sized>(
        &mut self,
        src: &S,
        src_off: usize,
        dst_off: usize,
        n: usize,
    ) {
        assert!(src_off + n <= src.len(), "source range out of bounds");
        assert!(dst_off + n <= self.len(), "destination range out of bounds");
        if n == 0 {
            return;
        }
        if src_off % 64 == dst_off % 64 {
            return copy_aligned(self.words_mut(), src.words(), src_off, dst_off, n);
        }
        let mut done = 0;
        while done < n {
            let chunk = (n - done).min(64) as u32;
            let v = src.read_bits(src_off + done, chunk);
            self.write_bits(dst_off + done, v, chunk);
            done += chunk as usize;
        }
    }

    /// Opens several zero gaps in a string whose owner has already
    /// lengthened it by their total: the first `old_len` bits are the
    /// content, the rest is room.
    ///
    /// `gaps` are `(offset, length)` pairs with offsets in *original*
    /// coordinates, sorted ascending; each gap is inserted before the
    /// original bit at `offset` (an offset equal to `old_len` appends).
    /// Regions between gaps are shifted right from the back, in place.
    fn open_gaps(&mut self, gaps: &[(usize, usize)], old_len: usize) {
        let total: usize = gaps.iter().map(|&(_, g)| g).sum();
        debug_assert!(gaps.windows(2).all(|w| w[0].0 <= w[1].0), "gaps sorted");
        assert!(
            gaps.iter().all(|&(off, _)| off <= old_len),
            "gap offset out of bounds"
        );
        assert!(old_len + total == self.len(), "gaps do not fill the room");
        let w = self.words_mut();
        // Walk the gaps back-to-front: the region between gap i-1 and
        // gap i shifts right by the summed width of gaps 0..i, so the
        // cumulative shift shrinks as gaps peel off and every source
        // bit is read before anything overwrites it.
        let mut shift = total;
        let mut region_end = old_len;
        for &(off, gap) in gaps.iter().rev() {
            move_bits_right(w, off, off + shift, region_end - off);
            shift -= gap;
            zero_bits(w, off + shift, gap);
            region_end = off;
        }
    }

    /// Removes several disjoint ranges by shifting the surviving
    /// regions left in place, and returns the new length; the owner
    /// then cuts the string down to it (the bits beyond are stale).
    ///
    /// `ranges` are `(offset, length)` pairs in original coordinates,
    /// sorted ascending and non-overlapping.
    fn close_ranges(&mut self, ranges: &[(usize, usize)]) -> usize {
        let old_len = self.len();
        let total: usize = ranges.iter().map(|&(_, n)| n).sum();
        debug_assert!(
            ranges.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
            "ranges sorted and disjoint"
        );
        assert!(
            ranges.iter().all(|&(off, n)| off + n <= old_len),
            "removal range out of bounds"
        );
        let w = self.words_mut();
        let mut src = 0usize;
        let mut dst = 0usize;
        for &(off, n) in ranges {
            move_bits_left(w, src, dst, off - src);
            dst += off - src;
            src = off + n;
        }
        move_bits_left(w, src, dst, old_len - src);
        old_len - total
    }
}

/// Moves the `n` bits at `src..src + n` to `dst..dst + n` within `w`,
/// `dst >= src`. A word-level funnel shift walking the destination
/// words back-to-front: every source word is read once (carried over
/// to the next destination word) and every destination word written
/// once, so overlapping ranges are safe — each write lands at or above
/// every not-yet-read source word.
fn move_bits_right(w: &mut [u64], src: usize, dst: usize, n: usize) {
    debug_assert!(dst >= src);
    if n == 0 || dst == src {
        return;
    }
    let (wd, r) = ((dst - src) / 64, ((dst - src) % 64) as u32);
    let (first, last, head, tail) = word_span(dst, n);
    if r == 0 {
        if first == last {
            put(w, first, w[first - wd], head & tail);
        } else {
            put(w, last, w[last - wd], tail);
            w.copy_within(first + 1 - wd..last - wd, first + 1);
            put(w, first, w[first - wd], head);
        }
        return;
    }
    // Destination word `i` is `w[i - wd] << r | w[i - wd - 1] >> (64 - r)`.
    // The low part of the first word comes from below the source
    // range when `dst % 64 >= r`; it is masked out, so don't read it.
    let low_of_first = if dst % 64 < r as usize {
        w[first - wd - 1]
    } else {
        0
    };
    let mut cur = w[last - wd];
    if first == last {
        put(w, first, cur << r | low_of_first >> (64 - r), head & tail);
        return;
    }
    let mut next = w[last - wd - 1];
    put(w, last, cur << r | next >> (64 - r), tail);
    cur = next;
    for i in (first + 1..last).rev() {
        next = w[i - wd - 1];
        w[i] = cur << r | next >> (64 - r);
        cur = next;
    }
    put(w, first, cur << r | low_of_first >> (64 - r), head);
}

/// Moves the `n` bits at `src..src + n` to `dst..dst + n` within `w`,
/// `dst <= src`. The front-to-back mirror of [`move_bits_right`]; safe
/// for overlap since writes trail the reads.
fn move_bits_left(w: &mut [u64], src: usize, dst: usize, n: usize) {
    debug_assert!(dst <= src);
    if n == 0 || dst == src {
        return;
    }
    let (wd, r) = ((src - dst) / 64, ((src - dst) % 64) as u32);
    let (first, last, head, tail) = word_span(dst, n);
    if r == 0 {
        if first == last {
            put(w, first, w[first + wd], head & tail);
        } else {
            put(w, first, w[first + wd], head);
            w.copy_within(first + 1 + wd..last + wd, first + 1);
            put(w, last, w[last + wd], tail);
        }
        return;
    }
    // Destination word `i` is `w[i + wd] >> r | w[i + wd + 1] << (64 - r)`.
    // The high part of the last word comes from above the source
    // range (possibly past the string) when the source ends in word
    // `last + wd`; it is masked out, so don't read it.
    let high_of_last = if (src + n - 1) / 64 > last + wd {
        w[last + wd + 1]
    } else {
        0
    };
    let mut cur = w[first + wd];
    if first == last {
        put(w, first, cur >> r | high_of_last << (64 - r), head & tail);
        return;
    }
    let mut next = w[first + wd + 1];
    put(w, first, cur >> r | next << (64 - r), head);
    cur = next;
    for i in first + 1..last {
        next = w[i + wd + 1];
        w[i] = cur >> r | next << (64 - r);
        cur = next;
    }
    put(w, last, cur >> r | high_of_last << (64 - r), tail);
}

/// Zeroes the `n` bits at `off..off + n`: masked head and tail words
/// around a plain word fill.
fn zero_bits(w: &mut [u64], off: usize, n: usize) {
    if n == 0 {
        return;
    }
    let (first, last, head, tail) = word_span(off, n);
    if first == last {
        w[first] &= !(head & tail);
    } else {
        w[first] &= !head;
        w[first + 1..last].fill(0);
        w[last] &= !tail;
    }
}

/// Word-aligned copy: `src_off % 64 == dst_off % 64`. Handles the
/// partial head word up to the boundary, block-copies full words,
/// then merges the masked tail.
#[inline]
fn copy_aligned(dst: &mut [u64], src: &[u64], src_off: usize, dst_off: usize, n: usize) {
    let mut sw = src_off / 64;
    let mut dw = dst_off / 64;
    let bit = (src_off % 64) as u32;
    let mut rem = n;
    if bit != 0 {
        let head = ((64 - bit) as usize).min(rem) as u32;
        put(dst, dw, src[sw], mask(head) << bit);
        rem -= head as usize;
        if rem == 0 {
            return;
        }
        sw += 1;
        dw += 1;
    }
    let full = rem / 64;
    dst[dw..dw + full].copy_from_slice(&src[sw..sw + full]);
    let tail = (rem % 64) as u32;
    if tail != 0 {
        put(dst, dw + full, src[sw + full], mask(tail));
    }
}

/// An owned, growable packed bit string backed by a word vector: the
/// form a bit string takes outside a node — decoded from storage, or
/// being assembled for a node about to change representation.
///
/// The structural operations — [`BitBuf::insert_gaps`] (shift-right,
/// used on entry insertion) and [`BitBuf::remove_ranges`] (shift-left,
/// used on deletion) — are exactly the operations whose costs the paper
/// discusses in Sect. 3.6 and 4.3.4. Both operate in place on the
/// existing word vector (growing it once to the final length, or
/// truncating with capacity retained), so repeated edits amortise their
/// allocations.
///
/// # Example
///
/// ```
/// use phbits::{BitBuf, BitRead, BitWrite};
///
/// let mut b = BitBuf::new();
/// b.push_bits(0b1011, 4);
/// b.push_bits(0xFF, 8);
/// assert_eq!(b.len(), 12);
/// assert_eq!(b.read_bits(0, 4), 0b1011);
/// assert_eq!(b.read_bits(4, 8), 0xFF);
///
/// // Insert a 4-bit gap in the middle and fill it.
/// b.insert_gap(4, 4);
/// b.write_bits(4, 0b0110, 4);
/// assert_eq!(b.read_bits(0, 4), 0b1011);
/// assert_eq!(b.read_bits(4, 4), 0b0110);
/// assert_eq!(b.read_bits(8, 8), 0xFF);
///
/// // And remove it again.
/// b.remove_range(4, 4);
/// assert_eq!(b.read_bits(4, 8), 0xFF);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BitBuf {
    /// Invariant: `words.len() == len.div_ceil(64)` and every bit at
    /// index `>= len` in the last word is zero.
    words: Vec<u64>,
    len: u32,
}

impl BitRead for BitBuf {
    #[inline]
    fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }
}

impl BitWrite for BitBuf {
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

impl BitBuf {
    /// Creates an empty buffer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zero-filled buffer of `nbits` bits.
    pub fn zeroed(nbits: usize) -> Self {
        BitBuf {
            words: vec![0u64; nbits.div_ceil(64)],
            len: nbits as u32,
        }
    }

    /// Appends the low `nbits` bits of `value` at the end of the buffer.
    #[inline]
    pub fn push_bits(&mut self, value: u64, nbits: u32) {
        let off = self.len();
        self.grow(nbits as usize);
        self.write_bits(off, value, nbits);
    }

    /// Extends the buffer by `nbits` zero bits in place (amortised O(1)
    /// per word thanks to the vector's growth policy). The new bits are
    /// zero because the invariant keeps trailing bits of the last word
    /// zeroed.
    pub fn grow(&mut self, nbits: usize) {
        let new_len = self.len() + nbits;
        self.words.resize(new_len.div_ceil(64), 0);
        self.len = new_len as u32;
    }

    /// Truncates the buffer to `nbits` bits in place; capacity is
    /// retained.
    ///
    /// # Panics
    ///
    /// Panics if `nbits > len()`.
    pub fn truncate(&mut self, nbits: usize) {
        assert!(nbits <= self.len(), "truncate beyond length");
        let need = nbits.div_ceil(64);
        self.words.truncate(need);
        let rem = (nbits % 64) as u32;
        if rem != 0 {
            self.words[need - 1] &= mask(rem);
        }
        self.len = nbits as u32;
    }

    /// Opens one gap of `gap` zero bits at offset `off`, shifting all
    /// bits at `off..len` right (towards higher indices) by `gap`.
    ///
    /// This is the "shift-right" used by PH-tree entry insertion.
    pub fn insert_gap(&mut self, off: usize, gap: usize) {
        self.insert_gaps(&[(off, gap)]);
    }

    /// Opens several zero gaps in one in-place pass
    /// ([`BitWrite::open_gaps`]): the buffer grows to the full
    /// post-insert length once up front (one amortised vector resize),
    /// then the regions between gaps shift right from the back.
    ///
    /// ```
    /// use phbits::BitRead;
    /// let mut b = phbits::BitBuf::new();
    /// b.push_bits(0b1111, 4);
    /// b.insert_gaps(&[(1, 2), (3, 1)]);
    /// // 1 11 1 → 1 00 11 0 1 (LSB first)
    /// assert_eq!(b.len(), 7);
    /// assert_eq!(b.read_bits(0, 7), 0b1011001);
    /// ```
    pub fn insert_gaps(&mut self, gaps: &[(usize, usize)]) {
        let old_len = self.len();
        self.grow(gaps.iter().map(|&(_, g)| g).sum());
        self.open_gaps(gaps, old_len);
    }

    /// Removes the `n` bits at `off..off + n`, shifting all later bits
    /// left (towards lower indices) by `n` and shortening the buffer.
    ///
    /// This is the "shift-left" used by PH-tree entry deletion.
    pub fn remove_range(&mut self, off: usize, n: usize) {
        self.remove_ranges(&[(off, n)]);
    }

    /// Removes several disjoint ranges in one in-place pass
    /// ([`BitWrite::close_ranges`]), then truncates with capacity
    /// retained — deletion never touches the allocator.
    ///
    /// ```
    /// use phbits::BitRead;
    /// let mut b = phbits::BitBuf::new();
    /// b.push_bits(0b1100101, 7);
    /// b.remove_ranges(&[(1, 1), (4, 2)]);
    /// // 1 0 1 0 0 1 1 → keep 1, 1 0, 1 (LSB first)
    /// assert_eq!(b.len(), 4);
    /// assert_eq!(b.read_bits(0, 4), 0b1011);
    /// ```
    pub fn remove_ranges(&mut self, ranges: &[(usize, usize)]) {
        let new_len = self.close_ranges(ranges);
        self.truncate(new_len);
    }

    /// The backing words, given up (the inverse of
    /// [`BitBuf::from_words`]).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Reconstructs a buffer from backing words and a bit length (the
    /// inverse of [`BitRead::words`] + [`BitRead::len`]).
    ///
    /// Returns `None` if `len_bits` does not fit the word count or if
    /// bits beyond `len_bits` are set (corrupt input).
    pub fn from_words(words: Box<[u64]>, len_bits: usize) -> Option<Self> {
        if words.len() != len_bits.div_ceil(64) || len_bits > u32::MAX as usize {
            return None;
        }
        let rem = (len_bits % 64) as u32;
        if rem != 0 && words[words.len() - 1] & !mask(rem) != 0 {
            return None;
        }
        Some(BitBuf {
            words: words.into_vec(),
            len: len_bits as u32,
        })
    }
}

impl std::fmt::Debug for BitBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitBuf[{};", self.len)?;
        for i in 0..self.len().min(256) {
            if i % 8 == 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.get(i) as u8)?;
        }
        if self.len() > 256 {
            write!(f, " …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let b = BitBuf::new();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn push_and_read_small() {
        let mut b = BitBuf::new();
        b.push_bits(0b101, 3);
        b.push_bits(0b11, 2);
        assert_eq!(b.len(), 5);
        assert_eq!(b.read_bits(0, 3), 0b101);
        assert_eq!(b.read_bits(3, 2), 0b11);
        assert_eq!(b.read_bits(0, 5), 0b11101);
    }

    #[test]
    fn read_write_across_word_boundary() {
        let mut b = BitBuf::new();
        b.grow(128);
        b.write_bits(60, 0xABCD, 16);
        assert_eq!(b.read_bits(60, 16), 0xABCD);
        assert_eq!(b.read_bits(60, 4), 0xD);
        assert_eq!(b.read_bits(64, 12), 0xABC);
        // Neighbouring bits untouched.
        assert_eq!(b.read_bits(0, 60), 0);
        assert_eq!(b.read_bits(76, 52), 0);
    }

    #[test]
    fn write_full_64_at_boundary() {
        let mut b = BitBuf::new();
        b.grow(192);
        b.write_bits(64, u64::MAX, 64);
        assert_eq!(b.read_bits(64, 64), u64::MAX);
        assert_eq!(b.read_bits(0, 64), 0);
        assert_eq!(b.read_bits(128, 64), 0);
        b.write_bits(32, 0, 64);
        assert_eq!(b.read_bits(0, 32), 0);
        assert_eq!(b.read_bits(32, 64), 0);
        assert_eq!(b.read_bits(96, 32), u64::MAX >> 32);
    }

    #[test]
    fn write_unaligned_64() {
        let mut b = BitBuf::new();
        b.grow(256);
        let v = 0x0123_4567_89AB_CDEF;
        b.write_bits(13, v, 64);
        assert_eq!(b.read_bits(13, 64), v);
    }

    #[test]
    fn zero_width_ops() {
        let mut b = BitBuf::new();
        b.push_bits(0b1, 1);
        assert_eq!(b.read_bits(0, 0), 0);
        assert_eq!(b.read_bits(1, 0), 0);
        b.write_bits(1, 0xFF, 0); // no-op at end
        b.insert_gap(1, 0);
        b.remove_range(0, 0);
        assert_eq!(b.len(), 1);
        assert!(b.get(0));
    }

    #[test]
    fn insert_gap_middle() {
        let mut b = BitBuf::new();
        b.push_bits(0b1111, 4);
        b.insert_gap(2, 3);
        assert_eq!(b.len(), 7);
        assert_eq!(b.read_bits(0, 2), 0b11);
        assert_eq!(b.read_bits(2, 3), 0); // gap is zeroed
        assert_eq!(b.read_bits(5, 2), 0b11);
    }

    #[test]
    fn insert_gap_at_start_and_end() {
        let mut b = BitBuf::new();
        b.push_bits(0b1011, 4);
        b.insert_gap(0, 2);
        assert_eq!(b.read_bits(0, 2), 0);
        assert_eq!(b.read_bits(2, 4), 0b1011);
        b.insert_gap(6, 5);
        assert_eq!(b.len(), 11);
        assert_eq!(b.read_bits(6, 5), 0);
        assert_eq!(b.read_bits(2, 4), 0b1011);
    }

    #[test]
    fn insert_large_gap_shifts_whole_words() {
        let mut b = BitBuf::new();
        for i in 0..200u64 {
            b.push_bits(i & 1, 1);
        }
        let before: Vec<bool> = (0..200).map(|i| b.get(i)).collect();
        b.insert_gap(67, 130);
        assert_eq!(b.len(), 330);
        for (i, &bit) in before.iter().enumerate().take(67) {
            assert_eq!(b.get(i), bit, "prefix bit {i}");
        }
        for i in 67..197 {
            assert!(!b.get(i), "gap bit {i} should be zero");
        }
        for (i, &bit) in before.iter().enumerate().skip(67) {
            assert_eq!(b.get(i + 130), bit, "suffix bit {i}");
        }
    }

    #[test]
    fn multi_gap_insert_matches_sequential() {
        let mut base = BitBuf::new();
        for i in 0..100u64 {
            base.push_bits((i * 7) & 1, 1);
        }
        let mut multi = base.clone();
        multi.insert_gaps(&[(10, 3), (50, 7), (100, 2)]);
        let mut seq = base.clone();
        // Apply from the back so original offsets stay valid.
        seq.insert_gap(100, 2);
        seq.insert_gap(50, 7);
        seq.insert_gap(10, 3);
        assert_eq!(multi, seq);
    }

    #[test]
    fn multi_gap_adjacent_offsets() {
        let mut b = BitBuf::new();
        b.push_bits(0b11, 2);
        b.insert_gaps(&[(1, 1), (1, 1)]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.read_bits(0, 4), 0b1001);
    }

    #[test]
    fn remove_range_middle() {
        let mut b = BitBuf::new();
        b.push_bits(0b1100101, 7);
        b.remove_range(2, 3);
        assert_eq!(b.len(), 4);
        // original bits (LSB first): 1,0,1,0,0,1,1 → remove idx 2..5 → 1,0,1,1
        assert_eq!(b.read_bits(0, 4), 0b1101);
    }

    #[test]
    fn remove_range_spanning_words() {
        let mut b = BitBuf::new();
        for i in 0..300u64 {
            b.push_bits((i * 7) & 1, 1);
        }
        let before: Vec<bool> = (0..300).map(|i| b.get(i)).collect();
        b.remove_range(50, 200);
        assert_eq!(b.len(), 100);
        for (i, &bit) in before.iter().enumerate().take(50) {
            assert_eq!(b.get(i), bit);
        }
        for i in 50..100 {
            assert_eq!(b.get(i), before[i + 200]);
        }
    }

    #[test]
    fn multi_range_remove_matches_sequential() {
        let mut base = BitBuf::new();
        for i in 0..120u64 {
            base.push_bits((i * 11) & 1, 1);
        }
        let mut multi = base.clone();
        multi.remove_ranges(&[(5, 4), (40, 10), (100, 20)]);
        let mut seq = base.clone();
        seq.remove_range(100, 20);
        seq.remove_range(40, 10);
        seq.remove_range(5, 4);
        assert_eq!(multi, seq);
    }

    #[test]
    fn grow_zeroes_reclaimed_space() {
        let mut b = BitBuf::new();
        b.push_bits(u64::MAX, 64);
        b.push_bits(u64::MAX, 10);
        b.truncate(3);
        b.grow(80);
        assert_eq!(b.read_bits(0, 3), 0b111);
        for i in 3..83 {
            assert!(!b.get(i), "bit {i} must be zero after grow");
        }
    }

    #[test]
    fn truncate_in_place_zeroes_tail_bits() {
        let mut b = BitBuf::new();
        b.push_bits(u64::MAX, 64);
        b.truncate(3);
        // Invariant: bits beyond len in the last word are zero, so a
        // grow re-exposes zeros, and words() shows a masked last word.
        assert_eq!(b.words(), &[0b111]);
        b.grow(61);
        assert_eq!(b.read_bits(0, 64), 0b111);
    }

    #[test]
    fn eq_range_aligned_and_shifted() {
        let mut b = BitBuf::new();
        let payload = [0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210, 0x5555];
        b.grow(7); // force a shifted copy at offset 7
        for &w in &payload {
            b.push_bits(w, 64);
        }
        // Shifted compare over sub-word, word and multi-word lengths.
        for nbits in [1usize, 13, 64, 65, 100, 128, 150, 192] {
            let mut key = [0u64; 3];
            for (i, k) in key.iter_mut().enumerate() {
                if nbits > i * 64 {
                    let take = (nbits - i * 64).min(64) as u32;
                    *k = b.read_bits(7 + i * 64, take);
                }
            }
            assert!(b.eq_range(7, &key, nbits), "nbits {nbits}");
            if nbits > 0 {
                key[(nbits - 1) / 64] ^= 1 << ((nbits - 1) % 64);
                assert!(!b.eq_range(7, &key, nbits), "flip at {nbits}");
            }
        }
        // Aligned path (offset 64).
        let mut key = [b.read_bits(64, 64), b.read_bits(128, 32)];
        assert!(b.eq_range(64, &key, 96));
        key[1] ^= 1 << 31;
        assert!(!b.eq_range(64, &key, 96));
    }

    #[test]
    fn cmp_range_orders_like_integers() {
        use std::cmp::Ordering::*;
        let mut b = BitBuf::new();
        b.grow(5);
        b.push_bits(500, 10);
        b.push_bits(0xABCD_EF01_2345_6789, 64);
        // A 70-bit value (high bits zero), pushed in two pieces.
        b.push_bits(0x3FF, 64);
        b.push_bits(0, 6);
        assert_eq!(b.cmp_range(5, &[500], 10), Equal);
        assert_eq!(b.cmp_range(5, &[499], 10), Greater);
        assert_eq!(b.cmp_range(5, &[501], 10), Less);
        // Trailing key bits beyond nbits are ignored.
        assert_eq!(b.cmp_range(5, &[500 | (1 << 10)], 10), Equal);
        assert_eq!(b.cmp_range(15, &[0xABCD_EF01_2345_6789], 64), Equal);
        // Multi-word: decided by the high word first.
        assert_eq!(b.cmp_range(79, &[0x3FF, 0], 70), Equal);
        assert_eq!(b.cmp_range(79, &[0, 1], 70), Less);
        assert_eq!(b.cmp_range(79, &[u64::MAX, 0], 70), Less);
    }

    #[test]
    fn key_gather_scatter_roundtrip() {
        // Postfix-style (shift 0) and infix-style (shift > 0) fields at
        // an awkward offset, spanning several words.
        let key = [0x1A5u64, 0x0F3, 0x1FF, 0x000, 0x155];
        for shift in [0u32, 5] {
            let shifted: Vec<u64> = key.iter().map(|&v| v << shift).collect();
            for width in [1u32, 9, 37, 59] {
                let mut b = BitBuf::new();
                b.grow(3 + width as usize * key.len() + 64);
                b.write_key(3, width, shift, &shifted);
                // Each field lands at its strided offset.
                for (d, &v) in key.iter().enumerate() {
                    assert_eq!(
                        b.read_bits(3 + d * width as usize, width),
                        v & mask(width),
                        "width {width} shift {shift} dim {d}"
                    );
                }
                // Gather merges into existing high bits without clobber.
                let mut out = vec![u64::MAX; key.len()];
                b.read_key_into(3, width, shift, &mut out);
                for (d, &v) in key.iter().enumerate() {
                    let expect = !(mask(width) << shift) | ((v & mask(width)) << shift);
                    assert_eq!(out[d], expect, "width {width} shift {shift} dim {d}");
                }
            }
        }
    }

    #[test]
    fn write_key_preserves_neighbours() {
        let mut b = BitBuf::new();
        b.grow(200);
        for i in 0..200 {
            b.set(i, i % 3 == 0);
        }
        let before: Vec<bool> = (0..200).map(|i| b.get(i)).collect();
        b.write_key(70, 17, 0, &[0x1ABCD, 0x05432, 0x1FFFF]);
        for (i, &bit) in before.iter().enumerate() {
            if !(70..70 + 51).contains(&i) {
                assert_eq!(b.get(i), bit, "neighbour bit {i} clobbered");
            }
        }
        let mut out = [0u64; 3];
        b.read_key_into(70, 17, 0, &mut out);
        assert_eq!(out, [0x1ABCD, 0x05432, 0x1FFFF]);
    }

    #[test]
    fn aligned_copy_matches_generic() {
        let mut src = BitBuf::new();
        for i in 0..6u64 {
            src.push_bits(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1), 64);
        }
        for (src_off, dst_off, n) in [
            (0usize, 64usize, 256usize), // fully word-aligned
            (13, 13, 200),               // equal non-zero residue
            (13, 77, 200),               // equal residue, different words
            (70, 6, 63),                 // shorter than a word
            (1, 65, 1),
        ] {
            let mut fast = BitBuf::zeroed(512);
            fast.copy_bits_from(&src, src_off, dst_off, n);
            let mut slow = BitBuf::zeroed(512);
            let mut done = 0;
            while done < n {
                let chunk = (n - done).min(61) as u32; // odd chunk, generic path
                slow.write_bits(dst_off + done, src.read_bits(src_off + done, chunk), chunk);
                done += chunk as usize;
            }
            assert_eq!(fast, slow, "src {src_off} dst {dst_off} n {n}");
        }
    }

    #[test]
    fn copy_between_buffers() {
        let mut a = BitBuf::new();
        a.push_bits(0xDEAD_BEEF, 32);
        let mut b = BitBuf::new();
        b.grow(40);
        b.copy_bits_from(&a, 4, 7, 24);
        assert_eq!(b.read_bits(7, 24), (0xDEAD_BEEF >> 4) & 0xFF_FFFF);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let b = BitBuf::new();
        b.read_bits(0, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_out_of_bounds_panics() {
        let mut b = BitBuf::new();
        b.grow(8);
        b.write_bits(5, 0, 4);
    }

    #[test]
    fn truncate_then_reuse() {
        let mut b = BitBuf::new();
        b.push_bits(0xFF, 8);
        b.truncate(0);
        assert!(b.is_empty());
        b.push_bits(0b01, 2);
        assert_eq!(b.read_bits(0, 2), 0b01);
    }

    #[test]
    fn count_ones_ranges() {
        let mut b = BitBuf::new();
        for i in 0..200u64 {
            b.push_bits((i % 3 == 0) as u64, 1);
        }
        let expect = |off: usize, n: usize| (off..off + n).filter(|i| i % 3 == 0).count();
        for (off, n) in [(0, 200), (0, 0), (5, 64), (63, 2), (1, 130), (199, 1)] {
            assert_eq!(b.count_ones(off, n), expect(off, n), "off {off} n {n}");
        }
    }

    #[test]
    fn set_get_individual_bits() {
        let mut b = BitBuf::new();
        b.grow(130);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(62) && !b.get(65) && !b.get(128));
        b.set(63, false);
        assert!(!b.get(63));
    }
    /// The per-chunk kernels the word-level ones replaced (one
    /// `read_bits` + `write_bits` per 64-bit chunk), kept as the
    /// reference the differential tests below pin the new ones against.
    mod reference {
        use super::{BitBuf, BitRead, BitWrite};

        pub fn move_bits_right(b: &mut BitBuf, src: usize, dst: usize, n: usize) {
            let mut rem = n;
            while rem > 0 {
                let chunk = rem.min(64) as u32;
                rem -= chunk as usize;
                let v = b.read_bits(src + rem, chunk);
                b.write_bits(dst + rem, v, chunk);
            }
        }

        pub fn move_bits_left(b: &mut BitBuf, src: usize, dst: usize, n: usize) {
            let mut done = 0usize;
            while done < n {
                let chunk = (n - done).min(64) as u32;
                let v = b.read_bits(src + done, chunk);
                b.write_bits(dst + done, v, chunk);
                done += chunk as usize;
            }
        }

        pub fn zero_bits(b: &mut BitBuf, off: usize, n: usize) {
            let mut done = 0usize;
            while done < n {
                let chunk = (n - done).min(64) as u32;
                b.write_bits(off + done, 0, chunk);
                done += chunk as usize;
            }
        }
    }

    /// A bit offset biased towards word boundaries: a word index plus
    /// one of the residues where the head/tail masking can go wrong.
    fn offset_strategy() -> impl proptest::strategy::Strategy<Value = usize> {
        use proptest::prelude::*;
        (0usize..12, prop_oneof![0usize..64, 0usize..2, 62usize..64])
            .prop_map(|(word, bit)| word * 64 + bit)
    }

    mod kernel_diff {
        use super::*;
        use proptest::prelude::*;

        /// Buffer of `len` bits filled from `words` (cycled).
        fn filled(words: &[u64], len: usize) -> BitBuf {
            let mut b = BitBuf::zeroed(len);
            for i in 0..len.div_ceil(64) {
                let n = (len - i * 64).min(64) as u32;
                b.write_bits(i * 64, words[i % words.len()], n);
            }
            b
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Overlapping and disjoint moves in both directions agree
            /// with the per-chunk reference on the whole buffer (so
            /// bits outside the destination range are checked too).
            #[test]
            fn moves_match_per_chunk_reference(
                words in proptest::collection::vec(any::<u64>(), 1..8),
                a in offset_strategy(),
                b in offset_strategy(),
                n in prop_oneof![0usize..130, 0usize..700, (0usize..10).prop_map(|w| w * 64)],
                slack in offset_strategy(),
            ) {
                let (lo, hi) = (a.min(b), a.max(b));
                let base = filled(&words, hi + n + slack % 200);
                let (mut got, mut want) = (base.clone(), base.clone());
                move_bits_right(&mut got.words, lo, hi, n);
                reference::move_bits_right(&mut want, lo, hi, n);
                prop_assert_eq!(&got, &want, "right {} -> {} n {}", lo, hi, n);
                let (mut got, mut want) = (base.clone(), base);
                move_bits_left(&mut got.words, hi, lo, n);
                reference::move_bits_left(&mut want, hi, lo, n);
                prop_assert_eq!(&got, &want, "left {} -> {} n {}", hi, lo, n);
            }

            #[test]
            fn zero_matches_per_chunk_reference(
                words in proptest::collection::vec(any::<u64>(), 1..8),
                off in offset_strategy(),
                n in prop_oneof![0usize..130, 0usize..700, (0usize..10).prop_map(|w| w * 64)],
                slack in offset_strategy(),
            ) {
                let base = filled(&words, off + n + slack % 200);
                let (mut got, mut want) = (base.clone(), base);
                zero_bits(&mut got.words, off, n);
                reference::zero_bits(&mut want, off, n);
                prop_assert_eq!(&got, &want, "zero {} n {}", off, n);
            }
        }
    }
}
