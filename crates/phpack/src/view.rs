//! Zero-copy node views: the PHPACK01 record decoder, the read surface
//! of `phtree::node::Node` over borrowed page bytes. `tree.rs` builds
//! `phtree`'s node read seam on it; nothing here traverses.
//!
//! A [`NodeView`] is parsed from a record with **O(1)** work: header
//! field checks, the exact bit-length formula for the claimed
//! representation, and the parent/child depth relation. It does *not*
//! re-run the O(children) scans of the live tree's `validate_local`
//! (address sortedness, kind popcounts): the per-page checksums already
//! vouch for byte integrity, and the packer wrote the record from an
//! already-validated live node. Every accessor that turns ranks into
//! array indices still bounds-checks and reports a typed corruption
//! instead of panicking, so even a checksum-colliding file degrades to
//! an error.
//!
//! Bit offsets handed around here (`pf_off`, infix offsets) are
//! relative to the record's bit string and therefore numerically
//! identical to the live node's `BitBuf` offsets — the layout formulas
//! are shared by construction.

use crate::cache::{PageBytes, PageCache};
use crate::format::{PackedRef, RecordHdr, PAGE_SIZE, REC_HDR, REF_BYTES};
use phbits::bytes;
use phstore::{Corruption, StoreError, ValueCodec};

/// Mirror of the live tree's HC dimension limit (`node::MAX_HC_K`): a
/// packed HC node beyond it cannot have come from a valid tree.
const MAX_HC_K: usize = 22;

/// A postfix entry of a packed node: bit offset of its postfix record
/// and its dense post rank (index into the value area).
pub struct PackedPost {
    pub(crate) pf_off: usize,
    pub(crate) pr: usize,
}

/// An occupied hypercube slot, resolved to dense ranks.
pub(crate) enum PSlot {
    /// Postfix entry.
    Post(PackedPost),
    /// Sub-node: dense sub rank (index into the child-ref array).
    Sub { sr: usize },
}

/// A parsed, validated node record over borrowed page bytes.
#[derive(Clone)]
pub(crate) struct NodeView<'c, const K: usize> {
    bytes: PageBytes<'c>,
    /// Record start within `bytes`.
    base: usize,
    pub post_len: u8,
    pub infix_len: u8,
    pub hc: bool,
    uniform: bool,
    pub n_subs: u32,
    pub n_values: u32,
    values_len: u32,
    /// Byte offsets within `bytes`.
    bits_off: usize,
    values_off: usize,
    children_off: usize,
    /// Error context.
    page: u32,
}

impl<'c, const K: usize> NodeView<'c, K> {
    /// Fetches and parses the record at `r`. `parent_post_len` is
    /// `None` for the root (which must split at the top bit with no
    /// infix) and `Some(p)` for a child of a node with `post_len == p`
    /// (depth chaining: `post_len + infix_len + 1 == p`).
    pub fn fetch(
        cache: &'c dyn PageCache,
        r: PackedRef,
        parent_post_len: Option<u8>,
    ) -> Result<NodeView<'c, K>, StoreError> {
        let ctx = |what| {
            Corruption::new(what)
                .at_page(r.page as u64)
                .at_offset(r.off as u64)
        };
        let off = r.off as usize;
        if off + REC_HDR > PAGE_SIZE {
            return Err(ctx("record header out of page").into());
        }
        let page = cache.extent(r.page, 1)?;
        let hdr = RecordHdr::parse(page[off..off + REC_HDR].try_into().unwrap())
            .map_err(|c| c.at_page(r.page as u64).at_offset(r.off as u64))?;

        // O(1) structural validation, mirroring `Node::validate_local`'s
        // arithmetic checks (the scans are covered by checksums).
        if hdr.post_len >= 64 || hdr.post_len as u32 + hdr.infix_len as u32 >= 64 {
            return Err(ctx("split/infix bits exceed key width").into());
        }
        match parent_post_len {
            None => {
                if hdr.post_len != 63 || hdr.infix_len != 0 {
                    return Err(ctx("root must split at the top bit with no infix").into());
                }
            }
            Some(p) => {
                if hdr.post_len as u32 + hdr.infix_len as u32 + 1 != p as u32 {
                    return Err(ctx("child depth arithmetic broken").into());
                }
                if (hdr.n_subs as u64 + hdr.n_values as u64) < 2 {
                    return Err(ctx("sub-node with fewer than 2 children").into());
                }
            }
        }
        let ib = hdr.infix_len as u64 * K as u64;
        let pb = hdr.post_len as u64 * K as u64;
        let n = hdr.n_subs as u64 + hdr.n_values as u64;
        let want_bits = if hdr.hc {
            if K > MAX_HC_K {
                return Err(ctx("HC representation beyond dimension limit").into());
            }
            ib + (1u64 << K) * (2 + pb)
        } else {
            ib + n * (K as u64 + 1) + hdr.n_values as u64 * pb
        };
        if want_bits != hdr.bits_len as u64 {
            return Err(ctx("bit-string length mismatch").into());
        }
        if hdr.uniform && hdr.n_values > 0 && hdr.values_len % hdr.n_values != 0 {
            return Err(ctx("uniform value stride does not divide value bytes").into());
        }

        let rec_len = hdr.rec_len();
        let (bytes, base) = if off as u64 + rec_len <= PAGE_SIZE as u64 {
            (page, off)
        } else {
            if off != 0 {
                return Err(ctx("multi-page record not extent-aligned").into());
            }
            let count = rec_len.div_ceil(PAGE_SIZE as u64);
            if r.page as u64 - 1 + count > cache.data_pages() as u64 {
                return Err(ctx("record extent past end of data").into());
            }
            (cache.extent(r.page, count as u32)?, 0)
        };
        let rec_len = rec_len as usize;
        let bits_off = base + REC_HDR;
        let values_off = bits_off + (hdr.bits_len as usize).div_ceil(8);
        let children_off = values_off + hdr.values_len as usize;
        debug_assert_eq!(
            children_off + hdr.n_subs as usize * REF_BYTES,
            base + rec_len
        );
        debug_assert!(base + rec_len <= bytes.len());
        Ok(NodeView {
            bytes,
            base,
            post_len: hdr.post_len,
            infix_len: hdr.infix_len,
            hc: hdr.hc,
            uniform: hdr.uniform,
            n_subs: hdr.n_subs,
            n_values: hdr.n_values,
            values_len: hdr.values_len,
            bits_off,
            values_off,
            children_off,
            page: r.page,
        })
    }

    #[inline]
    fn err(&self, what: &'static str) -> StoreError {
        Corruption::new(what)
            .at_page(self.page as u64)
            .at_offset((self.base % PAGE_SIZE) as u64)
            .into()
    }

    /// The record's bit string (same bit offsets as the live `BitBuf`).
    #[inline]
    pub fn bits(&self) -> &[u8] {
        &self.bytes[self.bits_off..self.values_off]
    }

    #[inline]
    pub fn n_children(&self) -> usize {
        self.n_subs as usize + self.n_values as usize
    }

    #[inline]
    fn infix_bits(&self) -> usize {
        self.infix_len as usize * K
    }

    #[inline]
    pub fn post_bits(&self) -> usize {
        self.post_len as usize * K
    }

    // ------------------------------------------------------ infix/postfix

    #[inline]
    pub fn infix_matches(&self, key: &[u64; K]) -> bool {
        let il = self.infix_len as u32;
        il == 0 || bytes::eq_key(self.bits(), 0, il, self.post_len as u32 + 1, key)
    }

    #[inline]
    pub fn read_infix_into(&self, key: &mut [u64; K]) {
        let il = self.infix_len as u32;
        if il != 0 {
            bytes::read_key_into(self.bits(), 0, il, self.post_len as u32 + 1, key);
        }
    }

    #[inline]
    pub fn postfix_matches(&self, pf_off: usize, key: &[u64; K]) -> bool {
        self.post_len == 0 || bytes::eq_key(self.bits(), pf_off, self.post_len as u32, 0, key)
    }

    // --------------------------------------------------------- HC layout

    #[inline]
    fn hc_kind(&self, h: u64) -> u64 {
        bytes::read_bits(self.bits(), self.infix_bits() + 2 * h as usize, 2)
    }

    #[inline]
    fn hc_pf_base(&self) -> usize {
        self.infix_bits() + 2 * (1usize << K)
    }

    /// `(post_rank, sub_rank)` below slot `h` (word-chunked popcounts,
    /// identical to the live node's `hc_ranks`).
    fn hc_ranks(&self, h: u64) -> (usize, usize) {
        let bits = self.bits();
        let base = self.infix_bits();
        let nbits = 2 * h as usize;
        let (mut posts, mut subs, mut done) = (0usize, 0usize, 0usize);
        while done < nbits {
            let chunk = (nbits - done).min(64) as u32;
            let w = bytes::read_bits(bits, base + done, chunk);
            posts += (w & 0x5555_5555_5555_5555).count_ones() as usize;
            subs += (w & 0xAAAA_AAAA_AAAA_AAAA).count_ones() as usize;
            done += chunk as usize;
        }
        (posts, subs)
    }

    // -------------------------------------------------------- LHC layout

    #[inline]
    fn lhc_addr_at(&self, j: usize) -> u64 {
        bytes::read_bits(self.bits(), self.infix_bits() + j * K, K as u32)
    }

    #[inline]
    fn lhc_is_sub(&self, j: usize) -> bool {
        let n = self.n_children();
        bytes::read_bits(self.bits(), self.infix_bits() + n * K + j, 1) != 0
    }

    #[inline]
    pub fn lhc_pf_base(&self) -> usize {
        self.infix_bits() + self.n_children() * (K + 1)
    }

    /// Dense post rank of LHC child `j` (one popcount): where an
    /// incremental scan from `j` starts counting.
    pub fn lhc_post_rank(&self, j: usize) -> usize {
        let n = self.n_children();
        j - bytes::count_ones(self.bits(), self.infix_bits() + n * K, j)
    }

    /// Binary search for address `h` (same contract as the live
    /// `lhc_search`).
    fn lhc_search(&self, h: u64) -> Result<usize, usize> {
        use std::cmp::Ordering;
        let bits = self.bits();
        let ib = self.infix_bits();
        let key = [h];
        let (mut lo, mut hi) = (0usize, self.n_children());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match bytes::cmp_range(bits, ib + mid * K, &key, K) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Index of the first LHC child with address `>= h`.
    pub fn lhc_lower_bound(&self, h: u64) -> usize {
        if h == 0 {
            return 0; // scans of a whole node start here
        }
        match self.lhc_search(h) {
            Ok(j) | Err(j) => j,
        }
    }

    /// LHC child `j` with its dense post rank `pr` tracked by the
    /// caller.
    pub fn lhc_at_ranked(&self, j: usize, pr: usize) -> (u64, PSlot) {
        let addr = self.lhc_addr_at(j);
        let slot = if self.lhc_is_sub(j) {
            PSlot::Sub { sr: j - pr }
        } else {
            PSlot::Post(PackedPost {
                pf_off: self.lhc_pf_base() + pr * self.post_bits(),
                pr,
            })
        };
        (addr, slot)
    }

    // -------------------------------------------------------- slot lookup

    /// Looks up the slot for address `h` (the packed `get_slot`).
    pub fn get_slot(&self, h: u64) -> Result<Option<PSlot>, StoreError> {
        if self.hc {
            match self.hc_kind(h) {
                0 => Ok(None),
                1 => {
                    let (pr, _) = self.hc_ranks(h);
                    Ok(Some(PSlot::Post(PackedPost {
                        pf_off: self.hc_pf_base() + h as usize * self.post_bits(),
                        pr,
                    })))
                }
                2 => {
                    let (_, sr) = self.hc_ranks(h);
                    Ok(Some(PSlot::Sub { sr }))
                }
                _ => Err(self.err("invalid HC slot kind")),
            }
        } else {
            match self.lhc_search(h) {
                Ok(j) => Ok(Some(self.lhc_at_ranked(j, self.lhc_post_rank(j)).1)),
                Err(_) => Ok(None),
            }
        }
    }

    /// Visits every occupied slot in address order (the packed
    /// `iter_slots`), stopping at the first callback error.
    pub fn visit_slots(
        &self,
        mut f: impl FnMut(u64, PSlot) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        if self.hc {
            let (mut pr, mut sr) = (0usize, 0usize);
            let pf_base = self.hc_pf_base();
            let pb = self.post_bits();
            for h in 0..(1u64 << K) {
                match self.hc_kind(h) {
                    0 => {}
                    1 => {
                        f(
                            h,
                            PSlot::Post(PackedPost {
                                pf_off: pf_base + h as usize * pb,
                                pr,
                            }),
                        )?;
                        pr += 1;
                    }
                    2 => {
                        f(h, PSlot::Sub { sr })?;
                        sr += 1;
                    }
                    _ => return Err(self.err("invalid HC slot kind")),
                }
            }
        } else {
            let mut pr = 0usize;
            for j in 0..self.n_children() {
                let (h, slot) = self.lhc_at_ranked(j, pr);
                pr += matches!(slot, PSlot::Post(_)) as usize;
                f(h, slot)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------- children & values

    /// Reference of the sub-node with dense sub rank `sr`.
    pub fn child_ref(&self, sr: usize) -> Result<PackedRef, StoreError> {
        if sr >= self.n_subs as usize {
            return Err(self.err("sub rank out of range"));
        }
        let at = self.children_off + sr * REF_BYTES;
        let r = PackedRef::decode(self.bytes[at..at + REF_BYTES].try_into().unwrap());
        if r.page == 0 || r.off as usize >= PAGE_SIZE {
            return Err(self.err("child reference out of range"));
        }
        Ok(r)
    }

    /// Decodes the value with dense post rank `pr`. O(1) for uniform
    /// (fixed-width) value encodings, O(pr) skip-decode otherwise.
    pub fn value_at<V: ValueCodec>(&self, pr: usize) -> Result<V, StoreError> {
        if pr >= self.n_values as usize {
            return Err(self.err("post rank out of range"));
        }
        let region = &self.bytes[self.values_off..self.children_off];
        if self.uniform {
            let stride = self.values_len as usize / self.n_values as usize;
            let (v, used) =
                V::decode(&region[pr * stride..]).ok_or_else(|| self.err("undecodable value"))?;
            if used > stride {
                return Err(self.err("value overruns its uniform stride"));
            }
            Ok(v)
        } else {
            let mut at = 0usize;
            for _ in 0..pr {
                let (_, used) =
                    V::decode(&region[at..]).ok_or_else(|| self.err("undecodable value"))?;
                at += used;
            }
            let (v, _) = V::decode(&region[at..]).ok_or_else(|| self.err("undecodable value"))?;
            Ok(v)
        }
    }

    /// Raw bit-string bytes and length in bits (for unpacking back into
    /// a live tree).
    pub fn bits_raw(&self) -> (&[u8], usize) {
        let nbits = if self.hc {
            self.infix_bits() + (1usize << K) * (2 + self.post_bits())
        } else {
            self.infix_bits()
                + self.n_children() * (K + 1)
                + self.n_values as usize * self.post_bits()
        };
        (self.bits(), nbits)
    }
}
