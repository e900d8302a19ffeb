//! Byte-exact definition of the packed artifact format (`PHPACK01`
//! magic, format version 2).
//!
//! A packed file is a sequence of [`PAGE_SIZE`] pages:
//!
//! ```text
//! page 0              superblock (shared phstore codec, PACK_MAGIC)
//! pages 1 ..= D       data pages: node records in descent order
//! pages D+1 ..        checksum table: one [`page_sum`] u64 LE per data
//!                     page, zero-padded to whole pages
//! ```
//!
//! The superblock metadata blob ([`Meta`]) is a fixed 42-byte record;
//! its integrity is covered by the superblock checksum. Each data
//! page's checksum lives *out of line* in the table so record payloads
//! stay contiguous across page boundaries (zero-copy walks need
//! unbroken byte runs); the table region — padding included — is
//! covered by `table_crc` in the metadata. Every byte of the file is
//! therefore pinned by exactly one checksum.
//!
//! Both the table entries and `table_crc` are [`page_sum`]: four
//! independent lanes each absorbing every fourth little-endian `u64`,
//! so verifying a faulted page costs about what copying it costs (a
//! byte-serial FNV-1a took ~5 µs per page — more than the read it
//! guards). Each word enters its lane through a bijection of the lane
//! state, and the lanes and the length are folded through the same
//! bijection, so damage confined to one aligned 8-byte word — every
//! single-bit and single-byte flip — always changes the sum, the
//! guarantee FNV-1a gave per byte. The function *is* the format: its
//! golden vectors are pinned by unit tests below. Version 1 files
//! (FNV-1a sums) are refused by version, not read: a packed artifact
//! is regenerated from the store that cut it, so there is one checksum
//! and no version switch on the read path.
//!
//! A node record is addressed by a [`PackedRef`] (absolute page index +
//! in-page byte offset) and laid out as:
//!
//! ```text
//! offset  size        field
//! 0       1           post_len
//! 1       1           infix_len
//! 2       1           flags (bit 0 = HC repr, bit 1 = uniform values)
//! 3       1           reserved, 0
//! 4       4           n_subs, u32 LE
//! 8       4           n_values, u32 LE
//! 12      4           bits_len, u32 LE (bit-string length in bits)
//! 16      4           values_len, u32 LE (encoded value bytes)
//! 20      4           reserved, 0
//! 24      ...         bit string, ceil(bits_len/8) bytes (BitBuf words
//!                     little-endian, truncated — phbits::bytes order)
//! ...     values_len  values, ValueCodec, hypercube-address order
//! ...     6*n_subs    child refs (page u32 LE + off u16 LE), addr order
//! ```
//!
//! Placement rule: a record either fits entirely within one page or
//! starts at in-page offset 0 and occupies a run of consecutive pages
//! (an *extent*). Headers therefore never straddle a page boundary, and
//! a reader can size the extent after one single-page fetch.

use phstore::{Corruption, StoreError};

pub use phstore::superblock::{PACK_MAGIC, PAGE_SIZE};

/// Format version stored in the superblock metadata. Version 2 sums
/// pages with [`page_sum`]; version 1 (FNV-1a) is refused, not read.
pub const VERSION: u16 = 2;

/// What [`Meta::decode`] answers any other version with (the version
/// found rides in the error's `offset`).
const BAD_VERSION: &str = "unsupported packed format version (this build reads only version 2)";

/// Node record header size in bytes.
pub const REC_HDR: usize = 24;

/// Serialised size of a child reference.
pub const REF_BYTES: usize = 6;

/// Serialised size of the superblock metadata blob.
pub const META_LEN: usize = 42;

/// Record flag: node is in HC (full hypercube) representation.
pub const FLAG_HC: u8 = 1 << 0;

/// Record flag: all encoded values have the same byte length, so value
/// `pr` starts at `pr * (values_len / n_values)` — O(1) indexing.
pub const FLAG_UNIFORM: u8 = 1 << 1;

/// Odd multiplier of [`page_sum`]'s absorb step (2^64 / golden ratio).
const SUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distinct non-zero lane seeds (hex digits of pi), so no lane is a
/// copy of another and an all-zero input never parks a lane at zero.
const SUM_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One absorb step: xor the word in, multiply by an odd constant (so
/// low bits reach high ones), xorshift (so high bits reach low ones).
/// All three are bijections of the state, hence so is the step for any
/// fixed `word` — two states never merge, and a changed word always
/// changes the state.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    let s = (state ^ word).wrapping_mul(SUM_MUL);
    s ^ (s >> 32)
}

/// The 64-bit checksum of PHPACK version 2, over per-page table
/// entries and the table region alike.
///
/// The input is read as little-endian `u64` words (a trailing partial
/// word is zero-padded); word `i` is absorbed by lane `i % 4`, so four
/// multiplies are in flight at once instead of each waiting on the
/// last. The result folds the byte length and then the four lanes
/// through the same absorb step. Changing a single word changes
/// exactly one lane, and every later step is a bijection of that
/// lane's state: such damage is detected with certainty, not with
/// probability 1 − 2⁻⁶⁴.
pub fn page_sum(bytes: &[u8]) -> u64 {
    let mut lanes = SUM_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = absorb(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    for (lane, tail) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        *lane = absorb(*lane, u64::from_le_bytes(word));
    }
    lanes
        .into_iter()
        .fold(absorb(SUM_MUL, bytes.len() as u64), absorb)
}

/// Address of a node record: absolute page index (page 1 is the first
/// data page; 0 is the superblock and never holds a record) plus the
/// byte offset of the record header within that page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedRef {
    /// Absolute page index of the record's first (or only) page.
    pub page: u32,
    /// Byte offset of the record header within the page.
    pub off: u16,
}

impl PackedRef {
    /// Serialises the reference (page u32 LE, off u16 LE).
    pub fn encode(&self) -> [u8; REF_BYTES] {
        let mut out = [0u8; REF_BYTES];
        out[..4].copy_from_slice(&self.page.to_le_bytes());
        out[4..].copy_from_slice(&self.off.to_le_bytes());
        out
    }

    /// Deserialises a reference from exactly [`REF_BYTES`] bytes.
    pub fn decode(buf: &[u8; REF_BYTES]) -> PackedRef {
        PackedRef {
            page: u32::from_le_bytes(buf[..4].try_into().unwrap()),
            off: u16::from_le_bytes(buf[4..].try_into().unwrap()),
        }
    }
}

/// Superblock metadata of a packed artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Dimension count the artifact was packed with.
    pub k: u16,
    /// Number of entries in the tree.
    pub len: u64,
    /// Number of data pages `D`.
    pub data_pages: u64,
    /// Bytes of the data region actually holding records
    /// (`<= D * PAGE_SIZE`; the remainder of the last page is zero).
    pub data_bytes: u64,
    /// Root record, absent iff `len == 0` (encoded as page 0).
    pub root: Option<PackedRef>,
    /// [`page_sum`] over the *whole* checksum-table region, padding
    /// included.
    pub table_crc: u64,
}

impl Meta {
    /// Serialises the metadata blob (fixed [`META_LEN`] bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(META_LEN);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.data_pages.to_le_bytes());
        out.extend_from_slice(&self.data_bytes.to_le_bytes());
        let root = self.root.unwrap_or(PackedRef { page: 0, off: 0 });
        out.extend_from_slice(&root.encode());
        out.extend_from_slice(&self.table_crc.to_le_bytes());
        debug_assert_eq!(out.len(), META_LEN);
        out
    }

    /// Parses and sanity-checks a metadata blob. The caller still
    /// checks `k` against its compile-time `K` and the page accounting
    /// against the real file length.
    pub fn decode(buf: &[u8]) -> Result<Meta, StoreError> {
        if buf.len() != META_LEN {
            return Err(Corruption::new("packed metadata has wrong length")
                .at_page(0)
                .at_offset(buf.len() as u64)
                .into());
        }
        let version = u16::from_le_bytes(buf[0..2].try_into().unwrap());
        if version != VERSION {
            return Err(Corruption::new(BAD_VERSION)
                .at_page(0)
                .at_offset(version as u64)
                .into());
        }
        let k = u16::from_le_bytes(buf[2..4].try_into().unwrap());
        let len = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        let data_pages = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let data_bytes = u64::from_le_bytes(buf[20..28].try_into().unwrap());
        let root = PackedRef::decode(buf[28..34].try_into().unwrap());
        let table_crc = u64::from_le_bytes(buf[34..42].try_into().unwrap());
        let root = if root.page == 0 { None } else { Some(root) };
        // Internal consistency; file-level accounting is the caller's.
        if data_bytes > data_pages.saturating_mul(PAGE_SIZE as u64) {
            return Err(Corruption::new("data bytes exceed data pages")
                .at_page(0)
                .into());
        }
        match (len, root) {
            (0, Some(_)) => {
                return Err(Corruption::new("empty artifact with a root record")
                    .at_page(0)
                    .into())
            }
            (n, None) if n > 0 => {
                return Err(Corruption::new("non-empty artifact without a root record")
                    .at_page(0)
                    .into())
            }
            _ => {}
        }
        if let Some(r) = root {
            if (r.page as u64) > data_pages || (r.off as usize) >= PAGE_SIZE {
                return Err(Corruption::new("root record reference out of range")
                    .at_page(r.page as u64)
                    .into());
            }
        }
        Ok(Meta {
            k,
            len,
            data_pages,
            data_bytes,
            root,
            table_crc,
        })
    }
}

/// Parsed node record header (the fixed [`REC_HDR`] bytes).
#[derive(Debug, Clone, Copy)]
pub struct RecordHdr {
    /// Bits per dimension below this node's split.
    pub post_len: u8,
    /// Bits per dimension of the node's infix.
    pub infix_len: u8,
    /// Whether the node uses HC (full hypercube) representation.
    pub hc: bool,
    /// Whether all encoded values share one byte length.
    pub uniform: bool,
    /// Number of sub-node children.
    pub n_subs: u32,
    /// Number of postfix entries (values).
    pub n_values: u32,
    /// Bit-string length in bits.
    pub bits_len: u32,
    /// Encoded value bytes.
    pub values_len: u32,
}

impl RecordHdr {
    /// Serialises the header into `out[..REC_HDR]`.
    pub fn write(&self, out: &mut [u8]) {
        out[0] = self.post_len;
        out[1] = self.infix_len;
        out[2] = ((self.hc as u8) * FLAG_HC) | ((self.uniform as u8) * FLAG_UNIFORM);
        out[3] = 0;
        out[4..8].copy_from_slice(&self.n_subs.to_le_bytes());
        out[8..12].copy_from_slice(&self.n_values.to_le_bytes());
        out[12..16].copy_from_slice(&self.bits_len.to_le_bytes());
        out[16..20].copy_from_slice(&self.values_len.to_le_bytes());
        out[20..24].fill(0);
    }

    /// Parses a header from exactly [`REC_HDR`] bytes. Only field-level
    /// checks happen here; structural validation (bit-length formula,
    /// depth chaining) is the node view's job, where `K` is known.
    pub fn parse(buf: &[u8; REC_HDR]) -> Result<RecordHdr, Corruption> {
        let flags = buf[2];
        if flags & !(FLAG_HC | FLAG_UNIFORM) != 0 || buf[3] != 0 || buf[20..24] != [0u8; 4] {
            return Err(Corruption::new("unknown record flags"));
        }
        Ok(RecordHdr {
            post_len: buf[0],
            infix_len: buf[1],
            hc: flags & FLAG_HC != 0,
            uniform: flags & FLAG_UNIFORM != 0,
            n_subs: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            n_values: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            bits_len: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            values_len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
        })
    }

    /// Total record length in bytes (header + bit string + values +
    /// child references). `u64` so hostile headers cannot overflow.
    pub fn rec_len(&self) -> u64 {
        REC_HDR as u64
            + (self.bits_len as u64).div_ceil(8)
            + self.values_len as u64
            + self.n_subs as u64 * REF_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic filler for the checksum tests.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// The format is defined by `page_sum`: these values may only change
    /// together with `VERSION`. (Cross-checked against an independent
    /// implementation of the doc comment's definition.)
    #[test]
    fn page_sum_golden_vectors() {
        let ramp: Vec<u8> = (0..PAGE_SIZE).map(|i| i as u8).collect();
        assert_eq!(page_sum(&[]), 0xAFA6_F88D_CE90_E636);
        assert_eq!(page_sum(&[0u8; PAGE_SIZE]), 0x65D1_03F6_9E4D_9D7B);
        assert_eq!(page_sum(&ramp), 0x985C_D8F1_DFC1_15AC);
        assert_eq!(page_sum(&noise(3 * PAGE_SIZE, 1)), 0x522C_BD78_2588_9AE8);
        // Not a whole number of words, nor of four-word blocks.
        assert_eq!(
            page_sum(b"PHPACK version 2: word-parallel page sums"),
            0x7B60_9EBF_7460_76B2
        );
    }

    /// Word `i` goes to lane `i % 4`, a trailing partial word is
    /// zero-padded: the blocked loop against the definition, at every
    /// length around the block and word boundaries.
    #[test]
    fn page_sum_matches_its_definition_at_every_tail_length() {
        let data = noise(200, 2);
        for len in 0..=data.len() {
            let mut lanes = SUM_SEEDS;
            for (i, chunk) in data[..len].chunks(8).enumerate() {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                lanes[i % 4] = absorb(lanes[i % 4], u64::from_le_bytes(word));
            }
            let want = lanes.into_iter().fold(absorb(SUM_MUL, len as u64), absorb);
            assert_eq!(page_sum(&data[..len]), want, "length {len}");
        }
    }

    /// Damage confined to one word is detected with certainty; all
    /// 32 768 single-bit flips of a page are the cheap exhaustive case.
    #[test]
    fn every_single_bit_flip_of_a_page_changes_its_sum() {
        let mut page = noise(PAGE_SIZE, 3);
        let clean = page_sum(&page);
        for bit in 0..PAGE_SIZE * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_sum(&page), clean, "bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(page_sum(&page), clean);
    }

    #[test]
    fn page_sum_hashes_the_length() {
        for page in [vec![0u8; PAGE_SIZE], noise(PAGE_SIZE, 4)] {
            let mut longer = page.clone();
            longer.extend_from_slice(&[0u8; 8]);
            assert_ne!(page_sum(&page), page_sum(&longer));
        }
        assert_ne!(page_sum(&[]), page_sum(&[0u8; 8]));
        assert_ne!(page_sum(&[0u8; 3]), page_sum(&[0u8; 5]));
    }

    /// Writer and reader sum the same bytes: the last data page is
    /// summed with its zero padding, the table with its own.
    #[test]
    fn writer_and_reader_agree_on_a_zero_padded_last_page() {
        use crate::{pack_tree_in, CacheMode, PackedTree};
        use phstore::vfs::MemVfs;
        use std::path::Path;

        let mut live: phtree::PhTree<u64, 3> = phtree::PhTree::new();
        for i in 0..700u64 {
            live.insert([i * 7 % 512, i * 13 % 512, i * 29 % 512], i);
        }
        let vfs = MemVfs::new();
        let path = Path::new("/m/pad.phk");
        let stats = pack_tree_in(&live, &vfs, path).unwrap();
        let d = stats.data_pages as usize;
        assert!(d >= 2 && stats.data_bytes % PAGE_SIZE as u64 != 0);

        let file = vfs.read_file(path).unwrap();
        let (_, meta) = phstore::superblock::decode(PACK_MAGIC, &file[..PAGE_SIZE]).unwrap();
        let meta = Meta::decode(&meta).unwrap();
        let table = &file[(1 + d) * PAGE_SIZE..];
        assert_eq!(meta.table_crc, page_sum(table));
        let last = &file[d * PAGE_SIZE..(1 + d) * PAGE_SIZE];
        let pad = (stats.data_bytes % PAGE_SIZE as u64) as usize;
        assert!(last[pad..].iter().all(|&b| b == 0));
        assert_eq!(
            u64::from_le_bytes(table[(d - 1) * 8..d * 8].try_into().unwrap()),
            page_sum(last)
        );
        for mode in [CacheMode::Resident, CacheMode::Lru { pages: 1 }] {
            let p: PackedTree<u64, 3> = PackedTree::open_in(&vfs, path, mode).unwrap();
            assert_eq!(p.query_count(&[0; 3], &[u64::MAX; 3]).unwrap(), live.len());
        }
    }

    #[test]
    fn other_versions_are_refused_with_found_and_supported() {
        assert!(BAD_VERSION.contains(&format!("version {VERSION}")));
        let mut enc = Meta {
            k: 3,
            len: 0,
            data_pages: 0,
            data_bytes: 0,
            root: None,
            table_crc: 0,
        }
        .encode();
        for found in [0u16, 1, 3] {
            enc[..2].copy_from_slice(&found.to_le_bytes());
            match Meta::decode(&enc) {
                Err(StoreError::Corrupt(c)) => {
                    assert_eq!((c.what, c.offset), (BAD_VERSION, Some(found as u64)));
                }
                other => panic!("version {found}: {other:?}"),
            }
        }
    }

    #[test]
    fn meta_roundtrip() {
        let m = Meta {
            k: 8,
            len: 12345,
            data_pages: 77,
            data_bytes: 77 * 4096 - 100,
            root: Some(PackedRef { page: 1, off: 0 }),
            table_crc: 0xDEAD_BEEF,
        };
        let enc = m.encode();
        assert_eq!(enc.len(), META_LEN);
        assert_eq!(Meta::decode(&enc).unwrap(), m);
    }

    #[test]
    fn empty_meta_roundtrip() {
        let m = Meta {
            k: 3,
            len: 0,
            data_pages: 0,
            data_bytes: 0,
            root: None,
            table_crc: 7,
        };
        assert_eq!(Meta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn inconsistent_meta_rejected() {
        // Non-empty without a root.
        let mut m = Meta {
            k: 2,
            len: 5,
            data_pages: 1,
            data_bytes: 100,
            root: Some(PackedRef { page: 1, off: 0 }),
            table_crc: 0,
        };
        let mut enc = m.encode();
        enc[28..34].fill(0); // root -> none
        assert!(Meta::decode(&enc).is_err());
        // Empty with a root.
        m.len = 0;
        assert!(Meta::decode(&m.encode()).is_err());
        // Data bytes overflow the page count.
        m.len = 5;
        m.data_bytes = 2 * 4096;
        assert!(Meta::decode(&m.encode()).is_err());
    }

    #[test]
    fn record_header_roundtrip() {
        let h = RecordHdr {
            post_len: 17,
            infix_len: 3,
            hc: true,
            uniform: true,
            n_subs: 9,
            n_values: 1000,
            bits_len: 65537,
            values_len: 8000,
        };
        let mut buf = [0u8; REC_HDR];
        h.write(&mut buf);
        let back = RecordHdr::parse(&buf).unwrap();
        assert_eq!(back.post_len, 17);
        assert_eq!(back.infix_len, 3);
        assert!(back.hc && back.uniform);
        assert_eq!(back.n_subs, 9);
        assert_eq!(back.n_values, 1000);
        assert_eq!(back.bits_len, 65537);
        assert_eq!(back.values_len, 8000);
        assert_eq!(back.rec_len(), 24 + 65537u64.div_ceil(8) + 8000 + 9 * 6);
    }

    #[test]
    fn unknown_flags_rejected() {
        let h = RecordHdr {
            post_len: 0,
            infix_len: 0,
            hc: false,
            uniform: false,
            n_subs: 0,
            n_values: 0,
            bits_len: 0,
            values_len: 0,
        };
        let mut buf = [0u8; REC_HDR];
        h.write(&mut buf);
        buf[2] = 0x80;
        assert!(RecordHdr::parse(&buf).is_err());
        buf[2] = 0;
        buf[21] = 1;
        assert!(RecordHdr::parse(&buf).is_err());
    }
}
