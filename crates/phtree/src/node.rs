//! PH-tree nodes: hypercube child addressing, adaptive HC/LHC
//! representation and per-node bit-stream storage.
//!
//! Every node splits the space in all `K` dimensions at one bit position
//! (its *split bit*, `post_len`). A child is addressed by the `K`-bit
//! hypercube address formed from bit `post_len` of each dimension. Below
//! the split, a child is either a **postfix entry** (the remaining
//! `post_len` bits per dimension plus a user value) or a **sub-node**.
//!
//! Following the paper's Sect. 3.4, almost everything a node stores
//! lives in a *single packed bit string*:
//!
//! * **LHC** (linear hypercube, sparse nodes):
//!   `[infix | sorted addresses: n·K bits | kind bits: n | postfixes]`
//!   — lookup by binary search over the packed address fields.
//! * **HC** (full hypercube, dense nodes):
//!   `[infix | 2-bit slot kinds: 2·2^K bits | postfixes at fixed
//!   stride]` — O(1) lookup, no bit shifting on update.
//!
//! Nothing is outside the block: the things that cannot be bits — the
//! child nodes (handles, in address order) and the user values
//! (likewise; zero-sized value types occupy no bytes at all) — follow
//! the bit string's words in the *same* heap allocation
//! ([`crate::block`]: `[header | words | child handles | values]`), so
//! a node costs one 24-byte header, one allocation and one run of
//! cache lines. The block grows by an eighth when an edit outgrows it;
//! a shrink pass ([`Node::shrink_subtree`]) releases the slack, and
//! bulk construction ([`Node::from_children`]) allocates at exact final
//! size up front.
//! Dense ranks ("how many postfix entries precede address h") are
//! answered by word-wise popcounts over the packed kind bits.
//!
//! The representation is chosen per node by comparing the exact bit
//! cost of both forms — `n·(k+1) + n_post·post_bits` for LHC versus
//! `2^k·(2 + post_bits)` for HC — recomputed on every structural
//! update, mirroring the paper's size comparison.
//!
//! # Paged LHC
//!
//! An LHC update shifts on average half the bit string, which at high
//! `K` grows to thousands of ~130-byte postfixes in one node. So an LHC
//! node whose child table outgrows one page ([`PAGE_BYTES`]) is stored
//! as a one-level B+-tree instead, the **paged** form:
//!
//! * the *outer* node keeps
//!   `[infix | children: 32 bits | postfix entries: 32 bits | fence
//!   addresses: S·K bits]` in `bits`, holds no values, and its `subs`
//!   are the `S ≥ 2` *segments* in address order;
//! * a **segment** is an ordinary LHC node in its own block, with
//!   the outer node's `post_len` and `infix_len = 0`, holding a
//!   contiguous, non-empty run of the children (their values and
//!   sub-nodes included). Fence `i` is the first address of segment
//!   `i`; the two counters are the totals over all segments, so the
//!   HC/LHC size comparison stays O(1).
//!
//! An update resolves its segment by binary search over the fences and
//! shifts only that segment; a path copy under a snapshot copies that
//! one segment. After a structural update the touched segment is
//! rebalanced:
//!
//! * **split** — longer than one page, it is cut into two halves of
//!   equal bit size;
//! * **merge** — shorter than a quarter page, it is appended to (or
//!   prepended by) its smaller neighbour, and the result split again if
//!   that overflows the page;
//! * **unpage** — when a merge leaves one segment, the node goes back
//!   to plain LHC.
//!
//! A node is paged when an update leaves its plain LHC child table
//! longer than a page, when bulk construction or decoding produces such
//! a table, or when an oversized HC node falls back to LHC. Every
//! segment therefore stays between a quarter page and one page (plus
//! one entry), which is what bounds the cost of an update.
//!
//! **The logical form is canonical, the paging is not.** A node's
//! *logical* content — representation (HC or LHC) and the one LHC bit
//! string the segments concatenate to — is a pure function of the
//! entries below it, exactly as before; [`Node::logical_bits`] yields
//! it, serialisation ([`crate::raw`]) writes it and decoding re-pages
//! it, so stored bytes never show paging. Where the segment boundaries
//! fall depends on the order of updates.

use crate::block::{Meta, Repr};
pub(crate) use crate::block::{Node, NodePtr};
use crate::config::ReprMode;
use phbits::{hc, BitBuf, BitRead, BitWrite};
use std::borrow::Cow;

/// Bits per dimension; the paper's `w`. Fixed to 64 in this
/// implementation (the experiments all use 64-bit values).
pub const W: u32 = 64;

/// Largest `K` for which a node may materialise a full `2^K` hypercube
/// kind table. Beyond this the size comparison would overflow; such
/// nodes always stay in LHC form.
const MAX_HC_K: usize = 22;

/// Page size of a paged LHC node: the child-table length beyond which
/// an LHC node is cut into segments, and the most a segment holds
/// before it splits. Picked from the sweep recorded in EXPERIMENTS.md
/// ("Page size of paged LHC nodes").
pub(crate) const PAGE_BYTES: usize = 4096;
const PAGE_BITS: usize = PAGE_BYTES * 8;

/// Width of each of the two child counters a paged node keeps after its
/// infix.
const COUNT_BITS: usize = 32;

// A segment under a quarter page merges with a neighbour. For that rule
// to keep every segment non-empty, a quarter page must hold the largest
// possible entry (K = 64 address, kind bit, 63-bit postfix per
// dimension).
const _: () = assert!(PAGE_BITS / 4 > 64 + 1 + 63 * 64);

/// HC slot kind codes (2 bits each in the kind table).
const KIND_EMPTY: u64 = 0;
const KIND_POST: u64 = 1;
const KIND_SUB: u64 = 2;

/// A child extracted from a node (used when merging one-child nodes).
pub(crate) enum Child<V, const K: usize> {
    /// A postfix entry's value (the postfix bits live in the node).
    Post(V),
    /// A sub-node.
    Sub(Node<V, K>),
}

/// Result of probing a slot for a key, carrying only owned data so the
/// caller is free to mutate the node afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe<const K: usize> {
    /// The slot is empty.
    Empty,
    /// The slot holds the postfix entry of exactly the probed key.
    Same,
    /// The slot holds the postfix entry of another key: the probed key
    /// with its low `post_len` bits replaced by the stored postfix.
    Other([u64; K]),
    /// The slot holds a sub-node.
    Sub,
}

/// Read-only view of an occupied hypercube slot.
pub(crate) enum SlotRef<'a, V, const K: usize> {
    /// A postfix entry: the node whose bit string holds its postfix
    /// record (the probed node itself, or one of its segments), the bit
    /// offset of the record in that buffer, and the value.
    Post {
        seg: &'a Node<V, K>,
        pf_off: usize,
        value: &'a V,
    },
    /// A sub-node.
    Sub(&'a Node<V, K>),
}

/// A finished child handed to [`Node::from_children`] during bottom-up
/// bulk construction.
pub(crate) enum BulkChild<V, const K: usize> {
    /// A postfix entry: the full key (the node extracts the low
    /// `post_len` bits) and its value.
    Post { key: [u64; K], value: V },
    /// An already-built sub-node.
    Sub(Node<V, K>),
}

impl<V, const K: usize> BulkChild<V, K> {
    /// Bits this child takes in an LHC child table.
    fn lhc_bits(&self, post_bits: usize) -> usize {
        match self {
            BulkChild::Post { .. } => K + 1 + post_bits,
            BulkChild::Sub(_) => K + 1,
        }
    }
}

/// A node reads and edits its bit string — the words region of its
/// block — with the kernels of [`phbits`].
impl<V, const K: usize> BitRead for Node<V, K> {
    #[inline]
    fn words(&self) -> &[u64] {
        Node::words(self)
    }

    #[inline]
    fn len(&self) -> usize {
        self.bits_len()
    }
}

impl<V, const K: usize> BitWrite for Node<V, K> {
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        Node::words_mut(self)
    }
}

impl<V, const K: usize> Node<V, K> {
    /// Reassembles a node from serialised parts (see [`crate::raw`]):
    /// its *logical* form, HC or one LHC bit string, which is paged
    /// here if it is long enough. Performs consistency checks; returns
    /// a description of the first violated invariant on mismatch —
    /// corrupt input must surface as an error, never a panic, so
    /// storage layers can map it into their own corruption reporting.
    pub fn from_parts(
        post_len: u8,
        infix_len: u8,
        hc: bool,
        bits: &BitBuf,
        subs: Vec<NodePtr<V, K>>,
        vals: Vec<V>,
    ) -> Result<Self, &'static str> {
        let meta = Meta::new(post_len, infix_len, if hc { Repr::Hc } else { Repr::Lhc });
        let mut n = Self::zeroed(meta, bits.len(), subs.len(), vals.len());
        n.words_mut().copy_from_slice(bits.words());
        subs.into_iter().for_each(|sub| n.push_sub(sub));
        vals.into_iter().for_each(|value| n.push_val(value));
        n.validate_local()?;
        n.page_if_oversized();
        Ok(n)
    }

    /// A node with a bit string of `bits` zero bits and no children yet,
    /// in a block of exactly the size it takes with `subs` sub-nodes
    /// and `vals` values.
    fn zeroed(meta: Meta, bits: usize, subs: usize, vals: usize) -> Self {
        let mut n = Node::with_capacity(meta, bits, subs, vals);
        n.bits_resize(bits);
        n
    }

    /// Replaces the bit string.
    fn set_bits(&mut self, bits: &BitBuf) {
        self.bits_resize(bits.len());
        self.words_mut().copy_from_slice(bits.words());
    }

    /// Opens zero gaps in the bit string ([`BitBuf::insert_gaps`]).
    fn insert_gaps(&mut self, gaps: &[(usize, usize)]) {
        let old_len = self.bits_len();
        self.bits_resize(old_len + gaps.iter().map(|&(_, g)| g).sum::<usize>());
        self.open_gaps(gaps, old_len);
    }

    /// Cuts ranges out of the bit string ([`BitBuf::remove_ranges`]).
    fn remove_ranges(&mut self, ranges: &[(usize, usize)]) {
        let new_len = self.close_ranges(ranges);
        self.bits_resize(new_len);
    }

    /// Appends a sub-node (or segment) behind the last.
    fn push_sub(&mut self, sub: impl Into<NodePtr<V, K>>) {
        self.subs_insert(self.subs().len(), sub.into());
    }

    /// Appends a value behind the last.
    fn push_val(&mut self, value: V) {
        self.vals_insert(self.values().len(), value);
    }

    /// Moves all sub-nodes out, in order: from the back, so nothing
    /// slides — take the values first where there are both.
    fn take_subs(&mut self) -> Vec<NodePtr<V, K>> {
        let back_to_front = (0..self.subs().len()).rev();
        let mut subs: Vec<_> = back_to_front.map(|i| self.subs_remove(i)).collect();
        subs.reverse();
        subs
    }

    /// Moves all values out, in order.
    fn take_vals(&mut self) -> Vec<V> {
        let back_to_front = (0..self.values().len()).rev();
        let mut vals: Vec<_> = back_to_front.map(|i| self.vals_remove(i)).collect();
        vals.reverse();
        vals
    }

    /// Checks every *local* structural invariant of this node (plus the
    /// depth/arity relation to its direct children): split/infix bit
    /// budgets, the exact bit-string length for the claimed
    /// representation, slot-kind codes, kind/count agreement, LHC
    /// address ordering and range, child depth chaining, and for a
    /// paged node its segments, fences and counters.
    ///
    /// This is the decode-side validation shared by [`Node::from_parts`]
    /// and [`Node::check_invariants`]; it must reject hostile bytes with
    /// an `Err`, never panic. Indexing into `bits` is safe here because
    /// the bit-length check runs before any kind/address reads.
    pub fn validate_local(&self) -> Result<(), &'static str> {
        if self.post_len as u32 >= W || self.post_len as u32 + (self.infix_len as u32) >= W {
            return Err("split/infix bits exceed key width");
        }
        let n = self.local_children();
        let posts = self.values().len();
        let ib = self.infix_bits();
        // Bit-length formula must hold for the claimed representation
        // before anything below reads kinds or addresses out of `bits`.
        match self.repr {
            Repr::Hc => {
                if K > MAX_HC_K {
                    return Err("HC representation beyond dimension limit");
                }
                if self.bits_len() != ib + (1usize << K) * (2 + self.post_bits()) {
                    return Err("HC bit-string length mismatch");
                }
                let mut seen_posts = 0;
                let mut seen_subs = 0;
                for h in 0..(1u64 << K) {
                    match self.hc_kind(h) {
                        KIND_EMPTY => {}
                        KIND_POST => seen_posts += 1,
                        KIND_SUB => seen_subs += 1,
                        _ => return Err("invalid HC slot kind"),
                    }
                }
                if seen_posts != posts || seen_subs != self.subs().len() {
                    return Err("HC kind table disagrees with child counts");
                }
            }
            Repr::Lhc => {
                if self.bits_len() != ib + n * (K + 1) + posts * self.post_bits() {
                    return Err("LHC bit-string length mismatch");
                }
                // Single pass: each address is read once and compared against
                // the previous one, and kind bits are counted in one
                // word-chunked popcount over the packed kind run.
                let mut prev = 0u64;
                for j in 0..n {
                    let addr = self.read_bits(ib + j * K, K as u32);
                    if j > 0 && prev >= addr {
                        return Err("LHC addresses not sorted/unique");
                    }
                    if K < 64 && addr >= (1u64 << K) {
                        return Err("LHC address out of range");
                    }
                    prev = addr;
                }
                if self.count_ones(ib + n * K, n) != self.subs().len() {
                    return Err("LHC kind bits disagree with child counts");
                }
            }
            // The segments check their own children below them.
            Repr::Paged => return self.validate_paged(),
        }
        for sub in self.subs().iter() {
            if sub.post_len as u32 + sub.infix_len as u32 + 1 != self.post_len as u32 {
                return Err("child depth arithmetic broken");
            }
            if sub.n_children() < 2 {
                return Err("sub-node with fewer than 2 children");
            }
        }
        Ok(())
    }

    /// [`Node::validate_local`] for the paged form: every segment is a
    /// valid non-empty infix-less LHC node at this node's split bit,
    /// fence `i` is exactly segment `i`'s first address, addresses
    /// ascend across segment boundaries, and the counters are the
    /// totals. Segment *sizes* are not checked: they bound update cost,
    /// not correctness.
    fn validate_paged(&self) -> Result<(), &'static str> {
        if self.subs().len() < 2 {
            return Err("paged node with fewer than 2 segments");
        }
        if !self.values().is_empty() {
            return Err("paged node holds values outside its segments");
        }
        if self.bits_len() != self.fence_off(self.subs().len()) {
            return Err("paged bit-string length mismatch");
        }
        let (mut n, mut posts) = (0, 0);
        let mut last = None;
        for (i, seg) in self.subs().iter().enumerate() {
            if seg.repr != Repr::Lhc || seg.infix_len != 0 || seg.post_len != self.post_len {
                return Err("paged segment is not an infix-less LHC node at the split bit");
            }
            seg.validate_local()?;
            if seg.local_children() == 0 {
                return Err("empty paged segment");
            }
            let first = seg.lhc_addr_at(0);
            if self.fence(i) != first {
                return Err("fence disagrees with its segment's first address");
            }
            if last.is_some_and(|l| l >= first) {
                return Err("paged segments overlap or are out of order");
            }
            last = Some(seg.lhc_addr_at(seg.local_children() - 1));
            n += seg.local_children();
            posts += seg.values().len();
        }
        if (self.n_children(), self.n_posts()) != (n, posts) {
            return Err("paged child counters disagree with the segments");
        }
        Ok(())
    }

    /// Creates an empty (LHC) node. `infix_len` bits per dimension of
    /// `key` (bits `post_len+1 ..= post_len+infix_len`) are recorded as
    /// the node's infix.
    pub fn new(post_len: u8, infix_len: u8, key: &[u64; K]) -> Self {
        debug_assert!((post_len as u32) < W);
        debug_assert!(post_len as u32 + (infix_len as u32) < W);
        let meta = Meta::new(post_len, infix_len, Repr::Lhc);
        // Room for the two postfix entries a new node most often gets,
        // so building it is one allocation.
        let ib = infix_len as usize * K;
        let two_posts = 2 * (K + 1 + post_len as usize * K);
        let mut n = Node::with_capacity(meta, ib + two_posts, 0, 2);
        n.bits_resize(ib);
        n.write_infix(key);
        n
    }

    /// Builds a node in one shot from its final set of children
    /// (bottom-up bulk construction).
    ///
    /// `children` must be sorted by hypercube address with no
    /// duplicates. The representation is chosen **once** from the final
    /// child counts (the same cost comparison
    /// [`Node::maybe_switch_repr`] applies incrementally), and the node's
    /// block is allocated once at exact final size — no per-child
    /// reallocation, no capacity slack, and no HC⇄LHC
    /// flip-flopping on the way up; an LHC table longer than a page is
    /// emitted as segments directly. The result is logically identical
    /// to the node sequential insertion would converge to, because the
    /// representation and logical layout are pure functions of the
    /// contents.
    pub(crate) fn from_children(
        post_len: u8,
        infix_len: u8,
        key: &[u64; K],
        children: Vec<(u64, BulkChild<V, K>)>,
        mode: ReprMode,
    ) -> Self {
        debug_assert!(children.windows(2).all(|w| w[0].0 < w[1].0));
        let n = children.len();
        let posts = children
            .iter()
            .filter(|(_, c)| matches!(c, BulkChild::Post { .. }))
            .count();
        let ib = infix_len as usize * K;
        let pb = post_len as usize * K;
        let lhc_cost = n * (K + 1) + posts * pb;
        let hc_cost = if K > MAX_HC_K {
            usize::MAX
        } else {
            (1usize << K) * (2 + pb)
        };
        let hc = match mode {
            ReprMode::ForceLhc => false,
            ReprMode::ForceHc => K <= MAX_HC_K,
            ReprMode::Adaptive => hc_cost < lhc_cost,
        };
        if !hc && lhc_cost <= PAGE_BITS {
            return Self::lhc_from_children(post_len, infix_len, key, children, posts);
        }
        if !hc {
            // Cut the sorted children into pages of equal bit size.
            let pages = lhc_cost.div_ceil(PAGE_BITS);
            let mut segs = Vec::with_capacity(pages);
            let mut rest = children.into_iter().peekable();
            let mut done_bits = 0;
            for page in 1..=pages {
                let mut chunk = Vec::new();
                let mut chunk_posts = 0;
                while let Some((_, c)) = rest.peek() {
                    if page < pages && !chunk.is_empty() && done_bits >= lhc_cost * page / pages {
                        break;
                    }
                    done_bits += c.lhc_bits(pb);
                    chunk_posts += matches!(c, BulkChild::Post { .. }) as usize;
                    chunk.extend(rest.next());
                }
                segs.push(Self::lhc_from_children(
                    post_len,
                    0,
                    key,
                    chunk,
                    chunk_posts,
                ));
            }
            let mut node = Self::zeroed(Meta::new(post_len, infix_len, Repr::Lhc), ib, 0, 0);
            node.write_infix(key);
            node.install_segments(segs, n, posts);
            return node;
        }
        let meta = Meta::new(post_len, infix_len, Repr::Hc);
        let mut node = Self::zeroed(meta, ib + hc_cost, n - posts, posts);
        node.write_infix(key);
        let pf_base = node.hc_pf_base();
        for (h, child) in &children {
            let kind_off = node.hc_kind_off(*h);
            match child {
                BulkChild::Post { key, .. } => {
                    node.write_bits(kind_off, KIND_POST, 2);
                    node.write_postfix_at(pf_base + *h as usize * pb, key);
                }
                BulkChild::Sub(_) => node.write_bits(kind_off, KIND_SUB, 2),
            }
        }
        node.adopt(children, posts);
        node
    }

    /// [`Node::from_children`] for a plain LHC node (or one segment of
    /// a paged one), `posts` of whose `children` are postfix entries.
    fn lhc_from_children(
        post_len: u8,
        infix_len: u8,
        key: &[u64; K],
        children: Vec<(u64, BulkChild<V, K>)>,
        posts: usize,
    ) -> Self {
        let n = children.len();
        let ib = infix_len as usize * K;
        let pb = post_len as usize * K;
        let bits = ib + n * (K + 1) + posts * pb;
        let meta = Meta::new(post_len, infix_len, Repr::Lhc);
        let mut node = Self::zeroed(meta, bits, n - posts, posts);
        node.write_infix(key);
        let mut pf = ib + n * (K + 1);
        for (j, (h, child)) in children.iter().enumerate() {
            node.write_bits(ib + j * K, *h, K as u32);
            match child {
                BulkChild::Post { key, .. } => {
                    node.write_postfix_at(pf, key);
                    pf += pb;
                }
                BulkChild::Sub(_) => node.set(ib + n * K + j, true),
            }
        }
        node.adopt(children, posts);
        node
    }

    /// Moves `children`, `posts` of them postfix entries, into a node
    /// sized for them whose bits already describe them.
    fn adopt(&mut self, children: Vec<(u64, BulkChild<V, K>)>, posts: usize) {
        // A child handle pushed behind values has to move them all, so
        // while sub-nodes may still follow, values wait in `late`.
        let mixed = posts > 0 && posts < children.len();
        let mut late = Vec::with_capacity(if mixed { posts } else { 0 });
        for (_, child) in children {
            match child {
                BulkChild::Post { value, .. } if mixed => late.push(value),
                BulkChild::Post { value, .. } => self.push_val(value),
                BulkChild::Sub(sub) => self.push_sub(sub),
            }
        }
        late.into_iter().for_each(|value| self.push_val(value));
    }

    #[inline]
    pub fn infix_bits(&self) -> usize {
        self.infix_len as usize * K
    }

    #[inline]
    pub fn post_bits(&self) -> usize {
        self.post_len as usize * K
    }

    /// Children stored in this node's own `bits`/`subs`/`values` — all
    /// of them for an LHC or HC node and for a segment. Not meaningful
    /// on a paged node, whose `subs` are segments.
    #[inline]
    fn local_children(&self) -> usize {
        self.values().len() + self.subs().len()
    }

    /// Number of locally stored entries (postfixes).
    #[inline]
    pub fn n_posts(&self) -> usize {
        match self.repr {
            Repr::Paged => {
                let off = self.infix_bits() + COUNT_BITS;
                self.read_bits(off, COUNT_BITS as u32) as usize
            }
            _ => self.values().len(),
        }
    }

    /// Number of occupied hypercube slots.
    #[inline]
    pub fn n_children(&self) -> usize {
        match self.repr {
            Repr::Paged => self.read_bits(self.infix_bits(), COUNT_BITS as u32) as usize,
            _ => self.local_children(),
        }
    }

    #[inline]
    pub fn is_hc(&self) -> bool {
        self.repr == Repr::Hc
    }

    /// Number of sub-node children.
    #[inline]
    pub fn n_subs(&self) -> usize {
        self.n_children() - self.n_posts()
    }

    /// The sub-node children in address order, whichever form the node
    /// is in (a paged node's are spread over its segments).
    pub fn child_nodes(&self) -> impl Iterator<Item = &NodePtr<V, K>> {
        let own = match self.repr {
            Repr::Paged => &[][..],
            _ => self.subs(),
        };
        own.iter()
            .chain(self.segments().iter().flat_map(|s| s.subs().iter()))
    }

    /// Paged: the segments in address order; empty for other forms.
    pub fn segments(&self) -> &[NodePtr<V, K>] {
        match self.repr {
            Repr::Paged => self.subs(),
            _ => &[],
        }
    }

    /// The values of the postfix entries in address order, whichever
    /// form the node is in.
    pub fn post_values(&self) -> impl Iterator<Item = &V> {
        let segs = self.segments().iter().flat_map(|s| s.values().iter());
        self.values().iter().chain(segs)
    }

    // ------------------------------------------------------------------
    // Infix handling
    // ------------------------------------------------------------------

    /// Records bits `post_len+1 ..= post_len+infix_len` of each dimension
    /// of `key` as this node's infix (one scatter pass over the packed
    /// run).
    pub fn write_infix(&mut self, key: &[u64; K]) {
        let il = self.infix_len as u32;
        if il == 0 {
            return;
        }
        let shift = self.post_len as u32 + 1;
        self.write_key(0, il, shift, key);
    }

    /// Copies the stored infix into the corresponding bit range of `key`
    /// (one gather pass over the packed run).
    pub fn read_infix_into(&self, key: &mut [u64; K]) {
        let il = self.infix_len as u32;
        if il == 0 {
            return;
        }
        self.read_key_into(0, il, self.post_len as u32 + 1, key);
    }

    /// Whether `key` matches this node's infix in every dimension.
    /// Fused per-dimension compare: runs once per node on the descent
    /// path, so avoiding the pack pass and its scratch matters at
    /// small K where descent is deepest.
    pub fn infix_matches(&self, key: &[u64; K]) -> bool {
        let il = self.infix_len as u32;
        if il == 0 {
            return true;
        }
        self.eq_key(0, il, self.post_len as u32 + 1, key)
    }

    // ------------------------------------------------------------------
    // Layout offsets
    // ------------------------------------------------------------------

    /// LHC: bit offset of the address field of child `j` (given `n`
    /// children).
    #[inline]
    fn lhc_addr_off(&self, j: usize) -> usize {
        self.infix_bits() + j * K
    }

    /// LHC: bit offset of the kind bit of child `j`.
    #[inline]
    fn lhc_kind_off(&self, n: usize, j: usize) -> usize {
        self.infix_bits() + n * K + j
    }

    /// LHC: bit offset of the start of the postfix area.
    #[inline]
    fn lhc_pf_base(&self, n: usize) -> usize {
        self.infix_bits() + n * (K + 1)
    }

    /// HC: bit offset of slot `h`'s 2-bit kind.
    #[inline]
    fn hc_kind_off(&self, h: u64) -> usize {
        self.infix_bits() + 2 * h as usize
    }

    /// HC: bit offset of the start of the fixed-stride postfix area.
    #[inline]
    fn hc_pf_base(&self) -> usize {
        self.infix_bits() + 2 * (1usize << K)
    }

    /// Paged: bit offset of fence `i` (`i` = segment count gives the
    /// length of the outer bit string).
    #[inline]
    fn fence_off(&self, i: usize) -> usize {
        self.infix_bits() + 2 * COUNT_BITS + i * K
    }

    /// Paged: fence `i`, the first address of segment `i`.
    #[inline]
    fn fence(&self, i: usize) -> u64 {
        self.read_bits(self.fence_off(i), K as u32)
    }

    /// Paged: index of the segment whose address range covers `h` — the
    /// last one whose fence is `<= h`, or the first segment for an `h`
    /// below every fence.
    fn seg_index(&self, h: u64) -> usize {
        debug_assert_eq!(self.repr, Repr::Paged);
        let (mut lo, mut hi) = (0usize, self.subs().len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.fence(mid) <= h {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.saturating_sub(1)
    }

    /// LHC: address of child `j`.
    #[inline]
    pub fn lhc_addr_at(&self, j: usize) -> u64 {
        self.read_bits(self.lhc_addr_off(j), K as u32)
    }

    /// LHC: whether child `j` is a sub-node.
    #[inline]
    fn lhc_is_sub(&self, j: usize) -> bool {
        self.get(self.lhc_kind_off(self.local_children(), j))
    }

    /// LHC: number of postfix entries among children `0..j`.
    #[inline]
    fn lhc_post_rank(&self, j: usize) -> usize {
        let n = self.local_children();
        j - self.count_ones(self.lhc_kind_off(n, 0), j)
    }

    /// HC: 2-bit kind of slot `h`.
    #[inline]
    fn hc_kind(&self, h: u64) -> u64 {
        self.read_bits(self.hc_kind_off(h), 2)
    }

    /// HC: `(post_rank, sub_rank)` — counts of posts/subs in slots
    /// `0..h`, via word-wise popcounts over the packed kind table.
    fn hc_ranks(&self, h: u64) -> (usize, usize) {
        let base = self.infix_bits();
        let nbits = 2 * h as usize;
        let mut posts = 0usize;
        let mut subs = 0usize;
        let mut done = 0usize;
        while done < nbits {
            let chunk = (nbits - done).min(64) as u32;
            let w = self.read_bits(base + done, chunk);
            // Kind 01 = post (low bit of the pair), kind 10 = sub.
            posts += (w & 0x5555_5555_5555_5555).count_ones() as usize;
            subs += (w & 0xAAAA_AAAA_AAAA_AAAA).count_ones() as usize;
            done += chunk as usize;
        }
        (posts, subs)
    }

    /// LHC: index of the first child with address `>= h` (also the
    /// insert position), or `Ok(j)` when child `j` has address `h`.
    ///
    /// The infix offset and child count are hoisted out of the binary
    /// search; each probe is a single word-level [`BitBuf::cmp_range`]
    /// against the packed address field.
    fn lhc_search(&self, h: u64) -> Result<usize, usize> {
        use std::cmp::Ordering;
        let ib = self.infix_bits();
        let n = self.local_children();
        let key = [h];
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cmp_range(ib + mid * K, &key, K) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// For LHC nodes: the address and slot at child index `j`.
    pub fn lhc_at(&self, j: usize) -> (u64, SlotRef<'_, V, K>) {
        debug_assert_eq!(self.repr, Repr::Lhc);
        let pr = self.lhc_post_rank(j);
        let slot = if self.lhc_is_sub(j) {
            SlotRef::Sub(&self.subs()[j - pr])
        } else {
            SlotRef::Post {
                seg: self,
                pf_off: self.lhc_pf_base(self.local_children()) + pr * self.post_bits(),
                value: &self.values()[pr],
            }
        };
        (self.lhc_addr_at(j), slot)
    }

    // ------------------------------------------------------------------
    // Postfix handling
    // ------------------------------------------------------------------

    /// Writes the low `post_len` bits of each dimension of `key` into the
    /// postfix record at bit offset `off` (which must already exist) in
    /// one scatter pass.
    fn write_postfix_at(&mut self, off: usize, key: &[u64; K]) {
        let pl = self.post_len as u32;
        if pl == 0 {
            return;
        }
        self.write_key(off, pl, 0, key);
    }

    /// Reads the postfix record at bit offset `off` into the low bits of
    /// `key` (replacing them) in one gather pass. `self` must be the
    /// node whose bit string holds the record ([`SlotRef::Post::seg`]).
    pub fn read_postfix_into(&self, off: usize, key: &mut [u64; K]) {
        let pl = self.post_len as u32;
        if pl == 0 {
            return;
        }
        self.read_key_into(off, pl, 0, key);
    }

    /// Whether the postfix record at `off` equals the low bits of `key`:
    /// word-wise compare of the packed run against the packed key.
    /// `self` must be the node whose bit string holds the record.
    pub fn postfix_matches(&self, off: usize, key: &[u64; K]) -> bool {
        // Fused per-dimension compare: point queries are 50 % misses, so
        // the first-mismatch early exit matters more than bulk compare.
        self.eq_key(off, self.post_len as u32, 0, key)
    }

    // ------------------------------------------------------------------
    // Slot lookup
    // ------------------------------------------------------------------

    /// Looks up the slot for address `h`.
    #[inline]
    pub fn get_slot(&self, h: u64) -> Option<SlotRef<'_, V, K>> {
        match self.repr {
            Repr::Hc => match self.hc_kind(h) {
                KIND_EMPTY => None,
                KIND_POST => {
                    let (pr, _) = self.hc_ranks(h);
                    Some(SlotRef::Post {
                        seg: self,
                        pf_off: self.hc_pf_base() + h as usize * self.post_bits(),
                        value: &self.values()[pr],
                    })
                }
                _ => {
                    let (_, sr) = self.hc_ranks(h);
                    Some(SlotRef::Sub(&self.subs()[sr]))
                }
            },
            Repr::Lhc => match self.lhc_search(h) {
                Ok(j) => Some(self.lhc_at(j).1),
                Err(_) => None,
            },
            Repr::Paged => self.subs()[self.seg_index(h)].get_slot(h),
        }
    }

    /// Probes the slot at `h = addr(key)` for `key`, comparing (and on a
    /// mismatch, reading back) the stored postfix. The result borrows
    /// nothing, for use where a [`SlotRef`] borrow would conflict with
    /// subsequent mutation.
    #[inline]
    pub fn probe(&self, h: u64, key: &[u64; K]) -> Probe<K> {
        match self.get_slot(h) {
            None => Probe::Empty,
            Some(SlotRef::Sub(_)) => Probe::Sub,
            Some(SlotRef::Post { seg, pf_off, .. }) => {
                if seg.postfix_matches(pf_off, key) {
                    Probe::Same
                } else {
                    // Both keys agree on all bits at and above the
                    // node's split (same path, same address), so the
                    // stored postfix fully determines the other key.
                    let mut other = *key;
                    seg.read_postfix_into(pf_off, &mut other);
                    Probe::Other(other)
                }
            }
        }
    }

    /// Index into `values` of the postfix entry at `h`, if any.
    fn post_rank_of(&self, h: u64) -> Option<usize> {
        match self.repr {
            Repr::Hc => (self.hc_kind(h) == KIND_POST).then(|| self.hc_ranks(h).0),
            Repr::Lhc => match self.lhc_search(h) {
                Ok(j) if !self.lhc_is_sub(j) => Some(self.lhc_post_rank(j)),
                _ => None,
            },
            Repr::Paged => unreachable!("ranks are per segment"),
        }
    }

    /// Index into `subs` of the sub-node at `h`, if any.
    fn sub_rank_of(&self, h: u64) -> Option<usize> {
        match self.repr {
            Repr::Hc => (self.hc_kind(h) == KIND_SUB).then(|| self.hc_ranks(h).1),
            Repr::Lhc => match self.lhc_search(h) {
                Ok(j) if self.lhc_is_sub(j) => Some(j - self.lhc_post_rank(j)),
                _ => None,
            },
            Repr::Paged => unreachable!("ranks are per segment"),
        }
    }

    // ------------------------------------------------------------------
    // Paging: segments ⇄ one logical LHC bit string
    // ------------------------------------------------------------------

    /// The node's logical bit string, as words and a bit length: its
    /// own for an LHC or HC node; for a paged node the one LHC bit
    /// string `[infix | addresses | kinds | postfixes]` its segments
    /// concatenate to, which is what a plain LHC node with the same
    /// children would hold.
    pub fn logical_bits(&self) -> (Cow<'_, [u64]>, usize) {
        match self.repr {
            Repr::Paged => {
                let bits = self.segments_concat();
                let len = bits.len();
                (Cow::Owned(bits.into_words()), len)
            }
            _ => (Cow::Borrowed(self.words()), self.bits_len()),
        }
    }

    /// Paged: the segments' child tables as one, behind the infix.
    fn segments_concat(&self) -> BitBuf {
        let segs: Vec<&Node<V, K>> = self.subs().iter().map(|s| &**s).collect();
        Self::lhc_concat(self, self.infix_bits(), &segs)
    }

    /// Concatenates infix-less LHC child tables (`segs`, in address
    /// order) into one, behind the first `head_bits` bits of `head`.
    fn lhc_concat(head: &Node<V, K>, head_bits: usize, segs: &[&Node<V, K>]) -> BitBuf {
        let n: usize = segs.iter().map(|s| s.local_children()).sum();
        let total: usize = segs.iter().map(|s| s.bits_len()).sum();
        let mut bits = BitBuf::zeroed(head_bits + total);
        bits.copy_bits_from(head, 0, 0, head_bits);
        // One cursor per region of the result.
        let (mut addr, mut kind, mut pf) = (head_bits, head_bits + n * K, head_bits + n * (K + 1));
        for s in segs {
            debug_assert!(s.repr == Repr::Lhc && s.infix_len == 0);
            let sn = s.local_children();
            let pf_len = s.bits_len() - sn * (K + 1);
            bits.copy_bits_from(*s, 0, addr, sn * K);
            bits.copy_bits_from(*s, sn * K, kind, sn);
            bits.copy_bits_from(*s, sn * (K + 1), pf, pf_len);
            addr += sn * K;
            kind += sn;
            pf += pf_len;
        }
        bits
    }

    /// LHC: bits of the child table taken by children `0..j`.
    fn lhc_table_bits(&self, j: usize) -> usize {
        j * (K + 1) + self.lhc_post_rank(j) * self.post_bits()
    }

    /// Cuts this plain LHC node's child table into `count` infix-less
    /// segments of (to within one child) equal bit size, each allocated
    /// at exact size. The node's infix is dropped.
    fn lhc_chunks(mut self, count: usize) -> Vec<Node<V, K>> {
        debug_assert_eq!(self.repr, Repr::Lhc);
        let (n, ib, pb) = (self.local_children(), self.infix_bits(), self.post_bits());
        debug_assert!(count >= 1 && count <= n);
        let total = self.bits_len() - ib;
        // Child index where chunk `c` ends: the first at which the
        // table reaches c/count of its length, leaving every chunk at
        // least one child.
        let mut cuts = Vec::with_capacity(count);
        let mut prev = 0;
        for c in 1..count {
            let target = total * c / count;
            let (mut lo, mut hi) = (prev + 1, n - (count - c));
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.lhc_table_bits(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            cuts.push((lo, self.lhc_post_rank(lo)));
            prev = lo;
        }
        cuts.push((n, self.values().len()));
        let post_len = self.post_len;
        let mut values = self.take_vals().into_iter();
        let mut subs = self.take_subs().into_iter();
        let src = &self;
        let (mut j0, mut pr0) = (0, 0);
        cuts.into_iter()
            .map(|(j1, pr1)| {
                let (cn, cp) = (j1 - j0, pr1 - pr0);
                let len = cn * (K + 1) + cp * pb;
                let mut seg = Self::zeroed(Meta::new(post_len, 0, Repr::Lhc), len, cn - cp, cp);
                seg.copy_bits_from(src, ib + j0 * K, 0, cn * K);
                seg.copy_bits_from(src, ib + n * K + j0, cn * K, cn);
                seg.copy_bits_from(src, ib + n * (K + 1) + pr0 * pb, cn * (K + 1), cp * pb);
                subs.by_ref().take(cn - cp).for_each(|s| seg.push_sub(s));
                values.by_ref().take(cp).for_each(|v| seg.push_val(v));
                (j0, pr0) = (j1, pr1);
                seg
            })
            .collect()
    }

    /// Turns this node — childless, its bit string just the infix —
    /// into the outer node over `segs`, which hold `n` children,
    /// `posts` of them postfix entries.
    fn install_segments(&mut self, segs: Vec<Node<V, K>>, n: usize, posts: usize) {
        debug_assert!(segs.len() >= 2 && self.bits_len() == self.infix_bits());
        debug_assert!(self.subs().is_empty() && self.values().is_empty());
        self.repr = Repr::Paged;
        let len = self.fence_off(segs.len());
        self.reserve(len, segs.len(), 0);
        self.bits_resize(len);
        self.set_counts(n, posts);
        for (i, seg) in segs.into_iter().enumerate() {
            let off = self.fence_off(i);
            self.write_bits(off, seg.lhc_addr_at(0), K as u32);
            self.push_sub(seg);
        }
        // Bulk-built and decoded nodes carry no slack.
        self.shrink_to_fit();
    }

    /// Paged: stores the child and postfix-entry totals.
    fn set_counts(&mut self, n: usize, posts: usize) {
        let ib = self.infix_bits();
        self.write_bits(ib, n as u64, COUNT_BITS as u32);
        self.write_bits(ib + COUNT_BITS, posts as u64, COUNT_BITS as u32);
    }

    /// Pages a plain LHC node whose child table has outgrown one page:
    /// the table is cut into the fewest segments that fit a page each.
    fn page_if_oversized(&mut self) {
        let ib = self.infix_bits();
        if self.repr != Repr::Lhc || self.bits_len() - ib <= PAGE_BITS {
            return;
        }
        let pages = (self.bits_len() - ib).div_ceil(PAGE_BITS);
        let (n, posts) = (self.local_children(), self.values().len());
        let mut outer = Self::zeroed(
            Meta::new(self.post_len, self.infix_len, Repr::Lhc),
            ib,
            0,
            0,
        );
        outer.copy_bits_from(&*self, 0, 0, ib);
        let flat = std::mem::replace(self, outer);
        self.install_segments(flat.lhc_chunks(pages), n, posts);
    }

    // ------------------------------------------------------------------
    // Iteration support (used by queries, stats and merging)
    // ------------------------------------------------------------------

    /// Iterates all occupied slots in address order.
    pub fn iter_slots(&self) -> SlotIter<'_, V, K> {
        if self.repr == Repr::Hc {
            SlotIter::enter(self, [].iter(), 0)
        } else {
            self.scan_from(0)
        }
    }

    /// LHC or paged: iterates the occupied slots at addresses `>= h` in
    /// address order, starting inside the segment that covers `h`. This
    /// is the scan the window walker runs its masks over.
    pub fn scan_from(&self, h: u64) -> SlotIter<'_, V, K> {
        let (node, rest) = match self.repr {
            Repr::Paged => {
                let si = self.seg_index(h);
                (&*self.subs()[si], self.subs()[si + 1..].iter())
            }
            Repr::Lhc => (self, [].iter()),
            Repr::Hc => unreachable!("an HC node is probed by address, not scanned"),
        };
        // Scans of a whole node start at child 0 without a search.
        let pos = match h {
            0 => 0,
            _ => node.lhc_search(h).unwrap_or_else(|insert_at| insert_at),
        };
        SlotIter::enter(node, rest, pos)
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests)
    // ------------------------------------------------------------------

    /// Validates all structural invariants of this subtree; panics on
    /// violation. Used by tests and debug assertions — decode paths use
    /// the fallible [`Node::validate_local`] instead.
    pub fn check_invariants(&self, is_root: bool) {
        if let Err(what) = self.validate_local() {
            panic!("node invariant violated: {what}");
        }
        if !is_root {
            assert!(self.n_children() >= 2, "non-root node with < 2 children");
        } else {
            assert_eq!(self.post_len as u32, W - 1, "root split bit");
            assert_eq!(self.infix_len, 0, "root infix");
        }
        for sub in self.child_nodes() {
            sub.check_invariants(false);
        }
    }
}

/// Structural updates and mutating accessors. These need `V: Clone`
/// because they descend into shared nodes — the segments of a paged
/// node, or sub-node children — through [`NodePtr::make_mut`], which
/// deep-copies a node that is still referenced by another tree version
/// (a snapshot); when the node is uniquely owned — the steady state
/// with no snapshots alive — they mutate in place with only a refcount
/// check.
impl<V: Clone, const K: usize> Node<V, K> {
    /// Rewrites the infix to `new_len` bits per dimension taken from
    /// `key` (used when an infix is split or extended by node
    /// restructuring).
    pub fn reset_infix(&mut self, new_len: u8, key: &[u64; K], mode: ReprMode) {
        let old = self.infix_bits();
        self.infix_len = new_len;
        let new = self.infix_bits();
        if new < old {
            self.remove_ranges(&[(new, old - new)]);
        } else if new > old {
            self.insert_gaps(&[(old, new - old)]);
        }
        self.write_infix(key);
        // The infix length feeds the HC/LHC size comparison only through
        // rounding, but keep the representation a pure function of the
        // node's final state.
        self.maybe_switch_repr(mode);
    }

    /// Mutable access to the value of the postfix entry at `h`.
    pub fn post_value_mut(&mut self, h: u64) -> Option<&mut V> {
        if self.repr == Repr::Paged {
            return self.seg_mut(h).post_value_mut(h);
        }
        let pr = self.post_rank_of(h)?;
        Some(&mut self.values_mut()[pr])
    }

    /// Paged: the segment covering `h`, copy-on-write. For edits that
    /// keep the segment's children and size as they are; structural
    /// ones go through [`Node::edit_segment`].
    fn seg_mut(&mut self, h: u64) -> &mut Node<V, K> {
        let si = self.seg_index(h);
        NodePtr::make_mut(&mut self.subs_mut()[si])
    }

    // ------------------------------------------------------------------
    // Structural updates
    // ------------------------------------------------------------------

    /// Inserts a new postfix entry at (empty) address `h`.
    pub fn insert_post(&mut self, h: u64, key: &[u64; K], value: V, mode: ReprMode) {
        let pb = self.post_bits();
        match self.repr {
            Repr::Hc => {
                debug_assert_eq!(
                    self.hc_kind(h),
                    KIND_EMPTY,
                    "insert_post into occupied slot"
                );
                let (pr, _) = self.hc_ranks(h);
                let off = self.hc_kind_off(h);
                self.write_bits(off, KIND_POST, 2);
                let pf = self.hc_pf_base() + h as usize * pb;
                self.write_postfix_at(pf, key);
                self.vals_insert(pr, value);
            }
            Repr::Lhc => self.lhc_insert_post(h, key, value),
            Repr::Paged => self.edit_segment(h, |seg| seg.lhc_insert_post(h, key, value)),
        }
        self.maybe_switch_repr(mode);
    }

    /// Inserts a sub-node at (empty) address `h`. Accepts an owned
    /// node or an already-shared [`NodePtr`] (the path-copy code moves
    /// shared subtrees between nodes without deep-copying them).
    pub fn insert_sub(&mut self, h: u64, sub: impl Into<NodePtr<V, K>>, mode: ReprMode) {
        let sub = sub.into();
        match self.repr {
            Repr::Hc => {
                debug_assert_eq!(self.hc_kind(h), KIND_EMPTY, "insert_sub into occupied slot");
                let (_, sr) = self.hc_ranks(h);
                let off = self.hc_kind_off(h);
                self.write_bits(off, KIND_SUB, 2);
                self.subs_insert(sr, sub);
            }
            Repr::Lhc => self.lhc_insert_sub(h, sub),
            Repr::Paged => self.edit_segment(h, |seg| seg.lhc_insert_sub(h, sub)),
        }
        self.maybe_switch_repr(mode);
    }

    /// Removes the postfix entry at `h`, returning its value.
    pub fn remove_post(&mut self, h: u64, mode: ReprMode) -> V {
        let pb = self.post_bits();
        let v = match self.repr {
            Repr::Hc => {
                assert_eq!(self.hc_kind(h), KIND_POST, "remove_post on non-post slot");
                let (pr, _) = self.hc_ranks(h);
                let off = self.hc_kind_off(h);
                self.write_bits(off, KIND_EMPTY, 2);
                // Clear the stale postfix slot for determinism.
                let pf = self.hc_pf_base() + h as usize * pb;
                let zero: [u64; K] = [0; K];
                self.write_postfix_at(pf, &zero);
                self.vals_remove(pr)
            }
            Repr::Lhc => self.lhc_remove_post(h),
            Repr::Paged => self.edit_segment(h, |seg| seg.lhc_remove_post(h)),
        };
        self.maybe_switch_repr(mode);
        v
    }

    /// Replaces the value of the postfix entry at `h`, returning the old
    /// value. The postfix itself is unchanged.
    pub fn replace_post_value(&mut self, h: u64, value: V) -> V {
        std::mem::replace(
            self.post_value_mut(h)
                .expect("replace_post_value: not a post"),
            value,
        )
    }

    /// Replaces the postfix entry at `h` with a sub-node, returning the
    /// displaced value. The caller re-inserts the displaced entry into
    /// the sub-node (the paper's "at most one entry is moved between the
    /// two nodes").
    pub fn swap_post_for_sub(
        &mut self,
        h: u64,
        sub: impl Into<NodePtr<V, K>>,
        mode: ReprMode,
    ) -> V {
        let sub = sub.into();
        let pb = self.post_bits();
        let v = match self.repr {
            Repr::Hc => {
                assert_eq!(
                    self.hc_kind(h),
                    KIND_POST,
                    "swap_post_for_sub on non-post slot"
                );
                let (pr, sr) = self.hc_ranks(h);
                let off = self.hc_kind_off(h);
                self.write_bits(off, KIND_SUB, 2);
                let pf = self.hc_pf_base() + h as usize * pb;
                let zero: [u64; K] = [0; K];
                self.write_postfix_at(pf, &zero);
                self.subs_insert(sr, sub);
                self.vals_remove(pr)
            }
            Repr::Lhc => self.lhc_swap_post_for_sub(h, sub),
            Repr::Paged => self.edit_segment(h, |seg| seg.lhc_swap_post_for_sub(h, sub)),
        };
        // The post count feeds the size comparison; keep the
        // representation a pure function of the node's final state.
        self.maybe_switch_repr(mode);
        v
    }

    /// Replaces the sub-node at `h` with a postfix entry (merge-up after
    /// a deletion left the sub-node with a single local entry).
    pub fn replace_sub_with_post(&mut self, h: u64, key: &[u64; K], value: V, mode: ReprMode) {
        let pb = self.post_bits();
        match self.repr {
            Repr::Hc => {
                assert_eq!(
                    self.hc_kind(h),
                    KIND_SUB,
                    "replace_sub_with_post on non-sub slot"
                );
                let (pr, sr) = self.hc_ranks(h);
                let off = self.hc_kind_off(h);
                self.write_bits(off, KIND_POST, 2);
                let pf = self.hc_pf_base() + h as usize * pb;
                self.write_postfix_at(pf, key);
                self.subs_remove(sr);
                self.vals_insert(pr, value);
            }
            Repr::Lhc => self.lhc_replace_sub_with_post(h, key, value),
            Repr::Paged => self.edit_segment(h, |seg| seg.lhc_replace_sub_with_post(h, key, value)),
        }
        self.maybe_switch_repr(mode);
    }

    /// Replaces the sub-node at `h` with another sub-node, returning
    /// the displaced one still behind its handle (the caller either
    /// re-attaches it elsewhere via [`Node::insert_sub`] or drops it;
    /// neither needs the deep copy an unwrap would cost).
    pub fn swap_sub(&mut self, h: u64, sub: impl Into<NodePtr<V, K>>) -> NodePtr<V, K> {
        if self.repr == Repr::Paged {
            return self.seg_mut(h).swap_sub(h, sub);
        }
        let sr = self.sub_rank_of(h).expect("swap_sub: not a sub slot");
        std::mem::replace(&mut self.subs_mut()[sr], sub.into())
    }

    // ------------------------------------------------------------------
    // LHC edits: the bit-string splices, on a plain LHC node or a segment
    // ------------------------------------------------------------------

    fn lhc_insert_post(&mut self, h: u64, key: &[u64; K], value: V) {
        let pb = self.post_bits();
        let j = match self.lhc_search(h) {
            Err(j) => j,
            Ok(_) => panic!("insert_post into occupied slot"),
        };
        let n = self.local_children();
        let pr = self.lhc_post_rank(j);
        // One splice opens the address, kind and postfix gaps.
        self.insert_gaps(&[
            (self.lhc_addr_off(j), K),
            (self.lhc_kind_off(n, j), 1), // zero = post
            (self.lhc_pf_base(n) + pr * pb, pb),
        ]);
        let n = n + 1;
        self.write_bits(self.lhc_addr_off(j), h, K as u32);
        let pf = self.lhc_pf_base(n) + pr * pb;
        self.write_postfix_at(pf, key);
        self.vals_insert(pr, value);
    }

    fn lhc_insert_sub(&mut self, h: u64, sub: NodePtr<V, K>) {
        let j = match self.lhc_search(h) {
            Err(j) => j,
            Ok(_) => panic!("insert_sub into occupied slot"),
        };
        let n = self.local_children();
        let sr = j - self.lhc_post_rank(j);
        self.insert_gaps(&[(self.lhc_addr_off(j), K), (self.lhc_kind_off(n, j), 1)]);
        let n = n + 1;
        self.write_bits(self.lhc_addr_off(j), h, K as u32);
        self.set(self.lhc_kind_off(n, j), true); // kind 1 = sub
        self.subs_insert(sr, sub);
    }

    fn lhc_remove_post(&mut self, h: u64) -> V {
        let pb = self.post_bits();
        let j = self.lhc_search(h).expect("remove_post: empty slot");
        assert!(!self.lhc_is_sub(j), "remove_post on sub slot");
        let n = self.local_children();
        let pr = self.lhc_post_rank(j);
        self.remove_ranges(&[
            (self.lhc_addr_off(j), K),
            (self.lhc_kind_off(n, j), 1),
            (self.lhc_pf_base(n) + pr * pb, pb),
        ]);
        self.vals_remove(pr)
    }

    fn lhc_swap_post_for_sub(&mut self, h: u64, sub: NodePtr<V, K>) -> V {
        let pb = self.post_bits();
        let j = self.lhc_search(h).expect("swap_post_for_sub: empty slot");
        assert!(!self.lhc_is_sub(j), "swap_post_for_sub on sub slot");
        let n = self.local_children();
        let pr = self.lhc_post_rank(j);
        let sr = j - pr;
        let pf = self.lhc_pf_base(n) + pr * pb;
        self.remove_ranges(&[(pf, pb)]);
        self.set(self.lhc_kind_off(n, j), true);
        self.subs_insert(sr, sub);
        self.vals_remove(pr)
    }

    fn lhc_replace_sub_with_post(&mut self, h: u64, key: &[u64; K], value: V) {
        let pb = self.post_bits();
        let j = self
            .lhc_search(h)
            .expect("replace_sub_with_post: empty slot");
        assert!(self.lhc_is_sub(j), "replace_sub_with_post on post slot");
        let n = self.local_children();
        let pr = self.lhc_post_rank(j);
        let sr = j - pr;
        self.set(self.lhc_kind_off(n, j), false);
        let pf = self.lhc_pf_base(n) + pr * pb;
        self.insert_gaps(&[(pf, pb)]);
        self.write_postfix_at(pf, key);
        self.subs_remove(sr);
        self.vals_insert(pr, value);
    }

    // ------------------------------------------------------------------
    // Paged: segment edits and rebalancing
    // ------------------------------------------------------------------

    /// Paged: applies the structural edit `f` to the segment covering
    /// `h` (copy-on-write), then restores the outer node's invariants:
    /// counters, the segment's fence, and the segment size rules
    /// (split / merge / unpage, see the module docs).
    ///
    /// `f` is one of the `lhc_*` splices: a segment never switches
    /// representation on its own.
    fn edit_segment<R>(&mut self, h: u64, f: impl FnOnce(&mut Node<V, K>) -> R) -> R {
        let si = self.seg_index(h);
        let seg = NodePtr::make_mut(&mut self.subs_mut()[si]);
        let (n0, posts0) = (seg.local_children(), seg.values().len());
        let r = f(seg);
        debug_assert_eq!(seg.repr, Repr::Lhc);
        let (n1, posts1, len) = (seg.local_children(), seg.values().len(), seg.bits_len());
        self.set_counts(
            self.n_children() + n1 - n0,
            self.n_posts() + posts1 - posts0,
        );
        if len > PAGE_BITS {
            self.split_segment(si);
        } else if len < PAGE_BITS / 4 {
            self.merge_segment(si);
        } else {
            self.refresh_fence(si);
        }
        r
    }

    /// Paged: rewrites fence `si` from its segment's first address.
    fn refresh_fence(&mut self, si: usize) {
        let first = self.subs()[si].lhc_addr_at(0);
        self.write_bits(self.fence_off(si), first, K as u32);
    }

    /// Paged: cuts segment `si` into two halves of equal bit size.
    fn split_segment(&mut self, si: usize) {
        let seg = NodePtr::into_unique(self.subs_remove(si));
        for (i, half) in seg.lhc_chunks(2).into_iter().enumerate() {
            self.subs_insert(si + i, half.into());
        }
        self.insert_gaps(&[(self.fence_off(si + 1), K)]);
        self.refresh_fence(si);
        self.refresh_fence(si + 1);
    }

    /// Paged: merges the undersized segment `si` with its smaller
    /// neighbour; splits the result again if it overflows the page, and
    /// unpages the node if it is the only segment left.
    fn merge_segment(&mut self, si: usize) {
        let len_of = |i: usize| self.subs().get(i).map_or(usize::MAX, |s| s.bits_len());
        // Left index of the pair to merge.
        let a = if si > 0 && len_of(si - 1) <= len_of(si + 1) {
            si - 1
        } else {
            si
        };
        let right = NodePtr::into_unique(self.subs_remove(a + 1));
        self.remove_ranges(&[(self.fence_off(a + 1), K)]);
        let left = NodePtr::make_mut(&mut self.subs_mut()[a]);
        let bits = Self::lhc_concat(left, 0, &[&*left, &right]);
        left.gather(&bits, &mut [right]);
        if bits.len() > PAGE_BITS {
            self.split_segment(a);
        } else if self.subs().len() == 1 {
            self.unpage();
        } else {
            self.refresh_fence(a);
        }
    }

    /// Paged → plain LHC: the segments' tables are concatenated behind
    /// the infix, their values and sub-nodes gathered in order.
    fn unpage(&mut self) {
        let bits = self.segments_concat();
        self.take_segments(&bits, Repr::Lhc);
    }

    /// Paged: dissolves the segments into this node, which takes the
    /// representation `repr` with bit string `bits`.
    fn take_segments(&mut self, bits: &BitBuf, repr: Repr) {
        debug_assert_eq!(self.repr, Repr::Paged);
        let segs = self.take_subs().into_iter().map(NodePtr::into_unique);
        self.repr = repr;
        self.gather(bits, &mut segs.collect::<Vec<_>>());
    }

    /// Replaces the bit string by `bits` and appends the sub-nodes and
    /// values of `from`, in order, growing the block once.
    fn gather(&mut self, bits: &BitBuf, from: &mut [Node<V, K>]) {
        let subs = from.iter().map(|n| n.subs().len()).sum::<usize>() + self.subs().len();
        let vals = from.iter().map(|n| n.values().len()).sum::<usize>() + self.values().len();
        self.reserve(bits.len(), subs, vals);
        self.set_bits(bits);
        // All sub-nodes first: one pushed behind values moves them all.
        let vals: Vec<_> = from.iter_mut().map(|n| n.take_vals()).collect();
        for node in from.iter_mut() {
            node.take_subs().into_iter().for_each(|s| self.push_sub(s));
        }
        vals.into_iter().flatten().for_each(|v| self.push_val(v));
    }

    // ------------------------------------------------------------------
    // HC ⇄ LHC switching (Sect. 3.2)
    // ------------------------------------------------------------------

    /// Converts to the smaller of HC and LHC if the current one is not,
    /// and pages an LHC node that has outgrown a page.
    pub fn maybe_switch_repr(&mut self, mode: ReprMode) {
        let want_hc = match mode {
            ReprMode::ForceLhc => false,
            ReprMode::ForceHc => K <= MAX_HC_K,
            ReprMode::Adaptive => {
                // Bit cost of the child table in either form (excl.
                // infix, subs and values, which are identical in both);
                // a `2^K` table may not be materialised beyond
                // `MAX_HC_K`.
                K <= MAX_HC_K
                    && (1usize << K) * (2 + self.post_bits())
                        < self.n_children() * (K + 1) + self.n_posts() * self.post_bits()
            }
        };
        if want_hc != self.is_hc() {
            crate::telemetry::record_repr_switch(want_hc);
            if want_hc {
                self.convert_to_hc();
            } else {
                self.convert_to_lhc();
            }
        }
        self.page_if_oversized();
    }

    /// LHC or paged → HC.
    fn convert_to_hc(&mut self) {
        debug_assert_ne!(self.repr, Repr::Hc);
        let ib = self.infix_bits();
        let pb = self.post_bits();
        let slots = 1usize << K;
        let mut bits = BitBuf::zeroed(ib + slots * (2 + pb));
        bits.copy_bits_from(&*self, 0, 0, ib);
        let pf_base_new = ib + 2 * slots;
        for (h, slot) in self.iter_slots() {
            let h = h as usize;
            match slot {
                SlotRef::Sub(_) => bits.write_bits(ib + 2 * h, KIND_SUB, 2),
                SlotRef::Post { seg, pf_off, .. } => {
                    bits.write_bits(ib + 2 * h, KIND_POST, 2);
                    bits.copy_bits_from(seg, pf_off, pf_base_new + h * pb, pb);
                }
            }
        }
        if self.repr == Repr::Paged {
            self.take_segments(&bits, Repr::Hc);
        } else {
            self.set_bits(&bits);
            self.repr = Repr::Hc;
        }
    }

    fn convert_to_lhc(&mut self) {
        debug_assert_eq!(self.repr, Repr::Hc);
        let ib = self.infix_bits();
        let pb = self.post_bits();
        let n = self.local_children();
        let posts = self.values().len();
        let mut bits = BitBuf::zeroed(ib + n * (K + 1) + posts * pb);
        bits.copy_bits_from(&*self, 0, 0, ib);
        let pf_base_new = ib + n * (K + 1);
        let mut j = 0usize;
        let mut pr = 0usize;
        for h in 0..(1u64 << K) {
            match self.hc_kind(h) {
                KIND_EMPTY => continue,
                KIND_POST => {
                    bits.write_bits(ib + j * K, h, K as u32);
                    // kind bit stays 0
                    bits.copy_bits_from(
                        &*self,
                        self.hc_pf_base() + h as usize * pb,
                        pf_base_new + pr * pb,
                        pb,
                    );
                    pr += 1;
                }
                _ => {
                    bits.write_bits(ib + j * K, h, K as u32);
                    bits.set(ib + n * K + j, true);
                }
            }
            j += 1;
        }
        debug_assert_eq!(j, n);
        self.set_bits(&bits);
        self.repr = Repr::Lhc;
    }

    // ------------------------------------------------------------------
    // Descending into children
    // ------------------------------------------------------------------

    /// Mutable access to the sub-node at `h`, copy-on-write.
    pub fn sub_mut(&mut self, h: u64) -> Option<&mut Node<V, K>> {
        if self.repr == Repr::Paged {
            return self.seg_mut(h).sub_mut(h);
        }
        let sr = self.sub_rank_of(h)?;
        Some(NodePtr::make_mut(&mut self.subs_mut()[sr]))
    }

    /// Releases the slack of every block of the subtree under `this`,
    /// so the space accounting sees none afterwards — a paged node's
    /// segments included, and through them its sub-node children.
    /// Copy-on-write, but only where there is something to release: a
    /// subtree shared with another tree version that has no slack
    /// anywhere stays shared.
    pub fn shrink_subtree(this: &mut NodePtr<V, K>) {
        fn has_slack<V, const K: usize>(n: &Node<V, K>) -> bool {
            n.slack() > 0 || n.subs().iter().any(|s| has_slack(s))
        }
        if !this.is_unique() && !has_slack(this) {
            return;
        }
        let node = NodePtr::make_mut(this);
        node.shrink_to_fit();
        node.subs_mut().iter_mut().for_each(Self::shrink_subtree);
    }

    /// If this node has exactly one child, removes and returns it with
    /// its address. A sub-node child still shared with a snapshot is
    /// cloned out (the snapshot keeps its version untouched).
    pub fn take_single_child(&mut self) -> Option<(u64, Child<V, K>)> {
        if self.n_children() != 1 {
            return None;
        }
        // A paged node has two non-empty segments.
        debug_assert_ne!(self.repr, Repr::Paged);
        let (h, is_sub) = if self.repr == Repr::Hc {
            let mut found = None;
            for h in 0..(1u64 << K) {
                match self.hc_kind(h) {
                    KIND_EMPTY => {}
                    k => {
                        found = Some((h, k == KIND_SUB));
                        break;
                    }
                }
            }
            found.expect("one child")
        } else {
            (self.lhc_addr_at(0), self.lhc_is_sub(0))
        };
        // Reset the bit string to "empty node" form (infix only).
        self.bits_resize(self.infix_bits());
        self.repr = Repr::Lhc;
        let child = if is_sub {
            Child::Sub(NodePtr::into_unique(self.subs_remove(0)))
        } else {
            Child::Post(self.vals_remove(0))
        };
        Some((h, child))
    }
}

/// Iterator over occupied slots in address order, tracking dense ranks
/// incrementally so each step is O(1) (plus empty-slot skipping in HC
/// form). Walks a paged node segment by segment.
pub(crate) struct SlotIter<'a, V, const K: usize> {
    /// The LHC/HC node being walked: the node itself, or its current
    /// segment.
    node: &'a Node<V, K>,
    /// Paged: the segments still to walk.
    rest: std::slice::Iter<'a, NodePtr<V, K>>,
    /// Bit offset of the postfix area in `node` (loop-invariant).
    pf_base: usize,
    /// Postfix stride in bits (loop-invariant).
    pb: usize,
    /// LHC: next child index. HC: next slot address.
    pos: usize,
    pr: usize,
    sr: usize,
}

impl<'a, V, const K: usize> SlotIter<'a, V, K> {
    /// Starts walking `node` (LHC: from child `pos`; HC: from slot 0),
    /// with `rest` the segments to continue in. The postfix base and
    /// the ranks at `pos` are computed here so the per-item cost stays
    /// one address/kind read.
    fn enter(node: &'a Node<V, K>, rest: std::slice::Iter<'a, NodePtr<V, K>>, pos: usize) -> Self {
        let (pf_base, pr) = if node.repr == Repr::Hc {
            (node.hc_pf_base(), 0)
        } else {
            (
                node.lhc_pf_base(node.local_children()),
                node.lhc_post_rank(pos),
            )
        };
        SlotIter {
            node,
            rest,
            pf_base,
            pb: node.post_bits(),
            pos,
            pr,
            sr: pos - pr,
        }
    }

    /// LHC or paged: the next slot whose address the window masks admit
    /// ([`hc::addr_valid`]), `None` once the scan is exhausted or past
    /// `m_u`, the largest address that can match. Slots the masks
    /// reject cost an address and a kind-bit read, nothing more.
    #[inline]
    pub fn next_masked(&mut self, m_l: u64, m_u: u64) -> Option<(u64, SlotRef<'a, V, K>)> {
        loop {
            let node = self.node;
            if self.pos >= node.local_children() {
                let seg = self.rest.next()?;
                *self = SlotIter::enter(seg, self.rest.clone(), 0);
                continue;
            }
            let j = self.pos;
            let h = node.lhc_addr_at(j);
            if h > m_u {
                return None;
            }
            self.pos += 1;
            let admitted = hc::addr_valid(h, m_l, m_u);
            if node.lhc_is_sub(j) {
                self.sr += 1;
                if admitted {
                    return Some((h, SlotRef::Sub(&node.subs()[self.sr - 1])));
                }
            } else {
                self.pr += 1;
                if admitted {
                    let pr = self.pr - 1;
                    let slot = SlotRef::Post {
                        seg: node,
                        pf_off: self.pf_base + pr * self.pb,
                        value: &node.values()[pr],
                    };
                    return Some((h, slot));
                }
            }
        }
    }
}

impl<'a, V, const K: usize> Iterator for SlotIter<'a, V, K> {
    type Item = (u64, SlotRef<'a, V, K>);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.node;
        if node.repr == Repr::Hc {
            while self.pos < (1usize << K) {
                let h = self.pos as u64;
                self.pos += 1;
                match node.hc_kind(h) {
                    KIND_EMPTY => {}
                    KIND_POST => {
                        let r = SlotRef::Post {
                            seg: node,
                            pf_off: self.pf_base + h as usize * self.pb,
                            value: &node.values()[self.pr],
                        };
                        self.pr += 1;
                        return Some((h, r));
                    }
                    _ => {
                        let r = SlotRef::Sub(&node.subs()[self.sr]);
                        self.sr += 1;
                        return Some((h, r));
                    }
                }
            }
            None
        } else {
            self.next_masked(0, u64::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key2(a: u64, b: u64) -> [u64; 2] {
        [a, b]
    }

    /// Builds a node at split bit 3 with infix length 2 over the given
    /// prefix key.
    fn test_node() -> Node<u32, 2> {
        // post_len 3, infix_len 2: covers key bits 4..=5 as infix.
        Node::new(3, 2, &key2(0b11_0000, 0b01_0000))
    }

    #[test]
    fn infix_roundtrip_and_match() {
        let n = test_node();
        assert!(n.infix_matches(&key2(0b11_1010, 0b01_0101)));
        assert!(!n.infix_matches(&key2(0b10_1010, 0b01_0101)));
        let mut k = key2(0, 0);
        n.read_infix_into(&mut k);
        assert_eq!(k, key2(0b11_0000, 0b01_0000));
    }

    #[test]
    fn lhc_insert_lookup_remove_posts() {
        let mut n = test_node();
        let mode = ReprMode::ForceLhc;
        // Three postfix entries at addresses 0b01, 0b10, 0b11.
        for (h, lo) in [(0b01u64, 0b101u64), (0b10, 0b010), (0b11, 0b111)] {
            let mut k = key2(0b11_0000, 0b01_0000);
            phbits::hc::apply_addr(&mut k, h, 3);
            k[0] |= lo;
            k[1] |= lo ^ 0b111;
            n.insert_post(h, &k, h as u32, mode);
        }
        n.check_invariants(false);
        assert_eq!(n.n_children(), 3);
        assert_eq!(n.n_posts(), 3);
        assert!(!n.is_hc());
        assert!(n.get_slot(0b00).is_none());
        for h in [0b01u64, 0b10, 0b11] {
            match n.get_slot(h) {
                Some(SlotRef::Post { pf_off, value, .. }) => {
                    assert_eq!(*value, h as u32);
                    // The postfix must reproduce the low bits we stored.
                    let mut k = key2(0, 0);
                    n.read_postfix_into(pf_off, &mut k);
                    let lo = match h {
                        0b01 => 0b101,
                        0b10 => 0b010,
                        _ => 0b111,
                    };
                    assert_eq!(k[0] & 0b111, lo);
                    assert_eq!(k[1] & 0b111, lo ^ 0b111);
                }
                _ => panic!("expected post at {h:#b}"),
            }
        }
        // Remove the middle entry; ranks must stay consistent.
        assert_eq!(n.remove_post(0b10, mode), 0b10);
        n.check_invariants(false);
        assert!(n.get_slot(0b10).is_none());
        assert!(matches!(n.get_slot(0b01), Some(SlotRef::Post { .. })));
        assert!(matches!(n.get_slot(0b11), Some(SlotRef::Post { .. })));
    }

    #[test]
    fn hc_conversion_preserves_slots() {
        let mut n: Node<u32, 2> = Node::new(1, 0, &[0, 0]);
        let mode = ReprMode::Adaptive;
        // post_len 1 → postfix 1 bit per dim; fill the whole 2-D cube so
        // the size comparison flips to HC.
        for h in 0..4u64 {
            let mut k = [0u64, 0];
            phbits::hc::apply_addr(&mut k, h, 1);
            k[0] |= h & 1;
            n.insert_post(h, &k, h as u32, mode);
        }
        assert!(n.is_hc(), "a full k=2 node must use the hypercube");
        n.check_invariants(false);
        for h in 0..4u64 {
            let Some(SlotRef::Post { pf_off, value, .. }) = n.get_slot(h) else {
                panic!("missing slot {h}");
            };
            assert_eq!(*value, h as u32);
            let mut k = [0u64, 0];
            n.read_postfix_into(pf_off, &mut k);
            assert_eq!(k[0] & 1, h & 1);
        }
        // Removing two entries flips it back to LHC.
        n.remove_post(0, mode);
        n.remove_post(3, mode);
        assert!(!n.is_hc());
        n.check_invariants(false);
        assert_eq!(n.n_children(), 2);
    }

    #[test]
    fn forced_hc_from_the_start() {
        let mut n: Node<(), 3> = Node::new(5, 0, &[0; 3]);
        let mode = ReprMode::ForceHc;
        n.maybe_switch_repr(mode);
        assert!(n.is_hc());
        n.insert_post(0b101, &[0b01_0101, 0b00_0000, 0b01_1111], (), mode);
        n.insert_post(0b010, &[0b00_0101, 0b01_0000, 0b00_1111], (), mode);
        assert!(n.is_hc());
        n.check_invariants(false);
        assert!(matches!(n.get_slot(0b101), Some(SlotRef::Post { .. })));
        assert!(n.get_slot(0b000).is_none());
        assert_eq!(n.remove_post(0b101, mode), ());
        assert!(n.is_hc(), "forced mode must not fall back");
    }

    #[test]
    fn sub_insert_swap_and_ranks() {
        let mut n = test_node();
        let mode = ReprMode::ForceLhc;
        let prefix = key2(0b11_0000, 0b01_0000);
        n.insert_post(0b00, &prefix, 7, mode);
        let child = Node::new(1, 1, &prefix);
        n.insert_sub(0b10, child, mode);
        let mut k2 = prefix;
        k2[0] |= 0b111;
        n.insert_post(0b11, &k2, 9, mode);
        assert_eq!(n.n_children(), 3);
        assert_eq!(n.n_posts(), 2);
        assert_eq!(n.n_subs(), 1);
        assert!(matches!(n.get_slot(0b10), Some(SlotRef::Sub(_))));
        assert!(n.sub_mut(0b10).is_some());
        assert!(n.sub_mut(0b11).is_none());
        // Swap the sub for another; the old one comes back out.
        let other = Node::new(0, 2, &prefix);
        let old = n.swap_sub(0b10, other);
        assert_eq!(old.post_len, 1);
        // Replace the sub with a post (merge-up path).
        n.replace_sub_with_post(0b10, &prefix, 42, mode);
        assert_eq!(n.n_subs(), 0);
        assert_eq!(n.n_posts(), 3);
        assert_eq!(n.replace_post_value(0b10, 43), 42);
    }

    #[test]
    fn take_single_child_post_and_sub() {
        let mode = ReprMode::ForceLhc;
        let prefix = key2(0, 0);
        let mut n: Node<u32, 2> = Node::new(2, 0, &prefix);
        n.insert_post(0b01, &key2(0b100, 0b011), 5, mode);
        let (h, c) = n.take_single_child().unwrap();
        assert_eq!(h, 0b01);
        assert!(matches!(c, Child::Post(5)));
        assert_eq!(n.n_children(), 0);

        let mut n: Node<u32, 2> = Node::new(2, 0, &prefix);
        n.insert_sub(0b11, Node::new(0, 1, &prefix), mode);
        let (h, c) = n.take_single_child().unwrap();
        assert_eq!(h, 0b11);
        assert!(matches!(c, Child::Sub(_)));

        let mut n: Node<u32, 2> = Node::new(2, 0, &prefix);
        n.insert_post(0b00, &prefix, 1, mode);
        n.insert_post(0b01, &key2(0b100, 0b000), 2, mode);
        assert!(n.take_single_child().is_none(), "two children");
    }

    #[test]
    fn reset_infix_shrink_and_grow() {
        let mut n = test_node();
        let mode = ReprMode::ForceLhc;
        let prefix = key2(0b11_0000, 0b01_0000);
        n.insert_post(0b01, &key2(0b11_0101, 0b01_0010), 1, mode);
        // Shrink the infix to 1 bit per dim.
        n.reset_infix(1, &prefix, mode);
        assert_eq!(n.infix_len, 1);
        assert!(n.infix_matches(&key2(0b01_0000, 0b01_0000)));
        // The postfix survived the relayout.
        let Some(SlotRef::Post { pf_off, .. }) = n.get_slot(0b01) else {
            panic!()
        };
        let mut k = key2(0, 0);
        n.read_postfix_into(pf_off, &mut k);
        assert_eq!(k, key2(0b101, 0b010));
        // Grow it back to 2 bits per dim.
        n.reset_infix(2, &prefix, mode);
        assert!(n.infix_matches(&key2(0b11_0000, 0b01_0000)));
        let Some(SlotRef::Post { pf_off, .. }) = n.get_slot(0b01) else {
            panic!()
        };
        let mut k = key2(0, 0);
        n.read_postfix_into(pf_off, &mut k);
        assert_eq!(k, key2(0b101, 0b010));
    }

    #[test]
    fn slot_iter_visits_in_addr_order_with_correct_ranks() {
        let mut n = test_node();
        let mode = ReprMode::ForceLhc;
        let prefix = key2(0b11_0000, 0b01_0000);
        n.insert_post(0b11, &key2(0b11_0001, 0b01_0001), 11, mode);
        n.insert_sub(0b01, Node::new(1, 1, &prefix), mode);
        n.insert_post(0b00, &prefix, 10, mode);
        let kinds: Vec<(u64, bool)> = n
            .iter_slots()
            .map(|(h, s)| (h, matches!(s, SlotRef::Sub(_))))
            .collect();
        assert_eq!(kinds, vec![(0b00, false), (0b01, true), (0b11, false)]);
        // Values map to the right posts.
        let vals: Vec<u32> = n
            .iter_slots()
            .filter_map(|(_, s)| match s {
                SlotRef::Post { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(vals, vec![10, 11]);
    }

    #[test]
    fn zero_post_len_entries() {
        // post_len 0: entries are fully determined by their address.
        let mut n: Node<u8, 3> = Node::new(0, 0, &[0; 3]);
        let mode = ReprMode::Adaptive;
        for h in [0u64, 3, 5, 7] {
            let mut k = [0u64; 3];
            phbits::hc::apply_addr(&mut k, h, 0);
            n.insert_post(h, &k, h as u8, mode);
        }
        n.check_invariants(false);
        for h in [0u64, 3, 5, 7] {
            let Some(SlotRef::Post { pf_off, value, .. }) = n.get_slot(h) else {
                panic!("missing {h}");
            };
            assert_eq!(*value, h as u8);
            assert!(
                n.postfix_matches(pf_off, &[0; 3]),
                "empty postfix matches all"
            );
        }
        assert_eq!(n.remove_post(5, mode), 5);
        assert!(n.get_slot(5).is_none());
    }
    // ------------------------------------------------------------------
    // Paged LHC
    // ------------------------------------------------------------------

    /// Every node pays its handle and its header once, so the
    /// bytes/entry figures of the small-node (K = 3) workloads hang on
    /// these sizes.
    #[test]
    fn node_struct_size_is_pinned() {
        const { assert!(crate::block::HEADER_BYTES <= 32) };
        assert_eq!(std::mem::size_of::<Node<u64, 3>>(), 8);
        assert_eq!(std::mem::size_of::<Option<NodePtr<(), 20>>>(), 8);
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// The key at address `h` of a `K`-dimensional node splitting at
    /// the top bit, with arbitrary low bits.
    fn cube_key<const K: usize>(h: u64) -> [u64; K] {
        let mut key: [u64; K] = std::array::from_fn(|d| splitmix(h << 8 | d as u64) >> 1);
        phbits::hc::apply_addr(&mut key, h, 63);
        key
    }

    /// A root-shaped node holding postfix entries at `addrs`.
    fn wide_node<const K: usize>(addrs: impl Iterator<Item = u64>) -> Node<u64, K> {
        let mut n = Node::new(63, 0, &[0; K]);
        for h in addrs {
            n.insert_post(h, &cube_key(h), h, ReprMode::Adaptive);
        }
        n
    }

    fn slots<const K: usize>(n: &Node<u64, K>) -> Vec<(u64, [u64; K], u64)> {
        n.iter_slots()
            .map(|(h, slot)| match slot {
                SlotRef::Post { seg, pf_off, value } => {
                    let mut key = [0u64; K];
                    phbits::hc::apply_addr(&mut key, h, 63);
                    seg.read_postfix_into(pf_off, &mut key);
                    (h, key, *value)
                }
                SlotRef::Sub(_) => panic!("these nodes hold no sub-nodes"),
            })
            .collect()
    }

    #[test]
    fn k8_node_goes_lhc_paged_hc_and_back() {
        let mode = ReprMode::Adaptive;
        let mut n: Node<u64, 8> = Node::new(63, 0, &[0; 8]);
        let mut seen = vec![n.repr];
        // Scattered insertion order, so splits happen all over.
        let order: Vec<u64> = (0..256u64).map(|i| i * 37 % 256).collect();
        for &h in &order {
            n.insert_post(h, &cube_key(h), h, mode);
            n.validate_local().unwrap();
            if *seen.last().unwrap() != n.repr {
                seen.push(n.repr);
            }
        }
        assert_eq!(n.n_children(), 256);
        for &h in &order {
            assert_eq!(n.remove_post(h, mode), h);
            n.validate_local().unwrap();
            let want: Vec<u64> = order
                .iter()
                .copied()
                .filter(|x| n.get_slot(*x).is_some())
                .collect();
            assert_eq!(want.len(), n.n_children());
            if *seen.last().unwrap() != n.repr {
                seen.push(n.repr);
            }
        }
        assert_eq!(
            seen,
            [Repr::Lhc, Repr::Paged, Repr::Hc, Repr::Paged, Repr::Lhc]
        );
        assert_eq!(n.n_children(), 0);
    }

    #[test]
    fn paged_node_matches_its_flat_form() {
        // Same children built by sequential insertion (paged on the
        // way), by the bulk constructor, and decoded from logical parts.
        let addrs = || (0..(1u64 << 20)).step_by(2099);
        let seq: Node<u64, 20> = wide_node(addrs());
        assert_eq!(seq.repr, Repr::Paged);
        seq.validate_local().unwrap();
        assert!(seq.segments().len() >= 10);
        for seg in seq.segments() {
            assert!(seg.bits_len() <= PAGE_BITS && seg.bits_len() >= PAGE_BITS / 4);
        }
        let bulk = Node::from_children(
            63,
            0,
            &[0; 20],
            addrs()
                .map(|h| {
                    (
                        h,
                        BulkChild::Post {
                            key: cube_key(h),
                            value: h,
                        },
                    )
                })
                .collect(),
            ReprMode::Adaptive,
        );
        assert_eq!(bulk.repr, Repr::Paged);
        bulk.validate_local().unwrap();
        assert_eq!(seq.logical_bits(), bulk.logical_bits());
        assert_eq!(slots(&seq), slots(&bulk));
        let (words, len) = seq.logical_bits();
        let decoded = Node::from_parts(
            63,
            0,
            false,
            &BitBuf::from_words(words.into_owned().into(), len).unwrap(),
            Vec::new(),
            seq.post_values().copied().collect(),
        )
        .unwrap();
        assert_eq!(decoded.repr, Repr::Paged);
        decoded.validate_local().unwrap();
        assert_eq!(slots(&decoded), slots(&seq));
        // Lookups resolve through the fences.
        for h in addrs() {
            assert!(matches!(seq.get_slot(h), Some(SlotRef::Post { value, .. }) if *value == h));
            assert!(seq.get_slot(h + 1).is_none());
        }
    }

    #[test]
    fn corrupt_paged_nodes_are_rejected_not_panicked_on() {
        let good: Node<u64, 20> = wide_node((0..(1u64 << 20)).step_by(6007));
        assert_eq!(good.repr, Repr::Paged);
        good.validate_local().unwrap();
        let segs = good.subs().len();
        let ib = good.infix_bits();
        let corrupt = |f: &dyn Fn(&mut Node<u64, 20>)| {
            let mut bad = good.clone();
            f(&mut bad);
            bad.validate_local()
                .expect_err("corruption must be detected")
        };
        // A fence that is not its segment's first address.
        for i in 0..segs {
            let off = good.fence_off(i);
            assert!(corrupt(&|n| n.write_bits(off, good.fence(i) ^ 1, 20)).contains("fence"));
        }
        // Fences exchanged, all ones, all zero.
        corrupt(&|n| {
            let (a, b) = (n.fence(1), n.fence(2));
            n.write_bits(n.fence_off(1), b, 20);
            n.write_bits(n.fence_off(2), a, 20);
        });
        corrupt(&|n| n.write_bits(n.fence_off(segs - 1), (1 << 20) - 1, 20));
        corrupt(&|n| n.write_bits(n.fence_off(1), 0, 20));
        // A fence too few, a fence too many.
        corrupt(&|n| n.bits_resize(n.bits_len() - 20));
        corrupt(&|n| n.bits_resize(n.bits_len() + 20));
        // Counters off.
        corrupt(&|n| n.write_bits(ib, 1, 32));
        corrupt(&|n| n.write_bits(ib + 32, 0, 32));
        // Segments out of order, missing, duplicated, or not segments.
        corrupt(&|n| n.subs_mut().swap(0, 1));
        corrupt(&|n| {
            n.subs_remove(segs - 1);
        });
        corrupt(&|n| n.subs_mut()[1] = n.subs()[0].clone());
        corrupt(&|n| NodePtr::make_mut(&mut n.subs_mut()[0]).infix_len = 1);
        corrupt(&|n| NodePtr::make_mut(&mut n.subs_mut()[0]).post_len = 62);
        corrupt(&|n| n.subs_mut()[0] = good.clone().into());
        corrupt(&|n| {
            let first = n.take_subs().swap_remove(0);
            n.push_sub(first);
        });
        corrupt(&|n| n.push_val(7));
    }

    #[test]
    fn an_edit_copies_one_segment_of_a_shared_node() {
        let mode = ReprMode::Adaptive;
        let mut n: Node<u64, 20> = wide_node((0..(1u64 << 20)).step_by(1013));
        assert_eq!(n.repr, Repr::Paged);
        let shared = |a: &Node<u64, 20>, b: &Node<u64, 20>| {
            a.subs()
                .iter()
                .filter(|s| b.subs().iter().any(|t| NodePtr::ptr_eq(s, t)))
                .count()
        };
        let first = n.clone();
        let before = slots(&first);
        for i in 0..1000u64 {
            let snapshot = n.clone();
            let h = splitmix(i) % (1 << 20);
            match n.get_slot(h) {
                None => n.insert_post(h, &cube_key(h), h, mode),
                Some(_) if i % 2 == 0 => assert_eq!(n.remove_post(h, mode), h),
                Some(_) => assert_eq!(n.replace_post_value(h, h), h),
            }
            n.validate_local().unwrap();
            // Every segment of the snapshot but the edited one (and, on
            // a merge, its neighbour) is still the very same allocation.
            assert!(
                shared(&snapshot, &n) >= snapshot.subs().len() - 2,
                "write {i}"
            );
        }
        assert_eq!(slots(&first), before);
        first.validate_local().unwrap();
    }
}
