//! One heap block per node: the only `unsafe` code of this crate.
//!
//! A node is a single refcounted allocation
//! `[header | bit-string words | child handles | values | slack]`, the
//! regions packed back to back (values at the next multiple of their
//! alignment), so a descent reads one run of cache lines per level and
//! a path copy is one allocation. [`Node`] is the unique handle to a
//! block and [`NodePtr`] the shared one over the same pointer, what a
//! parent's child-handle region holds. Everything exported is safe;
//! DESIGN.md §19 argues why, in short:
//!
//! * whenever a method returns, `size_for(counts) <= capacity` and the
//!   header's counts are the numbers of *initialised* words, handles
//!   and values; an edit initialises (or moves out) memory and updates
//!   the count in one `unsafe` block nothing can panic in;
//! * views are built from the allocation's own pointer and no `&Header`
//!   is ever formed, so nothing reaches the tail through a reference
//!   to the head;
//! * only `&mut Node` writes, and a `Node` by value or behind
//!   [`NodePtr::make_mut`] is the one handle to its block;
//! * the refcount follows `std::sync::Arc`: `Release` decrement,
//!   `Acquire` fence before the free, abort on overflow.

use std::alloc::{self, Layout};
use std::marker::PhantomData;
use std::mem::{align_of, size_of};
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};
use std::sync::atomic::{fence, AtomicU32, Ordering};

/// Physical representation of a node (see the `node` module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Repr {
    /// Linear hypercube; also what every segment of a paged node is.
    Lhc,
    /// Full hypercube.
    Hc,
    /// LHC cut into address-ordered segments.
    Paged,
}

/// The header fields a node's logic reads and writes directly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Meta {
    /// Number of key bits per dimension below this node's split bit;
    /// also the split bit position itself (0 = LSB).
    pub post_len: u8,
    /// Number of prefix bits per dimension stored in this node's infix.
    pub infix_len: u8,
    /// Which of the three layouts the regions are in.
    pub repr: Repr,
}

impl Meta {
    pub fn new(post_len: u8, infix_len: u8, repr: Repr) -> Self {
        Meta {
            post_len,
            infix_len,
            repr,
        }
    }
}

#[repr(C)]
struct Header {
    /// Handles to this block.
    refs: AtomicU32,
    /// Size of the block, in units of 8 bytes.
    cap8: u32,
    /// Length of the bit string, in bits.
    bits_len: u32,
    n_subs: u32,
    n_vals: u32,
    meta: Meta,
}

/// Bytes of a block before its first bit-string word.
pub(crate) const HEADER_BYTES: usize = size_of::<Header>();
const _: () = assert!(HEADER_BYTES == 24 && align_of::<Header>() <= 8);

/// Bytes of one child handle.
const PTR: usize = size_of::<usize>();

/// The unique handle to a node's block; the `node` module holds the
/// PH-tree logic over it, this one only knows regions and counts.
pub(crate) struct Node<V, const K: usize> {
    ptr: NonNull<Header>,
    _owns: PhantomData<V>,
}

// SAFETY: a node owns its values and, through child handles whose
// blocks other threads may share, reaches values it does not own
// alone: `Arc<T>`'s position, hence `Arc<T>`'s bounds. The refcount is
// atomic; everything else is written under `&mut`.
unsafe impl<V: Send + Sync, const K: usize> Send for Node<V, K> {}
// SAFETY: as above; `&Node` only reads.
unsafe impl<V: Send + Sync, const K: usize> Sync for Node<V, K> {}

impl<V, const K: usize> Node<V, K> {
    /// Offset of the value region behind `words` words and `subs`
    /// child handles.
    fn vals_off(words: usize, subs: usize) -> usize {
        (HEADER_BYTES + 8 * words + PTR * subs).next_multiple_of(align_of::<V>())
    }

    /// Bytes a block holding these counts takes, a multiple of 8.
    fn size_for(words: usize, subs: usize, vals: usize) -> usize {
        let size = || {
            let head = words.checked_mul(8)?.checked_add(subs.checked_mul(PTR)?)?;
            (head.checked_add(HEADER_BYTES)?)
                .checked_next_multiple_of(align_of::<V>())?
                .checked_add(vals.checked_mul(size_of::<V>())?)?
                .checked_next_multiple_of(8)
        };
        size().expect("node block size overflows")
    }

    /// The layout of a block of `cap` bytes.
    fn layout(cap: usize) -> Layout {
        assert!(cap / 8 <= u32::MAX as usize, "node block over 32 GiB");
        Layout::from_size_align(cap, align_of::<V>().max(8)).expect("node block layout")
    }

    /// An empty node — no bits, no children — in a block with room for
    /// `bits` bits, `subs` child handles and `vals` values.
    pub fn with_capacity(meta: Meta, bits: usize, subs: usize, vals: usize) -> Self {
        let cap = Self::size_for(bits.div_ceil(64), subs, vals);
        let layout = Self::layout(cap);
        // SAFETY: `cap >= HEADER_BYTES`, so the layout is not zero-sized.
        let block = unsafe { alloc::alloc(layout) }.cast::<Header>();
        let Some(ptr) = NonNull::new(block) else {
            alloc::handle_alloc_error(layout)
        };
        let header = Header {
            refs: AtomicU32::new(1),
            cap8: (cap / 8) as u32,
            bits_len: 0,
            n_subs: 0,
            n_vals: 0,
            meta,
        };
        // SAFETY: the block is at least a header long and 8-aligned.
        unsafe { ptr.as_ptr().write(header) };
        Node {
            ptr,
            _owns: PhantomData,
        }
    }

    #[inline]
    fn hdr(&self) -> *mut Header {
        self.ptr.as_ptr()
    }

    /// Numbers of initialised words, child handles and values.
    #[inline]
    fn counts(&self) -> (usize, usize, usize) {
        let h = self.hdr();
        // SAFETY: `ptr` is this block's initialised header while any
        // handle lives. These fields are written only under `&mut` of
        // the unique handle, which `&self` excludes, and are read in
        // place, without forming a reference.
        let (bits, s, v) = unsafe { ((*h).bits_len, (*h).n_subs, (*h).n_vals) };
        ((bits as usize).div_ceil(64), s as usize, v as usize)
    }

    /// The three regions, derived from the allocation's own pointer.
    #[inline]
    fn regions(&self) -> (*mut [u64], *mut [NodePtr<V, K>], *mut [V]) {
        let (w, s, v) = self.counts();
        let base = self.hdr().cast::<u8>();
        // SAFETY: the offsets are at most `size_for(counts)`, which is
        // at most the block's size (module invariant), so each `add`
        // stays inside the allocation or one past it.
        unsafe {
            (
                ptr::slice_from_raw_parts_mut(base.add(HEADER_BYTES).cast(), w),
                ptr::slice_from_raw_parts_mut(base.add(HEADER_BYTES + 8 * w).cast(), s),
                ptr::slice_from_raw_parts_mut(base.add(Self::vals_off(w, s)).cast(), v),
            )
        }
    }

    /// Length of the bit string in bits.
    #[inline]
    pub fn bits_len(&self) -> usize {
        // SAFETY: as in `counts`.
        unsafe { (*self.hdr()).bits_len as usize }
    }

    /// Size of the block in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        // SAFETY: as in `counts`.
        unsafe { (*self.hdr()).cap8 as usize * 8 }
    }

    /// Bytes of the block no region uses.
    pub fn slack(&self) -> usize {
        let (w, s, v) = self.counts();
        self.capacity() - Self::size_for(w, s, v)
    }

    /// The words holding the bit string: `ceil(bits_len / 64)`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        // SAFETY: the region's words were zeroed by `bits_resize` as
        // they appeared and sit 8-aligned at offset 24 of a block
        // aligned to 8 or more; only `&mut self` writes them.
        unsafe { &*self.regions().0 }
    }

    /// The child handles.
    #[inline]
    pub fn subs(&self) -> &[NodePtr<V, K>] {
        // SAFETY: `subs_insert` wrote each of the `n_subs` handles, at
        // a multiple of 8; a handle is one non-null pointer.
        unsafe { &*self.regions().1 }
    }

    /// The values.
    #[inline]
    pub fn values(&self) -> &[V] {
        // SAFETY: `vals_insert` wrote each of the `n_vals` values, at
        // `vals_off`, a multiple of `V`'s alignment in a block aligned
        // to it (for a zero-sized `V` any aligned pointer does).
        unsafe { &*self.regions().2 }
    }

    /// [`Node::words`], mutably.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        // SAFETY: as `words`; `&mut self` is the block's only handle.
        unsafe { &mut *self.regions().0 }
    }

    /// [`Node::subs`], mutably.
    #[inline]
    pub fn subs_mut(&mut self) -> &mut [NodePtr<V, K>] {
        // SAFETY: as `subs`; `&mut self` is the block's only handle.
        unsafe { &mut *self.regions().1 }
    }

    /// [`Node::values`], mutably.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [V] {
        // SAFETY: as `values`; `&mut self` is the block's only handle.
        unsafe { &mut *self.regions().2 }
    }

    /// Resizes the block to `cap` bytes, at least what its regions use.
    fn realloc(&mut self, cap: usize) {
        let (old, new) = (Self::layout(self.capacity()), Self::layout(cap));
        // SAFETY: the block was allocated (or last resized) with `old`;
        // `new` is a valid non-zero layout of the same alignment.
        let block = unsafe { alloc::realloc(self.hdr().cast(), old, cap) }.cast::<Header>();
        let Some(ptr) = NonNull::new(block) else {
            alloc::handle_alloc_error(new)
        };
        self.ptr = ptr;
        // SAFETY: `realloc` carried the header over to the new block.
        unsafe { (*ptr.as_ptr()).cap8 = (cap / 8) as u32 };
    }

    /// Makes room for `bits` bits, `subs` child handles and `vals`
    /// values in total; a block too small grows to an eighth more.
    pub fn reserve(&mut self, bits: usize, subs: usize, vals: usize) {
        let need = Self::size_for(bits.div_ceil(64), subs, vals);
        if need > self.capacity() {
            self.realloc((need + need / 8).next_multiple_of(8));
        }
    }

    /// Gives the block's slack back to the allocator.
    pub fn shrink_to_fit(&mut self) {
        if self.slack() > 0 {
            self.realloc(self.capacity() - self.slack());
        }
    }

    /// Moves the child-handle and value regions to where a node of
    /// `nw` words and `ns` child handles keeps them (the first
    /// `min(old, ns)` handles move). The header's counts are the
    /// caller's to update.
    fn slide(&mut self, nw: usize, ns: usize) {
        let (w, s, v) = self.counts();
        assert!(Self::size_for(nw, ns, v) <= self.capacity());
        let (from_s, to_s) = (HEADER_BYTES + 8 * w, HEADER_BYTES + 8 * nw);
        let (from_v, to_v) = (Self::vals_off(w, s), Self::vals_off(nw, ns));
        let base = self.hdr().cast::<u8>();
        // SAFETY: the old layout fits the block by the module invariant
        // and the new one by the assertion, so all four ranges are in
        // bounds; `copy` is a memmove. Both regions move the same way
        // (offsets are monotone in `nw` and `ns`), and the one moving
        // into free space goes first, so neither move overwrites bytes
        // the other has yet to read.
        unsafe {
            let subs = || ptr::copy(base.add(from_s), base.add(to_s), PTR * s.min(ns));
            let vals = || ptr::copy(base.add(from_v), base.add(to_v), v * size_of::<V>());
            if to_v >= from_v {
                vals();
                subs();
            } else {
                subs();
                vals();
            }
        }
    }

    /// Sets the bit string's length: new words (and, on a cut, the bits
    /// past the new end of the last word) read zero.
    pub fn bits_resize(&mut self, bits: usize) {
        let len = u32::try_from(bits).expect("bit string over 2^32 bits");
        let (w, s, v) = self.counts();
        let nw = bits.div_ceil(64);
        self.reserve(bits, s, v);
        self.slide(nw, s);
        // SAFETY: the `nw` words lie inside the block (`reserve`); those
        // past the old `w` may never have been written, so they are
        // zeroed through the raw pointer before the length (and with it
        // every slice) covers them.
        unsafe {
            let new = self.regions().0.cast::<u64>().add(w.min(nw));
            ptr::write_bytes(new, 0, nw.saturating_sub(w));
            (*self.hdr()).bits_len = len;
        }
        if !bits.is_multiple_of(64) {
            self.words_mut()[nw - 1] &= (1 << (bits % 64)) - 1;
        }
    }

    /// Inserts a child handle at index `i`.
    pub fn subs_insert(&mut self, i: usize, sub: NodePtr<V, K>) {
        let (w, s, v) = self.counts();
        assert!(i <= s, "child index out of bounds");
        let n = u32::try_from(s + 1).expect("child count overflows");
        self.reserve(self.bits_len(), s + 1, v);
        self.slide(w, s + 1);
        // SAFETY: the region now has room for `s + 1` handles; the tail
        // moves up one slot, the hole is filled, and only then does the
        // count cover it.
        unsafe {
            let at = self.regions().1.cast::<NodePtr<V, K>>().add(i);
            ptr::copy(at, at.add(1), s - i);
            at.write(sub);
            (*self.hdr()).n_subs = n;
        }
    }

    /// Removes and returns the child handle at index `i`.
    pub fn subs_remove(&mut self, i: usize) -> NodePtr<V, K> {
        let (w, s, _) = self.counts();
        assert!(i < s, "child index out of bounds");
        // SAFETY: slot `i` is initialised and is moved out exactly
        // once: the tail closes over it and the count drops before
        // anything else can observe the region (`slide` cannot fail
        // when shrinking).
        unsafe {
            let at = self.regions().1.cast::<NodePtr<V, K>>().add(i);
            let sub = at.read();
            ptr::copy(at.add(1), at, s - i - 1);
            self.slide(w, s - 1);
            (*self.hdr()).n_subs = (s - 1) as u32;
            sub
        }
    }

    /// Inserts a value at index `i`.
    pub fn vals_insert(&mut self, i: usize, value: V) {
        let (_, s, v) = self.counts();
        assert!(i <= v, "value index out of bounds");
        let n = u32::try_from(v + 1).expect("value count overflows");
        self.reserve(self.bits_len(), s, v + 1);
        // SAFETY: as `subs_insert`, on the last region.
        unsafe {
            let at = self.regions().2.cast::<V>().add(i);
            ptr::copy(at, at.add(1), v - i);
            at.write(value);
            (*self.hdr()).n_vals = n;
        }
    }

    /// Removes and returns the value at index `i`.
    pub fn vals_remove(&mut self, i: usize) -> V {
        let v = self.counts().2;
        assert!(i < v, "value index out of bounds");
        // SAFETY: as `subs_remove`, on the last region.
        unsafe {
            let at = self.regions().2.cast::<V>().add(i);
            let value = at.read();
            ptr::copy(at.add(1), at, v - i - 1);
            (*self.hdr()).n_vals = (v - 1) as u32;
            value
        }
    }
}

impl<V, const K: usize> Deref for Node<V, K> {
    type Target = Meta;

    #[inline]
    fn deref(&self) -> &Meta {
        // SAFETY: the header is initialised; `meta` is written only
        // through `deref_mut`, which `&self` excludes; the reference
        // covers `meta`'s bytes alone.
        unsafe { &*ptr::addr_of!((*self.hdr()).meta) }
    }
}

impl<V, const K: usize> DerefMut for Node<V, K> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Meta {
        // SAFETY: as `deref`; `&mut self` is the block's only handle.
        unsafe { &mut *ptr::addr_of_mut!((*self.hdr()).meta) }
    }
}

/// The deep copy behind copy-on-write: a block of exactly the used
/// size holding clones of the values and new handles to the children.
impl<V: Clone, const K: usize> Clone for Node<V, K> {
    fn clone(&self) -> Self {
        let (subs, vals) = (self.subs(), self.values());
        let mut new = Node::with_capacity(**self, self.bits_len(), subs.len(), vals.len());
        new.bits_resize(self.bits_len());
        new.words_mut().copy_from_slice(self.words());
        // SAFETY: `new` was sized for `subs.len()` handles and
        // `vals.len()` values, so every write lands inside its block,
        // at the offsets the counts written so far give (handles first:
        // the value region starts behind all of them). A slot is
        // written, then counted: if `V::clone` panics, dropping `new`
        // releases exactly the clones made so far.
        unsafe {
            let h = new.hdr();
            let to = new.regions().1.cast::<NodePtr<V, K>>();
            for (i, sub) in subs.iter().enumerate() {
                to.add(i).write(sub.clone());
                (*h).n_subs = i as u32 + 1;
            }
            let to = new.regions().2.cast::<V>();
            for (i, value) in vals.iter().enumerate() {
                to.add(i).write(value.clone());
                (*h).n_vals = i as u32 + 1;
            }
        }
        new
    }
}

impl<V, const K: usize> Drop for Node<V, K> {
    fn drop(&mut self) {
        // SAFETY: the header is initialised. `Release` orders this
        // handle's accesses before the decrement; the last handle's
        // `Acquire` fence orders every other handle's before the free.
        if unsafe { (*self.hdr()).refs.fetch_sub(1, Ordering::Release) } != 1 {
            return;
        }
        fence(Ordering::Acquire);
        let (_, subs, vals) = self.regions();
        let layout = Self::layout(self.capacity());
        // SAFETY: this was the last handle, so the block is ours alone:
        // its values and child handles are initialised and are dropped
        // once each, then the block is freed with the layout it was
        // last sized to.
        unsafe {
            ptr::drop_in_place(vals);
            ptr::drop_in_place(subs);
            alloc::dealloc(self.hdr().cast(), layout);
        }
    }
}

/// A shared handle to a node's block: what `Arc<Node>` was. Cloning
/// bumps the refcount; the block is freed with its last handle.
#[repr(transparent)]
pub(crate) struct NodePtr<V, const K: usize>(Node<V, K>);

impl<V, const K: usize> NodePtr<V, K> {
    /// Whether this is the only handle to its block.
    #[inline]
    pub fn is_unique(&self) -> bool {
        // SAFETY: the header is initialised. `Acquire` pairs with the
        // `Release` decrement of every handle dropped before, so their
        // reads are done before the caller writes.
        unsafe { (*self.0.hdr()).refs.load(Ordering::Acquire) == 1 }
    }

    /// Whether both handles name the same block.
    #[cfg(test)]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.0.ptr == b.0.ptr
    }
}

impl<V: Clone, const K: usize> NodePtr<V, K> {
    /// Mutable access to the node, deep-copied first if another handle
    /// shares it (copy-on-write).
    #[inline]
    pub fn make_mut(this: &mut Self) -> &mut Node<V, K> {
        if !this.is_unique() {
            *this = NodePtr(this.0.clone());
        }
        // The count is 1 and `this` is that one handle, borrowed
        // mutably: nothing else can read the block or clone a handle.
        &mut this.0
    }

    /// The node itself if this is its only handle, else a deep copy.
    pub fn into_unique(self) -> Node<V, K> {
        if self.is_unique() {
            self.0
        } else {
            self.0.clone()
        }
    }
}

impl<V, const K: usize> Clone for NodePtr<V, K> {
    #[inline]
    fn clone(&self) -> Self {
        // SAFETY: the header is initialised. `Relaxed` suffices: the
        // new handle is made from a live one, as in `Arc::clone`.
        let refs = unsafe { (*self.0.hdr()).refs.fetch_add(1, Ordering::Relaxed) };
        // As `Arc`: a count this high means handles are being leaked;
        // abort long before the counter can wrap to a premature free.
        if refs > i32::MAX as u32 {
            std::process::abort();
        }
        NodePtr(Node {
            ptr: self.0.ptr,
            _owns: PhantomData,
        })
    }
}

impl<V, const K: usize> Deref for NodePtr<V, K> {
    type Target = Node<V, K>;

    #[inline]
    fn deref(&self) -> &Node<V, K> {
        &self.0
    }
}

/// Sharing a node neither allocates nor copies.
impl<V, const K: usize> From<Node<V, K>> for NodePtr<V, K> {
    fn from(node: Node<V, K>) -> Self {
        NodePtr(node)
    }
}
