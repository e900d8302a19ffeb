//! The node read seam, and the point and window traversals written
//! over it.
//!
//! The paper's point query (Sect. 3.4: infix check → hypercube address
//! → slot) and window query (Sect. 3.5: masks `mL`/`mU`, constant-time
//! successor, "simply iterate" below a node that lies inside the
//! window) do not care where a node's bits live. [`NodeRead`] is what
//! they — and the best-first search of [`crate::knn`] — need from a
//! node; it is implemented by the live `&Node` here and by `phpack`'s
//! record view over page bytes, so [`descend`] and [`Window`] are the
//! one descent loop and the one window walker of the workspace.
//!
//! The traversals, not the nodes, resolve child handles: a node only
//! ever hands out an unresolved [`NodeRead::Child`], and what is
//! fetched when is decided here. Likewise an entry's postfix is read a
//! coordinate at a time ([`NodeRead::read_postfix_while`]), so a
//! traversal stops reading at the first coordinate that rules it out.

use crate::node::{Node, SlotIter, SlotRef};
use crate::telemetry::Visits;
use phbits::{hc, num, BitRead};
use std::convert::Infallible;

/// Maximum descent depth: the root splits at bit 63 and every child
/// splits strictly lower, so a chain is at most 64 nodes.
const MAX_DEPTH: usize = 64;

/// An occupied slot of a node.
pub enum Slot<C, P> {
    /// A postfix entry.
    Post(P),
    /// A sub-node, not yet resolved.
    Sub(C),
}

/// A slot as node type `N` reports it.
pub type SlotOf<N, const K: usize> = Slot<<N as NodeRead<K>>::Child, <N as NodeRead<K>>::Post>;

/// An entry as [`Window::next_entry`] yields it: its key, the node
/// holding it and its token.
pub type EntryOf<'w, N, const K: usize> = ([u64; K], &'w N, <N as NodeRead<K>>::Post);

/// Read access to one PH-tree node: everything the traversals need
/// from a tree representation.
pub trait NodeRead<const K: usize>: Sized {
    /// Unresolved handle to a sub-node or root (a pointer in memory, a
    /// page reference on disk).
    type Child;
    /// Token for a postfix entry, valid while its node is.
    type Post;
    /// What kNN keeps of one of its best entries to reach the value
    /// after the node is gone — for a packed tree still undecoded.
    type Value;
    /// Cursor of an address-ordered slot scan ([`NodeRead::scan_from`]).
    type Scan;
    /// Failure of resolving a child or reading a slot.
    type Error;

    /// Fetches the node behind a handle.
    fn resolve(child: &Self::Child) -> Result<Self, Self::Error>;

    /// Key bits per dimension below this node's split bit.
    fn post_len(&self) -> u32;

    /// Writes the node's infix into its bit range of `key`.
    fn read_infix_into(&self, key: &mut [u64; K]);

    /// Whether `key` carries the node's infix.
    fn infix_matches(&self, key: &[u64; K]) -> bool;

    /// Whether the node is a full hypercube array: its slots are then
    /// found by address ([`NodeRead::slot_at`]) and never scanned.
    fn is_hc(&self) -> bool;

    /// The slot at hypercube address `h`, if occupied.
    fn slot_at(&self, h: u64) -> Result<Option<SlotOf<Self, K>>, Self::Error>;

    /// Starts a scan, in address order, of the occupied slots at
    /// addresses `>= h`. Not for [`NodeRead::is_hc`] nodes.
    fn scan_from(&self, h: u64) -> Self::Scan;

    /// The scan's next slot whose address the window masks admit
    /// ([`hc::addr_valid`]) and that address; `None` once the scan is
    /// exhausted or past `m_u`, the largest address that can match.
    fn scan_next(
        &self,
        scan: &mut Self::Scan,
        m_l: u64,
        m_u: u64,
    ) -> Result<Option<(u64, SlotOf<Self, K>)>, Self::Error>;

    /// Writes an entry's postfix into the low bits of `key` one
    /// dimension at a time, in dimension order, handing each finished
    /// coordinate to `keep(d, key[d])`; stops at the first it rejects.
    /// Returns whether every coordinate was kept (if not, `key` is only
    /// partly written). The window walker tests the box this way, kNN
    /// its distance sum.
    fn read_postfix_while(
        &self,
        post: &Self::Post,
        key: &mut [u64; K],
        keep: impl FnMut(usize, u64) -> bool,
    ) -> bool;

    /// Whether the low bits of `key` are an entry's postfix.
    fn postfix_matches(&self, post: &Self::Post, key: &[u64; K]) -> bool;

    /// Calls `f` for every occupied slot, HC or LHC, with its address.
    fn visit_slots(&self, f: impl FnMut(u64, SlotOf<Self, K>)) -> Result<(), Self::Error>;

    /// Turns an entry's token into the handle a queued entry keeps.
    fn value(&self, post: Self::Post) -> Self::Value;
}

/// Point query: walks from `root` towards `key` and returns the node
/// holding the key's entry together with the entry's token.
#[inline]
pub fn descend<N: NodeRead<K>, const K: usize>(
    root: &N::Child,
    key: &[u64; K],
) -> Result<Option<(N, N::Post)>, N::Error> {
    descend_counted(root, key, &mut Visits::new())
}

/// [`descend`], counting the nodes visited.
#[inline]
pub(crate) fn descend_counted<N: NodeRead<K>, const K: usize>(
    root: &N::Child,
    key: &[u64; K],
    vis: &mut Visits,
) -> Result<Option<(N, N::Post)>, N::Error> {
    let mut node = N::resolve(root)?;
    loop {
        vis.bump();
        if !node.infix_matches(key) {
            return Ok(None);
        }
        node = match node.slot_at(hc::addr(key, node.post_len()))? {
            None => return Ok(None),
            Some(Slot::Post(post)) => {
                return Ok(node.postfix_matches(&post, key).then_some((node, post)));
            }
            Some(Slot::Sub(child)) => N::resolve(&child)?,
        };
    }
}

/// Where a frame's scan stands.
enum Cursor<S> {
    /// HC node: the next admissible address, `None` when exhausted.
    Hc(Option<u64>),
    /// LHC node: the node's own scan cursor.
    Lhc(S),
}

struct Frame<N: NodeRead<K>, const K: usize> {
    node: N,
    m_l: u64,
    m_u: u64,
    /// The node's region lies entirely inside the query box: every
    /// entry below it matches without further checks, and sub-node
    /// regions need no intersection test (paper Sect. 3.5: "the query
    /// iterator can simply iterate through all elements").
    inside: bool,
    cursor: Cursor<N::Scan>,
}

impl<N: NodeRead<K>, const K: usize> Frame<N, K> {
    /// Advances to the next slot whose address the masks admit.
    fn next_candidate(&mut self) -> Result<Option<(u64, SlotOf<N, K>)>, N::Error> {
        match &mut self.cursor {
            Cursor::Hc(next) => {
                while let Some(h) = *next {
                    *next = hc::next_addr(h, self.m_l, self.m_u);
                    if let Some(slot) = self.node.slot_at(h)? {
                        return Ok(Some((h, slot)));
                    }
                }
                Ok(None)
            }
            Cursor::Lhc(scan) => self.node.scan_next(scan, self.m_l, self.m_u),
        }
    }
}

/// The window (range) query walker — Sect. 3.5 of the paper.
///
/// Walks the tree depth-first; within each node it enumerates only
/// hypercube addresses that can intersect the query, using the masks
/// `mL`/`mU` and the constant-time successor of [`phbits::hc`], and
/// prunes sub-nodes by intersecting their region with the query. The
/// stack is a fixed array (see [`MAX_DEPTH`]), so a walk allocates
/// nothing.
pub struct Window<N: NodeRead<K>, const K: usize> {
    min: [u64; K],
    max: [u64; K],
    /// Approximation slack (Sect. 5 outlook / Nickerson & Shi): a node
    /// whose region spans at most `2^slack_bits` per dimension and
    /// intersects the query is reported wholesale, without exact
    /// boundary checks. 0 = exact.
    slack_bits: u32,
    /// The top frame's node's prefix (its region's low corner). A
    /// frame only ever rewrites bits at and below its node's split bit,
    /// so once it is popped the bits above that — the parent's prefix —
    /// still stand, and no frame needs a copy of its own.
    key: [u64; K],
    stack: [Option<Frame<N, K>>; MAX_DEPTH],
    depth: usize,
    /// Nodes entered over the walker's lifetime.
    pub(crate) vis: Visits,
}

impl<N: NodeRead<K>, const K: usize> Window<N, K> {
    /// A walker over the box `[min, max]` with nothing to walk yet; see
    /// [`Window::push_root`].
    pub fn new(min: [u64; K], max: [u64; K], slack_bits: u32) -> Self {
        Window {
            min,
            max,
            slack_bits,
            key: [0; K],
            stack: std::array::from_fn(|_| None),
            depth: 0,
            vis: Visits::new(),
        }
    }

    /// Starts the walk at `root`. Call once, before the first
    /// [`Window::next_entry`].
    pub fn push_root(&mut self, root: &N::Child) -> Result<(), N::Error> {
        debug_assert_eq!(self.depth, 0);
        self.enter(root, [0; K], false)
    }

    /// Resolves `child`, whose quadrant `key` spells down to the
    /// parent's split bit, and pushes a frame for it if its region
    /// intersects the query (`inside`: the parent's already lies in it).
    fn enter(
        &mut self,
        child: &N::Child,
        mut key: [u64; K],
        mut inside: bool,
    ) -> Result<(), N::Error> {
        let node = N::resolve(child)?;
        let post_len = node.post_len();
        node.read_infix_into(&mut key);
        // `key` becomes the region's low corner; `| span` is its high one.
        let span = num::low_mask(post_len + 1);
        for v in &mut key {
            *v &= !span;
        }
        if !inside {
            inside = true;
            for (d, &p) in key.iter().enumerate() {
                if p > self.max[d] || p | span < self.min[d] {
                    return Ok(());
                }
                inside &= self.min[d] <= p && p | span <= self.max[d];
            }
            // Approximate mode: small intersecting nodes count as inside.
            inside |= post_len < self.slack_bits;
        }
        let (m_l, m_u) = if inside {
            // Every slot matches; iterate the full cube.
            (0, num::low_mask(K as u32))
        } else {
            hc::masks(&key, &self.min, &self.max, post_len)
        };
        if m_l & !m_u != 0 {
            return Ok(()); // contradictory: no slot can match
        }
        self.vis.bump();
        let cursor = if node.is_hc() {
            Cursor::Hc(Some(hc::first_addr(m_l, m_u)))
        } else {
            Cursor::Lhc(node.scan_from(m_l))
        };
        self.key = key;
        self.stack[self.depth] = Some(Frame {
            node,
            m_l,
            m_u,
            inside,
            cursor,
        });
        self.depth += 1;
        Ok(())
    }

    /// The next entry inside the box. Entries come in depth-first
    /// (Z-order-ish) order, not globally sorted. After an error the
    /// walk must be abandoned.
    pub fn next_entry(&mut self) -> Result<Option<EntryOf<'_, N, K>>, N::Error> {
        while self.depth > 0 {
            let frame = self.stack[self.depth - 1].as_mut().expect("live frame");
            let Some((h, slot)) = frame.next_candidate()? else {
                self.depth -= 1;
                self.stack[self.depth] = None;
                continue;
            };
            let inside = frame.inside;
            let mut key = self.key;
            hc::apply_addr(&mut key, h, frame.node.post_len());
            match slot {
                Slot::Post(post) => {
                    let (min, max) = (&self.min, &self.max);
                    if frame.node.read_postfix_while(&post, &mut key, |d, v| {
                        inside || (min[d] <= v && v <= max[d])
                    }) {
                        let frame = self.stack[self.depth - 1].as_ref().expect("live frame");
                        return Ok(Some((key, &frame.node, post)));
                    }
                }
                Slot::Sub(child) => self.enter(&child, key, inside)?,
            }
        }
        Ok(None)
    }
}

/// A live node's postfix entry: the node whose bit string holds its
/// postfix record (the node itself, or one of its segments), the bit
/// offset of the record in that buffer, and the value.
pub(crate) struct PostRef<'t, V, const K: usize> {
    seg: &'t Node<V, K>,
    pf_off: usize,
    pub(crate) value: &'t V,
}

fn live_slot<'t, V, const K: usize>(slot: SlotRef<'t, V, K>) -> SlotOf<&'t Node<V, K>, K> {
    match slot {
        SlotRef::Post { seg, pf_off, value } => Slot::Post(PostRef { seg, pf_off, value }),
        SlotRef::Sub(sub) => Slot::Sub(sub),
    }
}

/// The live node. Its scan cursor is the node's own slot iterator:
/// child index, dense post and sub ranks, and the segments of a paged
/// node still to come.
impl<'t, V, const K: usize> NodeRead<K> for &'t Node<V, K> {
    type Child = &'t Node<V, K>;
    type Post = PostRef<'t, V, K>;
    type Value = &'t V;
    type Scan = SlotIter<'t, V, K>;
    type Error = Infallible;

    #[inline]
    fn resolve(child: &Self::Child) -> Result<Self, Infallible> {
        Ok(child)
    }

    #[inline]
    fn post_len(&self) -> u32 {
        self.post_len as u32
    }

    #[inline]
    fn read_infix_into(&self, key: &mut [u64; K]) {
        Node::read_infix_into(self, key)
    }

    #[inline]
    fn infix_matches(&self, key: &[u64; K]) -> bool {
        Node::infix_matches(self, key)
    }

    #[inline]
    fn is_hc(&self) -> bool {
        Node::is_hc(self)
    }

    #[inline]
    fn slot_at(&self, h: u64) -> Result<Option<SlotOf<Self, K>>, Infallible> {
        Ok(self.get_slot(h).map(live_slot))
    }

    #[inline]
    fn scan_from(&self, h: u64) -> Self::Scan {
        Node::scan_from(self, h)
    }

    #[inline]
    fn scan_next(
        &self,
        scan: &mut Self::Scan,
        m_l: u64,
        m_u: u64,
    ) -> Result<Option<(u64, SlotOf<Self, K>)>, Infallible> {
        Ok(scan
            .next_masked(m_l, m_u)
            .map(|(h, slot)| (h, live_slot(slot))))
    }

    #[inline]
    fn read_postfix_while(
        &self,
        post: &Self::Post,
        key: &mut [u64; K],
        mut keep: impl FnMut(usize, u64) -> bool,
    ) -> bool {
        let width = post.seg.post_len as u32;
        let low = num::low_mask(width);
        (0..K).all(|d| {
            let field = post.seg.read_bits(post.pf_off + d * width as usize, width);
            key[d] = (key[d] & !low) | field;
            keep(d, key[d])
        })
    }

    #[inline]
    fn postfix_matches(&self, post: &Self::Post, key: &[u64; K]) -> bool {
        post.seg.postfix_matches(post.pf_off, key)
    }

    fn visit_slots(&self, mut f: impl FnMut(u64, SlotOf<Self, K>)) -> Result<(), Infallible> {
        self.iter_slots()
            .for_each(|(h, slot)| f(h, live_slot(slot)));
        Ok(())
    }

    #[inline]
    fn value(&self, post: Self::Post) -> &'t V {
        post.value
    }
}
