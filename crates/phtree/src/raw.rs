//! Raw node access for serialisation (used by the `phstore` paged
//! persistence layer).
//!
//! A PH-tree's structure is canonical — a pure function of its contents
//! — so persisting it per *node* (rather than per entry) is both safe
//! and exactly what the paper's outlook proposes: node data is one
//! packed bit string that can be written to disk pages, and any update
//! affects at most two nodes, i.e. at most two page neighbourhoods.
//!
//! What is canonical is a node's *logical* form: HC, or LHC with one
//! bit string. In memory a long LHC bit string is cut into segments
//! (paged LHC), and where the cuts fall depends on the order of
//! updates; this module never shows them. [`NodeRef`] presents a paged
//! node as the one LHC bit string its segments concatenate to, and
//! [`build_node`] pages a long LHC bit string again, so the bytes a
//! storage layer writes are the same for equal contents however the
//! tree was built.
//!
//! [`NodeRef`] exposes a node's serialisable parts; rebuilding goes
//! through [`PhTree::from_raw_parts`]/[`NodeRef`]-shaped data via
//! [`build_node`], which re-validates all structural invariants so that
//! corrupt input yields an error instead of a broken tree.

use crate::node::{Node, NodePtr};
use crate::tree::PhTree;
use phbits::BitBuf;
use std::borrow::Cow;

/// Read-only view of a node's serialisable parts: its *logical* form.
/// A node stored as paged LHC (see the node module docs) is shown as
/// the one LHC node its segments add up to, so what storage layers
/// write never depends on how a node happens to be paged.
pub struct NodeRef<'t, V, const K: usize> {
    node: &'t Node<V, K>,
    /// The words of the node's logical bit string — borrowed from the
    /// node, or for a paged node the segments' bit strings concatenated
    /// — and its length in bits.
    bits: (Cow<'t, [u64]>, usize),
}

impl<'t, V, const K: usize> NodeRef<'t, V, K> {
    pub(crate) fn new(node: &'t Node<V, K>) -> Self {
        NodeRef {
            node,
            bits: node.logical_bits(),
        }
    }

    /// Bits per dimension below this node's split.
    pub fn post_len(&self) -> u8 {
        self.node.post_len
    }

    /// Bits per dimension of this node's stored infix.
    pub fn infix_len(&self) -> u8 {
        self.node.infix_len
    }

    /// Whether the node is in HC (full hypercube) representation.
    pub fn is_hc(&self) -> bool {
        self.node.is_hc()
    }

    /// Length of the packed bit string, in bits.
    pub fn bits_len(&self) -> usize {
        self.bits.1
    }

    /// Backing words of the packed bit string.
    pub fn bits_words(&self) -> &[u64] {
        &self.bits.0
    }

    /// Number of postfix entries.
    pub fn n_values(&self) -> usize {
        self.node.n_posts()
    }

    /// Values of the node's postfix entries, in hypercube-address order.
    pub fn values(&self) -> impl Iterator<Item = &'t V> {
        self.node.post_values()
    }

    /// Number of sub-node children.
    pub fn n_subs(&self) -> usize {
        self.node.n_subs()
    }

    /// Sub-node children, in hypercube-address order.
    pub fn subs(&self) -> impl Iterator<Item = NodeRef<'t, V, K>> {
        self.node.child_nodes().map(|n| NodeRef::new(n))
    }
}

/// An owned, validated node being reassembled from storage. Opaque;
/// produced by [`build_node`] and consumed by child lists or
/// [`PhTree::from_raw_parts`].
pub struct RawNode<V, const K: usize> {
    pub(crate) node: Node<V, K>,
}

/// Why raw reassembly rejected its input — i.e. which structural
/// invariant the (presumably corrupt) serialised bytes violated.
/// Storage layers surface [`RawError::what`] in their own corruption
/// errors instead of panicking on hostile input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawError {
    what: &'static str,
}

impl RawError {
    fn new(what: &'static str) -> Self {
        RawError { what }
    }

    /// Static description of the violated invariant.
    pub fn what(&self) -> &'static str {
        self.what
    }
}

impl std::fmt::Display for RawError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt node: {}", self.what)
    }
}

impl std::error::Error for RawError {}

/// Reassembles one node from its serialised parts. `subs` must be the
/// node's children in hypercube-address order (built bottom-up).
///
/// Returns an error if the parts are inconsistent (wrong bit-string
/// length for the representation, invalid slot-kind codes, unsorted
/// addresses, child depth mismatches, …) — i.e. on corrupt input.
pub fn build_node<V, const K: usize>(
    post_len: u8,
    infix_len: u8,
    is_hc: bool,
    bits_words: Box<[u64]>,
    bits_len: usize,
    subs: Vec<RawNode<V, K>>,
    values: Vec<V>,
) -> Result<RawNode<V, K>, RawError> {
    let bits = BitBuf::from_words(bits_words, bits_len)
        .ok_or_else(|| RawError::new("bit-string length disagrees with word count"))?;
    let subs: Vec<NodePtr<V, K>> = subs.into_iter().map(|r| r.node.into()).collect();
    let node =
        Node::from_parts(post_len, infix_len, is_hc, &bits, subs, values).map_err(RawError::new)?;
    Ok(RawNode { node })
}

impl<V, const K: usize> PhTree<V, K> {
    /// Read-only view of the root node, if any (serialisation entry
    /// point).
    pub fn root_raw(&self) -> Option<NodeRef<'_, V, K>> {
        self.root.as_deref().map(NodeRef::new)
    }

    /// Rebuilds a tree from a reassembled root node.
    ///
    /// Validates the root shape (split at the top bit, no infix) and
    /// recounts the entries; returns an error on mismatch with
    /// `expected_len`.
    pub fn from_raw_parts(
        root: Option<RawNode<V, K>>,
        expected_len: usize,
    ) -> Result<Self, RawError> {
        let tree = match root {
            None => PhTree::new(),
            Some(r) => {
                if r.node.post_len != 63 || r.node.infix_len != 0 {
                    return Err(RawError::new(
                        "root must split at the top bit with no infix",
                    ));
                }
                PhTree::assemble(r.node, expected_len)
            }
        };
        if tree.len() != expected_len {
            return Err(RawError::new("stored entry count disagrees with tree"));
        }
        // Entry recount (cheap relative to I/O) guards the stored count.
        if tree.iter().count() != expected_len {
            return Err(RawError::new("entry recount disagrees with stored count"));
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> PhTree<u32, 3> {
        let mut t = PhTree::new();
        for i in 0..500u64 {
            t.insert([i % 17, i / 17, i.wrapping_mul(0x9E37_79B9)], i as u32);
        }
        t
    }

    /// Deep-copy a tree through the raw API (what phstore does through
    /// a file).
    fn roundtrip<V: Clone, const K: usize>(t: &PhTree<V, K>) -> Result<PhTree<V, K>, RawError> {
        fn copy<V: Clone, const K: usize>(
            n: &NodeRef<'_, V, K>,
        ) -> Result<RawNode<V, K>, RawError> {
            let subs = n.subs().map(|c| copy(&c)).collect::<Result<Vec<_>, _>>()?;
            build_node(
                n.post_len(),
                n.infix_len(),
                n.is_hc(),
                n.bits_words().to_vec().into_boxed_slice(),
                n.bits_len(),
                subs,
                n.values().cloned().collect(),
            )
        }
        let root = match t.root_raw() {
            None => None,
            Some(r) => Some(copy(&r)?),
        };
        PhTree::from_raw_parts(root, t.len())
    }

    #[test]
    fn raw_roundtrip_preserves_everything() {
        let mut t = sample_tree();
        // The roundtripped tree is rebuilt at exact capacity; shrink the
        // source so the byte-for-byte space comparison is meaningful.
        t.shrink_to_fit();
        let u = roundtrip(&t).expect("roundtrip");
        u.check_invariants();
        assert_eq!(u.len(), t.len());
        let a: Vec<_> = t.iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<_> = u.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(a, b);
        let (sa, sb) = (t.stats(), u.stats());
        assert_eq!(sa.nodes, sb.nodes);
        assert_eq!(sa.hc_nodes, sb.hc_nodes);
        assert_eq!(sa.total_bytes, sb.total_bytes);
    }

    /// Everything the raw API exposes of a tree, as bytes.
    fn raw_bytes<const K: usize>(t: &PhTree<u32, K>) -> Vec<u8> {
        fn walk<const K: usize>(n: &NodeRef<'_, u32, K>, out: &mut Vec<u8>) {
            out.extend([n.post_len(), n.infix_len(), n.is_hc() as u8]);
            for len in [n.bits_len(), n.n_values(), n.n_subs()] {
                out.extend((len as u64).to_le_bytes());
            }
            out.extend(n.bits_words().iter().flat_map(|w| w.to_le_bytes()));
            out.extend(n.values().flat_map(|v| v.to_le_bytes()));
            for sub in n.subs() {
                walk(&sub, out);
            }
        }
        let mut out = Vec::new();
        if let Some(root) = t.root_raw() {
            walk(&root, &mut out);
        }
        out
    }

    /// At K = 20 a page holds 25 root entries, so these trees are full
    /// of paged nodes — paged differently by each way of building them.
    #[test]
    fn paged_trees_have_one_raw_form() {
        let key = |i: u64| -> [u64; 20] {
            std::array::from_fn(|d| (i * 20 + d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        let items: Vec<_> = (0..3000u64).map(|i| (key(i), i as u32)).collect();
        let mut seq: PhTree<u32, 20> = PhTree::new();
        for (k, v) in items.iter().rev() {
            seq.insert(*k, *v);
        }
        // Detour through a larger tree, so merges have happened too.
        let mut detour = seq.clone();
        for i in 3000..6000 {
            detour.insert(key(i), 0);
        }
        for i in 3000..6000 {
            detour.remove(&key(i));
        }
        let bulk = PhTree::bulk_load(items);
        let decoded = roundtrip(&seq).expect("roundtrip");
        decoded.check_invariants();
        let want = raw_bytes(&bulk);
        assert!(want.len() > 3000 * 150);
        assert!(raw_bytes(&seq) == want, "sequential ≠ bulk");
        assert!(raw_bytes(&detour) == want, "grown and shrunk ≠ bulk");
        assert!(raw_bytes(&decoded) == want, "decoded ≠ bulk");
        assert_eq!(seq, decoded);
        // The decoder re-pages: decoded and bulk-loaded trees cost the
        // same, and less than one grown by sequential insertion.
        assert_eq!(decoded.stats(), bulk.stats());
        assert!(bulk.stats().total_bytes <= seq.stats().total_bytes);
    }

    #[test]
    fn empty_tree_roundtrip() {
        let t: PhTree<u32, 3> = PhTree::new();
        let u = roundtrip(&t).unwrap();
        assert!(u.is_empty());
    }

    #[test]
    fn corrupt_bits_rejected() {
        let t = sample_tree();
        let r = t.root_raw().unwrap();
        // Wrong bit length for the representation.
        let bad = build_node::<u32, 3>(
            r.post_len(),
            r.infix_len(),
            r.is_hc(),
            r.bits_words().to_vec().into_boxed_slice(),
            r.bits_len().saturating_sub(1),
            Vec::new(),
            r.values().cloned().collect(),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn corrupt_kind_bytes_rejected() {
        // Flip kind bits in an HC node to the invalid code 0b11: must be
        // reported as an error, never a panic (hostile-input path).
        let mut t: PhTree<u32, 2> = PhTree::new();
        for i in 0..64u64 {
            t.insert([i % 8, i / 8], i as u32);
        }
        // Find an HC node (root or first HC descendant).
        fn find_hc<V, const K: usize>(n: &Node<V, K>) -> Option<&Node<V, K>> {
            if n.is_hc() {
                return Some(n);
            }
            n.subs().iter().find_map(|s| find_hc(s))
        }
        let hc = match t.root.as_deref().and_then(find_hc) {
            Some(n) => NodeRef::new(n),
            None => return, // representation thresholds changed; nothing to corrupt
        };
        let mut words = hc.bits_words().to_vec();
        // Kind table starts right after the infix; force every slot's
        // 2-bit kind to 0b11 by setting all bits of the first word.
        words[0] = !0;
        let bad = build_node::<u32, 2>(
            hc.post_len(),
            hc.infix_len(),
            true,
            words.into_boxed_slice(),
            hc.bits_len(),
            Vec::new(),
            hc.values().cloned().collect(),
        );
        let err = match bad {
            Err(e) => e,
            Ok(_) => panic!("corrupted kind bytes must be rejected"),
        };
        assert!(!err.what().is_empty());
    }

    #[test]
    fn wrong_root_shape_rejected() {
        // A root that does not split at the top bit is refused.
        let inner =
            build_node::<u32, 2>(10, 0, false, Box::default(), 0, Vec::new(), Vec::new()).unwrap();
        assert!(PhTree::from_raw_parts(Some(inner), 0).is_err());
    }

    #[test]
    fn wrong_len_rejected() {
        let t = sample_tree();
        let root = {
            fn copy<V: Clone, const K: usize>(n: &NodeRef<'_, V, K>) -> RawNode<V, K> {
                let subs = n.subs().map(|c| copy(&c)).collect();
                build_node(
                    n.post_len(),
                    n.infix_len(),
                    n.is_hc(),
                    n.bits_words().to_vec().into_boxed_slice(),
                    n.bits_len(),
                    subs,
                    n.values().cloned().collect(),
                )
                .unwrap()
            }
            copy(&t.root_raw().unwrap())
        };
        assert!(PhTree::from_raw_parts(Some(root), t.len() + 1).is_err());
    }
}
