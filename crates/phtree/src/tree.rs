//! The PH-tree map: insert, point query, remove.
//!
//! All update operations follow the paper's structure (Sect. 3.6): they
//! locate the affected node with what is essentially a point query
//! (`O(w·k)`), then modify **at most two nodes** — one node is updated
//! and possibly a second one is created (insert splitting a postfix or an
//! infix) or deleted (remove merging a one-child node away), with at most
//! one entry moving between the two.

use crate::config::ReprMode;
use crate::node::{BulkChild, Child, Node, NodePtr, Probe, SlotRef, W};
use crate::telemetry::{self, TreeOp, Visits};
use crate::walk;
use phbits::{hc, num};

/// Z-order (Morton-order) comparison of two keys: the order a
/// depth-first walk of the tree visits entries in. Two keys compare by
/// their hypercube address at the highest bit level where they diverge
/// — all higher levels' addresses are equal there, so that single
/// address decides.
fn z_cmp<const K: usize>(a: &[u64; K], b: &[u64; K]) -> std::cmp::Ordering {
    match num::max_diverging_bit(a, b) {
        None => std::cmp::Ordering::Equal,
        Some(d) => hc::addr(a, d).cmp(&hc::addr(b, d)),
    }
}

/// A map from `K`-dimensional `u64` points to values, implemented as a
/// PATRICIA-hypercube-tree.
///
/// Keys are fixed-size arrays of `u64`; each array element is one
/// dimension, ordered as an unsigned integer. Use [`crate::key`] to store
/// floating-point or signed data, or [`crate::PhTreeF64`] for an `f64`
/// convenience wrapper.
///
/// # Example
///
/// ```
/// use phtree::PhTree;
///
/// let mut tree: PhTree<&str, 2> = PhTree::new();
/// tree.insert([1, 2], "a");
/// tree.insert([1, 3], "b");
/// tree.insert([7, 2], "c");
/// assert_eq!(tree.len(), 3);
/// assert_eq!(tree.get(&[1, 3]), Some(&"b"));
///
/// // Range (window) query over [0,5] × [0,5]:
/// let mut hits: Vec<_> = tree.query(&[0, 0], &[5, 5]).map(|(k, _)| k).collect();
/// hits.sort();
/// assert_eq!(hits, vec![[1, 2], [1, 3]]);
///
/// assert_eq!(tree.remove(&[1, 2]), Some("a"));
/// assert_eq!(tree.len(), 2);
/// ```
/// # Cheap clones and copy-on-write
///
/// Nodes are refcounted, so `Clone` is O(1): it shares the whole
/// structure. Mutating either tree afterwards copies only the nodes on
/// the mutated path, one allocation each — the other tree is never
/// affected. This is what gives the sharded serving layer its
/// lock-free snapshot reads; a tree that is never cloned pays only a
/// refcount check per node on the write path.
#[derive(Clone)]
pub struct PhTree<V, const K: usize> {
    pub(crate) root: Option<NodePtr<V, K>>,
    len: usize,
    mode: ReprMode,
}

impl<V, const K: usize> Default for PhTree<V, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, const K: usize> PhTree<V, K> {
    /// Creates an empty tree with adaptive HC/LHC node representation.
    pub fn new() -> Self {
        Self::with_mode(ReprMode::Adaptive)
    }

    /// Creates an empty tree with an explicit node representation policy
    /// (used by the ablation benchmarks).
    pub fn with_mode(mode: ReprMode) -> Self {
        assert!(K >= 1 && K <= 64, "PH-tree supports 1..=64 dimensions");
        PhTree {
            root: None,
            len: 0,
            mode,
        }
    }

    /// Number of entries stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured node representation policy.
    #[inline]
    pub fn mode(&self) -> ReprMode {
        self.mode
    }

    /// Internal constructor for deserialisation ([`crate::raw`]).
    pub(crate) fn assemble(root: Node<V, K>, len: usize) -> Self {
        PhTree {
            root: Some(root.into()),
            len,
            mode: ReprMode::Adaptive,
        }
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.root = None;
        self.len = 0;
    }

    /// Builds a tree from a batch of entries in one bottom-up pass
    /// (O(n log n) for the sort, O(n) for construction).
    ///
    /// The items are sorted by Z-order interleaving, then the sorted run
    /// is split recursively on the highest diverging bit so every node
    /// is emitted exactly once with its final contents: its one heap
    /// block is allocated at exact final size, and the HC/LHC
    /// representation is chosen once from the final child count. The result is structurally identical to inserting the
    /// items sequentially (the tree shape is a pure function of its
    /// contents), but without the per-entry node reallocation —
    /// loading large batches is several times faster.
    ///
    /// Duplicate keys resolve last-write-wins, matching sequential
    /// [`PhTree::insert`] semantics.
    ///
    /// ```
    /// use phtree::PhTree;
    ///
    /// let tree: PhTree<&str, 2> = PhTree::bulk_load(vec![
    ///     ([1, 2], "a"),
    ///     ([7, 2], "c"),
    ///     ([1, 3], "b"),
    ///     ([1, 2], "a2"), // duplicate: last write wins
    /// ]);
    /// assert_eq!(tree.len(), 3);
    /// assert_eq!(tree.get(&[1, 2]), Some(&"a2"));
    /// ```
    pub fn bulk_load(items: Vec<([u64; K], V)>) -> Self {
        Self::bulk_load_with_mode(items, ReprMode::Adaptive)
    }

    /// [`PhTree::bulk_load`] with an explicit node representation policy
    /// (the bulk counterpart of [`PhTree::with_mode`]).
    pub fn bulk_load_with_mode(mut items: Vec<([u64; K], V)>, mode: ReprMode) -> Self {
        assert!(K >= 1 && K <= 64, "PH-tree supports 1..=64 dimensions");
        // Stable sort keeps equal keys in input order, so keeping the
        // last of each run gives last-write-wins like sequential insert.
        items.sort_by(|a, b| z_cmp(&a.0, &b.0));
        items.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(&mut later.1, &mut kept.1);
                true
            } else {
                false
            }
        });
        let len = items.len();
        if len == 0 {
            return Self::with_mode(mode);
        }
        let mut keys = Vec::with_capacity(len);
        let mut values = Vec::with_capacity(len);
        for (k, v) in items {
            keys.push(k);
            values.push(v);
        }
        // The recursion consumes values strictly left-to-right: postfix
        // entries are emitted in sorted order regardless of nesting.
        let mut vals = values.into_iter();
        let root = Self::build_range(&keys, 0, len, (W - 1) as u8, 0, &mut vals, mode);
        debug_assert!(vals.next().is_none(), "every value must be consumed");
        PhTree {
            root: Some(root.into()),
            len,
            mode,
        }
    }

    /// Builds the node covering the Z-sorted, deduplicated key range
    /// `keys[lo..hi]` bottom-up. All keys in the range agree on every
    /// bit above `post_len`; groups sharing a hypercube address at
    /// `post_len` are consecutive, and a multi-key group's sub-node
    /// splits at the group's highest diverging bit (which, for a
    /// Z-sorted range, is `max_diverging_bit(first, last)`).
    #[allow(clippy::too_many_arguments)]
    fn build_range(
        keys: &[[u64; K]],
        lo: usize,
        hi: usize,
        post_len: u8,
        infix_len: u8,
        vals: &mut std::vec::IntoIter<V>,
        mode: ReprMode,
    ) -> Node<V, K> {
        let mut children: Vec<(u64, BulkChild<V, K>)> = Vec::new();
        let mut i = lo;
        while i < hi {
            let h = hc::addr(&keys[i], post_len as u32);
            let mut j = i + 1;
            while j < hi && hc::addr(&keys[j], post_len as u32) == h {
                j += 1;
            }
            if j - i == 1 {
                let value = vals.next().expect("one value per key");
                children.push((
                    h,
                    BulkChild::Post {
                        key: keys[i],
                        value,
                    },
                ));
            } else {
                let d = num::max_diverging_bit(&keys[i], &keys[j - 1])
                    .expect("deduplicated keys must diverge");
                debug_assert!((d as u8) < post_len);
                let sub =
                    Self::build_range(keys, i, j, d as u8, post_len - 1 - d as u8, vals, mode);
                children.push((h, BulkChild::Sub(sub)));
            }
            i = j;
        }
        // Any key in the range supplies the infix bits: the whole range
        // agrees on all bits above this node's split.
        Node::from_children(post_len, infix_len, &keys[lo], children, mode)
    }
}

/// Update operations. These require `V: Clone` because nodes are
/// shared between tree versions: a mutation descending through a node
/// that a clone/snapshot still references path-copies it
/// ([`NodePtr::make_mut`]), which clones the values stored in that one
/// node. With no other version alive every node is uniquely owned and
/// updates happen in place.
impl<V: Clone, const K: usize> PhTree<V, K> {
    /// Inserts `key → value`. Returns the previous value if the key was
    /// already present (the PH-tree stores no duplicate keys).
    pub fn insert(&mut self, key: [u64; K], value: V) -> Option<V> {
        let mut vis = Visits::new();
        let old = match &mut self.root {
            None => {
                // First entry: the root always splits at the top bit
                // (zb = 1 in the paper's numbering), with no prefix.
                let mut root = Node::new((W - 1) as u8, 0, &key);
                root.insert_post(hc::addr(&key, W - 1), &key, value, self.mode);
                self.root = Some(root.into());
                self.len = 1;
                vis.bump();
                None
            }
            Some(root) => {
                let old =
                    Self::insert_rec(NodePtr::make_mut(root), &key, value, self.mode, &mut vis);
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
        };
        telemetry::record_op(TreeOp::Insert, vis);
        old
    }

    fn insert_rec(
        node: &mut Node<V, K>,
        key: &[u64; K],
        value: V,
        mode: ReprMode,
        vis: &mut Visits,
    ) -> Option<V> {
        vis.bump();
        let h = hc::addr(key, node.post_len as u32);
        match node.probe(h, key) {
            Probe::Empty => {
                node.insert_post(h, key, value, mode);
                None
            }
            Probe::Same => Some(node.replace_post_value(h, value)),
            Probe::Other(old_key) => {
                // Collision: split the postfix at the highest diverging
                // bit.
                let dmax =
                    num::max_diverging_bit(key, &old_key).expect("distinct keys must diverge");
                debug_assert!((dmax as u8) < node.post_len);
                let sub = Node::new(dmax as u8, node.post_len - 1 - dmax as u8, key);
                let old_val = node.swap_post_for_sub(h, sub, mode);
                let sub = node.sub_mut(h).expect("just installed");
                sub.insert_post(hc::addr(&old_key, dmax), &old_key, old_val, mode);
                sub.insert_post(hc::addr(key, dmax), key, value, mode);
                None
            }
            Probe::Sub => {
                let node_post_len = node.post_len;
                let sub = node.sub_mut(h).expect("probe said sub");
                if sub.infix_matches(key) {
                    return Self::insert_rec(sub, key, value, mode, vis);
                }
                // The key deviates inside the sub-node's infix: split the
                // infix with an intermediate node holding the existing
                // sub-node and the new entry.
                let mut sub_prefix = *key;
                sub.read_infix_into(&mut sub_prefix);
                let dmax =
                    num::max_diverging_bit(key, &sub_prefix).expect("infix mismatch must diverge");
                debug_assert!(dmax > sub.post_len as u32);
                debug_assert!((dmax as u8) < node_post_len);
                // Shorten the old sub-node's infix to the bits below the
                // new split.
                let new_il = dmax as u8 - 1 - sub.post_len;
                sub.reset_infix(new_il, &sub_prefix, mode);
                let mid = Node::new(dmax as u8, node_post_len - 1 - dmax as u8, key);
                let old_sub = node.swap_sub(h, mid);
                let mid = node.sub_mut(h).expect("just installed");
                mid.insert_sub(hc::addr(&sub_prefix, dmax), old_sub, mode);
                mid.insert_post(hc::addr(key, dmax), key, value, mode);
                None
            }
        }
    }
}

impl<V, const K: usize> PhTree<V, K> {
    /// Point query: returns a reference to the value stored under `key`.
    #[inline]
    pub fn get(&self, key: &[u64; K]) -> Option<&V> {
        let mut vis = Visits::new();
        let found = self.root.as_deref().and_then(|root| {
            let Ok(hit) = walk::descend_counted::<&Node<V, K>, K>(&root, key, &mut vis);
            hit.map(|(_, post)| post.value)
        });
        telemetry::record_op(TreeOp::Get, vis);
        found
    }

    /// Whether `key` is stored in the tree.
    #[inline]
    pub fn contains(&self, key: &[u64; K]) -> bool {
        self.get(key).is_some()
    }
}

impl<V: Clone, const K: usize> PhTree<V, K> {
    /// Point query with mutable access to the value (copy-on-write: a
    /// node shared with a snapshot is copied before being borrowed).
    pub fn get_mut(&mut self, key: &[u64; K]) -> Option<&mut V> {
        let mut node = NodePtr::make_mut(self.root.as_mut()?);
        loop {
            if !node.infix_matches(key) {
                return None;
            }
            let h = hc::addr(key, node.post_len as u32);
            match node.probe(h, key) {
                Probe::Empty | Probe::Other(_) => return None,
                Probe::Same => return node.post_value_mut(h),
                Probe::Sub => node = node.sub_mut(h).expect("probe said sub"),
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &[u64; K]) -> Option<V> {
        let mut vis = Visits::new();
        let root = match self.root.as_mut() {
            Some(r) => NodePtr::make_mut(r),
            None => {
                telemetry::record_op(TreeOp::Remove, vis);
                return None;
            }
        };
        let (removed, _) = Self::remove_rec(root, key, self.mode, true, &mut vis);
        telemetry::record_op(TreeOp::Remove, vis);
        if removed.is_some() {
            self.len -= 1;
            if self.root.as_ref().is_some_and(|r| r.n_children() == 0) {
                self.root = None;
            }
        }
        removed
    }

    /// Removes `key` from the subtree at `node`. The bool in the result
    /// is true if `node` is left with a single child and must be merged
    /// into its parent (never signalled for the root).
    fn remove_rec(
        node: &mut Node<V, K>,
        key: &[u64; K],
        mode: ReprMode,
        is_root: bool,
        vis: &mut Visits,
    ) -> (Option<V>, bool) {
        vis.bump();
        if !node.infix_matches(key) {
            return (None, false);
        }
        let h = hc::addr(key, node.post_len as u32);
        match node.probe(h, key) {
            Probe::Empty | Probe::Other(_) => (None, false),
            Probe::Same => {
                let v = node.remove_post(h, mode);
                (Some(v), !is_root && node.n_children() == 1)
            }
            Probe::Sub => {
                let sub = node.sub_mut(h).expect("probe said sub");
                let (removed, underflow) = Self::remove_rec(sub, key, mode, false, vis);
                if underflow {
                    Self::merge_single_child(node, h, key, mode);
                }
                (removed, false)
            }
        }
    }

    /// Merges the one-child sub-node at address `h` of `node` away: its
    /// remaining child is pulled up into `node`, either as a postfix
    /// entry (absorbing the sub-node's infix and split bit) or as a
    /// grandchild sub-node with an extended infix. `key` supplies the
    /// path bits above the sub-node.
    fn merge_single_child(node: &mut Node<V, K>, h: u64, key: &[u64; K], mode: ReprMode) {
        let sub = node.sub_mut(h).expect("merge target must be a sub");
        debug_assert_eq!(sub.n_children(), 1);
        // Reconstruct the remaining child's prefix/key before detaching.
        let mut rem_key = *key;
        sub.read_infix_into(&mut rem_key);
        let (ch_addr, slot) = sub.iter_slots().next().expect("one child");
        hc::apply_addr(&mut rem_key, ch_addr, sub.post_len as u32);
        match slot {
            SlotRef::Post { seg, pf_off, .. } => seg.read_postfix_into(pf_off, &mut rem_key),
            // A grandchild keeps its own infix bits; collect them so the
            // extended infix below can be written from `rem_key` alone.
            SlotRef::Sub(g) => g.read_infix_into(&mut rem_key),
        }
        let sub_infix_len = sub.infix_len;
        let (_, child) = sub.take_single_child().expect("one child");
        match child {
            Child::Post(v) => {
                node.replace_sub_with_post(h, &rem_key, v, mode);
            }
            Child::Sub(mut gsub) => {
                // The grandchild absorbs the merged node's infix plus its
                // split bit.
                let new_il = gsub.infix_len + sub_infix_len + 1;
                gsub.reset_infix(new_il, &rem_key, mode);
                node.swap_sub(h, gsub);
            }
        }
    }

    /// Releases surplus capacity in every node (the analogue of the
    /// paper's post-load `System.gc()` before space measurements).
    pub fn shrink_to_fit(&mut self) {
        if let Some(r) = self.root.as_mut() {
            Node::shrink_subtree(r);
        }
    }
}

impl<V, const K: usize> PhTree<V, K> {
    /// Validates all structural invariants (test helper; O(n)).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        if let Some(r) = &self.root {
            r.check_invariants(true);
            assert_eq!(self.count_entries(), self.len, "len bookkeeping");
        } else {
            assert_eq!(self.len, 0);
        }
    }

    fn count_entries(&self) -> usize {
        fn walk<V, const K: usize>(n: &Node<V, K>) -> usize {
            n.n_posts() + n.child_nodes().map(|sub| walk(sub)).sum::<usize>()
        }
        self.root.as_deref().map_or(0, |r| walk(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: PhTree<u32, 3> = PhTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&[1, 2, 3]), None);
    }

    #[test]
    fn single_insert_get_remove() {
        let mut t: PhTree<&str, 2> = PhTree::new();
        assert_eq!(t.insert([5, 9], "x"), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[5, 9]), Some(&"x"));
        assert_eq!(t.get(&[5, 8]), None);
        assert_eq!(t.remove(&[5, 9]), Some("x"));
        assert!(t.is_empty());
        assert!(t.root.is_none());
        t.check_invariants();
    }

    #[test]
    fn replace_value() {
        let mut t: PhTree<u32, 1> = PhTree::new();
        assert_eq!(t.insert([7], 1), None);
        assert_eq!(t.insert([7], 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[7]), Some(&2));
    }

    #[test]
    fn paper_fig1_example() {
        // Fig. 1: values 0010 and 0001 (as 4-bit values; here the same
        // shape appears in the low bits of 64-bit keys — the tree
        // structure differs only by the longer shared prefix).
        let mut t: PhTree<(), 1> = PhTree::new();
        t.insert([0b0010], ());
        t.insert([0b0001], ());
        assert!(t.contains(&[0b0010]));
        assert!(t.contains(&[0b0001]));
        assert!(!t.contains(&[0b0000]));
        assert!(!t.contains(&[0b0011]));
        t.check_invariants();
    }

    #[test]
    fn paper_fig2_example() {
        // Fig. 2: three 2-D entries (0001,1000), (0011,1000), (0011,1010).
        let mut t: PhTree<u8, 2> = PhTree::new();
        t.insert([0b0001, 0b1000], 1);
        t.insert([0b0011, 0b1000], 2);
        t.insert([0b0011, 0b1010], 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&[0b0001, 0b1000]), Some(&1));
        assert_eq!(t.get(&[0b0011, 0b1000]), Some(&2));
        assert_eq!(t.get(&[0b0011, 0b1010]), Some(&3));
        assert_eq!(t.get(&[0b0001, 0b1010]), None);
        t.check_invariants();
    }

    #[test]
    fn msb_divergence_splits_root() {
        let mut t: PhTree<u8, 2> = PhTree::new();
        t.insert([0, 0], 0);
        t.insert([u64::MAX, u64::MAX], 1);
        t.insert([0, u64::MAX], 2);
        t.insert([u64::MAX, 0], 3);
        assert_eq!(t.len(), 4);
        for (k, v) in [
            ([0, 0], 0u8),
            ([u64::MAX, u64::MAX], 1),
            ([0, u64::MAX], 2),
            ([u64::MAX, 0], 3),
        ] {
            assert_eq!(t.get(&k), Some(&v));
        }
        t.check_invariants();
    }

    #[test]
    fn deep_shared_prefix_chain() {
        // Keys differing only in the lowest bits force maximal prefix
        // sharing through a deep sub-node.
        let mut t: PhTree<u32, 3> = PhTree::new();
        let base = [0xABCD_EF01_2345_6700u64; 3];
        for i in 0..8u64 {
            let mut k = base;
            k[2] |= i;
            t.insert(k, i as u32);
        }
        assert_eq!(t.len(), 8);
        for i in 0..8u64 {
            let mut k = base;
            k[2] |= i;
            assert_eq!(t.get(&k), Some(&(i as u32)));
        }
        t.check_invariants();
    }

    #[test]
    fn powers_of_two_worst_case() {
        // Fig. 4b: {0,1,2,4,8,…} — every entry deviates from the shared
        // prefix at a different bit, producing a chain of nodes.
        let mut t: PhTree<(), 1> = PhTree::new();
        let mut keys = vec![0u64];
        for b in 0..64 {
            keys.push(1u64 << b);
        }
        for &k in &keys {
            t.insert([k], ());
        }
        assert_eq!(t.len(), keys.len());
        for &k in &keys {
            assert!(t.contains(&[k]), "missing {k}");
        }
        t.check_invariants();
        // And tear it all down again.
        for &k in &keys {
            assert_eq!(t.remove(&[k]), Some(()), "removing {k}");
            t.check_invariants();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn insert_remove_interleaved() {
        let mut t: PhTree<u64, 2> = PhTree::new();
        for i in 0..100u64 {
            t.insert([i * 37 % 101, i * 53 % 97], i);
        }
        t.check_invariants();
        for i in 0..100u64 {
            let k = [i * 37 % 101, i * 53 % 97];
            assert_eq!(t.remove(&k), Some(i));
            assert_eq!(t.remove(&k), None);
            if i % 2 == 0 {
                t.insert(k, i + 1000);
            }
            t.check_invariants();
        }
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn get_mut_updates_value() {
        let mut t: PhTree<Vec<u8>, 2> = PhTree::new();
        t.insert([3, 4], vec![1]);
        t.insert([3, 5], vec![2]);
        t.get_mut(&[3, 4]).unwrap().push(9);
        assert_eq!(t.get(&[3, 4]), Some(&vec![1, 9]));
        assert_eq!(t.get_mut(&[9, 9]), None);
    }

    #[test]
    fn forced_repr_modes_agree() {
        let keys: Vec<[u64; 2]> = (0..200u64).map(|i| [i % 16, i / 16]).collect();
        let mut adaptive = PhTree::<u64, 2>::with_mode(ReprMode::Adaptive);
        let mut lhc = PhTree::<u64, 2>::with_mode(ReprMode::ForceLhc);
        let mut hc = PhTree::<u64, 2>::with_mode(ReprMode::ForceHc);
        for (i, &k) in keys.iter().enumerate() {
            for t in [&mut adaptive, &mut lhc, &mut hc] {
                t.insert(k, i as u64);
            }
        }
        for t in [&adaptive, &lhc, &hc] {
            t.check_invariants();
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(t.get(k), Some(&(i as u64)));
            }
        }
        for &k in keys.iter().step_by(3) {
            let a = adaptive.remove(&k);
            assert_eq!(a, lhc.remove(&k));
            assert_eq!(a, hc.remove(&k));
        }
        assert_eq!(adaptive.len(), lhc.len());
        assert_eq!(adaptive.len(), hc.len());
        adaptive.check_invariants();
        lhc.check_invariants();
        hc.check_invariants();
    }

    #[test]
    fn shrink_preserves_content() {
        let mut t: PhTree<u32, 3> = PhTree::new();
        for i in 0..500u64 {
            t.insert([i, i * i % 512, i % 7], i as u32);
        }
        t.shrink_to_fit();
        t.check_invariants();
        for i in 0..500u64 {
            assert_eq!(t.get(&[i, i * i % 512, i % 7]), Some(&(i as u32)));
        }
    }

    #[test]
    fn boolean_16d_single_node() {
        // The paper's 16-dimensional boolean example: all keys live in
        // the root node, located with one array lookup.
        let mut t: PhTree<u32, 16> = PhTree::new();
        let mut n = 0;
        for pat in 0..(1u32 << 16) {
            if pat % 37 != 0 {
                continue; // sparse subset
            }
            let key: [u64; 16] = std::array::from_fn(|d| ((pat >> d) & 1) as u64);
            t.insert(key, pat);
            n += 1;
        }
        assert_eq!(t.len(), n);
        t.check_invariants();
        for pat in (0..(1u32 << 16)).step_by(37 * 3) {
            if pat % 37 == 0 {
                let key: [u64; 16] = std::array::from_fn(|d| ((pat >> d) & 1) as u64);
                assert_eq!(t.get(&key), Some(&pat));
            }
        }
    }
}
