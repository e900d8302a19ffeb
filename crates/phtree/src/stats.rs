//! Tree statistics and exact structural memory accounting.
//!
//! The paper measures index memory via JVM heap deltas and notes that
//! summing the calculated per-node sizes agrees within 5 % (Sect. 4.3.5).
//! We use the calculated sizes directly: every heap allocation owned by
//! the tree is summed, plus a fixed per-allocation overhead mirroring the
//! allocator/object-header cost that the paper's `object[]` model charges
//! (16 bytes per object).

use crate::node::Node;
use crate::tree::PhTree;

/// Assumed allocator overhead per heap allocation, in bytes (malloc
/// header / alignment slack; equals the paper's assumed Java object
/// header).
pub const ALLOC_OVERHEAD: usize = 16;

/// Structural statistics of a [`PhTree`], from [`PhTree::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of entries stored.
    pub entries: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Nodes currently in full-hypercube (HC) representation.
    pub hc_nodes: usize,
    /// Nodes currently in linear (LHC) representation.
    pub lhc_nodes: usize,
    /// Maximum node depth (root = 1).
    pub max_depth: usize,
    /// Total heap bytes owned by the tree, including per-allocation
    /// overhead ([`ALLOC_OVERHEAD`]).
    pub total_bytes: usize,
    /// Bytes of the nodes' packed bit strings (infixes, hypercube
    /// addresses, child kinds and postfixes).
    pub bit_bytes: usize,
    /// Number of heap allocations: one per node, plus one per segment
    /// of a paged node.
    pub allocations: usize,
}

impl TreeStats {
    /// Average bytes per stored entry (the paper's space metric).
    pub fn bytes_per_entry(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.entries as f64
        }
    }

    /// Entry-to-node ratio `r_e/n` (Sect. 3.4); higher is better.
    pub fn entries_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.entries as f64 / self.nodes as f64
        }
    }
}

/// Charges the heap block of one node — or of one segment of a paged
/// node — to `s`: its whole capacity, slack included, since that is
/// real heap until a shrink pass releases it.
fn charge_block<V, const K: usize>(n: &Node<V, K>, s: &mut TreeStats) {
    s.allocations += 1;
    s.total_bytes += n.capacity() + ALLOC_OVERHEAD;
    s.bit_bytes += std::mem::size_of_val(n.words());
}

fn node_stats<V, const K: usize>(n: &Node<V, K>, depth: usize, s: &mut TreeStats) {
    // A paged node is one (LHC) node; its segments only cost bytes.
    s.nodes += 1;
    s.max_depth = s.max_depth.max(depth);
    s.entries += n.n_posts();
    if n.is_hc() {
        s.hc_nodes += 1;
    } else {
        s.lhc_nodes += 1;
    }
    charge_block(n, s);
    for seg in n.segments() {
        charge_block(seg, s);
    }
    for sub in n.child_nodes() {
        node_stats(sub, depth + 1, s);
    }
}

impl<V, const K: usize> PhTree<V, K> {
    /// Computes structural statistics by walking the whole tree (O(n)).
    ///
    /// Bytes shared with other tree versions (clones/snapshots) are
    /// charged in full to every version referencing them: the figure is
    /// "bytes this tree keeps alive", not a marginal cost.
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats::default();
        if let Some(r) = self.root.as_deref() {
            node_stats(r, 1, &mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::PhTree;

    #[test]
    fn empty_tree_stats() {
        let t: PhTree<(), 2> = PhTree::new();
        let s = t.stats();
        assert_eq!(s.nodes, 0);
        assert_eq!(s.entries, 0);
        assert_eq!(s.total_bytes, 0);
        assert_eq!(s.bytes_per_entry(), 0.0);
    }

    #[test]
    fn entry_count_matches_len() {
        let mut t: PhTree<u32, 3> = PhTree::new();
        for i in 0..500u64 {
            t.insert([i * 7919 % 4096, i, i * i % 977], i as u32);
        }
        let s = t.stats();
        assert_eq!(s.entries, t.len());
        assert!(s.nodes >= 1);
        assert_eq!(s.hc_nodes + s.lhc_nodes, s.nodes);
        assert!(s.max_depth <= 64);
        assert!(s.total_bytes > 0);
        assert!(s.entries_per_node() > 1.0, "paper: r_e/n > 1 for n > 1");
    }

    #[test]
    fn depth_bounded_by_w() {
        // Power-of-two chain: the deepest possible tree.
        let mut t: PhTree<(), 1> = PhTree::new();
        t.insert([0], ());
        for b in 0..64 {
            t.insert([1u64 << b], ());
        }
        let s = t.stats();
        assert!(s.max_depth <= 64, "depth {} exceeds w", s.max_depth);
    }

    #[test]
    fn shrink_reduces_or_keeps_bytes() {
        let mut t: PhTree<u64, 2> = PhTree::new();
        for i in 0..2000u64 {
            t.insert([i, i.wrapping_mul(0x9E3779B97F4A7C15)], i);
        }
        let before = t.stats().total_bytes;
        t.shrink_to_fit();
        let after = t.stats().total_bytes;
        assert!(after <= before);
    }

    #[test]
    fn clustered_data_is_smaller_than_uniform() {
        // Prefix sharing: a dense cluster (a 64×64 grid in the low bits
        // under a long shared prefix) must use fewer bytes/entry and have
        // a better entry-to-node ratio than the same number of uniformly
        // scattered keys (Sect. 3.4 best case vs. typical case).
        let mut clustered: PhTree<(), 2> = PhTree::new();
        for i in 0..4096u64 {
            clustered.insert(
                [
                    0xFFFF_0000_0000_0000 | (i & 0x3F),
                    0xFFFF_0000_0000_0000 | (i >> 6),
                ],
                (),
            );
        }
        let mut scattered: PhTree<(), 2> = PhTree::new();
        let mut x = 9u64;
        while scattered.len() < 4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = x.wrapping_mul(0x9E3779B97F4A7C15);
            scattered.insert([x, y], ());
        }
        clustered.shrink_to_fit();
        scattered.shrink_to_fit();
        let (cs, ss) = (clustered.stats(), scattered.stats());
        assert!(
            cs.bytes_per_entry() < ss.bytes_per_entry(),
            "clustered {:.1} B/e should beat scattered {:.1} B/e",
            cs.bytes_per_entry(),
            ss.bytes_per_entry()
        );
        assert!(cs.entries_per_node() > ss.entries_per_node());
    }

    /// The paper's second worst case (Fig. 4b, powers of two): a line of
    /// keys each deviating at a different bit gives an entry-to-node
    /// ratio barely above 1.
    #[test]
    fn line_data_has_bad_entry_to_node_ratio() {
        let mut line: PhTree<(), 2> = PhTree::new();
        for i in 0..4000u64 {
            line.insert([i, i * 3], ());
        }
        let s = line.stats();
        // Chains of one-post+one-sub nodes drive the ratio towards 1.0
        // (the paper's Fig. 4b example has 5/4 = 1.25).
        assert!(s.entries_per_node() >= 1.0);
        assert!(s.entries_per_node() < 2.5, "got {}", s.entries_per_node());
    }
}
