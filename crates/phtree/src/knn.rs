//! k-nearest-neighbour search.
//!
//! The paper lists nearest-neighbour queries as a desirable extension
//! ("an early prototype implementation indicates that such searches can
//! be efficiently performed", Sect. 5). This module implements them with
//! a classic best-first traversal: a priority queue ordered by minimum
//! possible distance holds both unexpanded nodes (keyed by the distance
//! from the query point to the node's region) and concrete entries; when
//! an entry reaches the front of the queue it is provably the next
//! nearest result.

use crate::key::key_to_f64;
use crate::node::{Node, SlotRef};
use crate::tree::PhTree;
use phbits::{hc, num};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A distance metric over PH-tree keys.
///
/// Implementations define a per-dimension distance; point and
/// point-to-box distances derive from it. Distances must be
/// non-negative and the per-dimension distance monotone in `|a − b|`
/// along each axis for the search to be exact.
pub trait Distance<const K: usize> {
    /// Distance contribution of dimension `d` between coordinates `a`
    /// and `b` (stored key space). Returns the *squared* term.
    fn dim_dist2(&self, d: usize, a: u64, b: u64) -> f64;

    /// Euclidean-style distance between two points.
    fn point(&self, a: &[u64; K], b: &[u64; K]) -> f64 {
        (0..K)
            .map(|d| self.dim_dist2(d, a[d], b[d]))
            .sum::<f64>()
            .sqrt()
    }

    /// Minimum distance from `p` to the axis-aligned box `[lo, hi]`.
    fn to_box(&self, p: &[u64; K], lo: &[u64; K], hi: &[u64; K]) -> f64 {
        (0..K)
            .map(|d| {
                let c = p[d].clamp(lo[d], hi[d]);
                self.dim_dist2(d, p[d], c)
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Euclidean distance treating keys as unsigned integers.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntEuclidean;

impl<const K: usize> Distance<K> for IntEuclidean {
    #[inline]
    fn dim_dist2(&self, _d: usize, a: u64, b: u64) -> f64 {
        let diff = a.abs_diff(b) as f64;
        diff * diff
    }
}

/// Euclidean distance for keys produced by [`crate::key::f64_to_key`]:
/// coordinates are decoded back to `f64` before measuring. Exact because
/// the per-dimension encoding is monotone.
#[derive(Clone, Copy, Debug, Default)]
pub struct F64Euclidean;

impl<const K: usize> Distance<K> for F64Euclidean {
    #[inline]
    fn dim_dist2(&self, _d: usize, a: u64, b: u64) -> f64 {
        let diff = key_to_f64(a) - key_to_f64(b);
        diff * diff
    }
}

/// One k-nearest-neighbour result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor<'t, V, const K: usize> {
    /// The stored key.
    pub key: [u64; K],
    /// The stored value.
    pub value: &'t V,
    /// Distance from the query point under the metric used.
    pub dist: f64,
}

/// An f64 wrapper giving total order for the priority queue.
#[derive(PartialEq)]
struct D(f64);
impl Eq for D {}
impl PartialOrd for D {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for D {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

enum Item<'t, V, const K: usize> {
    Node(&'t Node<V, K>, [u64; K]),
    Entry([u64; K], &'t V),
}

// Items hold only references and fixed-size arrays; copying them lets the
// search pop by value while the arena vector stays borrow-free.
impl<'t, V, const K: usize> Clone for Item<'t, V, K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'t, V, const K: usize> Copy for Item<'t, V, K> {}

impl<V, const K: usize> PhTree<V, K> {
    /// Returns the `n` entries nearest to `center` under integer
    /// Euclidean distance, nearest first.
    ///
    /// ```
    /// let mut t: phtree::PhTree<&str, 2> = phtree::PhTree::new();
    /// t.insert([0, 0], "origin");
    /// t.insert([10, 10], "far");
    /// t.insert([3, 4], "near");
    /// let nn = t.knn(&[1, 1], 2);
    /// assert_eq!(*nn[0].value, "origin");
    /// assert_eq!(*nn[1].value, "near");
    /// assert!((nn[1].dist - (13.0f64).sqrt()).abs() < 1e-9);
    /// ```
    pub fn knn(&self, center: &[u64; K], n: usize) -> Vec<Neighbor<'_, V, K>> {
        self.knn_with(center, n, &IntEuclidean)
    }

    /// Like [`PhTree::knn`], but only returns neighbours with distance
    /// `<= max_dist` (a range-limited nearest-neighbour search).
    ///
    /// ```
    /// let mut t: phtree::PhTree<(), 1> = phtree::PhTree::new();
    /// for x in [0u64, 5, 100] {
    ///     t.insert([x], ());
    /// }
    /// let close = t.knn_within(&[1], 10, 6.0);
    /// assert_eq!(close.len(), 2); // 0 and 5, but not 100
    /// ```
    pub fn knn_within(
        &self,
        center: &[u64; K],
        n: usize,
        max_dist: f64,
    ) -> Vec<Neighbor<'_, V, K>> {
        let mut out = self.knn_with(center, n, &IntEuclidean);
        // Best-first yields sorted distances; cut at the bound.
        let keep = out.partition_point(|nb| nb.dist <= max_dist);
        out.truncate(keep);
        out
    }

    /// Like [`PhTree::knn`] with a caller-supplied [`Distance`] metric.
    pub fn knn_with<D2: Distance<K>>(
        &self,
        center: &[u64; K],
        n: usize,
        metric: &D2,
    ) -> Vec<Neighbor<'_, V, K>> {
        let mut out = Vec::with_capacity(n.min(self.len()));
        if n == 0 {
            return out;
        }
        let Some(root) = self.root.as_deref() else {
            return out;
        };
        fn push<'t, V, const K: usize>(
            heap: &mut BinaryHeap<(Reverse<D>, usize)>,
            items: &mut Vec<Item<'t, V, K>>,
            dist: f64,
            item: Item<'t, V, K>,
        ) {
            items.push(item);
            heap.push((Reverse(D(dist)), items.len() - 1));
        }
        let mut heap: BinaryHeap<(Reverse<D>, usize)> = BinaryHeap::new();
        let mut items: Vec<Item<'_, V, K>> = Vec::new();
        push(&mut heap, &mut items, 0.0, Item::Node(root, [0u64; K]));
        while let Some((Reverse(D(dist)), idx)) = heap.pop() {
            match items[idx] {
                Item::Entry(key, value) => {
                    out.push(Neighbor { key, value, dist });
                    if out.len() == n {
                        break;
                    }
                }
                Item::Node(node, prefix) => {
                    for (h, slot) in node.iter_slots() {
                        let mut p = prefix;
                        hc::apply_addr(&mut p, h, node.post_len as u32);
                        match slot {
                            SlotRef::Post { seg, pf_off, value } => {
                                let mut key = p;
                                seg.read_postfix_into(pf_off, &mut key);
                                let d = metric.point(center, &key);
                                push(&mut heap, &mut items, d, Item::Entry(key, value));
                            }
                            SlotRef::Sub(sub) => {
                                sub.read_infix_into(&mut p);
                                let span = num::low_mask(sub.post_len as u32 + 1);
                                let mut lo = p;
                                let mut hi = p;
                                for d in 0..K {
                                    lo[d] &= !span;
                                    hi[d] |= span;
                                }
                                let d = metric.to_box(center, &lo, &hi);
                                push(&mut heap, &mut items, d, Item::Node(sub, lo));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_knn<const K: usize>(pts: &[[u64; K]], center: &[u64; K], n: usize) -> Vec<f64> {
        let m = IntEuclidean;
        let mut d: Vec<f64> = pts
            .iter()
            .map(|p| Distance::<K>::point(&m, center, p))
            .collect();
        d.sort_by(f64::total_cmp);
        d.truncate(n);
        d
    }

    #[test]
    fn knn_on_empty_tree() {
        let t: PhTree<(), 2> = PhTree::new();
        assert!(t.knn(&[0, 0], 3).is_empty());
    }

    #[test]
    fn knn_zero_neighbors() {
        let mut t: PhTree<(), 2> = PhTree::new();
        t.insert([1, 1], ());
        assert!(t.knn(&[0, 0], 0).is_empty());
    }

    #[test]
    fn knn_matches_brute_force() {
        let mut t: PhTree<usize, 3> = PhTree::new();
        let mut pts = Vec::new();
        let mut x = 0x12345u64;
        for i in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = [x % 1000, (x >> 20) % 1000, (x >> 40) % 1000];
            if t.insert(p, i).is_none() {
                pts.push(p);
            }
        }
        for center in [[0u64, 0, 0], [500, 500, 500], [999, 0, 999]] {
            for n in [1, 5, 17] {
                let got: Vec<f64> = t.knn(&center, n).iter().map(|nb| nb.dist).collect();
                let want = brute_knn(&pts, &center, n);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-9, "center {center:?} n {n}: {g} vs {w}");
                }
                // Results must be sorted by distance.
                assert!(got.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn knn_more_than_len_returns_all() {
        let mut t: PhTree<(), 2> = PhTree::new();
        for i in 0..5u64 {
            t.insert([i, i], ());
        }
        assert_eq!(t.knn(&[2, 2], 100).len(), 5);
    }

    #[test]
    fn knn_exact_hit_is_first() {
        let mut t: PhTree<u8, 2> = PhTree::new();
        t.insert([7, 7], 1);
        t.insert([8, 8], 2);
        let nn = t.knn(&[7, 7], 1);
        assert_eq!(nn[0].key, [7, 7]);
        assert_eq!(nn[0].dist, 0.0);
    }
}
