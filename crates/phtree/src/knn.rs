//! k-nearest-neighbour search.
//!
//! The paper lists nearest-neighbour queries as a desirable extension
//! ("an early prototype implementation indicates that such searches can
//! be efficiently performed", Sect. 5). This module holds the one
//! best-first search of the workspace, written over the node read seam
//! ([`NodeRead`]) so the live tree and the packed reader (`phpack`)
//! run the same loop, and over a *forest*: the queue is seeded with any
//! number of roots, so a sharded kNN is one search, not one per shard.
//!
//! A priority queue ordered by minimum possible distance holds
//! unresolved sub-nodes and resolved nodes; entries never enter it.
//! Three rules keep the work small:
//!
//! * **Pruning bound.** The `n` best entries seen so far, by
//!   `(distance, key)`, sit in a bounded max-heap; once it is full the
//!   top's distance (before that the caller's `max_dist`) bounds
//!   everything still worth looking at: nothing farther is queued or
//!   decoded, and the loop ends when the queue's front exceeds it.
//! * **Quadrants before slots.** Expanding a node measures, per
//!   dimension, the distance from the centre to the node's lower and
//!   upper half (2K metric calls). A slot's quadrant bound is then K
//!   table lookups by its address bits — the window iterator's mask
//!   test (Sect. 3.5) in metric form. A slot beyond the bound is
//!   skipped before its key is built or its postfix read, and an entry
//!   that survives is read one coordinate at a time, abandoned as soon
//!   as the coordinates read are too far.
//! * **Deferred children.** A sub-node is queued as an unresolved handle
//!   keyed by its quadrant bound — computable from the parent alone.
//!   Only when it reaches the front is it resolved (for a packed tree:
//!   its page fetched), its infix read and its own, tighter box
//!   measured; it is then expanded or re-queued. Sub-trees and pages
//!   the bound cuts off are never touched.
//!
//! Results are sorted by `(distance, key)`, so which of several
//! equidistant keys is returned does not depend on tree shape, shard
//! layout or storage.

use crate::key::key_to_f64;
use crate::node::Node;
use crate::tree::PhTree;
use crate::walk::{NodeRead, Slot};
use phbits::{hc, num};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A distance metric over PH-tree keys, given by its per-dimension
/// term; [`point`] and [`to_box`] sum the terms in dimension order.
///
/// The terms must be non-negative, and `dim_dist2(d, a, b)` must not
/// shrink as `b` moves away from `a` along dimension `d`. The search
/// relies on it to skip a quadrant whose box is already too far: the
/// term to the box's clamped coordinate is then a lower bound for the
/// term to any coordinate inside it.
pub trait Distance<const K: usize> {
    /// Distance contribution of dimension `d` between coordinates `a`
    /// and `b` (stored key space). Returns the *squared* term.
    fn dim_dist2(&self, d: usize, a: u64, b: u64) -> f64;
}

/// Distance between two points under `metric`.
pub fn point<M: Distance<K>, const K: usize>(metric: &M, a: &[u64; K], b: &[u64; K]) -> f64 {
    (0..K)
        .fold(0.0, |s, d| s + metric.dim_dist2(d, a[d], b[d]))
        .sqrt()
}

/// Minimum distance under `metric` from `p` to the axis-aligned box
/// `[lo, hi]`.
pub fn to_box<M: Distance<K>, const K: usize>(
    metric: &M,
    p: &[u64; K],
    lo: &[u64; K],
    hi: &[u64; K],
) -> f64 {
    (0..K)
        .fold(0.0, |s, d| {
            s + metric.dim_dist2(d, p[d], p[d].clamp(lo[d], hi[d]))
        })
        .sqrt()
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

/// One k-nearest-neighbour result; `value` is whatever the searched
/// store hands out for a stored value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit<V, const K: usize> {
    /// The stored key.
    pub key: [u64; K],
    /// The stored value.
    pub value: V,
    /// Distance from the query point under the metric used.
    pub dist: f64,
}

/// A result of a search on a live tree: the value is borrowed from it.
pub type Neighbor<'t, V, const K: usize> = Hit<&'t V, K>;

/// How much of the forest a search opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expanded {
    /// Roots resolved (of those handed in).
    pub roots: usize,
    /// Nodes whose slots were visited, roots included.
    pub nodes: usize,
    /// Entry postfixes read, in full or in part: the entry slots of
    /// those nodes that their quadrant did not rule out.
    pub decoded: usize,
}

/// An f64 wrapper giving total order for the priority queues
/// (distances are never NaN, where the derived order would differ).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
struct D(f64);
impl Eq for D {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for D {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

enum Item<N: NodeRead<K>, const K: usize> {
    /// An unresolved node and the low corner of the region known to
    /// hold it (a quadrant of its parent; all zero for a root).
    Child(N::Child, [u64; K]),
    /// A resolved node and the low corner of its own region.
    Node(N, [u64; K]),
}

/// Reusable state of the search: the queue, its item arena, the best
/// entries and the results. Keep one per worker and searches stop
/// allocating once the capacity high-water mark is reached.
pub struct KnnScratch<N: NodeRead<K>, const K: usize> {
    heap: BinaryHeap<(Reverse<D>, u32)>,
    /// Queue items by arena index; `None` once popped.
    items: Vec<Option<Item<N, K>>>,
    /// The `n` best entries seen as `(distance, key, index into
    /// values)`, worst on top: `(distance, key)` is the result order,
    /// so it also decides which of equidistant entries are kept.
    best: BinaryHeap<(D, [u64; K], u32)>,
    /// The values of the entries in `best`, at the index each keeps.
    values: Vec<Option<N::Value>>,
    /// Nothing farther than this can be a result.
    bound: f64,
    hits: Vec<Hit<N::Value, K>>,
}

impl<N: NodeRead<K>, const K: usize> Default for KnnScratch<N, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: NodeRead<K>, const K: usize> KnnScratch<N, K> {
    /// An empty scratch.
    pub fn new() -> Self {
        KnnScratch {
            heap: BinaryHeap::new(),
            items: Vec::new(),
            best: BinaryHeap::new(),
            values: Vec::new(),
            bound: f64::INFINITY,
            hits: Vec::new(),
        }
    }

    fn push(&mut self, dist: f64, item: Item<N, K>) {
        if dist <= self.bound {
            self.heap.push((Reverse(D(dist)), self.items.len() as u32));
            self.items.push(Some(item));
        }
    }

    /// Searches the forest under `roots` for the `n` entries nearest to
    /// `center` and no farther than `max_dist`. Each root comes with a
    /// lower bound on the distance to anything below it (0 if nothing
    /// is known); a root farther than the results found is never
    /// resolved. The hits — sorted by `(distance, key)` — stay in the
    /// scratch until [`KnnScratch::drain_hits`] or the next search.
    pub fn search<M: Distance<K>>(
        &mut self,
        roots: impl IntoIterator<Item = (f64, N::Child)>,
        center: &[u64; K],
        n: usize,
        max_dist: f64,
        metric: &M,
    ) -> Result<Expanded, N::Error> {
        self.heap.clear();
        self.items.clear();
        self.best.clear();
        self.values.clear();
        self.hits.clear();
        self.bound = max_dist;
        let mut seen = Expanded::default();
        if n == 0 {
            return Ok(seen);
        }
        for (dist, root) in roots {
            self.push(dist, Item::Child(root, [0; K]));
        }
        // Arena indices below this are roots.
        let n_roots = self.items.len();
        while let Some((Reverse(D(dist)), idx)) = self.heap.pop() {
            if dist > self.bound {
                break;
            }
            let item = self.items[idx as usize]
                .take()
                .expect("every arena slot is popped once");
            let (node, corner) = match item {
                Item::Node(node, corner) => (node, corner),
                Item::Child(child, mut corner) => {
                    let node = N::resolve(&child)?;
                    seen.roots += ((idx as usize) < n_roots) as usize;
                    node.read_infix_into(&mut corner);
                    let span = num::low_mask(node.post_len() + 1);
                    let tight = to_box(metric, center, &corner, &corner.map(|c| c | span));
                    // Not the nearest thing any more: queue it again
                    // (or, beyond the bound, drop it).
                    let next = self.heap.peek().map_or(self.bound, |(Reverse(d), _)| d.0);
                    if tight > next {
                        self.push(tight, Item::Node(node, corner));
                        continue;
                    }
                    (node, corner)
                }
            };
            seen.nodes += 1;
            let p = node.post_len();
            let span = num::low_mask(p);
            // Squared distance from the centre to the node's lower and
            // upper half, per dimension: the terms `to_box` sums for a
            // quadrant, computed once for all of them.
            let halves: [[f64; 2]; K] = std::array::from_fn(|d| {
                [0, 1 << p].map(|half| {
                    let lo = corner[d] | half;
                    metric.dim_dist2(d, center[d], center[d].clamp(lo, lo | span))
                })
            });
            node.visit_slots(|h, slot| {
                let quadrant = (0..K)
                    .fold(0.0, |s, d| s + halves[d][(h >> (K - 1 - d)) as usize & 1])
                    .sqrt();
                if quadrant > self.bound {
                    return;
                }
                // What the slot spells below the node's low corner: an
                // entry's key, or a sub-node's quadrant's low corner.
                let mut key = corner;
                hc::apply_addr(&mut key, h, p);
                let post = match slot {
                    Slot::Sub(child) => return self.push(quadrant, Item::Child(child, key)),
                    Slot::Post(post) => post,
                };
                seen.decoded += 1;
                // Coordinates are summed as read, as `point` sums them;
                // once a partial sum's root is past the bound the entry
                // cannot win (`bound2` only spares the roots below it).
                let (bound, bound2, mut sum) = (self.bound, self.bound * self.bound, 0.0);
                let read = node.read_postfix_while(&post, &mut key, |d, v| {
                    sum += metric.dim_dist2(d, center[d], v);
                    !(sum > bound2 && sum.sqrt() > bound)
                });
                let dist = D(sum.sqrt());
                if !read || dist.0 > bound {
                    return;
                }
                if self.best.len() < n {
                    self.best.push((dist, key, self.values.len() as u32));
                    self.values.push(Some(node.value(post)));
                } else {
                    let mut worst = self.best.peek_mut().expect("n > 0");
                    if (dist, key).cmp(&(worst.0, worst.1)).is_ge() {
                        return;
                    }
                    *worst = (dist, key, worst.2);
                    self.values[worst.2 as usize] = Some(node.value(post));
                }
                if let (true, Some((D(worst), ..))) = (self.best.len() == n, self.best.peek()) {
                    self.bound = *worst;
                }
            })?;
        }
        for (D(dist), key, at) in self.best.drain() {
            let value = self.values[at as usize]
                .take()
                .expect("one value per entry");
            self.hits.push(Hit { key, value, dist });
        }
        self.hits
            .sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist).then_with(|| a.key.cmp(&b.key)));
        Ok(seen)
    }

    /// Takes the last search's hits, nearest first, keeping the buffer.
    pub fn drain_hits(&mut self) -> std::vec::Drain<'_, Hit<N::Value, K>> {
        self.hits.drain(..)
    }
}

/// One search over several live trees (the shards of a snapshot): the
/// `n` entries nearest to `center` within `max_dist`, sorted by
/// `(distance, key)`. Each tree comes with a lower bound on the
/// distance from `center` to any key it can hold (0 if unknown); trees
/// farther than the results found are never entered.
pub fn forest<'t, V, M: Distance<K>, const K: usize>(
    trees: impl IntoIterator<Item = (f64, &'t PhTree<V, K>)>,
    center: &[u64; K],
    n: usize,
    max_dist: f64,
    metric: &M,
) -> (Vec<Neighbor<'t, V, K>>, Expanded) {
    let roots = trees
        .into_iter()
        .filter_map(|(dist, tree)| Some((dist, tree.root.as_deref()?)));
    let mut scratch = KnnScratch::<&Node<V, K>, K>::new();
    let seen = match scratch.search(roots, center, n, max_dist, metric) {
        Ok(seen) => seen,
        Err(never) => match never {},
    };
    (scratch.hits, seen)
}

impl<V, const K: usize> PhTree<V, K> {
    /// Returns the `n` entries nearest to `center` under integer
    /// Euclidean distance, sorted by `(distance, key)`: of several
    /// equidistant keys the smallest are returned, whatever the tree's
    /// shape.
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
    /// `<= max_dist` (a range-limited nearest-neighbour search, which
    /// never looks at a node farther than `max_dist`).
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
        forest([(0.0, self)], center, n, max_dist, &IntEuclidean).0
    }

    /// Like [`PhTree::knn`] with a caller-supplied [`Distance`] metric.
    pub fn knn_with<D2: Distance<K>>(
        &self,
        center: &[u64; K],
        n: usize,
        metric: &D2,
    ) -> Vec<Neighbor<'_, V, K>> {
        forest([(0.0, self)], center, n, f64::INFINITY, metric).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_knn<const K: usize>(pts: &[[u64; K]], center: &[u64; K], n: usize) -> Vec<f64> {
        let m = IntEuclidean;
        let mut d: Vec<f64> = pts.iter().map(|p| point(&m, center, p)).collect();
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

    #[test]
    fn ties_come_back_in_key_order_whatever_the_insert_order() {
        // A ring of 8 keys at distance 5 around [10, 10] and one nearer.
        let ring = [
            [5u64, 10],
            [15, 10],
            [10, 5],
            [10, 15],
            [7, 6],
            [13, 14],
            [6, 13],
            [14, 7],
        ];
        let mut want = ring;
        want.sort();
        for rot in 0..ring.len() {
            let mut t: PhTree<usize, 2> = PhTree::new();
            for i in 0..ring.len() {
                t.insert(ring[(i + rot) % ring.len()], i);
            }
            t.insert([10, 11], 99);
            let nn = t.knn(&[10, 10], 4);
            assert_eq!(nn[0].key, [10, 11]);
            let got: Vec<_> = nn[1..].iter().map(|nb| nb.key).collect();
            assert_eq!(got, want[..3], "rotation {rot}");
            assert!(nn[1..].iter().all(|nb| nb.dist == 5.0));
        }
    }

    fn lcg_tree(n: usize) -> PhTree<usize, 3> {
        let mut t = PhTree::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            let mut p = [0u64; 3];
            for c in &mut p {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = x >> 20;
            }
            t.insert(p, i);
        }
        t
    }

    #[test]
    fn knn_within_a_tiny_radius_walks_one_path() {
        let t = lcg_tree(100_000);
        let (key, _) = t.iter().nth(12_345).unwrap();
        let (hits, seen) = forest([(0.0, &t)], &key, 10, 0.5, &IntEuclidean);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, key);
        // Only nodes whose box touches the ball are opened: the path to
        // the key (at most one node per key bit).
        assert!(seen.nodes <= 64, "expanded {} nodes", seen.nodes);
        let (all, unbounded) = forest([(0.0, &t)], &key, 10, f64::INFINITY, &IntEuclidean);
        assert_eq!(all.len(), 10);
        assert!(seen.nodes < unbounded.nodes);
    }

    /// Counts on a seeded K=8 tree. `nodes` was measured before the
    /// quadrant table, which decoded every entry slot of those nodes:
    /// 584 057. The table changes what is read, not what is opened.
    #[test]
    fn knn_opens_the_same_nodes_and_decodes_a_fifth_of_their_entries() {
        let mut x = 8u64;
        let mut point = || -> [u64; 8] {
            std::array::from_fn(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
        };
        let t: PhTree<usize, 8> = PhTree::bulk_load((0..20_000).map(|i| (point(), i)).collect());
        let mut total = Expanded::default();
        for c in (0..64).map(|_| point()) {
            for n in [1, 10, 100] {
                let (hits, seen) = forest([(0.0, &t)], &c, n, f64::INFINITY, &IntEuclidean);
                assert_eq!(hits.len(), n);
                total.nodes += seen.nodes;
                total.decoded += seen.decoded;
            }
        }
        assert_eq!(total.nodes, 26_479);
        assert!(total.decoded * 4 <= 584_057, "{total:?}");
    }

    #[test]
    fn forest_never_enters_a_tree_beyond_the_results() {
        let near = lcg_tree(1_000);
        let mut far: PhTree<usize, 3> = PhTree::new();
        far.insert([u64::MAX; 3], 0);
        let empty: PhTree<usize, 3> = PhTree::new();
        let center = [1u64 << 40; 3];
        let far_bound = point(&IntEuclidean, &center, &[u64::MAX; 3]);
        let trees = [(0.0, &near), (far_bound, &far), (0.0, &empty)];
        let (hits, seen) = forest(trees, &center, 5, f64::INFINITY, &IntEuclidean);
        assert_eq!(seen.roots, 1);
        let want: Vec<_> = near.knn(&center, 5).iter().map(|nb| nb.key).collect();
        assert_eq!(hits.iter().map(|nb| nb.key).collect::<Vec<_>>(), want);
        // Asked for more than the near tree holds, the far one is entered.
        let (hits, seen) = forest(trees, &center, 2_000, f64::INFINITY, &IntEuclidean);
        assert_eq!((hits.len(), seen.roots), (1_001, 2));
        assert_eq!(hits.last().unwrap().key, [u64::MAX; 3]);
    }
}
