//! Window (range) queries — Sect. 3.5 of the paper.
//!
//! A window query takes a lower-left and an upper-right corner and
//! returns every stored key inside the axis-aligned hyper-rectangle.
//! [`Query`] is the live tree's face of the one window walker,
//! [`crate::walk::Window`].

use crate::node::Node;
use crate::tree::PhTree;
use crate::walk::Window;

/// Iterator over all entries within a query rectangle, returned by
/// [`PhTree::query`].
///
/// Yields `([u64; K], &V)` pairs in depth-first (Z-order-ish) order —
/// not globally sorted.
pub struct Query<'t, V, const K: usize> {
    walk: Window<&'t Node<V, K>, K>,
}

/// Nodes visited over the iterator's lifetime are reported to the
/// telemetry sink on drop.
#[cfg(feature = "metrics")]
impl<V, const K: usize> Drop for Query<'_, V, K> {
    fn drop(&mut self) {
        crate::telemetry::record_op(crate::telemetry::TreeOp::Query, self.walk.vis);
    }
}

impl<'t, V, const K: usize> Query<'t, V, K> {
    pub(crate) fn new(
        tree: &'t PhTree<V, K>,
        min: [u64; K],
        max: [u64; K],
        slack_bits: u32,
    ) -> Self {
        let mut walk = Window::new(min, max, slack_bits);
        if let Some(root) = tree.root.as_deref() {
            let Ok(()) = walk.push_root(&root);
        }
        Query { walk }
    }
}

impl<'t, V, const K: usize> Iterator for Query<'t, V, K> {
    type Item = ([u64; K], &'t V);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let Ok(hit) = self.walk.next_entry();
        hit.map(|(key, _, post)| (key, post.value))
    }
}

impl<V, const K: usize> PhTree<V, K> {
    /// Window query: iterates over all entries with
    /// `min[d] <= key[d] <= max[d]` in every dimension `d`.
    ///
    /// ```
    /// let mut t: phtree::PhTree<(), 2> = phtree::PhTree::new();
    /// for x in 0..10u64 {
    ///     for y in 0..10u64 {
    ///         t.insert([x, y], ());
    ///     }
    /// }
    /// assert_eq!(t.query(&[2, 3], &[4, 5]).count(), 3 * 3);
    /// ```
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> Query<'_, V, K> {
        Query::new(self, *min, *max, 0)
    }

    /// Approximate window query (the future extension the paper adopts
    /// from Nickerson & Shi, Sect. 2/5: trading accuracy at the window
    /// edges for fewer visited nodes).
    ///
    /// Returns a **superset** of [`PhTree::query`]: any node whose
    /// region spans at most `2^slack_bits` per dimension and touches the
    /// window is reported wholesale, skipping all boundary checks below
    /// it. Every reported key therefore lies within `2^slack_bits − 1`
    /// of the window in each dimension; `slack_bits = 0` is exact.
    ///
    /// ```
    /// let mut t: phtree::PhTree<(), 2> = phtree::PhTree::new();
    /// for x in 0..32u64 {
    ///     for y in 0..32u64 {
    ///         t.insert([x, y], ());
    ///     }
    /// }
    /// let exact = t.query(&[8, 8], &[23, 23]).count();
    /// let approx = t.query_approx(&[8, 8], &[23, 23], 2).count();
    /// assert!(approx >= exact);
    /// // All extra results are within 2^2 - 1 = 3 of the window.
    /// for (k, _) in t.query_approx(&[8, 8], &[23, 23], 2) {
    ///     assert!(k[0] >= 5 && k[0] <= 26 && k[1] >= 5 && k[1] <= 26);
    /// }
    /// ```
    pub fn query_approx(&self, min: &[u64; K], max: &[u64; K], slack_bits: u32) -> Query<'_, V, K> {
        Query::new(self, *min, *max, slack_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute<V, const K: usize>(
        entries: &[([u64; K], V)],
        min: &[u64; K],
        max: &[u64; K],
    ) -> Vec<[u64; K]> {
        let mut v: Vec<[u64; K]> = entries
            .iter()
            .filter(|(k, _)| (0..K).all(|d| min[d] <= k[d] && k[d] <= max[d]))
            .map(|(k, _)| *k)
            .collect();
        v.sort();
        v
    }

    fn run_query<V, const K: usize>(
        t: &PhTree<V, K>,
        min: &[u64; K],
        max: &[u64; K],
    ) -> Vec<[u64; K]> {
        let mut v: Vec<[u64; K]> = t.query(min, max).map(|(k, _)| k).collect();
        v.sort();
        v
    }

    #[test]
    fn empty_tree_query() {
        let t: PhTree<(), 2> = PhTree::new();
        assert_eq!(t.query(&[0, 0], &[u64::MAX, u64::MAX]).count(), 0);
    }

    #[test]
    fn grid_queries() {
        let mut t: PhTree<u64, 2> = PhTree::new();
        let mut entries = Vec::new();
        for x in 0..16u64 {
            for y in 0..16u64 {
                t.insert([x, y], x * 16 + y);
                entries.push(([x, y], x * 16 + y));
            }
        }
        for (min, max) in [
            ([0, 0], [15, 15]),
            ([3, 3], [3, 3]),
            ([5, 0], [9, 15]),
            ([12, 13], [2, 3]), // empty: min > max
            ([10, 10], [255, 255]),
        ] {
            assert_eq!(run_query(&t, &min, &max), brute(&entries, &min, &max));
        }
    }

    #[test]
    fn full_range_query_returns_everything() {
        let mut t: PhTree<(), 3> = PhTree::new();
        let keys: Vec<[u64; 3]> = (0..300u64)
            .map(|i| [i.wrapping_mul(0x9E3779B97F4A7C15), i * i, i])
            .collect();
        for &k in &keys {
            t.insert(k, ());
        }
        let got = run_query(&t, &[0; 3], &[u64::MAX; 3]);
        let mut want = keys.clone();
        want.sort();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn skewed_boolean_dimension() {
        // The paper's worst case: one dimension holds only 0/1.
        let mut t: PhTree<(), 2> = PhTree::new();
        let mut entries = Vec::new();
        for i in 0..200u64 {
            let k = [i, i % 2];
            t.insert(k, ());
            entries.push((k, ()));
        }
        let (min, max) = ([0u64, 1], [u64::MAX, 1]);
        assert_eq!(run_query(&t, &min, &max), brute(&entries, &min, &max));
    }

    #[test]
    fn query_with_extreme_bounds() {
        let mut t: PhTree<(), 1> = PhTree::new();
        for k in [0u64, 1, u64::MAX - 1, u64::MAX, 1 << 63] {
            t.insert([k], ());
        }
        assert_eq!(run_query(&t, &[0], &[u64::MAX]).len(), 5);
        assert_eq!(run_query(&t, &[u64::MAX], &[u64::MAX]), vec![[u64::MAX]]);
        assert_eq!(run_query(&t, &[1], &[1 << 63]), vec![[1], [1 << 63]]);
    }

    #[test]
    fn query_respects_all_dimensions() {
        let mut t: PhTree<(), 4> = PhTree::new();
        let mut entries = Vec::new();
        for i in 0..500u64 {
            let k = [i % 7, i % 11, i % 13, i % 17];
            if t.insert(k, ()).is_none() {
                entries.push((k, ()));
            }
        }
        let min = [1, 2, 3, 4];
        let max = [5, 8, 10, 12];
        assert_eq!(run_query(&t, &min, &max), brute(&entries, &min, &max));
    }
}

#[cfg(test)]
mod approx_tests {
    use crate::PhTree;

    #[test]
    fn approx_zero_slack_is_exact() {
        let mut t: PhTree<(), 2> = PhTree::new();
        for x in 0..64u64 {
            for y in 0..64u64 {
                t.insert([x, y], ());
            }
        }
        let exact: Vec<_> = t.query(&[10, 20], &[30, 40]).map(|(k, _)| k).collect();
        let approx: Vec<_> = t
            .query_approx(&[10, 20], &[30, 40], 0)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(exact, approx);
    }

    #[test]
    fn approx_slack_bounds_extra_results() {
        let mut t: PhTree<(), 1> = PhTree::new();
        for x in 0..1024u64 {
            t.insert([x], ());
        }
        let exact = t.query(&[100], &[200]).count();
        for slack in [1u32, 3, 5] {
            let eps = (1u64 << slack) - 1;
            let mut min_seen = u64::MAX;
            let mut max_seen = 0;
            let mut n = 0;
            for (k, _) in t.query_approx(&[100], &[200], slack) {
                min_seen = min_seen.min(k[0]);
                max_seen = max_seen.max(k[0]);
                n += 1;
            }
            assert!(n >= exact);
            assert!(min_seen >= 100 - eps, "slack {slack}: {min_seen}");
            assert!(max_seen <= 200 + eps, "slack {slack}: {max_seen}");
        }
    }

    #[test]
    fn approx_on_huge_slack_returns_everything_intersecting() {
        let mut t: PhTree<(), 2> = PhTree::new();
        for i in 0..100u64 {
            t.insert([i, 1000 - i], ());
        }
        // Slack 64 makes every intersecting node "inside".
        let n = t.query_approx(&[50, 900], &[60, 1000], 63).count();
        assert!(n >= t.query(&[50, 900], &[60, 1000]).count());
        assert!(n <= 100);
    }

    #[test]
    fn query_on_hc_nodes() {
        // A dense 2-bit grid forces HC representation at the bottom;
        // queries must traverse HC nodes via the mask successor.
        let mut t: PhTree<u8, 2> = PhTree::new();
        for x in 0..16u64 {
            for y in 0..16u64 {
                t.insert([x, y], (x * 16 + y) as u8);
            }
        }
        assert!(t.stats().hc_nodes > 0, "grid must produce HC nodes");
        let hits: Vec<_> = t.query(&[3, 5], &[6, 9]).collect();
        assert_eq!(hits.len(), 4 * 5);
        for (k, &v) in hits {
            assert_eq!(v as u64, k[0] * 16 + k[1]);
        }
    }

    #[test]
    fn empty_window_between_points() {
        let mut t: PhTree<(), 2> = PhTree::new();
        t.insert([0, 0], ());
        t.insert([100, 100], ());
        assert_eq!(t.query(&[10, 10], &[90, 90]).count(), 0);
    }
}
