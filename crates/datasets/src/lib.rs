//! Dataset and query-workload generators for the PH-tree evaluation
//! (paper Sect. 4.2).
//!
//! Three datasets drive every experiment in the paper:
//!
//! * **CUBE** — up to 10⁸ points uniform in `[0,1]^k` ([`cube`]).
//! * **CLUSTER** — 10 000 evenly spaced clusters of extent `10⁻⁵` along
//!   the line `x ∈ [0,1]`, all other coordinates at a fixed offset
//!   (0.5 in the original, 0.4 in the paper's CLUSTER0.4 variant that
//!   avoids the IEEE exponent boundary) ([`cluster`]).
//! * **TIGER/Line** — 18.4 M unique 2-D points from the US Census
//!   TIGER/Line KML poly-lines. The real dataset is not redistributable
//!   here, so [`tiger_like`] generates a synthetic equivalent: clustered
//!   "counties" over the same bounding box (−125 ≤ x ≤ −65,
//!   24 ≤ y ≤ 50) emitting random-walk poly-line vertices, delivered
//!   county-by-county like the original loader. This preserves the
//!   properties the paper's experiments exercise: strong local
//!   clustering (prefix sharing), bounded coordinates and
//!   spatially-correlated insertion order.
//!
//! All generators are deterministic given a seed. Query workload
//! builders for the point- and range-query experiments live here too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of clusters in the CLUSTER dataset (paper Sect. 4.2).
pub const CLUSTER_COUNT: usize = 10_000;
/// Extent of each cluster in every dimension (paper Sect. 4.2).
pub const CLUSTER_EXTENT: f64 = 0.00001;

/// TIGER-like bounding box: `x` range (degrees longitude, mainland US).
pub const TIGER_X: (f64, f64) = (-125.0, -65.0);
/// TIGER-like bounding box: `y` range (degrees latitude).
pub const TIGER_Y: (f64, f64) = (24.0, 50.0);

/// The CUBE dataset: `n` points uniform in `[0,1]^K`.
///
/// ```
/// let pts = datasets::cube::<3>(100, 42);
/// assert_eq!(pts.len(), 100);
/// assert!(pts.iter().all(|p| p.iter().all(|&c| (0.0..1.0).contains(&c))));
/// ```
pub fn cube<const K: usize>(n: usize, seed: u64) -> Vec<[f64; K]> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0BE);
    (0..n)
        .map(|_| std::array::from_fn(|_| rng.gen::<f64>()))
        .collect()
}

/// The CLUSTER dataset: `n` points spread over [`CLUSTER_COUNT`] evenly
/// spaced clusters along the x-axis; all other dimensions sit at
/// `offset` (0.5 = the paper's CLUSTER0.5, 0.4 = CLUSTER0.4).
///
/// Each cluster extends [`CLUSTER_EXTENT`] in every dimension, is
/// filled uniformly and is **centred** on its nominal position —
/// Sect. 4.3.6 describes the CLUSTER0.5 clusters as reaching *from
/// 0.49995 to 0.50005*, i.e. straddling 0.5 and therefore the IEEE
/// exponent boundary, which is exactly what triggers the paper's
/// space blow-up. Points are emitted cluster by cluster.
///
/// ```
/// let pts = datasets::cluster::<3>(1000, 0.5, 42);
/// assert_eq!(pts.len(), 1000);
/// assert!(pts.iter().all(|p| (p[1] - 0.5).abs() <= datasets::CLUSTER_EXTENT));
/// // Some points fall below the exponent boundary, some above.
/// assert!(pts.iter().any(|p| p[1] < 0.5) && pts.iter().any(|p| p[1] >= 0.5));
/// ```
pub fn cluster<const K: usize>(n: usize, offset: f64, seed: u64) -> Vec<[f64; K]> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // Evenly distribute points over the clusters, keeping cluster
        // locality in the emission order (like a generated file would).
        let c = i * CLUSTER_COUNT / n.max(1);
        let cx = (c.min(CLUSTER_COUNT - 1)) as f64 / CLUSTER_COUNT as f64;
        let p: [f64; K] = std::array::from_fn(|d| {
            let base = if d == 0 { cx } else { offset };
            base + (rng.gen::<f64>() - 0.5) * CLUSTER_EXTENT
        });
        out.push(p);
    }
    out
}

/// A synthetic stand-in for the 2-D TIGER/Line point extract (see the
/// module docs for the substitution rationale).
///
/// `n` unique points are produced from ~3000 "counties": cluster centres
/// drawn non-uniformly over the US-mainland bounding box, each emitting
/// random-walk poly-lines whose vertices become the points. Counties are
/// emitted in sequence, reproducing the original loader's
/// county-by-county insertion order and its irregular kD-tree loading
/// behaviour (paper Sect. 4.3.1).
pub fn tiger_like(n: usize, seed: u64) -> Vec<[f64; 2]> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7163);
    let n_counties = 3000.min(n.max(1));
    let mut out = Vec::with_capacity(n);
    // County centres: denser towards the "east" (higher x), mimicking
    // population density, with varying spread.
    let centres: Vec<([f64; 2], f64, usize)> = (0..n_counties)
        .map(|_| {
            let u: f64 = rng.gen();
            let x = TIGER_X.0 + (TIGER_X.1 - TIGER_X.0) * u.sqrt();
            let y = TIGER_Y.0 + (TIGER_Y.1 - TIGER_Y.0) * rng.gen::<f64>();
            let spread = 0.05 + rng.gen::<f64>() * 0.6; // county size, degrees
            let weight = 1 + rng.gen_range(0..10usize); // relative point count
            ([x, y], spread, weight)
        })
        .collect();
    let total_weight: usize = centres.iter().map(|c| c.2).sum();
    for (centre, spread, weight) in &centres {
        let county_points = n * weight / total_weight;
        let mut p;
        let mut emitted = 0;
        while emitted < county_points {
            // One poly-line: a bounded random walk from a fresh start.
            p = [
                (centre[0] + (rng.gen::<f64>() - 0.5) * spread).clamp(TIGER_X.0, TIGER_X.1),
                (centre[1] + (rng.gen::<f64>() - 0.5) * spread).clamp(TIGER_Y.0, TIGER_Y.1),
            ];
            let segs = 5 + rng.gen_range(0..60usize);
            for _ in 0..segs.min(county_points - emitted) {
                p[0] = (p[0] + (rng.gen::<f64>() - 0.5) * 0.01).clamp(TIGER_X.0, TIGER_X.1);
                p[1] = (p[1] + (rng.gen::<f64>() - 0.5) * 0.01).clamp(TIGER_Y.0, TIGER_Y.1);
                out.push(p);
                emitted += 1;
            }
        }
    }
    // Top up rounding losses with extra vertices in the last county.
    while out.len() < n {
        let (centre, spread, _) = centres[out.len() % n_counties];
        out.push([
            (centre[0] + (rng.gen::<f64>() - 0.5) * spread).clamp(TIGER_X.0, TIGER_X.1),
            (centre[1] + (rng.gen::<f64>() - 0.5) * spread).clamp(TIGER_Y.0, TIGER_Y.1),
        ]);
    }
    out.truncate(n);
    out
}

/// Point-query workload (paper Sect. 4.3.2): each query has a 50% chance
/// of hitting an existing point, otherwise it is a random coordinate
/// within `[lo, hi]` per dimension.
pub fn point_query_mix<const K: usize>(
    data: &[[f64; K]],
    n_queries: usize,
    lo: &[f64; K],
    hi: &[f64; K],
    seed: u64,
) -> Vec<[f64; K]> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9907);
    (0..n_queries)
        .map(|_| {
            if !data.is_empty() && rng.gen_bool(0.5) {
                data[rng.gen_range(0..data.len())]
            } else {
                std::array::from_fn(|d| rng.gen_range(lo[d]..=hi[d]))
            }
        })
        .collect()
}

/// Range-query workload for CUBE/TIGER (paper Sect. 4.3.3): axis-aligned
/// boxes inside `[lo, hi]` whose edges have random lengths except one
/// randomly chosen edge, which is adjusted so the box covers `coverage`
/// of the total volume (1% for TIGER, 0.1% for CUBE).
pub fn range_queries<const K: usize>(
    n_queries: usize,
    lo: &[f64; K],
    hi: &[f64; K],
    coverage: f64,
    seed: u64,
) -> Vec<([f64; K], [f64; K])> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
    let span: [f64; K] = std::array::from_fn(|d| hi[d] - lo[d]);
    let mut out = Vec::with_capacity(n_queries);
    while out.len() < n_queries {
        // Edge fractions in (0,1]; one edge absorbs the residual.
        let mut frac: [f64; K] = std::array::from_fn(|_| rng.gen::<f64>().max(1e-6));
        let j = rng.gen_range(0..K);
        let others: f64 = (0..K).filter(|&d| d != j).map(|d| frac[d]).product();
        let fj = coverage / others;
        if fj > 1.0 {
            continue; // resample: cannot reach the coverage with these edges
        }
        frac[j] = fj;
        let min: [f64; K] =
            std::array::from_fn(|d| lo[d] + rng.gen::<f64>() * (1.0 - frac[d]) * span[d]);
        let max: [f64; K] = std::array::from_fn(|d| min[d] + frac[d] * span[d]);
        out.push((min, max));
    }
    out
}

/// Range-query workload for CLUSTER (paper Sect. 4.3.3): boxes covering
/// the full `[0,1]` range in every dimension except `x`, where they
/// extend 0.01% (10⁻⁴) and start at a random position in `[0, 0.1]`.
pub fn cluster_range_queries<const K: usize>(
    n_queries: usize,
    seed: u64,
) -> Vec<([f64; K], [f64; K])> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5);
    (0..n_queries)
        .map(|_| {
            let x0 = rng.gen::<f64>() * 0.1;
            let min: [f64; K] = std::array::from_fn(|d| if d == 0 { x0 } else { 0.0 });
            let max: [f64; K] = std::array::from_fn(|d| if d == 0 { x0 + 1e-4 } else { 1.0 });
            (min, max)
        })
        .collect()
}

/// Removes duplicate points (the paper deduplicates TIGER/Line from
/// 36.8 M to 18.4 M points); order of first occurrence is preserved.
pub fn dedup<const K: usize>(points: Vec<[f64; K]>) -> Vec<[f64; K]> {
    let mut seen = std::collections::HashSet::with_capacity(points.len());
    points
        .into_iter()
        .filter(|p| seen.insert(p.map(f64::to_bits)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_is_deterministic_and_in_range() {
        let a = cube::<4>(500, 7);
        let b = cube::<4>(500, 7);
        assert_eq!(a, b);
        let c = cube::<4>(500, 8);
        assert_ne!(a, c);
        assert!(a.iter().all(|p| p.iter().all(|&v| (0.0..1.0).contains(&v))));
    }

    #[test]
    fn cluster_structure() {
        let pts = cluster::<3>(20_000, 0.4, 1);
        assert_eq!(pts.len(), 20_000);
        for p in &pts {
            assert!((-CLUSTER_EXTENT..=1.0 + CLUSTER_EXTENT).contains(&p[0]));
            assert!((p[1] - 0.4).abs() <= CLUSTER_EXTENT);
            assert!((p[2] - 0.4).abs() <= CLUSTER_EXTENT);
        }
        // Points come in cluster order along x.
        let xs: Vec<f64> = pts.iter().map(|p| p[0]).collect();
        let mut violations = 0;
        for w in xs.windows(2) {
            if w[1] + CLUSTER_EXTENT < w[0] {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "clusters must be emitted left to right");
    }

    #[test]
    fn cluster_uses_all_clusters_when_large() {
        let pts = cluster::<2>(40_000, 0.5, 3);
        let first = pts.first().unwrap()[0];
        let last = pts.last().unwrap()[0];
        assert!(first < 0.001);
        assert!(last > 0.99);
    }

    #[test]
    fn tiger_like_bbox_and_count() {
        let pts = tiger_like(50_000, 5);
        assert_eq!(pts.len(), 50_000);
        for p in &pts {
            assert!((TIGER_X.0..=TIGER_X.1).contains(&p[0]), "{p:?}");
            assert!((TIGER_Y.0..=TIGER_Y.1).contains(&p[1]), "{p:?}");
        }
        // Clustered: consecutive points are usually close (poly-lines).
        let mut close = 0;
        for w in pts.windows(2) {
            if (w[0][0] - w[1][0]).abs() < 0.5 && (w[0][1] - w[1][1]).abs() < 0.5 {
                close += 1;
            }
        }
        assert!(close as f64 > 0.9 * (pts.len() - 1) as f64);
    }

    #[test]
    fn point_query_mix_hits_and_misses() {
        let data = cube::<2>(1000, 11);
        let qs = point_query_mix(&data, 2000, &[0.0, 0.0], &[1.0, 1.0], 13);
        assert_eq!(qs.len(), 2000);
        let set: std::collections::HashSet<_> = data.iter().map(|p| p.map(f64::to_bits)).collect();
        let hits = qs
            .iter()
            .filter(|q| set.contains(&q.map(f64::to_bits)))
            .count();
        // Roughly half should hit (binomial, wide tolerance).
        assert!(hits > 800 && hits < 1200, "hits = {hits}");
    }

    #[test]
    fn range_query_coverage() {
        let qs = range_queries::<3>(200, &[0.0; 3], &[1.0; 3], 0.001, 17);
        assert_eq!(qs.len(), 200);
        for (min, max) in &qs {
            let vol: f64 = (0..3).map(|d| max[d] - min[d]).product();
            assert!((vol - 0.001).abs() < 1e-9, "vol = {vol}");
            for d in 0..3 {
                assert!(min[d] >= -1e-12 && max[d] <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn cluster_range_query_shape() {
        let qs = cluster_range_queries::<4>(50, 23);
        for (min, max) in &qs {
            assert!((max[0] - min[0] - 1e-4).abs() < 1e-12);
            assert!(min[0] >= 0.0 && min[0] <= 0.1);
            for d in 1..4 {
                assert_eq!(min[d], 0.0);
                assert_eq!(max[d], 1.0);
            }
        }
    }

    #[test]
    fn dedup_removes_duplicates() {
        let pts = vec![[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0]];
        let d = dedup(pts);
        assert_eq!(d, vec![[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;

    #[test]
    fn all_generators_are_seed_deterministic() {
        assert_eq!(tiger_like(5000, 9), tiger_like(5000, 9));
        assert_eq!(cluster::<4>(5000, 0.5, 9), cluster::<4>(5000, 0.5, 9));
        assert_eq!(
            point_query_mix(&cube::<2>(100, 1), 500, &[0.0; 2], &[1.0; 2], 3),
            point_query_mix(&cube::<2>(100, 1), 500, &[0.0; 2], &[1.0; 2], 3)
        );
        assert_eq!(
            range_queries::<3>(50, &[0.0; 3], &[1.0; 3], 0.01, 5),
            range_queries::<3>(50, &[0.0; 3], &[1.0; 3], 0.01, 5)
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(cube::<2>(100, 1), cube::<2>(100, 2));
        assert_ne!(tiger_like(1000, 1), tiger_like(1000, 2));
    }

    #[test]
    fn cluster_offsets_differ_only_off_axis() {
        let a = cluster::<3>(1000, 0.4, 7);
        let b = cluster::<3>(1000, 0.5, 7);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa[0], pb[0], "x-axis identical across offsets");
            assert!(((pa[1] + 0.1) - pb[1]).abs() < 1e-9);
        }
    }
}
