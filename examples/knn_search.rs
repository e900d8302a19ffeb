//! Nearest-neighbour search (the paper's Sect. 5 outlook feature).
//!
//! Scenario: a charging-station finder. Stations are indexed by
//! position; the app answers "5 nearest stations to the user" queries.
//! Cross-checks the PH-tree's best-first kNN (bounded by the n-th best
//! distance found, results ordered by distance then key) against both
//! kD-tree baselines and a brute-force scan.
//!
//! Run with: `cargo run --release -p ph-bench --example knn_search`

use kdtree::{KdTree1, KdTree2};
use phtree::PhTreeF64;
use std::time::Instant;

fn main() {
    let n = 300_000;
    println!("placing {n} charging stations…");
    let stations = datasets::dedup(datasets::tiger_like(n, 11));

    let mut ph: PhTreeF64<usize, 2> = PhTreeF64::new();
    let mut kd1: KdTree1<usize, 2> = KdTree1::new();
    let mut kd2: KdTree2<usize, 2> = KdTree2::new();
    for (i, p) in stations.iter().enumerate() {
        ph.insert(*p, i);
        kd1.insert(*p, i);
        kd2.insert(*p, i);
    }

    // 1000 user positions.
    let users = datasets::point_query_mix(
        &[],
        1000,
        &[datasets::TIGER_X.0, datasets::TIGER_Y.0],
        &[datasets::TIGER_X.1, datasets::TIGER_Y.1],
        5,
    );

    let mut check = 0.0f64;
    let t0 = Instant::now();
    for u in &users {
        for (_, _, d) in ph.knn(u, 5) {
            check += d;
        }
    }
    let ph_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut check1 = 0.0f64;
    let t0 = Instant::now();
    for u in &users {
        for (_, _, d) in kd1.knn(u, 5) {
            check1 += d;
        }
    }
    let kd1_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut check2 = 0.0f64;
    let t0 = Instant::now();
    for u in &users {
        for (_, _, d) in kd2.knn(u, 5) {
            check2 += d;
        }
    }
    let kd2_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Brute force on a sample of users to verify exactness.
    for u in users.iter().take(20) {
        let mut dists: Vec<f64> = stations
            .iter()
            .map(|p| ((p[0] - u[0]).powi(2) + (p[1] - u[1]).powi(2)).sqrt())
            .collect();
        dists.sort_by(f64::total_cmp);
        let got = ph.knn(u, 5);
        for (g, w) in got.iter().zip(&dists) {
            assert!((g.2 - w).abs() < 1e-9, "kNN mismatch: {} vs {}", g.2, w);
        }
    }

    assert!((check - check1).abs() < 1e-6 * check.abs());
    assert!((check - check2).abs() < 1e-6 * check.abs());
    println!(
        "5-NN × {} users (all results verified identical):",
        users.len()
    );
    println!("  PH-tree best-first: {ph_ms:.1} ms");
    println!("  KD1 recursive:      {kd1_ms:.1} ms");
    println!("  KD2 arena:          {kd2_ms:.1} ms");

    // A user next to a known station gets it at distance 0.
    let s0 = stations[0];
    let nn = ph.knn(&s0, 1);
    assert_eq!(nn[0].2, 0.0);
    println!("sanity: station at {s0:?} is its own nearest neighbour ✓");
}
