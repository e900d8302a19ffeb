//! Structural "shape" regression tests: deterministic properties that
//! encode the paper's qualitative results without timing (so they can
//! run in CI). The PH-tree's structure is canonical — a function of the
//! data only — so node counts for seeded datasets are exact constants.

use ph_bench::{load_timed, Cb1, Index, Kd1, Ph};

fn ph_stats<const K: usize>(name: &str, n: usize) -> phtree::TreeStats {
    let data = ph_bench::make_dataset::<K>(name, n, 42);
    let mut t: phtree::PhTreeF64<(), K> = phtree::PhTreeF64::new();
    for p in &data {
        t.insert(*p, ());
    }
    t.shrink_to_fit();
    t.stats()
}

/// Pinned node counts for the seeded generators (scaled Table 3).
/// These change only if the tree algorithm or the dataset generator
/// changes — both are load-bearing, so pin them.
#[test]
fn node_counts_are_canonical_constants() {
    // Pins regenerated for the vendored RNG stream (see vendor/rand):
    // the dataset generator is seed-deterministic but its stream differs
    // from upstream rand 0.8, so the constants moved with it.
    assert_eq!(ph_stats::<3>("cube", 100_000).nodes, 45_170);
    assert_eq!(ph_stats::<3>("cluster0.4", 100_000).nodes, 68_178);
    assert_eq!(ph_stats::<3>("cluster0.5", 100_000).nodes, 93_849);
}

/// Table 3's qualitative content: CLUSTER0.5 explodes with k while
/// CLUSTER0.4 and CUBE shrink.
#[test]
fn table3_shape_node_count_vs_k() {
    let cu_3 = ph_stats::<3>("cube", 100_000).nodes;
    let cu_10 = ph_stats::<10>("cube", 100_000).nodes;
    assert!(
        cu_10 < cu_3,
        "CUBE node count falls with k: {cu_10} vs {cu_3}"
    );
    let c4_10 = ph_stats::<10>("cluster0.4", 100_000).nodes;
    let c5_10 = ph_stats::<10>("cluster0.5", 100_000).nodes;
    assert!(
        c5_10 > 2 * c4_10,
        "CLUSTER0.5 needs far more nodes at k=10: {c5_10} vs {c4_10}"
    );
}

/// Table 1's qualitative content at laptop scale: the PH-tree beats the
/// per-entry-key structures (CB1, KD1-style boxed nodes) on CUBE, and
/// CLUSTER space improves with n (Table 2's trend) while flat structures
/// stay constant.
#[test]
fn table1_shape_space_ordering() {
    let data = datasets::cube::<3>(200_000, 42);
    let (mut ph, _) = load_timed::<Ph<3>, 3>(&data);
    ph.finalize();
    let (kd1, _) = load_timed::<Kd1<3>, 3>(&data);
    let (cb1, _) = load_timed::<Cb1<3>, 3>(&data);
    let ph_b = ph.memory_bytes() as f64 / ph.len() as f64;
    let kd1_b = kd1.memory_bytes() as f64 / kd1.len() as f64;
    let cb1_b = cb1.memory_bytes() as f64 / cb1.len() as f64;
    assert!(ph_b < cb1_b, "PH {ph_b:.1} must beat CB1 {cb1_b:.1}");
    assert!(ph_b < kd1_b, "PH {ph_b:.1} must beat KD1 {kd1_b:.1}");
    // The paper's Table 1 has 46 B/entry on 3-D CUBE.
    assert!(ph_b <= 50.0, "PH {ph_b:.1} B/entry on 3-D CUBE");
}

/// Fig. 10 / Sect. 4.3.6: the PH-tree's bytes/entry *drops* as k grows
/// from 2 (more dimensions per node amortise structure), which no
/// other tested structure does. Where the curve turns up again depends
/// on what a node costs beyond its bits: at k = 4–5 with the paper's
/// Java objects, at k = 3 on CUBE and k = 4 on CLUSTER0.4 with one
/// 24-byte header per node.
#[test]
fn fig10_shape_space_dip_at_low_k() {
    for (data, k_min) in [("cube", 3), ("cluster0.4", 4)] {
        let b2 = ph_stats::<2>(data, 100_000).bytes_per_entry();
        let b = match k_min {
            3 => ph_stats::<3>(data, 100_000).bytes_per_entry(),
            _ => ph_stats::<4>(data, 100_000).bytes_per_entry(),
        };
        assert!(
            b < b2,
            "{data}: {k_min}-D entries must be cheaper per entry than 2-D: {b:.1} vs {b2:.1}"
        );
    }
}

/// Fig. 14's divergence: at high k CLUSTER0.5 costs much more space than
/// CLUSTER0.4 in the PH-tree.
#[test]
fn fig14_shape_cluster_divergence_at_high_k() {
    let b4 = ph_stats::<12>("cluster0.4", 100_000).bytes_per_entry();
    let b5 = ph_stats::<12>("cluster0.5", 100_000).bytes_per_entry();
    assert!(
        b5 > 1.5 * b4,
        "CLUSTER0.5 at k=12 must cost much more than CLUSTER0.4: {b5:.1} vs {b4:.1}"
    );
}

/// HC prevalence on dense low-k data (Sect. 4.3.1's explanation for the
/// super-constant TIGER behaviour): a dense 2-D tree uses plenty of HC
/// nodes, a sparse high-k tree uses none.
#[test]
fn hc_nodes_appear_on_dense_low_k_data() {
    // A fully dense 2-D grid: the bottom levels are full nodes, which
    // the size comparison switches to HC wholesale.
    let mut t: phtree::PhTree<(), 2> = phtree::PhTree::new();
    for i in 0..(1u64 << 14) {
        t.insert([i & 0x7F, i >> 7], ());
    }
    let s = t.stats();
    assert!(
        s.hc_nodes > s.nodes / 2,
        "a dense grid should be mostly HC nodes: {} of {}",
        s.hc_nodes,
        s.nodes
    );
    // HC prevalence grows with density (the paper's explanation for the
    // super-constant TIGER/CLUSTER behaviour)…
    let lo = ph_stats::<2>("cluster0.4", 50_000);
    let hi = ph_stats::<2>("cluster0.4", 400_000);
    let frac = |s: &phtree::TreeStats| s.hc_nodes as f64 / s.nodes as f64;
    assert!(
        frac(&hi) > frac(&lo),
        "HC share must grow with density: {:.4} vs {:.4}",
        frac(&hi),
        frac(&lo)
    );
    // …while sparse high-k nodes all stay LHC.
    let sparse = ph_stats::<15>("cube", 50_000);
    assert_eq!(sparse.hc_nodes, 0, "sparse k=15 nodes must all stay LHC");
}

/// The depth bound w = 64 holds for every dataset (Sect. 3.6).
#[test]
fn depth_never_exceeds_w() {
    for name in ["cube", "cluster0.4", "cluster0.5"] {
        let s = ph_stats::<3>(name, 50_000);
        assert!(s.max_depth <= 64, "{name}: depth {}", s.max_depth);
    }
}
