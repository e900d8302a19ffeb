//! Workspace integration tests: datasets → every index structure →
//! queries → measurement, cross-checked against each other and against
//! brute force. These are the "do all the pieces agree" tests behind
//! the benchmark harness.

use ph_bench::{Cb1, Cb2, Index, Kd1, Kd2, Ph};

fn all_agree<const K: usize>(data: &[[f64; K]], windows: &[([f64; K], [f64; K])]) {
    let mut ph = Ph::<K>::new();
    let mut kd1 = Kd1::<K>::new();
    let mut kd2 = Kd2::<K>::new();
    let mut cb1 = Cb1::<K>::new();
    let mut cb2 = Cb2::<K>::new();
    for p in data {
        ph.insert(p);
        kd1.insert(p);
        kd2.insert(p);
        cb1.insert(p);
        cb2.insert(p);
    }
    assert_eq!(ph.len(), kd1.len());
    assert_eq!(ph.len(), kd2.len());
    assert_eq!(ph.len(), cb1.len());
    assert_eq!(ph.len(), cb2.len());
    // Point queries: all present, and some misses.
    for p in data.iter().step_by(11) {
        assert!(ph.get(p) && kd1.get(p) && kd2.get(p) && cb1.get(p) && cb2.get(p));
        let miss: [f64; K] = std::array::from_fn(|d| p[d] + 3.33);
        let m = ph.get(&miss);
        assert_eq!(m, kd1.get(&miss));
        assert_eq!(m, cb1.get(&miss));
    }
    // Window queries.
    for (lo, hi) in windows {
        let want = data
            .iter()
            .filter(|p| (0..K).all(|d| lo[d] <= p[d] && p[d] <= hi[d]))
            .map(|p| p.map(f64::to_bits))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(ph.window_count(lo, hi), want, "PH window");
        assert_eq!(kd1.window_count(lo, hi), want, "KD1 window");
        assert_eq!(kd2.window_count(lo, hi), want, "KD2 window");
        assert_eq!(cb1.window_count(lo, hi), want, "CB1 window");
        assert_eq!(cb2.window_count(lo, hi), want, "CB2 window");
    }
    // Removal drains everything everywhere.
    for p in data {
        let r = ph.remove(p);
        assert_eq!(r, kd1.remove(p));
        assert_eq!(r, kd2.remove(p));
        assert_eq!(r, cb1.remove(p));
        assert_eq!(r, cb2.remove(p));
    }
    assert!(ph.is_empty() && kd1.is_empty() && kd2.is_empty());
    assert!(cb1.is_empty() && cb2.is_empty());
}

#[test]
fn cube_3d_all_structures_agree() {
    let data = datasets::cube::<3>(5000, 1);
    let windows = datasets::range_queries::<3>(10, &[0.0; 3], &[1.0; 3], 0.01, 2);
    all_agree(&data, &windows);
}

#[test]
fn cluster_3d_all_structures_agree() {
    let data = datasets::cluster::<3>(5000, 0.5, 1);
    let windows = datasets::cluster_range_queries::<3>(10, 2);
    all_agree(&data, &windows);
}

#[test]
fn tiger_2d_all_structures_agree() {
    let data = datasets::dedup(datasets::tiger_like(5000, 1));
    let lo = [datasets::TIGER_X.0, datasets::TIGER_Y.0];
    let hi = [datasets::TIGER_X.1, datasets::TIGER_Y.1];
    let windows = datasets::range_queries::<2>(10, &lo, &hi, 0.01, 2);
    all_agree(&data, &windows);
}

#[test]
fn high_k_cluster_agrees() {
    let data = datasets::cluster::<10>(2000, 0.4, 3);
    let windows = datasets::cluster_range_queries::<10>(5, 4);
    all_agree(&data, &windows);
}

#[test]
fn cluster05_produces_more_ph_nodes_than_cluster04_at_high_k() {
    // The Sect. 4.3.6 effect end-to-end: same generator, same n, only
    // the offset differs; the 0.5 exponent boundary explodes the node
    // count at high k.
    const K: usize = 10;
    let n = 100_000;
    let mut t04: phtree::PhTreeF64<(), K> = phtree::PhTreeF64::new();
    for p in datasets::cluster::<K>(n, 0.4, 5) {
        t04.insert(p, ());
    }
    let mut t05: phtree::PhTreeF64<(), K> = phtree::PhTreeF64::new();
    for p in datasets::cluster::<K>(n, 0.5, 5) {
        t05.insert(p, ());
    }
    let (n04, n05) = (t04.stats().nodes, t05.stats().nodes);
    assert!(
        n05 > 2 * n04,
        "CLUSTER0.5 should need far more nodes: {n05} vs {n04}"
    );
}

#[test]
fn ph_space_benefits_from_scale_on_clustered_data() {
    // Table 2's trend: PH bytes/entry falls as n grows on CLUSTER data.
    let small = {
        let mut t: phtree::PhTreeF64<(), 3> = phtree::PhTreeF64::new();
        for p in datasets::cluster::<3>(5_000, 0.5, 9) {
            t.insert(p, ());
        }
        t.shrink_to_fit();
        t.stats().bytes_per_entry()
    };
    let large = {
        let mut t: phtree::PhTreeF64<(), 3> = phtree::PhTreeF64::new();
        for p in datasets::cluster::<3>(200_000, 0.5, 9) {
            t.insert(p, ());
        }
        t.shrink_to_fit();
        t.stats().bytes_per_entry()
    };
    assert!(
        large < small,
        "bytes/entry should fall with n: {large:.1} vs {small:.1}"
    );
}

#[test]
fn measurement_harness_runs_end_to_end() {
    let data = datasets::cube::<3>(20_000, 21);
    let (mut idx, ins_us) = ph_bench::load_timed::<Ph<3>, 3>(&data);
    assert!(ins_us > 0.0);
    idx.finalize();
    let queries = datasets::point_query_mix(&data, 5000, &[0.0; 3], &[1.0; 3], 22);
    let q_us = ph_bench::point_queries_timed(&idx, &queries);
    assert!(q_us > 0.0);
    let windows = datasets::range_queries::<3>(10, &[0.0; 3], &[1.0; 3], 0.01, 23);
    let (per_entry, total) = ph_bench::range_queries_timed(&idx, &windows);
    assert!(total > 0, "coverage 1% of 20k points must return entries");
    assert!(per_entry > 0.0);
    let del_us = ph_bench::unload_timed(&mut idx, &data);
    assert!(del_us > 0.0);
    assert!(idx.is_empty());
}

/// Every `cargo run … --example NAME` the README advertises must run:
/// `NAME` is an `[[example]]` target of this crate and its file exists.
#[test]
fn readme_example_commands_name_real_targets() {
    let crate_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: std::path::PathBuf| std::fs::read_to_string(&p).expect("readable text file");
    let manifest = read(crate_dir.join("Cargo.toml"));
    // `[[example]]` tables as name → path.
    let quoted = |line: &str| line.split('"').nth(1).map(str::to_owned);
    let targets: std::collections::BTreeMap<String, String> = manifest
        .split("[[example]]")
        .skip(1)
        .filter_map(|table| {
            let field = |key: &str| table.lines().find(|l| l.starts_with(key)).and_then(quoted);
            Some((field("name")?, field("path")?))
        })
        .collect();
    assert!(!targets.is_empty(), "no [[example]] tables parsed");

    let readme = read(crate_dir.join("../../README.md"));
    let words: Vec<&str> = readme.split_whitespace().collect();
    let advertised: Vec<&str> = words
        .windows(2)
        .filter(|w| w[0] == "--example")
        .map(|w| w[1].trim_matches(|c: char| !c.is_alphanumeric() && c != '_'))
        .collect();
    assert!(advertised.len() >= 8, "README example list not found");
    for name in advertised {
        let path = targets
            .get(name)
            .unwrap_or_else(|| panic!("README runs --example {name}: no such [[example]]"));
        assert!(
            crate_dir.join(path).is_file(),
            "example {name}: no file {path}"
        );
    }
}
