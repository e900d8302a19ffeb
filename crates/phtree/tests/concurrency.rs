//! Concurrent read access (paper Sect. 5: the ≤ 2-nodes-per-update
//! property makes the PH-tree suitable for concurrency; here we verify
//! the read side — a built tree is safely shared across threads).

use phtree::{PhTree, PhTreeF64};

#[test]
fn tree_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PhTree<u64, 3>>();
    assert_send_sync::<PhTreeF64<String, 2>>();
}

#[test]
fn parallel_queries_see_consistent_data() {
    let mut tree: PhTree<u64, 2> = PhTree::new();
    for i in 0..50_000u64 {
        tree.insert([i % 251, i / 251], i);
    }
    let expected_sum: u64 = tree.iter().map(|(_, &v)| v).sum();
    let expected_len = tree.len();
    let tree = &tree;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(s.spawn(move || {
                // Each thread mixes point queries, window queries and kNN.
                let mut sum = 0u64;
                let mut count = 0usize;
                for (k, &v) in tree.iter() {
                    sum += v;
                    count += 1;
                    let _ = k;
                }
                assert_eq!(count, expected_len, "thread {t} iteration");
                let w = tree.query(&[10, 10], &[100, 100]).count();
                let nn = tree.knn(&[125, 99], 3);
                assert_eq!(nn.len(), 3);
                (sum, w)
            }));
        }
        let results: Vec<(u64, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (sum, w) in &results {
            assert_eq!(*sum, expected_sum);
            assert_eq!(*w, results[0].1);
        }
    });
    let _ = expected_sum;
}

#[test]
fn tree_can_be_moved_to_another_thread() {
    let mut tree: PhTreeF64<u32, 3> = PhTreeF64::new();
    for p in datasets_like(1000) {
        tree.insert(p, 1);
    }
    let handle = std::thread::spawn(move || {
        let n = tree.len();
        let hits = tree.query(&[0.0; 3], &[0.5; 3]).count();
        (n, hits)
    });
    let (n, hits) = handle.join().unwrap();
    assert!(n > 0);
    assert!(hits <= n);
}

/// Small deterministic point cloud without pulling in the datasets crate
/// (phtree has no dev-dependency on it).
fn datasets_like(n: usize) -> Vec<[f64; 3]> {
    let mut x = 123u64;
    (0..n)
        .map(|_| {
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            [next(), next(), next()]
        })
        .collect()
}
