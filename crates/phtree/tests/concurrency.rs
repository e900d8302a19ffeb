//! Concurrent read access (paper Sect. 5: the ≤ 2-nodes-per-update
//! property makes the PH-tree suitable for concurrency; here we verify
//! the read side — a built tree is safely shared across threads).

use phtree::{PhTree, PhTreeF64};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Barrier, Mutex};

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

/// Values alive, over all versions of the tree below.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Tracked(u64);

impl Tracked {
    fn new(v: u64) -> Self {
        LIVE.fetch_add(1, Ordering::Relaxed);
        Tracked(v)
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.0)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        assert!(
            LIVE.fetch_sub(1, Ordering::Relaxed) > 0,
            "value dropped twice"
        );
    }
}

/// Nodes are shared between tree versions by refcount, and the
/// refcount is the one thing several threads write: a writer keeps
/// editing and publishing versions while four threads take the
/// published version, path-copy it with writes of their own and drop
/// it — so handles to the same blocks are cloned, copied-on-write and
/// released from five threads at once. Every version must stay intact,
/// and when the last one is gone every value must have been dropped
/// exactly once: a block freed early or twice would drop its values
/// early or twice, and a leaked block would keep at least two alive
/// (no subtree holds fewer). CI runs this optimised with debug
/// assertions, so the standard library's pointer checks are in.
#[test]
fn versions_are_cloned_copied_and_dropped_from_many_threads() {
    let key = |i: u64| [i % 61, i / 61 % 61, i.wrapping_mul(0x9E37_79B9) % 4096];
    let mut tree: PhTree<Tracked, 3> = (0..20_000).map(|i| (key(i), Tracked::new(i))).collect();
    let published = Mutex::new(tree.clone());
    let start = Barrier::new(5);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (published, start) = (&published, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..300u64 {
                    let mut mine = published.lock().unwrap().clone();
                    let len = mine.len();
                    for j in 0..20 {
                        let i = (round * 131 + j * 977 + t * 7919) % 40_000;
                        match mine.remove(&key(i)) {
                            Some(old) => assert_eq!(old.0 % 40_000, i),
                            None => assert!(mine.insert(key(i), Tracked::new(i)).is_none()),
                        }
                    }
                    assert_eq!(mine.iter().count(), mine.len());
                    assert!(mine.len().abs_diff(len) <= 20);
                    if round % 50 == 0 {
                        mine.check_invariants();
                    }
                }
            });
        }
        start.wait();
        for i in 0..20_000u64 {
            match i % 3 {
                0 => drop(tree.remove(&key(i))),
                _ => drop(tree.insert(key(20_000 + i), Tracked::new(20_000 + i))),
            }
            if i % 16 == 0 {
                *published.lock().unwrap() = tree.clone();
            }
        }
    });
    tree.check_invariants();
    // The published version shares most of its blocks with `tree`.
    drop(published);
    assert_eq!(LIVE.load(Ordering::Relaxed), tree.len() as isize);
    drop(tree);
    assert_eq!(LIVE.load(Ordering::Relaxed), 0);
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
