//! The in-harness reference model: one `BTreeMap` per workload that
//! every reply is checked against, plus the seeded dataset and query
//! generators whose output the program under test sees.

use phserve::{Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

pub type Key<const K: usize> = [u64; K];

/// Scales a CUBE coordinate in `[0, 1)` to the full `u64` range.
///
/// Under the IEEE conversion every point of `[0, 1)` shares its top
/// bits, and the Z-prefix router sends the whole dataset to one shard
/// (skew = S). Fixed-point keys spread over all S shards, so the
/// sharded layers do the work the served workloads are to measure.
pub fn fixed_point(x: f64) -> u64 {
    (x * 18_446_744_073_709_551_616.0) as u64
}

/// How a workload turns a CUBE coordinate into a key coordinate:
/// [`fixed_point`] behind the sharded layers, the paper's order-
/// preserving IEEE conversion (`phtree::key::f64_to_key`) where a bare
/// tree is driven as the paper drives it.
pub type ToKey = fn(f64) -> u64;

/// `n` CUBE entries; the value of entry `i` is `i`.
pub fn dataset<const K: usize>(n: usize, seed: u64, to_key: ToKey) -> Vec<(Key<K>, u64)> {
    datasets::cube::<K>(n, seed)
        .iter()
        .enumerate()
        .map(|(i, p)| (p.map(to_key), i as u64))
        .collect()
}

/// Compares two keys in the PH-tree's Z-order: the most significant
/// differing bit decides, and among dimensions that differ at the same
/// bit position dimension 0 is the most significant.
pub fn z_cmp<const K: usize>(a: &Key<K>, b: &Key<K>) -> Ordering {
    let (mut dim, mut top) = (0, 0u64);
    for d in 0..K {
        let x = a[d] ^ b[d];
        // x's highest set bit is above top's.
        if top < x && top < (top ^ x) {
            (dim, top) = (d, x);
        }
    }
    a[dim].cmp(&b[dim])
}

/// Order-sensitive digest of a window result: entry count and an FNV
/// chain over keys and values in reply order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowDigest {
    pub count: usize,
    pub chain: u64,
}

pub fn window_digest<'a, const K: usize>(
    entries: impl Iterator<Item = (&'a Key<K>, &'a u64)>,
) -> WindowDigest {
    let mut d = WindowDigest {
        count: 0,
        chain: 0xcbf2_9ce4_8422_2325,
    };
    for (k, v) in entries {
        for w in k.iter().chain(std::iter::once(v)) {
            d.chain = (d.chain ^ w).wrapping_mul(0x1000_0000_01b3);
        }
        d.count += 1;
    }
    d
}

/// The sequential model of one workload's store.
pub struct Model<const K: usize> {
    pub map: BTreeMap<Key<K>, u64>,
    /// Expected window digests and kNN distance profiles by request,
    /// valid while `delta` is empty.
    windows: HashMap<(Key<K>, Key<K>), WindowDigest>,
    knns: HashMap<(Key<K>, u32), Vec<f64>>,
    /// Values the keys written since the cached answers were computed
    /// had then. A probe that inserts a key and removes it again
    /// leaves this empty and the cache usable.
    delta: HashMap<Key<K>, Option<u64>>,
}

impl<const K: usize> Model<K> {
    pub fn new(items: &[(Key<K>, u64)]) -> Model<K> {
        Model {
            map: items.iter().copied().collect(),
            windows: HashMap::new(),
            knns: HashMap::new(),
            delta: HashMap::new(),
        }
    }

    fn wrote(&mut self, key: Key<K>, before: Option<u64>, after: Option<u64>) {
        if *self.delta.entry(key).or_insert(before) == after {
            self.delta.remove(&key);
        }
    }

    /// Before answering a scan: if the map has moved on since the
    /// cached answers were computed, they are dropped and the cache
    /// starts again from the map as it is now.
    fn rebase(&mut self) {
        if !self.delta.is_empty() {
            self.delta.clear();
            self.windows.clear();
            self.knns.clear();
        }
    }

    fn window(&mut self, min: &Key<K>, max: &Key<K>) -> WindowDigest {
        self.rebase();
        if let Some(d) = self.windows.get(&(*min, *max)) {
            return *d;
        }
        // The map is ordered by dimension 0 first: scan that slab.
        let mut lo = [0u64; K];
        let mut hi = [u64::MAX; K];
        (lo[0], hi[0]) = (min[0], max[0]);
        let mut hits: Vec<(&Key<K>, &u64)> = self
            .map
            .range(lo..=hi)
            .filter(|(k, _)| (1..K).all(|d| min[d] <= k[d] && k[d] <= max[d]))
            .collect();
        hits.sort_by(|a, b| z_cmp(a.0, b.0));
        let d = window_digest(hits.into_iter());
        self.windows.insert((*min, *max), d);
        d
    }

    /// The `n` smallest integer-Euclidean distances from `center`,
    /// ascending — what a correct kNN reply's distances must equal
    /// whichever of several equidistant keys it returns.
    fn knn(&mut self, center: &Key<K>, n: u32) -> Vec<f64> {
        self.rebase();
        if let Some(p) = self.knns.get(&(*center, n)) {
            return p.clone();
        }
        let mut dists: Vec<f64> = self
            .map
            .keys()
            .map(|k| {
                (0..K)
                    .map(|d| {
                        let diff = k[d].abs_diff(center[d]) as f64;
                        diff * diff
                    })
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        let take = (n as usize).min(dists.len());
        if take < dists.len() {
            dists.select_nth_unstable_by(take, f64::total_cmp);
            dists.truncate(take);
        }
        dists.sort_by(f64::total_cmp);
        self.knns.insert((*center, n), dists.clone());
        dists
    }

    /// Applies `req` to the model and reports whether `resp` is the
    /// reply a correct store gives.
    pub fn check(&mut self, req: &Request<K>, resp: &Response<K>) -> bool {
        match (req, resp) {
            (Request::Get { key }, Response::Value(v)) => self.map.get(key).copied() == *v,
            (Request::Insert { key, value }, Response::Ack) => {
                let before = self.map.insert(*key, *value);
                self.wrote(*key, before, Some(*value));
                true
            }
            (Request::Remove { key }, Response::Value(v)) => {
                let before = self.map.remove(key);
                self.wrote(*key, before, None);
                before == *v
            }
            (Request::Query { min, max }, Response::Entries(e)) => {
                self.window(min, max) == window_digest(e.iter().map(|(k, v)| (k, v)))
            }
            (Request::Knn { center, n }, Response::Neighbors(nbs)) => {
                let want = self.knn(center, *n);
                want.len() == nbs.len()
                    && want
                        .iter()
                        .zip(nbs)
                        .all(|(w, (_, _, d))| (w - d).abs() <= 1e-9 * w.max(1.0))
            }
            // A write whose reply is an error, a shed, or the wrong
            // shape: the model cannot know whether it was applied, so
            // it is failed and left out of the model.
            _ => false,
        }
    }
}

/// Seeded generator of the requests a workload issues. One generator
/// serves one key namespace, so that replies depend only on the order
/// of that namespace's own requests.
pub struct Gen<const K: usize> {
    rng: StdRng,
    /// Keys this namespace currently holds (as far as the generated
    /// stream goes), for choosing present keys.
    live: Vec<Key<K>>,
    /// Dimension-0 interval of the namespace, in unit coordinates.
    x0: (f64, f64),
    /// Edge of a window in unit coordinates.
    pub window_edge: f64,
    pub knn_n: u32,
    to_key: ToKey,
    next_value: u64,
}

impl<const K: usize> Gen<K> {
    /// A generator over the keys of `items` whose dimension 0 lies in
    /// the unit interval `x0`.
    pub fn new(
        seed: u64,
        items: &[(Key<K>, u64)],
        x0: (f64, f64),
        window_edge: f64,
        to_key: ToKey,
    ) -> Gen<K> {
        let (lo, hi) = (to_key(x0.0), to_key(x0.1));
        Gen {
            rng: StdRng::seed_from_u64(seed),
            live: items
                .iter()
                .map(|(k, _)| *k)
                .filter(|k| lo <= k[0] && (k[0] < hi || x0.1 >= 1.0))
                .collect(),
            x0,
            window_edge,
            knn_n: 10,
            to_key,
            next_value: 1 << 40,
        }
    }

    fn random_point(&mut self) -> [f64; K] {
        let (lo, hi) = self.x0;
        std::array::from_fn(|d| {
            let u = self.rng.gen::<f64>();
            if d == 0 {
                lo + u * (hi - lo)
            } else {
                u
            }
        })
    }

    fn present(&mut self) -> Key<K> {
        self.live[self.rng.gen_range(0..self.live.len())]
    }

    pub fn get_hit(&mut self) -> Request<K> {
        Request::Get {
            key: self.present(),
        }
    }

    /// A random key; with 64-bit coordinates it is absent.
    pub fn get_miss(&mut self) -> Request<K> {
        Request::Get {
            key: self.random_point().map(self.to_key),
        }
    }

    fn value(&mut self) -> u64 {
        self.next_value += 1;
        self.next_value
    }

    pub fn insert_fresh(&mut self) -> Request<K> {
        let key = self.random_point().map(self.to_key);
        self.live.push(key);
        Request::Insert {
            key,
            value: self.value(),
        }
    }

    pub fn overwrite(&mut self) -> Request<K> {
        Request::Insert {
            key: self.present(),
            value: self.value(),
        }
    }

    pub fn remove(&mut self) -> Request<K> {
        let i = self.rng.gen_range(0..self.live.len());
        Request::Remove {
            key: self.live.swap_remove(i),
        }
    }

    /// Removes the key the latest `insert_fresh` added.
    pub fn remove_last(&mut self) -> Request<K> {
        Request::Remove {
            key: self.live.pop().expect("remove_last follows insert_fresh"),
        }
    }

    /// A cubic window of edge `window_edge` inside the namespace.
    pub fn window(&mut self) -> Request<K> {
        let f = self.window_edge;
        let (lo, hi) = self.x0;
        let min: [f64; K] = std::array::from_fn(|d| {
            let u = self.rng.gen::<f64>();
            if d == 0 {
                lo + u * (hi - lo - f).max(0.0)
            } else {
                u * (1.0 - f)
            }
        });
        let max: [f64; K] = std::array::from_fn(|d| min[d] + f);
        Request::Query {
            min: min.map(self.to_key),
            max: max.map(self.to_key),
        }
    }

    pub fn knn(&mut self) -> Request<K> {
        Request::Knn {
            center: self.random_point().map(self.to_key),
            n: self.knn_n,
        }
    }

    pub fn coin(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    pub fn per_mille(&mut self) -> u32 {
        self.rng.gen_range(0..1000u32)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}
