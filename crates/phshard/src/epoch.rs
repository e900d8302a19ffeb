//! Epoch-versioned, non-uniform shard routing over the Z-bit stream.
//!
//! The original [`crate::Router`] consumes a *fixed* number of Z-order
//! prefix bits, so every shard sits at the same depth — rebalancing
//! would have to double the whole shard count to split one hot shard.
//! [`ShardMap`] generalises the router to a binary trie over the same
//! bit stream: each leaf is one shard (identified by a stable *slot*
//! id), and a hot leaf can be deepened independently of its siblings
//! by [`ShardMap::split`], producing `2^bits` children that partition
//! exactly the parent's region. A map that has never split routes
//! bit-for-bit identically to `Router` (property-tested below).
//!
//! Z-bit `t` of a key is bit `63 - t/K` of dimension `t % K` — the
//! MSB-first interleaving the PH-tree itself branches on, so every
//! leaf still owns an axis-aligned hypercube prefix region
//! ([`ShardMap::shard_box`]) and window queries still prune whole
//! shards ([`ShardMap::matching_shards`]).
//!
//! Slot ids are allocated monotonically and **never reused**: a split
//! retires the parent's slot and assigns fresh ids to the children.
//! That makes a slot id a safe handle across a routing change — a
//! reader holding a stale map can detect retirement instead of
//! silently addressing the wrong shard — and gives each durable shard
//! directory (`shard-NNN/`) a name that never refers to two different
//! key regions over the store's lifetime.
//!
//! The `epoch` counts routing changes; layers above publish it as a
//! gauge and bump it on every committed split.

use crate::error::ShardError;

/// Maximum trie depth in Z-bits (so at most `2^16` shards along any
/// path-count bound), matching [`crate::MAX_SHARDS`].
pub const MAX_DEPTH: u32 = 16;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    /// A shard: the slot id addressing its storage cell.
    Leaf(u32),
    /// One more Z-bit consumed: `[bit = 0, bit = 1]`.
    Split(Box<Node>, Box<Node>),
}

/// A versioned shard-routing trie over the Z-order bit stream.
///
/// Immutable once built — [`ShardMap::split`] returns a *new* map, so
/// concurrent readers can hold an `Arc<ShardMap>` snapshot while a
/// rebalance installs the successor (the routing-epoch pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap<const K: usize> {
    root: Node,
    epoch: u64,
    next_slot: u32,
    leaves: usize,
}

impl<const K: usize> ShardMap<K> {
    /// A uniform map over `shards = 2^s` shards at epoch 0, routing
    /// identically to [`crate::Router::new`]`(shards)`: slot ids are
    /// the Z-order prefix values, in order.
    ///
    /// # Panics
    /// If `shards` is zero, not a power of two, or above
    /// [`crate::MAX_SHARDS`].
    pub fn uniform(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two() && shards <= crate::MAX_SHARDS,
            "shard count must be a power of two in 1..={}, got {shards}",
            crate::MAX_SHARDS
        );
        assert!(K >= 1, "zero-dimensional keys cannot be routed");
        let bits = shards.trailing_zeros();
        let mut next = 0u32;
        let root = Self::perfect(bits, &mut next);
        ShardMap {
            root,
            epoch: 0,
            next_slot: next,
            leaves: shards,
        }
    }

    /// A perfect subtree of `depth` levels whose leaves take ids from
    /// `next` in Z-order (left to right).
    fn perfect(depth: u32, next: &mut u32) -> Node {
        if depth == 0 {
            let slot = *next;
            *next += 1;
            Node::Leaf(slot)
        } else {
            let zero = Self::perfect(depth - 1, next);
            let one = Self::perfect(depth - 1, next);
            Node::Split(Box::new(zero), Box::new(one))
        }
    }

    /// Routing epoch: 0 for a fresh uniform map, +1 per committed
    /// split.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards (trie leaves).
    #[inline]
    pub fn shards(&self) -> usize {
        self.leaves
    }

    /// The next slot id a split would assign; also the exclusive upper
    /// bound on every live slot id (for sizing slot-indexed tables).
    #[inline]
    pub fn slot_bound(&self) -> usize {
        self.next_slot as usize
    }

    /// Live slot ids in Z-order of their regions. For a uniform map
    /// this is `0..shards`, and concatenating per-shard query results
    /// in this order yields global Z-order.
    pub fn live_slots(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.leaves);
        fn walk(n: &Node, out: &mut Vec<usize>) {
            match n {
                Node::Leaf(s) => out.push(*s as usize),
                Node::Split(z, o) => {
                    walk(z, out);
                    walk(o, out);
                }
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// Whether `slot` is a live leaf.
    pub fn is_live(&self, slot: usize) -> bool {
        self.live_slots().contains(&slot)
    }

    /// The slot owning `key`: descend the trie consuming the key's
    /// Z-bit stream, MSB-first interleaved exactly as the tree's
    /// hypercube addresses are.
    #[inline]
    pub fn route(&self, key: &[u64; K]) -> usize {
        let mut node = &self.root;
        let mut t = 0u32;
        loop {
            match node {
                Node::Leaf(s) => return *s as usize,
                Node::Split(z, o) => {
                    let level = t / K as u32;
                    let dim = (t % K as u32) as usize;
                    let bit = (key[dim] >> (63 - level)) & 1;
                    node = if bit == 0 { z } else { o };
                    t += 1;
                }
            }
        }
    }

    /// The axis-aligned box of keys owned by `slot`: its trie-path
    /// prefix with all remaining bits free, `(min, max)` inclusive.
    ///
    /// # Panics
    /// If `slot` is not a live leaf.
    pub fn shard_box(&self, slot: usize) -> ([u64; K], [u64; K]) {
        self.shard_boxes()
            .into_iter()
            .find_map(|(s, min, max)| (s == slot).then_some((min, max)))
            .unwrap_or_else(|| panic!("slot {slot} is not a live shard"))
    }

    /// Every live slot with its [`ShardMap::shard_box`], in Z-order of
    /// the regions, from one walk of the trie.
    pub fn shard_boxes(&self) -> Vec<(usize, [u64; K], [u64; K])> {
        fn walk<const K: usize>(
            n: &Node,
            t: u32,
            min: [u64; K],
            max: [u64; K],
            out: &mut Vec<(usize, [u64; K], [u64; K])>,
        ) {
            match n {
                Node::Leaf(s) => out.push((*s as usize, min, max)),
                Node::Split(z, o) => {
                    let (zr, or) = child_regions(&min, &max, t);
                    walk(z, t + 1, zr.0, zr.1, out);
                    walk(o, t + 1, or.0, or.1, out);
                }
            }
        }
        let mut out = Vec::with_capacity(self.leaves);
        walk::<K>(&self.root, 0, [0u64; K], [u64::MAX; K], &mut out);
        out
    }

    /// Depth (Z-bits consumed) of the leaf holding `slot`, or `None`
    /// if it is not live.
    pub fn slot_depth(&self, slot: usize) -> Option<u32> {
        fn find(n: &Node, t: u32, slot: u32) -> Option<u32> {
            match n {
                Node::Leaf(s) => (*s == slot).then_some(t),
                Node::Split(z, o) => find(z, t + 1, slot).or_else(|| find(o, t + 1, slot)),
            }
        }
        find(&self.root, 0, slot as u32)
    }

    /// Slots whose region intersects the query box `[q_min, q_max]`,
    /// in Z-order of their regions (the order
    /// [`ShardMap::live_slots`] uses — concatenating per-shard query
    /// results in this order preserves global Z-order). Every omitted
    /// shard provably contains no matching key.
    pub fn matching_shards(&self, q_min: &[u64; K], q_max: &[u64; K]) -> Vec<usize> {
        #[allow(clippy::too_many_arguments)]
        fn walk<const K: usize>(
            n: &Node,
            t: u32,
            min: [u64; K],
            max: [u64; K],
            q_min: &[u64; K],
            q_max: &[u64; K],
            out: &mut Vec<usize>,
        ) {
            for d in 0..K {
                if min[d] > q_max[d] || max[d] < q_min[d] {
                    return;
                }
            }
            match n {
                Node::Leaf(s) => out.push(*s as usize),
                Node::Split(z, o) => {
                    let (zr, or) = child_regions(&min, &max, t);
                    walk(z, t + 1, zr.0, zr.1, q_min, q_max, out);
                    walk(o, t + 1, or.0, or.1, q_min, q_max, out);
                }
            }
        }
        let mut out = Vec::new();
        walk::<K>(
            &self.root,
            0,
            [0u64; K],
            [u64::MAX; K],
            q_min,
            q_max,
            &mut out,
        );
        out
    }

    /// Deepens the leaf `slot` by `bits` Z-bits, partitioning its
    /// region into `2^bits` children with freshly allocated slot ids
    /// (returned in Z-order). The parent slot is retired — absent from
    /// the new map, never reassigned. Epoch increments by one.
    ///
    /// Fails if `slot` is not live, `bits` is zero, the resulting leaf
    /// depth would exceed [`MAX_DEPTH`], or the shard count would pass
    /// [`crate::MAX_SHARDS`].
    pub fn split(&self, slot: usize, bits: u32) -> Result<(ShardMap<K>, Vec<usize>), ShardError> {
        if bits == 0 {
            return Err(ShardError::SplitDepth { slot, depth: 0 });
        }
        let depth = self
            .slot_depth(slot)
            .ok_or(ShardError::UnknownSlot { slot })?;
        if depth + bits > MAX_DEPTH {
            return Err(ShardError::SplitDepth {
                slot,
                depth: depth + bits,
            });
        }
        let grown = self.leaves + (1usize << bits) - 1;
        if grown > crate::MAX_SHARDS {
            return Err(ShardError::TooManyShards {
                requested: grown,
                max: crate::MAX_SHARDS,
            });
        }
        let mut next = self.next_slot;
        let mut root = self.root.clone();
        fn replace(n: &mut Node, slot: u32, bits: u32, next: &mut u32) -> bool {
            match n {
                Node::Leaf(s) if *s == slot => {
                    *n = ShardMap::<1>::perfect(bits, next);
                    true
                }
                Node::Leaf(_) => false,
                Node::Split(z, o) => replace(z, slot, bits, next) || replace(o, slot, bits, next),
            }
        }
        let replaced = replace(&mut root, slot as u32, bits, &mut next);
        debug_assert!(replaced);
        let children: Vec<usize> = (self.next_slot..next).map(|s| s as usize).collect();
        Ok((
            ShardMap {
                root,
                epoch: self.epoch + 1,
                next_slot: next,
                leaves: grown,
            },
            children,
        ))
    }

    /// Serialises the map (without the epoch — the manifest layer owns
    /// versioning metadata): preorder walk, one tag byte per node
    /// (`1` = split, `0` = leaf followed by the slot id LE).
    pub fn encode(&self, out: &mut Vec<u8>) {
        fn walk(n: &Node, out: &mut Vec<u8>) {
            match n {
                Node::Leaf(s) => {
                    out.push(0);
                    out.extend_from_slice(&s.to_le_bytes());
                }
                Node::Split(z, o) => {
                    out.push(1);
                    walk(z, out);
                    walk(o, out);
                }
            }
        }
        walk(&self.root, out);
    }

    /// Rebuilds a map from [`ShardMap::encode`] bytes plus the
    /// externally stored `epoch` and `next_slot`. Returns `None` on
    /// malformed input (truncated, trailing bytes, bad tag, depth
    /// overflow, or a slot id at or above `next_slot`).
    pub fn decode(bytes: &[u8], epoch: u64, next_slot: u32) -> Option<ShardMap<K>> {
        fn parse(bytes: &[u8], pos: &mut usize, depth: u32, bound: u32) -> Option<Node> {
            if depth > MAX_DEPTH {
                return None;
            }
            let tag = *bytes.get(*pos)?;
            *pos += 1;
            match tag {
                0 => {
                    let raw = bytes.get(*pos..*pos + 4)?;
                    *pos += 4;
                    let slot = u32::from_le_bytes(raw.try_into().unwrap());
                    (slot < bound).then_some(Node::Leaf(slot))
                }
                1 => {
                    let z = parse(bytes, pos, depth + 1, bound)?;
                    let o = parse(bytes, pos, depth + 1, bound)?;
                    Some(Node::Split(Box::new(z), Box::new(o)))
                }
                _ => None,
            }
        }
        let mut pos = 0usize;
        let root = parse(bytes, &mut pos, 0, next_slot)?;
        if pos != bytes.len() {
            return None;
        }
        let mut leaves = 0usize;
        fn count(n: &Node, leaves: &mut usize) {
            match n {
                Node::Leaf(_) => *leaves += 1,
                Node::Split(z, o) => {
                    count(z, leaves);
                    count(o, leaves);
                }
            }
        }
        count(&root, &mut leaves);
        Some(ShardMap {
            root,
            epoch,
            next_slot,
            leaves,
        })
    }
}

/// An axis-aligned key region as inclusive `(min, max)` corners.
type Region<const K: usize> = ([u64; K], [u64; K]);

/// The two child regions of a split at Z-bit `t`: clearing/setting bit
/// `63 - t/K` of dimension `t % K`.
fn child_regions<const K: usize>(min: &[u64; K], max: &[u64; K], t: u32) -> (Region<K>, Region<K>) {
    let level = t / K as u32;
    let dim = (t % K as u32) as usize;
    let bit = 63 - level;
    let mut zero_max = *max;
    zero_max[dim] &= !(1u64 << bit);
    let mut one_min = *min;
    one_min[dim] |= 1u64 << bit;
    ((*min, zero_max), (one_min, *max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Router;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        }
    }

    fn rand_key<const K: usize>(r: &mut impl FnMut() -> u64) -> [u64; K] {
        let mut k = [0u64; K];
        for d in k.iter_mut() {
            *d = r();
        }
        k
    }

    fn boxes_intersect<const K: usize>(
        a_min: &[u64; K],
        a_max: &[u64; K],
        b_min: &[u64; K],
        b_max: &[u64; K],
    ) -> bool {
        (0..K).all(|d| a_min[d] <= b_max[d] && a_max[d] >= b_min[d])
    }

    #[test]
    fn uniform_map_routes_identically_to_router() {
        let mut r = rng(7);
        for &s in &[1usize, 2, 4, 8, 32, 64] {
            let map: ShardMap<3> = ShardMap::uniform(s);
            let router: Router<3> = Router::new(s);
            assert_eq!(map.shards(), s);
            assert_eq!(map.live_slots(), (0..s).collect::<Vec<_>>());
            for _ in 0..300 {
                let key = rand_key::<3>(&mut r);
                assert_eq!(map.route(&key), router.route(&key), "S={s} key {key:?}");
            }
            for slot in 0..s {
                assert_eq!(map.shard_box(slot), router.shard_box(slot), "S={s}");
            }
        }
    }

    #[test]
    fn uniform_matching_shards_identical_to_router() {
        let mut r = rng(21);
        for &s in &[1usize, 2, 8, 32] {
            let map: ShardMap<3> = ShardMap::uniform(s);
            let router: Router<3> = Router::new(s);
            for _ in 0..150 {
                let mut lo = [0u64; 3];
                let mut hi = [0u64; 3];
                for d in 0..3 {
                    let a = r();
                    let b = r();
                    lo[d] = a.min(b);
                    hi[d] = a.max(b);
                }
                assert_eq!(
                    map.matching_shards(&lo, &hi),
                    router.matching_shards(&lo, &hi),
                    "S={s}"
                );
            }
        }
    }

    #[test]
    fn split_partitions_exactly_the_parent_region() {
        let mut r = rng(99);
        let map: ShardMap<2> = ShardMap::uniform(4);
        let (pmin, pmax) = map.shard_box(2);
        let (map2, children) = map.split(2, 2).unwrap();
        assert_eq!(children, vec![4, 5, 6, 7]);
        assert_eq!(map2.shards(), 7);
        assert_eq!(map2.epoch(), 1);
        assert!(!map2.is_live(2), "parent slot retired");
        assert_eq!(map2.slot_bound(), 8);
        // Every key routes to the same slot as before, except parent
        // keys which now land in one of the children — and the child's
        // box sits inside the parent's.
        for _ in 0..500 {
            let key = rand_key::<2>(&mut r);
            let old = map.route(&key);
            let new = map2.route(&key);
            if old == 2 {
                assert!(children.contains(&new), "key {key:?} → {new}");
                let (cmin, cmax) = map2.shard_box(new);
                for d in 0..2 {
                    assert!(pmin[d] <= cmin[d] && cmax[d] <= pmax[d]);
                }
            } else {
                assert_eq!(old, new, "non-parent key rerouted");
            }
        }
        // Child boxes are pairwise disjoint and ordered in live_slots.
        let live = map2.live_slots();
        assert_eq!(live, vec![0, 1, 4, 5, 6, 7, 3]);
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                let (amin, amax) = map2.shard_box(a);
                let (bmin, bmax) = map2.shard_box(b);
                assert!(!boxes_intersect(&amin, &amax, &bmin, &bmax));
            }
        }
    }

    #[test]
    fn matching_shards_on_split_map_equals_brute_force() {
        let mut r = rng(5);
        let map: ShardMap<3> = ShardMap::uniform(8);
        let (map, _) = map.split(0, 3).unwrap();
        let (map, _) = map.split(5, 1).unwrap();
        let live = map.live_slots();
        for _ in 0..200 {
            let mut lo = [0u64; 3];
            let mut hi = [0u64; 3];
            for d in 0..3 {
                let a = r();
                let b = r();
                lo[d] = a.min(b);
                hi[d] = a.max(b);
            }
            let got = map.matching_shards(&lo, &hi);
            let want: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&s| {
                    let (bmin, bmax) = map.shard_box(s);
                    boxes_intersect(&bmin, &bmax, &lo, &hi)
                })
                .collect();
            assert_eq!(got, want, "query {lo:?}..{hi:?}");
        }
    }

    #[test]
    fn route_always_lands_in_the_slot_box() {
        let mut r = rng(13);
        let map: ShardMap<3> = ShardMap::uniform(4);
        let (map, _) = map.split(1, 3).unwrap();
        for _ in 0..500 {
            let key = rand_key::<3>(&mut r);
            let slot = map.route(&key);
            let (lo, hi) = map.shard_box(slot);
            for d in 0..3 {
                assert!(lo[d] <= key[d] && key[d] <= hi[d]);
            }
        }
    }

    #[test]
    fn split_errors_are_typed() {
        let map: ShardMap<2> = ShardMap::uniform(2);
        assert!(matches!(
            map.split(9, 1),
            Err(ShardError::UnknownSlot { slot: 9 })
        ));
        assert!(matches!(
            map.split(0, 0),
            Err(ShardError::SplitDepth { .. })
        ));
        assert!(matches!(
            map.split(0, MAX_DEPTH),
            Err(ShardError::SplitDepth { .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let map: ShardMap<3> = ShardMap::uniform(8);
        let (map, _) = map.split(3, 2).unwrap();
        let (map, _) = map.split(9, 1).unwrap();
        let mut bytes = Vec::new();
        map.encode(&mut bytes);
        let back: ShardMap<3> =
            ShardMap::decode(&bytes, map.epoch(), map.slot_bound() as u32).unwrap();
        assert_eq!(back, map);
        // Malformed inputs are rejected, not misparsed.
        assert!(ShardMap::<3>::decode(&bytes[..bytes.len() - 1], 2, 13).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ShardMap::<3>::decode(&trailing, 2, 13).is_none());
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 7;
        assert!(ShardMap::<3>::decode(&bad_tag, 2, 13).is_none());
        // Slot id out of bound.
        assert!(ShardMap::<3>::decode(&bytes, 2, 3).is_none());
    }
}
