//! Soundness harness for `src/block.rs`, the crate's one `unsafe`
//! module, compiled here on its own (it depends on nothing but `std`).
//! No Miri offline, so: every small shape × every splice × every
//! capacity situation, against a plain model, with values that count
//! their drops, values aligned to 16, values of size zero, and a
//! `Clone` that panics half way. CI also runs this optimised with
//! debug assertions on, beside the concurrency tests.

#[allow(dead_code)]
#[path = "../src/block.rs"]
mod block;

use block::{Meta, Node, NodePtr, Repr, HEADER_BYTES};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

const META: Meta = Meta {
    post_len: 7,
    infix_len: 3,
    repr: Repr::Lhc,
};

/// A value that counts how many of its kind are alive.
struct Counted {
    id: u32,
    live: Rc<Cell<isize>>,
}

impl Counted {
    fn new(id: u32, live: &Rc<Cell<isize>>) -> Self {
        live.set(live.get() + 1);
        Counted {
            id,
            live: live.clone(),
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(self.id, &self.live)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.live.set(self.live.get() - 1);
        assert!(self.live.get() >= 0, "value {} dropped twice", self.id);
    }
}

/// What a node must hold: the model the block is checked against.
struct Model<const K: usize> {
    bits: usize,
    words: Vec<u64>,
    subs: Vec<NodePtr<Counted, K>>,
    vals: Vec<u32>,
}

fn word(i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn leaf<const K: usize>(tag: u8) -> NodePtr<Counted, K> {
    let meta = Meta {
        post_len: tag,
        ..META
    };
    Node::with_capacity(meta, 0, 0, 0).into()
}

/// A node of `w` words (the last one partial), `s` children and `v`
/// values, with `spare` extra bytes of capacity, and its model.
fn build<const K: usize>(
    (w, s, v): (usize, usize, usize),
    spare: usize,
    live: &Rc<Cell<isize>>,
) -> (Node<Counted, K>, Model<K>) {
    let bits = (w * 64).saturating_sub(13);
    let mut node = Node::with_capacity(META, bits, s, v);
    if spare > 0 {
        node.reserve(bits + spare * 8, s, v);
    }
    node.bits_resize(bits);
    let mut model = Model {
        bits,
        words: (0..w).map(word).collect(),
        subs: (0..s).map(|i| leaf(i as u8)).collect(),
        vals: (0..v as u32).collect(),
    };
    if let Some(last) = model.words.last_mut() {
        *last &= u64::MAX >> 13;
    }
    node.words_mut().copy_from_slice(&model.words);
    // Interleaved on purpose: a child pushed behind values slides them.
    for i in 0..s.max(v) {
        if i < v {
            node.vals_insert(i, Counted::new(i as u32, live));
        }
        if i < s {
            node.subs_insert(i, model.subs[i].clone());
        }
    }
    (node, model)
}

fn check<const K: usize>(node: &Node<Counted, K>, model: &Model<K>, what: &str) {
    assert_eq!(node.bits_len(), model.bits, "{what}: bit length");
    assert_eq!(node.words(), &model.words[..], "{what}: words");
    assert_eq!(node.subs().len(), model.subs.len(), "{what}: child count");
    for (i, (a, b)) in node.subs().iter().zip(&model.subs).enumerate() {
        assert!(NodePtr::ptr_eq(a, b), "{what}: child {i}");
        assert_eq!(a.post_len, b.post_len);
    }
    let ids: Vec<u32> = node.values().iter().map(|c| c.id).collect();
    assert_eq!(ids, model.vals, "{what}: values");
    assert_eq!(
        (node.post_len, node.infix_len, node.repr),
        (7, 3, Repr::Lhc)
    );
    let used = HEADER_BYTES + 8 * (model.words.len() + model.subs.len()) + 16 * model.vals.len();
    assert_eq!(node.capacity() - node.slack(), used, "{what}: used bytes");
}

/// One splice, applied to node and model alike.
#[derive(Clone, Copy, Debug)]
enum Edit {
    ValIn(usize),
    ValOut(usize),
    SubIn(usize),
    SubOut(usize),
    Bits(usize),
}

fn apply<const K: usize>(
    node: &mut Node<Counted, K>,
    model: &mut Model<K>,
    edit: Edit,
    live: &Rc<Cell<isize>>,
) {
    match edit {
        Edit::ValIn(i) => {
            node.vals_insert(i, Counted::new(99, live));
            model.vals.insert(i, 99);
        }
        Edit::ValOut(i) => assert_eq!(node.vals_remove(i).id, model.vals.remove(i)),
        Edit::SubIn(i) => {
            let sub = leaf(99);
            node.subs_insert(i, sub.clone());
            model.subs.insert(i, sub);
        }
        Edit::SubOut(i) => assert!(NodePtr::ptr_eq(&node.subs_remove(i), &model.subs.remove(i))),
        Edit::Bits(bits) => {
            node.bits_resize(bits);
            model.bits = bits;
            model.words.resize(bits.div_ceil(64), 0);
            if bits % 64 != 0 {
                *model.words.last_mut().unwrap() &= (1 << (bits % 64)) - 1;
            }
        }
    }
}

fn edits((w, s, v): (usize, usize, usize)) -> Vec<Edit> {
    let bits = (w * 64).saturating_sub(13);
    let mut all: Vec<Edit> = (0..=v).map(Edit::ValIn).collect();
    all.extend((0..v).map(Edit::ValOut));
    all.extend((0..=s).map(Edit::SubIn));
    all.extend((0..s).map(Edit::SubOut));
    let lens = [0, 1, bits / 2, bits.saturating_sub(64), bits, bits + 1];
    all.extend(lens.map(Edit::Bits));
    all.extend([bits + 64, bits + 200, w * 64].map(Edit::Bits));
    all
}

/// Every shape up to 4 × 4 × 4, every edit at every position, on a
/// block that is exactly full (the edit grows it), that has slack (it
/// does not), and that is shrunk afterwards; on a unique node and on a
/// copy-on-write copy of a shared one.
fn exhaust<const K: usize>() {
    let live = Rc::new(Cell::new(0));
    for shape in (0..125).map(|i| (i / 25, i / 5 % 5, i % 5)) {
        for edit in edits(shape) {
            for spare in [0, 40] {
                let what = format!("K={K} {shape:?} {edit:?} spare {spare}");
                // Unique.
                let (mut node, mut model) = build::<K>(shape, spare, &live);
                check(&node, &model, &what);
                let cap = node.capacity();
                apply(&mut node, &mut model, edit, &live);
                check(&node, &model, &what);
                if spare > 0 {
                    assert_eq!(node.capacity(), cap, "{what}: edit in slack reallocated");
                }
                node.shrink_to_fit();
                assert_eq!(node.slack(), 0, "{what}: shrunk");
                check(&node, &model, &what);
                drop(node);
                assert_eq!(live.get(), 0, "{what}: values alive after drop");

                // Shared: the edit lands on a copy, the original stands.
                let (node, model) = build::<K>(shape, spare, &live);
                let mut ours: NodePtr<Counted, K> = node.into();
                let theirs = ours.clone();
                assert!(!ours.is_unique() && NodePtr::ptr_eq(&ours, &theirs));
                let mut edited = Model {
                    bits: model.bits,
                    words: model.words.clone(),
                    subs: model.subs.clone(),
                    vals: model.vals.clone(),
                };
                let copy = NodePtr::make_mut(&mut ours);
                assert_eq!(copy.slack(), 0, "{what}: a copy is exact");
                apply(copy, &mut edited, edit, &live);
                check(&ours, &edited, &what);
                check(&theirs, &model, &what);
                assert!(ours.is_unique() && theirs.is_unique());
                assert!(!NodePtr::ptr_eq(&ours, &theirs));
                // The last handle unwraps without a copy.
                let block = &**theirs as *const Meta;
                let back = theirs.into_unique();
                assert_eq!(&*back as *const Meta, block);
                drop((ours, back));
                assert_eq!(live.get(), 0, "{what}: values alive after drop");
            }
        }
    }
}

#[test]
fn every_small_shape_every_splice_k1() {
    exhaust::<1>();
}

#[test]
fn every_small_shape_every_splice_k3() {
    exhaust::<3>();
}

#[test]
fn every_small_shape_every_splice_k20() {
    exhaust::<20>();
}

/// A value whose `clone` panics when the shared fuse runs out.
struct Fused {
    alive: Counted,
    fuse: Rc<Cell<usize>>,
}

impl Clone for Fused {
    fn clone(&self) -> Self {
        assert!(self.fuse.get() > 0, "fuse blown");
        self.fuse.set(self.fuse.get() - 1);
        Fused {
            alive: self.alive.clone(),
            fuse: self.fuse.clone(),
        }
    }
}

#[test]
fn a_clone_that_panics_midway_leaks_nothing_and_drops_nothing_twice() {
    let live = Rc::new(Cell::new(0));
    let fuse = Rc::new(Cell::new(0));
    for n in 1..=4usize {
        for blow_at in 0..n {
            let mut node: Node<Fused, 3> = Node::with_capacity(META, 100, 2, n);
            node.bits_resize(100);
            for i in 0..2 {
                node.subs_insert(i, Node::with_capacity(META, 0, 0, 0).into());
            }
            for i in 0..n {
                let alive = Counted::new(i as u32, &live);
                node.vals_insert(
                    i,
                    Fused {
                        alive,
                        fuse: fuse.clone(),
                    },
                );
            }
            let shared: NodePtr<Fused, 3> = node.into();
            let mut ours = shared.clone();
            fuse.set(blow_at);
            let copied = catch_unwind(AssertUnwindSafe(|| {
                NodePtr::make_mut(&mut ours);
            }));
            assert!(copied.is_err(), "the fuse must blow");
            // The half-made copy is gone with its clones; both handles
            // still name the intact original.
            assert_eq!(live.get(), n as isize, "n {n} blow at {blow_at}");
            assert!(NodePtr::ptr_eq(&ours, &shared) && !ours.is_unique());
            assert_eq!(shared.values().len(), n);
            assert!(shared.subs().iter().all(|c| c.is_unique()));
            drop((ours, shared));
            assert_eq!(live.get(), 0);
        }
    }
}

#[test]
fn sixteen_byte_values_sit_aligned_behind_any_word_and_child_count() {
    for w in 0..=4usize {
        for s in 0..=4usize {
            let mut node: Node<u128, 3> = Node::with_capacity(META, w * 64, 0, 0);
            node.bits_resize(w * 64);
            for i in 0..5u128 {
                node.vals_insert(i as usize, i << 100 | 7);
                if (i as usize) < s {
                    node.subs_insert(0, Node::with_capacity(META, 0, 0, 0).into());
                }
                assert_eq!(
                    node.values().as_ptr() as usize % 16,
                    0,
                    "w {w} s {s} at {i}"
                );
            }
            let want: Vec<u128> = (0..5).map(|i| i << 100 | 7).collect();
            assert_eq!(node.values(), &want[..]);
            node.bits_resize((w + 1) * 64);
            assert_eq!(node.values().as_ptr() as usize % 16, 0);
            assert_eq!(node.values(), &want[..]);
            assert_eq!(node.clone().values(), &want[..]);
            assert_eq!(node.vals_remove(2), 2 << 100 | 7);
            node.shrink_to_fit();
            assert_eq!(node.values().as_ptr() as usize % 16, 0);
            assert_eq!(node.values().len(), 4);
        }
    }
}

#[test]
fn zero_sized_values_take_no_bytes_but_count() {
    let mut node: Node<(), 20> = Node::with_capacity(META, 64, 1, 0);
    node.bits_resize(64);
    node.subs_insert(0, Node::with_capacity(META, 0, 0, 0).into());
    let cap = node.capacity();
    assert_eq!(cap, HEADER_BYTES + 16);
    for i in 0..1000 {
        node.vals_insert(i / 2, ());
    }
    assert_eq!((node.values().len(), node.capacity()), (1000, cap));
    node.vals_remove(500);
    assert_eq!((node.values().len(), node.subs().len()), (999, 1));
    assert_eq!(node.clone().capacity(), cap);
}
