//! What the raw API shows of a tree is its *logical* form, a pure
//! function of the contents: the hashes below were recorded when a
//! node was an `Arc` over a struct of three vectors and must survive
//! any change of the in-memory layout, byte for byte.

use phtree::raw::NodeRef;
use phtree::PhTree;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Everything the raw API exposes of a tree, as bytes.
fn raw_bytes<const K: usize>(t: &PhTree<u32, K>) -> Vec<u8> {
    fn walk<const K: usize>(n: &NodeRef<'_, u32, K>, out: &mut Vec<u8>) {
        out.extend([n.post_len(), n.infix_len(), n.is_hc() as u8]);
        for len in [n.bits_len(), n.n_values(), n.n_subs()] {
            out.extend((len as u64).to_le_bytes());
        }
        out.extend(n.bits_words().iter().flat_map(|w| w.to_le_bytes()));
        out.extend(n.values().flat_map(|v| v.to_le_bytes()));
        for sub in n.subs() {
            walk(&sub, out);
        }
    }
    let mut out = Vec::new();
    if let Some(root) = t.root_raw() {
        walk(&root, &mut out);
    }
    out
}

fn keys<const K: usize>(n: u64, span: u64) -> impl Iterator<Item = [u64; K]> {
    let mut x = 5u64;
    (0..n).map(move |_| {
        std::array::from_fn(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 20) % span
        })
    })
}

#[test]
fn raw_bytes_are_golden() {
    // K = 3, grown and cut back: HC and LHC nodes, merged sub-nodes.
    let mut small: PhTree<u32, 3> = PhTree::new();
    for (i, k) in keys::<3>(4000, 1 << 10).enumerate() {
        small.insert(k, i as u32);
    }
    for k in keys::<3>(4000, 1 << 10).step_by(3) {
        small.remove(&k);
    }
    // K = 20: the root and its larger children are paged.
    let mut wide: PhTree<u32, 20> = PhTree::new();
    for (i, k) in keys::<20>(2500, u64::MAX >> 20).enumerate() {
        wide.insert(k, i as u32);
    }
    let (s, w) = (raw_bytes(&small), raw_bytes(&wide));
    assert_eq!((s.len(), w.len()), (54_705, 285_549));
    assert_eq!(fnv1a(&s), 9790991471173138704, "K = 3");
    assert_eq!(fnv1a(&w), 15475472467478736226, "K = 20");
    // Bulk loading builds the same logical form.
    let bulk = PhTree::bulk_load(small.iter().map(|(k, v)| (k, *v)).collect());
    assert_eq!(raw_bytes(&bulk), s);
}
