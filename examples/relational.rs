//! The PH-tree as a compact, fully indexed relational table — the
//! paper's closing outlook (Sect. 5): "this would also allow the
//! PH-tree to be effectively used as a compact and fully indexed table
//! of a relational database."
//!
//! Each row of an `orders` table becomes one k-dimensional key: every
//! column is a dimension, so *every* column is indexed at once and any
//! combination of per-column range predicates becomes a single window
//! query. The dimension count `K` is a compile-time constant of
//! [`phtree::PhTree`]: a fixed schema like this one names it once; a
//! table whose column count is only known at run time would `match`
//! over the monomorphised instances it supports.
//!
//! Run with: `cargo run --release -p ph-bench --example relational`

use phtree::key::{f64_to_key, i64_to_key, key_to_f64};
use phtree::PhTree;
use std::time::Instant;

/// Column schema: name + encoder into sortable u64 space.
enum Col {
    /// Unsigned integers stored as-is.
    U64(&'static str),
    /// Signed integers via sign-bit flip.
    I64(&'static str),
    /// Floats via the paper's IEEE-754 conversion.
    F64(&'static str),
}

impl Col {
    fn name(&self) -> &'static str {
        match self {
            Col::U64(n) | Col::I64(n) | Col::F64(n) => n,
        }
    }
}

/// Column count of the `orders` table.
const K: usize = 6;

fn main() {
    // orders(order_id, customer, day, quantity, balance_delta, price)
    let schema: [Col; K] = [
        Col::U64("order_id"),
        Col::U64("customer"),
        Col::U64("day"),
        Col::U64("quantity"),
        Col::I64("balance_delta"),
        Col::F64("price"),
    ];
    println!(
        "schema: orders({}) — {K} columns, all indexed",
        schema.iter().map(Col::name).collect::<Vec<_>>().join(", ")
    );

    // Generate and load 300k rows. The row *is* the key; no payload.
    let n_rows = 300_000u64;
    let mut table: PhTree<(), K> = PhTree::new();
    let mut x = 42u64;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let t0 = Instant::now();
    for order_id in 0..n_rows {
        let customer = rng() % 10_000;
        let day = rng() % 365;
        let quantity = 1 + rng() % 50;
        let balance_delta = (rng() % 20_000) as i64 - 10_000;
        let price = (rng() % 100_000) as f64 / 100.0;
        let row = [
            order_id,
            customer,
            day,
            quantity,
            i64_to_key(balance_delta),
            f64_to_key(price),
        ];
        table.insert(row, ());
    }
    println!(
        "loaded {} rows in {:.0} ms",
        table.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    let s = table.stats();
    println!(
        "table storage: {:.1} bytes/row ({} nodes) — raw row data is {} bytes/row",
        s.bytes_per_entry(),
        s.nodes,
        K * 8
    );

    // SELECT count(*) FROM orders
    // WHERE customer BETWEEN 100 AND 199
    //   AND day BETWEEN 50 AND 99
    //   AND price BETWEEN 100.00 AND 500.00
    // — one window query, no per-column secondary indexes needed.
    let mut lo = [0u64; K];
    let mut hi = [u64::MAX; K];
    (lo[1], hi[1]) = (100, 199);
    (lo[2], hi[2]) = (50, 99);
    (lo[5], hi[5]) = (f64_to_key(100.0), f64_to_key(500.0));
    let t0 = Instant::now();
    let (mut hits, mut revenue) = (0usize, 0.0);
    for (row, _) in table.query(&lo, &hi) {
        hits += 1;
        revenue += key_to_f64(row[5]) * row[3] as f64;
    }
    let q_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("3-predicate query: {hits} rows, revenue {revenue:.2}, in {q_ms:.2} ms");

    // Verify against a full scan.
    let t0 = Instant::now();
    let scan_hits = table
        .iter()
        .filter(|(row, _)| (0..K).all(|d| lo[d] <= row[d] && row[d] <= hi[d]))
        .count();
    let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(hits, scan_hits);
    println!(
        "full scan agrees ({scan_hits} rows) and took {scan_ms:.2} ms — {:.0}× slower",
        scan_ms / q_ms.max(1e-9)
    );

    // Point lookup by full row; deletes work too (an OLTP-ish update).
    let (probe, _) = table.query(&lo, &hi).next().expect("the query had hits");
    assert!(table.contains(&probe));
    assert_eq!(table.remove(&probe), Some(()));
    assert!(!table.contains(&probe));
    println!("row delete + lookup verified ✓");
}
