//! Criterion micro-benchmarks for the bit-stream substrate: the
//! word-wise read/write/shift primitives every PH-tree node update goes
//! through, plus the range-query address successor.

use criterion::{criterion_group, criterion_main, Criterion};
use phbits::{hc, BitBuf, BitRead, BitWrite};

fn bench_bitbuf(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitbuf");
    let mut buf = BitBuf::new();
    buf.grow(64 * 1024);
    g.bench_function("read_bits_64", |b| {
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 13) % (64 * 1024 - 64);
            std::hint::black_box(buf.read_bits(off, 64))
        })
    });
    g.bench_function("write_bits_64", |b| {
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 13) % (64 * 1024 - 64);
            buf.write_bits(off, 0xDEAD_BEEF_F00D_CAFE, 64);
        })
    });
    g.bench_function("insert_remove_gap_192", |b| {
        // The postfix shift of one insert+delete in a k=3 node.
        b.iter(|| {
            buf.insert_gap(1024, 192);
            buf.remove_range(1024, 192);
        })
    });
    g.finish();
}

fn bench_hc(c: &mut Criterion) {
    let mut g = c.benchmark_group("hc");
    let key = [
        0x0123_4567_89AB_CDEFu64,
        0xFEDC_BA98_7654_3210,
        0xAAAA_5555_AAAA_5555,
    ];
    g.bench_function("addr_extract_k3", |b| {
        let mut bit = 0u32;
        b.iter(|| {
            bit = (bit + 1) % 64;
            std::hint::black_box(hc::addr(&key, bit))
        })
    });
    g.bench_function("next_addr", |b| {
        let (m_l, m_u) = (0b0010_1000u64, 0b1110_1011u64);
        let mut h = m_l;
        b.iter(|| {
            h = hc::next_addr(h, m_l, m_u).unwrap_or(m_l);
            std::hint::black_box(h)
        })
    });
    g.bench_function("masks_k3", |b| {
        let node_min = [0u64; 3];
        let q_min = [100u64, 200, 300];
        let q_max = [u64::MAX / 2; 3];
        b.iter(|| std::hint::black_box(hc::masks(&node_min, &q_min, &q_max, 40)))
    });
    g.finish();
}

criterion_group!(benches, bench_bitbuf, bench_hc);
criterion_main!(benches);
