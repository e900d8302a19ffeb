//! kD-tree baselines for the PH-tree evaluation.
//!
//! The paper compares the PH-tree against two freely available kD-tree
//! implementations ("KD1" and "KD2") that show "very similar behaviour,
//! each has its own strengths and neither was consistently better than
//! the other" (Sect. 4.1). This crate provides two independent
//! implementations in the same spirit:
//!
//! * [`KdTree1`] — a classic Bentley kD-tree with pointer-linked nodes,
//!   insertion-order-dependent structure and eager deletion via
//!   minimum-extraction (the textbook algorithm).
//! * [`KdTree2`] — an arena-allocated kD-tree with tombstone deletion
//!   and automatic rebuild into a median-balanced tree once half the
//!   nodes are tombstones. Better locality and balance, but rebuild
//!   spikes and tombstone memory.
//!
//! Both store `K`-dimensional `f64` points with attached values and
//! support insert, point query, remove, window queries and
//! nearest-neighbour search, plus exact structural memory accounting
//! ([`KdTree1::memory_bytes`], [`KdTree2::memory_bytes`]).
//!
//! The [`naive`] module provides the two non-index storage yardsticks of
//! Sect. 4.3.5 (`double[]` and `object[]`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kd1;
pub mod kd2;
pub mod naive;

pub use kd1::KdTree1;
pub use kd2::KdTree2;

/// Assumed allocator overhead per heap allocation, in bytes (kept equal
/// to `phtree`'s `ALLOC_OVERHEAD` so space comparisons are fair).
pub const ALLOC_OVERHEAD: usize = 16;
