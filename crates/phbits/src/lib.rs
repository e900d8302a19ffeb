//! Bit-stream storage substrate for the PH-tree.
//!
//! The PH-tree (Zäschke et al., SIGMOD 2014) serialises the data of each
//! node — the node's shared prefix ("infix") and the per-entry key
//! remainders ("postfixes") — into a single packed bit string instead of
//! keeping one heap object per value. This crate provides that substrate:
//!
//! * [`BitRead`] / [`BitWrite`] — random-access reads and writes of up
//!   to 64 bits and the word-level kernels over a packed bit string,
//!   plus *bit-range insertion* (shift-right) and *bit-range removal*
//!   (shift-left), the two operations the paper identifies as the cost
//!   drivers of node updates (Sect. 3.6 / 4.3.4); implemented by the
//!   owned, growable [`BitBuf`] and, in `phtree`, by a node over the
//!   words of its heap block.
//! * [`hc`] — hypercube address manipulation: extracting the `k`-bit
//!   hypercube address of a key at a given bit depth, and the range-query
//!   mask machinery (`mL`/`mU`) of Sect. 3.5, including the constant-time
//!   "next valid address" successor function.
//! * [`num`] — small numeric helpers (diverging-bit search between keys).
//!
//! The crate is deliberately free of dependencies and `unsafe` code; all
//! operations are word-wise (not bit-by-bit) so shifting an `n`-bit range
//! costs `O(n/64)` word operations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
pub mod bytes;
pub mod hc;
pub mod num;

pub use buf::{BitBuf, BitRead, BitWrite};
