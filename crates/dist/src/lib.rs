//! Shared compute-core primitives: flat distance matrices, NaN-safe float ordering,
//! and k-nearest-neighbor candidate lists.
//!
//! Every solver crate in the workspace used to carry its own `Vec<Vec<f64>>` distance
//! representation; the per-row heap indirection defeated hardware prefetching in the
//! hottest loops (annealing MACs, 2-opt scans, Held–Karp transitions). This crate owns
//! the replacement: [`DistanceMatrix`] stores one contiguous row-major buffer with a
//! stride, so a row is one cache-friendly slice and the whole matrix is one allocation.
//!
//! The crate is `std`-only and dependency-free on purpose — it sits below every other
//! workspace crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod neighbors;
mod order;

pub use matrix::{DistError, DistanceMatrix};
pub use neighbors::NeighborLists;
pub use order::{argmin_slice, argmin_total, total_min};

/// Fixed lane width used by the explicitly chunked kernels in this workspace.
///
/// Four f64 lanes fill one AVX2 register; the chunked loops process `LANES`-wide array
/// temporaries that the autovectorizer can lower to SIMD without `unsafe` or nightly
/// features.
pub const LANES: usize = 4;
