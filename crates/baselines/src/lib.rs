//! Baseline TSP solvers and published comparison data for the TAXI reproduction.
//!
//! The paper compares TAXI against several reference points; this crate implements or
//! models all of them:
//!
//! * [`exact`] — a Held–Karp exact solver for small instances (the "optimal" reference on
//!   sub-problems and tiny TSPs) and a latency/energy projection model of the Concorde
//!   exact solver on a single-core CPU (the paper's Fig. 6b comparison line).
//! * [`heuristics`] — nearest-neighbour, greedy-edge, 2-opt and Or-opt local search. The
//!   combination (NN + 2-opt + Or-opt) is the *reference tour* used as the optimal-ratio
//!   denominator when the original TSPLIB optimum does not apply (synthetic instances).
//! * [`hvc`] — an HVC-style clustered baseline (k-means, no endpoint fixing, software
//!   annealing) used for the clustering/fixing ablations.
//! * [`neuro_ising`] — a latency/quality surrogate of the Neuro-Ising solver, the
//!   state-of-the-art clustering-based Ising solver the paper claims an 8× average
//!   speed-up over.
//! * [`reported`] — numbers quoted directly from the paper (Fig. 5c series, Table II
//!   energies, headline claims) so every figure can draw the published reference lines.
//!
//! # Example
//!
//! ```
//! use taxi_baselines::exact::held_karp;
//! use taxi_baselines::heuristics::{nearest_neighbor_tour, two_opt};
//! use taxi_tsplib::generator::random_uniform_instance;
//!
//! let instance = random_uniform_instance("small", 9, 3);
//! let matrix = instance.full_distance_matrix();
//! let exact = held_karp(&matrix).unwrap();
//! let mut heuristic = nearest_neighbor_tour(&matrix, 0);
//! two_opt(&matrix, &mut heuristic, 1_000);
//! let heuristic_len: f64 = (0..9)
//!     .map(|i| matrix.get(heuristic[i], heuristic[(i + 1) % 9]))
//!     .sum();
//! assert!(exact.length <= heuristic_len + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod exact;
pub mod heuristics;
pub mod hvc;
pub mod neuro_ising;
pub mod reported;

pub use error::BaselineError;
pub use exact::{
    held_karp, held_karp_into, held_karp_path, held_karp_path_into, ExactSolution,
    ExactSolverProjection, HeldKarpScratch,
};
pub use heuristics::{
    greedy_edge_tour_into, nearest_neighbor_path_into, nearest_neighbor_tour,
    nearest_neighbor_tour_into, or_opt_path_with, or_opt_with, path_length, reference_path_into,
    reference_path_into_limited, reference_tour, reference_tour_into, reference_tour_into_limited,
    tour_length, two_opt, two_opt_limited, two_opt_neighbors, two_opt_path, two_opt_path_neighbors,
    HeuristicScratch,
};
pub use hvc::{HvcBaseline, HvcConfig};
pub use neuro_ising::NeuroIsingModel;
