//! Ising-model formulation and annealing algorithms for the TAXI reproduction.
//!
//! The crate has three layers:
//!
//! * [`model`] / [`qubo`] — the textbook Ising Hamiltonian (Eqs. 1–3 of the paper) and
//!   the QUBO encoding of a TSP: the explicit form of the objective the macro's
//!   MAC-based update descends implicitly.
//! * [`schedule`] — the annealing schedule. The paper's schedule ramps the SOT write current
//!   linearly from 420 µA down to 353 µA in 50 nA steps, which — through the device's
//!   sigmoidal `P_sw(I)` — yields the non-linear stochasticity decay the paper argues for.
//! * [`macro_solver`] — [`MacroTspSolver`], the algorithm of Section III driving a
//!   [`taxi_xbar::IsingMacro`] over a full annealing schedule, with optional fixed
//!   endpoints so the hierarchical layer can solve path sub-problems whose first and last
//!   cities are pinned (Section IV-2).
//!
//! # Example
//!
//! ```
//! use taxi_dist::DistanceMatrix;
//! use taxi_ising::{CurrentSchedule, MacroSolverConfig, MacroTspSolver};
//!
//! let distances = DistanceMatrix::from_fn(5, |i, j| (i as f64 - j as f64).abs());
//! let config = MacroSolverConfig::default().with_schedule(CurrentSchedule::fast());
//! let solver = MacroTspSolver::new(config);
//! let solution = solver.solve_cycle(&distances, 99)?;
//! assert_eq!(solution.order.len(), 5);
//! # Ok::<(), taxi_ising::IsingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod macro_solver;
pub mod model;
pub mod qubo;
pub mod schedule;
pub mod trace;

pub use error::IsingError;
pub use macro_solver::{
    MacroScratch, MacroSolverConfig, MacroTspSolver, SubTourSolution, SubTourStats,
};
pub use model::{IsingModel, Spin};
pub use qubo::{Qubo, TspQuboEncoder};
pub use schedule::CurrentSchedule;
pub use trace::{AnnealingTrace, TracePoint};
