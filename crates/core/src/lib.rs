//! # TAXI — Travelling Salesman Problem Accelerator with Crossbar Ising Macros
//!
//! A from-scratch Rust reproduction of *"TAXI: Traveling Salesman Problem Accelerator
//! with X-bar-based Ising Macros Powered by SOT-MRAMs and Hierarchical Clustering"*
//! (DAC 2025). This crate is the top of the stack: it combines
//!
//! * [`taxi_cluster`] — agglomerative (Ward) hierarchical clustering, hierarchy
//!   construction, and inter-cluster endpoint fixing,
//! * [`taxi_ising`] + [`taxi_xbar`] + `taxi_device` — the SOT-MRAM crossbar Ising
//!   macro and the annealing algorithm that solves each sub-problem in place,
//! * [`taxi_arch`] — the PUMA-style spatial architecture model used for latency and
//!   energy accounting, and
//! * [`taxi_baselines`] / [`taxi_tsplib`] — the workloads and the comparison solvers,
//!
//! into an end-to-end solver ([`TaxiSolver`]) plus experiment runners
//! ([`experiments`]) that regenerate every table and figure of the paper's evaluation.
//!
//! # Architecture
//!
//! Solving is structured as a staged [`pipeline`] (Cluster → FixEndpoints → SolveLevels
//! → Assemble → Account) whose sub-problem solver is a pluggable [`TourSolver`]
//! [`backend`]: the paper's Ising macro by default, software heuristics or an exact
//! dynamic program via [`TaxiConfig::with_backend`]. Every solver owns a reusable
//! [`SolveContext`] scratch arena ([`context`]), making the steady-state per-level
//! solve loop allocation-free; [`TaxiSolver::solve_batch`] shards whole instances
//! across workers, one context each.
//!
//! # Quickstart
//!
//! ```
//! use taxi::{TaxiConfig, TaxiSolver};
//! use taxi_tsplib::generator::clustered_instance;
//!
//! // A 150-city synthetic instance with clear cluster structure.
//! let instance = clustered_instance("quickstart", 150, 8, 42);
//!
//! // Solve it with the paper's default configuration (cluster size 12, 4-bit weights).
//! let solver = TaxiSolver::new(TaxiConfig::new().with_seed(42));
//! let solution = solver.solve(&instance)?;
//!
//! assert!(solution.tour.is_valid_for(&instance));
//! println!(
//!     "tour length {:.1}, {} sub-problems, hardware latency {:.3} ms",
//!     solution.length,
//!     solution.subproblems,
//!     solution.latency.ising_seconds * 1e3,
//! );
//! # Ok::<(), taxi::TaxiError>(())
//! ```
//!
//! # Backend selection
//!
//! ```
//! use taxi::{SolverBackend, TaxiConfig, TaxiSolver};
//! use taxi_tsplib::generator::clustered_instance;
//!
//! let instance = clustered_instance("backends", 90, 5, 7);
//! for backend in SolverBackend::ALL {
//!     let config = TaxiConfig::new().with_seed(7).with_backend(backend);
//!     let solution = TaxiSolver::new(config).solve(&instance)?;
//!     println!("{backend}: tour length {:.1}", solution.length);
//! }
//! # Ok::<(), taxi::TaxiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod context;
pub mod error;
pub mod experiments;
pub mod pipeline;
pub mod report;
pub mod result;
pub mod router;
pub mod solver;

pub use backend::{SolverBackend, SolverScratch, TourSolver};
pub use cache::{CacheHit, CacheLookup, SolutionCache, SolutionCacheStats};
pub use config::{BackendChoice, TaxiConfig};
pub use context::SolveContext;
pub use error::TaxiError;
pub use experiments::ExperimentScale;
pub use pipeline::{NullObserver, PipelineObserver, SharedObserver, Stage, StageReport};
pub use result::{EnergyBreakdown, LatencyBreakdown, TaxiSolution};
pub use router::{
    AdaptiveRouter, BackendProfiler, BackendStats, DecisionKind, InstanceFeatures, RouterConfig,
    RoutingDecision, SizeBucket,
};
pub use solver::{CachedSolve, RoutedSolve, SolveProvenance, TaxiSolver};
