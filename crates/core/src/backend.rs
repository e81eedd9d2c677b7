//! Pluggable sub-problem solving backends.
//!
//! The TAXI paper's core contribution is swapping the sub-problem solver — SOT-MRAM
//! crossbar Ising macros — *underneath an unchanged hierarchical-clustering pipeline*.
//! This module makes that swap a first-class operation: [`TourSolver`] abstracts "solve
//! one small TSP over a distance matrix" (closed cycle or fixed-endpoint open path), and
//! the end-to-end pipeline drives every sub-problem — the topmost centroid tour and every
//! per-cluster path — through a `dyn TourSolver`.
//!
//! Four backends ship with the crate, selected via
//! [`TaxiConfig::with_backend`](crate::TaxiConfig::with_backend):
//!
//! | [`SolverBackend`] | Implementation | Character |
//! |---|---|---|
//! | [`IsingMacro`](SolverBackend::IsingMacro) | [`taxi_ising::MacroTspSolver`] | The paper's hardware model (default) |
//! | [`NnTwoOpt`](SolverBackend::NnTwoOpt) | NN construction + 2-opt/Or-opt | Fast software heuristic |
//! | [`GreedyEdge`](SolverBackend::GreedyEdge) | Greedy-edge construction + 2-opt | Alternative heuristic |
//! | [`Exact`](SolverBackend::Exact) | Held–Karp dynamic program | Optimal for ≤ 20-city sub-problems |
//!
//! Custom backends only need `impl TourSolver` plus
//! [`TaxiSolver::solve_with_backend`](crate::TaxiSolver::solve_with_backend).

use std::sync::Arc;

use taxi_baselines::exact::HELD_KARP_LIMIT;
use taxi_baselines::{
    greedy_edge_tour_into, held_karp_into, held_karp_path_into, path_length,
    reference_path_into_limited, reference_tour_into_limited, tour_length, two_opt_limited,
    HeldKarpScratch, HeuristicScratch,
};
use taxi_dist::DistanceMatrix;
use taxi_ising::{MacroScratch, MacroSolverConfig, MacroTspSolver};

use crate::TaxiError;

/// Reusable per-worker scratch consumed by every sub-problem solve
/// ([`TourSolver::solve_cycle_into`] / [`TourSolver::solve_path_into`]).
///
/// One scratch bundles the work areas of every built-in backend — the warm
/// [`MacroScratch`] pool of Ising macros, the [`HeuristicScratch`] of the software
/// heuristics, and the Held–Karp [`HeldKarpScratch`] DP tables — so a worker can switch
/// backends without reallocating, and custom backends can piggyback on the same buffers
/// through the accessors.
#[derive(Debug, Default)]
pub struct SolverScratch {
    macro_scratch: MacroScratch,
    heuristics: HeuristicScratch,
    exact: HeldKarpScratch,
}

impl SolverScratch {
    /// Creates an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The Ising-macro scratch (warm per-size macro pool).
    pub fn macro_scratch(&mut self) -> &mut MacroScratch {
        &mut self.macro_scratch
    }

    /// The software-heuristic scratch (visited/relocation/greedy-edge buffers).
    pub fn heuristics(&mut self) -> &mut HeuristicScratch {
        &mut self.heuristics
    }

    /// The Held–Karp scratch (DP tables).
    pub fn exact(&mut self) -> &mut HeldKarpScratch {
        &mut self.exact
    }
}

/// A sub-problem TSP solver: the unit the hierarchical pipeline composes.
///
/// A solve writes the visiting order (local city indices) into `out`, cleared first, and
/// returns its length, drawing work areas from a per-worker [`SolverScratch`].
/// Implementations must be deterministic in `(distances, seed)` — the pipeline relies on
/// that for reproducible end-to-end solves and for `solve` / `solve_batch` equivalence —
/// and a warm scratch must give what a fresh one gives. They must also be `Send + Sync`:
/// the pipeline invokes one shared instance from many worker threads at once.
pub trait TourSolver: Send + Sync {
    /// Short stable identifier used in reports and benchmarks (e.g. `"ising-macro"`).
    fn name(&self) -> &str;

    /// Solves a closed (cyclic) TSP over `distances` and returns the cycle length.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty matrix or any backend-specific failure.
    fn solve_cycle_into(
        &self,
        distances: &DistanceMatrix,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError>;

    /// Solves an open-path TSP whose first city is `start` and last city is `end`, and
    /// returns the path length.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed matrix, out-of-range endpoints, or
    /// `start == end` on a multi-city instance.
    fn solve_path_into(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError>;
}

/// The built-in backend selection, carried by [`TaxiConfig`](crate::TaxiConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverBackend {
    /// The paper's SOT-MRAM crossbar Ising macro model (the default).
    #[default]
    IsingMacro,
    /// Nearest-neighbour construction refined by 2-opt and Or-opt local search.
    NnTwoOpt,
    /// Greedy-edge construction refined by 2-opt local search.
    GreedyEdge,
    /// Held–Karp exact dynamic programming (falls back to the heuristic above
    /// [`HELD_KARP_LIMIT`] cities, which the default cluster sizes never exceed).
    Exact,
}

impl SolverBackend {
    /// Every built-in backend, for sweeps and comparison matrices.
    pub const ALL: [SolverBackend; 4] = [
        SolverBackend::IsingMacro,
        SolverBackend::NnTwoOpt,
        SolverBackend::GreedyEdge,
        SolverBackend::Exact,
    ];

    /// The backend's position in [`SolverBackend::ALL`], usable for flat
    /// per-backend tables (profiler cells, routed-count metrics).
    pub fn index(self) -> usize {
        match self {
            SolverBackend::IsingMacro => 0,
            SolverBackend::NnTwoOpt => 1,
            SolverBackend::GreedyEdge => 2,
            SolverBackend::Exact => 3,
        }
    }

    /// The stable identifier of the backend ([`TourSolver::name`] of its instances).
    pub fn label(self) -> &'static str {
        match self {
            SolverBackend::IsingMacro => "ising-macro",
            SolverBackend::NnTwoOpt => "nn-2opt",
            SolverBackend::GreedyEdge => "greedy-edge",
            SolverBackend::Exact => "exact-dp",
        }
    }

    /// Instantiates the backend. The Ising macro backend is built from
    /// `macro_config`; the heuristic software backends honour `neighbor_limit`
    /// (k-nearest candidate pruning of their local search, 0 = exhaustive).
    pub(crate) fn build(
        self,
        macro_config: MacroSolverConfig,
        neighbor_limit: usize,
    ) -> Arc<dyn TourSolver> {
        match self {
            SolverBackend::IsingMacro => Arc::new(IsingMacroBackend::new(macro_config)),
            SolverBackend::NnTwoOpt => Arc::new(NnTwoOptBackend::new(neighbor_limit)),
            SolverBackend::GreedyEdge => Arc::new(GreedyEdgeBackend::new(neighbor_limit)),
            SolverBackend::Exact => Arc::new(ExactBackend),
        }
    }
}

impl std::fmt::Display for SolverBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared validation for the software backends (the Ising backend validates internally).
fn validate_matrix(backend: &'static str, distances: &DistanceMatrix) -> Result<usize, TaxiError> {
    let n = distances.n();
    if n == 0 {
        return Err(TaxiError::Backend {
            backend: backend.to_string(),
            reason: "distance matrix must be non-empty".to_string(),
        });
    }
    Ok(n)
}

fn validate_endpoints(
    backend: &'static str,
    n: usize,
    start: usize,
    end: usize,
) -> Result<(), TaxiError> {
    if start >= n || end >= n {
        return Err(TaxiError::Backend {
            backend: backend.to_string(),
            reason: format!("endpoints ({start}, {end}) out of range for {n} cities"),
        });
    }
    if n > 1 && start == end {
        return Err(TaxiError::Backend {
            backend: backend.to_string(),
            reason: "start and end city must differ for sub-problems with more than one city"
                .to_string(),
        });
    }
    Ok(())
}

/// The paper's backend: a [`MacroTspSolver`] annealing on the crossbar Ising macro.
#[derive(Debug, Clone, PartialEq)]
pub struct IsingMacroBackend {
    solver: MacroTspSolver,
}

impl IsingMacroBackend {
    /// Creates the backend from a macro solver configuration.
    pub fn new(config: MacroSolverConfig) -> Self {
        Self {
            solver: MacroTspSolver::new(config),
        }
    }

    /// The underlying macro solver.
    pub fn solver(&self) -> &MacroTspSolver {
        &self.solver
    }
}

impl TourSolver for IsingMacroBackend {
    fn name(&self) -> &str {
        "ising-macro"
    }

    fn solve_cycle_into(
        &self,
        distances: &DistanceMatrix,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        let stats =
            self.solver
                .solve_cycle_with(distances, seed, &mut scratch.macro_scratch, out)?;
        Ok(stats.length)
    }

    fn solve_path_into(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        let stats = self.solver.solve_path_with(
            distances,
            start,
            end,
            seed,
            &mut scratch.macro_scratch,
            out,
        )?;
        Ok(stats.length)
    }
}

/// Nearest-neighbour + 2-opt/Or-opt software heuristic.
///
/// Deterministic and seed-independent; path solves pin the fixed endpoints throughout
/// the local search. A non-zero `neighbor_limit` restricts the local search to each
/// city's k nearest neighbours (O(n·k) passes instead of O(n²)); 0 keeps the exhaustive
/// legacy scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NnTwoOptBackend {
    neighbor_limit: usize,
}

impl NnTwoOptBackend {
    /// Creates the backend with the given neighbour-candidate limit (0 = exhaustive).
    pub fn new(neighbor_limit: usize) -> Self {
        Self { neighbor_limit }
    }

    /// The neighbour-candidate limit of the pruned local search (0 = exhaustive).
    pub fn neighbor_limit(&self) -> usize {
        self.neighbor_limit
    }
}

impl TourSolver for NnTwoOptBackend {
    fn name(&self) -> &str {
        "nn-2opt"
    }

    fn solve_cycle_into(
        &self,
        distances: &DistanceMatrix,
        _seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        validate_matrix("nn-2opt", distances)?;
        reference_tour_into_limited(distances, &mut scratch.heuristics, out, self.neighbor_limit);
        Ok(tour_length(distances, out))
    }

    fn solve_path_into(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        _seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        let n = validate_matrix("nn-2opt", distances)?;
        validate_endpoints("nn-2opt", n, start, end)?;
        reference_path_into_limited(
            distances,
            start,
            end,
            &mut scratch.heuristics,
            out,
            self.neighbor_limit,
        );
        Ok(path_length(distances, out))
    }
}

/// Greedy-edge construction + 2-opt software heuristic.
///
/// Cycle solves differ from [`NnTwoOptBackend`] through the construction; path solves
/// share the endpoint-pinned nearest-neighbour path search (greedy-edge has no natural
/// fixed-endpoint variant). A non-zero `neighbor_limit` prunes the local search to
/// k-nearest candidates, as for [`NnTwoOptBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyEdgeBackend {
    neighbor_limit: usize,
}

impl GreedyEdgeBackend {
    /// Creates the backend with the given neighbour-candidate limit (0 = exhaustive).
    pub fn new(neighbor_limit: usize) -> Self {
        Self { neighbor_limit }
    }

    /// The neighbour-candidate limit of the pruned local search (0 = exhaustive).
    pub fn neighbor_limit(&self) -> usize {
        self.neighbor_limit
    }
}

impl TourSolver for GreedyEdgeBackend {
    fn name(&self) -> &str {
        "greedy-edge"
    }

    fn solve_cycle_into(
        &self,
        distances: &DistanceMatrix,
        _seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        validate_matrix("greedy-edge", distances)?;
        greedy_edge_tour_into(distances, &mut scratch.heuristics, out);
        two_opt_limited(
            distances,
            out,
            4,
            &mut scratch.heuristics,
            self.neighbor_limit,
        );
        Ok(tour_length(distances, out))
    }

    fn solve_path_into(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        _seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        let n = validate_matrix("greedy-edge", distances)?;
        validate_endpoints("greedy-edge", n, start, end)?;
        reference_path_into_limited(
            distances,
            start,
            end,
            &mut scratch.heuristics,
            out,
            self.neighbor_limit,
        );
        Ok(path_length(distances, out))
    }
}

/// Held–Karp exact backend: optimal tours for sub-problems up to [`HELD_KARP_LIMIT`]
/// cities (every sub-problem under the default cluster sizes), heuristic fallback above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactBackend;

impl TourSolver for ExactBackend {
    fn name(&self) -> &str {
        "exact-dp"
    }

    fn solve_cycle_into(
        &self,
        distances: &DistanceMatrix,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        let n = validate_matrix("exact-dp", distances)?;
        if n > HELD_KARP_LIMIT {
            return NnTwoOptBackend::default().solve_cycle_into(distances, seed, scratch, out);
        }
        held_karp_into(distances, &mut scratch.exact, out).map_err(|err| TaxiError::Backend {
            backend: "exact-dp".to_string(),
            reason: err.to_string(),
        })
    }

    fn solve_path_into(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        let n = validate_matrix("exact-dp", distances)?;
        validate_endpoints("exact-dp", n, start, end)?;
        if n > HELD_KARP_LIMIT {
            return NnTwoOptBackend::default()
                .solve_path_into(distances, start, end, seed, scratch, out);
        }
        held_karp_path_into(distances, start, end, &mut scratch.exact, out).map_err(|err| {
            TaxiError::Backend {
                backend: "exact-dp".to_string(),
                reason: err.to_string(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circle(n: usize) -> (DistanceMatrix, f64) {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                (a.cos(), a.sin())
            })
            .collect();
        let d = DistanceMatrix::from_fn(n, |i, j| {
            let (x1, y1) = pts[i];
            let (x2, y2) = pts[j];
            ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
        });
        let optimal = (0..n).map(|i| d.get(i, (i + 1) % n)).sum();
        (d, optimal)
    }

    fn software_backends() -> Vec<Box<dyn TourSolver>> {
        vec![
            Box::new(NnTwoOptBackend::default()),
            Box::new(GreedyEdgeBackend::default()),
            Box::new(ExactBackend),
        ]
    }

    fn cycle(
        backend: &dyn TourSolver,
        d: &DistanceMatrix,
        seed: u64,
    ) -> Result<(Vec<usize>, f64), TaxiError> {
        let mut order = Vec::new();
        let length = backend.solve_cycle_into(d, seed, &mut SolverScratch::new(), &mut order)?;
        Ok((order, length))
    }

    fn path(
        backend: &dyn TourSolver,
        d: &DistanceMatrix,
        start: usize,
        end: usize,
    ) -> Result<(Vec<usize>, f64), TaxiError> {
        let mut order = Vec::new();
        let length =
            backend.solve_path_into(d, start, end, 0, &mut SolverScratch::new(), &mut order)?;
        Ok((order, length))
    }

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&c| {
                if c >= n || seen[c] {
                    false
                } else {
                    seen[c] = true;
                    true
                }
            })
    }

    #[test]
    fn software_backends_return_valid_cycles_and_paths() {
        let (d, _) = circle(9);
        for backend in software_backends() {
            let (order, length) = cycle(backend.as_ref(), &d, 1).unwrap();
            assert!(is_permutation(&order, 9), "{}", backend.name());
            assert!((length - tour_length(&d, &order)).abs() < 1e-9);
            let (order, _) = path(backend.as_ref(), &d, 2, 6).unwrap();
            assert!(is_permutation(&order, 9), "{}", backend.name());
            assert_eq!(order[0], 2);
            assert_eq!(*order.last().unwrap(), 6);
        }
    }

    #[test]
    fn exact_backend_is_optimal_on_a_circle() {
        let (d, optimal) = circle(10);
        let (_, length) = cycle(&ExactBackend, &d, 0).unwrap();
        assert!((length - optimal).abs() < 1e-9);
    }

    #[test]
    fn heuristic_backends_never_beat_exact() {
        let (d, _) = circle(11);
        let (_, exact) = cycle(&ExactBackend, &d, 0).unwrap();
        for backend in software_backends() {
            let (_, length) = cycle(backend.as_ref(), &d, 0).unwrap();
            assert!(
                length >= exact - 1e-9,
                "{} undercut the optimum",
                backend.name()
            );
        }
    }

    #[test]
    fn exact_backend_falls_back_above_the_dp_limit() {
        let (d, _) = circle(HELD_KARP_LIMIT + 4);
        let (order, _) = cycle(&ExactBackend, &d, 0).unwrap();
        assert!(is_permutation(&order, HELD_KARP_LIMIT + 4));
    }

    #[test]
    fn malformed_inputs_are_rejected_with_the_backend_name() {
        for backend in software_backends() {
            let err = cycle(backend.as_ref(), &DistanceMatrix::default(), 0).unwrap_err();
            assert!(
                matches!(err, TaxiError::Backend { .. }),
                "{}",
                backend.name()
            );
            let (d, _) = circle(5);
            assert!(path(backend.as_ref(), &d, 0, 9).is_err());
            assert!(path(backend.as_ref(), &d, 3, 3).is_err());
        }
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(SolverBackend::default(), SolverBackend::IsingMacro);
        let labels: Vec<&str> = SolverBackend::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            ["ising-macro", "nn-2opt", "greedy-edge", "exact-dp"]
        );
        assert_eq!(SolverBackend::Exact.to_string(), "exact-dp");
        for backend in SolverBackend::ALL {
            assert_eq!(SolverBackend::ALL[backend.index()], backend);
        }
    }
}
