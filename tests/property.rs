//! Property-based tests (proptest) over the core data structures and invariants of the
//! reproduction.

use proptest::prelude::*;

use taxi::{SolverBackend, SolverScratch, TaxiConfig, TaxiSolver, TourSolver};
use taxi_cluster::{
    agglomerative_clusters, AgglomerativeConfig, Hierarchy, HierarchyConfig, Point,
};
use taxi_device::{DeviceParams, SwitchingCurve, WriteCurrent};
use taxi_dist::DistanceMatrix;
use taxi_ising::{CurrentSchedule, TspQuboEncoder};
use taxi_tsplib::{EdgeWeightKind, Tour, TspInstance};
use taxi_xbar::{BitPrecision, QuantizedDistances};

/// Strategy: a set of 2-D points with bounded coordinates.
fn points_strategy(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-500.0f64..500.0, -500.0f64..500.0), 4..max_len)
}

/// Strategy: a symmetric distance matrix derived from random points (always metric).
fn distance_matrix_strategy(max_len: usize) -> impl Strategy<Value = DistanceMatrix> {
    points_strategy(max_len).prop_map(|points| {
        DistanceMatrix::from_fn(points.len(), |i, j| {
            let (x1, y1) = points[i];
            let (x2, y2) = points[j];
            (x1 - x2).hypot(y1 - y2)
        })
    })
}

/// A cycle solve drawing on `scratch`: the visiting order and the reported length.
fn cycle_with(
    backend: &dyn TourSolver,
    matrix: &DistanceMatrix,
    seed: u64,
    scratch: &mut SolverScratch,
) -> (Vec<usize>, f64) {
    let mut order = Vec::new();
    let length = backend
        .solve_cycle_into(matrix, seed, scratch, &mut order)
        .unwrap();
    (order, length)
}

/// An endpoint-pinned path solve drawing on `scratch`.
fn path_with(
    backend: &dyn TourSolver,
    matrix: &DistanceMatrix,
    (start, end): (usize, usize),
    seed: u64,
    scratch: &mut SolverScratch,
) -> (Vec<usize>, f64) {
    let mut order = Vec::new();
    let length = backend
        .solve_path_into(matrix, start, end, seed, scratch, &mut order)
        .unwrap();
    (order, length)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quantised weights are monotonically non-increasing in distance (Eq. 4): a longer
    /// edge never gets a larger weight.
    #[test]
    fn quantized_weights_are_monotone_in_distance(matrix in distance_matrix_strategy(10)) {
        let q = QuantizedDistances::from_distances(&matrix, BitPrecision::FOUR).unwrap();
        let n = matrix.n();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if i != j && i != k && matrix.get(i, j) <= matrix.get(i, k) && matrix.get(i, j) > 0.0 && matrix.get(i, k) > 0.0 {
                        prop_assert!(q.weight(i, j) >= q.weight(i, k));
                    }
                }
            }
        }
    }

    /// Agglomerative clustering always partitions the input: every point appears in
    /// exactly one cluster, and the requested number of clusters is respected when
    /// feasible.
    #[test]
    fn agglomerative_clustering_partitions_points(
        raw in points_strategy(60),
        k in 1usize..6,
    ) {
        let points: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        prop_assume!(k <= points.len());
        let clusters =
            agglomerative_clusters(&points, &AgglomerativeConfig::new(k).unwrap()).unwrap();
        let mut seen = vec![false; points.len()];
        for cluster in &clusters {
            prop_assert!(!cluster.is_empty());
            for &m in cluster {
                prop_assert!(!seen[m]);
                seen[m] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(clusters.len(), k);
    }

    /// Hierarchies never produce a cluster above the maximum size and always validate.
    #[test]
    fn hierarchy_invariants_hold(raw in points_strategy(150), max_size in 4usize..16) {
        let points: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let hierarchy =
            Hierarchy::build(&points, &HierarchyConfig::new(max_size).unwrap()).unwrap();
        hierarchy.validate().unwrap();
        for level in hierarchy.levels() {
            for cluster in level.clusters() {
                prop_assert!(cluster.members().len() <= max_size);
            }
        }
    }

    /// The full solver always returns a valid permutation whose length is consistent
    /// with the tour it reports.
    #[test]
    fn taxi_solver_returns_consistent_valid_tours(raw in points_strategy(60), seed in 0u64..1000) {
        let instance =
            TspInstance::from_coordinates("prop", raw, EdgeWeightKind::Euclidean).unwrap();
        let solution = TaxiSolver::new(TaxiConfig::new().with_seed(seed).with_threads(1))
            .solve(&instance)
            .unwrap();
        prop_assert!(solution.tour.is_valid_for(&instance));
        let recomputed = solution.tour.length(&instance);
        prop_assert!((recomputed - solution.length).abs() < 1e-6);
    }

    /// The QUBO encoding ranks valid tours exactly like their geometric length.
    #[test]
    fn qubo_objective_orders_tours_by_length(matrix in distance_matrix_strategy(7)) {
        let n = matrix.n();
        let encoder = TspQuboEncoder::new(&matrix).unwrap();
        let qubo = encoder.encode().unwrap();
        let identity: Vec<usize> = (0..n).collect();
        let mut swapped = identity.clone();
        swapped.swap(0, n / 2);
        let delta_length = encoder.tour_length(&swapped) - encoder.tour_length(&identity);
        let delta_qubo = qubo.evaluate(&encoder.assignment_for_order(&swapped))
            - qubo.evaluate(&encoder.assignment_for_order(&identity));
        prop_assert!((delta_length - delta_qubo).abs() < 1e-6);
    }

    /// Every point of the write-current schedule stays inside the device's stochastic
    /// window, and the resulting stochasticity is monotonically non-increasing.
    #[test]
    fn schedule_points_stay_in_the_stochastic_window(step_na in 20.0f64..2000.0) {
        let schedule = CurrentSchedule::new(
            WriteCurrent::from_micro_amps(420.0),
            WriteCurrent::from_micro_amps(353.0),
            WriteCurrent::from_nano_amps(step_na),
        );
        let params = DeviceParams::default();
        let curve = SwitchingCurve::paper_fit();
        let mut prev = f64::INFINITY;
        for i in 0..schedule.len() {
            let current = schedule.current_at(i);
            prop_assert!(params.is_in_stochastic_window(current));
            let p = curve.probability(current);
            prop_assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    /// Tour-validity invariants shared across ALL four backends: every cycle solve
    /// returns a permutation of the cities, every path solve returns a permutation with
    /// the requested endpoints pinned to the first/last positions, and the reported
    /// lengths are finite and non-negative.
    #[test]
    fn all_backends_uphold_tour_validity_invariants(
        matrix in distance_matrix_strategy(10),
        seed in 0u64..100,
    ) {
        let n = matrix.n();
        let (start, end) = (0, n - 1);
        for kind in SolverBackend::ALL {
            let backend = TaxiConfig::new().with_backend(kind).build_backend();
            let mut scratch = SolverScratch::new();

            // Closed cycle: a permutation of 0..n with a finite length.
            let (order, length) = cycle_with(backend.as_ref(), &matrix, seed, &mut scratch);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &(0..n).collect::<Vec<_>>(), "{} cycle", kind);
            prop_assert!(length.is_finite() && length >= 0.0);

            // Open path: permutation with pinned endpoints.
            let (order, length) =
                path_with(backend.as_ref(), &matrix, (start, end), seed, &mut scratch);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &(0..n).collect::<Vec<_>>(), "{} path", kind);
            prop_assert_eq!(order[0], start, "{} start pin", kind);
            prop_assert_eq!(*order.last().unwrap(), end, "{} end pin", kind);
            prop_assert!(length.is_finite() && length >= 0.0);
        }
    }

    /// One `SolverScratch` reused across every backend and several sub-problem sizes
    /// gives exactly the order and length a fresh scratch gives: a warm scratch is
    /// behaviourally transparent, which the per-worker scratch of the pipeline relies on.
    #[test]
    fn warm_scratch_matches_fresh_scratch_across_backends_and_sizes(
        matrices in prop::collection::vec(distance_matrix_strategy(9), 1..4),
        seed in 0u64..50,
    ) {
        let mut warm = SolverScratch::new();
        for matrix in &matrices {
            let ends = (1, matrix.n() - 1);
            for kind in SolverBackend::ALL {
                let backend = TaxiConfig::new().with_backend(kind).build_backend();
                let backend = backend.as_ref();
                let fresh = cycle_with(backend, matrix, seed, &mut SolverScratch::new());
                let reused = cycle_with(backend, matrix, seed, &mut warm);
                prop_assert_eq!(&reused.0, &fresh.0, "{} cycle order", kind);
                prop_assert_eq!(reused.1, fresh.1, "{} cycle length", kind);

                let fresh = path_with(backend, matrix, ends, seed, &mut SolverScratch::new());
                let reused = path_with(backend, matrix, ends, seed, &mut warm);
                prop_assert_eq!(&reused.0, &fresh.0, "{} path order", kind);
                prop_assert_eq!(reused.1, fresh.1, "{} path length", kind);
            }
        }
    }

    /// Neighbor-pruned local search (`neighbor_limit > 0`) upholds the same validity
    /// invariants on every backend: cycle solves stay permutations, path solves keep
    /// their pinned endpoints, and a scratch reused across backends gives what a fresh
    /// scratch gives under pruning.
    #[test]
    fn pruned_backends_uphold_tour_validity_invariants(
        matrix in distance_matrix_strategy(13),
        seed in 0u64..50,
        limit in 1usize..10,
    ) {
        let n = matrix.n();
        let mut warm = SolverScratch::new();
        for kind in SolverBackend::ALL {
            let backend = TaxiConfig::new()
                .with_neighbor_limit(limit)
                .with_backend(kind)
                .build_backend();
            let backend = backend.as_ref();

            let (order, length) = cycle_with(backend, &matrix, seed, &mut SolverScratch::new());
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &(0..n).collect::<Vec<_>>(), "{} pruned cycle", kind);
            prop_assert!(length.is_finite() && length >= 0.0);
            let reused = cycle_with(backend, &matrix, seed, &mut warm);
            prop_assert_eq!(&reused.0, &order, "{} pruned cycle order", kind);
            prop_assert_eq!(reused.1, length, "{} pruned cycle length", kind);

            let ends = (0, n - 1);
            let (order, length) =
                path_with(backend, &matrix, ends, seed, &mut SolverScratch::new());
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &(0..n).collect::<Vec<_>>(), "{} pruned path", kind);
            prop_assert_eq!(order[0], 0, "{} pruned start pin", kind);
            prop_assert_eq!(*order.last().unwrap(), n - 1, "{} pruned end pin", kind);
            let reused = path_with(backend, &matrix, ends, seed, &mut warm);
            prop_assert_eq!(&reused.0, &order, "{} pruned path order", kind);
            prop_assert_eq!(reused.1, length, "{} pruned path length", kind);
        }
    }

    /// Tours constructed from arbitrary permutations are accepted, and rotating a tour
    /// never changes its length.
    #[test]
    fn tour_rotation_preserves_length(raw in points_strategy(30), rotate_to in 0usize..30) {
        let n = raw.len();
        let instance =
            TspInstance::from_coordinates("tour", raw, EdgeWeightKind::Euclidean).unwrap();
        let tour = Tour::identity(n);
        let target = rotate_to % n;
        let rotated = tour.rotated_to_start_at(target).unwrap();
        prop_assert!((tour.length(&instance) - rotated.length(&instance)).abs() < 1e-9);
        prop_assert_eq!(rotated.order()[0], target);
    }
}
