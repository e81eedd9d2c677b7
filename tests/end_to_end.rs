//! Cross-crate integration tests: the full TAXI pipeline from TSPLIB workloads down to
//! the architecture model.

use taxi::{ExperimentScale, TaxiConfig, TaxiSolver};
use taxi_suite::core::experiments::{reference_length, suite_instances};
use taxi_tsplib::generator::{clustered_instance, grid_drilling_instance, random_uniform_instance};

fn assert_valid_tour(solution: &taxi::TaxiSolution, dimension: usize) {
    assert_eq!(solution.tour.len(), dimension);
    let mut seen = vec![false; dimension];
    for &c in solution.tour.order() {
        assert!(c < dimension, "city index out of range");
        assert!(!seen[c], "city {c} visited twice");
        seen[c] = true;
    }
    assert!(seen.iter().all(|&s| s), "some city was never visited");
}

#[test]
fn solves_the_smallest_benchmark_instances_with_good_quality() {
    let instances = suite_instances(ExperimentScale::tiny().with_max_dimension(101)).unwrap();
    assert!(!instances.is_empty());
    for (spec, instance) in &instances {
        let reference = reference_length(spec, instance);
        let solution = TaxiSolver::new(TaxiConfig::new().with_seed(3))
            .solve(instance)
            .unwrap();
        assert_valid_tour(&solution, instance.dimension());
        let ratio = solution.length / reference;
        assert!(
            ratio < 1.5,
            "{}: ratio {ratio:.3} should stay below 1.5x the heuristic reference",
            spec.name
        );
        assert!(
            ratio > 0.5,
            "{}: suspiciously short tour (ratio {ratio:.3})",
            spec.name
        );
    }
}

#[test]
fn every_generator_family_round_trips_through_the_solver() {
    let instances = vec![
        random_uniform_instance("uniform", 120, 1),
        clustered_instance("clustered", 130, 7, 2),
        grid_drilling_instance("grid", 140, 3),
    ];
    for instance in &instances {
        let solution = TaxiSolver::new(TaxiConfig::new().with_seed(11))
            .solve(instance)
            .unwrap();
        assert_valid_tour(&solution, instance.dimension());
        assert!(solution.levels >= 1);
        assert!(solution.energy.total_joules() > 0.0);
        assert!(solution.arch_report.subproblems > 0);
    }
}

#[test]
fn cluster_size_sweep_trades_parallelism_for_subproblem_count() {
    let instance = clustered_instance("sweep", 240, 10, 5);
    let mut subproblem_counts = Vec::new();
    for cluster_size in [8usize, 12, 16, 20] {
        let config = TaxiConfig::new()
            .with_max_cluster_size(cluster_size)
            .unwrap()
            .with_seed(9);
        let solution = TaxiSolver::new(config).solve(&instance).unwrap();
        assert_valid_tour(&solution, instance.dimension());
        subproblem_counts.push(solution.subproblems);
    }
    // More capacity per macro → fewer sub-problems.
    assert!(subproblem_counts.windows(2).all(|w| w[1] <= w[0]));
}

#[test]
fn bit_precision_changes_energy_but_preserves_validity() {
    let instance = clustered_instance("bits", 150, 6, 8);
    let mut energies = Vec::new();
    for bits in [2u8, 3, 4] {
        let config = TaxiConfig::new()
            .with_bit_precision(bits)
            .unwrap()
            .with_seed(21);
        let solution = TaxiSolver::new(config).solve(&instance).unwrap();
        assert_valid_tour(&solution, instance.dimension());
        energies.push(solution.energy.ising_joules);
    }
    // Higher precision costs more compute energy (Table I trend).
    assert!(energies[0] < energies[2]);
}

#[test]
fn kmeans_ablation_also_produces_valid_tours() {
    use taxi_cluster::hierarchy::ClusteringMethod;
    let instance = clustered_instance("ablate", 160, 8, 4);
    let ward = TaxiSolver::new(TaxiConfig::new().with_seed(6))
        .solve(&instance)
        .unwrap();
    let kmeans = TaxiSolver::new(
        TaxiConfig::new()
            .with_clustering_method(ClusteringMethod::KMeans)
            .with_seed(6),
    )
    .solve(&instance)
    .unwrap();
    assert_valid_tour(&ward, instance.dimension());
    assert_valid_tour(&kmeans, instance.dimension());
}

#[test]
fn ideal_devices_do_not_break_the_pipeline() {
    let instance = clustered_instance("ideal", 100, 5, 10);
    let realistic = TaxiSolver::new(TaxiConfig::new().with_seed(2))
        .solve(&instance)
        .unwrap();
    let ideal = TaxiSolver::new(TaxiConfig::new().with_ideal_devices(true).with_seed(2))
        .solve(&instance)
        .unwrap();
    assert_valid_tour(&realistic, instance.dimension());
    assert_valid_tour(&ideal, instance.dimension());
}

#[test]
fn hvc_baseline_and_taxi_solve_the_same_instances() {
    use taxi_baselines::{HvcBaseline, HvcConfig};
    let instance = clustered_instance("compare", 180, 9, 12);
    let taxi = TaxiSolver::new(TaxiConfig::new().with_seed(1))
        .solve(&instance)
        .unwrap();
    let hvc = HvcBaseline::new(HvcConfig::new(12))
        .solve(&instance)
        .unwrap();
    assert_valid_tour(&taxi, instance.dimension());
    assert!(hvc.tour.is_valid_for(&instance));
    // Both must produce finite, positive tour lengths; TAXI's fixing should usually win,
    // but the hard requirement here is only structural soundness of both pipelines.
    assert!(taxi.length > 0.0 && hvc.length > 0.0);
}

#[test]
fn hardware_latency_uses_the_paper_schedule_even_with_fast_software_schedule() {
    use taxi_ising::CurrentSchedule;
    let instance = clustered_instance("sched", 90, 5, 3);
    let config = TaxiConfig::new()
        .with_software_schedule(CurrentSchedule::fast())
        .with_seed(4);
    let solution = TaxiSolver::new(config).solve(&instance).unwrap();
    // Hardware accounting assumes the full 1340-iteration schedule per non-trivial
    // sub-problem: 1340 × 9 ns each, serialised only across waves.
    let per_subproblem = CurrentSchedule::paper().len() as f64 * 9e-9;
    assert!(solution.latency.ising_seconds >= per_subproblem);
}
