//! Integration tests across the hardware stack: device → crossbar → Ising macro →
//! architecture simulator.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use taxi_arch::{ArchConfig, Compiler, LevelPlan, SolvePlan, SubProblem};
use taxi_device::{DeviceParams, SwitchingCurve, WriteCurrent};
use taxi_dist::DistanceMatrix;
use taxi_ising::{CurrentSchedule, MacroSolverConfig, MacroTspSolver};
use taxi_xbar::{BitPrecision, IsingMacro, MacroCircuitModel, MacroConfig};

/// The annealing schedule and the device switching curve must compose into the paper's
/// stochasticity trajectory: 20 % at the start, 1 % at the end, decaying faster early.
#[test]
fn schedule_and_device_compose_into_the_paper_annealing_trajectory() {
    let schedule = CurrentSchedule::paper();
    let curve = SwitchingCurve::paper_fit();
    let p_start = schedule.stochasticity_at(0, &curve);
    let p_quarter = schedule.stochasticity_at(schedule.len() / 4, &curve);
    let p_end = schedule.stochasticity_at(schedule.len() - 1, &curve);
    assert!((p_start - 0.20).abs() < 0.01);
    assert!(p_end < 0.015);
    // Non-linear decay: the first quarter loses more probability than the last three
    // quarters combined.
    assert!(p_start - p_quarter > p_quarter - p_end);
}

/// A macro's stochastic mask statistics must track the device curve at any point of the
/// schedule.
#[test]
fn macro_mask_statistics_follow_the_device_curve() {
    let distances = DistanceMatrix::from_fn(12, |i, j| ((i as f64) - (j as f64)).abs() + 1.0);
    let macro_ = IsingMacro::new(&distances, MacroConfig::new(4)).unwrap();
    let params = DeviceParams::default();
    for ua in [360.0, 400.0, 440.0] {
        let current = WriteCurrent::from_micro_amps(ua);
        let expected = params.switching_probability(current);
        let modelled = macro_.expected_mask_pass_fraction(current);
        assert!((expected - modelled).abs() < 1e-9);
    }
}

/// The macro solver must keep producing valid permutations across many seeds (a
/// regression guard for the spin-storage swap logic under stochastic updates).
#[test]
fn macro_solver_is_robust_across_seeds() {
    let distances = DistanceMatrix::from_fn(10, |i, j| {
        let a = 2.0 * std::f64::consts::PI * i as f64 / 10.0;
        let b = 2.0 * std::f64::consts::PI * j as f64 / 10.0;
        ((a.cos() - b.cos()).powi(2) + (a.sin() - b.sin()).powi(2)).sqrt()
    });
    let solver = MacroTspSolver::new(MacroSolverConfig::default());
    for seed in 0..10u64 {
        let solution = solver.solve_cycle(&distances, seed).unwrap();
        let mut sorted = solution.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert!(solution.length > 0.0);
    }
}

/// Table I's per-iteration figures must be consistent between the circuit model (used by
/// the architecture simulator) and the architecture simulator's own accounting.
#[test]
fn architecture_accounting_matches_the_circuit_model() {
    let model = MacroCircuitModel::paper_calibrated();
    let iterations = 1_000u64;
    let config = ArchConfig::default();
    let plan = SolvePlan::new(vec![LevelPlan::new(vec![SubProblem {
        cities: 12,
        iterations,
    }])]);
    let report = Compiler::new(config).compile(&plan).simulate();
    let expected_latency = model.latency_per_iteration_seconds() * iterations as f64;
    let expected_energy =
        model.energy_per_iteration_joules(12, BitPrecision::FOUR) * iterations as f64;
    assert!((report.ising_latency_seconds - expected_latency).abs() / expected_latency < 1e-9);
    assert!((report.ising_energy_joules - expected_energy).abs() / expected_energy < 1e-9);
}

/// End-to-end hardware sanity: running the full paper schedule on one macro costs about
/// 12 µs and tens of nanojoules — the per-sub-problem cost underlying the paper's
/// area/latency claims.
#[test]
fn one_subproblem_costs_microseconds_and_nanojoules() {
    let model = MacroCircuitModel::paper_calibrated();
    let schedule_iterations = CurrentSchedule::paper().len() as f64;
    let latency = model.latency_per_iteration_seconds() * schedule_iterations;
    let energy = model.energy_per_iteration_joules(12, BitPrecision::FOUR) * schedule_iterations;
    assert!(latency > 10e-6 && latency < 15e-6, "latency {latency}");
    assert!(energy > 30e-9 && energy < 100e-9, "energy {energy}");
}

/// Stochastic-mask behaviour at the stop current: almost everything passes through the
/// NAND fallback, making the final sweeps effectively greedy.
#[test]
fn final_schedule_point_behaves_nearly_greedily() {
    let params = DeviceParams::default();
    let mut generator = taxi_device::StochasticVectorGenerator::new(params, 12).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let stop = WriteCurrent::from_micro_amps(353.0);
    let mut all_ones = 0usize;
    let trials = 200;
    for _ in 0..trials {
        let mask = generator.generate(stop, &mut rng).unwrap();
        if mask.iter().all(|&b| b) {
            all_ones += 1;
        }
    }
    // With P ≈ 1 % per unit and 12 units, the empty set (→ all-ones fallback) dominates.
    assert!(all_ones > trials / 2, "all-ones masks: {all_ones}/{trials}");
}
