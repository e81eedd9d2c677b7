//! Output checks and the honest quality reference.

use taxi::{Stage, TaxiSolution};
use taxi_tsplib::TspInstance;

use crate::stats::Digest;

/// Length of the greedy nearest-neighbour tour from city 0, built from
/// `TspInstance::distance`: the quality reference of `tour_ratio`. The suite
/// instances are synthetic substitutes, so published optima do not apply to them.
pub fn nearest_neighbour_length(instance: &TspInstance) -> f64 {
    let n = instance.dimension();
    let mut visited = vec![false; n];
    let mut current = 0;
    visited[0] = true;
    let mut length = 0.0;
    for _ in 1..n {
        let mut best = (f64::INFINITY, 0);
        for (city, _) in visited.iter().enumerate().filter(|(_, seen)| !**seen) {
            let d = instance
                .distance(current, city)
                .expect("cities are in range");
            if d < best.0 {
                best = (d, city);
            }
        }
        length += best.0;
        visited[best.1] = true;
        current = best.1;
    }
    length + instance.distance(current, 0).expect("cities are in range")
}

/// Modelled hardware latency of a solve (the Account stage), in milliseconds.
pub fn hw_latency_ms(solution: &TaxiSolution) -> f64 {
    solution
        .stage_report(Stage::Account)
        .map_or(0.0, |report| report.modeled_seconds * 1e3)
}

/// Modelled hardware energy of a solve, in microjoules.
pub fn hw_energy_uj(solution: &TaxiSolution) -> f64 {
    solution.energy.total_joules() * 1e6
}

/// Everything a solve outputs that must repeat bit for bit: the tour, its
/// length, the modelled latency and energy, and the hardware counts.
pub fn digest(solution: &TaxiSolution) -> u64 {
    let mut digest = Digest::new();
    for &city in solution.tour.order() {
        digest = digest.word(city as u64);
    }
    digest
        .word(solution.length.to_bits())
        .word(hw_latency_ms(solution).to_bits())
        .word(solution.energy.total_joules().to_bits())
        .word(solution.subproblems as u64)
        .word(solution.arch_report.waves as u64)
        .value()
}

/// Whether `solution` is a valid tour of `instance` whose stated length is its own.
pub fn is_valid(solution: &TaxiSolution, instance: &TspInstance) -> bool {
    solution.tour.is_valid_for(instance)
        && (solution.tour.length(instance) - solution.length).abs()
            <= 1e-9 * solution.length.abs().max(1.0)
}
