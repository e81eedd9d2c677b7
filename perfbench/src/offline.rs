//! The offline workloads: serial `TaxiSolver::solve` calls over paper-suite
//! instances, regenerated from the run seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use taxi::{
    CacheLookup, PipelineObserver, SolutionCache, Stage, StageReport, TaxiConfig, TaxiError,
    TaxiSolution, TaxiSolver,
};
use taxi_tsplib::benchmark::{InstanceFamily, BENCHMARK_SUITE};
use taxi_tsplib::fingerprint::canonical_fingerprint_into;
use taxi_tsplib::generator::{clustered_instance, grid_drilling_instance, random_uniform_instance};
use taxi_tsplib::{FingerprintScratch, TspInstance};

use crate::cal::{Calibration, Unit};
use crate::stats::{geomean, median, mix, peak_rss_mb, quantile, ratio, Digest};
use crate::{check, Args, HostTimes, Layers, Report};

/// The paper suite up to pcb3038: 10,915 cities over 13 instances.
pub const SUITE: [&str; 13] = [
    "pr76", "eil101", "kroA200", "gil262", "lin318", "pcb442", "rat575", "gr666", "rat783",
    "pr1002", "u1060", "pr2392", "pcb3038",
];

/// The largest instances that fit a run; here clustering carries a large share.
pub const LARGE: [&str; 3] = ["rl5915", "rl5934", "rl11849"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed calls per instance in the fingerprint and cache-lookup replays.
const REPLAYS: usize = 5;
/// Least time between calibration samples taken inside a solve.
const INNER_SPACING: Duration = Duration::from_millis(50);

/// A synthetic instance of the named paper-suite size and family, generated the
/// way `load_or_generate` does but from the run seed.
fn generate(name: &str, seed: u64) -> TspInstance {
    let spec = BENCHMARK_SUITE
        .iter()
        .find(|spec| spec.name == name)
        .expect("workload instances are paper-suite names");
    let salt = name
        .bytes()
        .fold(Digest::new(), |digest, byte| digest.word(u64::from(byte)))
        .value();
    let seed = mix(seed, salt);
    let n = spec.dimension;
    match spec.family {
        InstanceFamily::Uniform => random_uniform_instance(name, n, seed),
        InstanceFamily::Clustered => clustered_instance(name, n, (n / 40).clamp(3, 200), seed),
        InstanceFamily::Grid => grid_drilling_instance(name, n, seed),
    }
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("Stage::ALL lists every stage")
}

/// Pipeline hooks on every timed solve. They take calibration samples at stage
/// and level boundaries, outside the pipeline's stage timers; on traced solves
/// they also keep the stage spans the pipeline reports.
struct Hooks<'a> {
    cal: &'a mut Calibration,
    /// Host seconds of each stage, on traced solves.
    stage_s: Option<[f64; 5]>,
}

impl<'a> Hooks<'a> {
    fn new(cal: &'a mut Calibration, traced: bool) -> Self {
        Self {
            cal,
            stage_s: traced.then_some([0.0; 5]),
        }
    }
}

impl PipelineObserver for Hooks<'_> {
    fn on_stage_start(&mut self, _stage: Stage) {
        self.cal.sample_if_due(INNER_SPACING);
    }

    fn on_stage_end(&mut self, report: &StageReport) {
        if let Some(stage_s) = &mut self.stage_s {
            stage_s[stage_index(report.stage)] = report.seconds;
        }
        self.cal.sample_if_due(INNER_SPACING);
    }

    fn on_level_solved(&mut self, _level: Option<usize>, _subproblems: usize) {
        self.cal.sample_if_due(INNER_SPACING);
    }
}

/// The program's set-up: a solver with the default paper configuration on one
/// thread, warmed by a solve of the first (smallest) instance.
fn set_up(
    first: &TspInstance,
    cal: &mut Calibration,
) -> Result<(TaxiSolver, TaxiSolution), TaxiError> {
    let solver = TaxiSolver::new(TaxiConfig::new().with_threads(1));
    let warm = solver.solve_with_observer(first, &mut Hooks::new(cal, false))?;
    Ok((solver, warm))
}

/// One traced solve: the unit and the host seconds of each stage.
struct TracedUnit {
    unit: Unit,
    stage_s: [f64; 5],
}

pub fn run(names: &[&str], args: &Args) -> Report {
    let mut cal = Calibration::new(args.cal_nominal_us);
    let mut report = Report::default();
    let instances: Vec<TspInstance> = names.iter().map(|name| generate(name, args.seed)).collect();
    let reference: Vec<f64> = instances
        .iter()
        .map(check::nearest_neighbour_length)
        .collect();
    let n = instances.len();
    let mut expected: Vec<Option<u64>> = vec![None; n];

    let mut setups = Vec::new();
    let mut solver = None;
    for _ in 0..SETUPS {
        // The previous solver is dropped first so set-ups do not stack in memory.
        drop(solver.take());
        cal.sample();
        let start = Instant::now();
        let attempt = set_up(&instances[0], &mut cal);
        setups.push(Unit::since(start));
        cal.sample();
        report.attempted += 1;
        match attempt {
            Ok((next, warm)) => {
                let digest = check::digest(&warm);
                if digest != *expected[0].get_or_insert(digest) {
                    eprintln!("perfbench: warm solves of one seed differ");
                    report.failed += 1;
                }
                solver = Some(next);
            }
            Err(error) => {
                eprintln!("perfbench: set-up failed: {error}");
                report.failed += 1;
            }
        }
    }
    let Some(solver) = solver else {
        return report;
    };

    let mut untraced: Vec<Vec<Unit>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<TracedUnit>> = (0..n).map(|_| Vec::new()).collect();
    let mut solutions: Vec<Option<TaxiSolution>> = vec![None; n];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass = 0usize;
    while pass == 0 || Instant::now() < deadline {
        for (i, instance) in instances.iter().enumerate() {
            // Traced runs time every instance both ways, alternating which goes first.
            let arms: &[bool] = match (args.trace, pass % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced_arm in arms {
                cal.sample();
                let mut hooks = Hooks::new(&mut cal, traced_arm);
                let start = Instant::now();
                let result = solver.solve_with_observer(instance, &mut hooks);
                let unit = Unit::since(start);
                let stage_s = hooks.stage_s;
                cal.sample();
                report.attempted += 1;
                let solution = match result {
                    Ok(solution) => solution,
                    Err(error) => {
                        eprintln!("perfbench: {} failed: {error}", instance.name());
                        report.failed += 1;
                        continue;
                    }
                };
                let digest = check::digest(&solution);
                if !check::is_valid(&solution, instance)
                    || digest != *expected[i].get_or_insert(digest)
                {
                    eprintln!(
                        "perfbench: {} changed output or is invalid",
                        instance.name()
                    );
                    report.failed += 1;
                }
                match stage_s {
                    Some(stage_s) => traced[i].push(TracedUnit { unit, stage_s }),
                    None => untraced[i].push(unit),
                }
                solutions[i].get_or_insert(solution);
            }
        }
        pass += 1;
    }
    report.peak_rss_mb = peak_rss_mb();
    let Some(solutions) = solutions.into_iter().collect::<Option<Vec<_>>>() else {
        return report;
    };
    let replays = if args.trace {
        replay(
            &instances,
            &solutions,
            &solver,
            &mut cal,
            &mut report.failed,
        )
    } else {
        Vec::new()
    };
    let timed = setups
        .iter_mut()
        .chain(untraced.iter_mut().flatten())
        .chain(traced.iter_mut().flatten().map(|t| &mut t.unit));
    for unit in timed {
        cal.calibrate(unit);
    }

    let dims: Vec<f64> = instances.iter().map(|i| i.dimension() as f64).collect();
    report.calibrated = host_times(&dims, &untraced, &setups, true);
    report.raw = host_times(&dims, &untraced, &setups, false);
    report.e2e_samples = untraced.iter().map(Vec::len).sum();
    let ratios: Vec<f64> = solutions
        .iter()
        .zip(&reference)
        .map(|(solution, reference)| solution.length / reference)
        .collect();
    report.tour_ratio = geomean(&ratios);
    report.hw_latency_ms = solutions.iter().map(check::hw_latency_ms).sum::<f64>() / n as f64;
    report.hw_energy_uj = solutions.iter().map(check::hw_energy_uj).sum::<f64>() / n as f64;
    report.digest = expected
        .iter()
        .fold(Digest::new(), |digest, e| digest.word(e.unwrap_or(0)))
        .value();
    if args.trace {
        report.layers = layers(&solutions, &untraced, &traced, &replays);
    }
    report.cal_ms = cal.quartiles_ms();
    report
}

/// Median seconds of `units`, calibrated or raw.
fn median_s<'a>(units: impl IntoIterator<Item = &'a Unit>, calibrated: bool) -> f64 {
    let mut seconds: Vec<f64> = units.into_iter().map(|u| u.seconds(calibrated)).collect();
    median(&mut seconds)
}

/// The host-time figures from per-instance median solve times: the time of one
/// pass is the sum of the medians, and the latency percentiles are taken over
/// the instances.
fn host_times(dims: &[f64], units: &[Vec<Unit>], setups: &[Unit], calibrated: bool) -> HostTimes {
    let medians: Vec<f64> = units.iter().map(|u| median_s(u, calibrated)).collect();
    let pass_s: f64 = medians.iter().sum();
    let mut ms: Vec<f64> = medians.iter().map(|s| s * 1e3).collect();
    HostTimes {
        setup_s: median_s(setups, calibrated),
        cities_per_s: ratio(dims.iter().sum(), pass_s),
        throughput_rps: ratio(dims.len() as f64, pass_s),
        e2e_p50_ms: quantile(&mut ms, 0.5),
        e2e_p99_ms: quantile(&mut ms, 0.99),
    }
}

/// Times, per instance, the fingerprint and the cache lookup a serving request
/// would pay on it, against a cache holding its solution. Returns the median
/// calibrated seconds of `REPLAYS` calls each, as `(fingerprint, lookup)`.
fn replay(
    instances: &[TspInstance],
    solutions: &[TaxiSolution],
    solver: &TaxiSolver,
    cal: &mut Calibration,
    failed: &mut u64,
) -> Vec<(f64, f64)> {
    let cache = SolutionCache::with_defaults();
    let token = solver.cache_token();
    let mut scratch = FingerprintScratch::new();
    let mut out = Vec::new();
    for (instance, solution) in instances.iter().zip(solutions) {
        cache.insert(
            cache.key(token, instance),
            instance,
            Arc::new(solution.clone()),
        );
        let mut fingerprint = Vec::new();
        let mut lookup = Vec::new();
        cal.sample();
        for _ in 0..REPLAYS {
            let start = Instant::now();
            std::hint::black_box(canonical_fingerprint_into(instance, &mut scratch));
            fingerprint.push(Unit::since(start));
            let start = Instant::now();
            let hit = cache.lookup(token, instance);
            lookup.push(Unit::since(start));
            if !matches!(hit, CacheLookup::Hit(_)) {
                *failed += 1;
            }
        }
        cal.sample();
        for unit in fingerprint.iter_mut().chain(lookup.iter_mut()) {
            cal.calibrate(unit);
        }
        out.push((median_s(&fingerprint, true), median_s(&lookup, true)));
    }
    out
}

/// Per-layer figures: stage times per solve (mean over instances of the
/// per-instance medians), exact counts over the instance set, and the replays.
fn layers(
    solutions: &[TaxiSolution],
    untraced: &[Vec<Unit>],
    traced: &[Vec<TracedUnit>],
    replays: &[(f64, f64)],
) -> Layers {
    let n = solutions.len() as f64;
    let stage_s = |stage: Stage| -> f64 {
        let index = stage_index(stage);
        traced
            .iter()
            .map(|units| {
                let mut seconds: Vec<f64> = units
                    .iter()
                    .map(|t| t.stage_s[index] * ratio(t.unit.calibrated_s, t.unit.raw_s))
                    .collect();
                median(&mut seconds)
            })
            .sum::<f64>()
            / n
    };
    let subproblems: usize = solutions.iter().map(|s| s.subproblems).sum();
    let staged: f64 = traced
        .iter()
        .flatten()
        .map(|t| t.stage_s.iter().sum::<f64>())
        .sum();
    let spanned: f64 = traced.iter().flatten().map(|t| t.unit.raw_s).sum();
    let traced_s: f64 = traced
        .iter()
        .map(|units| median_s(units.iter().map(|t| &t.unit), true))
        .sum();
    let untraced_s: f64 = untraced.iter().map(|units| median_s(units, true)).sum();
    Layers {
        cluster_build_s: stage_s(Stage::Cluster),
        cluster_fix_s: stage_s(Stage::FixEndpoints),
        ising_solve_levels_s: stage_s(Stage::SolveLevels),
        ising_us_per_subproblem: ratio(stage_s(Stage::SolveLevels) * n * 1e6, subproblems as f64),
        ising_subproblems: subproblems as f64,
        arch_account_s: stage_s(Stage::Account),
        arch_waves: solutions.iter().map(|s| s.arch_report.waves as f64).sum(),
        core_assemble_s: stage_s(Stage::Assemble),
        core_stage_coverage: ratio(staged, spanned),
        tsplib_fingerprint_us: replays.iter().map(|r| r.0).sum::<f64>() / n * 1e6,
        core_cache_lookup_us: replays.iter().map(|r| r.1).sum::<f64>() / n * 1e6,
        trace_overhead: ratio(traced_s, untraced_s),
        ..Layers::default()
    }
}
