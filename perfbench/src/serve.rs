//! The serving workloads: a `Fleet` of one shard with one worker, its cache on
//! and a `Tracer` attached, driven closed-loop from this thread.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taxi::{CacheLookup, SolutionCache, Stage, TaxiConfig, TaxiSolution, TaxiSolver};
use taxi_dispatch::{
    DispatchConfig, DispatchOutcome, DispatchRequest, Scenario, ServiceSnapshot, SolvedResponse,
    Ticket, Workload, WorkloadConfig,
};
use taxi_fleet::{Fleet, FleetConfig, FleetSnapshot};
use taxi_trace::{TraceConfig, Tracer};
use taxi_tsplib::fingerprint::canonical_fingerprint_into;
use taxi_tsplib::{FingerprintScratch, TspInstance};

use crate::cal::{Calibration, Unit};
use crate::stats::{geomean, median, mix, peak_rss_mb, quantile, ratio, Digest};
use crate::{check, Args, HostTimes, Layers, Report};

pub enum Mix {
    /// Every request a distinct 60–80-city instance, 8 in flight: every request
    /// misses the cache and is solved by the worker.
    Fresh,
    /// Zipf-popular routes (256, exponent 1.0, 20–100 cities) with the cache warm,
    /// 1 in flight: every request is an admission-time hit.
    Popular,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests whose outputs fix `tour_ratio`, `hw_*`, `ising.subproblems` and
/// `arch.waves`, and that the replays time.
const FIXED_SET: usize = 128;
/// Warm-up requests of a fresh set-up.
const FRESH_WARMUP: usize = 32;
/// Distinct popular routes.
const POPULAR_ROUTES: usize = 256;
/// Requests of the popular stream, replayed in a cycle.
const POPULAR_STREAM: usize = 8192;
/// Fresh requests generated per second of run, about 2.5 times what the
/// service completes; the run ends early if they run out.
const FRESH_PER_S: f64 = 400.0;
/// Timed calls per instance in the fingerprint and cache-lookup replays.
const REPLAYS: usize = 3;

struct Shape {
    in_flight: usize,
    /// Wall time between calibration samples.
    window: Duration,
    /// Latency samples kept per second of run.
    latencies_per_s: usize,
    /// Every `check_every`-th response is compared with its offline solve.
    check_every: usize,
}

impl Mix {
    fn shape(&self) -> Shape {
        match self {
            Mix::Fresh => Shape {
                in_flight: 8,
                window: Duration::from_millis(50),
                latencies_per_s: 1_000,
                check_every: 32,
            },
            Mix::Popular => Shape {
                in_flight: 1,
                window: Duration::from_millis(20),
                latencies_per_s: 400_000,
                check_every: 16,
            },
        }
    }
}

/// The request instances: a sequence of indices into a pool of distinct instances.
struct Stream {
    pool: Vec<TspInstance>,
    sequence: Vec<usize>,
}

impl Stream {
    fn instance(&self, index: usize) -> &TspInstance {
        &self.pool[self.sequence[index % self.sequence.len()]]
    }
}

const DISTRICTS: Scenario = Scenario::CityDistricts { districts: 6 };

/// Distinct 60–80-city requests from the dispatch workload generator.
fn fresh_stream(seed: u64, requests: usize) -> Stream {
    let config = WorkloadConfig::new(DISTRICTS)
        .with_size_range(60, 80)
        .with_interactive_fraction(0.0)
        .with_requests(requests)
        .with_seed(seed);
    let pool: Vec<TspInstance> = Workload::generate(config)
        .into_events()
        .into_iter()
        .map(|event| event.request.instance)
        .collect();
    let sequence = (0..pool.len()).collect();
    Stream { pool, sequence }
}

/// `POPULAR_ROUTES` routes requested under Zipf(1.0) popularity. The route of
/// popularity rank `r` has a size fixed by `r` alone (a golden-ratio sequence
/// over 20–100 cities), so every seed offers the same mix of request sizes and
/// only the geometry and the draw order change with it.
fn popular_stream(seed: u64, requests: usize) -> Stream {
    let pool: Vec<TspInstance> = (0..POPULAR_ROUTES)
        .map(|rank| {
            let spread = (rank as f64 * 0.618_033_988_749_895).fract();
            let n = 20 + (spread * 81.0) as usize;
            DISTRICTS.generate(&format!("route{rank}"), n, mix(seed, rank as u64))
        })
        .collect();
    let cumulative: Vec<f64> = (1..=POPULAR_ROUTES)
        .scan(0.0, |total, rank| {
            *total += 1.0 / rank as f64;
            Some(*total)
        })
        .collect();
    let total = cumulative[POPULAR_ROUTES - 1];
    let sequence = (0..requests as u64)
        .map(|i| {
            let u = (mix(seed ^ 0x5EED, i) >> 11) as f64 / (1u64 << 53) as f64 * total;
            cumulative
                .partition_point(|&c| c <= u)
                .min(POPULAR_ROUTES - 1)
        })
        .collect();
    Stream { pool, sequence }
}

fn solver_config() -> TaxiConfig {
    TaxiConfig::new().with_threads(1)
}

/// Submits every instance closed-loop with up to 8 in flight and waits for all.
fn solve_through(fleet: &Fleet, instances: &[TspInstance]) -> Vec<Option<SolvedResponse>> {
    let mut out = Vec::with_capacity(instances.len());
    let mut in_flight: VecDeque<Option<Ticket>> = VecDeque::new();
    let mut finish = |ticket: Option<Ticket>| ticket.and_then(|t| t.wait().solved());
    for instance in instances {
        if in_flight.len() == 8 {
            out.push(finish(in_flight.pop_front().flatten()));
        }
        in_flight.push_back(fleet.submit(DispatchRequest::new(instance.clone())).ok());
    }
    out.extend(in_flight.into_iter().map(&mut finish));
    out
}

/// The program's set-up: starts the fleet and serves the warm-up instances.
fn set_up(warmup: &[TspInstance]) -> (Fleet, Vec<Option<SolvedResponse>>) {
    let tracer = Arc::new(Tracer::new(TraceConfig::new()));
    let shard = DispatchConfig::new()
        .with_workers(1)
        .with_solver(solver_config());
    let fleet = Fleet::start(
        FleetConfig::new()
            .with_shards(1)
            .with_shard_config(shard)
            .with_tracer(tracer),
    );
    let warm = solve_through(&fleet, warmup);
    (fleet, warm)
}

/// A stretch of the run between two calibration samples.
struct Window {
    unit: Unit,
    traced: bool,
    /// Range of this window's completions in the latency log.
    latencies: std::ops::Range<usize>,
    completed: usize,
    cities: usize,
}

/// What the worker reported for a solved (non-hit) response.
struct Served {
    queue_wait_s: f64,
    solve_s: f64,
    subproblems: usize,
}

impl Served {
    fn new(response: &SolvedResponse) -> Self {
        Self {
            queue_wait_s: response.queue_wait.as_secs_f64(),
            solve_s: response.solve_time.as_secs_f64(),
            subproblems: response.solution.subproblems,
        }
    }
}

struct InFlight {
    ticket: Ticket,
    sent: Instant,
    index: usize,
    /// Whether a calibration sample was taken while the request was in flight.
    straddles: bool,
}

pub fn run(mix_kind: Mix, args: &Args) -> Report {
    let shape = mix_kind.shape();
    let mut cal = Calibration::new(args.cal_nominal_us);
    let mut report = Report::default();
    let offline = TaxiSolver::new(solver_config());

    let stream = match mix_kind {
        Mix::Fresh => fresh_stream(
            mix(args.seed, 1),
            (args.seconds * FRESH_PER_S) as usize + FIXED_SET,
        ),
        Mix::Popular => popular_stream(mix(args.seed, 1), POPULAR_STREAM),
    };
    let warmup = match mix_kind {
        Mix::Fresh => fresh_stream(mix(args.seed, 2), FRESH_WARMUP).pool,
        Mix::Popular => stream.pool.clone(),
    };
    let fixed: Vec<&TspInstance> = match mix_kind {
        Mix::Fresh => (0..FIXED_SET).map(|i| stream.instance(i)).collect(),
        Mix::Popular => stream.pool.iter().collect(),
    };
    let reference: Vec<f64> = fixed
        .iter()
        .map(|i| check::nearest_neighbour_length(i))
        .collect();
    let warm_expected: Vec<Option<TaxiSolution>> =
        warmup.iter().map(|i| offline.solve(i).ok()).collect();

    let mut setups = Vec::new();
    let mut fleet = None;
    let mut warm_responses = Vec::new();
    for _ in 0..SETUPS {
        if let Some(previous) = fleet.take() {
            Fleet::shutdown(previous);
        }
        cal.sample();
        let start = Instant::now();
        let (next, warm) = set_up(&warmup);
        setups.push(Unit::since(start));
        cal.sample();
        for (i, (response, expected)) in warm.iter().zip(&warm_expected).enumerate() {
            report.attempted += 1;
            let solution = response.as_ref().map(|r| &*r.solution);
            if !same_solution(solution, expected.as_ref(), &warmup[i]) {
                eprintln!("perfbench: warm-up response {i} differs from its offline solve");
                report.failed += 1;
            }
        }
        warm_responses = warm;
        fleet = Some(next);
    }
    let fleet = fleet.expect("SETUPS is at least 1");

    let stream_len = match mix_kind {
        Mix::Fresh => stream.sequence.len(),
        Mix::Popular => usize::MAX,
    };
    let capacity = (args.seconds * shape.latencies_per_s as f64) as usize;
    // Filled up front, so the log's memory does not grow with throughput.
    let mut latencies = vec![u32::MAX; capacity];
    let mut latency_count = 0usize;
    let mut windows: Vec<Window> = Vec::new();
    // The last fleet's warm-up solves count with the run's in the layer figures.
    let mut served: Vec<Served> = warm_responses.iter().flatten().map(Served::new).collect();
    let warm_solutions: Vec<Option<Arc<TaxiSolution>>> = warm_responses
        .into_iter()
        .map(|r| r.map(|r| r.solution))
        .collect();
    let mut submit_us: Vec<f64> = Vec::new();
    // Requests in flight across a calibration sample, by latency-log index.
    let mut straddlers: Vec<(usize, Unit)> = Vec::new();
    let mut kept: BTreeMap<usize, Arc<TaxiSolution>> = BTreeMap::new();

    cal.sample();
    let run_start = Instant::now();
    let deadline = run_start + Duration::from_secs_f64(args.seconds);
    let mut window = Window::open(0, args.trace);
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0usize;
    let mut stopping = false;
    loop {
        while !stopping && in_flight.len() < shape.in_flight && next < stream_len {
            let request = DispatchRequest::new(stream.instance(next).clone());
            let sent = Instant::now();
            let submitted = fleet.submit(request);
            if window.traced {
                submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            report.attempted += 1;
            match submitted {
                Ok(ticket) => in_flight.push_back(InFlight {
                    ticket,
                    sent,
                    index: next,
                    straddles: false,
                }),
                Err(error) => {
                    eprintln!("perfbench: request {next} refused: {error}");
                    report.failed += 1;
                }
            }
            next += 1;
        }
        let Some(request) = in_flight.pop_front() else {
            break;
        };
        let outcome = request.ticket.wait();
        let done = Instant::now();
        if latency_count < capacity {
            latencies[latency_count] = done
                .duration_since(request.sent)
                .as_nanos()
                .min(u128::from(u32::MAX - 1)) as u32;
            if request.straddles {
                straddlers.push((latency_count, Unit::between(request.sent, done)));
            }
            latency_count += 1;
        }
        let instance = stream.instance(request.index);
        window.completed += 1;
        window.cities += instance.dimension();
        let sampled = request.index % shape.check_every == 0;
        let ok = match (outcome, &mix_kind) {
            (DispatchOutcome::Solved(response), Mix::Fresh) => {
                served.push(Served::new(&response));
                let ok = !response.cache_hit && check::is_valid(&response.solution, instance);
                if request.index < FIXED_SET || sampled {
                    kept.insert(request.index, response.solution);
                }
                ok
            }
            (DispatchOutcome::Solved(response), Mix::Popular) => {
                let route = stream.sequence[request.index % stream.sequence.len()];
                response.cache_hit
                    && (!sampled
                        || same_solution(
                            Some(&response.solution),
                            warm_expected[route].as_ref(),
                            instance,
                        ))
            }
            (other, _) => {
                eprintln!("perfbench: {other:?}");
                false
            }
        };
        if !ok {
            eprintln!("perfbench: request {} failed its check", request.index);
            report.failed += 1;
        }
        if done >= deadline {
            stopping = true;
        }
        if done.duration_since(window.unit.start()) >= shape.window {
            window.close(latency_count);
            windows.push(window);
            cal.sample();
            for request in &mut in_flight {
                request.straddles = true;
            }
            window = Window::open(latency_count, args.trace && windows.len().is_multiple_of(2));
        }
    }
    if window.completed > 0 {
        window.close(latency_count);
        windows.push(window);
        cal.sample();
    }
    let after = fleet.snapshot();
    report.peak_rss_mb = peak_rss_mb();
    let replays = args.trace.then(|| {
        replay(
            &fixed,
            &warmup,
            &warm_solutions,
            &offline,
            &mut cal,
            &mut report.failed,
        )
    });
    drop(fleet.shutdown());

    // The fresh responses kept for checking must equal an offline solve.
    let mut fixed_solutions: Vec<Arc<TaxiSolution>> = Vec::new();
    match mix_kind {
        Mix::Fresh => {
            for (&index, solution) in &kept {
                let instance = stream.instance(index);
                report.attempted += 1;
                let expected = offline.solve(instance).ok();
                if !same_solution(Some(solution), expected.as_ref(), instance) {
                    eprintln!("perfbench: request {index} differs from its offline solve");
                    report.failed += 1;
                }
            }
            for index in 0..FIXED_SET {
                match kept.get(&index) {
                    Some(solution) => fixed_solutions.push(Arc::clone(solution)),
                    None => {
                        eprintln!("perfbench: request {index} did not complete");
                        report.failed += 1;
                    }
                }
            }
        }
        Mix::Popular => {
            fixed_solutions = warm_solutions.iter().flatten().cloned().collect();
        }
    }

    for unit in windows
        .iter_mut()
        .map(|w| &mut w.unit)
        .chain(setups.iter_mut())
    {
        cal.calibrate(unit);
    }
    let run_factor = median(&mut windows.iter().map(Window::factor).collect::<Vec<_>>());
    let measured: Vec<&Window> = windows.iter().filter(|w| !w.traced).collect();
    let setup_times = |calibrated: bool| -> f64 {
        median(
            &mut setups
                .iter()
                .map(|u| u.seconds(calibrated))
                .collect::<Vec<_>>(),
        )
    };
    // A request takes the factor of the window it completes in, unless a sample
    // fell inside it: then its own stretches are calibrated.
    let mut calibrated_ms = vec![0.0; latency_count];
    for window in &windows {
        for i in window.latencies.clone() {
            calibrated_ms[i] = f64::from(latencies[i]) * 1e-6 * window.factor();
        }
    }
    for (i, mut unit) in straddlers {
        cal.calibrate(&mut unit);
        calibrated_ms[i] = unit.calibrated_s * 1e3;
    }
    let window_latencies = |windows: &[&Window], calibrated: bool| -> Vec<f64> {
        windows
            .iter()
            .flat_map(|w| w.latencies.clone())
            .map(|i| {
                if calibrated {
                    calibrated_ms[i]
                } else {
                    f64::from(latencies[i]) * 1e-6
                }
            })
            .collect()
    };
    let host_times = |calibrated: bool| -> HostTimes {
        let wall: f64 = measured.iter().map(|w| w.unit.seconds(calibrated)).sum();
        let mut ms = window_latencies(&measured, calibrated);
        HostTimes {
            setup_s: setup_times(calibrated),
            cities_per_s: ratio(measured.iter().map(|w| w.cities as f64).sum(), wall),
            throughput_rps: ratio(measured.iter().map(|w| w.completed as f64).sum(), wall),
            e2e_p50_ms: quantile(&mut ms, 0.5),
            e2e_p99_ms: quantile(&mut ms, 0.99),
        }
    };
    report.calibrated = host_times(true);
    report.raw = host_times(false);
    report.e2e_samples = measured.iter().map(|w| w.latencies.len()).sum();
    if fixed_solutions.len() == fixed.len() {
        let ratios: Vec<f64> = fixed_solutions
            .iter()
            .zip(&reference)
            .map(|(solution, reference)| solution.length / reference)
            .collect();
        report.tour_ratio = geomean(&ratios);
        let n = fixed_solutions.len() as f64;
        report.hw_latency_ms = fixed_solutions
            .iter()
            .map(|s| check::hw_latency_ms(s))
            .sum::<f64>()
            / n;
        report.hw_energy_uj = fixed_solutions
            .iter()
            .map(|s| check::hw_energy_uj(s))
            .sum::<f64>()
            / n;
    }
    report.digest = fixed_solutions
        .iter()
        .fold(Digest::new(), |digest, s| digest.word(check::digest(s)))
        .value();
    if let Some(replays) = replays {
        let traced: Vec<&Window> = windows.iter().filter(|w| w.traced).collect();
        let mut traced_ms = window_latencies(&traced, true);
        let mut untraced_ms = window_latencies(&measured, true);
        report.layers = Layers {
            trace_overhead: ratio(median(&mut traced_ms), median(&mut untraced_ms)),
            ..layers(
                &after,
                &fixed_solutions,
                &served,
                run_factor,
                &mut submit_us,
                replays,
            )
        };
    }
    report.cal_ms = cal.quartiles_ms();
    report
}

impl Window {
    fn open(latency_start: usize, traced: bool) -> Self {
        Self {
            unit: Unit::since(Instant::now()),
            traced,
            latencies: latency_start..latency_start,
            completed: 0,
            cities: 0,
        }
    }

    fn close(&mut self, latency_end: usize) {
        self.unit = Unit::since(self.unit.start());
        self.latencies.end = latency_end;
    }

    /// Reference seconds per host second of this window.
    fn factor(&self) -> f64 {
        ratio(self.unit.calibrated_s, self.unit.raw_s)
    }
}

/// Whether a served solution equals the offline solve bit for bit.
fn same_solution(
    served: Option<&TaxiSolution>,
    expected: Option<&TaxiSolution>,
    instance: &TspInstance,
) -> bool {
    match (served, expected) {
        (Some(served), Some(expected)) => {
            check::is_valid(served, instance) && check::digest(served) == check::digest(expected)
        }
        _ => false,
    }
}

/// Median calibrated seconds of the fingerprint and of the cache lookup a
/// request pays on each instance of the fixed set, against a cache that holds
/// the warm-up solutions: hits on the popular routes, misses on fresh requests.
fn replay(
    fixed: &[&TspInstance],
    warmup: &[TspInstance],
    warm: &[Option<Arc<TaxiSolution>>],
    offline: &TaxiSolver,
    cal: &mut Calibration,
    failed: &mut u64,
) -> (f64, f64) {
    let cache = SolutionCache::with_defaults();
    let token = offline.cache_token();
    for (instance, solution) in warmup.iter().zip(warm) {
        match solution {
            Some(solution) => {
                cache.insert(cache.key(token, instance), instance, Arc::clone(solution));
            }
            None => *failed += 1,
        }
    }
    let mut scratch = FingerprintScratch::new();
    let mut fingerprint = Vec::new();
    let mut lookup = Vec::new();
    cal.sample();
    for instance in fixed {
        for _ in 0..REPLAYS {
            let start = Instant::now();
            std::hint::black_box(canonical_fingerprint_into(instance, &mut scratch));
            fingerprint.push(Unit::since(start));
            let start = Instant::now();
            std::hint::black_box(matches!(cache.lookup(token, instance), CacheLookup::Hit(_)));
            lookup.push(Unit::since(start));
        }
    }
    cal.sample();
    let median_s = |units: &mut [Unit]| {
        for unit in units.iter_mut() {
            cal.calibrate(unit);
        }
        median(&mut units.iter().map(|u| u.calibrated_s).collect::<Vec<_>>())
    };
    (median_s(&mut fingerprint), median_s(&mut lookup))
}

/// Per-layer figures of a serving run, over the last fleet's life: its warm-up
/// and the run. Stage times are per fresh solve, from the service's own stage
/// counters; times are calibrated by the run's median window factor.
fn layers(
    after: &FleetSnapshot,
    fixed: &[Arc<TaxiSolution>],
    served: &[Served],
    run_factor: f64,
    submit_us: &mut [f64],
    (fingerprint_s, lookup_s): (f64, f64),
) -> Layers {
    let a: &ServiceSnapshot = &after.service;
    let solved = a.solved_fresh() as f64;
    let stage_s = |stage: Stage| -> f64 {
        let index = Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("Stage::ALL lists every stage");
        ratio(a.stage_seconds[index] * run_factor, solved)
    };
    let staged: f64 = Stage::ALL.iter().map(|&stage| stage_s(stage)).sum();
    let solve_s: f64 = served.iter().map(|s| s.solve_s * run_factor).sum();
    let subproblems: usize = served.iter().map(|s| s.subproblems).sum();
    let mut queue_ms: Vec<f64> = served
        .iter()
        .map(|s| s.queue_wait_s * run_factor * 1e3)
        .collect();
    let mut solve_ms: Vec<f64> = served
        .iter()
        .map(|s| s.solve_s * run_factor * 1e3)
        .collect();
    let trace = after.trace.unwrap_or_default();
    Layers {
        cluster_build_s: stage_s(Stage::Cluster),
        cluster_fix_s: stage_s(Stage::FixEndpoints),
        ising_solve_levels_s: stage_s(Stage::SolveLevels),
        ising_us_per_subproblem: ratio(
            stage_s(Stage::SolveLevels) * solved * 1e6,
            subproblems as f64,
        ),
        ising_subproblems: fixed.iter().map(|s| s.subproblems as f64).sum(),
        arch_account_s: stage_s(Stage::Account),
        arch_waves: fixed.iter().map(|s| s.arch_report.waves as f64).sum(),
        core_assemble_s: stage_s(Stage::Assemble),
        core_stage_coverage: ratio(staged * solved, solve_s),
        tsplib_fingerprint_us: fingerprint_s * 1e6,
        core_cache_lookup_us: lookup_s * 1e6,
        core_cache_hit_rate: ratio(a.cache_hits as f64, a.completed as f64),
        fleet_submit_us_p50: quantile(submit_us, 0.5) * run_factor,
        fleet_submit_us_p99: quantile(submit_us, 0.99) * run_factor,
        dispatch_queue_wait_ms_p50: quantile(&mut queue_ms, 0.5),
        dispatch_queue_wait_ms_p99: quantile(&mut queue_ms, 0.99),
        dispatch_solve_ms_p50: quantile(&mut solve_ms, 0.5),
        dispatch_solve_ms_p99: quantile(&mut solve_ms, 0.99),
        dispatch_batch_size_mean: a.mean_batch_size,
        trace_spans: trace.recorded_spans as f64,
        trace_kept: trace.kept as f64,
        obs_samples: after.history_samples as f64,
        ..Layers::default()
    }
}
