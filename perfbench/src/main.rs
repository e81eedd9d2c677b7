//! Seeded end-to-end and per-layer benchmark of the TAXI workspace.
//!
//! ```text
//! taxi-perfbench --cal-nominal-us <us> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `perfbench/README.md`
//! describes the workloads, the metrics and the reference-speed rule.

mod cal;
mod check;
mod offline;
mod serve;
mod stats;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cal_nominal_us: f64,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: Option<f64> = None;
    let mut trace = None;
    let mut cal_nominal_us: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(parse(&flag, &value)?),
            "--seconds" => seconds = Some(parse(&flag, &value)?),
            "--trace" => trace = Some(parse::<u8>(&flag, &value)? != 0),
            "--cal-nominal-us" => cal_nominal_us = Some(parse(&flag, &value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    let cal_nominal_us = cal_nominal_us.ok_or("--cal-nominal-us is required")?;
    if !(seconds > 0.0 && seconds.is_finite() && cal_nominal_us > 0.0 && cal_nominal_us.is_finite())
    {
        return Err("--seconds and --cal-nominal-us must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        cal_nominal_us,
    })
}

/// The host-time figures of a run, computed once from calibrated and once from
/// raw seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostTimes {
    pub setup_s: f64,
    pub cities_per_s: f64,
    pub throughput_rps: f64,
    pub e2e_p50_ms: f64,
    pub e2e_p99_ms: f64,
}

/// Per-layer figures of a traced run. A layer the workload does not pass through
/// reads 0.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub cluster_build_s: f64,
    pub cluster_fix_s: f64,
    pub ising_solve_levels_s: f64,
    pub ising_us_per_subproblem: f64,
    pub ising_subproblems: f64,
    pub arch_account_s: f64,
    pub arch_waves: f64,
    pub core_assemble_s: f64,
    pub core_stage_coverage: f64,
    pub tsplib_fingerprint_us: f64,
    pub core_cache_lookup_us: f64,
    pub core_cache_hit_rate: f64,
    pub fleet_submit_us_p50: f64,
    pub fleet_submit_us_p99: f64,
    pub dispatch_queue_wait_ms_p50: f64,
    pub dispatch_queue_wait_ms_p99: f64,
    pub dispatch_solve_ms_p50: f64,
    pub dispatch_solve_ms_p99: f64,
    pub dispatch_batch_size_mean: f64,
    pub trace_spans: f64,
    pub trace_kept: f64,
    pub obs_samples: f64,
    /// Traced over untraced time of the same units in the same run.
    pub trace_overhead: f64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub calibrated: HostTimes,
    pub raw: HostTimes,
    pub tour_ratio: f64,
    pub hw_latency_ms: f64,
    pub hw_energy_uj: f64,
    /// Latency samples behind `e2e_p50_ms` and `e2e_p99_ms`.
    pub e2e_samples: usize,
    /// Digest of every checked output, equal across runs at one seed.
    pub digest: u64,
    pub cal_ms: [f64; 3],
    /// Peak resident set size when the measurement ended, before the analysis.
    pub peak_rss_mb: f64,
    pub layers: Layers,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "offline_suite" => offline::run(&offline::SUITE, &args),
        "offline_large" => offline::run(&offline::LARGE, &args),
        "serve_fresh" => serve::run(serve::Mix::Fresh, &args),
        "serve_popular" => serve::run(serve::Mix::Popular, &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    audit(&args, &report);

    let ok_frac = 1.0 - stats::ratio(report.failed as f64, report.attempted as f64);
    let (c, r, l) = (&report.calibrated, &report.raw, &report.layers);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        vec![
            ("cluster.build_s", l.cluster_build_s, "s"),
            ("cluster.fix_s", l.cluster_fix_s, "s"),
            ("ising.solve_levels_s", l.ising_solve_levels_s, "s"),
            ("ising.us_per_subproblem", l.ising_us_per_subproblem, "us"),
            ("ising.subproblems", l.ising_subproblems, "count"),
            ("arch.account_s", l.arch_account_s, "s"),
            ("arch.waves", l.arch_waves, "count"),
            ("core.assemble_s", l.core_assemble_s, "s"),
            ("core.stage_coverage", l.core_stage_coverage, "ratio"),
            ("tsplib.fingerprint_us", l.tsplib_fingerprint_us, "us"),
            ("core.cache_lookup_us", l.core_cache_lookup_us, "us"),
            ("core.cache_hit_rate", l.core_cache_hit_rate, "ratio"),
            ("fleet.submit_us_p50", l.fleet_submit_us_p50, "us"),
            ("fleet.submit_us_p99", l.fleet_submit_us_p99, "us"),
            (
                "dispatch.queue_wait_ms_p50",
                l.dispatch_queue_wait_ms_p50,
                "ms",
            ),
            (
                "dispatch.queue_wait_ms_p99",
                l.dispatch_queue_wait_ms_p99,
                "ms",
            ),
            ("dispatch.solve_ms_p50", l.dispatch_solve_ms_p50, "ms"),
            ("dispatch.solve_ms_p99", l.dispatch_solve_ms_p99, "ms"),
            (
                "dispatch.batch_size_mean",
                l.dispatch_batch_size_mean,
                "count",
            ),
            ("trace.spans", l.trace_spans, "count"),
            ("trace.kept", l.trace_kept, "count"),
            ("obs.samples", l.obs_samples, "count"),
            ("bench.cal_ms", report.cal_ms[1], "ms"),
            ("bench.cal_ms_p25", report.cal_ms[0], "ms"),
            ("bench.cal_ms_p75", report.cal_ms[2], "ms"),
            ("bench.raw.setup_s", r.setup_s, "s"),
            ("bench.raw.cities_per_s", r.cities_per_s, "1/s"),
            ("bench.raw.throughput_rps", r.throughput_rps, "1/s"),
            ("bench.raw.e2e_p50_ms", r.e2e_p50_ms, "ms"),
            ("bench.raw.e2e_p99_ms", r.e2e_p99_ms, "ms"),
            ("bench.trace_overhead", l.trace_overhead, "ratio"),
            ("bench.e2e_samples", report.e2e_samples as f64, "count"),
        ]
    } else {
        vec![
            ("setup_s", c.setup_s, "s"),
            ("cities_per_s", c.cities_per_s, "1/s"),
            ("tour_ratio", report.tour_ratio, "ratio"),
            ("hw_latency_ms", report.hw_latency_ms, "ms"),
            ("hw_energy_uj", report.hw_energy_uj, "uJ"),
            ("throughput_rps", c.throughput_rps, "1/s"),
            ("e2e_p50_ms", c.e2e_p50_ms, "ms"),
            ("e2e_p99_ms", c.e2e_p99_ms, "ms"),
            ("ok_frac", ok_frac, "ratio"),
            ("peak_rss_mb", report.peak_rss_mb, "MiB"),
        ]
    };
    let finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0 && finite,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints the raw and calibrated host-time figures side by side, with the
/// calibration samples they were converted by.
fn audit(args: &Args, report: &Report) {
    let (c, r) = (&report.calibrated, &report.raw);
    eprintln!(
        "perfbench {} seed {} trace {}: {} attempted, {} failed, {} latency samples, digest {:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.e2e_samples,
        report.digest
    );
    eprintln!(
        "  cal kernel ms p25/p50/p75 {:.5}/{:.5}/{:.5} (nominal {:.5})",
        report.cal_ms[0],
        report.cal_ms[1],
        report.cal_ms[2],
        args.cal_nominal_us * 1e-3
    );
    for (name, raw, calibrated) in [
        ("setup_s", r.setup_s, c.setup_s),
        ("cities_per_s", r.cities_per_s, c.cities_per_s),
        ("throughput_rps", r.throughput_rps, c.throughput_rps),
        ("e2e_p50_ms", r.e2e_p50_ms, c.e2e_p50_ms),
        ("e2e_p99_ms", r.e2e_p99_ms, c.e2e_p99_ms),
    ] {
        eprintln!("  {name:<15} raw {raw:>14.4} calibrated {calibrated:>14.4}");
    }
}
