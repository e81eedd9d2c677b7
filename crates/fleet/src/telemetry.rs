//! Unified telemetry exposition: every fleet, service, cache, router, tracer
//! and SLO counter on one Prometheus-style text page.
//!
//! [`Telemetry`] wraps one [`FleetSnapshot`] and [`render`](Telemetry::render)s
//! it in the Prometheus text exposition format (`# HELP`/`# TYPE` preambles,
//! `name{label="value"} number` samples, label values escaped per the
//! exposition spec). The page is **complete by construction**: every family it
//! can emit is declared in the central [`FAMILIES`] registry — the only way to
//! write a family is to register it first (unregistered names panic), and the
//! completeness test enumerates the registry instead of a hand-maintained
//! list, so a new family can never silently go missing. Scrape it, dump it
//! next to bench artifacts, or diff two pages to compute exact rates from
//! `captured_at_seconds`.

use std::fmt::Write as _;

use taxi::SolverBackend;
use taxi_dispatch::{service_counters, ServiceSnapshot};
use taxi_obs::{AlertState, SloStatus};

use crate::fleet::{Fleet, FleetSnapshot};
use crate::state::ShardState;

/// Stage labels, index-aligned with [`taxi::Stage::ALL`].
const STAGE_LABELS: [&str; 5] = [
    "cluster",
    "fix_endpoints",
    "solve_levels",
    "assemble",
    "account",
];

/// One registered metric family: the name plus the `# TYPE`/`# HELP` preamble
/// text the page emits for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyInfo {
    /// Metric family name (`taxi_service_completed_total`).
    pub name: &'static str,
    /// Exposition type: `counter` or `gauge`.
    pub kind: &'static str,
    /// One-line `# HELP` text.
    pub help: &'static str,
}

const fn family(name: &'static str, kind: &'static str, help: &'static str) -> FamilyInfo {
    FamilyInfo { name, kind, help }
}

/// [`service_counters!`] callback: the family registry with one `counter`
/// family per scalar service counter spliced between the `head` and `tail`
/// families, plus the emitter of those counter families.
macro_rules! registry {
    (
        { [$($head:tt)*] [$($tail:tt)*] }
        $($field:ident: $family:literal, $help:literal;)*
        ; $($internal:tt)*
    ) => {
        /// The central family registry: **every** family [`Telemetry::render`]
        /// can emit, in page order. Families whose section is conditional
        /// (cache, trace, SLO) are still registered — they are simply absent
        /// from pages rendered without that subsystem.
        pub const FAMILIES: &[FamilyInfo] = &[
            $($head)*
            $(family($family, "counter", $help),)*
            $($tail)*
        ];

        /// Emits the scalar service counter families, in registry order.
        fn render_counters(page: &mut Page, service: &ServiceSnapshot) {
            $(page.open($family).sample($family, service.$field as f64);)*
        }
    };
}

service_counters!(registry! {
    [
        family(
            "taxi_fleet_uptime_seconds",
            "gauge",
            "Time since the fleet started",
        ),
        family("taxi_fleet_shards", "gauge", "Shard slots"),
        family(
            "taxi_fleet_shards_in_rotation",
            "gauge",
            "Shards currently owning ring weight",
        ),
        family(
            "taxi_fleet_resubmitted_total",
            "counter",
            "Orphaned pendings re-adopted onto surviving shards",
        ),
        family(
            "taxi_fleet_orphaned",
            "gauge",
            "Pendings currently orphaned (tickets live)",
        ),
        family(
            "taxi_fleet_reconcile_ticks_total",
            "counter",
            "Reconcile passes completed",
        ),
        family(
            "taxi_fleet_history_samples_total",
            "counter",
            "Samples recorded into the observability history ring",
        ),
        family(
            "taxi_service_uptime_seconds",
            "gauge",
            "Time base of the aggregate service counters",
        ),
        family(
            "taxi_service_captured_at_seconds",
            "gauge",
            "Monotonic capture timestamp of this page (same clock as uptime; diff two pages for exact rates)",
        ),
    ]
    [
        family(
            "taxi_service_solved_fresh_total",
            "counter",
            "Completions that ran the solve pipeline",
        ),
        family(
            "taxi_service_last_snapshot_age_seconds",
            "gauge",
            "Seconds since the last durability snapshot was written",
        ),
        family("taxi_service_mean_batch_size", "gauge", "Mean formed batch size"),
        family(
            "taxi_service_throughput_per_sec",
            "gauge",
            "Completions per second of uptime",
        ),
        family(
            "taxi_service_solve_avoidance_rate",
            "gauge",
            "Fraction of completions that avoided a solve",
        ),
        family(
            "taxi_service_exploration_share",
            "gauge",
            "Fraction of routed solves placed by exploration",
        ),
        family(
            "taxi_service_routed_total",
            "counter",
            "Fresh solves dispatched through the adaptive router, by chosen backend",
        ),
        family(
            "taxi_service_quality_count",
            "counter",
            "Routed solves with a quality ratio observation",
        ),
        family(
            "taxi_service_quality_ratio",
            "gauge",
            "Routed-solve quality ratio against the shadow reference (1.0 = reference)",
        ),
        family(
            "taxi_service_latency_count",
            "counter",
            "Observations per latency histogram",
        ),
        family(
            "taxi_service_latency_seconds",
            "gauge",
            "Latency distribution summaries (conservative bucket upper bounds)",
        ),
        family(
            "taxi_service_stage_seconds_total",
            "counter",
            "Accumulated host seconds per pipeline stage",
        ),
        family(
            "taxi_cache_hits_total",
            "counter",
            "Cache lookups served (exact + remapped)",
        ),
        family(
            "taxi_cache_exact_hits_total",
            "counter",
            "Exact-fingerprint cache hits",
        ),
        family(
            "taxi_cache_remapped_hits_total",
            "counter",
            "Cache hits served through permutation remapping",
        ),
        family("taxi_cache_misses_total", "counter", "Cache lookups that missed"),
        family("taxi_cache_insertions_total", "counter", "Entries inserted"),
        family(
            "taxi_cache_evictions_total",
            "counter",
            "Entries evicted by capacity",
        ),
        family(
            "taxi_cache_expirations_total",
            "counter",
            "Entries expired by TTL",
        ),
        family("taxi_cache_entries", "gauge", "Live cache entries"),
        family("taxi_cache_bytes", "gauge", "Estimated live cache bytes"),
        family("taxi_cache_hit_rate", "gauge", "Lifetime cache hit rate"),
        family(
            "taxi_shard_state",
            "gauge",
            "Shard lifecycle state (1 for the current state)",
        ),
        family(
            "taxi_shard_generation",
            "counter",
            "Service generation (bumped every restart)",
        ),
        family(
            "taxi_shard_in_state_seconds",
            "gauge",
            "Time spent in the current state",
        ),
        family(
            "taxi_shard_stuck",
            "gauge",
            "Whether the shard has overstayed its state SLA",
        ),
        family(
            "taxi_shard_ring_share",
            "gauge",
            "Fraction of the consistent-hash ring owned",
        ),
        family(
            "taxi_shard_queue_depth",
            "gauge",
            "Instantaneous admission-queue depth",
        ),
        family(
            "taxi_shard_healthy",
            "gauge",
            "Effective health verdict (1 healthy, 0 unhealthy)",
        ),
        family(
            "taxi_shard_health_overridden",
            "gauge",
            "Whether an operator override pins the verdict",
        ),
        family("taxi_trace_minted_total", "counter", "Trace ids minted"),
        family(
            "taxi_trace_kept_total",
            "counter",
            "Traces kept by tail sampling",
        ),
        family(
            "taxi_trace_dropped_total",
            "counter",
            "Traces dropped by tail sampling",
        ),
        family(
            "taxi_trace_recorded_spans_total",
            "counter",
            "Spans pushed into the flight recorder",
        ),
        family(
            "taxi_trace_resident_spans",
            "gauge",
            "Spans currently resident in the rings",
        ),
        family("taxi_trace_rings", "gauge", "Registered recorder rings"),
        family(
            "taxi_trace_ring_capacity",
            "gauge",
            "Capacity of each recorder ring",
        ),
        family(
            "taxi_slo_objective",
            "gauge",
            "Configured SLO objective (fraction of good events)",
        ),
        family(
            "taxi_slo_error_budget",
            "gauge",
            "Error budget (1 - objective)",
        ),
        family(
            "taxi_slo_burn_rate",
            "gauge",
            "Windowed error rate over error budget, per alert window",
        ),
        family(
            "taxi_slo_window_events",
            "gauge",
            "Events observed in each alert window",
        ),
        family(
            "taxi_slo_firing",
            "gauge",
            "Whether the SLO's multi-window burn-rate alert is firing",
        ),
    ]
});

/// Looks a family up in the registry (`None` for unregistered names).
pub fn family_info(name: &str) -> Option<&'static FamilyInfo> {
    FAMILIES.iter().find(|info| info.name == name)
}

/// Escapes a label value per the Prometheus exposition format: backslash,
/// double-quote and newline must be escaped inside `label="..."`.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders one `key="value"` label pair with the value escaped.
fn label(key: &str, value: &str) -> String {
    format!("{key}=\"{}\"", escape_label(value))
}

/// One fleet snapshot, renderable as a Prometheus-style text page.
///
/// # Example
///
/// ```
/// use taxi_fleet::{Fleet, FleetConfig, Telemetry};
///
/// let fleet = Fleet::start(FleetConfig::new().with_shards(1));
/// let page = fleet.telemetry().render();
/// assert!(page.contains("taxi_service_completed_total 0"));
/// assert!(page.contains("taxi_shard_state{shard=\"0\",state=\"serving\"} 1"));
/// fleet.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct Telemetry {
    snapshot: FleetSnapshot,
}

/// Formats a sample value: integral values print bare, fractional ones with
/// full round-trip precision.
fn value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Accumulates the exposition page. Families must be declared in [`FAMILIES`]:
/// [`open`](Page::open) panics on an unregistered name, which is what keeps
/// the registry authoritative.
struct Page {
    out: String,
}

impl Page {
    fn new() -> Self {
        Self {
            out: String::with_capacity(8 * 1024),
        }
    }

    /// Writes the `# HELP`/`# TYPE` preamble for a registered metric family.
    fn open(&mut self, name: &str) -> &mut Self {
        let info = family_info(name)
            .unwrap_or_else(|| panic!("family {name} not declared in telemetry::FAMILIES"));
        let _ = writeln!(self.out, "# HELP {} {}", info.name, info.help);
        let _ = writeln!(self.out, "# TYPE {} {}", info.name, info.kind);
        self
    }

    /// Writes one unlabelled sample.
    fn sample(&mut self, name: &str, v: f64) -> &mut Self {
        let _ = writeln!(self.out, "{name} {}", value(v));
        self
    }

    /// Writes one labelled sample; `labels` is the rendered `key="v",...` body
    /// (build pairs with [`label`] so values are escaped).
    fn labelled(&mut self, name: &str, labels: &str, v: f64) -> &mut Self {
        let _ = writeln!(self.out, "{name}{{{labels}}} {}", value(v));
        self
    }
}

/// Emits the three latency histogram summaries as one `*_count` family plus a
/// stat-labelled gauge family (seconds), each family in one block.
fn latencies(page: &mut Page, service: &ServiceSnapshot) {
    let paths = [
        ("queue_wait", &service.queue_wait),
        ("solve", &service.solve),
        ("end_to_end", &service.end_to_end),
    ];
    page.open("taxi_service_latency_count");
    for (path, summary) in paths {
        page.labelled(
            "taxi_service_latency_count",
            &label("path", path),
            summary.count as f64,
        );
    }
    page.open("taxi_service_latency_seconds");
    for (path, summary) in paths {
        for (stat, duration) in [
            ("mean", summary.mean),
            ("p50", summary.p50),
            ("p90", summary.p90),
            ("p99", summary.p99),
            ("max", summary.max),
        ] {
            page.labelled(
                "taxi_service_latency_seconds",
                &format!("{},{}", label("path", path), label("stat", stat)),
                duration.as_secs_f64(),
            );
        }
    }
}

/// Emits the aggregate service section (every [`ServiceSnapshot`] counter).
fn render_service(page: &mut Page, service: &ServiceSnapshot) {
    page.open("taxi_service_uptime_seconds")
        .sample("taxi_service_uptime_seconds", service.uptime.as_secs_f64());
    page.open("taxi_service_captured_at_seconds").sample(
        "taxi_service_captured_at_seconds",
        service.captured_at.as_secs_f64(),
    );
    render_counters(page, service);
    page.open("taxi_service_solved_fresh_total").sample(
        "taxi_service_solved_fresh_total",
        service.solved_fresh() as f64,
    );
    // The family header always renders (the registry is the completeness
    // oracle); the series itself exists only once a snapshot has been written —
    // "absent" is the honest reading of "never", not an age of zero.
    page.open("taxi_service_last_snapshot_age_seconds");
    if let Some(age) = service.last_snapshot_age {
        page.sample("taxi_service_last_snapshot_age_seconds", age.as_secs_f64());
    }
    page.open("taxi_service_mean_batch_size")
        .sample("taxi_service_mean_batch_size", service.mean_batch_size);
    page.open("taxi_service_throughput_per_sec").sample(
        "taxi_service_throughput_per_sec",
        service.throughput_per_sec,
    );
    page.open("taxi_service_solve_avoidance_rate").sample(
        "taxi_service_solve_avoidance_rate",
        service.solve_avoidance_rate(),
    );
    page.open("taxi_service_exploration_share").sample(
        "taxi_service_exploration_share",
        service.exploration_share(),
    );
    page.open("taxi_service_routed_total");
    for (index, backend) in SolverBackend::ALL.iter().enumerate() {
        page.labelled(
            "taxi_service_routed_total",
            &label("backend", backend.label()),
            service.routed_per_backend[index] as f64,
        );
    }
    page.open("taxi_service_quality_count")
        .sample("taxi_service_quality_count", service.quality.count as f64);
    page.open("taxi_service_quality_ratio");
    for (stat, ratio) in [
        ("mean", service.quality.mean),
        ("p50", service.quality.p50),
        ("p95", service.quality.p95),
        ("max", service.quality.max),
    ] {
        page.labelled("taxi_service_quality_ratio", &label("stat", stat), ratio);
    }
    latencies(page, service);
    page.open("taxi_service_stage_seconds_total");
    for (index, stage) in STAGE_LABELS.iter().enumerate() {
        page.labelled(
            "taxi_service_stage_seconds_total",
            &label("stage", stage),
            service.stage_seconds[index],
        );
    }
    if let Some(cache) = &service.cache {
        for (name, count) in [
            ("taxi_cache_hits_total", cache.hits),
            ("taxi_cache_exact_hits_total", cache.exact_hits),
            ("taxi_cache_remapped_hits_total", cache.remapped_hits),
            ("taxi_cache_misses_total", cache.misses),
            ("taxi_cache_insertions_total", cache.insertions),
            ("taxi_cache_evictions_total", cache.evictions),
            ("taxi_cache_expirations_total", cache.expirations),
        ] {
            page.open(name).sample(name, count as f64);
        }
        page.open("taxi_cache_entries")
            .sample("taxi_cache_entries", cache.entries as f64);
        page.open("taxi_cache_bytes")
            .sample("taxi_cache_bytes", cache.bytes as f64);
        page.open("taxi_cache_hit_rate")
            .sample("taxi_cache_hit_rate", cache.hit_rate());
    }
}

impl Telemetry {
    /// Wraps a fleet snapshot for exposition.
    pub fn new(snapshot: FleetSnapshot) -> Self {
        Self { snapshot }
    }

    /// The wrapped snapshot.
    pub fn snapshot(&self) -> &FleetSnapshot {
        &self.snapshot
    }

    /// Renders the full Prometheus-style text page (see the module docs).
    pub fn render(&self) -> String {
        let snapshot = &self.snapshot;
        let mut page = Page::new();
        page.open("taxi_fleet_uptime_seconds")
            .sample("taxi_fleet_uptime_seconds", snapshot.uptime.as_secs_f64());
        page.open("taxi_fleet_shards")
            .sample("taxi_fleet_shards", snapshot.shards.len() as f64);
        page.open("taxi_fleet_shards_in_rotation").sample(
            "taxi_fleet_shards_in_rotation",
            snapshot.in_rotation() as f64,
        );
        page.open("taxi_fleet_resubmitted_total")
            .sample("taxi_fleet_resubmitted_total", snapshot.resubmitted as f64);
        page.open("taxi_fleet_orphaned")
            .sample("taxi_fleet_orphaned", snapshot.orphaned as f64);
        page.open("taxi_fleet_reconcile_ticks_total").sample(
            "taxi_fleet_reconcile_ticks_total",
            snapshot.reconcile_ticks as f64,
        );
        page.open("taxi_fleet_history_samples_total").sample(
            "taxi_fleet_history_samples_total",
            snapshot.history_samples as f64,
        );

        render_service(&mut page, &snapshot.service);

        page.open("taxi_shard_state");
        for shard in &snapshot.shards {
            for state in ShardState::ALL {
                page.labelled(
                    "taxi_shard_state",
                    &format!(
                        "{},{}",
                        label("shard", &shard.id.index().to_string()),
                        label("state", state.label())
                    ),
                    f64::from(u8::from(shard.state == state)),
                );
            }
        }
        for (name, read) in [
            (
                "taxi_shard_generation",
                &(|s: &crate::fleet::ShardSnapshot| s.generation as f64)
                    as &dyn Fn(&crate::fleet::ShardSnapshot) -> f64,
            ),
            ("taxi_shard_in_state_seconds", &|s| s.in_state.as_secs_f64()),
            ("taxi_shard_stuck", &|s| f64::from(u8::from(s.stuck))),
            ("taxi_shard_ring_share", &|s| s.ring_share),
            ("taxi_shard_queue_depth", &|s| s.queue_depth as f64),
            ("taxi_shard_healthy", &|s| {
                f64::from(u8::from(s.verdict == crate::health::HealthVerdict::Healthy))
            }),
            ("taxi_shard_health_overridden", &|s| {
                f64::from(u8::from(s.overridden))
            }),
        ] {
            page.open(name);
            for shard in &snapshot.shards {
                page.labelled(
                    name,
                    &label("shard", &shard.id.index().to_string()),
                    read(shard),
                );
            }
        }

        if let Some(trace) = &snapshot.trace {
            for (name, count) in [
                ("taxi_trace_minted_total", trace.minted),
                ("taxi_trace_kept_total", trace.kept),
                ("taxi_trace_dropped_total", trace.dropped),
                ("taxi_trace_recorded_spans_total", trace.recorded_spans),
                ("taxi_trace_resident_spans", trace.resident_spans),
                ("taxi_trace_rings", trace.rings),
                ("taxi_trace_ring_capacity", trace.ring_capacity),
            ] {
                page.open(name).sample(name, count as f64);
            }
        }

        // One block per SLO family, each holding every rule's samples.
        let alerts = &snapshot.alerts;
        if !alerts.is_empty() {
            let slo = |status: &SloStatus| label("slo", &status.name);
            let windows = |status: &SloStatus| {
                [
                    ("fast", status.fast_burn, status.fast_events),
                    ("slow", status.slow_burn, status.slow_events),
                ]
                .map(|(window, burn, events)| {
                    let labels = format!("{},{}", slo(status), label("window", window));
                    (labels, burn, events as f64)
                })
            };
            page.open("taxi_slo_objective");
            for status in alerts {
                page.labelled("taxi_slo_objective", &slo(status), status.objective);
            }
            page.open("taxi_slo_error_budget");
            for status in alerts {
                page.labelled("taxi_slo_error_budget", &slo(status), status.budget);
            }
            page.open("taxi_slo_burn_rate");
            for status in alerts {
                for (labels, burn, _) in windows(status) {
                    page.labelled("taxi_slo_burn_rate", &labels, burn);
                }
            }
            page.open("taxi_slo_window_events");
            for status in alerts {
                for (labels, _, events) in windows(status) {
                    page.labelled("taxi_slo_window_events", &labels, events);
                }
            }
            page.open("taxi_slo_firing");
            for status in alerts {
                let firing = status.state == AlertState::Firing;
                page.labelled("taxi_slo_firing", &slo(status), f64::from(u8::from(firing)));
            }
        }
        page.out
    }
}

impl Fleet {
    /// The fleet's unified telemetry page: a point-in-time [`Telemetry`] built
    /// from [`snapshot`](Fleet::snapshot) — render it with
    /// [`Telemetry::render`].
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::new(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use std::sync::Arc;
    use std::time::Duration;
    use taxi_dispatch::{DispatchConfig, DispatchRequest};
    use taxi_obs::SloSpec;
    use taxi_trace::{TraceConfig, Tracer};
    use taxi_tsplib::generator::clustered_instance;

    #[test]
    fn page_is_complete_against_the_registry() {
        let tracer = Arc::new(Tracer::new(TraceConfig::new().with_keep_probability(1.0)));
        let fleet = Fleet::start(
            FleetConfig::new()
                .with_shards(2)
                .with_shard_config(DispatchConfig::new().with_workers(1))
                .with_reconcile_interval(Duration::from_millis(5))
                .with_tracer(Arc::clone(&tracer))
                .with_slo(SloSpec::availability("availability", 0.99)),
        );
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                fleet
                    .submit(DispatchRequest::new(clustered_instance("telem", 30, 3, i)))
                    .expect("admitted")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().solved().expect("solved");
        }
        fleet.scrape_now();
        let telemetry = fleet.telemetry();
        let page = telemetry.render();
        // Every registered family appears on a fully-enabled page — the
        // registry, not a hand-maintained list, is the completeness oracle.
        for info in FAMILIES {
            assert!(
                page.contains(&format!("# TYPE {} {}", info.name, info.kind)),
                "family {} missing from page:\n{page}",
                info.name
            );
        }
        // And the page carries no family the registry does not know.
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().expect("family name");
                assert!(
                    family_info(name).is_some(),
                    "page emits unregistered family {name}"
                );
            }
        }
        // Samples match the snapshot the page was rendered from.
        let snapshot = telemetry.snapshot();
        assert!(page.contains(&format!(
            "taxi_service_completed_total {}",
            snapshot.service.completed
        )));
        assert!(page.contains(&format!(
            "taxi_service_submitted_total {}",
            snapshot.service.submitted
        )));
        assert!(page.contains("taxi_slo_firing{slo=\"availability\"} 0"));
        assert!(page.contains(&format!(
            "taxi_fleet_history_samples_total {}",
            snapshot.history_samples
        )));
        let trace = snapshot.trace.as_ref().expect("tracing enabled");
        assert!(page.contains(&format!("taxi_trace_minted_total {}", trace.minted)));
        // Exactly one state sample per shard is 1.
        for shard in 0..2 {
            let ones = ShardState::ALL
                .iter()
                .filter(|state| {
                    page.contains(&format!(
                        "taxi_shard_state{{shard=\"{shard}\",state=\"{}\"}} 1",
                        state.label()
                    ))
                })
                .count();
            assert_eq!(ones, 1, "shard {shard} must be in exactly one state");
        }
        fleet.shutdown();
    }

    #[test]
    fn cache_trace_and_slo_sections_are_omitted_when_absent() {
        let fleet = Fleet::start(
            FleetConfig::new()
                .with_shards(1)
                .with_shard_config(DispatchConfig::new().with_workers(1))
                .without_cache(),
        );
        let page = fleet.telemetry().render();
        assert!(!page.contains("taxi_cache_"));
        assert!(!page.contains("taxi_trace_"));
        assert!(!page.contains("taxi_slo_"));
        assert!(page.contains("taxi_service_completed_total 0"));
        fleet.shutdown();
    }

    #[test]
    fn label_values_are_escaped_per_the_exposition_format() {
        assert_eq!(
            label("slo", "p99 \"fast\"\\slow\nline"),
            "slo=\"p99 \\\"fast\\\"\\\\slow\\nline\""
        );
        let fleet = Fleet::start(
            FleetConfig::new()
                .with_shards(1)
                .with_shard_config(DispatchConfig::new().with_workers(1))
                .with_reconcile_interval(Duration::from_millis(5))
                .with_slo(SloSpec::availability("avail \"99\"", 0.99)),
        );
        fleet.scrape_now();
        let page = fleet.telemetry().render();
        assert!(
            page.contains("taxi_slo_firing{slo=\"avail \\\"99\\\"\"} 0"),
            "quoted SLO name must render escaped:\n{page}"
        );
        fleet.shutdown();
    }
}
