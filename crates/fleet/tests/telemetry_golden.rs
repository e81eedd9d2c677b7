//! Golden exposition: a hand-built [`FleetSnapshot`] with every section present
//! (cache, trace, one shard, two SLOs) and a distinct non-zero value in every
//! counter renders to the committed page byte for byte, and its service
//! snapshot's `to_json` carries the committed keys and values.
//!
//! The page also obeys the exposition format's grouping rule: each family's
//! samples form one block under its own `# HELP`/`# TYPE` header, no header
//! repeats, and the blocks follow the registry order.

use std::time::Duration;

use taxi::SolutionCacheStats;
use taxi_bench::json::{parse, Parsed};
use taxi_dispatch::{HistogramSummary, QualitySummary, ServiceSnapshot};
use taxi_fleet::health::{HealthReport, HealthVerdict};
use taxi_fleet::telemetry::FAMILIES;
use taxi_fleet::{
    AlertState, FleetSnapshot, ShardId, ShardSnapshot, ShardState, SloStatus, Telemetry,
};
use taxi_trace::TracerStats;

const GOLDEN_PAGE: &str = include_str!("golden/telemetry.prom");
const GOLDEN_JSON: &str = include_str!("golden/service_snapshot.json");

fn micros(us: u64) -> Duration {
    Duration::from_micros(us)
}

fn latency(base: u64) -> HistogramSummary {
    HistogramSummary {
        count: base,
        mean: micros(base * 10 + 1),
        p50: micros(base * 10 + 2),
        p90: micros(base * 10 + 3),
        p99: micros(base * 10 + 4),
        max: micros(base * 10 + 5),
    }
}

fn service() -> ServiceSnapshot {
    ServiceSnapshot {
        uptime: Duration::from_millis(12_345),
        captured_at: Duration::from_millis(12_346),
        submitted: 101,
        completed: 97,
        failed: 3,
        shed: 4,
        rejected: 5,
        degraded: 6,
        deadline_misses: 7,
        cache_hits: 21,
        coalesced: 13,
        cache: Some(SolutionCacheStats {
            hits: 31,
            exact_hits: 29,
            remapped_hits: 2,
            misses: 37,
            insertions: 36,
            evictions: 8,
            expirations: 9,
            entries: 19,
            bytes: 40_960,
        }),
        routed_per_backend: [41, 42, 43, 44],
        explored: 11,
        worker_panics: 1,
        snapshots_written: 14,
        snapshots_restored: 15,
        snapshots_rejected: 16,
        last_snapshot_age: Some(Duration::from_millis(2_500)),
        quality: QualitySummary {
            count: 170,
            mean: 1.0125,
            p50: 1.01,
            p95: 1.05,
            max: 1.2,
        },
        batches: 23,
        mean_batch_size: 2.75,
        throughput_per_sec: 7.875,
        queue_wait: latency(51),
        solve: latency(52),
        end_to_end: latency(53),
        stage_seconds: [0.5, 0.25, 4.125, 0.375, 0.0625],
    }
}

fn fleet_snapshot() -> FleetSnapshot {
    FleetSnapshot {
        uptime: Duration::from_millis(20_000),
        service: service(),
        shards: vec![ShardSnapshot {
            id: ShardId::new(0),
            state: ShardState::Serving,
            generation: 2,
            in_state: Duration::from_millis(1_500),
            stuck: true,
            ring_share: 0.875,
            verdict: HealthVerdict::Healthy,
            overridden: true,
            reports: Vec::<HealthReport>::new(),
            queue_depth: 3,
            service: None,
        }],
        resubmitted: 61,
        orphaned: 62,
        reconcile_ticks: 64,
        trace: Some(TracerStats {
            minted: 71,
            kept: 72,
            dropped: 73,
            recorded_spans: 74,
            resident_spans: 75,
            rings: 76,
            ring_capacity: 77,
        }),
        alerts: vec![
            SloStatus {
                name: "availability".to_string(),
                state: AlertState::Ok,
                fast_burn: 0.5,
                slow_burn: 0.25,
                fast_events: 81,
                slow_events: 82,
                budget: 0.01,
                objective: 0.99,
            },
            SloStatus {
                name: "latency \"p99\"".to_string(),
                state: AlertState::Firing,
                fast_burn: 3.5,
                slow_burn: 2.25,
                fast_events: 83,
                slow_events: 84,
                budget: 0.05,
                objective: 0.95,
            },
        ],
        history_samples: 91,
    }
}

/// First differing line, for a readable failure.
fn first_difference(expected: &str, actual: &str) -> String {
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a);
    match mismatch {
        Some((index, (e, a))) => format!("line {}: expected `{e}`, got `{a}`", index + 1),
        None => format!(
            "line counts differ: expected {}, got {}",
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}

#[test]
fn page_matches_the_golden_exposition() {
    let page = Telemetry::new(fleet_snapshot()).render();
    assert!(
        page == GOLDEN_PAGE,
        "page differs from tests/golden/telemetry.prom ({}); full page:\n{page}",
        first_difference(GOLDEN_PAGE, &page)
    );
}

/// Objects with their keys sorted, recursively: key order is free, keys and
/// values are not.
fn sorted(value: &Parsed) -> Parsed {
    match value {
        Parsed::Object(fields) => {
            let mut fields: Vec<(String, Parsed)> = fields
                .iter()
                .map(|(key, value)| (key.clone(), sorted(value)))
                .collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Parsed::Object(fields)
        }
        Parsed::Array(items) => Parsed::Array(items.iter().map(sorted).collect()),
        other => other.clone(),
    }
}

#[test]
fn to_json_matches_the_golden_keys_and_values() {
    let actual = parse(&service().to_json()).expect("to_json emits valid JSON");
    let golden = parse(GOLDEN_JSON).expect("golden JSON parses");
    let mut keys = actual.keys();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), actual.keys().len(), "duplicate top-level key");
    let mut golden_keys = golden.keys();
    golden_keys.sort_unstable();
    assert_eq!(keys, golden_keys);
    for key in keys {
        assert_eq!(
            sorted(actual.get(key).expect("key present")),
            sorted(golden.get(key).expect("key present")),
            "value of `{key}`"
        );
    }
}

#[test]
fn every_family_is_one_block_in_registry_order() {
    let page = Telemetry::new(fleet_snapshot()).render();
    let mut headers: Vec<&str> = Vec::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().expect("family name");
            assert!(!headers.contains(&name), "family {name} has two headers");
            headers.push(name);
        } else if !line.starts_with('#') {
            let sample = line.split(['{', ' ']).next().expect("sample name");
            assert_eq!(
                Some(&sample),
                headers.last(),
                "sample `{line}` is outside its family's block"
            );
        }
    }
    // Every section is present, so the page shows every registered family.
    let registry: Vec<&str> = FAMILIES.iter().map(|info| info.name).collect();
    assert_eq!(headers, registry, "page order differs from FAMILIES");
}
