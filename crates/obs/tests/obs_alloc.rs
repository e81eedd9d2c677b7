//! Allocation-counting proof that the observability pipeline is
//! zero-allocation in steady state.
//!
//! The history store allocates at construction (ring slots, staging sample)
//! and the SLO engine when its specs are added (names, statuses) — that is
//! warm-up. After it, the entire scrape path — capturing a [`FleetSample`]
//! from a [`SampleSource`], recording it into the ring, materialising fleet
//! and shard windows, and evaluating every SLO rule — must perform **zero
//! heap allocations**, no matter how many times the ring wraps. That property
//! is what makes an always-on scraper safe at high cadence; this test is its
//! proof, in the style of `trace/tests/trace_alloc.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use taxi::SolverBackend;
use taxi_alloc_count::{allocations, CountingAllocator};
use taxi_dispatch::ServiceMetrics;
use taxi_obs::{
    FleetSample, HistoryStore, SampleSource, ServiceWindow, ShardWindow, SloEngine, SloSpec,
};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const SHARDS: usize = 4;

/// A live metrics surface standing in for the fleet's control state: every
/// scrape captures the same cumulative [`ServiceMetrics`] into each shard
/// slot and stamps a monotone timestamp.
struct LiveSource {
    metrics: ServiceMetrics,
    ticks: AtomicU64,
}

impl SampleSource for LiveSource {
    fn sample_into(&self, sample: &mut FleetSample) {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        sample.reset(SHARDS);
        sample.at = Duration::from_millis(tick * 10);
        sample.fleet.fill_from(&self.metrics);
        for shard in 0..SHARDS {
            sample.shards[shard].live = true;
            sample.shards[shard].generation = 1;
            sample.shards[shard].in_rotation = true;
            sample.shards[shard].queue_depth = 3;
            sample.shards[shard].queue_capacity = 64;
            sample.shards[shard].counters = sample.fleet;
        }
    }
}

/// One scrape tick's worth of traffic plus the full read-side surface.
fn tick(
    source: &LiveSource,
    store: &HistoryStore,
    engine: &mut SloEngine,
    fleet_window: &mut ServiceWindow,
    shard_window: &mut ShardWindow,
    latest: &mut FleetSample,
) {
    // Some live traffic between scrapes (atomic increments, never the heap).
    source.metrics.record_submitted();
    source.metrics.record_completed(
        Duration::from_micros(40),
        Duration::from_micros(900),
        Duration::from_micros(1_000),
        false,
        false,
    );
    source.metrics.record_routed(
        SolverBackend::ALL[0],
        false,
        Some(1.05),
        Duration::from_micros(900),
    );
    // Scrape → ring (through the staging slot, like the background scraper).
    store.record_from(source);
    // Window materialisation into preallocated outs.
    store.fleet_window_into(Duration::from_millis(50), fleet_window);
    for shard in 0..SHARDS {
        store.shard_window_into(shard, Duration::from_millis(50), shard_window);
    }
    store.latest_into(latest);
    // Every SLO rule, every tick.
    engine.evaluate(store);
}

#[test]
fn scrape_window_and_slo_evaluation_are_allocation_free_after_warmup() {
    // A small ring so the steady-state round wraps it many times over —
    // overwrite-oldest must not allocate either.
    let store = HistoryStore::new(32, SHARDS);
    let source = LiveSource {
        metrics: ServiceMetrics::new(),
        ticks: AtomicU64::new(0),
    };
    let mut engine = SloEngine::new(vec![
        SloSpec::availability("availability", 0.999),
        SloSpec::deadline_hits("deadline", 0.99),
        SloSpec::latency_below("p-latency", Duration::from_micros(1_024), 0.95),
        SloSpec::quality_below("quality", 1.2, 0.9),
    ]);
    let mut fleet_window = ServiceWindow::default();
    let mut shard_window = ShardWindow::default();
    let mut latest = FleetSample::new(SHARDS);

    // Warm-up: touch every code path (including ring wrap) once.
    for _ in 0..64 {
        tick(
            &source,
            &store,
            &mut engine,
            &mut fleet_window,
            &mut shard_window,
            &mut latest,
        );
    }

    // Steady state: scrape → ring → window → SLO must not touch the heap.
    let before = allocations();
    for _ in 0..2_000 {
        tick(
            &source,
            &store,
            &mut engine,
            &mut fleet_window,
            &mut shard_window,
            &mut latest,
        );
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state observability pipeline performed {delta} allocations"
    );

    assert_eq!(store.recorded(), 2_064);
    assert_eq!(store.len(), 32);
    assert_eq!(engine.evaluations(), 2_064);
    // The pipeline really measured traffic: the fleet window saw completions
    // and the healthy stream left every rule quiet.
    assert!(fleet_window.completed > 0);
    assert_eq!(engine.firing(), 0);
}
