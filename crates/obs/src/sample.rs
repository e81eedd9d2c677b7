//! Sample types: the point-in-time counter captures the ring stores.
//!
//! A [`FleetSample`] is a plain-old-data capture of every cumulative counter
//! and raw histogram bucket array of a fleet — fleet-wide totals plus one
//! [`ShardSample`] per shard. Samples are **cumulative**, not windowed: the
//! windowed views in [`window`](crate::window) are derived later by
//! subtracting two samples. Keeping the ring cumulative is what makes windows
//! of *any* span computable after the fact, and what makes recording cheap —
//! one relaxed atomic load per counter, no aggregation.

use std::time::Duration;

use taxi::{SolutionCacheStats, SolverBackend};
use taxi_dispatch::{
    counter_fields, service_counters, HistogramBuckets, QualityBuckets, ServiceMetrics,
};

/// Number of routed solver backends (sizing for per-backend arrays).
pub const BACKENDS: usize = SolverBackend::ALL.len();

/// Per-backend cumulative capture: routed count plus the backend's solve
/// latency and quality-ratio bucket arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendCounters {
    /// Fresh solves the router placed on this backend.
    pub routed: u64,
    /// Solve latency buckets of this backend's routed solves.
    pub solve: HistogramBuckets,
    /// Quality-ratio buckets of this backend's routed solves.
    pub quality: QualityBuckets,
}

service_counters!(counter_fields! {
    /// Cumulative counter capture of one dispatch service (or a fleet-wide
    /// merge of several): every scalar counter plus the raw bucket arrays of
    /// every histogram, copied without allocation.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct ServiceCounters {
        /// Statistics of the attached solution cache, when one exists.
        pub cache: Option<SolutionCacheStats>,
        /// Queue-wait latency buckets.
        pub queue_wait: HistogramBuckets,
        /// Solve latency buckets.
        pub solve: HistogramBuckets,
        /// End-to-end latency buckets.
        pub end_to_end: HistogramBuckets,
        /// Quality-ratio buckets of routed solves.
        pub quality: QualityBuckets,
        /// Per-backend lanes, indexed like [`SolverBackend::ALL`].
        pub per_backend: [BackendCounters; BACKENDS],
    }
});

/// [`service_counters!`] callback: the scalar half of
/// [`ServiceCounters::fill_from`] and [`ServiceCounters::accumulate`].
macro_rules! scalar_counters {
    (
        {}
        $($field:ident: $family:literal, $help:literal;)*
        ; $($internal:tt)*
    ) => {
        impl ServiceCounters {
            fn load_scalars(&mut self, metrics: &ServiceMetrics) {
                $(self.$field = metrics.$field();)*
            }

            fn add_scalars(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

service_counters!(scalar_counters! {});

fn add_hist(into: &mut HistogramBuckets, from: &HistogramBuckets) {
    for (mine, theirs) in into.counts.iter_mut().zip(&from.counts) {
        *mine += theirs;
    }
    into.count += from.count;
    into.sum_nanos = into.sum_nanos.saturating_add(from.sum_nanos);
    into.max_nanos = into.max_nanos.max(from.max_nanos);
}

fn add_quality(into: &mut QualityBuckets, from: &QualityBuckets) {
    for (mine, theirs) in into.counts.iter_mut().zip(&from.counts) {
        *mine += theirs;
    }
    into.count += from.count;
    into.sum_micro = into.sum_micro.saturating_add(from.sum_micro);
    into.max_micro = into.max_micro.max(from.max_micro);
}

impl ServiceCounters {
    /// Resets every counter to zero (the accumulation identity).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Captures every counter and raw histogram bucket of `metrics`, without
    /// allocating. The `cache` field is left `None` — a bare
    /// [`ServiceMetrics`] has no attached cache; callers that do have one
    /// assign it afterwards.
    pub fn fill_from(&mut self, metrics: &ServiceMetrics) {
        self.load_scalars(metrics);
        self.cache = None;
        metrics
            .queue_wait_histogram()
            .load_into(&mut self.queue_wait);
        metrics.solve_histogram().load_into(&mut self.solve);
        metrics
            .end_to_end_histogram()
            .load_into(&mut self.end_to_end);
        metrics.quality_histogram().load_into(&mut self.quality);
        for (index, backend) in SolverBackend::ALL.iter().enumerate() {
            let lane = &mut self.per_backend[index];
            lane.routed = metrics.routed(*backend);
            metrics
                .backend_solve_histogram(*backend)
                .load_into(&mut lane.solve);
            metrics
                .backend_quality_histogram(*backend)
                .load_into(&mut lane.quality);
        }
    }

    /// Adds `other` element-wise into `self` — the fleet-level aggregation
    /// (retired generations + every live shard) at capture time. Histograms
    /// add bucket-wise, so the aggregate is exact at bucket resolution.
    pub fn accumulate(&mut self, other: &Self) {
        self.add_scalars(other);
        if let Some(theirs) = &other.cache {
            self.cache
                .get_or_insert_with(SolutionCacheStats::default)
                .accumulate(theirs);
        }
        add_hist(&mut self.queue_wait, &other.queue_wait);
        add_hist(&mut self.solve, &other.solve);
        add_hist(&mut self.end_to_end, &other.end_to_end);
        add_quality(&mut self.quality, &other.quality);
        for (mine, theirs) in self.per_backend.iter_mut().zip(&other.per_backend) {
            mine.routed += theirs.routed;
            add_hist(&mut mine.solve, &theirs.solve);
            add_quality(&mut mine.quality, &theirs.quality);
        }
    }
}

/// Cumulative capture of one shard at one instant.
///
/// Shard counters are **per-generation**: a recycled shard restarts its
/// service (and therefore its counters) from zero, which is why windowed
/// consumers must never subtract across a generation bump — the
/// [`HistoryStore`](crate::HistoryStore) guards this with the `generation`
/// field. The fleet-level [`FleetSample::fleet`] aggregate stays monotone
/// across bumps because retired generations are merged into it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardSample {
    /// Whether the shard had a live service at capture time (a `Failed` or
    /// `Stopped` shard has none; its slot records zeroes).
    pub live: bool,
    /// Service generation the counters belong to.
    pub generation: u64,
    /// Whether the shard was in the routing ring.
    pub in_rotation: bool,
    /// Instantaneous admission-queue depth.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// The shard's cumulative counters (zeroed when not `live`).
    pub counters: ServiceCounters,
}

/// One ring slot: a full cumulative capture of the fleet at one instant.
#[derive(Debug, PartialEq)]
pub struct FleetSample {
    /// Monotonic capture timestamp — an offset on the sampled system's own
    /// clock (the fleet stamps its uptime). Windows are selected by comparing
    /// these offsets, so cadence jitter between producers is harmless.
    pub at: Duration,
    /// Fleet-wide aggregate: retired generations plus every live shard,
    /// merged bucket-exactly. Monotone non-decreasing across samples.
    pub fleet: ServiceCounters,
    /// Per-shard captures, indexed by shard.
    pub shards: Vec<ShardSample>,
}

// Hand-written so `clone_from` reuses the destination's shard buffer — the
// derived fallback (`*self = source.clone()`) reallocates the Vec, which
// would put an allocation on the steady-state record path
// (`tests/obs_alloc.rs` holds the zero-allocation property).
impl Clone for FleetSample {
    fn clone(&self) -> Self {
        Self {
            at: self.at,
            fleet: self.fleet,
            shards: self.shards.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.at = source.at;
        self.fleet = source.fleet;
        // `ShardSample` is plain `Copy` data: resize + copy never allocates
        // once the destination has warmed to the source's shard count.
        self.shards
            .resize(source.shards.len(), ShardSample::default());
        self.shards.copy_from_slice(&source.shards);
    }
}

impl FleetSample {
    /// Creates a zeroed sample with `shards` preallocated shard slots.
    pub fn new(shards: usize) -> Self {
        Self {
            at: Duration::ZERO,
            fleet: ServiceCounters::default(),
            shards: vec![ShardSample::default(); shards],
        }
    }

    /// Zeroes the sample in place, adjusting the shard slot count without
    /// reallocating when `shards` is within the existing capacity.
    pub fn reset(&mut self, shards: usize) {
        self.at = Duration::ZERO;
        self.fleet.clear();
        self.shards.resize(shards, ShardSample::default());
        for shard in &mut self.shards {
            *shard = ShardSample::default();
        }
    }
}

/// Anything a [`Scraper`](crate::Scraper) can sample: fills a [`FleetSample`]
/// in place (including its `at` timestamp) without allocating in steady
/// state. The fleet implements this over its control state.
pub trait SampleSource: Send + Sync {
    /// Captures the current cumulative counters into `sample`.
    fn sample_into(&self, sample: &mut FleetSample);
}
