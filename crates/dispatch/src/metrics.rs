//! Service observability: lock-free counters, fixed-bucket latency histograms, and
//! the [`ServiceSnapshot`] read model.
//!
//! Everything here is plain atomics (`Relaxed` — metrics are advisory, never a
//! synchronisation edge), so workers record on the hot path without locks or heap
//! allocation. Per-stage solve timings arrive through [`MetricsObserver`], a
//! [`PipelineObserver`] implementation that each worker owns by value: it holds an
//! `Arc` of the shared metrics and is therefore freely `Send` into worker threads —
//! no `unsafe`, no locking, unlike wrapping a stateful observer in
//! [`taxi::SharedObserver`] (which remains the right tool for arbitrary mutable
//! observers).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taxi::{PipelineObserver, SolutionCacheStats, SolverBackend, Stage, StageReport};

/// Number of log-spaced histogram buckets: bucket `i` counts latencies in
/// `(2^(i-1) µs, 2^i µs]`, so the range spans 1µs .. ~9 minutes before saturating
/// into the last bucket.
const BUCKETS: usize = 30;

/// A fixed-bucket, lock-free latency histogram (power-of-two microsecond buckets).
///
/// Recording is wait-free (one atomic add per bucket/count/sum plus a CAS-free max
/// update); quantiles are estimated as the upper bound of the bucket containing the
/// target rank, so they are conservative (never under-report) with at most 2×
/// resolution error — plenty for p50/p99 service dashboards.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use taxi_dispatch::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for micros in [90, 110, 130, 4000] {
///     h.record(Duration::from_micros(micros));
/// }
/// let summary = h.summary();
/// assert_eq!(summary.count, 4);
/// // Conservative: the estimate never under-reports the true quantile.
/// assert!(summary.p50 >= Duration::from_micros(110));
/// assert_eq!(summary.max, Duration::from_micros(4000));
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Number of buckets (bucket `i` covers `(2^(i-1) µs, 2^i µs]`; the last is
    /// open-ended). Windowed consumers size their delta arrays with this.
    pub const BUCKETS: usize = BUCKETS;

    fn bucket_index(duration: Duration) -> usize {
        // Saturate, don't truncate: `as u64` on a u128 keeps the low 64 bits, which
        // would scatter week-plus outliers into arbitrary low buckets instead of the
        // open-ended last one.
        let micros = (duration.as_nanos() / 1_000)
            .max(1)
            .min(u128::from(u64::MAX)) as u64;
        // ceil(log2(micros)): 1µs → bucket 0, (1µs, 2µs] → 1, (2µs, 4µs] → 2, ...
        let index = 64 - (micros - 1).leading_zeros() as usize;
        index.min(BUCKETS - 1)
    }

    /// Upper bound of bucket `index` (the value quantile estimation reports).
    /// The last bucket is open-ended; this is its *lower* neighbourhood bound.
    pub fn bucket_upper(index: usize) -> Duration {
        Duration::from_micros(1u64 << index.min(BUCKETS - 1))
    }

    /// Index of the bucket `duration` falls into — the public face of the
    /// bucketing rule, so windowed consumers (e.g. an SLO engine counting
    /// observations above a latency target) can align thresholds to bucket
    /// boundaries.
    pub fn bucket_of(duration: Duration) -> usize {
        Self::bucket_index(duration)
    }

    /// Copies the raw bucket counts and scalar tallies into `out` without
    /// allocating — the feed for time-series scrapers that compute *windowed*
    /// percentiles from bucket deltas rather than lifetime cumulatives.
    pub fn load_into(&self, out: &mut HistogramBuckets) {
        for (slot, bucket) in out.counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum_nanos = self.sum_nanos.load(Ordering::Relaxed);
        out.max_nanos = self.max_nanos.load(Ordering::Relaxed);
    }

    /// Raw bucket counts and scalar tallies, by value.
    pub fn buckets(&self) -> HistogramBuckets {
        let mut out = HistogramBuckets::default();
        self.load_into(&mut out);
        out
    }

    /// Records one observation.
    pub fn record(&self, duration: Duration) {
        let nanos = duration.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(duration)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the bucket holding
    /// the target rank, clamped to the observed maximum. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                let max = Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed));
                if index == BUCKETS - 1 {
                    // The last bucket is open-ended; its only honest upper bound is
                    // the observed maximum.
                    return max;
                }
                return Self::bucket_upper(index).min(max);
            }
        }
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Mean observation. Zero when empty.
    pub fn mean(&self) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed) / count)
    }

    /// Largest observation.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Immutable summary (count, mean, p50/p90/p99, max).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Adds every observation recorded in `other` into this histogram.
    ///
    /// The merge is **exact** at histogram resolution: buckets, counts, sums and
    /// maxima add cell-wise, so quantiles of the merged histogram equal the
    /// quantiles of one histogram fed the union of both observation streams. This
    /// is what lets a fleet aggregate per-shard latency distributions without
    /// losing percentile fidelity (merging only `HistogramSummary` quantiles
    /// cannot be exact).
    ///
    /// # Example
    ///
    /// ```
    /// use std::time::Duration;
    /// use taxi_dispatch::LatencyHistogram;
    ///
    /// let (a, b, union) = (
    ///     LatencyHistogram::new(),
    ///     LatencyHistogram::new(),
    ///     LatencyHistogram::new(),
    /// );
    /// for micros in [10u64, 200, 3000] {
    ///     a.record(Duration::from_micros(micros));
    ///     union.record(Duration::from_micros(micros));
    /// }
    /// for micros in [55u64, 80_000] {
    ///     b.record(Duration::from_micros(micros));
    ///     union.record(Duration::from_micros(micros));
    /// }
    /// a.merge_from(&b);
    /// assert_eq!(a.summary(), union.summary());
    /// ```
    pub fn merge_from(&self, other: &Self) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(other.sum_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_nanos
            .fetch_max(other.max_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time summary of one [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean latency.
    pub mean: Duration,
    /// Estimated median.
    pub p50: Duration,
    /// Estimated 90th percentile.
    pub p90: Duration,
    /// Estimated 99th percentile.
    pub p99: Duration,
    /// Observed maximum.
    pub max: Duration,
}

/// Raw contents of one [`LatencyHistogram`]: per-bucket counts plus the scalar
/// tallies, captured without allocation via [`LatencyHistogram::load_into`].
///
/// Two captures of the same histogram subtract bucket-wise into an *exact*
/// windowed histogram of just the observations recorded between them — the
/// primitive behind windowed percentiles (`taxi-obs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramBuckets {
    /// Per-bucket observation counts, indexed like the histogram's buckets.
    pub counts: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_nanos: u64,
    /// Largest observation in nanoseconds (lifetime, not resettable).
    pub max_nanos: u64,
}

impl Default for HistogramBuckets {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

/// Bucket upper bounds of the [`QualityHistogram`] (the last bucket is open-ended).
const QUALITY_BOUNDS: [f64; 8] = [1.001, 1.01, 1.02, 1.05, 1.10, 1.20, 1.50, 2.00];

/// A fixed-bucket, lock-free histogram of tour-cost **quality ratios** (solve cost /
/// shadow reference, ≥ 1.0; see [`taxi::router::BackendProfiler`]).
///
/// Buckets are anchored at operator-meaningful thresholds (≤ 0.1%, 1%, 2%, 5%, 10%,
/// 20%, 50%, 100% above reference, worse). Like [`LatencyHistogram`], recording is
/// wait-free and quantiles are conservative bucket upper bounds.
///
/// # Example
///
/// ```
/// use taxi_dispatch::QualityHistogram;
///
/// let h = QualityHistogram::new();
/// h.record(1.0);
/// h.record(1.04);
/// h.record(1.3);
/// let summary = h.summary();
/// assert_eq!(summary.count, 3);
/// assert!(summary.mean > 1.0 && summary.mean < 1.2);
/// assert!(summary.p95 >= 1.3);
/// ```
#[derive(Debug)]
pub struct QualityHistogram {
    buckets: [AtomicU64; QUALITY_BOUNDS.len() + 1],
    count: AtomicU64,
    /// Sum of ratios in millionths (ratio × 1e6), for the mean.
    sum_micro: AtomicU64,
    /// Largest ratio in millionths.
    max_micro: AtomicU64,
}

impl QualityHistogram {
    /// Number of buckets (one per bound in [`Self::BOUNDS`] plus the open-ended
    /// worst bucket).
    pub const BUCKETS: usize = QUALITY_BOUNDS.len() + 1;

    /// Bucket upper bounds; ratios above the last bound land in the open-ended
    /// final bucket.
    pub const BOUNDS: [f64; 8] = QUALITY_BOUNDS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
            max_micro: AtomicU64::new(0),
        }
    }

    /// Copies the raw bucket counts and scalar tallies into `out` without
    /// allocating — the quality-side twin of [`LatencyHistogram::load_into`].
    pub fn load_into(&self, out: &mut QualityBuckets) {
        for (slot, bucket) in out.counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum_micro = self.sum_micro.load(Ordering::Relaxed);
        out.max_micro = self.max_micro.load(Ordering::Relaxed);
    }

    /// Raw bucket counts and scalar tallies, by value.
    pub fn buckets(&self) -> QualityBuckets {
        let mut out = QualityBuckets::default();
        self.load_into(&mut out);
        out
    }

    /// Records one quality ratio (non-finite values are ignored; values below 1.0
    /// clamp to 1.0 — a solve cannot beat its own reference by construction).
    pub fn record(&self, ratio: f64) {
        if !ratio.is_finite() {
            return;
        }
        let ratio = ratio.max(1.0);
        let index = QUALITY_BOUNDS
            .iter()
            .position(|&bound| ratio <= bound)
            .unwrap_or(QUALITY_BOUNDS.len());
        let micro = (ratio * 1e6).min(u64::MAX as f64) as u64;
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
        self.max_micro.fetch_max(micro, Ordering::Relaxed);
    }

    /// Number of recorded ratios.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile: the upper bound of the bucket holding the target
    /// rank, clamped to the observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let max = self.max_micro.load(Ordering::Relaxed) as f64 * 1e-6;
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return match QUALITY_BOUNDS.get(index) {
                    Some(&bound) => bound.min(max),
                    None => max,
                };
            }
        }
        max
    }

    /// Mean recorded ratio (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum_micro.load(Ordering::Relaxed) as f64 * 1e-6 / count as f64
    }

    /// Immutable summary (count, mean, p50/p95, max).
    pub fn summary(&self) -> QualitySummary {
        QualitySummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            max: self.max_micro.load(Ordering::Relaxed) as f64 * 1e-6,
        }
    }

    /// Adds every ratio recorded in `other` into this histogram — the exact
    /// bucket-wise merge, mirroring [`LatencyHistogram::merge_from`].
    pub fn merge_from(&self, other: &Self) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_micro
            .fetch_add(other.sum_micro.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_micro
            .fetch_max(other.max_micro.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for QualityHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Raw contents of one [`QualityHistogram`], captured without allocation via
/// [`QualityHistogram::load_into`]. Subtracting two captures bucket-wise yields
/// the exact quality distribution of the interval between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QualityBuckets {
    /// Per-bucket ratio counts (bucket `i` ≤ `BOUNDS[i]`; last is open-ended).
    pub counts: [u64; QUALITY_BOUNDS.len() + 1],
    /// Total ratios recorded.
    pub count: u64,
    /// Sum of ratios in millionths.
    pub sum_micro: u64,
    /// Largest ratio in millionths (lifetime, not resettable).
    pub max_micro: u64,
}

/// Point-in-time summary of one [`QualityHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualitySummary {
    /// Number of ratios recorded.
    pub count: u64,
    /// Mean quality ratio (1.0 = reference quality).
    pub mean: f64,
    /// Estimated median ratio.
    pub p50: f64,
    /// Estimated 95th-percentile ratio.
    pub p95: f64,
    /// Worst observed ratio.
    pub max: f64,
}

/// The scalar service counters: the one declaration of each.
///
/// Every exported row — field, `taxi_service_*` family name, help text — turns
/// into an atomic and a typed getter on [`ServiceMetrics`], a field and a JSON
/// key on [`ServiceSnapshot`], a family on the fleet's telemetry page, and a
/// field of `taxi-obs`'s cumulative captures and windows. Exported counters
/// merge by sum. The rows after `;` are hub-internal inputs of derived gauges
/// (mean batch size, last-snapshot age), with the atomic operation that merges
/// them. Adding a counter is one row here plus the `record_*` call that bumps
/// it.
///
/// The macro hands the rows to a callback macro, after one token tree of the
/// caller's own input: `service_counters!(callback! { ... })` expands to
/// `callback! { { ... } <rows> }`.
#[macro_export]
macro_rules! service_counters {
    ($callback:ident ! $input:tt) => {
        $callback! {
            $input
            submitted: "taxi_service_submitted_total", "Requests admitted";
            completed: "taxi_service_completed_total", "Requests solved successfully";
            failed: "taxi_service_failed_total", "Requests whose solve failed";
            shed: "taxi_service_shed_total", "Requests shed by admission";
            rejected: "taxi_service_rejected_total", "Submissions refused outright";
            degraded: "taxi_service_degraded_total", "Completions served degraded";
            deadline_misses: "taxi_service_deadline_misses_total",
                "Completions resolved after their deadline";
            cache_hits: "taxi_service_cache_hits_total",
                "Completions served from the solution cache";
            coalesced: "taxi_service_coalesced_total",
                "Completions coalesced onto another request's solve";
            worker_panics: "taxi_service_worker_panics_total",
                "Contained worker solve panics (fleet crash signal)";
            explored: "taxi_service_explored_total",
                "Routed solves placed by the exploration arm";
            snapshots_written: "taxi_service_snapshots_written_total",
                "Durability snapshots written (periodic + shutdown)";
            snapshots_restored: "taxi_service_snapshots_restored_total",
                "Durability snapshots restored at service start";
            snapshots_rejected: "taxi_service_snapshots_rejected_total",
                "Durability snapshots rejected (corrupt/skewed restore or failed write)";
            batches: "taxi_service_batches_total", "Micro-batches formed";
            ;
            // Requests summed over formed micro-batches (mean batch size).
            batched_requests: fetch_add;
            // When the last snapshot was written, as nanoseconds since the hub
            // started (0 = never). The aggregate keeps the most recent: each hub
            // counts from its own start, and fleet members share one process
            // epoch to within thread-spawn skew.
            last_snapshot_nanos: fetch_max;
        }
    };
}

/// [`service_counters!`] callback: appends one `pub <field>: u64` per exported
/// counter, documented with its help text, to the struct definition it is given.
#[doc(hidden)]
#[macro_export]
macro_rules! counter_fields {
    (
        {
            $(#[$attr:meta])*
            $vis:vis struct $name:ident { $($body:tt)* }
        }
        $($field:ident: $family:literal, $help:literal;)*
        ; $($internal:tt)*
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($body)*
            $(
                #[doc = $help]
                pub $field: u64,
            )*
        }
    };
}

/// [`service_counters!`] callback for this module: the hub's atomics, their
/// merge and getters, and the snapshot's loads and JSON keys.
macro_rules! hub_counters {
    (
        {}
        $($field:ident: $family:literal, $help:literal;)*
        ; $($internal:ident: $merge:ident;)*
    ) => {
        /// One atomic per scalar counter.
        #[derive(Debug, Default)]
        struct Counters {
            $($field: AtomicU64,)*
            $($internal: AtomicU64,)*
        }

        impl Counters {
            fn merge_from(&self, other: &Self) {
                $(self.$field.fetch_add(other.$field.load(Ordering::Relaxed), Ordering::Relaxed);)*
                $(self.$internal.$merge(other.$internal.load(Ordering::Relaxed), Ordering::Relaxed);)*
            }
        }

        impl ServiceMetrics {
            $(
                #[doc = concat!("Current value of the `", stringify!($field), "` counter: ", $help, ".")]
                pub fn $field(&self) -> u64 {
                    self.counters.$field.load(Ordering::Relaxed)
                }
            )*
        }

        impl ServiceSnapshot {
            fn load_counters(&mut self, metrics: &ServiceMetrics) {
                $(self.$field = metrics.$field();)*
            }

            fn write_counters_json(&self, json: &mut String) {
                use std::fmt::Write as _;
                $(let _ = write!(json, concat!(",\"", stringify!($field), "\":{}"), self.$field);)*
            }
        }
    };
}

service_counters!(hub_counters! {});

/// The shared metrics hub of one dispatch service.
///
/// Workers and the admission queue record into it concurrently;
/// [`snapshot`](Self::snapshot) assembles the read model. All methods are lock-free
/// and allocation-free.
#[derive(Debug)]
pub struct ServiceMetrics {
    started_at: Instant,
    counters: Counters,
    /// Fresh solves dispatched through the adaptive router, per chosen backend
    /// (indexed like [`SolverBackend::ALL`]; all zero when routing is disabled).
    routed: [AtomicU64; SolverBackend::ALL.len()],
    /// Quality ratios of routed solves (fed when the router's shadow reference was
    /// available).
    quality: QualityHistogram,
    queue_wait: LatencyHistogram,
    solve: LatencyHistogram,
    end_to_end: LatencyHistogram,
    /// Solve latency per routed backend (indexed like [`SolverBackend::ALL`]) —
    /// the per-backend lane behind windowed quarantine decisions. Only routed
    /// fresh solves feed these; cache hits and coalesced followers do not.
    backend_solve: [LatencyHistogram; SolverBackend::ALL.len()],
    /// Quality ratios per routed backend (indexed like [`SolverBackend::ALL`]).
    backend_quality: [QualityHistogram; SolverBackend::ALL.len()],
    /// Accumulated host seconds per pipeline stage (nanos), indexed like
    /// [`Stage::ALL`].
    stage_nanos: [AtomicU64; Stage::ALL.len()],
}

impl ServiceMetrics {
    /// Creates a zeroed metrics hub; `started_at` anchors throughput computation.
    pub fn new() -> Self {
        Self {
            started_at: Instant::now(),
            counters: Counters::default(),
            routed: std::array::from_fn(|_| AtomicU64::new(0)),
            quality: QualityHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            solve: LatencyHistogram::new(),
            end_to_end: LatencyHistogram::new(),
            backend_solve: std::array::from_fn(|_| LatencyHistogram::new()),
            backend_quality: std::array::from_fn(|_| QualityHistogram::new()),
            stage_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// One request was admitted.
    pub fn record_submitted(&self) {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// One submission was refused by the admission policy.
    pub fn record_rejected(&self) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One queued request was shed to make room.
    pub fn record_shed(&self) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// One micro-batch of `size` requests was formed.
    pub fn record_batch(&self, size: usize) {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// One request completed successfully.
    pub fn record_completed(
        &self,
        queue_wait: Duration,
        solve_time: Duration,
        end_to_end: Duration,
        degraded: bool,
        missed_deadline: bool,
    ) {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record(queue_wait);
        self.solve.record(solve_time);
        self.end_to_end.record(end_to_end);
        if degraded {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if missed_deadline {
            self.counters
                .deadline_misses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One request was served from the solution cache at admission, without ever
    /// entering the queue (it counts as completed; only the end-to-end histogram is
    /// fed — there was no queue wait and no solve). Worker-side late hits — which
    /// *did* wait — go through
    /// [`record_late_cache_hit`](Self::record_late_cache_hit).
    pub fn record_cache_hit(&self, end_to_end: Duration) {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.end_to_end.record(end_to_end);
    }

    /// One queued request was served from the cache by a worker's pre-solve
    /// re-check: it avoided a solve but genuinely waited in the queue, so the
    /// queue-wait histogram is fed alongside end-to-end.
    pub fn record_late_cache_hit(&self, queue_wait: Duration, end_to_end: Duration) {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record(queue_wait);
        self.end_to_end.record(end_to_end);
    }

    /// One request rode on a concurrent identical request's solve (singleflight
    /// coalescing). It counts as completed and feeds the queue-wait and end-to-end
    /// histograms; the solve histogram is *not* fed — the leader already recorded
    /// that solve once.
    pub fn record_coalesced(&self, queue_wait: Duration, end_to_end: Duration, missed: bool) {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record(queue_wait);
        self.end_to_end.record(end_to_end);
        if missed {
            self.counters
                .deadline_misses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One request's solve failed.
    pub fn record_failed(&self) {
        self.counters.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// One worker solve closure panicked (contained; the request fails but the
    /// worker survives). Recorded *in addition to* [`record_failed`](Self::record_failed).
    pub fn record_worker_panic(&self) {
        self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// One durability snapshot was written (periodic or at shutdown). Also
    /// stamps the last-snapshot clock that feeds
    /// [`ServiceSnapshot::last_snapshot_age`].
    pub fn record_snapshot_written(&self) {
        self.counters
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(self.started_at.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        self.counters
            .last_snapshot_nanos
            .fetch_max(nanos, Ordering::Relaxed);
    }

    /// One durability snapshot was restored at service start.
    pub fn record_snapshot_restored(&self) {
        self.counters
            .snapshots_restored
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One durability snapshot was rejected (corrupt/truncated/version-skewed on
    /// restore, or a write failed). The service carries on cold — this counter
    /// is the operator's signal to look at the snapshot directory.
    pub fn record_snapshot_rejected(&self) {
        self.counters
            .snapshots_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One fresh solve was dispatched through the adaptive router to `backend`.
    /// `explored` marks ε-greedy exploration decisions; `quality` is the solve's
    /// ratio against the router's shadow reference, when one was available;
    /// `solve_time` feeds the per-backend latency lane. Cache hits and coalesced
    /// followers are **not** recorded here — routed counts track solves the
    /// router actually placed.
    pub fn record_routed(
        &self,
        backend: SolverBackend,
        explored: bool,
        quality: Option<f64>,
        solve_time: Duration,
    ) {
        self.routed[backend.index()].fetch_add(1, Ordering::Relaxed);
        self.backend_solve[backend.index()].record(solve_time);
        if explored {
            self.counters.explored.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(ratio) = quality {
            self.quality.record(ratio);
            self.backend_quality[backend.index()].record(ratio);
        }
    }

    /// Fresh solves the adaptive router placed on `backend`.
    pub fn routed(&self, backend: SolverBackend) -> u64 {
        self.routed[backend.index()].load(Ordering::Relaxed)
    }

    /// The queue-wait latency histogram (raw, for windowed scrapers).
    pub fn queue_wait_histogram(&self) -> &LatencyHistogram {
        &self.queue_wait
    }

    /// The solve latency histogram (raw, for windowed scrapers).
    pub fn solve_histogram(&self) -> &LatencyHistogram {
        &self.solve
    }

    /// The end-to-end latency histogram (raw, for windowed scrapers).
    pub fn end_to_end_histogram(&self) -> &LatencyHistogram {
        &self.end_to_end
    }

    /// The overall quality-ratio histogram (raw, for windowed scrapers).
    pub fn quality_histogram(&self) -> &QualityHistogram {
        &self.quality
    }

    /// The solve latency histogram of one routed backend.
    pub fn backend_solve_histogram(&self, backend: SolverBackend) -> &LatencyHistogram {
        &self.backend_solve[backend.index()]
    }

    /// The quality-ratio histogram of one routed backend.
    pub fn backend_quality_histogram(&self, backend: SolverBackend) -> &QualityHistogram {
        &self.backend_quality[backend.index()]
    }

    /// Adds every counter and every histogram observation recorded in `other` into
    /// this hub — the aggregation path behind fleet-level snapshots.
    ///
    /// Counters and per-backend/per-stage arrays add element-wise; histograms merge
    /// exactly at bucket level (see [`LatencyHistogram::merge_from`]), so the merged
    /// snapshot's percentiles equal those of a single service that had observed the
    /// union of both streams. `started_at` is untouched: the *aggregator* owns the
    /// time base (a fleet overrides uptime/throughput with its own clock).
    pub fn merge_from(&self, other: &Self) {
        self.counters.merge_from(&other.counters);
        for (mine, theirs) in self.routed.iter().zip(&other.routed) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (mine, theirs) in self.stage_nanos.iter().zip(&other.stage_nanos) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.quality.merge_from(&other.quality);
        self.queue_wait.merge_from(&other.queue_wait);
        self.solve.merge_from(&other.solve);
        self.end_to_end.merge_from(&other.end_to_end);
        for (mine, theirs) in self.backend_solve.iter().zip(&other.backend_solve) {
            mine.merge_from(theirs);
        }
        for (mine, theirs) in self.backend_quality.iter().zip(&other.backend_quality) {
            mine.merge_from(theirs);
        }
    }

    pub(crate) fn add_stage_seconds(&self, stage: Stage, seconds: f64) {
        let index = Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("every stage is in Stage::ALL");
        let nanos = (seconds * 1e9).max(0.0) as u64;
        self.stage_nanos[index].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Assembles the current read model.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let uptime = self.started_at.elapsed();
        let mut snapshot = ServiceSnapshot {
            uptime,
            captured_at: uptime,
            routed_per_backend: std::array::from_fn(|i| self.routed[i].load(Ordering::Relaxed)),
            last_snapshot_age: match self.counters.last_snapshot_nanos.load(Ordering::Relaxed) {
                0 => None,
                nanos => Some(uptime.saturating_sub(Duration::from_nanos(nanos))),
            },
            quality: self.quality.summary(),
            queue_wait: self.queue_wait.summary(),
            solve: self.solve.summary(),
            end_to_end: self.end_to_end.summary(),
            stage_seconds: std::array::from_fn(|i| {
                self.stage_nanos[i].load(Ordering::Relaxed) as f64 * 1e-9
            }),
            ..ServiceSnapshot::default()
        };
        snapshot.load_counters(self);
        let batched = self.counters.batched_requests.load(Ordering::Relaxed);
        if snapshot.batches > 0 {
            snapshot.mean_batch_size = batched as f64 / snapshot.batches as f64;
        }
        if !uptime.is_zero() {
            snapshot.throughput_per_sec = snapshot.completed as f64 / uptime.as_secs_f64();
        }
        snapshot
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

service_counters!(counter_fields! {
    /// Point-in-time read model of a dispatch service. Its scalar counters are
    /// the exported rows of [`service_counters!`].
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ServiceSnapshot {
        /// Time since the service (metrics hub) started.
        pub uptime: Duration,
        /// When this snapshot was captured, as a monotonic (`Instant`-based)
        /// offset on the same clock as `uptime`. Two dumps yield exact rates:
        /// `(completed₂ − completed₁) / (captured_at₂ − captured_at₁)`. Equal to
        /// `uptime` for a live service; an aggregator (the fleet) stamps both
        /// with its own clock.
        pub captured_at: Duration,
        /// Statistics of the attached solution cache, when the service has one
        /// (injected by [`DispatchService`](crate::DispatchService) snapshots;
        /// `None` from a bare [`ServiceMetrics::snapshot`]).
        pub cache: Option<SolutionCacheStats>,
        /// Fresh solves dispatched through the adaptive router, per chosen
        /// backend (indexed like [`SolverBackend::ALL`]; all zero when routing
        /// is disabled).
        pub routed_per_backend: [u64; SolverBackend::ALL.len()],
        /// Time since the last snapshot write, `None` when none has been
        /// written. The staleness signal: a healthy snapshotting service keeps
        /// this under its configured interval (+ jitter).
        pub last_snapshot_age: Option<Duration>,
        /// Quality-ratio distribution of routed solves (cost / shadow reference).
        pub quality: QualitySummary,
        /// Mean formed batch size.
        pub mean_batch_size: f64,
        /// Completions per second of uptime.
        pub throughput_per_sec: f64,
        /// Queue-wait latency distribution.
        pub queue_wait: HistogramSummary,
        /// Solve latency distribution.
        pub solve: HistogramSummary,
        /// Submission-to-resolution latency distribution.
        pub end_to_end: HistogramSummary,
        /// Accumulated host seconds per pipeline stage, indexed like [`Stage::ALL`].
        pub stage_seconds: [f64; Stage::ALL.len()],
    }
});

impl ServiceSnapshot {
    /// Completions that actually ran the solve pipeline (everything not served from
    /// the cache or coalesced onto another request's solve).
    pub fn solved_fresh(&self) -> u64 {
        self.completed
            .saturating_sub(self.cache_hits)
            .saturating_sub(self.coalesced)
    }

    /// Fraction of completions that avoided a solve (cache hits + coalesced). Zero
    /// when nothing completed.
    pub fn solve_avoidance_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            (self.cache_hits + self.coalesced) as f64 / self.completed as f64
        }
    }

    /// Total fresh solves dispatched through the adaptive router (zero when
    /// routing is disabled).
    pub fn routed_total(&self) -> u64 {
        self.routed_per_backend.iter().sum()
    }

    /// Fraction of routed solves placed by the exploration arm (zero when nothing
    /// was routed). Healthy values sit near the router's configured ε.
    pub fn exploration_share(&self) -> f64 {
        let routed = self.routed_total();
        if routed == 0 {
            0.0
        } else {
            self.explored as f64 / routed as f64
        }
    }

    /// One-line operator summary of the service state — the log-friendly
    /// counterpart of the multi-line [`Display`](std::fmt::Display) rendering.
    pub fn one_line(&self) -> String {
        let mut line = format!(
            "dispatch up {:.1}s: {} in, {} done ({:.0}/s), {} failed, {} shed, {} rejected, \
             {} hit, {} coalesced, p50/p99 {:.0}/{:.0}µs",
            self.uptime.as_secs_f64(),
            self.submitted,
            self.completed,
            self.throughput_per_sec,
            self.failed,
            self.shed,
            self.rejected,
            self.cache_hits,
            self.coalesced,
            self.end_to_end.p50.as_secs_f64() * 1e6,
            self.end_to_end.p99.as_secs_f64() * 1e6,
        );
        if let Some(cache) = &self.cache {
            line.push_str(&format!(
                ", cache {}e/{}B ({:.0}% hit)",
                cache.entries,
                cache.bytes,
                cache.hit_rate() * 100.0,
            ));
        }
        if self.routed_total() > 0 {
            let [im, nn, ge, xd] = self.routed_per_backend;
            line.push_str(&format!(
                ", routed im/nn/ge/xd {im}/{nn}/{ge}/{xd} ({:.0}% explore, q\u{0304} {:.3})",
                self.exploration_share() * 100.0,
                self.quality.mean,
            ));
        }
        if self.snapshots_written + self.snapshots_restored + self.snapshots_rejected > 0 {
            line.push_str(&format!(
                ", snap {}w/{}r/{}x",
                self.snapshots_written, self.snapshots_restored, self.snapshots_rejected,
            ));
            if let Some(age) = self.last_snapshot_age {
                line.push_str(&format!(" age {:.1}s", age.as_secs_f64()));
            }
        }
        line
    }

    /// Compact JSON rendering of the full snapshot (one object, stable keys) —
    /// embeddable into bench artifacts and log pipelines without reaching into
    /// fields.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let histogram = |h: &HistogramSummary| {
            format!(
                "{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{:.1},\"p90_us\":{:.1},\
                 \"p99_us\":{:.1},\"max_us\":{:.1}}}",
                h.count,
                us(h.mean),
                us(h.p50),
                us(h.p90),
                us(h.p99),
                us(h.max),
            )
        };
        let mut json = String::with_capacity(1024);
        let _ = write!(
            json,
            "{{\"uptime_secs\":{:.3},\"captured_at_secs\":{:.3}",
            self.uptime.as_secs_f64(),
            self.captured_at.as_secs_f64(),
        );
        self.write_counters_json(&mut json);
        let _ = write!(
            json,
            ",\"solved_fresh\":{},\"mean_batch_size\":{:.3},\"throughput_per_sec\":{:.1}",
            self.solved_fresh(),
            self.mean_batch_size,
            self.throughput_per_sec,
        );
        if let Some(age) = self.last_snapshot_age {
            let _ = write!(json, ",\"last_snapshot_age_secs\":{:.3}", age.as_secs_f64());
        }
        for (label, summary) in [
            ("queue_wait", &self.queue_wait),
            ("solve", &self.solve),
            ("end_to_end", &self.end_to_end),
        ] {
            let _ = write!(json, ",\"{label}\":{}", histogram(summary));
        }
        if self.routed_total() > 0 {
            let _ = write!(json, ",\"routed\":{{");
            for (i, backend) in SolverBackend::ALL.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}\"{}\":{}",
                    if i == 0 { "" } else { "," },
                    backend.label(),
                    self.routed_per_backend[i],
                );
            }
            let _ = write!(
                json,
                "}},\"exploration_share\":{:.4},\"quality\":{{\
                 \"count\":{},\"mean\":{:.4},\"p50\":{:.4},\"p95\":{:.4},\"max\":{:.4}}}",
                self.exploration_share(),
                self.quality.count,
                self.quality.mean,
                self.quality.p50,
                self.quality.p95,
                self.quality.max,
            );
        }
        if let Some(cache) = &self.cache {
            let _ = write!(
                json,
                ",\"cache\":{{\"hits\":{},\"exact_hits\":{},\"remapped_hits\":{},\
                 \"misses\":{},\"insertions\":{},\"evictions\":{},\"expirations\":{},\
                 \"entries\":{},\"bytes\":{},\"hit_rate\":{:.4}}}",
                cache.hits,
                cache.exact_hits,
                cache.remapped_hits,
                cache.misses,
                cache.insertions,
                cache.evictions,
                cache.expirations,
                cache.entries,
                cache.bytes,
                cache.hit_rate(),
            );
        }
        json.push('}');
        json
    }
}

impl std::fmt::Display for ServiceSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "dispatch: {} submitted, {} completed ({:.1}/s), {} failed, {} shed, {} rejected",
            self.submitted,
            self.completed,
            self.throughput_per_sec,
            self.failed,
            self.shed,
            self.rejected,
        )?;
        writeln!(
            f,
            "  batches: {} (mean size {:.2}), degraded {}, deadline misses {}, \
             worker panics {}",
            self.batches,
            self.mean_batch_size,
            self.degraded,
            self.deadline_misses,
            self.worker_panics,
        )?;
        writeln!(
            f,
            "  cache hits {}, coalesced {}, solved fresh {}",
            self.cache_hits,
            self.coalesced,
            self.solved_fresh(),
        )?;
        if self.snapshots_written + self.snapshots_restored + self.snapshots_rejected > 0 {
            write!(
                f,
                "  snapshots: {} written, {} restored, {} rejected",
                self.snapshots_written, self.snapshots_restored, self.snapshots_rejected,
            )?;
            match self.last_snapshot_age {
                Some(age) => writeln!(f, ", last {:.1}s ago", age.as_secs_f64())?,
                None => writeln!(f)?,
            }
        }
        if self.routed_total() > 0 {
            write!(f, "  routed:")?;
            for (i, backend) in SolverBackend::ALL.iter().enumerate() {
                write!(f, " {} {}", backend.label(), self.routed_per_backend[i])?;
            }
            writeln!(
                f,
                " ({:.1}% explored); quality mean {:.4} p95 {:.4} (n={})",
                self.exploration_share() * 100.0,
                self.quality.mean,
                self.quality.p95,
                self.quality.count,
            )?;
        }
        if let Some(cache) = &self.cache {
            writeln!(
                f,
                "  cache: {} entries, {} bytes, {:.1}% hit rate ({} exact, {} remapped, \
                 {} evicted)",
                cache.entries,
                cache.bytes,
                cache.hit_rate() * 100.0,
                cache.exact_hits,
                cache.remapped_hits,
                cache.evictions,
            )?;
        }
        for (label, summary) in [
            ("queue wait", &self.queue_wait),
            ("solve", &self.solve),
            ("end-to-end", &self.end_to_end),
        ] {
            writeln!(
                f,
                "  {label:<10}: p50 {:>9.3?}  p99 {:>9.3?}  max {:>9.3?}  (n={})",
                summary.p50, summary.p99, summary.max, summary.count,
            )?;
        }
        Ok(())
    }
}

/// Per-worker [`PipelineObserver`] feeding per-stage host timings into the shared
/// [`ServiceMetrics`].
///
/// Each worker owns one by value; it carries only an `Arc`, so it moves into the
/// worker thread without any `Send` gymnastics and records without locks.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    metrics: Arc<ServiceMetrics>,
}

impl MetricsObserver {
    /// Creates an observer feeding `metrics`.
    pub fn new(metrics: Arc<ServiceMetrics>) -> Self {
        Self { metrics }
    }
}

impl PipelineObserver for MetricsObserver {
    fn on_stage_end(&mut self, report: &StageReport) {
        self.metrics.add_stage_seconds(report.stage, report.seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_conservative() {
        let h = LatencyHistogram::new();
        for micros in [1u64, 3, 7, 20, 50, 120, 400, 900, 2000, 10_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
        // The p50 bucket upper bound covers the true median (50µs → bucket (32, 64]).
        assert!(p50 >= Duration::from_micros(50));
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.mean(), Duration::from_nanos(1_350_100));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn extreme_latencies_saturate_the_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(40_000));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), h.max());
    }

    #[test]
    fn u64_max_duration_saturates_instead_of_truncating() {
        // Regression: `as u64` on the u128 microsecond value kept only the low 64
        // bits, scattering astronomically large observations into arbitrary low
        // buckets. They must land in the open-ended last bucket instead.
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_secs(u64::MAX));
        assert_eq!(h.count(), 2);
        // The outlier is the top rank, so p99 must report the observed maximum
        // (the honest bound of the saturating bucket), not a low-bucket estimate.
        assert_eq!(h.quantile(0.99), h.max());
        assert!(h.max() >= Duration::from_secs(1 << 30));
        // And the small observation is still where it belongs.
        assert!(h.quantile(0.25) <= Duration::from_micros(128));
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let m = ServiceMetrics::new();
        m.record_submitted();
        m.record_submitted();
        m.record_batch(2);
        m.record_completed(
            Duration::from_micros(10),
            Duration::from_micros(500),
            Duration::from_micros(600),
            true,
            false,
        );
        m.record_completed(
            Duration::from_micros(20),
            Duration::from_micros(700),
            Duration::from_micros(900),
            false,
            true,
        );
        m.record_shed();
        m.add_stage_seconds(Stage::SolveLevels, 0.25);
        let snap = m.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.deadline_misses, 1);
        assert_eq!(snap.batches, 1);
        assert!((snap.mean_batch_size - 2.0).abs() < 1e-12);
        assert_eq!(snap.queue_wait.count, 2);
        let solve_index = Stage::ALL
            .iter()
            .position(|&s| s == Stage::SolveLevels)
            .unwrap();
        assert!((snap.stage_seconds[solve_index] - 0.25).abs() < 1e-9);
        assert!(snap.to_string().contains("2 completed"));
    }

    #[test]
    fn observer_feeds_stage_timings() {
        let metrics = Arc::new(ServiceMetrics::new());
        let mut observer = MetricsObserver::new(Arc::clone(&metrics));
        observer.on_stage_end(&StageReport {
            stage: Stage::Cluster,
            seconds: 0.5,
            items: 1,
            modeled_seconds: 0.0,
        });
        observer.on_stage_end(&StageReport {
            stage: Stage::Cluster,
            seconds: 0.25,
            items: 1,
            modeled_seconds: 0.0,
        });
        assert!((metrics.snapshot().stage_seconds[0] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn merged_latency_percentiles_equal_histogram_of_the_union() {
        // Two disjoint observation streams with very different shapes.
        let shard_a = LatencyHistogram::new();
        let shard_b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        let stream_a: Vec<u64> = (0..200).map(|i| 10 + i * 7).collect();
        let stream_b: Vec<u64> = (0..50).map(|i| 5_000 + i * 900).collect();
        for &micros in &stream_a {
            shard_a.record(Duration::from_micros(micros));
            union.record(Duration::from_micros(micros));
        }
        for &micros in &stream_b {
            shard_b.record(Duration::from_micros(micros));
            union.record(Duration::from_micros(micros));
        }
        shard_a.merge_from(&shard_b);
        assert_eq!(shard_a.summary(), union.summary());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(shard_a.quantile(q), union.quantile(q), "q={q}");
        }
        assert_eq!(shard_a.mean(), union.mean());
        assert_eq!(shard_a.max(), union.max());
    }

    #[test]
    fn merged_quality_percentiles_equal_histogram_of_the_union() {
        let shard_a = QualityHistogram::new();
        let shard_b = QualityHistogram::new();
        let union = QualityHistogram::new();
        for i in 0..120 {
            let ratio = 1.0 + (i as f64) * 0.004;
            shard_a.record(ratio);
            union.record(ratio);
        }
        for i in 0..30 {
            let ratio = 1.1 + (i as f64) * 0.05;
            shard_b.record(ratio);
            union.record(ratio);
        }
        shard_a.merge_from(&shard_b);
        assert_eq!(shard_a.summary(), union.summary());
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            assert_eq!(shard_a.quantile(q), union.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merged_service_metrics_sum_counters_exactly() {
        let a = ServiceMetrics::new();
        let b = ServiceMetrics::new();
        a.record_submitted();
        a.record_submitted();
        a.record_completed(
            Duration::from_micros(10),
            Duration::from_micros(100),
            Duration::from_micros(150),
            false,
            false,
        );
        a.record_routed(
            SolverBackend::NnTwoOpt,
            true,
            Some(1.02),
            Duration::from_micros(100),
        );
        a.record_worker_panic();
        a.record_failed();
        b.record_submitted();
        b.record_completed(
            Duration::from_micros(30),
            Duration::from_micros(400),
            Duration::from_micros(500),
            true,
            true,
        );
        b.record_cache_hit(Duration::from_micros(5));
        b.record_batch(3);
        b.record_routed(
            SolverBackend::GreedyEdge,
            false,
            Some(1.2),
            Duration::from_micros(400),
        );
        b.add_stage_seconds(Stage::SolveLevels, 0.5);

        let sink = ServiceMetrics::new();
        sink.merge_from(&a);
        sink.merge_from(&b);
        let (sa, sb, merged) = (a.snapshot(), b.snapshot(), sink.snapshot());
        assert_eq!(merged.submitted, sa.submitted + sb.submitted);
        assert_eq!(merged.completed, sa.completed + sb.completed);
        assert_eq!(merged.failed, sa.failed + sb.failed);
        assert_eq!(merged.degraded, sa.degraded + sb.degraded);
        assert_eq!(
            merged.deadline_misses,
            sa.deadline_misses + sb.deadline_misses
        );
        assert_eq!(merged.cache_hits, sa.cache_hits + sb.cache_hits);
        assert_eq!(merged.worker_panics, sa.worker_panics + sb.worker_panics);
        assert_eq!(merged.batches, sa.batches + sb.batches);
        assert_eq!(merged.explored, sa.explored + sb.explored);
        for i in 0..SolverBackend::ALL.len() {
            assert_eq!(
                merged.routed_per_backend[i],
                sa.routed_per_backend[i] + sb.routed_per_backend[i]
            );
        }
        assert_eq!(
            merged.end_to_end.count,
            sa.end_to_end.count + sb.end_to_end.count
        );
        assert_eq!(merged.quality.count, sa.quality.count + sb.quality.count);
        let solve_index = Stage::ALL
            .iter()
            .position(|&s| s == Stage::SolveLevels)
            .unwrap();
        assert!((merged.stage_seconds[solve_index] - 0.5).abs() < 1e-9);
        assert!(merged.to_json().contains("\"worker_panics\":1"));
        // Per-backend lanes merge exactly too.
        assert_eq!(
            sink.backend_solve_histogram(SolverBackend::NnTwoOpt)
                .count(),
            1
        );
        assert_eq!(
            sink.backend_quality_histogram(SolverBackend::GreedyEdge)
                .count(),
            1
        );
        assert_eq!(
            sink.backend_solve_histogram(SolverBackend::NnTwoOpt)
                .buckets()
                .count,
            1
        );
    }

    #[test]
    fn bucket_index_is_monotonic() {
        let mut last = 0;
        for micros in 1..10_000u64 {
            let index = LatencyHistogram::bucket_index(Duration::from_micros(micros));
            assert!(index >= last);
            last = index;
            assert!(LatencyHistogram::bucket_upper(index) >= Duration::from_micros(micros));
        }
    }
}
