//! Windowed views: exact interval statistics from cumulative sample deltas.
//!
//! Because samples store raw histogram *bucket arrays*, the distribution of
//! exactly the observations recorded between two samples is recoverable by
//! subtracting the arrays bucket-wise — no lifetime-cumulative smearing, no
//! decaying averages. [`LatencyWindow::quantile`] on such a delta equals (at
//! bucket resolution) the quantile of a fresh histogram fed only the window's
//! values; `tests/windows.rs` holds that equivalence as a property.
//!
//! All deltas saturate at zero: producers serialise samples behind the store
//! lock, so counters are monotone per series, but saturation keeps a torn or
//! misused pair from manufacturing astronomical rates.

use std::time::Duration;

use taxi_dispatch::{
    counter_fields, service_counters, HistogramBuckets, LatencyHistogram, QualityBuckets,
    QualityHistogram,
};

use crate::sample::{ServiceCounters, BACKENDS};

/// Windowed latency distribution: bucket deltas between two cumulative
/// captures of the same [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyWindow {
    /// Observations per bucket inside the window.
    pub counts: [u64; LatencyHistogram::BUCKETS],
    /// Total observations inside the window.
    pub count: u64,
    /// Sum of the window's observations in nanoseconds.
    pub sum_nanos: u64,
    /// Upper bound on the window maximum (the newer edge's lifetime maximum —
    /// the window max itself is not recoverable from deltas).
    pub max_hint_nanos: u64,
}

impl Default for LatencyWindow {
    fn default() -> Self {
        Self {
            counts: [0; LatencyHistogram::BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_hint_nanos: 0,
        }
    }
}

impl LatencyWindow {
    /// Fills `self` with `newer − older`, saturating, without allocating.
    pub fn set_between(&mut self, older: &HistogramBuckets, newer: &HistogramBuckets) {
        for (slot, (new, old)) in self
            .counts
            .iter_mut()
            .zip(newer.counts.iter().zip(&older.counts))
        {
            *slot = new.saturating_sub(*old);
        }
        self.count = newer.count.saturating_sub(older.count);
        self.sum_nanos = newer.sum_nanos.saturating_sub(older.sum_nanos);
        self.max_hint_nanos = newer.max_nanos;
    }

    /// The window between two captures, by value.
    pub fn between(older: &HistogramBuckets, newer: &HistogramBuckets) -> Self {
        let mut window = Self::default();
        window.set_between(older, newer);
        window
    }

    /// Estimated `q`-quantile of the window: the upper bound of the bucket
    /// holding the target rank, clamped to the lifetime maximum — conservative
    /// (never under-reports), exactly like the cumulative histogram's
    /// estimator. Zero when the window is empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let max = Duration::from_nanos(self.max_hint_nanos);
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                if index == LatencyHistogram::BUCKETS - 1 {
                    return max;
                }
                return LatencyHistogram::bucket_upper(index).min(max);
            }
        }
        max
    }

    /// Mean of the window's observations. Zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos / self.count)
    }

    /// Observations **guaranteed** above `threshold`: the sum of buckets whose
    /// entire range lies above it. Exact when `threshold` is a power-of-two
    /// microsecond value (a bucket boundary); conservative (an undercount, so
    /// alert-averse) otherwise — align SLO latency targets to bucket
    /// boundaries for exact accounting.
    pub fn count_above(&self, threshold: Duration) -> u64 {
        let boundary = LatencyHistogram::bucket_of(threshold);
        self.counts.iter().skip(boundary + 1).sum()
    }

    /// Fraction of the window's observations above `threshold` (see
    /// [`count_above`](Self::count_above)). Zero when the window is empty.
    pub fn fraction_above(&self, threshold: Duration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.count_above(threshold) as f64 / self.count as f64
    }
}

/// Windowed quality-ratio distribution: bucket deltas between two cumulative
/// captures of the same [`QualityHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QualityWindow {
    /// Ratios per bucket inside the window.
    pub counts: [u64; QualityHistogram::BUCKETS],
    /// Total ratios inside the window.
    pub count: u64,
    /// Sum of the window's ratios in millionths.
    pub sum_micro: u64,
    /// Upper bound on the window maximum (newer edge's lifetime max).
    pub max_hint_micro: u64,
}

impl QualityWindow {
    /// Fills `self` with `newer − older`, saturating, without allocating.
    pub fn set_between(&mut self, older: &QualityBuckets, newer: &QualityBuckets) {
        for (slot, (new, old)) in self
            .counts
            .iter_mut()
            .zip(newer.counts.iter().zip(&older.counts))
        {
            *slot = new.saturating_sub(*old);
        }
        self.count = newer.count.saturating_sub(older.count);
        self.sum_micro = newer.sum_micro.saturating_sub(older.sum_micro);
        self.max_hint_micro = newer.max_micro;
    }

    /// The window between two captures, by value.
    pub fn between(older: &QualityBuckets, newer: &QualityBuckets) -> Self {
        let mut window = Self::default();
        window.set_between(older, newer);
        window
    }

    /// Estimated `q`-quantile of the window: bucket upper bound clamped to the
    /// lifetime maximum, like the cumulative estimator. Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let max = self.max_hint_micro as f64 * 1e-6;
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return match QualityHistogram::BOUNDS.get(index) {
                    Some(&bound) => bound.min(max),
                    None => max,
                };
            }
        }
        max
    }

    /// Mean ratio inside the window. Zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_micro as f64 * 1e-6 / self.count as f64
    }

    /// Ratios **guaranteed** above `max_ratio`: the sum of buckets entirely
    /// above it. Exact when `max_ratio` equals one of
    /// [`QualityHistogram::BOUNDS`]; conservative otherwise.
    pub fn count_above(&self, max_ratio: f64) -> u64 {
        let boundary = QualityHistogram::BOUNDS
            .iter()
            .position(|&bound| max_ratio <= bound)
            .unwrap_or(QualityHistogram::BOUNDS.len());
        self.counts.iter().skip(boundary + 1).sum()
    }

    /// Fraction of the window's ratios above `max_ratio`. Zero when empty.
    pub fn fraction_above(&self, max_ratio: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.count_above(max_ratio) as f64 / self.count as f64
    }
}

/// Per-backend windowed lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendWindow {
    /// Solves routed to this backend inside the window.
    pub routed: u64,
    /// Windowed solve latency distribution.
    pub solve: LatencyWindow,
    /// Windowed quality-ratio distribution.
    pub quality: QualityWindow,
}

service_counters!(counter_fields! {
    /// Full windowed view of one service (or the fleet aggregate): every scalar
    /// counter's delta inside the window plus the windowed histograms, over
    /// `span` of wall time.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct ServiceWindow {
        /// Wall-clock span between the window's edges.
        pub span: Duration,
        /// Solution-cache lookup hits inside the window (0 without a cache).
        pub cache_lookup_hits: u64,
        /// Solution-cache lookup misses inside the window (0 without a cache).
        pub cache_lookup_misses: u64,
        /// Whether both window edges carried cache statistics.
        pub has_cache: bool,
        /// Windowed queue-wait latency.
        pub queue_wait: LatencyWindow,
        /// Windowed solve latency.
        pub solve: LatencyWindow,
        /// Windowed end-to-end latency.
        pub end_to_end: LatencyWindow,
        /// Windowed quality ratios.
        pub quality: QualityWindow,
        /// Per-backend windowed lanes, indexed like `SolverBackend::ALL`.
        pub per_backend: [BackendWindow; BACKENDS],
    }
});

/// [`service_counters!`] callback: the scalar deltas of
/// [`ServiceWindow::set_between`].
macro_rules! scalar_deltas {
    (
        {}
        $($field:ident: $family:literal, $help:literal;)*
        ; $($internal:tt)*
    ) => {
        impl ServiceWindow {
            fn set_scalars_between(&mut self, older: &ServiceCounters, newer: &ServiceCounters) {
                $(self.$field = newer.$field.saturating_sub(older.$field);)*
            }
        }
    };
}

service_counters!(scalar_deltas! {});

impl ServiceWindow {
    /// Fills `self` with the deltas `newer − older` over `span`, saturating,
    /// without allocating.
    pub fn set_between(
        &mut self,
        older: &ServiceCounters,
        newer: &ServiceCounters,
        span: Duration,
    ) {
        self.span = span;
        self.set_scalars_between(older, newer);
        match (&older.cache, &newer.cache) {
            (Some(old), Some(new)) => {
                self.has_cache = true;
                self.cache_lookup_hits = new.hits.saturating_sub(old.hits);
                self.cache_lookup_misses = new.misses.saturating_sub(old.misses);
            }
            _ => {
                self.has_cache = false;
                self.cache_lookup_hits = 0;
                self.cache_lookup_misses = 0;
            }
        }
        self.queue_wait
            .set_between(&older.queue_wait, &newer.queue_wait);
        self.solve.set_between(&older.solve, &newer.solve);
        self.end_to_end
            .set_between(&older.end_to_end, &newer.end_to_end);
        self.quality.set_between(&older.quality, &newer.quality);
        for (lane, (old, new)) in self
            .per_backend
            .iter_mut()
            .zip(older.per_backend.iter().zip(&newer.per_backend))
        {
            lane.routed = new.routed.saturating_sub(old.routed);
            lane.solve.set_between(&old.solve, &new.solve);
            lane.quality.set_between(&old.quality, &new.quality);
        }
    }

    /// The window between two captures, by value.
    pub fn between(older: &ServiceCounters, newer: &ServiceCounters, span: Duration) -> Self {
        let mut window = Self::default();
        window.set_between(older, newer, span);
        window
    }

    /// Requests that reached a terminal outcome inside the window.
    pub fn resolved(&self) -> u64 {
        self.completed + self.failed + self.shed + self.rejected
    }

    /// Completions per second over the window span (0 for an empty span).
    pub fn throughput_per_sec(&self) -> f64 {
        per_second(self.completed, self.span)
    }

    /// Admissions per second over the window span (0 for an empty span).
    pub fn request_rate_per_sec(&self) -> f64 {
        per_second(self.submitted, self.span)
    }

    /// Shed fraction of admission pressure inside the window
    /// (`shed / (submitted + shed)`; 0 when nothing arrived).
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed, self.submitted + self.shed)
    }

    /// Deadline-miss fraction of completions inside the window.
    pub fn deadline_miss_rate(&self) -> f64 {
        ratio(self.deadline_misses, self.completed)
    }

    /// Failure fraction of resolved requests inside the window.
    pub fn failure_rate(&self) -> f64 {
        ratio(self.failed, self.resolved())
    }

    /// Cache hit rate over the window's lookups (0 without a cache).
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(
            self.cache_lookup_hits,
            self.cache_lookup_hits + self.cache_lookup_misses,
        )
    }
}

fn per_second(count: u64, span: Duration) -> f64 {
    if span.is_zero() {
        0.0
    } else {
        count as f64 / span.as_secs_f64()
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_window_deltas_match_direct_feed() {
        let cumulative = LatencyHistogram::new();
        for micros in [10u64, 50, 400] {
            cumulative.record(Duration::from_micros(micros));
        }
        let older = cumulative.buckets();
        let direct = LatencyHistogram::new();
        for micros in [20u64, 800, 3000, 90] {
            cumulative.record(Duration::from_micros(micros));
            direct.record(Duration::from_micros(micros));
        }
        let window = LatencyWindow::between(&older, &cumulative.buckets());
        assert_eq!(window.count, 4);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(window.quantile(q), direct.quantile(q), "q={q}");
        }
        assert_eq!(window.mean(), direct.mean());
    }

    #[test]
    fn count_above_is_exact_on_bucket_boundaries() {
        let h = LatencyHistogram::new();
        let older = h.buckets();
        for micros in [100u64, 1000, 1024, 1025, 5000, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        let window = LatencyWindow::between(&older, &h.buckets());
        // 1024µs is a bucket boundary: observations strictly above it are
        // 1025, 5000 and 100000.
        assert_eq!(window.count_above(Duration::from_micros(1024)), 3);
        assert!((window.fraction_above(Duration::from_micros(1024)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quality_window_count_above_aligns_to_bounds() {
        let h = QualityHistogram::new();
        let older = h.buckets();
        for ratio in [1.0, 1.02, 1.04, 1.3, 2.5] {
            h.record(ratio);
        }
        let window = QualityWindow::between(&older, &h.buckets());
        // 1.05 is a bound: guaranteed-above are 1.3 (bucket (1.2, 1.5]) and
        // 2.5 (open bucket); 1.04 sits inside (1.02, 1.05] and is not counted.
        assert_eq!(window.count_above(1.05), 2);
        assert_eq!(window.count_above(2.0), 1);
    }

    #[test]
    fn service_window_rates() {
        let older = ServiceCounters {
            submitted: 10,
            completed: 8,
            shed: 1,
            ..Default::default()
        };
        let newer = ServiceCounters {
            submitted: 30,
            completed: 24,
            shed: 5,
            deadline_misses: 4,
            ..older
        };
        let window = ServiceWindow::between(&older, &newer, Duration::from_secs(2));
        assert_eq!(window.submitted, 20);
        assert_eq!(window.completed, 16);
        assert!((window.throughput_per_sec() - 8.0).abs() < 1e-12);
        assert!((window.shed_rate() - 4.0 / 24.0).abs() < 1e-12);
        assert!((window.deadline_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn saturating_deltas_never_go_negative() {
        let older = ServiceCounters {
            completed: 100,
            ..Default::default()
        };
        let newer = ServiceCounters::default(); // reset (e.g. misuse across a generation)
        let window = ServiceWindow::between(&older, &newer, Duration::from_secs(1));
        assert_eq!(window.completed, 0);
    }
}
