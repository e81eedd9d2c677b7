//! Reference-speed calibration.
//!
//! The benchmark host runs in slow and fast phases that last seconds, and the
//! phase belongs to the vCPU the work runs on. A fixed kernel timed on the same
//! thread right before and right after a timed unit tracks that phase, so every
//! host-time metric is reported at reference speed:
//!
//! `calibrated = raw × nominal / measured`, where `measured` is the mean of the
//! kernel samples that bracket each stretch of a unit, and `nominal` is the
//! constant passed with `--cal-nominal-us` (recorded in `BENCHMARK.json`'s
//! command). Long solves take samples inside, at pipeline stage and level
//! boundaries, so a phase change during a solve is seen.
//!
//! The kernel pairs a 4-accumulator f64 multiply-accumulate with a branchy
//! integer sort: on this kind of host the pair tracked solve times more closely
//! than either half alone (correlation 0.80 against 0.78 and 0.68, from the
//! samples around 300 offline solves).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements per MAC operand: 2 × 8 KiB, so both stay in L1 on any current core.
const LEN: usize = 1024;
/// Passes over the MAC operands per kernel call.
const MAC_REPS: usize = 192;
/// Values per sort; one call sorts `SORT_REPS` fresh pseudo-random batches.
const SORT_LEN: usize = 64;
const SORT_REPS: usize = 24;
/// Kernel calls per sample; the sample is their median, so one preemption
/// inside a sample does not move it.
const CALLS: usize = 5;

/// The fixed kernel: about 100 µs on a 3 GHz core.
fn kernel(a: &[f64], b: &[f64], sort: &mut [u32]) -> f64 {
    let mut acc = [0.0f64; 4];
    for _ in 0..MAC_REPS {
        for (x, y) in black_box(a)
            .chunks_exact(4)
            .zip(black_box(b).chunks_exact(4))
        {
            acc[0] += x[0] * y[0];
            acc[1] += x[1] * y[1];
            acc[2] += x[2] * y[2];
            acc[3] += x[3] * y[3];
        }
    }
    let mut state = black_box(0x9E37_79B9u32);
    let mut smallest = 0u64;
    for _ in 0..SORT_REPS {
        for value in sort.iter_mut() {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            *value = state;
        }
        for i in 1..sort.len() {
            let mut j = i;
            while j > 0 && sort[j - 1] > sort[j] {
                sort.swap(j - 1, j);
                j -= 1;
            }
        }
        smallest += u64::from(sort[0]);
    }
    acc[0] + acc[1] + acc[2] + acc[3] + smallest as f64
}

/// One kernel sample: when it ran and the kernel's median call time.
struct Sample {
    begin: Instant,
    end: Instant,
    kernel_s: f64,
}

/// One timed unit of work. `raw_s` and `calibrated_s` are set by
/// [`Calibration::calibrate`], with any samples taken inside the unit left out.
#[derive(Clone, Copy)]
pub struct Unit {
    start: Instant,
    end: Instant,
    pub raw_s: f64,
    pub calibrated_s: f64,
}

impl Unit {
    /// The unit that started at `start` and ends now.
    pub fn since(start: Instant) -> Self {
        Self::between(start, Instant::now())
    }

    pub fn between(start: Instant, end: Instant) -> Self {
        Self {
            start,
            end,
            raw_s: 0.0,
            calibrated_s: 0.0,
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn seconds(&self, calibrated: bool) -> f64 {
        if calibrated {
            self.calibrated_s
        } else {
            self.raw_s
        }
    }
}

/// The calibration kernel, its nominal time and every sample taken in the run.
pub struct Calibration {
    nominal_s: f64,
    a: Vec<f64>,
    b: Vec<f64>,
    sort: Vec<u32>,
    /// In time order.
    samples: Vec<Sample>,
}

impl Calibration {
    /// A calibration whose kernel is nominally `nominal_us` microseconds long.
    pub fn new(nominal_us: f64) -> Self {
        Self {
            nominal_s: nominal_us * 1e-6,
            a: (0..LEN).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect(),
            b: (0..LEN).map(|i| 1.0 - (i % 5) as f64 * 1e-3).collect(),
            sort: vec![0; SORT_LEN],
            samples: Vec::new(),
        }
    }

    /// Times the kernel on the calling thread and records the sample.
    pub fn sample(&mut self) {
        let begin = Instant::now();
        let mut calls = [0.0f64; CALLS];
        for call in &mut calls {
            let start = Instant::now();
            black_box(kernel(&self.a, &self.b, &mut self.sort));
            *call = start.elapsed().as_secs_f64();
        }
        calls.sort_by(f64::total_cmp);
        self.samples.push(Sample {
            begin,
            end: Instant::now(),
            kernel_s: calls[CALLS / 2],
        });
    }

    /// Samples unless the last sample ended less than `spacing` ago.
    pub fn sample_if_due(&mut self, spacing: Duration) {
        if self
            .samples
            .last()
            .is_none_or(|last| last.end.elapsed() >= spacing)
        {
            self.sample();
        }
    }

    /// Sets the unit's raw and reference seconds. Each stretch of the unit
    /// between two samples is scaled by the mean of those two, and the samples
    /// themselves do not count. A unit needs a sample right before and right
    /// after it; without them it reads 0.
    pub fn calibrate(&self, unit: &mut Unit) {
        let from = self
            .samples
            .partition_point(|s| s.end <= unit.start)
            .saturating_sub(1);
        let to = (self.samples.partition_point(|s| s.begin < unit.end) + 1).min(self.samples.len());
        let (mut raw, mut calibrated) = (0.0, 0.0);
        for pair in self.samples[from..to].windows(2) {
            let stretch = pair[1]
                .begin
                .min(unit.end)
                .saturating_duration_since(pair[0].end.max(unit.start))
                .as_secs_f64();
            raw += stretch;
            calibrated += stretch * 2.0 * self.nominal_s / (pair[0].kernel_s + pair[1].kernel_s);
        }
        unit.raw_s = raw;
        unit.calibrated_s = calibrated;
    }

    /// First quartile, median and third quartile of the samples, in milliseconds.
    pub fn quartiles_ms(&self) -> [f64; 3] {
        let mut ms: Vec<f64> = self.samples.iter().map(|s| s.kernel_s * 1e3).collect();
        [
            crate::stats::quantile(&mut ms, 0.25),
            crate::stats::quantile(&mut ms, 0.5),
            crate::stats::quantile(&mut ms, 0.75),
        ]
    }
}
