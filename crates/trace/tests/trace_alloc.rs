//! Allocation-counting proof that the flight recorder is zero-allocation in
//! steady state.
//!
//! The tracer allocates at construction (ring slots) and at component
//! registration (one ring + label per component) — that is warm-up. After it,
//! the entire request-path surface — minting a [`TraceId`], recording spans
//! through a [`TraceSink`], and the tail-sampled [`Tracer::finish`] — must
//! perform **zero heap allocations**, no matter how many times the rings wrap.
//! That property is what makes the recorder safe to leave always-on in
//! production; this test is its proof, in the style of
//! `dispatch/tests/dispatch_alloc.rs`.

use std::time::{Duration, Instant};

use taxi_alloc_count::{allocations, CountingAllocator};
use taxi_trace::{AttrKey, RequestFacts, SpanName, TraceConfig, Tracer};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One request's worth of recording: admission span, route span, solve span
/// with stage children, then the tail-sampled finish.
fn trace_one(tracer: &Tracer, admission: &taxi_trace::TraceSink, worker: &taxi_trace::TraceSink) {
    let trace = tracer.mint();
    let start = Instant::now();
    admission.record(
        trace,
        SpanName::Admit,
        start,
        Duration::from_nanos(300),
        &[(AttrKey::Priority, 0), (AttrKey::QueueDepth, 3)],
    );
    worker.record(
        trace,
        SpanName::Route,
        start,
        Duration::from_nanos(90),
        &[
            (AttrKey::Backend, 1),
            (AttrKey::Explored, 0),
            (AttrKey::ExcludedMask, 0b10),
        ],
    );
    worker.record(
        trace,
        SpanName::Solve,
        start,
        Duration::from_micros(40),
        &[(AttrKey::Backend, 1), (AttrKey::BatchSize, 4)],
    );
    for stage in [
        SpanName::StageCluster,
        SpanName::StageFixEndpoints,
        SpanName::StageSolveLevels,
        SpanName::StageAssemble,
        SpanName::StageAccount,
    ] {
        worker.record(trace, stage, start, Duration::from_micros(8), &[]);
    }
    // Mix of outcomes so both sampler arms (always-keep and probabilistic)
    // run inside the measured region.
    let facts = if trace.as_u64() % 7 == 0 {
        RequestFacts::completed(Duration::from_micros(50)).deadline_missed()
    } else {
        RequestFacts::completed(Duration::from_micros(50))
    };
    tracer.finish(
        trace,
        start,
        &facts,
        &[(AttrKey::Shard, 0), (AttrKey::Generation, 1)],
    );
}

#[test]
fn recording_is_allocation_free_after_warmup() {
    // Small rings so the steady-state round wraps them many times over —
    // overwrite-oldest must not allocate either.
    let tracer = Tracer::new(
        TraceConfig::new()
            .with_ring_capacity(32)
            .with_keep_probability(0.25)
            .with_seed(7),
    );
    let admission = tracer.register("admission");
    let worker = tracer.register("worker-0");

    // Warm-up: touch every code path once.
    for _ in 0..64 {
        trace_one(&tracer, &admission, &worker);
    }

    // Steady state: mint + record + finish must not touch the heap.
    let before = allocations();
    for _ in 0..2_000 {
        trace_one(&tracer, &admission, &worker);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state trace recording performed {delta} allocations"
    );

    let stats = tracer.stats();
    assert_eq!(stats.minted, 2_064);
    assert_eq!(stats.kept + stats.dropped, 2_064);
    assert!(stats.kept > 0, "deadline misses must be kept");
    // 8 spans per request land in component rings + 1 root span each.
    assert_eq!(stats.recorded_spans, 2_064 * 9);
    assert!(stats.resident_spans <= stats.rings * stats.ring_capacity);
}
