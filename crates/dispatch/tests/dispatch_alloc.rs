//! Allocation-counting proof that the dispatch-path machinery is zero-allocation in
//! steady state.
//!
//! The worker loop has two halves: the **solve** (whose allocation profile the
//! `SolveContext` arena already bounds — proved by the root `tests/alloc_counter.rs`)
//! and the **dispatch machinery** around it — batch formation (queue lock, class-ring
//! drains, priority/deadline sort), metrics recording (counters + histograms) and
//! response delivery (slot fill + ticket wake). This test drives exactly that
//! machinery, with submission (the client-side half, which allocates its per-request
//! response slot) kept outside the measured region, and asserts the worker-side pass
//! performs **zero heap allocations** once warm.
//!
//! Scope note: requests here resolve through the shed path, whose outcome is
//! allocation-free by construction. The solved path additionally boxes its
//! `SolvedResponse` envelope — one allocation riding on top of the many the solve
//! itself performs (tour, stage reports), which the arena tests bound separately.

use std::sync::Arc;
use std::time::Duration;

use taxi_alloc_count::{allocations, CountingAllocator};
use taxi_dispatch::{
    AdmissionPolicy, BatchPolicy, DispatchQueue, DispatchRequest, MicroBatcher, Pending, Priority,
    ServiceMetrics, Ticket,
};
use taxi_tsplib::generator::random_uniform_instance;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const REQUESTS: usize = 32;
const MAX_BATCH: usize = 8;

/// Fills the queue with a mixed-priority round of requests (client side: allocates the
/// per-request slots — deliberately outside the measured region).
fn submit_round(queue: &DispatchQueue, seed: u64) -> Vec<Ticket> {
    (0..REQUESTS)
        .map(|i| {
            let mut request =
                DispatchRequest::new(random_uniform_instance("alloc", 6, seed + i as u64));
            if i % 3 == 0 {
                request = request
                    .with_priority(Priority::Interactive)
                    .with_deadline(Duration::from_millis(50 + i as u64));
            }
            queue.submit(request).expect("queue has room")
        })
        .collect()
}

/// One worker-side pass: drain every queued request in micro-batches, record the full
/// metrics surface for each, and resolve its ticket. (This test is single-threaded,
/// so checking the depth before blocking on `next_batch` is race-free.)
fn worker_pass(
    queue: &DispatchQueue,
    batcher: &MicroBatcher,
    metrics: &ServiceMetrics,
    batch: &mut Vec<Pending>,
) {
    while queue.depth() > 0 {
        let Some(_meta) = batcher.next_batch(batch) else {
            break;
        };
        metrics.record_batch(batch.len());
        for pending in batch.drain(..) {
            let queue_wait = pending.submitted_at().elapsed();
            metrics.record_completed(
                queue_wait,
                Duration::from_micros(10),
                queue_wait + Duration::from_micros(10),
                false,
                false,
            );
            pending.shed();
        }
    }
}

#[test]
fn dispatch_machinery_is_allocation_free_after_warmup() {
    let metrics = Arc::new(ServiceMetrics::new());
    let queue = Arc::new(DispatchQueue::new(
        REQUESTS,
        AdmissionPolicy::Reject,
        Arc::clone(&metrics),
    ));
    let batcher = MicroBatcher::new(
        Arc::clone(&queue),
        BatchPolicy::new()
            .with_max_batch(MAX_BATCH)
            .with_linger(Duration::ZERO)
            .with_overload_threshold(REQUESTS * 2),
    );
    let mut batch: Vec<Pending> = Vec::new();

    // Warm-up round: grows the batch buffer and touches every code path once.
    let warm_tickets = submit_round(&queue, 1);
    worker_pass(&queue, &batcher, &metrics, &mut batch);
    for ticket in &warm_tickets {
        assert!(ticket.try_take().expect("warm round resolved").is_shed());
    }

    // Steady-state round: submission (client side) may allocate; the worker-side pass
    // must not.
    let tickets = submit_round(&queue, 100);
    let before = allocations();
    worker_pass(&queue, &batcher, &metrics, &mut batch);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state dispatch machinery performed {delta} allocations"
    );

    for ticket in &tickets {
        assert!(ticket.try_take().expect("steady round resolved").is_shed());
    }
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.completed, 2 * REQUESTS as u64);
    assert!(snapshot.batches >= 2 * (REQUESTS / MAX_BATCH) as u64);
}
