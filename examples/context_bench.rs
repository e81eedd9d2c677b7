//! Context-reuse ablation bench: measures the effect of the `SolveContext` arena on
//! throughput and allocation pressure, and emits the results as `BENCH_context.json`
//! (consumed as a CI artifact).
//!
//! Two arms solve the same workload single-threaded with the default Ising-macro
//! backend:
//!
//! * **before** — a fresh (cold) `SolveContext` per solve: every sub-problem
//!   re-materialises its matrices, macros and order buffers, which is what the solve
//!   path did before the zero-realloc refactor;
//! * **after** — one persistent context: matrices, warm macros and buffers are reused,
//!   so the steady-state level-solve loop performs zero heap allocations.
//!
//! Run with `cargo run --release --example context_bench`.

use std::time::Instant;

use taxi::{SolveContext, TaxiConfig, TaxiSolver};
use taxi_alloc_count::{allocations, CountingAllocator};
use taxi_tsplib::generator::clustered_instance;
use taxi_tsplib::TspInstance;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

struct ArmResult {
    instances_per_sec: f64,
    allocations_per_solve: f64,
}

fn run_arm(solver: &TaxiSolver, workload: &[TspInstance], reuse: bool) -> ArmResult {
    // Warm-up pass (not measured) so both arms start from hot caches.
    let mut persistent = SolveContext::new();
    for instance in workload {
        let mut cold = SolveContext::new();
        let ctx = if reuse { &mut persistent } else { &mut cold };
        solver.solve_reusing(instance, ctx).expect("solve succeeds");
    }

    const ROUNDS: usize = 3;
    let start_allocs = allocations();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for instance in workload {
            let mut cold = SolveContext::new();
            let ctx = if reuse { &mut persistent } else { &mut cold };
            solver.solve_reusing(instance, ctx).expect("solve succeeds");
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let solves = (ROUNDS * workload.len()) as f64;
    ArmResult {
        instances_per_sec: solves / seconds,
        allocations_per_solve: (allocations() - start_allocs) as f64 / solves,
    }
}

fn main() {
    let workload: Vec<TspInstance> = (0..4)
        .map(|i| clustered_instance("ctx-bench", 130 + 10 * i, 6, 40 + i as u64))
        .collect();
    let solver = TaxiSolver::new(TaxiConfig::new().with_seed(17).with_threads(1));

    let before = run_arm(&solver, &workload, false);
    let after = run_arm(&solver, &workload, true);

    let speedup = after.instances_per_sec / before.instances_per_sec;
    let alloc_ratio = before.allocations_per_solve / after.allocations_per_solve.max(1.0);
    println!("context-reuse ablation (single-threaded, ising-macro backend)");
    println!(
        "  before (fresh context/solve): {:8.2} instances/s, {:10.0} allocations/solve",
        before.instances_per_sec, before.allocations_per_solve
    );
    println!(
        "  after  (persistent context):  {:8.2} instances/s, {:10.0} allocations/solve",
        after.instances_per_sec, after.allocations_per_solve
    );
    println!("  speedup {speedup:.3}x, allocation reduction {alloc_ratio:.1}x");

    let json = format!(
        "{{\n  \"bench\": \"context_reuse\",\n  \"workload_instances\": {},\n  \
         \"before\": {{ \"instances_per_sec\": {:.3}, \"allocations_per_solve\": {:.1} }},\n  \
         \"after\": {{ \"instances_per_sec\": {:.3}, \"allocations_per_solve\": {:.1} }},\n  \
         \"speedup\": {:.4},\n  \"allocation_reduction\": {:.2}\n}}\n",
        workload.len(),
        before.instances_per_sec,
        before.allocations_per_solve,
        after.instances_per_sec,
        after.allocations_per_solve,
        speedup,
        alloc_ratio,
    );
    let path = taxi_bench::artifact_path("BENCH_context.json");
    std::fs::write(&path, json).expect("write BENCH_context.json");
    println!("wrote {}", path.display());
}
