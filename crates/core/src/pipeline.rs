//! The staged solving pipeline: Cluster → FixEndpoints → SolveLevels → Assemble →
//! Account.
//!
//! [`TaxiSolver::solve`](crate::TaxiSolver::solve) is a thin wrapper over this module.
//! Each stage produces a typed [`StageReport`] (collected into
//! [`TaxiSolution::stage_reports`](crate::TaxiSolution)) and fires the optional
//! [`PipelineObserver`] hooks, so progress and per-stage cost are observable without
//! touching the hot path:
//!
//! 1. **Cluster** — build the bottom-up cluster [`Hierarchy`] (host, measured).
//! 2. **FixEndpoints** — pin every cluster's entry/exit entities from the level above's
//!    visiting order (host, measured; interleaved per level with stage 3, reported in
//!    aggregate).
//! 3. **SolveLevels** — solve the topmost centroid cycle and every cluster's
//!    fixed-endpoint path through the configured [`TourSolver`] backend, fanning the
//!    clusters of a level out over the shared worker pool (host, measured).
//! 4. **Assemble** — expand the per-cluster orders into the final city [`Tour`].
//! 5. **Account** — compile the solve plan onto the spatial architecture and simulate
//!    hardware latency/energy (`modeled_seconds` on the report).
//!
//! # Zero-realloc solve path
//!
//! Every stage borrows its working memory from the caller's
//! [`SolveContext`]: hierarchy levels are walked through borrowed
//! [`LevelView`] slices (level centroids are contiguous `&[Point]` slices of the
//! hierarchy's flat storage), sub-problem matrices are filled into a reused buffer, and
//! backends write visiting orders into reused buffers via
//! [`TourSolver::solve_path_into`]. With one thread (or inside one batch worker) the
//! per-level sub-problem loop performs **zero heap allocations** after warm-up — proved
//! by the allocation-counter tests in this module. The parallel fan-out path still
//! allocates O(1) per cluster for job hand-off (jobs must own their inputs), but each
//! pool worker reuses a persistent [`SolverScratch`] across levels and instances.
//!
//! The pool is created once per [`solve`](crate::TaxiSolver::solve) call and shared
//! across all hierarchy levels instead of respawning threads per level as the original
//! monolithic solver did; [`solve_batch`](crate::TaxiSolver::solve_batch) shards whole
//! instances across workers, each owning its context.
//!
//! [`LevelView`]: taxi_cluster::LevelView

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use taxi_arch::{Compiler, LevelPlan, SolvePlan, SubProblem};
use taxi_cluster::{EndpointFixer, FixedEndpoints, Hierarchy, LevelView, Point};
use taxi_dist::DistanceMatrix;
use taxi_tsplib::{Tour, TspInstance};

use crate::backend::{SolverScratch, TourSolver};
use crate::context::{SolveBuffers, SolveContext};
use crate::{EnergyBreakdown, LatencyBreakdown, TaxiConfig, TaxiError, TaxiSolution};

/// One of the five pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Hierarchical clustering of the cities.
    Cluster,
    /// Inter-cluster endpoint fixing (aggregated across levels).
    FixEndpoints,
    /// Sub-problem solving through the backend (aggregated across levels).
    SolveLevels,
    /// Expansion of cluster orders into the final tour.
    Assemble,
    /// Hardware latency/energy accounting on the spatial architecture.
    Account,
}

impl Stage {
    /// The five stages in execution order.
    pub const ALL: [Stage; 5] = [
        Stage::Cluster,
        Stage::FixEndpoints,
        Stage::SolveLevels,
        Stage::Assemble,
        Stage::Account,
    ];
}

/// Outcome of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReport {
    /// Which stage this report describes.
    pub stage: Stage,
    /// Host wall-clock time spent in the stage, in seconds.
    pub seconds: f64,
    /// Work items processed: hierarchy levels (Cluster), clusters fixed (FixEndpoints),
    /// sub-problems solved (SolveLevels), cities assembled (Assemble), or plan
    /// sub-problems accounted (Account).
    pub items: usize,
    /// Modelled hardware seconds attributed by the stage (nonzero only for
    /// [`Stage::Account`]: Ising + transfer + mapping latency).
    pub modeled_seconds: f64,
}

/// Hooks fired as the pipeline progresses. All methods default to no-ops, so observers
/// implement only what they need; observation never changes solving behaviour.
pub trait PipelineObserver {
    /// A stage is about to run. `FixEndpoints` and `SolveLevels` interleave per level,
    /// so their start hooks both fire before the level loop.
    fn on_stage_start(&mut self, _stage: Stage) {}

    /// A stage finished with the given report.
    fn on_stage_end(&mut self, _report: &StageReport) {}

    /// One hierarchy level was solved. `level_index` counts from 0 = cities; the
    /// topmost centroid cycle reports `Some(num_levels)`, and `None` flags the
    /// single-macro fast path (the whole instance fit one sub-problem).
    fn on_level_solved(&mut self, _level_index: Option<usize>, _subproblems: usize) {}
}

/// The do-nothing observer used by the plain `solve` entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl PipelineObserver for NullObserver {}

/// Thread-safe observer adapter: wraps any [`PipelineObserver`] behind a mutex so one
/// observer instance can be shared by many solving threads (a dispatch service's
/// workers, batch shards, ...) without `unsafe`.
///
/// [`PipelineObserver`] takes `&mut self`, which a shared reference cannot provide;
/// `SharedObserver` closes the gap by implementing the trait **for `&SharedObserver`**,
/// locking around every hook. Hooks fire outside the measured hot loops, so the lock is
/// never on the solve path itself.
///
/// # Example
///
/// ```
/// use taxi::pipeline::{PipelineObserver, SharedObserver, Stage, StageReport};
///
/// #[derive(Default)]
/// struct StageCounter(usize);
/// impl PipelineObserver for StageCounter {
///     fn on_stage_end(&mut self, _report: &StageReport) {
///         self.0 += 1;
///     }
/// }
///
/// let shared = SharedObserver::new(StageCounter::default());
/// let mut handle = &shared; // `&SharedObserver<_>` is itself a PipelineObserver
/// handle.on_stage_start(Stage::Cluster);
/// handle.on_stage_end(&StageReport {
///     stage: Stage::Cluster,
///     seconds: 0.0,
///     items: 1,
///     modeled_seconds: 0.0,
/// });
/// assert_eq!(shared.into_inner().0, 1);
/// ```
#[derive(Debug, Default)]
pub struct SharedObserver<O> {
    inner: Mutex<O>,
}

impl<O: PipelineObserver> SharedObserver<O> {
    /// Wraps `observer` for shared use.
    pub fn new(observer: O) -> Self {
        Self {
            inner: Mutex::new(observer),
        }
    }

    /// Runs `f` with exclusive access to the wrapped observer (for reading accumulated
    /// state mid-flight).
    pub fn with<R>(&self, f: impl FnOnce(&mut O) -> R) -> R {
        f(&mut self.lock())
    }

    /// Unwraps the observer.
    pub fn into_inner(self) -> O {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, O> {
        // A panic inside an observer hook must not silently disable observation for
        // the rest of the service's lifetime; observer state is advisory, so
        // recovering the poisoned value is safe.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<O: PipelineObserver> PipelineObserver for &SharedObserver<O> {
    fn on_stage_start(&mut self, stage: Stage) {
        self.lock().on_stage_start(stage);
    }

    fn on_stage_end(&mut self, report: &StageReport) {
        self.lock().on_stage_end(report);
    }

    fn on_level_solved(&mut self, level_index: Option<usize>, subproblems: usize) {
        self.lock().on_level_solved(level_index, subproblems);
    }
}

/// A job executed on a pool worker. Jobs receive the worker's persistent scratch, so
/// backend work areas (warm macros, DP tables, ...) are reused across jobs, levels and
/// batch instances.
type Job = Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>;

/// Per-worker state that persists across jobs.
#[derive(Default)]
struct WorkerScratch {
    scratch: SolverScratch,
    out: Vec<usize>,
}

/// A fixed-size worker pool shared across hierarchy levels and batch instances.
///
/// Workers pull boxed jobs from one queue and hand each job their persistent
/// [`WorkerScratch`]; a panicking job is contained (the worker and its scratch survive)
/// and surfaces as a missing result in the submitting level, which converts it into a
/// panic on the coordinating thread — the same failure mode as the original per-level
/// `std::thread::scope` code, without respawning threads per level per solve.
pub(crate) struct SolvePool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SolvePool {
    /// Spawns `threads` workers.
    pub(crate) fn new(threads: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("taxi-solve-{i}"))
                    .spawn(move || {
                        let mut cell = WorkerScratch::default();
                        loop {
                            let job = {
                                let guard = receiver.lock().expect("pool queue lock");
                                guard.recv()
                            };
                            match job {
                                Ok(job) => {
                                    // Contain panics so one poisoned sub-problem cannot
                                    // take the whole pool down for later levels/instances.
                                    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                        job(&mut cell)
                                    }));
                                }
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn solver worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    fn submit(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool is open")
            .send(job)
            .expect("solver workers alive");
    }
}

impl Drop for SolvePool {
    fn drop(&mut self) {
        // Closing the channel lets every worker drain and exit.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Positions and pairwise-distance access for the entities of one hierarchy level.
enum EntitySpace<'a> {
    /// Level 0: entities are the instance's cities.
    Cities(&'a TspInstance),
    /// Upper levels: entities are cluster centroids of the level below (a borrowed
    /// slice of the hierarchy's flat centroid storage).
    Centroids(&'a [Point]),
}

impl EntitySpace<'_> {
    /// Resets `matrix` to `members.len()` entities and fills it with their pairwise
    /// distances in place, reusing the flat buffer.
    fn fill_matrix(&self, members: &[usize], matrix: &mut DistanceMatrix) -> Result<(), TaxiError> {
        let n = members.len();
        match self {
            EntitySpace::Cities(instance) => {
                instance.distance_matrix_into(members, matrix)?;
            }
            EntitySpace::Centroids(points) => {
                matrix.fill_from_fn(n, |i, j| points[members[i]].distance(&points[members[j]]));
            }
        }
        Ok(())
    }

    /// Owned distance matrix for `members` (used by the parallel fan-out path, whose
    /// jobs must own their inputs).
    fn matrix_owned(&self, members: &[usize]) -> Result<DistanceMatrix, TaxiError> {
        let mut matrix = DistanceMatrix::default();
        self.fill_matrix(members, &mut matrix)?;
        Ok(matrix)
    }
}

/// Trivially small sub-problems (≤ 3 cities) are solved without annealing, so they cost
/// no macro iterations.
pub(crate) fn hardware_iterations_for(cities: usize, schedule_iterations: u64) -> u64 {
    if cities <= 3 {
        0
    } else {
        schedule_iterations
    }
}

/// Runs the full pipeline for one instance, borrowing all scratch memory from `ctx`.
pub(crate) fn run(
    config: &TaxiConfig,
    backend: &Arc<dyn TourSolver>,
    pool: Option<&SolvePool>,
    instance: &TspInstance,
    observer: &mut dyn PipelineObserver,
    ctx: &mut SolveContext,
) -> Result<TaxiSolution, TaxiError> {
    let coords = instance
        .coordinates()
        .ok_or_else(|| TaxiError::UnsupportedInstance {
            reason: "TAXI's hierarchical clustering requires city coordinates".to_string(),
        })?;
    let SolveContext {
        cities,
        endpoints,
        cluster_order,
        entity_order,
        buffers,
    } = ctx;
    cities.clear();
    cities.extend(coords.iter().map(|&(x, y)| Point::new(x, y)));
    let hardware_iterations = config.hardware_schedule().len() as u64;

    // Stage 1: Cluster.
    observer.on_stage_start(Stage::Cluster);
    let clustering_start = Instant::now();
    let hierarchy = Hierarchy::build(cities, &config.hierarchy_config()?)?;
    let cluster_report = StageReport {
        stage: Stage::Cluster,
        seconds: clustering_start.elapsed().as_secs_f64(),
        items: hierarchy.num_levels(),
        modeled_seconds: 0.0,
    };
    observer.on_stage_end(&cluster_report);

    // Stages 2 + 3: FixEndpoints and SolveLevels, interleaved per level.
    observer.on_stage_start(Stage::FixEndpoints);
    observer.on_stage_start(Stage::SolveLevels);
    let mut fixing_seconds = 0.0;
    let mut clusters_fixed = 0usize;
    let mut software_solve_seconds = 0.0;
    let mut level_plans: Vec<LevelPlan> = Vec::new();
    let mut subproblem_count = 0usize;

    if hierarchy.num_levels() == 0 {
        // The whole instance fits in one macro.
        let solve_start = Instant::now();
        buffers.members.clear();
        buffers.members.extend(0..instance.dimension());
        EntitySpace::Cities(instance).fill_matrix(&buffers.members, &mut buffers.matrix)?;
        backend.solve_cycle_into(
            &buffers.matrix,
            config.seed(),
            &mut buffers.scratch,
            entity_order,
        )?;
        software_solve_seconds += solve_start.elapsed().as_secs_f64();
        subproblem_count += 1;
        level_plans.push(LevelPlan::new(vec![SubProblem {
            cities: instance.dimension(),
            iterations: hardware_iterations_for(instance.dimension(), hardware_iterations),
        }]));
        observer.on_level_solved(None, 1);
    } else {
        // Topmost TSP over the top level's cluster centroids.
        let top = hierarchy
            .top_level()
            .expect("hierarchy has at least one level");
        let top_centroids = top.centroids();
        let solve_start = Instant::now();
        buffers.members.clear();
        buffers.members.extend(0..top.len());
        EntitySpace::Centroids(top_centroids).fill_matrix(&buffers.members, &mut buffers.matrix)?;
        backend.solve_cycle_into(
            &buffers.matrix,
            config.seed(),
            &mut buffers.scratch,
            cluster_order,
        )?;
        software_solve_seconds += solve_start.elapsed().as_secs_f64();
        subproblem_count += 1;
        level_plans.push(LevelPlan::new(vec![SubProblem {
            cities: top.len(),
            iterations: hardware_iterations_for(top.len(), hardware_iterations),
        }]));
        observer.on_level_solved(Some(hierarchy.num_levels()), 1);

        // Walk the hierarchy top-down, expanding the visiting order of each level's
        // clusters into a visiting order of the entities one level below.
        for level_index in (0..hierarchy.num_levels()).rev() {
            let level = hierarchy.level(level_index);
            // Entity positions are borrowed slices everywhere: the instance's cities for
            // level 0, the hierarchy's contiguous centroid storage for upper levels.
            let entity_positions: &[Point] = if level_index == 0 {
                cities
            } else {
                hierarchy.level(level_index - 1).centroids()
            };
            let entity_space = if level_index == 0 {
                EntitySpace::Cities(instance)
            } else {
                EntitySpace::Centroids(entity_positions)
            };

            // Stage 2 slice: endpoint fixing for this level.
            let fixing_start = Instant::now();
            let fixer = EndpointFixer::new(entity_positions);
            fixer.fix_into(&level, cluster_order, endpoints)?;
            fixing_seconds += fixing_start.elapsed().as_secs_f64();
            clusters_fixed += level.len();

            // Stage 3 slice: solve every cluster of this level through the backend.
            let solve_start = Instant::now();
            solve_level(
                backend,
                pool,
                &entity_space,
                level,
                cluster_order,
                endpoints,
                config.seed() ^ ((level_index as u64 + 1) << 32),
                buffers,
                entity_order,
            )?;
            software_solve_seconds += solve_start.elapsed().as_secs_f64();

            subproblem_count += level.len();
            level_plans.push(LevelPlan::new(
                level
                    .clusters()
                    .map(|c| SubProblem {
                        cities: c.len(),
                        iterations: hardware_iterations_for(c.len(), hardware_iterations),
                    })
                    .collect(),
            ));
            observer.on_level_solved(Some(level_index), level.len());

            if level_index > 0 {
                // This level's entity order is the next level's cluster order.
                std::mem::swap(cluster_order, entity_order);
            }
        }
    }

    let fix_report = StageReport {
        stage: Stage::FixEndpoints,
        seconds: fixing_seconds,
        items: clusters_fixed,
        modeled_seconds: 0.0,
    };
    observer.on_stage_end(&fix_report);
    let solve_report = StageReport {
        stage: Stage::SolveLevels,
        seconds: software_solve_seconds,
        items: subproblem_count,
        modeled_seconds: 0.0,
    };
    observer.on_stage_end(&solve_report);

    // Stage 4: Assemble.
    observer.on_stage_start(Stage::Assemble);
    let assemble_start = Instant::now();
    let tour = Tour::new(entity_order.clone())?;
    let length = tour.length(instance);
    let assemble_report = StageReport {
        stage: Stage::Assemble,
        seconds: assemble_start.elapsed().as_secs_f64(),
        items: instance.dimension(),
        modeled_seconds: 0.0,
    };
    observer.on_stage_end(&assemble_report);

    // Stage 5: Account.
    observer.on_stage_start(Stage::Account);
    let account_start = Instant::now();
    let compiler = Compiler::new(config.arch_config());
    let plan = SolvePlan::new(level_plans);
    compiler.check(&plan)?;
    let arch_report = compiler.compile(&plan).simulate();
    let modeled_seconds = arch_report.ising_latency_seconds
        + arch_report.transfer_latency_seconds
        + arch_report.mapping_latency_seconds;
    let account_report = StageReport {
        stage: Stage::Account,
        seconds: account_start.elapsed().as_secs_f64(),
        items: subproblem_count,
        modeled_seconds,
    };
    observer.on_stage_end(&account_report);

    let latency = LatencyBreakdown {
        clustering_seconds: cluster_report.seconds,
        fixing_seconds,
        ising_seconds: arch_report.ising_latency_seconds,
        transfer_seconds: arch_report.transfer_latency_seconds,
        mapping_seconds: arch_report.mapping_latency_seconds,
    };
    let energy = EnergyBreakdown {
        ising_joules: arch_report.ising_energy_joules,
        transfer_joules: arch_report.transfer_energy_joules,
        mapping_joules: arch_report.mapping_energy_joules,
    };
    Ok(TaxiSolution {
        tour,
        length,
        levels: hierarchy.num_levels(),
        subproblems: subproblem_count,
        latency,
        energy,
        arch_report,
        software_solve_seconds,
        stage_reports: vec![
            cluster_report,
            fix_report,
            solve_report,
            assemble_report,
            account_report,
        ],
    })
}

/// Per-cluster seed derivation (stable across the serial and parallel paths).
fn cluster_seed(level_seed: u64, index: usize) -> u64 {
    level_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Inputs of one per-cluster solve, prepared on the coordinating thread so that jobs own
/// everything they touch (the pool requires `'static` jobs).
struct PreparedCluster {
    index: usize,
    matrix: DistanceMatrix,
    start_local: usize,
    end_local: usize,
    seed: u64,
}

/// Local start/end indices of a cluster's fixed endpoints within its member list.
fn local_endpoints(members: &[u32], endpoint: FixedEndpoints) -> (usize, usize) {
    let start_local = members
        .iter()
        .position(|&m| m as usize == endpoint.entry)
        .expect("entry endpoint belongs to the cluster");
    let end_local = members
        .iter()
        .position(|&m| m as usize == endpoint.exit)
        .expect("exit endpoint belongs to the cluster");
    (start_local, end_local)
}

/// Solves one prepared sub-problem into `out` through the buffer-reusing backend entry
/// points. Degenerate (equal) endpoints can only happen for single-member clusters
/// (handled by the caller) or a single-cluster level; fall back to a cycle solve.
fn solve_prepared_into(
    backend: &dyn TourSolver,
    matrix: &DistanceMatrix,
    start_local: usize,
    end_local: usize,
    seed: u64,
    scratch: &mut SolverScratch,
    out: &mut Vec<usize>,
) -> Result<(), TaxiError> {
    if start_local == end_local {
        backend.solve_cycle_into(matrix, seed, scratch, out)?;
    } else {
        backend.solve_path_into(matrix, start_local, end_local, seed, scratch, out)?;
    }
    Ok(())
}

/// Solves every cluster of one level (path TSPs with fixed endpoints) and concatenates
/// the resulting member orders following the cluster visiting order into
/// `entity_order`.
///
/// The serial path (no pool, or a single cluster) borrows everything from `buffers` and
/// performs zero heap allocations once warm; the pooled path prepares owned jobs per
/// cluster (jobs must be `'static`) while each worker reuses its persistent scratch.
#[allow(clippy::too_many_arguments)]
fn solve_level(
    backend: &Arc<dyn TourSolver>,
    pool: Option<&SolvePool>,
    entity_space: &EntitySpace<'_>,
    level: LevelView<'_>,
    cluster_order: &[usize],
    endpoints: &[FixedEndpoints],
    level_seed: u64,
    buffers: &mut SolveBuffers,
    entity_order: &mut Vec<usize>,
) -> Result<(), TaxiError> {
    let k = level.len();
    if buffers.resolved.len() < k {
        buffers.resolved.resize_with(k, Vec::new);
    }
    // Keep the error of the lowest cluster index so the pooled path reports the same
    // error as the serial path regardless of worker arrival order.
    let mut first_error: Option<(usize, TaxiError)> = None;

    match pool {
        Some(pool) if k > 1 => {
            let (tx, rx) = mpsc::channel::<(usize, Result<Vec<usize>, TaxiError>)>();
            let mut submitted = 0usize;
            for index in 0..k {
                let members = level.members(index);
                if members.len() == 1 {
                    let out = &mut buffers.resolved[index];
                    out.clear();
                    out.push(members[0] as usize);
                    continue;
                }
                buffers.members.clear();
                buffers.members.extend(members.iter().map(|&m| m as usize));
                let (start_local, end_local) = local_endpoints(members, endpoints[index]);
                let task = PreparedCluster {
                    index,
                    matrix: entity_space.matrix_owned(&buffers.members)?,
                    start_local,
                    end_local,
                    seed: cluster_seed(level_seed, index),
                };
                let backend = Arc::clone(backend);
                let tx = tx.clone();
                pool.submit(Box::new(move |cell: &mut WorkerScratch| {
                    let result = solve_prepared_into(
                        backend.as_ref(),
                        &task.matrix,
                        task.start_local,
                        task.end_local,
                        task.seed,
                        &mut cell.scratch,
                        &mut cell.out,
                    )
                    .map(|()| cell.out.clone());
                    let _ = tx.send((task.index, result));
                }));
                submitted += 1;
            }
            drop(tx);
            for _ in 0..submitted {
                let (index, local) = rx
                    .recv()
                    .expect("a solver worker panicked while solving a cluster");
                match local {
                    Ok(local_order) => {
                        let members = level.members(index);
                        let out = &mut buffers.resolved[index];
                        out.clear();
                        out.extend(local_order.iter().map(|&l| members[l] as usize));
                    }
                    Err(err) => {
                        // Drain the remaining results before surfacing the error so the
                        // channel closes cleanly.
                        if first_error.as_ref().map_or(true, |(i, _)| index < *i) {
                            first_error = Some((index, err));
                        }
                    }
                }
            }
        }
        _ => {
            for index in 0..k {
                let members = level.members(index);
                let out_len = members.len();
                if out_len == 1 {
                    let out = &mut buffers.resolved[index];
                    out.clear();
                    out.push(members[0] as usize);
                    continue;
                }
                buffers.members.clear();
                buffers.members.extend(members.iter().map(|&m| m as usize));
                let (start_local, end_local) = local_endpoints(members, endpoints[index]);
                entity_space.fill_matrix(&buffers.members, &mut buffers.matrix)?;
                solve_prepared_into(
                    backend.as_ref(),
                    &buffers.matrix,
                    start_local,
                    end_local,
                    cluster_seed(level_seed, index),
                    &mut buffers.scratch,
                    &mut buffers.local_order,
                )?;
                let out = &mut buffers.resolved[index];
                out.clear();
                out.extend(buffers.local_order.iter().map(|&l| buffers.members[l]));
            }
        }
    }
    if let Some((_, err)) = first_error {
        return Err(err);
    }

    entity_order.clear();
    for &cluster_index in cluster_order {
        entity_order.extend_from_slice(&buffers.resolved[cluster_index]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hardware_iterations_vanish_for_trivial_subproblems() {
        assert_eq!(hardware_iterations_for(3, 1340), 0);
        assert_eq!(hardware_iterations_for(12, 1340), 1340);
    }

    #[test]
    fn pool_executes_submitted_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = SolvePool::new(4);
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                pool.submit(Box::new(move |_cell| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }));
            }
            // Dropping the pool joins every worker after the queue drains.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = SolvePool::new(1);
            pool.submit(Box::new(|_cell| panic!("poisoned sub-problem")));
            let counter_clone = Arc::clone(&counter);
            pool.submit(Box::new(move |_cell| {
                counter_clone.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_workers_keep_scratch_between_jobs() {
        let (tx, rx) = mpsc::channel();
        {
            let pool = SolvePool::new(1);
            pool.submit(Box::new(|cell: &mut WorkerScratch| {
                cell.out.push(41);
            }));
            pool.submit(Box::new(move |cell: &mut WorkerScratch| {
                cell.out.push(1);
                let _ = tx.send(cell.out.clone());
            }));
        }
        assert_eq!(rx.recv().unwrap(), vec![41, 1]);
    }

    #[test]
    fn shared_observer_forwards_hooks_from_many_threads() {
        #[derive(Default)]
        struct Tally {
            starts: usize,
            ends: usize,
            levels: usize,
        }
        impl PipelineObserver for Tally {
            fn on_stage_start(&mut self, _stage: Stage) {
                self.starts += 1;
            }
            fn on_stage_end(&mut self, _report: &StageReport) {
                self.ends += 1;
            }
            fn on_level_solved(&mut self, _level: Option<usize>, _subproblems: usize) {
                self.levels += 1;
            }
        }

        let shared = SharedObserver::new(Tally::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut observer: &SharedObserver<Tally> = shared;
                    for _ in 0..10 {
                        observer.on_stage_start(Stage::Cluster);
                        observer.on_level_solved(Some(0), 2);
                        observer.on_stage_end(&StageReport {
                            stage: Stage::Cluster,
                            seconds: 0.0,
                            items: 1,
                            modeled_seconds: 0.0,
                        });
                    }
                });
            }
        });
        shared.with(|tally| {
            assert_eq!(tally.starts, 40);
            assert_eq!(tally.levels, 40);
        });
        let tally = shared.into_inner();
        assert_eq!(tally.ends, 40);
    }

    #[test]
    fn stage_order_is_stable() {
        assert_eq!(Stage::ALL[0], Stage::Cluster);
        assert_eq!(Stage::ALL[4], Stage::Account);
        assert_eq!(Stage::ALL.len(), 5);
    }
}
