//! The end-to-end TAXI solver: a thin entry point over the staged [`pipeline`] module
//! (hierarchical clustering → endpoint fixing → backend sub-problem solving → tour
//! assembly → hardware latency/energy accounting).
//!
//! [`pipeline`]: crate::pipeline

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use taxi_cache::{FlightOutcome, Join};
use taxi_tsplib::TspInstance;

use crate::backend::{SolverBackend, TourSolver};
use crate::cache::{CacheLookup, SolutionCache};
use crate::config::BackendChoice;
use crate::context::SolveContext;
use crate::pipeline::{self, NullObserver, PipelineObserver, SolvePool};
use crate::router::{AdaptiveRouter, RouterConfig, RoutingDecision};
use crate::{TaxiConfig, TaxiError, TaxiSolution};

/// The TAXI solver.
///
/// Sub-problem solving is pluggable: the configured
/// [`SolverBackend`] (the paper's Ising macro by default) is
/// instantiated once per entry-point call and drives every sub-problem solve.
///
/// The solver owns a reusable [`SolveContext`] scratch arena: repeated `solve` calls on
/// one solver reuse the same buffers and warm backend state, so the steady-state
/// per-level solve loop allocates nothing (see the [`context`](crate::context) module
/// docs). Concurrent `solve` calls on one shared solver stay safe — a call that finds
/// the context busy falls back to a fresh one.
///
/// # Example
///
/// ```
/// use taxi::{SolverBackend, TaxiConfig, TaxiSolver};
/// use taxi_tsplib::generator::clustered_instance;
///
/// let instance = clustered_instance("demo", 80, 5, 11);
/// let solver = TaxiSolver::new(TaxiConfig::new().with_seed(1));
/// let solution = solver.solve(&instance)?;
/// assert!(solution.tour.is_valid_for(&instance));
/// assert!(solution.latency.total_seconds() > 0.0);
///
/// // The same pipeline under a software heuristic backend:
/// let heuristic = TaxiSolver::new(
///     TaxiConfig::new().with_seed(1).with_backend(SolverBackend::NnTwoOpt),
/// );
/// assert!(heuristic.solve(&instance)?.tour.is_valid_for(&instance));
/// # Ok::<(), taxi::TaxiError>(())
/// ```
#[derive(Debug)]
pub struct TaxiSolver {
    config: TaxiConfig,
    /// The solver's persistent scratch arena. Behind a mutex only so `solve(&self)`
    /// can reuse it; never held across calls.
    context: Mutex<SolveContext>,
    /// Lazily computed [`TaxiConfig::cache_token`] (the token derivation formats the
    /// configuration, so it is computed once, not per cached solve).
    cache_token: OnceLock<u64>,
    /// Lazily computed per-backend [`TaxiConfig::routed_cache_token`]s, indexed like
    /// [`SolverBackend::ALL`].
    routed_tokens: OnceLock<[u64; SolverBackend::ALL.len()]>,
    /// The solver-owned router engaged by [`BackendChoice::Adaptive`], built on
    /// first use (seeded from the configuration, so routing is reproducible).
    router: OnceLock<Arc<AdaptiveRouter>>,
}

impl Clone for TaxiSolver {
    fn clone(&self) -> Self {
        // Scratch state is behaviourally transparent, so a clone starts cold.
        Self::new(self.config.clone())
    }
}

impl PartialEq for TaxiSolver {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl TaxiSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: TaxiConfig) -> Self {
        Self {
            config,
            context: Mutex::new(SolveContext::new()),
            cache_token: OnceLock::new(),
            routed_tokens: OnceLock::new(),
            router: OnceLock::new(),
        }
    }

    /// The solver configuration.
    pub fn config(&self) -> &TaxiConfig {
        &self.config
    }

    /// Solves `instance` end to end with the configured backend.
    ///
    /// # Errors
    ///
    /// Returns [`TaxiError::UnsupportedInstance`] for explicit-matrix instances without
    /// coordinates, or propagates clustering / backend / architecture errors.
    pub fn solve(&self, instance: &TspInstance) -> Result<TaxiSolution, TaxiError> {
        self.solve_with_observer(instance, &mut NullObserver)
    }

    /// Like [`solve`](Self::solve), firing `observer` hooks as pipeline stages progress.
    ///
    /// Under [`BackendChoice::Adaptive`] the solver routes the instance through its
    /// internal [`AdaptiveRouter`] (seeded from the configuration) and solves with
    /// the chosen backend; use [`solve_routed`](Self::solve_routed) to supply a
    /// shared router or to see the [`RoutingDecision`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_with_observer(
        &self,
        instance: &TspInstance,
        observer: &mut dyn PipelineObserver,
    ) -> Result<TaxiSolution, TaxiError> {
        match self.config.backend_choice() {
            BackendChoice::Adaptive => {
                let router = Arc::clone(self.internal_router());
                self.solve_routed_observed(instance, &router, None, observer)
                    .map(|routed| routed.solution)
            }
            BackendChoice::Fixed(_) => {
                let backend = self.config.build_backend();
                self.solve_with_backend_observed(instance, &backend, observer)
            }
        }
    }

    /// Solves `instance` through an [`AdaptiveRouter`]: the router picks the backend
    /// from its online profiles (deadline-feasible within `slack`, quality-first,
    /// ε-greedy exploration), the solve runs with exactly that backend, and the
    /// measured latency and tour cost are fed back into the profiles.
    ///
    /// The returned tour is **bit-identical** to solving the same instance with the
    /// chosen backend configured fixed — routing selects, it never alters the
    /// pipeline (a tested invariant).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_routed(
        &self,
        instance: &TspInstance,
        router: &AdaptiveRouter,
        slack: Option<Duration>,
    ) -> Result<RoutedSolve, TaxiError> {
        self.solve_routed_observed(instance, router, slack, &mut NullObserver)
    }

    /// [`solve_routed`](Self::solve_routed) with observer hooks.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_routed_observed(
        &self,
        instance: &TspInstance,
        router: &AdaptiveRouter,
        slack: Option<Duration>,
        observer: &mut dyn PipelineObserver,
    ) -> Result<RoutedSolve, TaxiError> {
        let decision = router.route(instance, slack);
        let backend = self.config.build_backend_for(decision.backend);
        let started = Instant::now();
        let solution = self.solve_with_backend_observed(instance, &backend, observer)?;
        let quality = router.observe(
            instance,
            decision.backend,
            started.elapsed(),
            solution.length,
        );
        Ok(RoutedSolve {
            solution,
            decision,
            quality,
        })
    }

    /// The router [`BackendChoice::Adaptive`] entry points use when the caller does
    /// not supply one, created on first use.
    fn internal_router(&self) -> &Arc<AdaptiveRouter> {
        self.router.get_or_init(|| {
            Arc::new(AdaptiveRouter::new(
                RouterConfig::new()
                    .with_seed(self.config.seed())
                    .with_cluster_capacity(self.config.max_cluster_size()),
            ))
        })
    }

    /// Like [`solve`](Self::solve), but through a caller-supplied [`TourSolver`] —
    /// the extension point for backends not covered by
    /// [`SolverBackend`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_with_backend(
        &self,
        instance: &TspInstance,
        backend: &Arc<dyn TourSolver>,
    ) -> Result<TaxiSolution, TaxiError> {
        self.solve_with_backend_observed(instance, backend, &mut NullObserver)
    }

    /// The most general entry point: caller-supplied backend and observer.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_with_backend_observed(
        &self,
        instance: &TspInstance,
        backend: &Arc<dyn TourSolver>,
        observer: &mut dyn PipelineObserver,
    ) -> Result<TaxiSolution, TaxiError> {
        let pool = self.make_pool();
        // Reuse the solver's warm context; if another call holds it, solve with a cold
        // local context instead of blocking. A lock poisoned by a panicked solve is
        // recovered: the scratch is behaviourally transparent (buffers are cleared or
        // re-validated before use), so reuse stays safe and the arena is not silently
        // lost for the solver's lifetime.
        match self.context.try_lock() {
            Ok(mut ctx) => pipeline::run(
                &self.config,
                backend,
                pool.as_ref(),
                instance,
                observer,
                &mut ctx,
            ),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => pipeline::run(
                &self.config,
                backend,
                pool.as_ref(),
                instance,
                observer,
                &mut poisoned.into_inner(),
            ),
            Err(std::sync::TryLockError::WouldBlock) => pipeline::run(
                &self.config,
                backend,
                pool.as_ref(),
                instance,
                observer,
                &mut SolveContext::new(),
            ),
        }
    }

    /// Like [`solve`](Self::solve), but borrowing a caller-owned [`SolveContext`]
    /// instead of the solver's internal one — the building block for callers that
    /// manage their own worker-context affinity.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_reusing(
        &self,
        instance: &TspInstance,
        ctx: &mut SolveContext,
    ) -> Result<TaxiSolution, TaxiError> {
        let backend = self.config.build_backend();
        self.solve_reusing_observed(instance, &backend, &mut NullObserver, ctx)
    }

    /// The fully general reusing entry point: caller-supplied backend, observer **and**
    /// context. This is what a long-lived serving worker calls in its steady-state
    /// loop: the backend is built once per worker (not per request), the observer
    /// feeds per-stage timings into service metrics, and the context keeps every
    /// scratch buffer warm across requests.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_reusing_observed(
        &self,
        instance: &TspInstance,
        backend: &Arc<dyn TourSolver>,
        observer: &mut dyn PipelineObserver,
        ctx: &mut SolveContext,
    ) -> Result<TaxiSolution, TaxiError> {
        let pool = self.make_pool();
        pipeline::run(
            &self.config,
            backend,
            pool.as_ref(),
            instance,
            observer,
            ctx,
        )
    }

    /// This solver's cache-key scope (memoised
    /// [`TaxiConfig::cache_token`]).
    pub fn cache_token(&self) -> u64 {
        *self.cache_token.get_or_init(|| self.config.cache_token())
    }

    /// The cache-key scope of a solve routed to `backend` (memoised
    /// [`TaxiConfig::routed_cache_token`]): equal to the token of the same
    /// configuration with `backend` fixed, so routed and fixed services share
    /// entries, while solves routed to different backends never collide.
    pub fn routed_cache_token(&self, backend: SolverBackend) -> u64 {
        self.routed_tokens.get_or_init(|| {
            std::array::from_fn(|i| self.config.routed_cache_token(SolverBackend::ALL[i]))
        })[backend.index()]
    }

    /// Like [`solve`](Self::solve), but memoised through `cache`:
    ///
    /// * a **hit** (this geometry — under any city indexing — was already solved
    ///   under this configuration) is served without solving; bit-identical
    ///   resubmissions are served verbatim, permuted ones by canonical-tour remap
    ///   (see [`crate::cache`]);
    /// * concurrent **misses** on the same key are coalesced: one caller (the
    ///   leader) solves and inserts while the rest wait on the flight and share the
    ///   result. A leader whose solve fails (or panics) fails only its own call —
    ///   followers wake and retry, electing a new leader among themselves.
    ///
    /// The returned [`CachedSolve`] carries the solution plus its
    /// [`SolveProvenance`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve) — errors are never cached.
    pub fn solve_cached(
        &self,
        instance: &TspInstance,
        cache: &SolutionCache,
    ) -> Result<CachedSolve, TaxiError> {
        self.solve_cached_inner(instance, cache, None, &mut NullObserver)
    }

    /// [`solve_cached`](Self::solve_cached) with observer hooks (fired only when
    /// this call actually solves — cache hits and coalesced waits run no pipeline).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_cached_observed(
        &self,
        instance: &TspInstance,
        cache: &SolutionCache,
        observer: &mut dyn PipelineObserver,
    ) -> Result<CachedSolve, TaxiError> {
        self.solve_cached_inner(instance, cache, None, observer)
    }

    /// The fully general cached entry point: caller-supplied backend and observer.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve`](Self::solve).
    pub fn solve_cached_with(
        &self,
        instance: &TspInstance,
        cache: &SolutionCache,
        backend: &Arc<dyn TourSolver>,
        observer: &mut dyn PipelineObserver,
    ) -> Result<CachedSolve, TaxiError> {
        self.solve_cached_inner(instance, cache, Some(backend), observer)
    }

    /// Shared cached-solve loop. The backend is built lazily — only if this caller
    /// is elected leader of a flight — so the hit path stays allocation-free.
    ///
    /// Under [`BackendChoice::Adaptive`] (and no caller-supplied backend) the
    /// routing decision is made **before** the lookup, and the cache key is scoped
    /// to the chosen backend ([`routed_cache_token`](Self::routed_cache_token)):
    /// the decision is part of the key, so a hit is guaranteed to have been solved
    /// by the very backend this request was routed to.
    fn solve_cached_inner(
        &self,
        instance: &TspInstance,
        cache: &SolutionCache,
        backend: Option<&Arc<dyn TourSolver>>,
        observer: &mut dyn PipelineObserver,
    ) -> Result<CachedSolve, TaxiError> {
        let routed = match self.config.backend_choice() {
            BackendChoice::Adaptive if backend.is_none() => {
                let router = Arc::clone(self.internal_router());
                Some((router.route(instance, None), router))
            }
            _ => None,
        };
        let token = match &routed {
            Some((decision, _)) => self.routed_cache_token(decision.backend),
            None => self.cache_token(),
        };
        loop {
            let key = match cache.lookup(token, instance) {
                CacheLookup::Hit(hit) => {
                    return Ok(CachedSolve {
                        solution: hit.solution,
                        provenance: SolveProvenance::CacheHit {
                            remapped: hit.remapped,
                        },
                    })
                }
                CacheLookup::Miss(key) => key,
            };
            match cache.flights().join(key) {
                Join::Leader(flight) => {
                    // Close the lookup→join race: a previous leader may have
                    // inserted and retired its flight between this caller's miss and
                    // this election. Dropping the empty flight abandons it, so any
                    // follower that raced in retries and hits the cache.
                    if let Some(hit) = cache.lookup_keyed(key, instance) {
                        drop(flight);
                        return Ok(CachedSolve {
                            solution: hit.solution,
                            provenance: SolveProvenance::CacheHit {
                                remapped: hit.remapped,
                            },
                        });
                    }
                    let built;
                    let backend = match (backend, &routed) {
                        (Some(backend), _) => backend,
                        (None, Some((decision, _))) => {
                            built = self.config.build_backend_for(decision.backend);
                            &built
                        }
                        (None, None) => {
                            built = self.config.build_backend();
                            &built
                        }
                    };
                    // An error return (or a panic unwinding through the solve) drops
                    // `flight` uncompleted, abandoning it: followers wake and retry,
                    // so a poisoned request fails only its own caller.
                    let started = Instant::now();
                    let solution =
                        Arc::new(self.solve_with_backend_observed(instance, backend, observer)?);
                    let provenance = match &routed {
                        Some((decision, router)) => {
                            router.observe(
                                instance,
                                decision.backend,
                                started.elapsed(),
                                solution.length,
                            );
                            SolveProvenance::Routed {
                                backend: decision.backend,
                                explored: decision.explored(),
                            }
                        }
                        None => SolveProvenance::Computed,
                    };
                    let entry = cache.insert(key, instance, Arc::clone(&solution));
                    flight.complete(entry);
                    return Ok(CachedSolve {
                        solution,
                        provenance,
                    });
                }
                Join::Follower(ticket) => match ticket.wait() {
                    FlightOutcome::Complete(entry) => {
                        let hit = cache.serve(&entry, instance);
                        return Ok(CachedSolve {
                            solution: hit.solution,
                            provenance: SolveProvenance::Coalesced {
                                remapped: hit.remapped,
                            },
                        });
                    }
                    // Leader failed: retry from the top (cache re-check, then a new
                    // leader election among the surviving followers).
                    FlightOutcome::Abandoned => continue,
                },
            }
        }
    }

    /// Solves a batch of instances, sharding whole instances across worker threads:
    /// each worker owns one backend handle and one [`SolveContext`], pulls instances
    /// from a shared cursor, and solves them serially — so in steady state the batch
    /// performs zero cross-instance allocation inside the level-solve loop. Under a
    /// fixed seed every per-instance result is identical to what
    /// [`solve`](Self::solve) returns for that instance.
    ///
    /// Sharding only engages when the batch is at least as wide as the thread budget;
    /// smaller batches (including single instances and `threads == 1`) run serially
    /// over one reused context with the full intra-level worker pool, so no configured
    /// thread ever idles.
    ///
    /// Per-instance failures do not abort the batch: each instance yields its own
    /// `Result`, in input order.
    ///
    /// Under [`BackendChoice::Adaptive`] every instance is routed individually (no
    /// deadline slack) through the solver's internal router, in the order workers
    /// pick instances up; each worker lazily builds and reuses one backend instance
    /// per chosen [`SolverBackend`].
    pub fn solve_batch(&self, instances: &[TspInstance]) -> Vec<Result<TaxiSolution, TaxiError>> {
        let router = matches!(self.config.backend_choice(), BackendChoice::Adaptive)
            .then(|| Arc::clone(self.internal_router()));
        // Routed batches build backends per decision; the fixed backend would go
        // unused, so only build it when routing is off.
        let backend = match router {
            Some(_) => None,
            None => Some(self.config.build_backend()),
        };
        let workers = self.config.threads();
        if workers <= 1 || instances.len() < workers {
            // Narrow batch: instance sharding would leave threads idle, so solve
            // instances serially with intra-level fan-out over the full pool, reusing
            // one context.
            let pool = self.make_pool();
            let mut ctx = SolveContext::new();
            let mut routed_backends = RoutedBackends::default();
            return instances
                .iter()
                .map(|instance| match &router {
                    Some(router) => self.run_routed(
                        router,
                        &mut routed_backends,
                        pool.as_ref(),
                        instance,
                        &mut ctx,
                    ),
                    None => pipeline::run(
                        &self.config,
                        backend.as_ref().expect("fixed batches build a backend"),
                        pool.as_ref(),
                        instance,
                        &mut NullObserver,
                        &mut ctx,
                    ),
                })
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<TaxiSolution, TaxiError>>>> =
            (0..instances.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let backend = &backend;
                let router = router.as_ref();
                let cursor = &cursor;
                let slots = &slots;
                scope.spawn(move || {
                    let mut ctx = SolveContext::new();
                    let mut routed_backends = RoutedBackends::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(instance) = instances.get(i) else {
                            break;
                        };
                        let result = match router {
                            Some(router) => self.run_routed(
                                router,
                                &mut routed_backends,
                                None,
                                instance,
                                &mut ctx,
                            ),
                            None => pipeline::run(
                                &self.config,
                                backend.as_ref().expect("fixed batches build a backend"),
                                None,
                                instance,
                                &mut NullObserver,
                                &mut ctx,
                            ),
                        };
                        *slots[i].lock().expect("result slot lock") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("every batch instance was solved")
            })
            .collect()
    }

    /// One routed pipeline run inside a batch: route, solve with a per-worker
    /// memoised backend instance, feed the observation back.
    fn run_routed(
        &self,
        router: &AdaptiveRouter,
        backends: &mut RoutedBackends,
        pool: Option<&SolvePool>,
        instance: &TspInstance,
        ctx: &mut SolveContext,
    ) -> Result<TaxiSolution, TaxiError> {
        let decision = router.route(instance, None);
        let backend = backends.0[decision.backend.index()]
            .get_or_insert_with(|| self.config.build_backend_for(decision.backend));
        let started = Instant::now();
        let result = pipeline::run(
            &self.config,
            backend,
            pool,
            instance,
            &mut NullObserver,
            ctx,
        );
        if let Ok(solution) = &result {
            router.observe(
                instance,
                decision.backend,
                started.elapsed(),
                solution.length,
            );
        }
        result
    }

    fn make_pool(&self) -> Option<SolvePool> {
        (self.config.threads() > 1).then(|| SolvePool::new(self.config.threads()))
    }
}

/// Per-worker lazily built backend instances, indexed like [`SolverBackend::ALL`].
#[derive(Default)]
struct RoutedBackends([Option<Arc<dyn TourSolver>>; SolverBackend::ALL.len()]);

impl Default for TaxiSolver {
    fn default() -> Self {
        Self::new(TaxiConfig::default())
    }
}

/// How a [`TaxiSolver::solve_cached`] call obtained its solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveProvenance {
    /// This call ran the pipeline (and seeded the cache).
    Computed,
    /// This call ran the pipeline through an adaptive routing decision
    /// ([`BackendChoice::Adaptive`]); the cache key was scoped to the routed
    /// backend, so the entry it seeded is shared with fixed-`backend` services.
    Routed {
        /// The backend the router chose.
        backend: SolverBackend,
        /// Whether the choice came from the ε-greedy exploration arm.
        explored: bool,
    },
    /// Served from the cache without solving.
    CacheHit {
        /// Whether the stored tour was remapped into the request's indexing (a
        /// permuted resubmission) or served verbatim (a bit-identical one).
        remapped: bool,
    },
    /// Coalesced onto a concurrent leader's solve of the same key.
    Coalesced {
        /// As for [`SolveProvenance::CacheHit`].
        remapped: bool,
    },
}

impl SolveProvenance {
    /// Whether the solution was obtained without running the pipeline.
    pub fn avoided_solve(self) -> bool {
        !matches!(
            self,
            SolveProvenance::Computed | SolveProvenance::Routed { .. }
        )
    }
}

/// Result of a [`TaxiSolver::solve_routed`] call: the solution plus the routing
/// decision that produced it.
#[derive(Debug, Clone)]
pub struct RoutedSolve {
    /// The end-to-end solution, bit-identical to solving with
    /// [`decision.backend`](RoutingDecision::backend) configured fixed.
    pub solution: TaxiSolution,
    /// The routing decision.
    pub decision: RoutingDecision,
    /// The solve's quality ratio against the router's shadow reference, when one
    /// was available (see [`BackendProfiler::record`](crate::router::BackendProfiler::record)).
    pub quality: Option<f64>,
}

/// Result of a [`TaxiSolver::solve_cached`] call: the (possibly shared) solution and
/// how it was obtained.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The solution, in the request's city indexing. Shared (`Arc`) because cache
    /// hits alias the stored entry rather than deep-copying it.
    pub solution: Arc<TaxiSolution>,
    /// How this call obtained the solution.
    pub provenance: SolveProvenance,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Stage, StageReport};
    use crate::SolverBackend;
    use taxi_tsplib::generator::{clustered_instance, random_uniform_instance};

    fn assert_valid(solution: &TaxiSolution, instance: &TspInstance) {
        assert!(solution.tour.is_valid_for(instance));
        let mut seen = vec![false; instance.dimension()];
        for &c in solution.tour.order() {
            assert!(!seen[c]);
            seen[c] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn solves_a_single_macro_instance() {
        let instance = random_uniform_instance("tiny", 10, 3);
        let solution = TaxiSolver::default().solve(&instance).unwrap();
        assert_valid(&solution, &instance);
        assert_eq!(solution.levels, 0);
        assert_eq!(solution.subproblems, 1);
    }

    #[test]
    fn solves_a_two_level_instance() {
        let instance = clustered_instance("mid", 90, 5, 7);
        let solution = TaxiSolver::new(TaxiConfig::new().with_seed(5))
            .solve(&instance)
            .unwrap();
        assert_valid(&solution, &instance);
        assert!(solution.levels >= 1);
        assert!(solution.subproblems > 1);
        assert!(solution.latency.clustering_seconds > 0.0);
        assert!(solution.latency.ising_seconds > 0.0);
        assert!(solution.energy.total_joules() > 0.0);
    }

    #[test]
    fn solution_quality_is_reasonable_on_clustered_instances() {
        let instance = clustered_instance("quality", 120, 6, 13);
        let solution = TaxiSolver::new(TaxiConfig::new().with_seed(2))
            .solve(&instance)
            .unwrap();
        // Compare against a nearest-neighbour + 2-opt reference.
        let matrix = instance.full_distance_matrix();
        let reference = taxi_baselines::reference_tour(&matrix);
        let reference_length = taxi_baselines::tour_length(&matrix, &reference);
        let ratio = solution.length / reference_length;
        assert!(
            ratio < 1.45,
            "TAXI tour should be within 45% of the heuristic reference, got {ratio:.3}"
        );
    }

    #[test]
    fn explicit_matrix_instances_are_rejected() {
        let instance = TspInstance::from_matrix(
            "m",
            taxi_dist::DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            TaxiSolver::default().solve(&instance),
            Err(TaxiError::UnsupportedInstance { .. })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed_and_single_thread() {
        let instance = clustered_instance("det", 70, 4, 21);
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(9).with_threads(1));
        let a = solver.solve(&instance).unwrap();
        let b = solver.solve(&instance).unwrap();
        assert_eq!(a.tour, b.tour);
        assert_eq!(a.length, b.length);
    }

    #[test]
    fn parallel_and_serial_solves_agree() {
        let instance = clustered_instance("par", 100, 6, 3);
        let serial = TaxiSolver::new(TaxiConfig::new().with_seed(4).with_threads(1))
            .solve(&instance)
            .unwrap();
        let parallel = TaxiSolver::new(TaxiConfig::new().with_seed(4).with_threads(4))
            .solve(&instance)
            .unwrap();
        assert_eq!(serial.tour, parallel.tour);
    }

    #[test]
    fn larger_cluster_size_reduces_subproblem_count() {
        let instance = clustered_instance("sweep", 200, 8, 17);
        let small = TaxiSolver::new(TaxiConfig::new().with_max_cluster_size(8).unwrap())
            .solve(&instance)
            .unwrap();
        let large = TaxiSolver::new(TaxiConfig::new().with_max_cluster_size(20).unwrap())
            .solve(&instance)
            .unwrap();
        assert!(large.subproblems < small.subproblems);
    }

    #[test]
    fn batch_results_match_individual_solves() {
        let instances = vec![
            clustered_instance("batch-a", 60, 4, 5),
            clustered_instance("batch-b", 90, 5, 6),
            random_uniform_instance("batch-c", 12, 7),
        ];
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(13).with_threads(4));
        let batch = solver.solve_batch(&instances);
        assert_eq!(batch.len(), 3);
        for (instance, result) in instances.iter().zip(&batch) {
            let individual = solver.solve(instance).unwrap();
            let batched = result.as_ref().unwrap();
            assert_eq!(batched.tour, individual.tour);
            assert_eq!(batched.length, individual.length);
        }
    }

    #[test]
    fn batch_isolates_per_instance_failures() {
        let good = clustered_instance("ok", 40, 3, 2);
        let bad = TspInstance::from_matrix(
            "bad",
            taxi_dist::DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap(),
        )
        .unwrap();
        let results = TaxiSolver::default().solve_batch(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(TaxiError::UnsupportedInstance { .. })
        ));
    }

    #[test]
    fn observer_sees_all_stages_in_order() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<Stage>,
            ended: Vec<Stage>,
            levels: usize,
        }
        impl crate::pipeline::PipelineObserver for Recorder {
            fn on_stage_start(&mut self, stage: Stage) {
                self.started.push(stage);
            }
            fn on_stage_end(&mut self, report: &StageReport) {
                self.ended.push(report.stage);
            }
            fn on_level_solved(&mut self, _level: Option<usize>, _subproblems: usize) {
                self.levels += 1;
            }
        }

        let instance = clustered_instance("obs", 80, 5, 9);
        let mut recorder = Recorder::default();
        let solution = TaxiSolver::new(TaxiConfig::new().with_seed(3))
            .solve_with_observer(&instance, &mut recorder)
            .unwrap();
        assert_eq!(recorder.started, Stage::ALL.to_vec());
        assert_eq!(recorder.ended, Stage::ALL.to_vec());
        // Top-level cycle + one event per hierarchy level.
        assert_eq!(recorder.levels, solution.levels + 1);
        assert_eq!(solution.stage_reports.len(), 5);
    }

    #[test]
    fn custom_backends_plug_into_the_pipeline() {
        use crate::backend::{SolverScratch, TourSolver};
        use taxi_dist::DistanceMatrix;

        /// A deliberately terrible backend: identity order, no optimisation.
        struct IdentityBackend;
        impl TourSolver for IdentityBackend {
            fn name(&self) -> &str {
                "identity"
            }
            fn solve_cycle_into(
                &self,
                distances: &DistanceMatrix,
                _seed: u64,
                _scratch: &mut SolverScratch,
                out: &mut Vec<usize>,
            ) -> Result<f64, TaxiError> {
                out.clear();
                out.extend(0..distances.n());
                Ok(0.0)
            }
            fn solve_path_into(
                &self,
                distances: &DistanceMatrix,
                start: usize,
                end: usize,
                _seed: u64,
                _scratch: &mut SolverScratch,
                out: &mut Vec<usize>,
            ) -> Result<f64, TaxiError> {
                out.clear();
                out.push(start);
                out.extend((0..distances.n()).filter(|&c| c != start && c != end));
                if distances.n() > 1 {
                    out.push(end);
                }
                Ok(0.0)
            }
        }

        let instance = clustered_instance("custom", 70, 4, 3);
        let backend: std::sync::Arc<dyn TourSolver> = std::sync::Arc::new(IdentityBackend);
        let solution = TaxiSolver::default()
            .solve_with_backend(&instance, &backend)
            .unwrap();
        assert_valid(&solution, &instance);
    }

    #[test]
    fn all_builtin_backends_solve_end_to_end() {
        let instance = clustered_instance("matrix", 90, 5, 4);
        let mut lengths = Vec::new();
        for backend in SolverBackend::ALL {
            let solver = TaxiSolver::new(TaxiConfig::new().with_seed(2).with_backend(backend));
            let solution = solver.solve(&instance).unwrap();
            assert_valid(&solution, &instance);
            lengths.push((backend, solution.length));
        }
        // All backends account hardware cost over the same plan shape, so every
        // tour is valid and finite; quality ordering is checked in tests/backends.rs.
        assert!(lengths.iter().all(|&(_, l)| l.is_finite() && l > 0.0));
    }
}
