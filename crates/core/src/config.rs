//! Configuration of the end-to-end TAXI solver.

use std::sync::Arc;

use taxi_arch::ArchConfig;
use taxi_cluster::hierarchy::ClusteringMethod;
use taxi_cluster::HierarchyConfig;
use taxi_ising::{CurrentSchedule, MacroSolverConfig};
use taxi_xbar::{BitPrecision, MacroConfig};

use crate::backend::{SolverBackend, TourSolver};
use crate::TaxiError;

/// How the solver picks its sub-problem backend.
///
/// The default is a single fixed [`SolverBackend`] for every solve. `Adaptive`
/// engages the per-instance [`AdaptiveRouter`](crate::router::AdaptiveRouter): the
/// backend is chosen per instance from online latency/quality profiles (see the
/// [`router`](crate::router) module). A routed solve is bit-identical to solving
/// with the chosen backend directly — the choice only selects, it never alters the
/// pipeline.
///
/// # Example
///
/// ```
/// use taxi::{BackendChoice, SolverBackend, TaxiConfig};
///
/// let fixed = TaxiConfig::new().with_backend(SolverBackend::Exact);
/// assert_eq!(fixed.backend_choice(), BackendChoice::Fixed(SolverBackend::Exact));
///
/// let adaptive = TaxiConfig::new().with_backend_choice(BackendChoice::Adaptive);
/// assert_eq!(adaptive.backend_choice(), BackendChoice::Adaptive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Every solve uses this backend (the paper's Ising macro by default).
    Fixed(SolverBackend),
    /// The backend is routed per instance by an adaptive router.
    Adaptive,
}

impl Default for BackendChoice {
    fn default() -> Self {
        BackendChoice::Fixed(SolverBackend::default())
    }
}

impl BackendChoice {
    /// The fixed backend, or the workspace default under `Adaptive` (used by entry
    /// points that need one concrete backend, e.g. a dispatch worker's degraded
    /// fallback when no router is attached).
    pub fn fixed_or_default(self) -> SolverBackend {
        match self {
            BackendChoice::Fixed(backend) => backend,
            BackendChoice::Adaptive => SolverBackend::default(),
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Fixed(backend) => backend.fmt(f),
            BackendChoice::Adaptive => f.write_str("adaptive"),
        }
    }
}

/// Builder-style configuration of the TAXI solver.
///
/// The defaults match the configuration the paper benchmarks (maximum cluster size 12,
/// 4-bit weight precision, agglomerative Ward clustering, realistic device
/// non-idealities) with the software annealing schedule (the hardware schedule is always
/// used for latency/energy accounting).
///
/// # Example
///
/// ```
/// use taxi::TaxiConfig;
///
/// let config = TaxiConfig::new()
///     .with_max_cluster_size(16)?
///     .with_bit_precision(2)?
///     .with_seed(7);
/// assert_eq!(config.max_cluster_size(), 16);
/// # Ok::<(), taxi::TaxiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaxiConfig {
    max_cluster_size: usize,
    precision: BitPrecision,
    clustering_method: ClusteringMethod,
    ideal_devices: bool,
    elitist: bool,
    software_schedule: CurrentSchedule,
    hardware_schedule: CurrentSchedule,
    seed: u64,
    threads: usize,
    arch_override: Option<ArchConfig>,
    backend: BackendChoice,
    neighbor_limit: usize,
}

impl TaxiConfig {
    /// Creates the default configuration (cluster size 12, 4-bit, Ward clustering).
    pub fn new() -> Self {
        Self {
            max_cluster_size: 12,
            precision: BitPrecision::FOUR,
            clustering_method: ClusteringMethod::AgglomerativeWard,
            ideal_devices: false,
            elitist: true,
            software_schedule: CurrentSchedule::software(),
            hardware_schedule: CurrentSchedule::paper(),
            seed: 0x7A11,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            arch_override: None,
            backend: BackendChoice::default(),
            neighbor_limit: 0,
        }
    }

    /// Sets the maximum cluster (sub-problem) size; the paper sweeps 12–20.
    ///
    /// # Errors
    ///
    /// Returns [`TaxiError::InvalidConfig`] for values below 4.
    pub fn with_max_cluster_size(mut self, size: usize) -> Result<Self, TaxiError> {
        if size < 4 {
            return Err(TaxiError::InvalidConfig {
                name: "max_cluster_size",
                reason: "must be at least 4".to_string(),
            });
        }
        self.max_cluster_size = size;
        Ok(self)
    }

    /// Sets the weight bit precision (the paper evaluates 2, 3 and 4 bits).
    ///
    /// # Errors
    ///
    /// Returns [`TaxiError::InvalidConfig`] for precisions outside 1–8 bits.
    pub fn with_bit_precision(mut self, bits: u8) -> Result<Self, TaxiError> {
        self.precision = BitPrecision::new(bits).map_err(|_| TaxiError::InvalidConfig {
            name: "bit_precision",
            reason: format!("{bits} bits is outside the supported 1..=8 range"),
        })?;
        Ok(self)
    }

    /// Selects the clustering algorithm (Ward agglomerative by default; k-means for the
    /// ablation).
    pub fn with_clustering_method(mut self, method: ClusteringMethod) -> Self {
        self.clustering_method = method;
        self
    }

    /// Uses ideal devices (no wire resistance, variation, or ArgMax resolution limits).
    pub fn with_ideal_devices(mut self, ideal: bool) -> Self {
        self.ideal_devices = ideal;
        self
    }

    /// Enables or disables elitist sub-solution tracking (see
    /// [`taxi_ising::MacroSolverConfig::with_elitist`]).
    pub fn with_elitist(mut self, elitist: bool) -> Self {
        self.elitist = elitist;
        self
    }

    /// Overrides the software annealing schedule used to actually solve sub-problems.
    pub fn with_software_schedule(mut self, schedule: CurrentSchedule) -> Self {
        self.software_schedule = schedule;
        self
    }

    /// Overrides the hardware annealing schedule used for latency/energy accounting
    /// (defaults to the paper's 1340-iteration schedule).
    pub fn with_hardware_schedule(mut self, schedule: CurrentSchedule) -> Self {
        self.hardware_schedule = schedule;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads used to solve clusters of a level in parallel
    /// (and the number of per-instance workers in
    /// [`TaxiSolver::solve_batch`](crate::TaxiSolver::solve_batch) sharding).
    ///
    /// `0` is clamped to `1` (serial solving): a zero-thread configuration would
    /// otherwise silently build an empty worker-pool path that can never make
    /// progress, so the clamp is part of the API contract and covered by regression
    /// tests.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects a fixed sub-problem solving backend (the paper's Ising macro by
    /// default). Shorthand for
    /// [`with_backend_choice`](Self::with_backend_choice)`(BackendChoice::Fixed(backend))`.
    ///
    /// # Example
    ///
    /// ```
    /// use taxi::{SolverBackend, TaxiConfig};
    ///
    /// let config = TaxiConfig::new().with_backend(SolverBackend::Exact);
    /// assert_eq!(config.backend(), SolverBackend::Exact);
    /// ```
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = BackendChoice::Fixed(backend);
        self
    }

    /// Selects how the sub-problem backend is chosen: one fixed backend for every
    /// solve, or [`BackendChoice::Adaptive`] per-instance routing (see the
    /// [`router`](crate::router) module).
    pub fn with_backend_choice(mut self, choice: BackendChoice) -> Self {
        self.backend = choice;
        self
    }

    /// Restricts the software backends' 2-opt/Or-opt local search to each city's
    /// `limit` nearest neighbours, turning every improvement pass from O(n²) into
    /// O(n·k). `0` (the default) keeps the exhaustive legacy scan, which is
    /// bit-identical to pre-pruning behaviour. Pruned tours remain valid
    /// permutations but may differ slightly in length from the exhaustive search;
    /// the limit participates in [`cache_token`](Self::cache_token), so cached
    /// solutions never leak across pruning settings. The Ising-macro backend is
    /// unaffected.
    pub fn with_neighbor_limit(mut self, limit: usize) -> Self {
        self.neighbor_limit = limit;
        self
    }

    /// The neighbour-candidate limit of the software backends' pruned local search
    /// (0 = exhaustive).
    pub fn neighbor_limit(&self) -> usize {
        self.neighbor_limit
    }

    /// The selected sub-problem solving backend. Under
    /// [`BackendChoice::Adaptive`] this reports the workspace default (the backend
    /// non-routing entry points fall back to); use
    /// [`backend_choice`](Self::backend_choice) to distinguish.
    pub fn backend(&self) -> SolverBackend {
        self.backend.fixed_or_default()
    }

    /// How the sub-problem backend is chosen.
    pub fn backend_choice(&self) -> BackendChoice {
        self.backend
    }

    /// Instantiates the selected backend (the Ising macro backend picks up this
    /// configuration's precision, capacity, schedule and elitism). Under
    /// [`BackendChoice::Adaptive`] this builds the fallback
    /// ([`BackendChoice::fixed_or_default`]) — the routed entry points build the
    /// per-decision backend through
    /// [`build_backend_for`](Self::build_backend_for) instead.
    pub fn build_backend(&self) -> Arc<dyn TourSolver> {
        self.build_backend_for(self.backend.fixed_or_default())
    }

    /// Instantiates a specific backend under this configuration, regardless of the
    /// configured choice — the routed-solve building block: solving through the
    /// returned instance is bit-identical to configuring `backend` fixed.
    pub fn build_backend_for(&self, backend: SolverBackend) -> Arc<dyn TourSolver> {
        backend.build(self.macro_solver_config(), self.neighbor_limit)
    }

    /// The maximum cluster size.
    pub fn max_cluster_size(&self) -> usize {
        self.max_cluster_size
    }

    /// The weight bit precision.
    pub fn precision(&self) -> BitPrecision {
        self.precision
    }

    /// The clustering algorithm.
    pub fn clustering_method(&self) -> ClusteringMethod {
        self.clustering_method
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The software schedule used for the actual sub-problem solves.
    pub fn software_schedule(&self) -> CurrentSchedule {
        self.software_schedule
    }

    /// The hardware schedule used for latency/energy accounting.
    pub fn hardware_schedule(&self) -> CurrentSchedule {
        self.hardware_schedule
    }

    /// Builds the hierarchy configuration for the clustering layer.
    ///
    /// # Errors
    ///
    /// Propagates invalid cluster sizes (cannot occur for a validated configuration).
    pub fn hierarchy_config(&self) -> Result<HierarchyConfig, TaxiError> {
        Ok(HierarchyConfig::new(self.max_cluster_size)?
            .with_method(self.clustering_method)
            .with_seed(self.seed))
    }

    /// Builds the per-macro solver configuration.
    pub fn macro_solver_config(&self) -> MacroSolverConfig {
        let mut macro_config =
            MacroConfig::new(self.precision.bits()).with_capacity(self.max_cluster_size.max(4));
        if self.ideal_devices {
            macro_config = macro_config.with_ideal_devices();
        }
        MacroSolverConfig::new(macro_config)
            .with_schedule(self.software_schedule)
            .with_elitist(self.elitist)
    }

    /// A 64-bit token identifying every result-affecting part of this configuration,
    /// used to scope solution-cache keys: the same instance solved under different
    /// configurations must occupy different cache slots
    /// (see [`SolutionCache`](crate::cache::SolutionCache)).
    ///
    /// The thread count is **excluded**: solve results are independent of the thread
    /// budget (a tested invariant), so serial and parallel solvers share cache
    /// entries. The token is deterministic within a process; it is not a stable
    /// on-disk format.
    pub fn cache_token(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        // Normalising the thread count folds all thread budgets onto one token.
        format!("{:?}", self.clone().with_threads(1)).hash(&mut hasher);
        hasher.finish()
    }

    /// The cache token a **routed** solve uses: the token of this configuration
    /// with `backend` selected fixed. Routed cache keys are scoped per chosen
    /// backend — two requests routed to different backends must never share an
    /// entry — and they deliberately equal the token of a service configured with
    /// that backend fixed, so routed and fixed deployments share cache entries.
    pub fn routed_cache_token(&self, backend: SolverBackend) -> u64 {
        self.clone().with_backend(backend).cache_token()
    }

    /// Overrides the spatial-architecture description used for latency/energy
    /// accounting (chip size, interconnect constants, ...). The macro capacity and bit
    /// precision of the override are always forced to match this configuration.
    pub fn with_arch_override(mut self, arch: ArchConfig) -> Self {
        self.arch_override = Some(arch);
        self
    }

    /// Builds the architecture configuration used for latency/energy accounting.
    pub fn arch_config(&self) -> ArchConfig {
        self.arch_override
            .clone()
            .unwrap_or_default()
            .with_macro_capacity(self.max_cluster_size)
            .with_precision(self.precision)
    }
}

impl Default for TaxiConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_configuration() {
        let config = TaxiConfig::default();
        assert_eq!(config.max_cluster_size(), 12);
        assert_eq!(config.precision(), BitPrecision::FOUR);
        assert_eq!(
            config.clustering_method(),
            ClusteringMethod::AgglomerativeWard
        );
        assert_eq!(config.hardware_schedule().len(), 1340);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(TaxiConfig::new().with_max_cluster_size(2).is_err());
        assert!(TaxiConfig::new().with_bit_precision(0).is_err());
        assert!(TaxiConfig::new().with_bit_precision(9).is_err());
    }

    #[test]
    fn builders_propagate_to_sub_configurations() {
        let config = TaxiConfig::new()
            .with_max_cluster_size(16)
            .unwrap()
            .with_bit_precision(2)
            .unwrap();
        assert_eq!(config.macro_solver_config().macro_config().capacity(), 16);
        assert_eq!(config.arch_config().macro_capacity(), 16);
        assert_eq!(config.arch_config().precision, BitPrecision::TWO);
        assert_eq!(config.hierarchy_config().unwrap().max_cluster_size(), 16);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        let config = TaxiConfig::new().with_threads(0);
        assert_eq!(config.threads(), 1);
        // Clamping must survive chained reconfiguration.
        assert_eq!(config.with_threads(0).with_seed(1).threads(), 1);
    }

    /// `with_threads(0)` must behave exactly like the serial configuration end to end
    /// (same tour, no stuck pool), for single solves and batches.
    #[test]
    fn zero_threads_solves_like_serial() {
        use crate::TaxiSolver;
        use taxi_tsplib::generator::clustered_instance;

        let instance = clustered_instance("zero-threads", 70, 4, 9);
        let zero = TaxiSolver::new(TaxiConfig::new().with_seed(8).with_threads(0))
            .solve(&instance)
            .unwrap();
        let serial = TaxiSolver::new(TaxiConfig::new().with_seed(8).with_threads(1))
            .solve(&instance)
            .unwrap();
        assert_eq!(zero.tour, serial.tour);
        let batch = TaxiSolver::new(TaxiConfig::new().with_seed(8).with_threads(0))
            .solve_batch(std::slice::from_ref(&instance));
        assert_eq!(batch[0].as_ref().unwrap().tour, serial.tour);
    }

    #[test]
    fn backend_selection_round_trips() {
        assert_eq!(TaxiConfig::new().backend(), SolverBackend::IsingMacro);
        for backend in SolverBackend::ALL {
            let config = TaxiConfig::new().with_backend(backend);
            assert_eq!(config.backend(), backend);
            assert_eq!(config.backend_choice(), BackendChoice::Fixed(backend));
            assert_eq!(config.build_backend().name(), backend.label());
        }
    }

    #[test]
    fn adaptive_choice_round_trips_and_falls_back() {
        let config = TaxiConfig::new().with_backend_choice(BackendChoice::Adaptive);
        assert_eq!(config.backend_choice(), BackendChoice::Adaptive);
        assert_eq!(config.backend(), SolverBackend::IsingMacro);
        assert_eq!(config.build_backend().name(), "ising-macro");
        assert_eq!(BackendChoice::Adaptive.to_string(), "adaptive");
        // Selecting a fixed backend afterwards replaces the choice entirely.
        assert_eq!(
            config.with_backend(SolverBackend::Exact).backend_choice(),
            BackendChoice::Fixed(SolverBackend::Exact)
        );
    }

    #[test]
    fn neighbor_limit_round_trips_and_scopes_the_cache_token() {
        let config = TaxiConfig::new();
        assert_eq!(config.neighbor_limit(), 0);
        let pruned = config.clone().with_neighbor_limit(8);
        assert_eq!(pruned.neighbor_limit(), 8);
        assert_ne!(config.cache_token(), pruned.cache_token());
    }

    #[test]
    fn routed_cache_tokens_are_scoped_per_backend_and_match_fixed_configs() {
        let adaptive = TaxiConfig::new()
            .with_seed(3)
            .with_backend_choice(BackendChoice::Adaptive);
        let tokens: Vec<u64> = SolverBackend::ALL
            .iter()
            .map(|&b| adaptive.routed_cache_token(b))
            .collect();
        for (i, &a) in tokens.iter().enumerate() {
            for &b in &tokens[i + 1..] {
                assert_ne!(a, b, "routed tokens must differ per backend");
            }
        }
        // A routed token equals the token of the same config with that backend fixed.
        let fixed = TaxiConfig::new()
            .with_seed(3)
            .with_backend(SolverBackend::NnTwoOpt);
        assert_eq!(
            adaptive.routed_cache_token(SolverBackend::NnTwoOpt),
            fixed.cache_token()
        );
    }
}
