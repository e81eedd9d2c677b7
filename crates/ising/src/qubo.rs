//! QUBO formulation and the standard TSP-to-QUBO encoding.
//!
//! The paper represents the visiting information `σ_{A,i}` (city A visited at order i) as
//! binary variables following the QUBO/Ising equivalence (its ref. \[20\]). This module
//! provides the explicit encoding: an `N × N` grid of binary variables with one-hot
//! constraints on both rows (each city visited exactly once) and columns (each order
//! filled exactly once), plus the distance objective on adjacent orders. The hardware
//! macro realises the same objective implicitly through its MAC + ArgMax update; the
//! property tests check that the explicit encoding ranks tours by their length.

use taxi_dist::DistanceMatrix;

use crate::{IsingError, IsingModel};

/// A quadratic unconstrained binary optimisation problem: minimise `xᵀQx` over binary `x`.
///
/// `Q` is stored as an upper-triangular matrix (diagonal entries are the linear terms).
///
/// # Example
///
/// ```
/// use taxi_ising::Qubo;
///
/// // minimise x0 + x1 − 2·x0·x1  (optimum: x0 = x1 = 1 with value 0, or x = 0)
/// let mut q = Qubo::new(2)?;
/// q.add(0, 0, 1.0)?;
/// q.add(1, 1, 1.0)?;
/// q.add(0, 1, -2.0)?;
/// assert_eq!(q.evaluate(&[true, true]), 0.0);
/// assert_eq!(q.evaluate(&[true, false]), 1.0);
/// # Ok::<(), taxi_ising::IsingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Qubo {
    n: usize,
    /// Upper-triangular coefficients, row-major (entries with j < i are unused zeros).
    q: Vec<f64>,
}

impl Qubo {
    /// Creates a QUBO over `n` binary variables with all coefficients zero.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidProblem`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self, IsingError> {
        if n == 0 {
            return Err(IsingError::InvalidProblem {
                reason: "a QUBO needs at least one variable".to_string(),
            });
        }
        Ok(Self {
            n,
            q: vec![0.0; n * n],
        })
    }

    /// Resets the QUBO in place to `n` variables with all coefficients zero, reusing the
    /// coefficient buffer: once the buffer has grown to the largest problem seen,
    /// re-encoding sub-problems allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidProblem`] if `n` is zero.
    pub fn reset(&mut self, n: usize) -> Result<(), IsingError> {
        if n == 0 {
            return Err(IsingError::InvalidProblem {
                reason: "a QUBO needs at least one variable".to_string(),
            });
        }
        self.n = n;
        self.q.clear();
        self.q.resize(n * n, 0.0);
        Ok(())
    }

    /// Number of binary variables.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the QUBO has no variables (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `value` to the coefficient of `x_i x_j` (or the linear term when `i == j`).
    ///
    /// # Errors
    ///
    /// Returns an error if either index is out of range.
    pub fn add(&mut self, i: usize, j: usize, value: f64) -> Result<(), IsingError> {
        self.check(i)?;
        self.check(j)?;
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        self.q[a * self.n + b] += value;
        Ok(())
    }

    /// The coefficient of `x_i x_j` (or the linear term when `i == j`).
    ///
    /// # Errors
    ///
    /// Returns an error if either index is out of range.
    pub fn coefficient(&self, i: usize, j: usize) -> Result<f64, IsingError> {
        self.check(i)?;
        self.check(j)?;
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        Ok(self.q[a * self.n + b])
    }

    /// Evaluates the objective for a binary assignment.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of variables.
    pub fn evaluate(&self, x: &[bool]) -> f64 {
        assert_eq!(
            x.len(),
            self.n,
            "assignment length must match variable count"
        );
        let mut total = 0.0;
        for i in 0..self.n {
            if !x[i] {
                continue;
            }
            for j in i..self.n {
                if x[j] {
                    total += self.q[i * self.n + j];
                }
            }
        }
        total
    }

    /// Converts the QUBO into an equivalent Ising model (up to a constant energy offset)
    /// using the standard substitution `x_i = (1 + σ_i) / 2`.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors (which cannot occur for a valid QUBO).
    pub fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let mut model = IsingModel::new(self.n)?;
        self.to_ising_into(&mut model)?;
        Ok(model)
    }

    /// Like [`to_ising`](Self::to_ising), but rebuilds a caller-provided model in place
    /// (couplings, fields and spins are reset first), reusing its buffers.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors (which cannot occur for a valid QUBO).
    pub fn to_ising_into(&self, model: &mut IsingModel) -> Result<(), IsingError> {
        model.reset(self.n)?;
        let mut h = vec![0.0; self.n];
        for i in 0..self.n {
            // Linear term Q_ii x_i → (Q_ii / 2) σ_i + const.
            h[i] += self.q[i * self.n + i] / 2.0;
            for j in (i + 1)..self.n {
                let qij = self.q[i * self.n + j];
                if qij != 0.0 {
                    // Q_ij x_i x_j → (Q_ij/4)(σ_i σ_j + σ_i + σ_j) + const.
                    // Energy convention: H = −Σ J σσ − Σ h σ, so J = −Q/4, h −= Q/4.
                    let existing = model.coupling(i, j)?;
                    model.set_coupling(i, j, existing - qij / 4.0)?;
                    h[i] += qij / 4.0;
                    h[j] += qij / 4.0;
                }
            }
        }
        for (i, hi) in h.into_iter().enumerate() {
            // h in the model is also under a minus sign: −h σ. Minimising Q means the
            // linear contribution +c·x becomes +c/2·σ, i.e. field −c/2.
            model.set_field(i, -hi)?;
        }
        Ok(())
    }

    fn check(&self, i: usize) -> Result<(), IsingError> {
        if i < self.n {
            Ok(())
        } else {
            Err(IsingError::IndexOutOfRange {
                kind: "variable",
                index: i,
                len: self.n,
            })
        }
    }
}

/// Encoder producing the standard TSP QUBO over `N × N` visit variables.
///
/// Variable `x_{c,o}` (index `c · N + o`) is 1 when city `c` is visited at order `o`.
/// The objective is
///
/// ```text
///   A · Σ_c (Σ_o x_{c,o} − 1)²  +  A · Σ_o (Σ_c x_{c,o} − 1)²
/// + Σ_{c≠c'} Σ_o d(c, c') · x_{c,o} · x_{c',o+1}
/// ```
///
/// with the constraint weight `A` chosen larger than the longest edge so that constraint
/// violations are never profitable.
///
/// # Example
///
/// ```
/// use taxi_dist::DistanceMatrix;
/// use taxi_ising::TspQuboEncoder;
///
/// let d = DistanceMatrix::from_rows(&[
///     vec![0.0, 1.0, 2.0],
///     vec![1.0, 0.0, 1.5],
///     vec![2.0, 1.5, 0.0],
/// ])
/// .expect("square matrix");
/// let encoder = TspQuboEncoder::new(&d)?;
/// let qubo = encoder.encode()?;
/// assert_eq!(qubo.len(), 9);
/// // A valid tour has lower objective than an invalid assignment.
/// let tour = encoder.assignment_for_order(&[0, 1, 2]);
/// let invalid = vec![false; 9];
/// assert!(qubo.evaluate(&tour) < qubo.evaluate(&invalid));
/// # Ok::<(), taxi_ising::IsingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TspQuboEncoder {
    distances: DistanceMatrix,
    constraint_weight: f64,
}

impl TspQuboEncoder {
    /// Creates an encoder for a square distance matrix, deriving the constraint weight
    /// automatically (2 × the longest finite edge + 1).
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidProblem`] if the matrix is empty.
    pub fn new(distances: &DistanceMatrix) -> Result<Self, IsingError> {
        if distances.is_empty() {
            return Err(IsingError::InvalidProblem {
                reason: "distance matrix must be non-empty".to_string(),
            });
        }
        let max_edge = distances.max_finite().max(0.0);
        Ok(Self {
            distances: distances.clone(),
            constraint_weight: 2.0 * max_edge + 1.0,
        })
    }

    /// Overrides the constraint (penalty) weight `A`.
    pub fn with_constraint_weight(mut self, weight: f64) -> Self {
        self.constraint_weight = weight;
        self
    }

    /// Number of cities.
    pub fn num_cities(&self) -> usize {
        self.distances.n()
    }

    /// The penalty weight `A`.
    pub fn constraint_weight(&self) -> f64 {
        self.constraint_weight
    }

    /// Index of the variable for (city, order).
    pub fn variable(&self, city: usize, order: usize) -> usize {
        city * self.num_cities() + order
    }

    /// Builds the binary assignment corresponding to a visiting order
    /// (`order[o] = city`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the cities.
    pub fn assignment_for_order(&self, order: &[usize]) -> Vec<bool> {
        let n = self.num_cities();
        assert_eq!(
            order.len(),
            n,
            "order length must equal the number of cities"
        );
        let mut x = vec![false; n * n];
        for (o, &c) in order.iter().enumerate() {
            assert!(c < n, "city index out of range");
            x[self.variable(c, o)] = true;
        }
        x
    }

    /// Encodes the TSP into a QUBO.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot occur for a validated encoder).
    pub fn encode(&self) -> Result<Qubo, IsingError> {
        let mut qubo = Qubo::new(self.num_cities() * self.num_cities())?;
        self.encode_into(&mut qubo)?;
        Ok(qubo)
    }

    /// Like [`encode`](Self::encode), but rebuilds a caller-provided QUBO in place via
    /// [`Qubo::reset`], so encoding a stream of sub-problems reuses one coefficient
    /// buffer.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot occur for a validated encoder).
    pub fn encode_into(&self, qubo: &mut Qubo) -> Result<(), IsingError> {
        let n = self.num_cities();
        let a = self.constraint_weight;
        qubo.reset(n * n)?;

        // Row constraints: each city appears in exactly one order.
        for c in 0..n {
            for o in 0..n {
                qubo.add(self.variable(c, o), self.variable(c, o), -a)?;
                for o2 in (o + 1)..n {
                    qubo.add(self.variable(c, o), self.variable(c, o2), 2.0 * a)?;
                }
            }
        }
        // Column constraints: each order holds exactly one city.
        for o in 0..n {
            for c in 0..n {
                qubo.add(self.variable(c, o), self.variable(c, o), -a)?;
                for c2 in (c + 1)..n {
                    qubo.add(self.variable(c, o), self.variable(c2, o), 2.0 * a)?;
                }
            }
        }
        // Distance objective on adjacent orders (cyclic).
        for c in 0..n {
            for c2 in 0..n {
                if c == c2 {
                    continue;
                }
                let d = self.distances.get(c, c2);
                if !d.is_finite() {
                    continue;
                }
                for o in 0..n {
                    let o_next = (o + 1) % n;
                    qubo.add(self.variable(c, o), self.variable(c2, o_next), d)?;
                }
            }
        }
        Ok(())
    }

    /// Tour length of a visiting order under this instance's distances (cyclic).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the cities.
    pub fn tour_length(&self, order: &[usize]) -> f64 {
        let n = self.num_cities();
        assert_eq!(
            order.len(),
            n,
            "order length must equal the number of cities"
        );
        (0..n)
            .map(|i| self.distances.get(order[i], order[(i + 1) % n]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spin;

    fn square4() -> DistanceMatrix {
        // Unit square: optimal cycle is the perimeter with length 4.
        let pts: [(f64, f64); 4] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        DistanceMatrix::from_fn(4, |i, j| {
            let (x1, y1) = pts[i];
            let (x2, y2) = pts[j];
            (x1 - x2).hypot(y1 - y2)
        })
    }

    #[test]
    fn qubo_evaluation_counts_pairs_once() {
        let mut q = Qubo::new(3).unwrap();
        q.add(0, 1, 2.0).unwrap();
        q.add(1, 0, 1.0).unwrap(); // accumulates onto the same upper-triangular slot
        assert_eq!(q.coefficient(0, 1).unwrap(), 3.0);
        assert_eq!(q.evaluate(&[true, true, false]), 3.0);
    }

    #[test]
    fn empty_qubo_is_rejected() {
        assert!(Qubo::new(0).is_err());
    }

    #[test]
    fn tsp_encoding_has_n_squared_variables() {
        let enc = TspQuboEncoder::new(&square4()).unwrap();
        assert_eq!(enc.encode().unwrap().len(), 16);
    }

    #[test]
    fn valid_tours_beat_constraint_violations() {
        let enc = TspQuboEncoder::new(&square4()).unwrap();
        let qubo = enc.encode().unwrap();
        let valid = enc.assignment_for_order(&[0, 1, 2, 3]);
        // Violation: city 0 visited twice, city 1 never.
        let mut invalid = valid.clone();
        invalid[enc.variable(1, 1)] = false;
        invalid[enc.variable(0, 1)] = true;
        assert!(qubo.evaluate(&valid) < qubo.evaluate(&invalid));
    }

    #[test]
    fn shorter_tours_have_lower_objective() {
        let enc = TspQuboEncoder::new(&square4()).unwrap();
        let qubo = enc.encode().unwrap();
        let perimeter = enc.assignment_for_order(&[0, 1, 2, 3]);
        let crossing = enc.assignment_for_order(&[0, 2, 1, 3]);
        assert!(qubo.evaluate(&perimeter) < qubo.evaluate(&crossing));
    }

    #[test]
    fn objective_difference_matches_tour_length_difference() {
        let enc = TspQuboEncoder::new(&square4()).unwrap();
        let qubo = enc.encode().unwrap();
        let a = [0usize, 1, 2, 3];
        let b = [0usize, 2, 1, 3];
        let qubo_diff = qubo.evaluate(&enc.assignment_for_order(&b))
            - qubo.evaluate(&enc.assignment_for_order(&a));
        let len_diff = enc.tour_length(&b) - enc.tour_length(&a);
        assert!((qubo_diff - len_diff).abs() < 1e-9);
    }

    #[test]
    fn to_ising_preserves_ordering_of_configurations() {
        let mut q = Qubo::new(3).unwrap();
        q.add(0, 0, 1.0).unwrap();
        q.add(1, 1, -2.0).unwrap();
        q.add(0, 1, 3.0).unwrap();
        q.add(1, 2, -1.5).unwrap();
        let ising = q.to_ising().unwrap();
        // Enumerate all 8 configurations; the QUBO and Ising energies must differ by the
        // same constant for every configuration.
        let mut offsets = Vec::new();
        for bits in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            let spins: Vec<Spin> = x
                .iter()
                .map(|&b| if b { Spin::Up } else { Spin::Down })
                .collect();
            let mut model = ising.clone();
            model.set_spins(&spins).unwrap();
            offsets.push(q.evaluate(&x) - model.total_energy());
        }
        let first = offsets[0];
        assert!(
            offsets.iter().all(|o| (o - first).abs() < 1e-9),
            "QUBO and Ising energies must differ only by a constant: {offsets:?}"
        );
    }

    #[test]
    fn empty_matrix_is_rejected() {
        assert!(TspQuboEncoder::new(&DistanceMatrix::default()).is_err());
    }

    /// `reset` + `encode_into` must reproduce a fresh encode exactly, including after the
    /// buffer has been used for a larger problem.
    #[test]
    fn encode_into_reuses_buffers_without_changing_results() {
        let enc4 = TspQuboEncoder::new(&square4()).unwrap();
        let fresh = enc4.encode().unwrap();
        let mut reused = Qubo::new(25).unwrap();
        reused.add(0, 3, 42.0).unwrap(); // dirty state that reset must clear
        enc4.encode_into(&mut reused).unwrap();
        assert_eq!(reused, fresh);
        assert!(Qubo::new(1).unwrap().reset(0).is_err());
    }

    #[test]
    fn to_ising_into_matches_to_ising() {
        let enc = TspQuboEncoder::new(&square4()).unwrap();
        let qubo = enc.encode().unwrap();
        let fresh = qubo.to_ising().unwrap();
        let mut reused = crate::IsingModel::new(3).unwrap();
        qubo.to_ising_into(&mut reused).unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn tour_length_matches_manual_computation() {
        let enc = TspQuboEncoder::new(&square4()).unwrap();
        assert!((enc.tour_length(&[0, 1, 2, 3]) - 4.0).abs() < 1e-12);
        let diag = 2.0f64.sqrt();
        assert!((enc.tour_length(&[0, 2, 1, 3]) - (2.0 * diag + 2.0)).abs() < 1e-12);
    }
}
