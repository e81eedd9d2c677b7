//! Instance fingerprinting: compact, deterministic identities for TSP instances.
//!
//! The serving layer (`taxi-cache` / `taxi::cache`) memoises solved tours, which
//! requires answering "have I seen this instance before?" without comparing whole
//! coordinate lists. Two fingerprints are provided:
//!
//! * [`exact_fingerprint`] — a 128-bit hash of the instance's **semantic payload
//!   bytes** (edge-weight convention, dimension, and the raw IEEE-754 bit patterns of
//!   every coordinate — or every matrix entry — in stored order). Two instances share
//!   an exact fingerprint iff they would behave identically under every index-based
//!   API. The instance *name* is deliberately excluded: a cache must recognise the
//!   same geometry resubmitted under a different label.
//! * [`canonical_fingerprint`] — a 128-bit hash that is **invariant under city-index
//!   permutation**: cities are sorted into a canonical order (by coordinate bit
//!   pattern) before hashing, and the sort permutation is returned so a tour solved
//!   under one indexing can be remapped into any other indexing of the same geometry.
//!   Remapping preserves tour cost **bit-for-bit**: the remapped tour visits the same
//!   physical coordinates in the same order, so every distance term — and their sum —
//!   is the identical `f64`.
//!
//! Both fingerprints hash raw `f64` bit patterns, so they distinguish geometries that
//! differ by even one ULP (the safe direction for a cache that promises bit-identical
//! answers).
//!
//! The hash is a fixed-key 128-bit mixing function (two independent 64-bit
//! SplitMix-style lanes), stable across processes and platforms. It is not
//! cryptographic; it is collision-resistant in the "adversary-free workload" sense a
//! solution cache needs (the suite's property tests drive distinct generator
//! geometries into it and assert zero collisions).
//!
//! # Example
//!
//! ```
//! use taxi_tsplib::fingerprint::{canonical_fingerprint, exact_fingerprint};
//! use taxi_tsplib::{EdgeWeightKind, TspInstance};
//!
//! let a = TspInstance::from_coordinates(
//!     "a",
//!     vec![(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)],
//!     EdgeWeightKind::Euclidean,
//! )?;
//! // The same cities submitted in a different order, under a different name.
//! let b = TspInstance::from_coordinates(
//!     "b",
//!     vec![(3.0, 4.0), (0.0, 0.0), (3.0, 0.0)],
//!     EdgeWeightKind::Euclidean,
//! )?;
//! assert_ne!(exact_fingerprint(&a), exact_fingerprint(&b));
//! let (fp_a, _) = canonical_fingerprint(&a);
//! let (fp_b, perm_b) = canonical_fingerprint(&b);
//! assert_eq!(fp_a, fp_b);
//! assert_eq!(perm_b.len(), 3);
//! # Ok::<(), taxi_tsplib::TsplibError>(())
//! ```

use crate::{EdgeWeightKind, TspInstance};

/// A 128-bit instance fingerprint (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Reconstructs a fingerprint from its raw 128-bit value (the inverse of
    /// [`as_u128`](Self::as_u128)). Used by snapshot/restore paths that persist
    /// fingerprints as plain integers; the value carries no validity invariant
    /// beyond being the bits of a previously computed fingerprint.
    pub fn from_u128(value: u128) -> Self {
        Self(value)
    }

    /// Derives a new fingerprint by mixing `salt` into this one. Used by the solution
    /// cache to scope instance fingerprints to a solver configuration: the same
    /// geometry solved under different configurations must occupy different cache
    /// slots.
    #[must_use]
    pub fn mixed_with(self, salt: u64) -> Fingerprint {
        let mut mixer = Mixer::new();
        mixer.write((self.0 >> 64) as u64);
        mixer.write(self.0 as u64);
        mixer.write(salt);
        mixer.finish()
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Two independent SplitMix64-style lanes folded into a 128-bit digest. Fixed keys:
/// stable across processes, platforms and compiler versions.
struct Mixer {
    a: u64,
    b: u64,
}

impl Mixer {
    fn new() -> Self {
        Self {
            // Arbitrary distinct non-zero lane seeds (hex digits of e and pi).
            a: 0xADF8_5458_A2BB_4A9A,
            b: 0x2432_6451_58B6_9A3F,
        }
    }

    fn write(&mut self, value: u64) {
        self.a = mix64(self.a, value);
        // The second lane sees the value under a different injection so the lanes
        // stay independent.
        self.b = mix64(self.b, value ^ 0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> Fingerprint {
        // One finalising round per lane so trailing writes diffuse fully.
        let a = mix64(self.a, 0x1);
        let b = mix64(self.b, 0x2);
        Fingerprint((u128::from(a) << 64) | u128::from(b))
    }
}

/// One SplitMix64-style absorb-and-scramble round.
fn mix64(state: u64, value: u64) -> u64 {
    let mut x = state ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn kind_tag(kind: EdgeWeightKind) -> u64 {
    match kind {
        EdgeWeightKind::Euc2d => 1,
        EdgeWeightKind::Ceil2d => 2,
        EdgeWeightKind::Att => 3,
        EdgeWeightKind::Geo => 4,
        EdgeWeightKind::Euclidean => 5,
        EdgeWeightKind::Explicit => 6,
    }
}

/// Reusable scratch for allocation-free canonical fingerprinting.
///
/// [`canonical_fingerprint_into`] sorts city indices into canonical order inside this
/// scratch; once the buffer has grown to the largest instance seen, repeated calls
/// perform **no heap allocation** (the serving cache's hit path relies on this).
/// After a call, [`permutation`](Self::permutation) exposes the canonical→instance
/// index mapping.
#[derive(Debug, Default)]
pub struct FingerprintScratch {
    perm: Vec<u32>,
}

impl FingerprintScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The permutation produced by the most recent [`canonical_fingerprint_into`]
    /// call: `permutation()[k]` is the **instance index** of the city at canonical
    /// position `k`.
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }
}

/// Hashes the instance's semantic payload in stored index order (see the
/// [module docs](self)). The instance name is excluded.
pub fn exact_fingerprint(instance: &TspInstance) -> Fingerprint {
    let mut mixer = Mixer::new();
    mixer.write(kind_tag(instance.edge_weight_kind()));
    mixer.write(instance.dimension() as u64);
    match instance.coordinates() {
        Some(coords) => {
            for &(x, y) in coords {
                mixer.write(x.to_bits());
                mixer.write(y.to_bits());
            }
        }
        None => {
            let n = instance.dimension();
            for i in 0..n {
                for j in 0..n {
                    mixer.write(instance.distance_unchecked(i, j).to_bits());
                }
            }
        }
    }
    mixer.finish()
}

/// Allocating convenience form of [`canonical_fingerprint_into`]: returns the
/// fingerprint and an owned copy of the canonical permutation.
pub fn canonical_fingerprint(instance: &TspInstance) -> (Fingerprint, Vec<u32>) {
    let mut scratch = FingerprintScratch::new();
    let fingerprint = canonical_fingerprint_into(instance, &mut scratch);
    (fingerprint, scratch.perm)
}

/// Computes the permutation-invariant canonical fingerprint of `instance`, leaving
/// the canonical permutation in `scratch` (see
/// [`FingerprintScratch::permutation`]).
///
/// Cities are ordered by their coordinate bit patterns (`x` then `y`,
/// [`f64::total_cmp`]), with the instance index as the final tie-break so the
/// permutation is fully deterministic. Duplicate coordinates may therefore occupy
/// either canonical slot across differently-ordered submissions — harmless, because
/// equal coordinates hash identically and are interchangeable in any tour.
///
/// Explicit-matrix instances have no coordinate geometry to canonicalise (matrix
/// canonicalisation is graph isomorphism); their canonical fingerprint equals the
/// exact one and the permutation is the identity.
pub fn canonical_fingerprint_into(
    instance: &TspInstance,
    scratch: &mut FingerprintScratch,
) -> Fingerprint {
    let n = instance.dimension();
    assert!(n <= u32::MAX as usize, "instance dimension exceeds u32");
    scratch.perm.clear();
    scratch.perm.extend(0..n as u32);
    let Some(coords) = instance.coordinates() else {
        return exact_fingerprint(instance);
    };
    scratch.perm.sort_unstable_by(|&i, &j| {
        let (xi, yi) = coords[i as usize];
        let (xj, yj) = coords[j as usize];
        xi.total_cmp(&xj)
            .then_with(|| yi.total_cmp(&yj))
            .then_with(|| i.cmp(&j))
    });
    let mut mixer = Mixer::new();
    mixer.write(kind_tag(instance.edge_weight_kind()));
    mixer.write(n as u64);
    for &k in &scratch.perm {
        let (x, y) = coords[k as usize];
        mixer.write(x.to_bits());
        mixer.write(y.to_bits());
    }
    mixer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{clustered_instance, random_uniform_instance};

    fn square(name: &str, coords: Vec<(f64, f64)>) -> TspInstance {
        TspInstance::from_coordinates(name, coords, EdgeWeightKind::Euclidean).unwrap()
    }

    #[test]
    fn exact_fingerprint_ignores_the_name_but_not_the_order() {
        let a = square("a", vec![(0.0, 0.0), (1.0, 0.0), (2.0, 5.0)]);
        let renamed = square("b", vec![(0.0, 0.0), (1.0, 0.0), (2.0, 5.0)]);
        let reordered = square("a", vec![(1.0, 0.0), (0.0, 0.0), (2.0, 5.0)]);
        assert_eq!(exact_fingerprint(&a), exact_fingerprint(&renamed));
        assert_ne!(exact_fingerprint(&a), exact_fingerprint(&reordered));
    }

    #[test]
    fn canonical_fingerprint_is_permutation_invariant() {
        let a = square("a", vec![(5.0, 1.0), (0.0, 0.0), (3.0, 4.0), (5.0, 0.0)]);
        let b = square("b", vec![(3.0, 4.0), (5.0, 0.0), (5.0, 1.0), (0.0, 0.0)]);
        let (fa, pa) = canonical_fingerprint(&a);
        let (fb, pb) = canonical_fingerprint(&b);
        assert_eq!(fa, fb);
        // The permutations map canonical positions to each instance's own indexing.
        for k in 0..4 {
            let ca = a.coordinates().unwrap()[pa[k] as usize];
            let cb = b.coordinates().unwrap()[pb[k] as usize];
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn canonical_and_exact_agree_on_already_sorted_instances() {
        // Sorted coordinates: the canonical permutation is the identity, but the two
        // fingerprints still differ only if their byte streams differ — they don't.
        let inst = square("s", vec![(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)]);
        let (fp, perm) = canonical_fingerprint(&inst);
        assert_eq!(perm, vec![0, 1, 2]);
        assert_eq!(fp, exact_fingerprint(&inst));
    }

    #[test]
    fn kind_and_dimension_distinguish_fingerprints() {
        let coords = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)];
        let euclid =
            TspInstance::from_coordinates("k", coords.clone(), EdgeWeightKind::Euclidean).unwrap();
        let euc2d = TspInstance::from_coordinates("k", coords, EdgeWeightKind::Euc2d).unwrap();
        assert_ne!(exact_fingerprint(&euclid), exact_fingerprint(&euc2d));
        assert_ne!(
            canonical_fingerprint(&euclid).0,
            canonical_fingerprint(&euc2d).0
        );
    }

    #[test]
    fn matrix_instances_fingerprint_exactly() {
        let m = TspInstance::from_matrix(
            "m",
            taxi_dist::DistanceMatrix::from_rows(&[
                vec![0.0, 2.0, 9.0],
                vec![2.0, 0.0, 6.0],
                vec![9.0, 6.0, 0.0],
            ])
            .unwrap(),
        )
        .unwrap();
        let (fp, perm) = canonical_fingerprint(&m);
        assert_eq!(fp, exact_fingerprint(&m));
        assert_eq!(perm, vec![0, 1, 2]);
    }

    #[test]
    fn generator_instances_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            assert!(seen.insert(exact_fingerprint(&random_uniform_instance("u", 30, seed))));
            assert!(seen.insert(exact_fingerprint(&clustered_instance("c", 30, 4, seed))));
        }
    }

    #[test]
    fn scratch_reuse_matches_the_allocating_form() {
        let mut scratch = FingerprintScratch::new();
        for seed in 0..5 {
            let inst = clustered_instance("r", 40, 4, seed);
            let via_scratch = canonical_fingerprint_into(&inst, &mut scratch);
            let (direct, perm) = canonical_fingerprint(&inst);
            assert_eq!(via_scratch, direct);
            assert_eq!(scratch.permutation(), &perm[..]);
        }
    }

    #[test]
    fn mixed_with_changes_the_fingerprint_deterministically() {
        let inst = random_uniform_instance("m", 12, 3);
        let fp = exact_fingerprint(&inst);
        assert_ne!(fp, fp.mixed_with(1));
        assert_ne!(fp.mixed_with(1), fp.mixed_with(2));
        assert_eq!(fp.mixed_with(7), fp.mixed_with(7));
        assert_eq!(format!("{fp}").len(), 32);
    }
}
