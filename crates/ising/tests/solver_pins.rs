//! Pins the exact observable behaviour of seeded `MacroTspSolver` solves on one
//! 12-city instance: the returned order, the length's bit pattern, the iteration count
//! and the macro's operation counts, for cycle and path solves with elitist tracking on
//! and off, plus every sample of the traced cycle solve. A change to how the solver
//! drives its anneal must leave every pinned value as it is.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use taxi_dist::DistanceMatrix;
use taxi_ising::{MacroSolverConfig, MacroTspSolver, SubTourSolution};
use taxi_xbar::MacroOpCounts;

const CITIES: usize = 12;
/// Iterations of the default (software) schedule.
const STEPS: u64 = 670;
const CYCLE_SEED: u64 = 11;
const PATH_SEED: u64 = 12;
const PATH_ENDS: (usize, usize) = (3, 8);

fn seeded_matrix() -> DistanceMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let points: Vec<(f64, f64)> = (0..CITIES)
        .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect();
    DistanceMatrix::from_fn(CITIES, |i, j| {
        let (x1, y1) = points[i];
        let (x2, y2) = points[j];
        (x1 - x2).hypot(y1 - y2)
    })
}

fn solver(elitist: bool) -> MacroTspSolver {
    MacroTspSolver::new(MacroSolverConfig::default().with_elitist(elitist))
}

fn assert_pinned(solution: &SubTourSolution, order: [usize; CITIES], length_bits: u64) {
    assert_eq!(solution.order, order);
    assert_eq!(solution.length.to_bits(), length_bits);
    assert_eq!(solution.iterations, STEPS);
    assert_eq!(
        solution.op_counts,
        MacroOpCounts {
            superpose_ops: STEPS,
            optimize_ops: STEPS,
            update_ops: STEPS,
            order_steps: STEPS,
        }
    );
}

/// Elitist cycle: the best snapshot of the run (here the nearest-neighbour start).
const CYCLE_ELITIST: ([usize; CITIES], u64) =
    ([0, 11, 6, 3, 7, 4, 9, 2, 1, 10, 5, 8], 0x4073548cabf7ccb0);
/// Non-elitist cycle: the spin storage read out at the end of the schedule.
const CYCLE_FINAL: ([usize; CITIES], u64) =
    ([11, 7, 8, 5, 0, 3, 10, 2, 9, 1, 6, 4], 0x40801b1704342354);

/// `(iteration, write current in amps, length)` of every trace sample, as bit patterns.
#[rustfmt::skip]
const TRACE: [(usize, u64, u64); 56] = [
    (0, 0x3f3b866e43aa79bb, 0x4073548cabf7ccb0),
    (11, 0x3f3b73f9cce01802, 0x4083b07b9bc22cc4),
    (23, 0x3f3b5fd7d6ec0a7f, 0x40845f7448f7a3a7),
    (35, 0x3f3b4bb5e0f7fcfc, 0x40858a7e6d2d1e0f),
    (47, 0x3f3b3793eb03ef78, 0x408157c6955a07c8),
    (59, 0x3f3b2371f50fe1f5, 0x40816b649e7878e4),
    (71, 0x3f3b0f4fff1bd471, 0x40824b194267ca93),
    (83, 0x3f3afb2e0927c6ee, 0x40807b2550a6e70b),
    (95, 0x3f3ae70c1333b96a, 0x4080c3639baa97be),
    (107, 0x3f3ad2ea1d3fabe7, 0x4082c0faa0906d92),
    (119, 0x3f3abec8274b9e63, 0x4082641f0f77a5ce),
    (131, 0x3f3aaaa6315790e0, 0x4081caa58f3e8ca8),
    (143, 0x3f3a96843b63835c, 0x407f675de292dc96),
    (155, 0x3f3a8262456f75d9, 0x408346a01ce361b1),
    (167, 0x3f3a6e404f7b6855, 0x40851449b60ec34e),
    (179, 0x3f3a5a1e59875ad2, 0x407f74be8a5f4a76),
    (191, 0x3f3a45fc63934d4f, 0x40809163093c2cca),
    (203, 0x3f3a31da6d9f3fcb, 0x40824ae1fe507c69),
    (215, 0x3f3a1db877ab3248, 0x408249085a9c0e58),
    (227, 0x3f3a099681b724c4, 0x4080e5a1bdca3d6b),
    (239, 0x3f39f5748bc31741, 0x4081c7c096f9d2b5),
    (251, 0x3f39e15295cf09bd, 0x4080f58908c9b232),
    (263, 0x3f39cd309fdafc3a, 0x407a3c8bb3107073),
    (275, 0x3f39b90ea9e6eeb6, 0x408299d30f0372b6),
    (287, 0x3f39a4ecb3f2e133, 0x408224a3e932ae25),
    (299, 0x3f3990cabdfed3af, 0x4083f775645cedd0),
    (311, 0x3f397ca8c80ac62c, 0x40892ea7b1bec304),
    (323, 0x3f396886d216b8a8, 0x4082e1ce693d6948),
    (335, 0x3f395464dc22ab25, 0x408583854e49663e),
    (347, 0x3f394042e62e9da2, 0x4080157b894a2720),
    (359, 0x3f392c20f03a901e, 0x4081a035b461301d),
    (371, 0x3f3917fefa46829b, 0x40834eaf082f6c4d),
    (383, 0x3f3903dd04527517, 0x4081d13e33a0ea07),
    (395, 0x3f38efbb0e5e6794, 0x407a041e01b60cf7),
    (407, 0x3f38db99186a5a10, 0x40834ab2d75949da),
    (419, 0x3f38c77722764c8d, 0x408431c7a5559462),
    (431, 0x3f38b3552c823f09, 0x407bb4f0c801944f),
    (443, 0x3f389f33368e3186, 0x408393be6b59bd24),
    (455, 0x3f388b11409a2402, 0x4085423999648816),
    (467, 0x3f3876ef4aa6167f, 0x408021918c8c7735),
    (479, 0x3f3862cd54b208fb, 0x4081f72b512c5f09),
    (491, 0x3f384eab5ebdfb78, 0x407de834d2b5a423),
    (503, 0x3f383a8968c9edf4, 0x408010d70620a98e),
    (515, 0x3f38266772d5e071, 0x408168a2f13b2d72),
    (527, 0x3f3812457ce1d2ee, 0x408635f231de81a4),
    (539, 0x3f37fe2386edc56a, 0x408194612a2d5fe3),
    (551, 0x3f37ea0190f9b7e7, 0x407dfdcf36d87867),
    (563, 0x3f37d5df9b05aa63, 0x4084248757ea4c02),
    (575, 0x3f37c1bda5119ce0, 0x4083a1155c9daf69),
    (587, 0x3f37ad9baf1d8f5c, 0x4083f447dcb1145a),
    (599, 0x3f379979b92981d9, 0x4083ab151b179a15),
    (611, 0x3f378557c3357455, 0x4084e735307da7d5),
    (623, 0x3f377135cd4166d2, 0x40803c7c9f238268),
    (635, 0x3f375d13d74d594e, 0x407f3763c5aa6156),
    (647, 0x3f3748f1e1594bcb, 0x4082c0feb4619146),
    (659, 0x3f3734cfeb653e48, 0x40805f1c780205c5),
];

#[test]
fn cycle_solves_are_pinned() {
    let d = seeded_matrix();
    let (order, bits) = CYCLE_ELITIST;
    assert_pinned(
        &solver(true).solve_cycle(&d, CYCLE_SEED).unwrap(),
        order,
        bits,
    );
    let (order, bits) = CYCLE_FINAL;
    assert_pinned(
        &solver(false).solve_cycle(&d, CYCLE_SEED).unwrap(),
        order,
        bits,
    );
}

#[test]
fn path_solves_are_pinned() {
    let d = seeded_matrix();
    let (start, end) = PATH_ENDS;
    let elitist = solver(true).solve_path(&d, start, end, PATH_SEED).unwrap();
    assert_pinned(
        &elitist,
        [3, 6, 0, 11, 4, 7, 2, 9, 1, 10, 5, 8],
        0x406dd71095b6e0c0,
    );
    let last = solver(false).solve_path(&d, start, end, PATH_SEED).unwrap();
    assert_pinned(
        &last,
        [3, 7, 2, 4, 5, 6, 0, 10, 9, 1, 11, 8],
        0x4080ec656dc02dd6,
    );
}

#[test]
fn traced_cycle_samples_are_pinned() {
    let d = seeded_matrix();
    for (elitist, (order, bits)) in [(true, CYCLE_ELITIST), (false, CYCLE_FINAL)] {
        let (solution, trace) = solver(elitist).solve_cycle_traced(&d, CYCLE_SEED).unwrap();
        assert_pinned(&solution, order, bits);
        let samples: Vec<(usize, u64, u64)> = trace
            .points()
            .iter()
            .map(|p| {
                (
                    p.iteration,
                    p.i_write.as_amps().to_bits(),
                    p.length.to_bits(),
                )
            })
            .collect();
        assert_eq!(samples, TRACE, "elitist={elitist}");
    }
}
