//! Pins the exact observable behaviour of one seeded Ising macro run: the winner of
//! every step, the final visiting order, the macro's operation counts and the array's
//! modelled read/write counts. Any change to the anneal step's host implementation must
//! leave every pinned value as it is, so tours and hardware accounting stay identical.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use taxi_device::WriteCurrent;
use taxi_dist::DistanceMatrix;
use taxi_xbar::{IsingMacro, MacroConfig, MacroOpCounts};

const CITIES: usize = 12;

fn seeded_matrix(seed: u64) -> DistanceMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..CITIES)
        .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect();
    DistanceMatrix::from_fn(CITIES, |i, j| {
        let (x1, y1) = points[i];
        let (x2, y2) = points[j];
        (x1 - x2).hypot(y1 - y2)
    })
}

/// Write current of step `t` of `total`: a linear sweep down the stochastic window.
fn current_at(t: usize, total: usize) -> WriteCurrent {
    let (hi, lo) = (430.0, 354.0);
    WriteCurrent::from_micro_amps(hi - (hi - lo) * t as f64 / total as f64)
}

struct Run {
    winners: Vec<usize>,
    cycle_order: Vec<usize>,
    cycle_counts: MacroOpCounts,
    final_order: Vec<usize>,
    final_counts: MacroOpCounts,
    write_ops: u64,
    read_ops: u64,
}

/// One realistic-device macro: a free cycle anneal, then an endpoint-pinned path anneal
/// on the same mapping, then a remap onto a second matrix and a cycle anneal with a
/// forbidden interior city.
fn drive() -> Run {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let mut m = IsingMacro::new(&seeded_matrix(1), MacroConfig::new(4)).unwrap();
    let mut winners = Vec::new();

    m.initialize_order(&[5, 0, 9, 3, 11, 7, 1, 10, 2, 8, 4, 6])
        .unwrap();
    let total = 4 * CITIES;
    for t in 0..total {
        winners.push(
            m.optimize_order(t % CITIES, current_at(t, total), &mut rng)
                .unwrap(),
        );
    }
    let cycle_order = m.read_solution().unwrap();
    let cycle_counts = m.op_counts();

    m.initialize_order(&[2, 4, 6, 8, 10, 0, 1, 3, 5, 7, 9, 11])
        .unwrap();
    let frozen = [2, 11];
    let total = 3 * (CITIES - 2);
    for t in 0..total {
        let order = 1 + t % (CITIES - 2);
        winners.push(
            m.optimize_order_constrained(order, current_at(t, total), &frozen, &mut rng)
                .unwrap(),
        );
    }

    m.remap(&seeded_matrix(2)).unwrap();
    m.initialize_order(&(0..CITIES).rev().collect::<Vec<_>>())
        .unwrap();
    let total = 3 * CITIES;
    for t in 0..total {
        winners.push(
            m.optimize_order_constrained(t % CITIES, current_at(t, total), &[7], &mut rng)
                .unwrap(),
        );
    }
    Run {
        winners,
        cycle_order,
        cycle_counts,
        final_order: m.read_solution().unwrap(),
        final_counts: m.op_counts(),
        write_ops: m.array().write_ops(),
        read_ops: m.array().read_ops(),
    }
}

#[rustfmt::skip]
const WINNERS: [usize; 114] = [
    7, 2, 6, 8, 10, 11, 4, 5, 6, 10, 5, 6, 5, 8, 6, 0, 5, 11, 5, 6, 11, 4, 5, 6,
    10, 9, 5, 6, 5, 6, 11, 5, 6, 0, 5, 3, 5, 6, 7, 5, 2, 5, 6, 7, 5, 6, 5, 6,
    9, 10, 7, 5, 4, 1, 9, 0, 7, 8, 3, 0, 1, 5, 4, 0, 5, 6, 5, 6, 5, 6, 5, 6,
    9, 5, 6, 5, 6, 5, 4, 10, 5, 10, 1, 10, 5, 6, 10, 5, 10, 6, 10, 11, 10, 4, 10, 3,
    10, 11, 1, 10, 1, 3, 6, 10, 1, 5, 2, 10, 4, 10, 4, 10, 4, 10,
];

fn counts(steps: u64) -> MacroOpCounts {
    MacroOpCounts {
        superpose_ops: steps,
        optimize_ops: steps,
        update_ops: steps,
        order_steps: steps,
    }
}

#[test]
fn seeded_macro_run_is_pinned() {
    let run = drive();
    assert_eq!(run.winners, WINNERS);
    assert_eq!(run.cycle_order, [8, 11, 1, 4, 2, 9, 0, 7, 10, 3, 5, 6]);
    assert_eq!(run.cycle_counts, counts(48));
    assert_eq!(run.final_order, [6, 9, 1, 5, 2, 11, 8, 0, 7, 3, 4, 10]);
    assert_eq!(run.final_counts, counts(36));
    assert_eq!(run.write_ops, 4298);
    assert_eq!(run.read_ops, 228);
}
