//! Output pins for [`MooGa::solve_traced`].
//!
//! Every GA configuration axis — the three selection modes, the external
//! archive, saturation polish and the worker-thread count — runs on fixed
//! windows, and the result is folded into one FNV-1a fingerprint: each
//! checkpoint front and the final front, in front order, as objective bits
//! plus selected genes. The constants were captured before the GA loop was
//! rewritten around an interned population; any change to the RNG draw
//! order, the repair/evaluate memo, selection or front extraction shows up
//! here as a mismatch.

use bbsched_core::problem::{JobDemand, KnapsackMooProblem, RepairStyle};
use bbsched_core::resource::ResourceModel;
use bbsched_core::{GaConfig, MooGa, ParetoFront, SolveMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GENERATIONS: usize = 60;
const CHECKPOINTS: [usize; 4] = [0, 1, 15, GENERATIONS];

/// One pinned window: name, problem, population `P`, mutation rate, and the
/// scalar-mode weights (one per objective).
struct Case {
    name: &'static str,
    problem: KnapsackMooProblem,
    population: usize,
    mutation_rate: f64,
    weights: Vec<f64>,
}

fn cpu_bb_window(w: usize, seed: u64) -> KnapsackMooProblem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window: Vec<JobDemand> = (0..w)
        .map(|_| {
            let bb = if rng.random_bool(0.4) { 0.0 } else { rng.random_range(1.0..30_000.0) };
            JobDemand::cpu_bb(rng.random_range(1..200), bb)
        })
        .collect();
    // Capacity well below the window's total demand, so repair bites.
    let nodes = (w as u32 * 30).max(100);
    let bb = w as f64 * 4_000.0;
    KnapsackMooProblem::new(window, ResourceModel::cpu_bb(nodes, bb))
}

fn cpu_bb_ssd_window(w: usize, seed: u64) -> KnapsackMooProblem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window: Vec<JobDemand> = (0..w)
        .map(|_| {
            let ssd = [0.0, 64.0, 128.0, 200.0][rng.random_range(0..4usize)];
            JobDemand::cpu_bb_ssd(rng.random_range(1..24), rng.random_range(0.0..20_000.0), ssd)
        })
        .collect();
    KnapsackMooProblem::new(window, ResourceModel::cpu_bb_ssd(40, 30, 60_000.0))
        .with_repair_style(RepairStyle::DropUnconditionally)
}

fn cases() -> Vec<Case> {
    let two = vec![0.7, 0.3];
    vec![
        Case {
            name: "w5",
            problem: cpu_bb_window(5, 11),
            population: 20,
            mutation_rate: 0.0005,
            weights: two.clone(),
        },
        Case {
            name: "w20",
            problem: cpu_bb_window(20, 12),
            population: 20,
            mutation_rate: 0.01,
            weights: two.clone(),
        },
        Case {
            name: "w50",
            problem: cpu_bb_window(50, 13),
            population: 20,
            mutation_rate: 0.0005,
            weights: two.clone(),
        },
        // Two storage words; odd `P` drops the last crossover's second child.
        Case {
            name: "w70",
            problem: cpu_bb_window(70, 14),
            population: 13,
            mutation_rate: 0.02,
            weights: two,
        },
        // Four objectives and the drop-unconditionally repair path.
        Case {
            name: "ssd20",
            problem: cpu_bb_ssd_window(20, 15),
            population: 11,
            mutation_rate: 0.01,
            weights: vec![0.4, 0.3, 0.2, 0.1],
        },
    ]
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x1000_0000_01b3);
    }

    fn front(&mut self, front: &ParetoFront) {
        self.word(front.len() as u64);
        for s in front.solutions() {
            for &o in s.objectives.as_slice() {
                self.word(o.to_bits());
            }
            for i in s.chromosome.selected() {
                self.word(i as u64);
            }
            self.word(u64::MAX);
        }
    }
}

fn fingerprint(case: &Case, mode: SolveMode, archive: bool, saturate: bool, threads: usize) -> u64 {
    let cfg = GaConfig {
        population: case.population,
        generations: GENERATIONS,
        mutation_rate: case.mutation_rate,
        seed: 0x9a_5eed,
        mode,
        threads,
        saturate,
        archive,
    };
    let trace = MooGa::new(cfg).solve_traced(&case.problem, &CHECKPOINTS);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (gen, front) in &trace.checkpoints {
        h.word(*gen as u64);
        h.front(front);
    }
    h.front(&trace.final_front);
    h.0
}

/// `(case, mode, archive, saturate)` → fingerprint, captured before the
/// interned-population rewrite of the GA loop.
#[rustfmt::skip]
const PINS: &[(&str, &str, bool, bool, u64)] = &[
    ("w5", "pareto", false, false, 0xa5a32dd37ca035f6),
    ("w5", "pareto", false, true, 0xa5a32dd37ca035f6),
    ("w5", "pareto", true, false, 0xa5a32dd37ca035f6),
    ("w5", "pareto", true, true, 0xa5a32dd37ca035f6),
    ("w5", "crowding", false, false, 0xa5a32dd37ca035f6),
    ("w5", "crowding", false, true, 0xa5a32dd37ca035f6),
    ("w5", "crowding", true, false, 0xa5a32dd37ca035f6),
    ("w5", "crowding", true, true, 0xa5a32dd37ca035f6),
    ("w5", "scalar", false, false, 0xe2becd86415fb15b),
    ("w5", "scalar", false, true, 0xe2becd86415fb15b),
    ("w5", "scalar", true, false, 0x839e0aad98bb6ef8),
    ("w5", "scalar", true, true, 0x839e0aad98bb6ef8),
    ("w20", "pareto", false, false, 0x5324aee88f0eeaaf),
    ("w20", "pareto", false, true, 0xe6d8891bd3a01200),
    ("w20", "pareto", true, false, 0x3a7c43bc6d4a6891),
    ("w20", "pareto", true, true, 0xe6d8891bd3a01200),
    ("w20", "crowding", false, false, 0x3d38ffc6b6e21cff),
    ("w20", "crowding", false, true, 0xee66a4a7aa0ca931),
    ("w20", "crowding", true, false, 0x3d38ffc6b6e21cff),
    ("w20", "crowding", true, true, 0xee66a4a7aa0ca931),
    ("w20", "scalar", false, false, 0x6327682eda590c3a),
    ("w20", "scalar", false, true, 0xdca68e2b99af89e4),
    ("w20", "scalar", true, false, 0x0e8b6b8050c63292),
    ("w20", "scalar", true, true, 0x40f5f84b151241e1),
    ("w50", "pareto", false, false, 0xbb07bd43382dccb3),
    ("w50", "pareto", false, true, 0xbd1718ac5c60def4),
    ("w50", "pareto", true, false, 0xbb07bd43382dccb3),
    ("w50", "pareto", true, true, 0xbd1718ac5c60def4),
    ("w50", "crowding", false, false, 0x171b6a32ea10eb5e),
    ("w50", "crowding", false, true, 0x4b4feed94b27e1d2),
    ("w50", "crowding", true, false, 0x171b6a32ea10eb5e),
    ("w50", "crowding", true, true, 0x4b4feed94b27e1d2),
    ("w50", "scalar", false, false, 0x84b8debc3782cd61),
    ("w50", "scalar", false, true, 0x94eb517515d84a7b),
    ("w50", "scalar", true, false, 0x05c22fe55c7b00e4),
    ("w50", "scalar", true, true, 0xb19a1a28f6bd9bfe),
    ("w70", "pareto", false, false, 0x5b45a378493e760a),
    ("w70", "pareto", false, true, 0x8e87ea4e91ac00f6),
    ("w70", "pareto", true, false, 0x0c7b952a8a9ca268),
    ("w70", "pareto", true, true, 0x8e87ea4e91ac00f6),
    ("w70", "crowding", false, false, 0xb4120a6c49c507c1),
    ("w70", "crowding", false, true, 0x879e8554dc4cfff9),
    ("w70", "crowding", true, false, 0xb4120a6c49c507c1),
    ("w70", "crowding", true, true, 0x879e8554dc4cfff9),
    ("w70", "scalar", false, false, 0x05036366cd9639ae),
    ("w70", "scalar", false, true, 0x70b3247d5677a5dc),
    ("w70", "scalar", true, false, 0x007c79c88ea01975),
    ("w70", "scalar", true, true, 0x9cc481481283e0d1),
    ("ssd20", "pareto", false, false, 0x484ff912916f09c6),
    ("ssd20", "pareto", false, true, 0x5982efc57df57e97),
    ("ssd20", "pareto", true, false, 0x958850665f7c1b4f),
    ("ssd20", "pareto", true, true, 0x5711926ab821e098),
    ("ssd20", "crowding", false, false, 0xbcc1200d825911d0),
    ("ssd20", "crowding", false, true, 0x15222d4c4964ce46),
    ("ssd20", "crowding", true, false, 0x4802ebfffd689122),
    ("ssd20", "crowding", true, true, 0xfa3f6ebb676d5c4d),
    ("ssd20", "scalar", false, false, 0xf99e987620a05cec),
    ("ssd20", "scalar", false, true, 0x84c9c90e93401614),
    ("ssd20", "scalar", true, false, 0x3df9740949e35328),
    ("ssd20", "scalar", true, true, 0x5939fe61d6a4164a),
];

fn modes(case: &Case) -> [(&'static str, SolveMode); 3] {
    [
        ("pareto", SolveMode::Pareto),
        ("crowding", SolveMode::ParetoCrowding),
        ("scalar", SolveMode::Scalar(case.weights.clone())),
    ]
}

fn run_all(threads: usize) -> Vec<(&'static str, &'static str, bool, bool, u64)> {
    let mut out = Vec::new();
    for case in cases() {
        for (mode_name, mode) in modes(&case) {
            for archive in [false, true] {
                for saturate in [false, true] {
                    let fp = fingerprint(&case, mode.clone(), archive, saturate, threads);
                    out.push((case.name, mode_name, archive, saturate, fp));
                }
            }
        }
    }
    out
}

fn render(rows: &[(&str, &str, bool, bool, u64)]) -> String {
    rows.iter()
        .map(|(c, m, a, s, fp)| format!("    ({c:?}, {m:?}, {a}, {s}, {fp:#018x}),\n"))
        .collect()
}

#[test]
fn serial_ga_output_matches_pins() {
    let got = run_all(1);
    assert_eq!(got.as_slice(), PINS, "GA output drifted; computed:\n{}", render(&got));
}

#[test]
fn two_threads_match_serial_pins() {
    let got = run_all(2);
    assert_eq!(got.as_slice(), PINS, "threaded GA output drifted; computed:\n{}", render(&got));
}
