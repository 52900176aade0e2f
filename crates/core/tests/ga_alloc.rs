//! The GA's steady-state generation allocates nothing in the `Pareto` and
//! `Scalar` modes: once every chromosome the run breeds is already in the
//! arena, doubling `G` adds no heap allocation.
//!
//! A counting global allocator (per thread, so the test harness's own
//! threads do not interfere) measures whole solves.

use bbsched_core::problem::{JobDemand, KnapsackMooProblem};
use bbsched_core::resource::ResourceModel;
use bbsched_core::{GaConfig, MooGa, SolveMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn converged_generations_allocate_nothing() {
    // Five genes: all 32 chromosomes are bred within the first generations.
    let problem = KnapsackMooProblem::new(
        vec![
            JobDemand::cpu_bb(80, 20_000.0),
            JobDemand::cpu_bb(10, 85_000.0),
            JobDemand::cpu_bb(40, 5_000.0),
            JobDemand::cpu_bb(10, 0.0),
            JobDemand::cpu_bb(20, 0.0),
        ],
        ResourceModel::cpu_bb(100, 100_000.0),
    );
    for mode in [SolveMode::Pareto, SolveMode::Scalar(vec![0.5, 0.5])] {
        let allocs = |generations: usize| {
            let cfg = GaConfig {
                generations,
                mutation_rate: 0.05,
                mode: mode.clone(),
                ..GaConfig::default()
            };
            let before = ALLOCS.with(Cell::get);
            let trace = MooGa::new(cfg).solve_traced(&problem, &[]);
            (ALLOCS.with(Cell::get) - before, trace.evaluations)
        };
        let (short, short_evals) = allocs(1_000);
        let (long, long_evals) = allocs(2_000);
        assert_eq!(short_evals, long_evals, "{mode:?}: the longer run bred new chromosomes");
        assert_eq!(short, long, "{mode:?}: steady-state generations allocated");
    }
}
