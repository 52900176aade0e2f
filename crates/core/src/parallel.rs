//! Parallel evaluation and the coarse-grained worker pool.
//!
//! §3.2.2 notes that the genetic solver "can be accelerated by leveraging
//! parallel processing" and §3.3 that the `O(G × P)` cost "can be further
//! lowered via parallel processing of the MOO". Two grains are on offer
//! here, and only one of them pays for the paper's own problems:
//!
//! * **Per-generation sharding** ([`repair_and_evaluate`] with
//!   `threads > 1`): the GA calls it on each generation's memo *misses*
//!   only — its population arena memoizes repair and evaluation at every
//!   thread count — so once a run converges there is nothing left to
//!   shard. Measured honestly (`ga_scaling` bench), scoped-thread spawning
//!   per generation costs more than it saves even at `w = 256`, `P = 128`:
//!   chromosome evaluation is just too cheap. The hook remains for
//!   *expensive* `MooProblem::evaluate` implementations (e.g. problems that
//!   consult a placement simulator per candidate); for the paper's knapsack
//!   objectives, keep `threads = 1`.
//! * **Whole-task batching** ([`run_batch`]): entire GA invocations,
//!   simulations, or experiment-grid cells are seconds-scale and
//!   embarrassingly parallel, so that is where threads go — the CLI's
//!   `--threads` and the bench sweep driver both fan out over [`run_batch`],
//!   which returns results in input order so parallel output is
//!   byte-identical to serial output.
//!
//! Everything uses `std::thread::scope` (stable since 1.63), which joins
//! all workers on scope exit and propagates worker panics — the same
//! guarantees the earlier `crossbeam::scope` implementation relied on,
//! without the external dependency.

use crate::chromosome::Chromosome;
use crate::problem::MooProblem;
use crate::Objectives;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Greedy saturation: select every still-fitting unselected job, front of
/// the window first. Because both MOO formulations have objectives that are
/// monotone in the selection, the saturated chromosome weakly dominates the
/// input — exact Pareto points are always saturated.
///
/// Feasibility probes go through the problem's scratch state
/// ([`MooProblem::scratch_from`]), so one pass over the window costs O(w)
/// aggregate work instead of the O(w²) of a full rescan per probe.
pub fn saturate<P: MooProblem + ?Sized>(problem: &P, c: &mut Chromosome) {
    let mut scratch = problem.scratch_from(c);
    for i in 0..c.len() {
        if !c.get(i) {
            problem.scratch_set(&mut scratch, i, true);
            if problem.scratch_is_feasible(&scratch) {
                c.set(i, true);
            } else {
                problem.scratch_set(&mut scratch, i, false);
            }
        }
    }
}

/// Repairs (and optionally saturates) every chromosome in place and returns
/// their objective vectors, using up to `threads` worker threads (1 = fully
/// serial, no spawning).
pub fn repair_and_evaluate<P: MooProblem + ?Sized>(
    problem: &P,
    chroms: &mut [Chromosome],
    threads: usize,
    saturate_after: bool,
) -> Vec<Objectives> {
    let fix = |problem: &P, c: &mut Chromosome| {
        problem.repair(c);
        if saturate_after {
            saturate(problem, c);
        }
    };
    if threads <= 1 || chroms.len() < 2 {
        return chroms
            .iter_mut()
            .map(|c| {
                fix(problem, c);
                problem.evaluate(c)
            })
            .collect();
    }

    let n = chroms.len();
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let mut out = vec![Objectives::zeros(problem.num_objectives().max(1)); n];

    std::thread::scope(|s| {
        let mut rem_chroms: &mut [Chromosome] = chroms;
        let mut rem_out: &mut [Objectives] = &mut out;
        while !rem_chroms.is_empty() {
            let take = chunk.min(rem_chroms.len());
            let (c_head, c_tail) = rem_chroms.split_at_mut(take);
            let (o_head, o_tail) = rem_out.split_at_mut(take);
            rem_chroms = c_tail;
            rem_out = o_tail;
            s.spawn(move || {
                for (c, o) in c_head.iter_mut().zip(o_head.iter_mut()) {
                    problem.repair(c);
                    if saturate_after {
                        saturate(problem, c);
                    }
                    *o = problem.evaluate(c);
                }
            });
        }
    });

    out
}

/// Runs a batch of independent jobs on up to `threads` OS threads and
/// returns their results **in input order** — the coarse parallel grain
/// (whole GA invocations, whole simulations, whole experiment cells) where
/// threading actually pays on this workload; see the module doc.
///
/// Jobs are handed out dynamically (an atomic cursor), so uneven job costs
/// balance across workers. With `threads <= 1` or fewer than two jobs the
/// batch runs inline on the caller's thread, spawning nothing. Worker
/// panics propagate to the caller via `std::thread::scope`.
pub fn run_batch<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || jobs.len() < 2 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let n = jobs.len();
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("each job is taken once");
                *slots[i].lock().unwrap() = Some(job());
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("every job slot is filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{JobDemand, KnapsackMooProblem};
    use crate::resource::ResourceModel;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(w: usize, seed: u64) -> (KnapsackMooProblem, Vec<Chromosome>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let window: Vec<JobDemand> = (0..w)
            .map(|_| JobDemand::cpu_bb(rng.random_range(1..100), rng.random_range(0.0..1000.0)))
            .collect();
        let problem = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(200, 2_000.0));
        let chroms: Vec<Chromosome> = (0..32)
            .map(|_| {
                let mut c = Chromosome::zeros(w);
                for i in 0..w {
                    if rng.random_bool(0.5) {
                        c.set(i, true);
                    }
                }
                c
            })
            .collect();
        (problem, chroms)
    }

    #[test]
    fn parallel_matches_serial() {
        let (problem, chroms) = random_problem(40, 7);
        let mut serial = chroms.clone();
        let mut par = chroms;
        let so = repair_and_evaluate(&problem, &mut serial, 1, false);
        let po = repair_and_evaluate(&problem, &mut par, 4, false);
        assert_eq!(serial, par);
        assert_eq!(so.len(), po.len());
        for (a, b) in so.iter().zip(&po) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn all_outputs_feasible() {
        let (problem, mut chroms) = random_problem(25, 11);
        let _ = repair_and_evaluate(&problem, &mut chroms, 3, false);
        for c in &chroms {
            assert!(problem.is_feasible(c));
        }
    }

    #[test]
    fn handles_single_chromosome() {
        let (problem, mut chroms) = random_problem(10, 3);
        chroms.truncate(1);
        let out = repair_and_evaluate(&problem, &mut chroms, 8, false);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn handles_empty_batch() {
        let (problem, _) = random_problem(10, 3);
        let mut none: Vec<Chromosome> = vec![];
        let out = repair_and_evaluate(&problem, &mut none, 4, false);
        assert!(out.is_empty());
    }

    #[test]
    fn run_batch_preserves_input_order() {
        let want: Vec<usize> = (0..40).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 16, 64] {
            let jobs: Vec<_> = (0..40).map(|i| move || i * i).collect();
            assert_eq!(run_batch(threads, jobs), want, "order broke at {threads} threads");
        }
    }

    #[test]
    fn run_batch_handles_empty_and_single() {
        assert!(run_batch::<i32, fn() -> i32>(4, vec![]).is_empty());
        assert_eq!(run_batch(4, vec![|| 7]), vec![7]);
    }

    #[test]
    fn saturation_weakly_dominates() {
        let (problem, chroms) = random_problem(30, 19);
        for c in &chroms {
            let mut repaired = c.clone();
            problem.repair(&mut repaired);
            let before = problem.evaluate(&repaired);
            let mut polished = repaired.clone();
            saturate(&problem, &mut polished);
            assert!(problem.is_feasible(&polished));
            let after = problem.evaluate(&polished);
            for (b, a) in before.as_slice().iter().zip(after.as_slice()) {
                assert!(a >= b, "saturation must not lose objective value");
            }
            // Saturated: no unselected job fits.
            for i in 0..polished.len() {
                if !polished.get(i) {
                    let mut probe = polished.clone();
                    probe.set(i, true);
                    assert!(!problem.is_feasible(&probe), "job {i} still fits after saturation");
                }
            }
        }
    }

    #[test]
    fn saturated_batch_matches_flag() {
        let (problem, chroms) = random_problem(20, 23);
        let mut plain = chroms.clone();
        let mut polished = chroms;
        let _ = repair_and_evaluate(&problem, &mut plain, 1, false);
        let _ = repair_and_evaluate(&problem, &mut polished, 1, true);
        // Polished chromosomes select a superset of the plain ones.
        for (a, b) in plain.iter().zip(&polished) {
            for i in 0..a.len() {
                assert!(!a.get(i) || b.get(i), "saturation removed a selection");
            }
        }
    }
}
