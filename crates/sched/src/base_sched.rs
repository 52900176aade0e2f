//! Base schedulers: the site-policy priority order (§2.1).
//!
//! "BBSched is built as a plug-in to a base scheduler which enforces job
//! priority according to a site's policy." The paper pairs Cori workloads
//! with **FCFS** (Slurm's default order) and Theta workloads with **WFP**,
//! ALCF's utility-based policy that "periodically calculates a priority
//! increment for each waiting job" and favours large, old, short-walltime
//! jobs. We use Cobalt's published WFP score,
//! `(wait / walltime)³ × nodes`, recomputed at every scheduling invocation.

use bbsched_workloads::Job;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The base scheduling policy ordering the waiting queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaseScheduler {
    /// First-come, first-served (submit-time order). Used with Cori.
    Fcfs,
    /// WFP utility scheduling (Cobalt/ALCF). Used with Theta.
    Wfp,
}

impl BaseScheduler {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BaseScheduler::Fcfs => "FCFS",
            BaseScheduler::Wfp => "WFP",
        }
    }

    /// Priority score of a waiting job at time `now`; **higher runs
    /// earlier**.
    pub fn score(&self, job: &Job, now: f64) -> f64 {
        match self {
            // FCFS: earlier submission = higher priority.
            BaseScheduler::Fcfs => -job.submit,
            BaseScheduler::Wfp => {
                let wait = (now - job.submit).max(0.0);
                let walltime = job.walltime.max(1.0);
                (wait / walltime).powi(3) * f64::from(job.nodes)
            }
        }
    }

    /// Sorts queue entries (indices into `jobs`) by descending priority,
    /// breaking ties by submit time then id for determinism.
    pub fn order(&self, queue: &mut [usize], jobs: &[Job], now: f64) {
        queue.sort_by(|&a, &b| {
            let (ja, jb) = (&jobs[a], &jobs[b]);
            priority_cmp(
                (self.score(ja, now), ja.submit, ja.id),
                (self.score(jb, now), jb.submit, jb.id),
            )
        });
    }
}

/// The queue comparator on `(score, submit, id)` keys: descending score,
/// then ascending submit, then ascending id. The id is unique, so on
/// keys without NaN this is a strict total order.
pub(crate) fn priority_cmp(a: (f64, f64, u64), b: (f64, f64, u64)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
        .then_with(|| a.2.cmp(&b.2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, submit: f64, nodes: u32, walltime: f64) -> Job {
        Job::new(id, submit, nodes, walltime / 2.0, walltime)
    }

    #[test]
    fn fcfs_orders_by_submit() {
        let jobs = vec![job(0, 50.0, 1, 100.0), job(1, 10.0, 1, 100.0), job(2, 30.0, 1, 100.0)];
        let mut q = vec![0, 1, 2];
        BaseScheduler::Fcfs.order(&mut q, &jobs, 100.0);
        assert_eq!(q, vec![1, 2, 0]);
    }

    #[test]
    fn wfp_favours_large_jobs() {
        // Same wait and walltime, different sizes.
        let jobs = vec![job(0, 0.0, 8, 100.0), job(1, 0.0, 1024, 100.0)];
        let mut q = vec![0, 1];
        BaseScheduler::Wfp.order(&mut q, &jobs, 50.0);
        assert_eq!(q, vec![1, 0], "the 1024-node job outranks the 8-node job");
    }

    #[test]
    fn wfp_favours_short_walltime() {
        let jobs = vec![Job::new(0, 0.0, 100, 50.0, 36_000.0), Job::new(1, 0.0, 100, 50.0, 600.0)];
        let mut q = vec![0, 1];
        BaseScheduler::Wfp.order(&mut q, &jobs, 1_000.0);
        assert_eq!(q, vec![1, 0], "shorter walltime climbs faster");
    }

    #[test]
    fn wfp_priority_grows_with_wait() {
        let j = job(0, 0.0, 100, 1_000.0);
        let early = BaseScheduler::Wfp.score(&j, 100.0);
        let late = BaseScheduler::Wfp.score(&j, 10_000.0);
        assert!(late > early);
    }

    #[test]
    fn wfp_zero_wait_is_zero_score() {
        let j = job(0, 500.0, 100, 1_000.0);
        assert_eq!(BaseScheduler::Wfp.score(&j, 500.0), 0.0);
        // Clock skew (now < submit) clamps to zero rather than negative.
        assert_eq!(BaseScheduler::Wfp.score(&j, 400.0), 0.0);
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let jobs = vec![job(5, 10.0, 1, 100.0), job(3, 10.0, 1, 100.0)];
        let mut q = vec![0, 1];
        BaseScheduler::Fcfs.order(&mut q, &jobs, 100.0);
        assert_eq!(q, vec![1, 0], "equal submit: lower id first");
    }
}
