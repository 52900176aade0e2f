//! Output checks. Every check runs outside the timed regions.
//!
//! A simulated trace is reduced to a [`RunDigest`]: an FNV-1a digest of
//! every job's `(id, start, reason)` in id order plus makespan, mean wait,
//! invocations and backfilled count. At every seed the schedule must be
//! valid (each job starts once, never before submission, never over
//! capacity) and repeat exactly on every pass; at the seeds pinned in
//! [`PINS`] the batch digest must also equal the pinned value. Whatever
//! the seed, every run also checks one default-seed outcome against its
//! pin ([`CANARY_PINS`]), so a change of scheduling behaviour fails
//! every run, not only runs at the pinned seeds.

use bbsched_sched::{SimResult, StartReason};
use bbsched_workloads::{SystemConfig, Trace};

/// 64-bit FNV-1a, folded one field at a time.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The checked summary of one simulated trace, or of a whole batch.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunDigest {
    pub digest: u64,
    pub jobs: usize,
    pub makespan: f64,
    pub mean_wait: f64,
    pub invocations: u64,
    pub backfilled: usize,
}

fn reason_code(r: StartReason) -> u64 {
    match r {
        StartReason::Policy => 1,
        StartReason::Backfill => 2,
        StartReason::Starvation => 3,
    }
}

pub fn digest_result(result: &SimResult) -> RunDigest {
    let mut recs: Vec<_> = result.records.iter().collect();
    recs.sort_by_key(|r| r.id);
    let digest = recs
        .iter()
        .fold(Fnv::default(), |h, r| h.u64(r.id).u64(r.start.to_bits()).u64(reason_code(r.reason)))
        .finish();
    let wait: f64 = recs.iter().map(|r| r.start - r.submit).sum();
    RunDigest {
        digest,
        jobs: recs.len(),
        makespan: result.makespan,
        mean_wait: wait / recs.len().max(1) as f64,
        invocations: result.invocations,
        backfilled: result.backfilled,
    }
}

/// Folds per-trace digests (in batch order) into one batch digest.
pub fn combine(parts: &[RunDigest]) -> RunDigest {
    let mut h = Fnv::default();
    let mut out = RunDigest {
        digest: 0,
        jobs: 0,
        makespan: 0.0,
        mean_wait: 0.0,
        invocations: 0,
        backfilled: 0,
    };
    let mut wait = 0.0;
    for p in parts {
        h = h
            .u64(p.digest)
            .u64(p.makespan.to_bits())
            .u64(p.mean_wait.to_bits())
            .u64(p.invocations)
            .u64(p.backfilled as u64);
        out.jobs += p.jobs;
        out.makespan = out.makespan.max(p.makespan);
        wait += p.mean_wait * p.jobs as f64;
        out.invocations += p.invocations;
        out.backfilled += p.backfilled;
    }
    out.digest = h.finish();
    out.mean_wait = wait / out.jobs.max(1) as f64;
    out
}

/// Checks that `result` is a valid schedule of `trace` on `system`:
/// every job starts exactly once, no earlier than its submission, and
/// running jobs never exceed the node or burst-buffer capacity.
pub fn check_schedule(
    result: &SimResult,
    trace: &Trace,
    system: &SystemConfig,
) -> Result<(), String> {
    if result.records.len() != trace.len() {
        return Err(format!("{} of {} jobs ran", result.records.len(), trace.len()));
    }
    let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    let mut want: Vec<u64> = trace.jobs().iter().map(|j| j.id).collect();
    want.sort_unstable();
    if ids != want {
        return Err("started job ids differ from the trace's ids".to_string());
    }
    // Capacity sweep: at equal times, completions free resources before
    // starts claim them.
    let mut events: Vec<(f64, bool, f64, f64)> = Vec::with_capacity(2 * ids.len());
    for r in &result.records {
        if r.start < r.submit || !r.start.is_finite() {
            return Err(format!(
                "job {} starts at {} before submission {}",
                r.id, r.start, r.submit
            ));
        }
        events.push((r.start, true, f64::from(r.nodes), r.bb_gb));
        events.push((r.end, false, f64::from(r.nodes), r.bb_gb));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut nodes, mut bb) = (0.0, 0.0);
    let bb_cap = system.bb_usable_gb() * (1.0 + 1e-9) + 1e-6;
    for (t, start, n, b) in events {
        let sign = if start { 1.0 } else { -1.0 };
        nodes += sign * n;
        bb += sign * b;
        if nodes > f64::from(system.nodes) || bb > bb_cap {
            return Err(format!("capacity exceeded at t={t}: {nodes} nodes, {bb:.1} GB"));
        }
    }
    Ok(())
}

/// Compares a decision stream with the reference stream byte for byte,
/// naming the first line that differs.
pub fn check_stream(reference: &[u8], got: &[u8]) -> Result<(), String> {
    if reference == got {
        return Ok(());
    }
    let mut want = reference.split(|&b| b == b'\n');
    let mut have = got.split(|&b| b == b'\n');
    let mut line = 1;
    loop {
        match (want.next(), have.next()) {
            (Some(w), Some(h)) if w == h => line += 1,
            (w, h) => {
                let show = |s: Option<&[u8]>| {
                    s.map_or("<end of stream>".to_string(), |s| String::from_utf8_lossy(s).into())
                };
                return Err(format!(
                    "decision stream diverges at line {line}: expected {}, got {}",
                    show(w),
                    show(h)
                ));
            }
        }
    }
}

/// The digest of a decision stream, pinned for `serve_journal`.
pub fn stream_digest(stream: &[u8]) -> u64 {
    Fnv::default().bytes(stream).finish()
}

/// A pinned outcome of one workload at one seed: the batch digest and
/// summary. For `serve_journal` it is the reference simulation's, with
/// the [`stream_digest`] of its decision stream folded into the digest.
pub struct Pin {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: u64,
    pub invocations: u64,
    pub backfilled: usize,
    pub makespan: f64,
    pub mean_wait: f64,
}

/// Outcomes pinned at the default seed and the held-out seed. Every run
/// prints its pin on stderr; paste it here only after an intended change
/// of scheduling behaviour.
pub const PINS: &[Pin] = &[
    Pin {
        workload: "sim_bbsched",
        seed: 1,
        digest: 0x5bdbd2ea0be0578e,
        invocations: 3818,
        backfilled: 269,
        makespan: 67448.92475668281,
        mean_wait: 1834.8446590967262,
    },
    Pin {
        workload: "sim_conservative_wfp",
        seed: 1,
        digest: 0x08e346f19a31a2b7,
        invocations: 112154,
        backfilled: 46688,
        makespan: 249489.92872586963,
        mean_wait: 17584.317867883856,
    },
    Pin {
        workload: "sim_easy_wfp",
        seed: 1,
        digest: 0xc4f8c11369d01330,
        invocations: 176638,
        backfilled: 81015,
        makespan: 1460278.9135178777,
        mean_wait: 162610.7447539798,
    },
    Pin {
        workload: "serve_journal",
        seed: 1,
        digest: 0x10bb2519d655ea22,
        invocations: 23332,
        backfilled: 10505,
        makespan: 797272.1157080877,
        mean_wait: 16108.741934462458,
    },
    Pin {
        workload: "sim_bbsched",
        seed: 1009,
        digest: 0x54ca287f30558fb9,
        invocations: 3724,
        backfilled: 341,
        makespan: 65460.95181791662,
        mean_wait: 1874.2360962907092,
    },
    Pin {
        workload: "sim_conservative_wfp",
        seed: 1009,
        digest: 0x97d1999406d6f12d,
        invocations: 112338,
        backfilled: 46590,
        makespan: 234284.9987101172,
        mean_wait: 17188.102688640738,
    },
    Pin {
        workload: "sim_easy_wfp",
        seed: 1009,
        digest: 0x3374a00592217251,
        invocations: 176559,
        backfilled: 80326,
        makespan: 1485344.0149582396,
        mean_wait: 165436.59363118673,
    },
    Pin {
        workload: "serve_journal",
        seed: 1009,
        digest: 0xd33e4851465689bd,
        invocations: 23418,
        backfilled: 10670,
        makespan: 822004.4643023695,
        mean_wait: 27223.351027381766,
    },
];

/// Trace 0 of each workload's batch at the default seed (for
/// `serve_journal`, the reference simulation of stream 0). Every run
/// checks it against this pin, whatever seed the run itself uses.
pub const CANARY_PINS: &[Pin] = &[
    Pin {
        workload: "sim_bbsched",
        seed: 1,
        digest: 0xf6ad1105cbfc383f,
        invocations: 955,
        backfilled: 32,
        makespan: 67448.92475668281,
        mean_wait: 575.8744369699762,
    },
    Pin {
        workload: "sim_conservative_wfp",
        seed: 1,
        digest: 0x8551585f2ae07b1c,
        invocations: 1184,
        backfilled: 480,
        makespan: 120902.09505872503,
        mean_wait: 8642.636340715231,
    },
    Pin {
        workload: "sim_easy_wfp",
        seed: 1,
        digest: 0xdcf6d9714763624c,
        invocations: 11679,
        backfilled: 5361,
        makespan: 1271874.504395967,
        mean_wait: 148445.24320380905,
    },
    Pin {
        workload: "serve_journal",
        seed: 1,
        digest: 0x53e30e5d41f3ddcd,
        invocations: 5740,
        backfilled: 2598,
        makespan: 648181.18374389,
        mean_wait: 21840.881513991084,
    },
];

fn pin_for(workload: &str, seed: u64) -> Option<&'static Pin> {
    PINS.iter().find(|p| p.workload == workload && p.seed == seed)
}

fn compare(pin: &Pin, got: &RunDigest) -> Result<(), String> {
    let want = (pin.digest, pin.invocations, pin.backfilled, pin.makespan, pin.mean_wait);
    let have = (got.digest, got.invocations, got.backfilled, got.makespan, got.mean_wait);
    if want == have {
        Ok(())
    } else {
        Err(format!("{} at seed {}: pinned {want:?}, got {have:?}", pin.workload, pin.seed))
    }
}

/// Checks an outcome against the pin for `workload` at `seed`; `None`
/// when that seed has no pin.
pub fn check_pin(workload: &str, seed: u64, got: &RunDigest) -> Option<Result<(), String>> {
    pin_for(workload, seed).map(|pin| compare(pin, got))
}

/// Checks trace 0 of a workload's default-seed batch against its
/// [`CANARY_PINS`] entry.
pub fn check_canary(workload: &str, got: &RunDigest) -> Result<(), String> {
    let pin = CANARY_PINS
        .iter()
        .find(|p| p.workload == workload)
        .ok_or_else(|| format!("no canary pin for {workload}"))?;
    compare(pin, got)
}

/// The Rust source of a pin for `got`, for pasting into [`PINS`].
pub fn pin_source(workload: &str, seed: u64, got: &RunDigest) -> String {
    format!(
        "    Pin {{ workload: {workload:?}, seed: {seed}, digest: {:#018x}, invocations: {}, \
         backfilled: {}, makespan: {:?}, mean_wait: {:?} }},",
        got.digest, got.invocations, got.backfilled, got.makespan, got.mean_wait
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_sched::JobRecord;

    fn result(starts: &[(u64, f64, StartReason)]) -> SimResult {
        let system = SystemConfig::theta().scaled(0.01);
        let records = starts
            .iter()
            .map(|&(id, start, reason)| JobRecord {
                id,
                submit: 0.0,
                start,
                end: start + 10.0,
                runtime: 10.0,
                walltime: 20.0,
                nodes: 1,
                bb_gb: 0.0,
                ssd_gb_per_node: 0.0,
                extra: Default::default(),
                assignment: Default::default(),
                wasted_ssd_gb: 0.0,
                reason,
            })
            .collect();
        SimResult {
            policy: "p".into(),
            base: "FCFS".into(),
            system,
            records,
            makespan: 20.0,
            invocations: 2,
            clamped_jobs: 0,
            backfilled: 1,
            starvation_forced: 0,
        }
    }

    #[test]
    fn digest_changes_when_one_start_or_reason_changes() {
        let base = [(1, 0.0, StartReason::Policy), (2, 5.0, StartReason::Backfill)];
        let d = digest_result(&result(&base));
        let mut moved = base;
        moved[1].1 = 5.5;
        let mut relabeled = base;
        relabeled[1].2 = StartReason::Policy;
        assert_ne!(d.digest, digest_result(&result(&moved)).digest);
        assert_ne!(d.digest, digest_result(&result(&relabeled)).digest);
        // Record order does not matter: the digest is taken in id order.
        let swapped = [base[1], base[0]];
        assert_eq!(d, digest_result(&result(&swapped)));
    }

    #[test]
    fn every_workload_is_pinned_at_the_default_and_held_out_seeds() {
        for workload in crate::WORKLOADS {
            for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
                assert!(pin_for(workload, seed).is_some(), "{workload} at seed {seed}");
            }
        }
    }

    #[test]
    fn every_workload_has_a_canary_pin() {
        for workload in crate::WORKLOADS {
            assert!(CANARY_PINS.iter().any(|p| p.workload == workload), "{workload}");
        }
    }

    #[test]
    fn pin_check_rejects_a_changed_outcome() {
        let pin = &PINS[0];
        let mut got = RunDigest {
            digest: pin.digest,
            jobs: 1,
            makespan: pin.makespan,
            mean_wait: pin.mean_wait,
            invocations: pin.invocations,
            backfilled: pin.backfilled,
        };
        assert_eq!(check_pin(pin.workload, pin.seed, &got), Some(Ok(())));
        got.backfilled += 1;
        assert!(matches!(check_pin(pin.workload, pin.seed, &got), Some(Err(_))));
        assert_eq!(check_pin(pin.workload, pin.seed + 1, &got), None, "unpinned seed");
        let canary = &CANARY_PINS[0];
        got.digest = canary.digest;
        got.invocations = canary.invocations;
        got.backfilled = canary.backfilled;
        got.makespan = canary.makespan;
        got.mean_wait = canary.mean_wait;
        assert_eq!(check_canary(canary.workload, &got), Ok(()));
        got.mean_wait += 1.0;
        assert!(check_canary(canary.workload, &got).is_err());
    }

    #[test]
    fn stream_check_rejects_a_perturbed_decision_stream() {
        let reference = b"{\"t\":1,\"decision\":\"start\",\"job\":1}\n{\"t\":2,\"decision\":\"start\",\"job\":2}\n";
        assert!(check_stream(reference, reference).is_ok());
        let mut perturbed = reference.to_vec();
        let at = perturbed.iter().rposition(|&b| b == b'2').unwrap();
        perturbed[at] = b'3';
        let err = check_stream(reference, &perturbed).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let truncated = &reference[..reference.len() / 2];
        assert!(check_stream(reference, truncated).is_err());
        assert_ne!(stream_digest(reference), stream_digest(&perturbed));
    }
}
