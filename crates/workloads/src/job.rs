//! The job model.
//!
//! §2.1: "When submitting a job, a user is required to provide two pieces
//! of information: resources required by the job and runtime estimate."
//! Resources here are compute nodes, shared burst buffer (GB), and — for
//! the §5 case study — local SSD per node (GB). The trace additionally
//! carries the *actual* runtime (known only to the simulator, used when the
//! job finishes) and optional dependencies (§3.1 admits only
//! dependency-satisfied jobs into the window).

use serde::{Deserialize, Serialize};

/// A single batch job as recorded in a workload trace.
///
/// Times are in seconds from the trace epoch; storage sizes in GB.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique job id (dense, assigned by the generator/parser).
    pub id: u64,
    /// Submission time (s).
    pub submit: f64,
    /// Requested compute nodes.
    pub nodes: u32,
    /// Actual runtime (s); revealed to the simulator only at completion.
    pub runtime: f64,
    /// User-provided runtime estimate / walltime request (s);
    /// `walltime >= runtime` is typical but not required (jobs hitting
    /// their limit have `runtime == walltime`).
    pub walltime: f64,
    /// Requested shared burst buffer (GB); 0 when the job does not use it.
    pub bb_gb: f64,
    /// Requested local SSD per node (GB); 0 outside the §5 case study.
    pub ssd_gb_per_node: f64,
    /// Ids of jobs that must complete before this job may enter the
    /// scheduling window. Both paper traces lack dependency information
    /// ("we suppose all jobs are independent"), but the simulator honours
    /// this field.
    #[serde(default)]
    pub deps: Vec<u64>,
    /// Demands on a system's extra resources, by registration order (see
    /// `SystemConfig::extra_resources`); empty for the paper's traces.
    #[serde(default)]
    pub extra: Vec<f64>,
}

impl Job {
    /// Creates an independent CPU-only job.
    pub fn new(id: u64, submit: f64, nodes: u32, runtime: f64, walltime: f64) -> Self {
        Self {
            id,
            submit,
            nodes,
            runtime,
            walltime,
            bb_gb: 0.0,
            ssd_gb_per_node: 0.0,
            deps: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Sets the burst-buffer request (builder style).
    pub fn with_bb(mut self, bb_gb: f64) -> Self {
        self.bb_gb = bb_gb;
        self
    }

    /// Sets the per-node local-SSD request (builder style).
    pub fn with_ssd(mut self, ssd_gb_per_node: f64) -> Self {
        self.ssd_gb_per_node = ssd_gb_per_node;
        self
    }

    /// Adds dependencies (builder style).
    pub fn with_deps(mut self, deps: Vec<u64>) -> Self {
        self.deps = deps;
        self
    }

    /// Sets the demand on extra resource `i` (builder style), growing the
    /// demand vector with zeros as needed.
    pub fn with_extra(mut self, i: usize, amount: f64) -> Self {
        if self.extra.len() <= i {
            self.extra.resize(i + 1, 0.0);
        }
        self.extra[i] = amount;
        self
    }

    /// Demand on extra resource `i` (0 when the job does not request it).
    pub fn extra_demand(&self, i: usize) -> f64 {
        self.extra.get(i).copied().unwrap_or(0.0)
    }

    /// Whether the job requests any shared burst buffer.
    pub fn uses_bb(&self) -> bool {
        self.bb_gb > 0.0
    }

    /// Node-seconds of useful work (`nodes × runtime`), the numerator of
    /// the node-usage metric.
    pub fn node_seconds(&self) -> f64 {
        f64::from(self.nodes) * self.runtime
    }

    /// Burst-buffer-seconds of useful occupancy (`bb × runtime`).
    pub fn bb_seconds(&self) -> f64 {
        self.bb_gb * self.runtime
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err(format!("job {}: zero nodes requested", self.id));
        }
        if !(self.runtime > 0.0 && self.runtime.is_finite()) {
            return Err(format!("job {}: runtime must be positive and finite", self.id));
        }
        if !(self.walltime > 0.0 && self.walltime.is_finite()) {
            return Err(format!("job {}: walltime must be positive and finite", self.id));
        }
        if self.submit < 0.0 || !self.submit.is_finite() {
            return Err(format!("job {}: invalid submit time", self.id));
        }
        if self.bb_gb < 0.0 || !self.bb_gb.is_finite() {
            return Err(format!("job {}: invalid burst-buffer request", self.id));
        }
        if self.ssd_gb_per_node < 0.0 || !self.ssd_gb_per_node.is_finite() {
            return Err(format!("job {}: invalid SSD request", self.id));
        }
        if self.deps.contains(&self.id) {
            return Err(format!("job {}: depends on itself", self.id));
        }
        if self.extra.iter().any(|x| *x < 0.0 || !x.is_finite()) {
            return Err(format!("job {}: invalid extra-resource request", self.id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let j =
            Job::new(1, 10.0, 64, 3600.0, 7200.0).with_bb(500.0).with_ssd(128.0).with_deps(vec![0]);
        assert_eq!(j.nodes, 64);
        assert!(j.uses_bb());
        assert_eq!(j.deps, vec![0]);
        assert!(j.validate().is_ok());
    }

    #[test]
    fn accounting_helpers() {
        let j = Job::new(1, 0.0, 10, 100.0, 200.0).with_bb(50.0);
        assert_eq!(j.node_seconds(), 1000.0);
        assert_eq!(j.bb_seconds(), 5000.0);
    }

    #[test]
    fn validation_catches_errors() {
        assert!(Job::new(1, 0.0, 0, 1.0, 1.0).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 0.0, 1.0).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, 0.0).validate().is_err());
        assert!(Job::new(1, -5.0, 1, 1.0, 1.0).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, 1.0).with_bb(-1.0).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, 1.0).with_ssd(f64::NAN).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, 1.0).with_deps(vec![1]).validate().is_err());
        // Non-finite runtime, walltime and extra-resource requests.
        assert!(Job::new(1, 0.0, 1, f64::INFINITY, 1.0).validate().is_err());
        assert!(Job::new(1, 0.0, 1, f64::NAN, 1.0).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, f64::INFINITY).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, f64::NAN).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, 1.0).with_extra(0, f64::INFINITY).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, 1.0).with_extra(0, f64::NAN).validate().is_err());
        assert!(Job::new(1, 0.0, 1, 1.0, 1.0).validate().is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let j = Job::new(7, 3.5, 128, 60.0, 120.0).with_bb(1024.0);
        let s = serde_json::to_string(&j).unwrap();
        let back: Job = serde_json::from_str(&s).unwrap();
        assert_eq!(j, back);
    }
}
