//! The three simulator workloads.
//!
//! A run simulates a fixed batch of traces, all generated from the run's
//! seed, in passes until the time budget is spent; each untraced pass is
//! a fresh worker process. One trace's queue
//! dynamics, and with them its cost, vary widely from seed to seed at
//! these loads; a batch of independent traces averages that out, so runs
//! at different seeds measure the same code alike.

use crate::check::{self, RunDigest};
use crate::layers::{InvokeClock, SharedTracer, TimedPolicy, TracingObserver};
use crate::spans::{layer_stats, LayerStats};
use crate::stats::{
    median, per_invocation_median, percentile, thread_cpu_s, wait_with_rusage, Calibration,
};
use crate::{ga_params, Outcome};
use bbsched_policies::PolicyKind;
use bbsched_sched::SimResult;
use bbsched_sim::{BackfillAlgorithm, BackfillScope, BaseScheduler, SimConfig, Simulator};
use bbsched_workloads::{generate, GeneratorConfig, MachineProfile, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One simulator workload.
pub struct SimSpec {
    pub name: &'static str,
    /// Traces per batch and jobs per trace.
    pub traces: usize,
    pub jobs: usize,
    machine: fn() -> MachineProfile,
    load: f64,
    base: BaseScheduler,
    algorithm: BackfillAlgorithm,
    scope: BackfillScope,
    policy: PolicyKind,
    /// The layer this workload exists to stress; the traced run reports
    /// its busy time, p99 span and share of invocation busy time.
    dominant: &'static [&'static str],
}

fn cori_5pct() -> MachineProfile {
    MachineProfile::cori().scaled(0.05)
}

fn theta_20pct() -> MachineProfile {
    MachineProfile::theta().scaled(0.2)
}

pub const SPECS: [SimSpec; 3] = [
    // The paper's configuration (§4.3): Cori, FCFS, EASY window
    // backfill, BBSched with G=500, P=20, w=20 on one thread.
    SimSpec {
        name: "sim_bbsched",
        traces: 4,
        jobs: 500,
        machine: cori_5pct,
        load: 2.0,
        base: BaseScheduler::Fcfs,
        algorithm: BackfillAlgorithm::Easy,
        scope: BackfillScope::Window,
        policy: PolicyKind::BbSched,
        dominant: &["policies.select"],
    },
    // Deep Theta queue (the `simulate_large` recipe), WFP, conservative
    // backfill reserving for every queued job.
    SimSpec {
        name: "sim_conservative_wfp",
        traces: 100,
        jobs: 600,
        machine: theta_20pct,
        load: 2.0,
        base: BaseScheduler::Wfp,
        algorithm: BackfillAlgorithm::Conservative,
        scope: BackfillScope::Queue,
        policy: PolicyKind::Baseline,
        dominant: &["sched.backfill.pass"],
    },
    // The same recipe under EASY window backfill: queue order and window
    // build dominate.
    SimSpec {
        name: "sim_easy_wfp",
        traces: 15,
        jobs: 6_000,
        machine: theta_20pct,
        load: 1.3,
        base: BaseScheduler::Wfp,
        algorithm: BackfillAlgorithm::Easy,
        scope: BackfillScope::Window,
        policy: PolicyKind::Baseline,
        dominant: &["sched.queue.order_window"],
    },
];

impl SimSpec {
    pub fn config(&self) -> SimConfig {
        SimConfig {
            base: self.base,
            backfill_algorithm: self.algorithm,
            backfill: self.scope,
            ..SimConfig::default()
        }
    }

    /// The batch's traces. Trace `k` uses a generator seed derived from
    /// the run seed, so one seed always yields the same batch.
    pub fn generate(&self, seed: u64, profile: &MachineProfile) -> Vec<Trace> {
        (0..self.traces)
            .map(|k| {
                let cfg = GeneratorConfig {
                    n_jobs: self.jobs,
                    seed: crate::derive_seed(seed, k as u64),
                    load_factor: self.load,
                    ..GeneratorConfig::default()
                };
                generate(profile, &cfg)
            })
            .collect()
    }
}

const SETUP_REPS: usize = 15;

/// Untraced passes a run makes at least, so that each invocation's
/// median latency has a middle.
const MIN_PASSES: usize = 3;

/// Checks one simulated trace and reduces it to its digest: the schedule
/// is valid, and the observer saw every invocation the core ran.
fn verify(
    result: &SimResult,
    trace: &Trace,
    profile: &MachineProfile,
    hook_invocations: usize,
) -> Result<RunDigest, String> {
    check::check_schedule(result, trace, &profile.system)?;
    if hook_invocations as u64 != result.invocations {
        return Err(format!(
            "{hook_invocations} hook invocations, {} recorded",
            result.invocations
        ));
    }
    Ok(check::digest_result(result))
}

/// Every checked run of a trace, from any pass or process, must have the
/// same outcome as the first.
struct Outcomes {
    first: Vec<Option<RunDigest>>,
    failures: Vec<String>,
    attempted: u64,
}

impl Outcomes {
    fn record(&mut self, name: &str, k: usize, verdict: Result<RunDigest, String>) {
        self.attempted += 1;
        let verdict = verdict.and_then(|d| match self.first[k] {
            None => {
                self.first[k] = Some(d);
                Ok(())
            }
            Some(first) if first == d => Ok(()),
            Some(first) => Err(format!("run differs from the first: {first:?} vs {d:?}")),
        });
        if let Err(e) = verdict {
            self.failures.push(format!("{name} trace {k}: {e}"));
        }
    }
}

/// One trace of one untraced pass: its thread CPU time, every
/// invocation's latency and the checked outcome.
#[derive(Serialize, Deserialize)]
pub struct TraceReport {
    cpu: f64,
    invokes: Vec<f64>,
    digest: Option<RunDigest>,
    error: Option<String>,
}

/// A worker process's whole output: one untraced pass over the batch,
/// and the reference-kernel times measured between its traces.
#[derive(Serialize, Deserialize)]
pub struct PassReport {
    traces: Vec<TraceReport>,
    references: Vec<f64>,
}

fn simulators<'t>(
    spec: &SimSpec,
    profile: &MachineProfile,
    traces: &'t [Trace],
) -> Vec<Simulator<'t>> {
    traces
        .iter()
        .map(|t| {
            Simulator::new(&profile.system, t, spec.config()).expect("workload config is valid")
        })
        .collect()
}

/// Simulates one trace untraced, with the begin/end invocation clock
/// only, and checks the outcome outside the timed region.
fn untraced_trace(
    spec: &SimSpec,
    sim: &Simulator<'_>,
    trace: &Trace,
    profile: &MachineProfile,
) -> TraceReport {
    let policy = spec.policy.build(ga_params());
    let mut clock = InvokeClock::default();
    let t = thread_cpu_s();
    let result = sim.run_observed_shared(policy, &mut [&mut clock]);
    let cpu = thread_cpu_s() - t;
    let verdict = verify(&result, trace, profile, clock.samples.len());
    TraceReport {
        cpu,
        invokes: clock.samples,
        digest: verdict.as_ref().ok().copied(),
        error: verdict.err(),
    }
}

/// Body of a worker process: generate the batch, run one untraced pass,
/// check each trace, and time the reference kernel between traces.
pub fn worker(spec: &SimSpec, seed: u64) -> PassReport {
    let profile = (spec.machine)();
    let traces = spec.generate(seed, &profile);
    let sims = simulators(spec, &profile, &traces);
    let mut calibration = Calibration::default();
    calibration.measure();
    let traces = sims
        .iter()
        .zip(&traces)
        .map(|(sim, trace)| {
            let report = untraced_trace(spec, sim, trace, &profile);
            calibration.after_work(report.cpu);
            report
        })
        .collect();
    calibration.measure();
    PassReport { traces, references: calibration.samples }
}

/// CPU time and invocation latencies of a run's passes over its batch.
#[derive(Default)]
struct Timed {
    cpu: f64,
    /// Each pass's invocation latencies, in invocation order.
    invokes: Vec<Vec<f64>>,
}

impl Timed {
    fn add_pass(&mut self, cpu: f64, invokes: Vec<f64>) {
        self.cpu += cpu;
        self.invokes.push(invokes);
    }

    /// Mean CPU time of one pass over the batch.
    fn per_pass(&self) -> f64 {
        self.cpu / self.invokes.len().max(1) as f64
    }
}

/// Runs one worker process to its exit; returns its report and peak RSS.
fn spawn_worker(spec: &SimSpec, seed: u64) -> Result<(PassReport, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--worker", "--workload", spec.name, "--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    let mut out = String::new();
    let read = child.stdout.take().expect("stdout is piped").read_to_string(&mut out);
    let reaped = wait_with_rusage(child.id());
    reaped.exit.map_err(|e| format!("worker: {e}"))?;
    read.map_err(|e| format!("worker output: {e}"))?;
    let report = serde_json::from_str(&out).map_err(|e| format!("worker report: {e}"))?;
    Ok((report, reaped.peak_rss_mb))
}

/// Simulates trace 0 of the default seed's batch and checks it against
/// its pin, whatever seed the run itself uses, so that a change of
/// scheduling behaviour fails every run.
fn check_canary(spec: &SimSpec, profile: &MachineProfile, outcomes: &mut Outcomes) {
    let trace = &spec.generate(crate::DEFAULT_SEED, profile)[..1];
    let sim = &simulators(spec, profile, trace)[0];
    let report = untraced_trace(spec, sim, &trace[0], profile);
    outcomes.attempted += 1;
    let verdict = report.digest.ok_or(report.error.unwrap_or_default()).and_then(|d| {
        eprintln!("canary pin: {}", check::pin_source(spec.name, crate::DEFAULT_SEED, &d));
        check::check_canary(spec.name, &d)
    });
    if let Err(e) = verdict {
        outcomes.failures.push(format!("{} canary: {e}", spec.name));
    }
}

pub fn run(spec: &SimSpec, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let profile = (spec.machine)();
    let mut calibration = Calibration::default();

    // Set-up: trace generation plus simulator construction, repeated.
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPS {
        calibration.measure();
        let t0 = thread_cpu_s();
        traces = spec.generate(seed, &profile);
        gen.push(thread_cpu_s() - t0);
        drop(simulators(spec, &profile, &traces));
        setup.push(thread_cpu_s() - t0);
    }
    let jobs: usize = traces.iter().map(Trace::len).sum();
    let mut outcomes =
        Outcomes { first: vec![None; traces.len()], failures: Vec::new(), attempted: 0 };
    check_canary(spec, &profile, &mut outcomes);
    // Measured CPU time of the batch's traces, summed over passes.
    let mut work = Timed::default();
    let start = Instant::now();
    let mut out = Outcome::new(0, Vec::new());

    if traced {
        // Alternate untraced and traced passes in this process, so both
        // see the same machine conditions.
        let sims = simulators(spec, &profile, &traces);
        let mut traced_work = Timed::default();
        let mut tracers: Vec<SharedTracer> = Vec::new();
        let mut driver_self = Vec::new();
        let mut pass = 0usize;
        while pass < 2 || start.elapsed().as_secs_f64() < seconds {
            let tracing = pass % 2 == 1;
            let tracer = SharedTracer::default();
            let mut invoke_busy = 0.0;
            let mut pass_cpu = 0.0;
            let mut pass_invokes = Vec::new();
            for (k, sim) in sims.iter().enumerate() {
                if tracing {
                    let first_span = {
                        let mut t = tracer.lock();
                        t.rec.set_run(k as u32);
                        t.rec.spans().len()
                    };
                    let policy = TimedPolicy::wrap(spec.policy.build(ga_params()), tracer.clone());
                    let mut obs = TracingObserver::new(tracer.clone());
                    let t = thread_cpu_s();
                    let result = sim.run_observed_shared(policy, &mut [&mut obs]);
                    let cpu = thread_cpu_s() - t;
                    pass_cpu += cpu;
                    let invokes: Vec<f64> = tracer.lock().rec.spans()[first_span..]
                        .iter()
                        .filter(|s| s.name == "sched.service.invoke")
                        .map(|s| s.duration() as f64 / 1e9)
                        .collect();
                    invoke_busy += invokes.iter().sum::<f64>();
                    outcomes.record(
                        spec.name,
                        k,
                        verify(&result, &traces[k], &profile, invokes.len()),
                    );
                    pass_invokes.extend(invokes);
                } else {
                    let report = untraced_trace(spec, sim, &traces[k], &profile);
                    pass_cpu += report.cpu;
                    outcomes.record(
                        spec.name,
                        k,
                        report.digest.ok_or(report.error.unwrap_or_default()),
                    );
                    pass_invokes.extend(report.invokes);
                }
            }
            eprintln!("pass {pass}{}: {pass_cpu:.3} s CPU", if tracing { " (traced)" } else { "" });
            if tracing {
                traced_work.add_pass(pass_cpu, pass_invokes);
                driver_self.push(pass_cpu - invoke_busy);
                tracers.push(tracer);
            } else {
                work.add_pass(pass_cpu, pass_invokes);
            }
            pass += 1;
        }
        out.set("bench.trace_overhead", traced_work.per_pass() / work.per_pass());
        out.set("workloads.generate_s", median(&mut gen));
        out.set("sched.driver.self_s", median(&mut driver_self));
        let layers = merged_layer_stats(&tracers);
        sim_layer_metrics(&mut out, &tracers, &layers);
        dominant_layer_metrics(&mut out, spec.dominant, &layers, tracers.len());
        out.set(
            "bench.dominant_layer_share",
            out.get("bench.dominant_layer_busy_s") / out.get("sched.service.invoke_busy_s"),
        );
        let last = tracers.last().expect("a traced run makes at least one traced pass");
        let path = out_dir.join(format!("spans-{}-seed{seed}.tsv", spec.name));
        crate::write_spans(&last.lock().rec, &path);
    } else {
        // Each untraced pass runs in a fresh worker process, so that its
        // peak RSS is the pass's own.
        let mut rss = Vec::new();
        let mut workers = 0usize;
        while workers < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            workers += 1;
            match spawn_worker(spec, seed) {
                Ok((report, peak)) => {
                    rss.push(peak);
                    let pass_cpu: f64 = report.traces.iter().map(|t| t.cpu).sum();
                    eprintln!("worker {workers}: {pass_cpu:.3} s CPU");
                    calibration.samples.extend(report.references);
                    let mut invokes = Vec::new();
                    for (k, t) in report.traces.into_iter().enumerate().take(traces.len()) {
                        let verdict = t.digest.ok_or(t.error.unwrap_or_default());
                        outcomes.record(spec.name, k, verdict);
                        invokes.extend(t.invokes);
                    }
                    work.add_pass(pass_cpu, invokes);
                }
                Err(e) => {
                    outcomes.attempted += 1;
                    outcomes.failures.push(e);
                }
            }
        }
        let scale = calibration.scale();
        eprintln!("calibration: {scale:.4} ({} reference runs)", calibration.samples.len());
        out.set("setup_s", scale * median(&mut setup));
        let jps = jobs as f64 / (scale * work.per_pass());
        out.set("jobs_per_s", jps);
        // Each trace job is one submit and one finish event: on the
        // simulator workloads this is `jobs_per_s` counted in events.
        out.set("events_per_s", 2.0 * jps);
        let mut samples = per_invocation_median(&work.invokes);
        eprintln!("invoke samples: {} invocations", samples.len());
        out.set("invoke_p50_ms", 1e3 * scale * percentile(&mut samples, 0.5));
        out.set("invoke_p99_ms", 1e3 * scale * percentile(&mut samples, 0.99));
        out.set("peak_rss_mb", median(&mut rss));
    }

    let batch: Vec<RunDigest> = outcomes.first.iter().flatten().copied().collect();
    if batch.len() == traces.len() {
        let combined = check::combine(&batch);
        eprintln!("pin: {}", check::pin_source(spec.name, seed, &combined));
        if let Some(verdict) = check::check_pin(spec.name, seed, &combined) {
            outcomes.attempted += 1;
            outcomes.failures.extend(verdict.err());
        }
    }
    out.attempted = outcomes.attempted;
    out.failures = outcomes.failures;
    out
}

/// Per-layer span statistics summed over the recorders of a run. Spans
/// of different passes never nest: parents index within one recorder,
/// so stats are taken per recorder and summed.
pub fn merged_layer_stats(tracers: &[SharedTracer]) -> BTreeMap<&'static str, LayerStats> {
    let mut layers = BTreeMap::new();
    for t in tracers {
        for (name, s) in layer_stats(t.lock().rec.spans()) {
            let e: &mut LayerStats = layers.entry(name).or_default();
            e.count += s.count;
            e.busy_ns += s.busy_ns;
            e.self_ns += s.self_ns;
            e.durations.extend(s.durations);
        }
    }
    layers
}

/// Busy time per pass (or run) and p99 span of the workload's designated
/// layer, the spans named in `names` taken together.
pub fn dominant_layer_metrics(
    out: &mut Outcome,
    names: &[&str],
    layers: &BTreeMap<&'static str, LayerStats>,
    passes: usize,
) {
    let mut spans = LayerStats::default();
    for s in names.iter().filter_map(|n| layers.get(n)) {
        spans.busy_ns += s.busy_ns;
        spans.durations.extend(&s.durations);
    }
    out.set("bench.dominant_layer_busy_s", spans.busy_ns as f64 / 1e9 / passes.max(1) as f64);
    out.set("bench.dominant_layer_p99_us", spans.p99_us());
}

/// The scheduler-core layer metrics, averaged over traced passes.
pub fn sim_layer_metrics(
    out: &mut Outcome,
    tracers: &[SharedTracer],
    layers: &BTreeMap<&'static str, LayerStats>,
) {
    let passes = tracers.len().max(1) as f64;
    let (mut offered, mut selected, mut calls, mut reservations, mut starts, mut depth) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for t in tracers {
        let t = t.lock();
        offered += t.offered;
        selected += t.selected;
        calls += t.select_calls;
        reservations += t.reservations;
        starts += t.backfill_starts;
        depth += t.depth_sum;
    }
    let busy = |name: &str| layers.get(name).map_or(0.0, |s| s.busy_ns as f64 / 1e9 / passes);
    let p99 = |name: &str| layers.get(name).map_or(0.0, |s| s.p99_us());
    let invocations = layers.get("sched.service.invoke").map_or(0, |s| s.count);
    out.set("policies.select_busy_s", busy("policies.select"));
    out.set("policies.select_p99_us", p99("policies.select"));
    out.set("policies.window_len_mean", offered as f64 / calls.max(1) as f64);
    out.set("policies.started_per_offered", selected as f64 / offered.max(1) as f64);
    out.set("sched.backfill.pass_busy_s", busy("sched.backfill.pass"));
    out.set("sched.backfill.pass_p99_us", p99("sched.backfill.pass"));
    out.set("sched.backfill.starts", starts as f64 / passes);
    out.set("sched.backfill.reservations", reservations as f64 / passes);
    out.set("sched.queue.order_window_busy_s", busy("sched.queue.order_window"));
    out.set("sched.queue.order_window_p99_us", p99("sched.queue.order_window"));
    out.set("sched.queue.depth_mean", depth as f64 / invocations.max(1) as f64);
    out.set("sched.service.invocations", invocations as f64 / passes);
    out.set("sched.service.invoke_busy_s", busy("sched.service.invoke"));
    out.set(
        "sched.service.invoke_self_s",
        layers.get("sched.service.invoke").map_or(0.0, |s| s.self_ns as f64 / 1e9 / passes),
    );
    out.set("sched.service.cleanup_busy_s", busy("sched.service.cleanup"));
}
