//! The `serve_journal` workload: the release `bbsched serve` daemon,
//! journal on, draining a backlog.
//!
//! The input is [`STREAMS`] Theta-like FCFS / EASY / Baseline event
//! streams, one daemon run each, in turn: submits from a generated trace,
//! and finishes at `start + runtime` taken from a reference simulation of
//! the same trace. The reference simulation's
//! decision stream is what the daemon must print, byte for byte. The
//! loop is closed: one thread writes the whole stream into the daemon's
//! stdin as fast as the pipe accepts it, another drains stdout.
//!
//! The daemon is timed only from outside. Its layer split comes from an
//! in-process replica of the daemon loop built from the same public
//! calls (`JobEvent::parse`, `Replayer::feed`, `Journal::append_sync`,
//! `SnapshotStore::save`, `Decision::json_line`), whose output must equal
//! the daemon's.

use crate::check;
use crate::layers::{InvokeClock, SharedTracer, TimedPolicy, TracingObserver};
use crate::spans::LayerStats;
use crate::stats::{
    median, per_invocation_median, percentile, thread_cpu_s, wait_with_rusage, Calibration,
};
use crate::{ga_params, Outcome};
use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::durability::{Encoding, Journal, SnapshotStore};
use bbsched_sched::{
    Decision, DecisionLog, JobEvent, ReplaySnapshot, Replayer, SchedConfig, SchedObserver,
};
use bbsched_sim::{BaseScheduler, SimConfig, Simulator};
use bbsched_workloads::{generate, GeneratorConfig, MachineProfile, SystemConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Streams per run, and jobs per stream; each job is one submit and one
/// finish line. One stream's cost depends on how its queue builds up, so
/// a run rotates over several streams, all from its seed, and their
/// average varies less from seed to seed.
pub const STREAMS: u64 = 4;
pub const JOBS: usize = 3_000;
const SNAPSHOT_EVERY: u64 = 1_000;
/// Machine slice and load of the stream's trace (the `simulate_large`
/// recipe, so the queue stays deep).
const SCALE: f64 = 0.2;
const LOAD: f64 = 1.05;
const SETUP_REPS: usize = 7;

/// A synthesized input stream and the decisions it must produce.
pub struct Stream {
    /// Event lines, without newlines.
    pub lines: Vec<String>,
    /// The daemon's stdin: every line, newline-terminated.
    pub input: Vec<u8>,
    /// The reference decision stream.
    pub expected: Vec<u8>,
    pub jobs: usize,
    /// The reference simulation's digest, with the decision stream's
    /// bytes folded in; pinned at the pinned seeds.
    pub reference: check::RunDigest,
    pub system: SystemConfig,
    pub cfg: SchedConfig,
}

fn sim_config() -> SimConfig {
    SimConfig { base: BaseScheduler::Fcfs, ..SimConfig::default() }
}

/// Builds stream `k` of a run at `seed`: generate, simulate, and
/// interleave the submits with the simulated finishes in time order
/// (submits first at equal instants, as the replay driver batches them).
pub fn synthesize(seed: u64, k: u64, n_jobs: usize) -> Stream {
    let profile = MachineProfile::theta().scaled(SCALE);
    let trace = generate(
        &profile,
        &GeneratorConfig {
            n_jobs,
            seed: crate::derive_seed(seed, k),
            load_factor: LOAD,
            ..GeneratorConfig::default()
        },
    );
    let mut log = DecisionLog::new();
    let result = Simulator::new(&profile.system, &trace, sim_config())
        .expect("workload config is valid")
        .run_observed(PolicyKind::Baseline.build(ga_params()), &mut [&mut log]);
    let mut events: Vec<JobEvent> = trace.jobs().iter().cloned().map(JobEvent::Submit).collect();
    events.extend(result.records.iter().map(|r| JobEvent::Finish { id: r.id, time: r.end }));
    events.sort_by(|a, b| a.time().total_cmp(&b.time()));
    let lines: Vec<String> = events.iter().map(JobEvent::to_json_line).collect();
    let mut input = Vec::new();
    for l in &lines {
        input.extend_from_slice(l.as_bytes());
        input.push(b'\n');
    }
    let mut expected = Vec::new();
    for l in log.lines() {
        expected.extend_from_slice(l.as_bytes());
        expected.push(b'\n');
    }
    let mut reference = check::digest_result(&result);
    reference.digest =
        check::Fnv::default().u64(reference.digest).u64(check::stream_digest(&expected)).finish();
    Stream {
        lines,
        input,
        expected,
        jobs: trace.len(),
        reference,
        system: profile.system.clone(),
        cfg: sim_config().sched(),
    }
}

/// The daemon's command line. The GA seed is passed explicitly: the
/// daemon's own default differs from the library's, and a BBSched stream
/// synthesized under one diverges under the other.
fn daemon_args(journal: &Path) -> Vec<String> {
    let ga = ga_params();
    let flags = [
        ("--events", "-".to_string()),
        ("--machine", "theta".to_string()),
        ("--scale", SCALE.to_string()),
        ("--base", "fcfs".to_string()),
        ("--backfill", "easy".to_string()),
        ("--policy", "Baseline".to_string()),
        ("--gens", ga.generations.to_string()),
        ("--seed", ga.base_seed.to_string()),
        ("--threads", ga.threads.to_string()),
        ("--journal", journal.display().to_string()),
        ("--snapshot-every", SNAPSHOT_EVERY.to_string()),
    ];
    std::iter::once("serve".to_string())
        .chain(flags.into_iter().flat_map(|(flag, value)| [flag.to_string(), value]))
        .collect()
}

/// One daemon process, timed from spawn to exit.
struct DaemonRun {
    wall: f64,
    /// The daemon's user plus system CPU time.
    cpu: f64,
    stdout: Vec<u8>,
    stderr: String,
    exit: Result<(), String>,
    peak_rss_mb: f64,
}

fn run_daemon(bin: &Path, input: &[u8], journal: &Path) -> std::io::Result<DaemonRun> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(daemon_args(journal))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let pid = child.id();
    let (wall, out, err, reaped) = std::thread::scope(|s| {
        // A daemon that dies early closes its stdin; the exit verdict
        // reports that, so a failed write needs no report of its own.
        let writer = s.spawn(move || stdin.write_all(input).ok());
        let reader = s.spawn(move || {
            let mut v = Vec::new();
            stdout.read_to_end(&mut v).map(|_| v)
        });
        let errs = s.spawn(move || {
            let mut v = String::new();
            stderr.read_to_string(&mut v).map(|_| v)
        });
        let waited = wait_with_rusage(pid);
        let wall = t0.elapsed().as_secs_f64();
        writer.join().expect("stdin writer panicked");
        let out = reader.join().expect("stdout reader panicked");
        let err = errs.join().expect("stderr reader panicked");
        (wall, out, err, waited)
    });
    Ok(DaemonRun {
        wall,
        cpu: reaped.cpu_s,
        stdout: out?,
        stderr: err?,
        exit: reaped.exit,
        peak_rss_mb: reaped.peak_rss_mb,
    })
}

/// The daemon's checks: exit 0, the reference decision stream byte for
/// byte, and nothing left waiting or running.
fn check_daemon(run: &DaemonRun, stream: &Stream) -> Result<(), String> {
    run.exit.clone().map_err(|e| format!("{e}: {}", run.stderr.trim()))?;
    check::check_stream(&stream.expected, &run.stdout)?;
    if !run.stderr.contains("left 0 waiting / 0 running") {
        return Err(format!("daemon did not drain: {}", run.stderr.trim()));
    }
    Ok(())
}

/// Invocation latencies of the same stream through the (unjournaled)
/// replay driver the daemon wraps, and its decision stream.
fn replay_invocations(stream: &Stream) -> Result<(Vec<f64>, Vec<u8>), String> {
    let mut clock = InvokeClock::default();
    let mut log = DecisionLog::new();
    {
        let observers: Vec<&mut dyn SchedObserver> = vec![&mut log, &mut clock];
        let mut replayer = Replayer::new(
            &stream.system,
            stream.cfg.clone(),
            PolicyKind::Baseline.build(ga_params()),
            observers,
        )
        .map_err(|e| e.to_string())?;
        for line in &stream.lines {
            replayer.feed(JobEvent::parse(line)?).map_err(|e| e.to_string())?;
        }
        replayer.finish().map_err(|e| e.to_string())?;
    }
    let mut out = Vec::new();
    for l in log.lines() {
        out.extend_from_slice(l.as_bytes());
        out.push(b'\n');
    }
    Ok((clock.samples, out))
}

/// The daemon's checkpoint layout (replay state, policy identity and GA
/// parameters, consumed-line position), so the replica writes snapshots
/// of the daemon's size.
#[derive(serde::Serialize)]
struct Checkpoint {
    replay: ReplaySnapshot,
    policy: PolicyKind,
    ga: GaParams,
    consumed: u64,
}

/// Emits each decision as the daemon does: one line, one write.
struct Emitter {
    out: std::fs::File,
    tracer: SharedTracer,
    error: Option<std::io::Error>,
}

impl SchedObserver for Emitter {
    fn on_decision(&mut self, now: f64, decision: &Decision) {
        let written = self.tracer.time("sched.service.emit", || {
            let mut line = decision.json_line(now);
            line.push('\n');
            self.out.write_all(line.as_bytes())
        });
        if let Err(e) = written {
            self.error.get_or_insert(e);
        }
    }
}

/// Byte counts of one replica run.
struct ReplicaRun {
    journal_bytes: u64,
    snapshot_bytes_max: u64,
    snapshots: u64,
}

/// The daemon loop, in process, with every layer call in a span.
fn replica(stream: &Stream, dir: &Path, tracer: &SharedTracer) -> Result<ReplicaRun, String> {
    fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
        move |e| format!("replica {what}: {e}")
    }
    let store = SnapshotStore::open(dir, 3).map_err(io("snapshot store"))?;
    let journal_path = dir.join("events.wal");
    let (mut journal, _) = Journal::open(&journal_path).map_err(io("journal"))?;
    let decisions = dir.join("decisions.jsonl");
    let mut emitter = Emitter {
        out: std::fs::File::create(&decisions).map_err(io("decision file"))?,
        tracer: tracer.clone(),
        error: None,
    };
    let mut observer = TracingObserver::new(tracer.clone());
    let ga = ga_params();
    let mut snapshots = 0u64;
    let mut snapshot_bytes_max = 0u64;
    {
        let observers: Vec<&mut dyn SchedObserver> = vec![&mut emitter, &mut observer];
        let policy = TimedPolicy::wrap(PolicyKind::Baseline.build(ga), tracer.clone());
        let mut replayer = Replayer::new(&stream.system, stream.cfg.clone(), policy, observers)
            .map_err(|e| e.to_string())?;
        let mut save = |replayer: &Replayer<'_>, consumed: u64| -> Result<(), String> {
            let path = tracer
                .time("sched.durability.snapshot", || {
                    let ckpt = Checkpoint {
                        replay: replayer.snapshot(),
                        policy: PolicyKind::Baseline,
                        ga,
                        consumed,
                    };
                    store.save(consumed, &ckpt, Encoding::Binary)
                })
                .map_err(io("snapshot"))?;
            snapshots += 1;
            let bytes = std::fs::metadata(path).map_err(io("snapshot size"))?.len();
            snapshot_bytes_max = snapshot_bytes_max.max(bytes);
            Ok(())
        };
        save(&replayer, 0)?;
        let mut consumed = 0u64;
        for line in &stream.lines {
            let event = tracer.time("sched.replay.parse", || JobEvent::parse(line))?;
            tracer.time("sched.replay.feed", || replayer.feed(event)).map_err(|e| e.to_string())?;
            tracer
                .time("sched.durability.journal", || journal.append_sync(line.as_bytes()))
                .map_err(io("journal append"))?;
            consumed += 1;
            if consumed.is_multiple_of(SNAPSHOT_EVERY) {
                save(&replayer, consumed)?;
            }
        }
        save(&replayer, consumed)?;
        let summary =
            tracer.time("sched.replay.feed", || replayer.finish()).map_err(|e| e.to_string())?;
        if summary.left_waiting != 0 || summary.left_running != 0 {
            return Err(format!("replica left {summary:?}"));
        }
    }
    if let Some(e) = emitter.error {
        return Err(format!("replica emit: {e}"));
    }
    let emitted = std::fs::read(&decisions).map_err(io("decision file"))?;
    check::check_stream(&stream.expected, &emitted).map_err(|e| format!("replica: {e}"))?;
    let journal_bytes = std::fs::metadata(&journal_path).map_err(io("journal size"))?.len();
    Ok(ReplicaRun { journal_bytes, snapshot_bytes_max, snapshots })
}

/// The mean of a run's repeated measurements.
#[derive(Default)]
struct Mean {
    sum: f64,
    n: u32,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn get(&self) -> f64 {
        self.sum / f64::from(self.n)
    }
}

/// A fresh, empty directory for one daemon or replica run.
fn fresh_dir(base: &Path, n: usize) -> std::io::Result<PathBuf> {
    let dir = base.join(format!("j{n}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

pub fn run(
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let io = |e: std::io::Error| format!("serve_journal: {e}");
    let work = out_dir.join(format!("serve-{}", std::process::id()));
    let mut dirs = 0usize;
    let mut next_dir = || {
        dirs += 1;
        fresh_dir(&work, dirs)
    };
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut calibration = Calibration::default();

    // Set-up: trace generation, stream synthesis, and daemon
    // construction (a daemon started on an empty stream, to its exit).
    // CPU time of this thread plus the daemon's.
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..SETUP_REPS {
        calibration.measure();
        let t0 = thread_cpu_s();
        streams = (0..STREAMS).map(|k| synthesize(seed, k, JOBS)).collect();
        gen.push(thread_cpu_s() - t0);
        let empty = run_daemon(bin, b"", &next_dir().map_err(io)?).map_err(io)?;
        setup.push(thread_cpu_s() - t0 + empty.cpu);
        attempted += 1;
        if let Err(e) = empty.exit {
            failures.push(format!("empty-stream daemon: {e}: {}", empty.stderr.trim()));
        }
    }
    let lines: usize = streams.iter().map(|s| s.lines.len()).sum();
    let jobs: usize = streams.iter().map(|s| s.jobs).sum();
    eprintln!("streams: {STREAMS}, {lines} lines, {jobs} jobs");
    let reference = check::combine(&streams.iter().map(|s| s.reference).collect::<Vec<_>>());
    eprintln!("pin: {}", check::pin_source("serve_journal", seed, &reference));
    if let Some(verdict) = check::check_pin("serve_journal", seed, &reference) {
        attempted += 1;
        failures.extend(verdict.err());
    }
    // Whatever the seed, stream 0 of the default seed must match its pin.
    attempted += 1;
    let canary = synthesize(crate::DEFAULT_SEED, 0, JOBS).reference;
    eprintln!("canary pin: {}", check::pin_source("serve_journal", crate::DEFAULT_SEED, &canary));
    if let Err(e) = check::check_canary("serve_journal", &canary) {
        failures.push(format!("serve_journal canary: {e}"));
    }

    // The run rotates over the streams in whole rounds, so every stream
    // is repeated equally often; timings are means over all repetitions.
    let n = streams.len();
    let mut daemon = Mean::default();
    let mut daemon_wall = Mean::default();
    let mut rss = Vec::new();
    let mut replay = Mean::default();
    // Per stream, each replay-driver run's invocation latencies.
    let mut invokes = vec![Vec::new(); n];
    let mut replica_time = Mean::default();
    let mut tracers = Vec::new();
    let mut replicas = Vec::new();
    let start = Instant::now();
    let mut rep = 0;
    while rep < 3 * n || rep % n != 0 || start.elapsed().as_secs_f64() < seconds {
        let (k, stream) = (rep % n, &streams[rep % n]);
        rep += 1;
        let run = run_daemon(bin, &stream.input, &next_dir().map_err(io)?).map_err(io)?;
        attempted += 1;
        match check_daemon(&run, stream) {
            Ok(()) => {
                daemon.add(run.cpu);
                daemon_wall.add(run.wall);
                rss.push(run.peak_rss_mb);
            }
            Err(e) => failures.push(e),
        }
        calibration.measure();
        attempted += 1;
        if traced {
            let tracer = SharedTracer::default();
            let dir = next_dir().map_err(io)?;
            let t = thread_cpu_s();
            match replica(stream, &dir, &tracer) {
                Ok(r) => {
                    replica_time.add(thread_cpu_s() - t);
                    replicas.push(r);
                    tracers.push(tracer);
                }
                Err(e) => failures.push(e),
            }
        } else {
            let t = thread_cpu_s();
            match replay_invocations(stream) {
                Ok((s, out)) => {
                    replay.add(thread_cpu_s() - t);
                    invokes[k].push(s);
                    if let Err(e) = check::check_stream(&stream.expected, &out) {
                        failures.push(format!("replay driver: {e}"));
                    }
                }
                Err(e) => failures.push(format!("replay driver: {e}")),
            }
        }
    }
    std::fs::remove_dir_all(&work).ok();
    eprintln!(
        "daemon: {rep} runs, mean {:.3} s CPU, {:.3} s wall",
        daemon.get(),
        daemon_wall.get()
    );

    let mut out = Outcome::new(attempted, failures);
    if traced {
        out.set("workloads.generate_s", median(&mut gen));
        // The replica is the daemon loop with every layer call in a span.
        out.set("bench.trace_overhead", replica_time.get() / daemon.get());
        let layers = crate::sim::merged_layer_stats(&tracers);
        crate::sim::sim_layer_metrics(&mut out, &tracers, &layers);
        crate::sim::dominant_layer_metrics(&mut out, DURABILITY, &layers, tracers.len());
        serve_layer_metrics(&mut out, &layers, tracers.len(), &replicas);
        if let Some(last) = tracers.last() {
            crate::write_spans(
                &last.lock().rec,
                &out_dir.join(format!("spans-serve_journal-seed{seed}.tsv")),
            );
        }
    } else {
        let scale = calibration.scale();
        eprintln!("calibration: {scale:.4} ({} reference runs)", calibration.samples.len());
        out.set("setup_s", scale * median(&mut setup));
        // The core path alone: the unjournaled replay driver's jobs per
        // second. The daemon's rate is `events_per_s`.
        // Per-stream means: every stream ran equally often.
        let per_stream = |total: usize| total as f64 / n as f64;
        out.set("jobs_per_s", per_stream(jobs) / (scale * replay.get()));
        // Lines per second of the daemon's own CPU time, user plus system,
        // calibrated like every other time. The time it spends waiting for
        // the disk to finish an fsync is not counted: it belongs to the
        // disk, whose latency drifts as the host's I/O load does.
        out.set("events_per_s", per_stream(lines) / (scale * daemon.get()));
        let mut samples: Vec<f64> = invokes.iter().flat_map(|r| per_invocation_median(r)).collect();
        eprintln!("invoke samples: {} invocations (replay driver)", samples.len());
        out.set("invoke_p50_ms", 1e3 * scale * percentile(&mut samples, 0.5));
        out.set("invoke_p99_ms", 1e3 * scale * percentile(&mut samples, 0.99));
        // Each stream has its own peak; every stream ran equally often.
        out.set("peak_rss_mb", rss.iter().sum::<f64>() / rss.len() as f64);
    }
    Ok(out)
}

/// The replica's designated layer: durability, journal appends and
/// snapshots together.
const DURABILITY: &[&str] = &["sched.durability.journal", "sched.durability.snapshot"];

/// The replica's durability, replay and emit layers, averaged over runs:
/// the durability share goes in the result, the rest to stderr.
fn serve_layer_metrics(
    out: &mut Outcome,
    layers: &BTreeMap<&'static str, LayerStats>,
    runs: usize,
    replicas: &[ReplicaRun],
) {
    let runs = runs.max(1) as f64;
    let busy = |n: &str| layers.get(n).map_or(0.0, |s| s.busy_ns as f64 / 1e9 / runs);
    let count = |n: &str| layers.get(n).map_or(0.0, |s| s.count as f64 / runs);
    let per_run = |f: fn(&ReplicaRun) -> u64| {
        replicas.iter().map(|r| f(r) as f64).sum::<f64>() / replicas.len().max(1) as f64
    };
    out.set(
        "sched.driver.self_s",
        layers.get("sched.replay.feed").map_or(0.0, |s| s.self_ns as f64 / 1e9 / runs),
    );
    let top = [
        "sched.replay.parse",
        "sched.replay.feed",
        "sched.durability.journal",
        "sched.durability.snapshot",
    ];
    let total: f64 = top.iter().map(|n| busy(n)).sum();
    for n in top {
        eprintln!(
            "replica layer {n}: {:.0} calls, {:.4} s, {:.1}% of layer time",
            count(n),
            busy(n),
            100.0 * busy(n) / total.max(1e-12)
        );
    }
    eprintln!(
        "replica: emit {:.4} s, journal {:.0} bytes, {:.0} snapshots of at most {} bytes",
        busy("sched.service.emit"),
        per_run(|r| r.journal_bytes),
        per_run(|r| r.snapshots),
        replicas.iter().map(|r| r.snapshot_bytes_max).max().unwrap_or(0)
    );
    let durability: f64 = DURABILITY.iter().map(|n| busy(n)).sum();
    out.set("bench.dominant_layer_share", durability / total.max(1e-12));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_synthesis_is_deterministic_per_seed() {
        let a = synthesize(11, 0, 200);
        let b = synthesize(11, 0, 200);
        assert_eq!(a.input, b.input);
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.lines.len(), 400, "one submit and one finish per job");
        let c = synthesize(12, 0, 200);
        assert_ne!(a.input, c.input, "another seed gives another stream");
        let d = synthesize(11, 1, 200);
        assert_ne!(a.input, d.input, "another stream of the same seed differs");
    }

    #[test]
    fn replay_driver_reproduces_the_reference_stream() {
        let s = synthesize(3, 0, 300);
        let (samples, out) = replay_invocations(&s).unwrap();
        assert!(!samples.is_empty());
        check::check_stream(&s.expected, &out).unwrap();
    }
}
