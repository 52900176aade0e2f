//! The repository benchmark: one workload per run, end-to-end metrics
//! (`--trace 0`) or per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_bbsched --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object: the output-check verdict
//! (`correct`, `attempted`, `failed`) and every metric with its unit.
//! Progress, pins and failures go to stderr. See `README.md` for the
//! workloads, the metrics and the layer each one belongs to.

mod check;
mod layers;
mod serve;
mod sim;
mod spans;
mod stats;

use bbsched_policies::GaParams;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The seed results are quoted at, and the seed kept back for confirming
/// a claim on inputs not used while the claim was developed.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 1009;

/// The GA seed every workload, the daemon and stream synthesis share.
pub const GA_SEED: u64 = 7;

/// GA parameters of §4.3 (G=500, P=20) on one thread, with the shared
/// GA seed.
pub fn ga_params() -> GaParams {
    GaParams { base_seed: GA_SEED, threads: 1, ..GaParams::default() }
}

/// The generator seed of trace `k` of a run at `seed` (SplitMix64).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub const WORKLOADS: [&str; 4] =
    ["sim_bbsched", "sim_conservative_wfp", "sim_easy_wfp", "serve_journal"];

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("invoke_p50_ms", "ms"),
    ("invoke_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
];

/// Per-layer metrics, reported by the traced run. Every workload runs
/// every one of these layers, so none reads 0; the `bench.dominant_*`
/// metrics are of the layer the workload exists to stress (its
/// durability layer for `serve_journal`).
const PER_LAYER: [(&str, &str); 21] = [
    ("policies.select_busy_s", "s"),
    ("policies.select_p99_us", "us"),
    ("policies.window_len_mean", "count"),
    ("policies.started_per_offered", "ratio"),
    ("sched.backfill.pass_busy_s", "s"),
    ("sched.backfill.pass_p99_us", "us"),
    ("sched.backfill.starts", "count"),
    ("sched.backfill.reservations", "count"),
    ("sched.queue.order_window_busy_s", "s"),
    ("sched.queue.order_window_p99_us", "us"),
    ("sched.queue.depth_mean", "count"),
    ("sched.service.invocations", "count"),
    ("sched.service.invoke_busy_s", "s"),
    ("sched.service.invoke_self_s", "s"),
    ("sched.service.cleanup_busy_s", "s"),
    ("sched.driver.self_s", "s"),
    ("workloads.generate_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.dominant_layer_busy_s", "s"),
    ("bench.dominant_layer_p99_us", "us"),
    ("bench.dominant_layer_share", "ratio"),
];

/// What a workload run measured and how its output checks went.
pub struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(attempted: u64, failures: Vec<String>) -> Self {
        Self { attempted, failures, metrics: BTreeMap::new() }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one untraced pass of a simulator workload and print its
    /// report (the run's own worker processes).
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        argv.iter().position(|a| a == key).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let workload = get("--workload").ok_or("--workload NAME is required")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    let seed =
        get("--seed").map_or(Ok(DEFAULT_SEED), str::parse).map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 =
        get("--seconds").map_or(Ok(10.0), str::parse).map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let worker = argv.iter().any(|a| a == "--worker");
    Ok(Args { workload, seed, seconds, trace, worker })
}

/// The repository root: this package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where build output and run artefacts go: `CARGO_TARGET_DIR`, else
/// `.bench_build` under the repository root.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join(".bench_build"))
}

/// Builds the release `bbsched` binary from the repository workspace
/// (a no-op when it is up to date) and returns its path.
fn build_daemon(target: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "bbsched-cli",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building bbsched failed ({status})"));
    }
    Ok(target.join("release").join("bbsched"))
}

/// Writes a traced run's spans; a failure costs the file, not the run.
pub fn write_spans(rec: &spans::SpanRecorder, path: &Path) {
    match rec.write_tsv(path) {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.worker {
        let Some(spec) = sim::SPECS.iter().find(|s| s.name == args.workload) else {
            eprintln!("error: --worker runs simulator workloads only");
            return ExitCode::from(2);
        };
        let report = sim::worker(spec, args.seed);
        println!("{}", serde_json::to_string(&report).expect("reports always serialize"));
        return ExitCode::SUCCESS;
    }
    let target = target_dir();
    let out_dir = target.join("perfbench");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let bin = match build_daemon(&target) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    let outcome = match args.workload.as_str() {
        "serve_journal" => serve::run(&bin, args.seed, args.seconds, args.trace, &out_dir),
        name => {
            let spec =
                sim::SPECS.iter().find(|s| s.name == name).expect("workload names are checked");
            Ok(sim::run(spec, args.seed, args.seconds, args.trace, &out_dir))
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let failed = outcome.failures.len() as u64;
    let attempted = outcome.attempted.max(1);
    outcome.set("pass_rate", 1.0 - failed as f64 / attempted as f64);
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    let mut correct = failed == 0;
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let v = outcome.get(name);
        if !v.is_finite() {
            eprintln!("check failed: metric {name} is not finite");
            correct = false;
        } else if v <= 0.0 {
            eprintln!("warning: metric {name} is {v}, not positive");
        }
        eprintln!("{name:>38} {v:>16.6} {unit}");
        metrics
            .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(v)));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
