//! Process-level exit-code regression tests: scripts depend on the
//! `CliError` exit-code map (1 = run failure, 2 = usage, 3 = bad input,
//! 4 = cannot write output), so it is pinned here against the real
//! binary.

use std::process::Command;

fn bbsched(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bbsched")).args(args).output().expect("binary must spawn")
}

#[test]
fn unknown_command_exits_2() {
    let out = bbsched(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn unknown_option_exits_2() {
    let out = bbsched(&["stats", "--trase", "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_trace_file_exits_3() {
    let out = bbsched(&["stats", "--trace", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load trace"));
}

#[test]
fn malformed_trace_exits_3() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.jsonl");
    std::fs::write(&path, "this is not a job record\n{nor is this}\n").unwrap();
    let out = bbsched(&["simulate", "--trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "malformed trace must be an input error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_event_stream_exits_3() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_ev_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad_events.jsonl");
    std::fs::write(&path, "{\"type\":\"launch\"}\n").unwrap();
    let out = bbsched(&["replay", "--events", path.to_str().unwrap(), "--machine", "cori"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_submitted_job_exits_3() {
    // A submit whose job fails `Job::validate` is malformed input: zero
    // runtime, and a walltime that overflows to infinity, must not start.
    let dir = std::env::temp_dir().join(format!("bbsched_exit_job_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let valid = "{\"type\":\"submit\",\"job\":{\"id\":0,\"submit\":0.0,\"nodes\":1,\"runtime\":50.0,\"walltime\":100.0,\"bb_gb\":0.0,\"ssd_gb_per_node\":0.0,\"deps\":[],\"extra\":[]}}";
    for (name, runtime, walltime) in
        [("zero_runtime", "0.0", "100.0"), ("huge_walltime", "50.0", "1e400")]
    {
        let bad = format!(
            "{{\"type\":\"submit\",\"job\":{{\"id\":1,\"submit\":0.0,\"nodes\":1,\"runtime\":{runtime},\"walltime\":{walltime},\"bb_gb\":0.0,\"ssd_gb_per_node\":0.0,\"deps\":[],\"extra\":[]}}}}"
        );
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, format!("{valid}\n{bad}\n")).unwrap();
        let out = bbsched(&[
            "replay",
            "--events",
            path.to_str().unwrap(),
            "--machine",
            "cori",
            "--policy",
            "Baseline",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{name}: stderr: {stderr}");
        assert!(stderr.contains("line 2"), "{name}: the error names the line: {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"start\""),
            "{name}: nothing starts"
        );
        // The daemon shares the parse, so it treats the line the same way.
        let out = bbsched(&["serve", "--events", path.to_str().unwrap(), "--machine", "cori"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "serve {name}: stderr: {stderr}");
        assert!(stderr.contains("line 2"), "serve {name}: the error names the line: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A wire submit line for a 50 s job.
fn submit_line(id: u64, submit: f64, nodes: u64, deps: &str) -> String {
    format!(
        "{{\"type\":\"submit\",\"job\":{{\"id\":{id},\"submit\":{submit},\"nodes\":{nodes},\"runtime\":50.0,\"walltime\":100.0,\"bb_gb\":0.0,\"ssd_gb_per_node\":0.0,\"deps\":[{deps}],\"extra\":[]}}}}"
    )
}

/// Runs `replay` and `serve` over the same event file; both must exit 0
/// and print `warning` on stderr. Returns both stderrs.
fn replay_and_serve_warn(tag: &str, events: &str, warning: &str) -> [String; 2] {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    std::fs::write(&path, events).unwrap();
    let stderrs = ["replay", "serve"].map(|cmd| {
        let out = bbsched(&[
            cmd,
            "--events",
            path.to_str().unwrap(),
            "--machine",
            "cori",
            "--scale",
            "0.05",
            "--policy",
            "Baseline",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{cmd}: the exit code is unchanged: {stderr}");
        assert!(stderr.contains(warning), "{cmd}: stderr names it: {stderr}");
        stderr
    });
    std::fs::remove_dir_all(&dir).ok();
    stderrs
}

#[test]
fn unknown_dependency_is_named_at_end_of_stream() {
    // Job 1 depends on job 42, which never arrives: it can never start.
    let events = format!(
        "{}\n{}\n{{\"type\":\"finish\",\"id\":0,\"time\":50.0}}\n",
        submit_line(0, 0.0, 1, ""),
        submit_line(1, 1.0, 1, "0,42"),
    );
    for stderr in replay_and_serve_warn(
        "deps",
        &events,
        "warning: job 1 waits on dependency 42, which was never submitted",
    ) {
        assert!(stderr.contains("left 1 waiting"), "{stderr}");
        assert_eq!(stderr.matches("warning:").count(), 1, "only the missing id: {stderr}");
    }
}

#[test]
fn capacity_clamped_submit_is_named() {
    // 10^8 nodes exceed any machine: the job is clamped, not rejected.
    let events =
        format!("{}\n{}\n", submit_line(0, 0.0, 1, ""), submit_line(7, 1.0, 100_000_000, ""));
    let [replay, serve] = replay_and_serve_warn(
        "clamp",
        &events,
        "job 7 demand exceeds machine capacity; clamped to fit",
    );
    assert!(replay.contains("line 2: job 7"), "replay names the line: {replay}");
    assert!(serve.contains("input line 2: job 7"), "serve names the line: {serve}");
    for stderr in [replay, serve] {
        assert!(stderr.contains("(1 clamped)"), "{stderr}");
        assert_eq!(stderr.matches("warning:").count(), 1, "only job 7: {stderr}");
    }
}

#[test]
fn time_regressing_event_stream_exits_1() {
    let dir = std::env::temp_dir().join(format!("bbsched_exit_tr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("regress.jsonl");
    // A finish for a job that was never submitted is a replay (run)
    // failure, not a parse failure.
    std::fs::write(&path, "{\"type\":\"finish\",\"id\":7,\"time\":10.0}\n").unwrap();
    let out = bbsched(&["replay", "--events", path.to_str().unwrap(), "--machine", "cori"]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_output_exits_4() {
    let out = bbsched(&[
        "generate",
        "--machine",
        "cori",
        "--jobs",
        "5",
        "--scale",
        "0.02",
        "--out",
        "/nonexistent_dir/t.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn replay_streams_decisions_for_a_tiny_feed() {
    // End-to-end smoke: submit two small jobs, finish one, check the
    // decision stream on stdout and the summary on stderr.
    let events = "\
{\"type\":\"submit\",\"job\":{\"id\":0,\"submit\":0.0,\"nodes\":1,\"runtime\":50.0,\"walltime\":100.0,\"bb_gb\":0.0,\"ssd_gb_per_node\":0.0,\"deps\":[],\"extra\":[]}}
{\"type\":\"submit\",\"job\":{\"id\":1,\"submit\":1.0,\"nodes\":1,\"runtime\":50.0,\"walltime\":100.0,\"bb_gb\":0.0,\"ssd_gb_per_node\":0.0,\"deps\":[],\"extra\":[]}}
{\"type\":\"finish\",\"id\":0,\"time\":50.0}
{\"type\":\"finish\",\"id\":1,\"time\":51.0}
";
    let dir = std::env::temp_dir().join(format!("bbsched_exit_ok_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    std::fs::write(&path, events).unwrap();
    let out = bbsched(&[
        "replay",
        "--events",
        path.to_str().unwrap(),
        "--machine",
        "cori",
        "--policy",
        "Baseline",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let starts: Vec<&str> = stdout.lines().filter(|l| l.contains("\"start\"")).collect();
    assert_eq!(starts.len(), 2, "both jobs must start: {stdout}");
    assert!(stdout.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replayed 4 events"), "summary on stderr: {stderr}");
    assert!(stderr.contains("2 jobs"), "summary counts jobs: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
