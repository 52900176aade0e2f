//! Process-level tests for the `serve` daemon (DESIGN.md §13): the
//! journaled decision stream matches the golden replay fixture whether
//! the input arrives a line at a time or as one large write, a
//! SIGTERM'd daemon recovers with `--recover` to a byte-identical
//! concatenated stream, live policy hot-swap is journaled and
//! deterministic, and `snapshot inspect` reports snapshot facts with
//! typed exit codes.

use bbsched_sched::durability::Journal;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn ci_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bbsched_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bbsched() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bbsched"))
}

/// The fixture scenario flags shared with `ci/replay_expected.jsonl`.
const SCENARIO: [&str; 6] = ["--machine", "cori", "--scale", "0.05", "--policy", "Baseline"];

fn fixture_events() -> String {
    std::fs::read_to_string(ci_dir().join("replay_events.jsonl")).unwrap()
}

fn fixture_expected() -> String {
    std::fs::read_to_string(ci_dir().join("replay_expected.jsonl")).unwrap()
}

/// Snapshot files in a journal directory, oldest first.
fn snapshots(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".ckpt"))
        })
        .collect();
    snaps.sort();
    snaps
}

/// The records of a journal directory's WAL.
fn journal_records(dir: &Path) -> Vec<String> {
    let (_, recovery) = Journal::open(&dir.join("events.wal")).unwrap();
    recovery.records.into_iter().map(|r| String::from_utf8(r).unwrap()).collect()
}

/// Snapshot positions in a journal directory, oldest first.
fn snapshot_positions(dir: &Path) -> Vec<u64> {
    snapshots(dir)
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name["snap-".len()..name.len() - ".ckpt".len()].parse().unwrap()
        })
        .collect()
}

/// Runs a journaling daemon over `input`, delivered to its stdin in
/// one write, and returns its output.
fn serve_one_write(input: &[u8], journal: &Path, snapshot_every: &str) -> std::process::Output {
    let mut child = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--journal", journal.to_str().unwrap(), "--snapshot-every", snapshot_every])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    let mut stdin = child.stdin.take().unwrap();
    let input = input.to_vec();
    // A daemon that exits early closes the pipe; its exit code reports
    // that, so the writer ignores the failed write.
    let writer = std::thread::spawn(move || stdin.write_all(&input).ok());
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();
    out
}

/// A journaling daemon fed the fixture file emits exactly the golden
/// replay stream, periodic stats lines on stderr, and inspectable
/// snapshots.
#[test]
fn serve_over_file_matches_the_golden_stream() {
    let dir = tempdir("golden");
    let events = ci_dir().join("replay_events.jsonl");
    let out = bbsched()
        .args(["serve", "--events", events.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--journal", dir.to_str().unwrap(), "--snapshot-every", "40", "--stats-every", "25"])
        .output()
        .expect("binary must spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), fixture_expected(), "decision stream");
    assert!(stderr.contains("served 200 lines (200 job events)"), "{stderr}");
    assert!(stderr.contains("{\"type\":\"stats\","), "periodic stats lines: {stderr}");

    let snaps = snapshots(&dir);
    assert!(!snaps.is_empty(), "rolling snapshots were written");
    assert!(snaps.len() <= 3, "default retention keeps at most 3, got {}", snaps.len());
    assert!(dir.join("events.wal").exists(), "journal was written");

    let inspect = bbsched()
        .args(["snapshot", "inspect", snaps.last().unwrap().to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(inspect.status.code(), Some(0));
    let report = String::from_utf8_lossy(&inspect.stdout);
    for needle in ["daemon checkpoint", "binary", "schema version: 1", "Baseline"] {
        assert!(report.contains(needle), "inspect output missing '{needle}':\n{report}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The whole fixture in one pipe write arrives as multi-line read
/// groups; the daemon still emits the golden stream, journals every
/// line in order, and writes no snapshot past the journal.
#[test]
fn one_write_backlog_is_golden_and_fully_journaled() {
    let dir = tempdir("onewrite");
    let out = serve_one_write(fixture_events().as_bytes(), &dir, "20");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), fixture_expected(), "decision stream");
    assert!(stderr.contains("served 200 lines (200 job events)"), "{stderr}");

    let events = fixture_events();
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(journal_records(&dir), lines, "the journal holds every line, in order");
    assert_eq!(snapshot_positions(&dir), vec![160, 180, 200], "rolling snapshots, none past 200");

    // A recovery from the completed directory has nothing left to replay.
    let events_path = ci_dir().join("replay_events.jsonl");
    let rec = bbsched()
        .args(["serve", "--events", events_path.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--recover", dir.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    let rec_err = String::from_utf8_lossy(&rec.stderr);
    assert!(rec.status.success(), "{rec_err}");
    assert!(
        rec_err.contains(
            "snapshot at line 200, replaying 0 journal records, resuming input at \
                          line 200"
        ),
        "{rec_err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed line in the middle of one large write: the daemon exits 3
/// naming it, and leaves the stdout, journal and snapshots that the
/// earlier line-at-a-time daemon left on the same input: the decisions
/// the first 100 lines imply (the golden stream's first 83 lines), those
/// 100 lines journaled, snapshots up to position 100.
#[test]
fn malformed_line_mid_write_leaves_the_per_line_outcome() {
    let events = fixture_events();
    let lines: Vec<&str> = events.lines().collect();
    let mut input = String::new();
    for (i, line) in lines[..150].iter().enumerate() {
        if i == 100 {
            input.push_str("{\"type\":\"submit\",\"job\":{\"id\":\"oops\"}}\n");
        }
        input.push_str(line);
        input.push('\n');
    }
    let dir = tempdir("malformed");
    let out = serve_one_write(input.as_bytes(), &dir, "20");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("input line 101:"), "the error names its line: {stderr}");

    let expected: String = fixture_expected().lines().take(83).map(|l| format!("{l}\n")).collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "decisions of lines 1..=100");
    assert_eq!(journal_records(&dir), lines[..100], "lines 1..=100 journaled");
    assert_eq!(snapshot_positions(&dir), vec![60, 80, 100]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Line endings as `BufRead::lines` reads them: CRLF lines lose the CR,
/// blank lines are skipped, and a last line without a newline is still
/// consumed.
#[test]
fn crlf_blank_and_unterminated_lines_are_consumed_like_lines() {
    let events = fixture_events();
    let lines: Vec<&str> = events.lines().collect();
    let mut input = String::new();
    for (i, line) in lines.iter().enumerate() {
        input.push_str(line);
        input.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
        if i % 50 == 7 {
            input.push_str("\n  \r\n");
        }
    }
    let input = input.trim_end_matches(['\r', '\n']);
    let dir = tempdir("endings");
    let out = serve_one_write(input.as_bytes(), &dir, "40");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed: {stderr}");
    assert!(stderr.contains("served 200 lines (200 job events)"), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), fixture_expected(), "decision stream");
    assert_eq!(journal_records(&dir), lines, "journaled without line endings");
    std::fs::remove_dir_all(&dir).ok();
}

/// A line written alone is a group of one: its decisions reach stdout
/// while the daemon still waits for input, not at end of stream.
#[test]
fn interactive_lines_release_decisions_before_eof() {
    let dir = tempdir("interactive");
    let mut child = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--journal", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary must spawn");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            if tx.send(line.unwrap()).is_err() {
                break;
            }
        }
    });
    let events = fixture_events();
    for line in events.lines().take(100) {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
    }
    // The first 100 lines imply the golden stream's first 83 decisions;
    // all of them arrive with stdin still open.
    let expected: Vec<String> = fixture_expected().lines().take(83).map(String::from).collect();
    let mut got = Vec::new();
    while got.len() < expected.len() {
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(line) => got.push(line),
            Err(e) => panic!("only {} of {} decisions before EOF: {e}", got.len(), expected.len()),
        }
    }
    assert_eq!(got, expected);
    // The 83rd decision is caused by line 100 (99 lines imply only 82),
    // and a decision is released only after its line is journaled, so
    // the WAL already holds all 100 records.
    assert_eq!(journal_records(&dir).len(), 100);
    drop(stdin);
    assert!(child.wait().unwrap().success());
    reader.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-recover is lossless: a daemon reading stdin is SIGTERM'd
/// mid-stream (graceful drain: final snapshot, no flush), then a second
/// process recovers the journal directory and resumes from the fixture
/// file. head-stdout + tail-stdout must equal the golden stream byte
/// for byte, wherever the signal lands.
#[test]
fn sigterm_drain_then_recover_is_byte_identical() {
    let dir = tempdir("term");
    let events = fixture_events();
    let head_lines: Vec<&str> = events.lines().take(150).collect();

    let mut child = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--journal", dir.to_str().unwrap(), "--snapshot-every", "20"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    let mut stdin = child.stdin.take().unwrap();
    for line in &head_lines {
        writeln!(stdin, "{line}").unwrap();
    }
    stdin.flush().unwrap();
    // Let the daemon drain the pipe, then signal it; only then close
    // stdin so a daemon parked in read(2) reaches its EOF term check.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill must run");
    assert!(kill.success());
    std::thread::sleep(std::time::Duration::from_millis(200));
    drop(stdin);
    let head = child.wait_with_output().unwrap();
    let head_err = String::from_utf8_lossy(&head.stderr);
    assert!(head.status.success(), "head exited with {:?}: {head_err}", head.status.code());
    assert!(
        head_err.contains("sigterm: drained at line") && head_err.contains("final snapshot"),
        "{head_err}"
    );

    let events_path = ci_dir().join("replay_events.jsonl");
    let tail = bbsched()
        .args(["serve", "--events", events_path.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--recover", dir.to_str().unwrap(), "--snapshot-every", "20"])
        .output()
        .expect("binary must spawn");
    let tail_err = String::from_utf8_lossy(&tail.stderr);
    assert!(tail.status.success(), "recovery failed: {tail_err}");
    assert!(tail_err.contains("recovered: snapshot at line"), "{tail_err}");

    let mut combined = String::from_utf8(head.stdout).unwrap();
    combined.push_str(&String::from_utf8(tail.stdout).unwrap());
    assert_eq!(combined, fixture_expected(), "head + recovered tail diverge from golden stream");
    std::fs::remove_dir_all(&dir).ok();
}

/// A live `set-policy` control event swaps the policy deterministically
/// (two independent runs agree byte for byte), is journaled, announced
/// on stderr, and recorded in subsequent snapshots.
#[test]
fn policy_hot_swap_is_journaled_and_deterministic() {
    let events = fixture_events();
    let mut stream = String::new();
    for (i, line) in events.lines().enumerate() {
        if i == 100 {
            stream.push_str("{\"type\":\"set-policy\",\"name\":\"Weighted\"}\n");
        }
        stream.push_str(line);
        stream.push('\n');
    }
    let dir_a = tempdir("swap_a");
    let dir_b = tempdir("swap_b");
    let input = dir_a.join("input.jsonl");
    std::fs::write(&input, &stream).unwrap();

    let run = |journal: &std::path::Path| {
        let out = bbsched()
            .args(["serve", "--events", input.to_str().unwrap()])
            .args(SCENARIO)
            .args(["--journal", journal.to_str().unwrap(), "--snapshot-every", "25"])
            .output()
            .expect("binary must spawn");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        assert!(stderr.contains("policy hot-swap at line 101: Baseline -> Weighted"), "{stderr}");
        assert!(stderr.contains("served 201 lines (200 job events)"), "{stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let out_a = run(&dir_a);
    let out_b = run(&dir_b);
    assert_eq!(out_a, out_b, "hot-swap runs must be deterministic");

    // The newest snapshot (the EOF pre-flush checkpoint) carries the
    // swapped policy.
    let snaps = snapshots(&dir_a);
    let inspect = bbsched()
        .args(["snapshot", "inspect", snaps.last().unwrap().to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(inspect.status.code(), Some(0));
    let report = String::from_utf8_lossy(&inspect.stdout);
    assert!(report.contains("Weighted"), "snapshot records the swapped policy:\n{report}");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Flag misuse is a usage error (2); unrecoverable state is an input
/// error (3); a non-recovery start refuses a dirty journal directory.
#[test]
fn serve_errors_have_the_right_exit_codes() {
    let out = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--snapshot-every", "5"])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "--snapshot-every without --journal is usage");

    let empty = tempdir("empty");
    let out = bbsched()
        .args(["serve", "--events", "-"])
        .args(SCENARIO)
        .args(["--recover", empty.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(3), "--recover with no snapshot is an input error");

    // A completed run's directory cannot be silently reused without
    // --recover.
    let dirty = tempdir("dirty");
    let events = ci_dir().join("replay_events.jsonl");
    let out = bbsched()
        .args(["serve", "--events", events.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--journal", dirty.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert!(out.status.success());
    let out = bbsched()
        .args(["serve", "--events", events.to_str().unwrap()])
        .args(SCENARIO)
        .args(["--journal", dirty.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "dirty journal dir without --recover is usage");
    std::fs::remove_dir_all(&empty).ok();
    std::fs::remove_dir_all(&dirty).ok();
}

/// `snapshot inspect` exit codes: 0 on a readable snapshot (either
/// encoding), 3 on garbage, 2 on usage mistakes.
#[test]
fn snapshot_inspect_exit_codes() {
    let dir = tempdir("inspect");
    let garbage = dir.join("garbage.ckpt");
    std::fs::write(&garbage, b"BBSNAP\x01this is not a snapshot").unwrap();
    let out = bbsched()
        .args(["snapshot", "inspect", garbage.to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(3), "corrupt snapshot is an input error");

    let out = bbsched().args(["snapshot"]).output().expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "missing verb is usage");
    let out = bbsched().args(["snapshot", "frobnicate", "x"]).output().expect("binary must spawn");
    assert_eq!(out.status.code(), Some(2), "unknown verb is usage");
    let out = bbsched()
        .args(["snapshot", "inspect", dir.join("nope.ckpt").to_str().unwrap()])
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(3), "missing file is an input error");
    std::fs::remove_dir_all(&dir).ok();
}
