//! `cli serve` — the long-running scheduler daemon.
//!
//! Reads job events from stdin or a path, emits one JSON decision per
//! line to stdout, and layers the `bbsched_sched` durability module over
//! the online replay driver. Input is consumed in *read groups*: the
//! complete lines one fill of the reader's buffer delivers. A lone
//! interactive line is a group of one; a backlog arrives many lines to
//! a group. When a group is spent the journal is fsync'd once, then the
//! group's decisions reach stdout in one write and one flush — so a
//! downstream consumer sees each decision as soon as the input that
//! caused it is durable, and never before (DESIGN.md §13):
//!
//! * `--journal DIR` — every consumed input line is appended to a
//!   write-ahead journal in `DIR/events.wal` (fsync'd once per read
//!   group), and rolling snapshots land in the same directory. A
//!   snapshot, a policy swap, SIGTERM, end of input and a fatal error
//!   each commit the open group first, so no snapshot covers a record
//!   that is not yet durable;
//! * `--recover DIR` — crash recovery: newest valid snapshot + journal
//!   tail replay, then the live stream continues (the first
//!   already-journaled lines of `--events` are skipped);
//! * `{"type":"set-policy","name":…}` — live policy hot-swap: the
//!   daemon snapshots, restores under the new policy (the PR 7 what-if
//!   primitive), and journals the control line so recovery replays the
//!   swap deterministically;
//! * SIGTERM — graceful drain: a final snapshot at the exact consumed
//!   position, no final flush, exit 0. A `--recover` restart then owns
//!   every remaining decision, so the concatenated decision streams of
//!   the two processes equal the uninterrupted run byte for byte.
//!
//! Recovery *re-derives* decisions: replaying the journal tail emits
//! the decisions it implies. After a graceful SIGTERM the tail is empty
//! (the final snapshot sits at the journal head position) and the
//! concatenation is exact; after a hard kill the tail re-emits
//! decisions made since the last snapshot, and consumers resume from
//! the `recovered:` stderr marker (DESIGN.md §13).

use crate::args::Args;
use crate::commands::{
    clamp_warning, parse_machine, parse_policy, parse_threads, sim_config, warn_unknown_deps,
    DecisionStream, SCHED_ARGS,
};
use crate::error::CliError;
use bbsched_metrics::LiveStatsLines;
use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::durability::{Driver, Encoding, Journal, SnapshotStore};
use bbsched_sched::{JobEvent, ReplaySnapshot, Replayer, SchedConfig, SchedObserver};
use bbsched_workloads::SystemConfig;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::rc::Rc;

/// A `cli serve` checkpoint: the replayer's state plus the policy
/// identity to rebuild it under, and the daemon's input position
/// (consumed journaled lines — job events *and* control lines, which
/// the replayer's own `events_fed` does not count).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct DaemonCheckpoint {
    replay: ReplaySnapshot,
    policy: PolicyKind,
    ga: GaParams,
    consumed: u64,
}

/// [`Driver`] view of the daemon: position is the consumed-line
/// counter, so snapshot names line up with journal record counts.
struct DaemonDriver<'a, 'o> {
    replayer: &'a Replayer<'o>,
    policy: PolicyKind,
    ga: GaParams,
    consumed: u64,
}

impl Driver for DaemonDriver<'_, '_> {
    type Snapshot = DaemonCheckpoint;

    fn snapshot(&self) -> DaemonCheckpoint {
        DaemonCheckpoint {
            replay: self.replayer.snapshot(),
            policy: self.policy,
            ga: self.ga,
            consumed: self.consumed,
        }
    }

    fn position(&self) -> u64 {
        self.consumed
    }
}

#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM flag handler (no `libc` dependency: the
    /// workspace allows none, and `signal(2)` is all the drain needs).
    pub(super) fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub(super) fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term {
    pub(super) fn install() {}

    pub(super) fn requested() -> bool {
        false
    }
}

/// One input line, classified: a control line or a wire job event.
enum ServeLine {
    Event(JobEvent),
    SetPolicy(PolicyKind),
}

fn classify_line(line: &str) -> Result<ServeLine, String> {
    let value = serde_json::value_from_slice(line.as_bytes()).map_err(|e| e.to_string())?;
    let is_set_policy = value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "type"))
        .and_then(|(_, v)| v.as_str())
        .is_some_and(|t| t == "set-policy");
    if is_set_policy {
        let name = value
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "name"))
            .and_then(|(_, v)| v.as_str())
            .ok_or("set-policy needs a string 'name'")?;
        Ok(ServeLine::SetPolicy(parse_policy(name)?))
    } else {
        Ok(ServeLine::Event(JobEvent::parse(line)?))
    }
}

/// The durability side of the daemon: the WAL and the rolling store,
/// both living in the `--journal`/`--recover` directory.
struct Durable {
    journal: Journal,
    store: SnapshotStore,
    snapshot_every: u64,
    encoding: Encoding,
}

impl Durable {
    fn save(&self, driver: &DaemonDriver<'_, '_>) -> Result<(), CliError> {
        // The recovery invariant: a snapshot at position p is written
        // only once journal record p is durable.
        assert!(
            driver.position() <= self.journal.synced_records(),
            "snapshot at {} outruns the synced journal ({} records)",
            driver.position(),
            self.journal.synced_records()
        );
        self.store
            .save(driver.position(), &driver.snapshot(), self.encoding)
            .map_err(|e| CliError::Output(format!("cannot write snapshot: {e}")))?;
        Ok(())
    }
}

/// Decision bytes held in process until the journal records behind them
/// are durable: the daemon's [`DecisionStream`] writes here, and
/// [`GroupCommit::commit`] releases them to stdout.
#[derive(Clone, Default)]
struct HeldDecisions(Rc<RefCell<Vec<u8>>>);

impl Write for HeldDecisions {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The daemon's commit point: the journal (when journaling) and the
/// decisions held behind it.
///
/// Dropping it — an error return or a panic — commits too, releasing
/// the held decisions only if the sync succeeded, so a failed run
/// leaves the stdout and journal that syncing per line would.
struct GroupCommit<W: Write> {
    durable: Option<Durable>,
    held: HeldDecisions,
    out: W,
    /// The first stdout failure; later releases are dropped.
    out_error: Option<io::Error>,
}

impl<W: Write> GroupCommit<W> {
    /// Journals one consumed line (not yet durable).
    fn append(&mut self, line: &str) -> Result<(), CliError> {
        if let Some(d) = &mut self.durable {
            d.journal
                .append(line.as_bytes())
                .map_err(|e| CliError::Output(format!("cannot journal event: {e}")))?;
        }
        Ok(())
    }

    /// Makes every appended record durable with one fsync, then writes
    /// the held decisions to stdout with one write and one flush.
    fn commit(&mut self) -> Result<(), CliError> {
        if let Some(d) = &mut self.durable {
            if let Err(e) = d.journal.sync() {
                // Records that may not be durable never get their
                // decisions released, not even by a retried sync.
                self.held.0.borrow_mut().clear();
                return Err(CliError::Output(format!("cannot journal event: {e}")));
            }
        }
        let mut held = self.held.0.borrow_mut();
        if !held.is_empty() {
            if self.out_error.is_none() {
                if let Err(e) = self.out.write_all(&held).and_then(|()| self.out.flush()) {
                    self.out_error = Some(e);
                }
            }
            held.clear();
        }
        Ok(())
    }

    /// Commits, then writes a snapshot at the driver's position.
    fn save(&mut self, driver: &DaemonDriver<'_, '_>) -> Result<(), CliError> {
        self.commit()?;
        match &self.durable {
            Some(d) => d.save(driver),
            None => Ok(()),
        }
    }

    fn snapshot_due(&self, consumed: u64) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|d| d.snapshot_every > 0 && consumed.is_multiple_of(d.snapshot_every))
    }
}

impl<W: Write> Drop for GroupCommit<W> {
    fn drop(&mut self) {
        self.commit().ok();
    }
}

/// Splits the input into read groups: the complete lines one
/// `fill_buf` delivers. A partial trailing line carries over to the
/// next read. Lines end as `BufRead::lines` ends them: at `\n`, with
/// one `\r` before it dropped; the final line needs no newline.
struct GroupReader {
    reader: Box<dyn BufRead>,
    /// The current group's unconsumed lines, oldest first.
    lines: VecDeque<Vec<u8>>,
    /// A line whose newline has not been read yet.
    partial: Vec<u8>,
}

impl GroupReader {
    fn new(reader: Box<dyn BufRead>) -> Self {
        Self { reader, lines: VecDeque::new(), partial: Vec::new() }
    }

    /// The next line of the current group, `None` once it is spent.
    fn next_line(&mut self) -> Option<Vec<u8>> {
        self.lines.pop_front()
    }

    /// Reads the next group (it may hold no complete line); `false` at
    /// end of input.
    fn read_group(&mut self) -> io::Result<bool> {
        let buf = match self.reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(true),
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            if self.partial.is_empty() {
                return Ok(false);
            }
            self.lines.push_back(std::mem::take(&mut self.partial));
            return Ok(true);
        }
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let mut line = std::mem::take(&mut self.partial);
            line.extend_from_slice(&rest[..nl]);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            self.lines.push_back(line);
            rest = &rest[nl + 1..];
        }
        self.partial.extend_from_slice(rest);
        let filled = buf.len();
        self.reader.consume(filled);
        Ok(true)
    }
}

/// Why the inner segment loop returned control.
enum SegmentEnd {
    /// Hot-swap to this policy from this snapshot.
    Swap(PolicyKind, Box<ReplaySnapshot>),
    /// Input exhausted: run the final flush and summarize.
    Eof,
    /// SIGTERM: final snapshot, no flush.
    Term,
}

/// `cli serve` entry point.
pub(crate) fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut known = vec![
        "events",
        "machine",
        "scale",
        "policy",
        "gens",
        "seed",
        "threads",
        "journal",
        "recover",
        "snapshot-every",
        "snapshot-retain",
        "snapshot-format",
        "stats-every",
    ];
    known.extend_from_slice(SCHED_ARGS);
    args.check_known(&known)?;

    let snapshot_every: u64 = args.get_parsed("snapshot-every", 0u64)?;
    let retain: usize = args.get_parsed("snapshot-retain", 3usize)?;
    let encoding: Encoding =
        args.get_or("snapshot-format", "binary").parse().map_err(CliError::Usage)?;
    let stats_every: u64 = args.get_parsed("stats-every", 0u64)?;
    let recover_dir = args.get("recover");
    // --recover implies journaling into the same directory.
    let journal_dir = args.get("journal").or(recover_dir);
    if args.get("journal").is_some() && recover_dir.is_some_and(|r| Some(r) != args.get("journal"))
    {
        return Err(CliError::Usage(
            "--journal and --recover must name the same directory".to_string(),
        ));
    }
    if snapshot_every > 0 && journal_dir.is_none() {
        return Err(CliError::Usage("--snapshot-every needs --journal DIR".to_string()));
    }

    term::install();

    let durable = match journal_dir {
        Some(dir) => {
            let store = SnapshotStore::open(dir, retain)
                .map_err(|e| CliError::Output(format!("cannot open '{dir}': {e}")))?;
            let (journal, recovery) = Journal::open(&Path::new(dir).join("events.wal"))
                .map_err(|e| CliError::Input(format!("cannot open journal in '{dir}': {e}")))?;
            if recovery.dropped_bytes > 0 {
                eprintln!(
                    "journal: dropped {} torn trailing bytes ({} records intact)",
                    recovery.dropped_bytes,
                    recovery.records.len()
                );
            }
            Some((Durable { journal, store, snapshot_every, encoding }, recovery.records))
        }
        None => None,
    };

    // Fresh start vs recovery: a fresh daemon builds system/config/policy
    // from flags; a recovering one takes everything from the newest valid
    // snapshot and replays the journal tail through the same code path.
    let mut kind: PolicyKind;
    let ga: GaParams;
    let mut pending_restore: Option<ReplaySnapshot> = None;
    let mut fresh: Option<(SystemConfig, SchedConfig)> = None;
    let mut consumed: u64;
    let mut tail: VecDeque<String> = VecDeque::new();
    let skip_lines: u64;

    if recover_dir.is_some() {
        let (durable_ref, records) = durable.as_ref().expect("recover implies journaling");
        let loaded = durable_ref
            .store
            .load_newest::<DaemonCheckpoint>()
            .map_err(|e| CliError::Input(format!("cannot scan snapshots: {e}")))?
            .ok_or_else(|| CliError::Input("no usable snapshot to recover from".to_string()))?;
        if loaded.skipped > 0 {
            eprintln!("recovery: skipped {} unreadable newer snapshot(s)", loaded.skipped);
        }
        let ckpt = loaded.value;
        if ckpt.consumed as usize > records.len() {
            return Err(CliError::Input(format!(
                "snapshot at consumed line {} is ahead of the journal ({} records) — wrong \
                 directory?",
                ckpt.consumed,
                records.len()
            )));
        }
        for record in &records[ckpt.consumed as usize..] {
            let line = String::from_utf8(record.clone())
                .map_err(|e| CliError::Input(format!("journal record is not UTF-8: {e}")))?;
            tail.push_back(line);
        }
        eprintln!(
            "recovered: snapshot at line {}, replaying {} journal records, resuming input at \
             line {}",
            ckpt.consumed,
            tail.len(),
            records.len()
        );
        kind = ckpt.policy;
        ga = ckpt.ga;
        consumed = ckpt.consumed;
        skip_lines = records.len() as u64;
        pending_restore = Some(ckpt.replay);
    } else {
        let scale: f64 = args.get_parsed("scale", 0.05)?;
        let machine = parse_machine(args.get_or("machine", "theta"))?;
        let profile =
            if (scale - 1.0).abs() < f64::EPSILON { machine } else { machine.scaled(scale) };
        kind = parse_policy(args.get_or("policy", "BBSched"))?;
        let cfg = sim_config(args, &profile)?.sched();
        ga = GaParams {
            generations: args.get_parsed("gens", 500usize)?,
            base_seed: args.get_parsed("seed", 7u64)?,
            threads: parse_threads(args)?,
            ..GaParams::default()
        };
        // A non-recovery start must not silently adopt half a previous
        // run's directory: an existing journal means the operator wanted
        // --recover.
        if let Some((d, records)) = &durable {
            if !records.is_empty() || d.journal.records() > 0 {
                return Err(CliError::Usage(
                    "journal directory already has records; use --recover DIR to continue it"
                        .to_string(),
                ));
            }
        }
        fresh = Some((profile.system.clone(), cfg));
        consumed = 0;
        skip_lines = 0;
    }
    let path = args.require("events")?;
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(path)
            .map_err(|e| CliError::Input(format!("cannot open '{path}': {e}")))?;
        Box::new(std::io::BufReader::new(file))
    };
    let mut input = GroupReader::new(reader);
    let mut input_line = 0u64; // non-empty lines pulled from --events

    let held = HeldDecisions::default();
    let mut stream = DecisionStream::new(held.clone());
    let mut stats = (stats_every > 0).then(|| LiveStatsLines::new(stats_every, std::io::stderr()));
    let mut commit = GroupCommit {
        durable: durable.map(|(d, _)| d),
        held,
        out: std::io::stdout().lock(),
        out_error: None,
    };

    // Each hot-swap ends a *segment*: the replayer (which borrows the
    // observers) is torn down, and the next iteration rebuilds it from
    // the snapshot under the new policy with fresh borrows.
    //
    // `segment_checkpointed` gates the checkpoint written at segment
    // top: a fresh start checkpoints position 0 (so every journaled
    // directory is recoverable from its first record), a live hot-swap
    // checkpoints the post-swap position, and a recovery skips it (the
    // loaded checkpoint is already on disk).
    let mut segment_checkpointed = recover_dir.is_some();
    'segments: loop {
        let mut observers: Vec<&mut dyn SchedObserver> = vec![&mut stream];
        if let Some(s) = stats.as_mut() {
            observers.push(s);
        }
        let mut replayer = match pending_restore.take() {
            Some(snapshot) => Replayer::restore(snapshot, kind.build(ga), observers)
                .map_err(|e| CliError::Run(format!("cannot restore: {e}")))?,
            None => {
                let (system, cfg) = fresh.take().expect("first segment is fresh or restored");
                Replayer::new(&system, cfg, kind.build(ga), observers)
                    .map_err(|e| CliError::Run(e.to_string()))?
            }
        };
        if !segment_checkpointed {
            commit.save(&DaemonDriver { replayer: &replayer, policy: kind, ga, consumed })?;
        }

        let end: SegmentEnd = 'lines: loop {
            if term::requested() {
                break 'lines SegmentEnd::Term;
            }
            // Journal tail first (replayed without re-journaling), then
            // the live stream, one read group at a time.
            let (line, live) = match tail.pop_front() {
                Some(line) => (line, false),
                None => match input.next_line() {
                    Some(bytes) => {
                        let line = String::from_utf8(bytes).map_err(|_| {
                            CliError::Input(format!(
                                "cannot read '{path}': stream did not contain valid UTF-8"
                            ))
                        })?;
                        if line.trim().is_empty() {
                            continue;
                        }
                        input_line += 1;
                        if input_line <= skip_lines {
                            continue; // already journaled and applied
                        }
                        (line, true)
                    }
                    None => {
                        // The group is spent: make it durable and
                        // release its decisions before waiting for more.
                        commit.commit()?;
                        let more = input
                            .read_group()
                            .map_err(|e| CliError::Input(format!("cannot read '{path}': {e}")))?;
                        if more {
                            continue;
                        }
                        // A TERM that raced the final reads still means
                        // "drain, don't flush".
                        if term::requested() {
                            break 'lines SegmentEnd::Term;
                        }
                        break 'lines SegmentEnd::Eof;
                    }
                },
            };

            match classify_line(&line)
                .map_err(|e| CliError::Input(format!("input line {}: {e}", consumed + 1)))?
            {
                ServeLine::SetPolicy(new_kind) => {
                    if live {
                        commit.append(&line)?;
                    }
                    consumed += 1;
                    break 'lines SegmentEnd::Swap(new_kind, Box::new(replayer.snapshot()));
                }
                ServeLine::Event(event) => {
                    // Apply, then journal: a rejected event (time
                    // regression, duplicate id) is a fatal input error
                    // and must never poison the journal for recovery.
                    let warning = if live { clamp_warning(&replayer, &event) } else { None };
                    replayer
                        .feed(event)
                        .map_err(|e| CliError::Run(format!("input line {}: {e}", consumed + 1)))?;
                    if let Some(w) = warning {
                        eprintln!("warning: input line {}: {w}", consumed + 1);
                    }
                    if live {
                        commit.append(&line)?;
                    }
                    consumed += 1;
                    if live && commit.snapshot_due(consumed) {
                        commit.save(&DaemonDriver {
                            replayer: &replayer,
                            policy: kind,
                            ga,
                            consumed,
                        })?;
                    }
                }
            }
        };

        // Every way out of a segment commits the open group first.
        commit.commit()?;
        match end {
            SegmentEnd::Swap(new_kind, snapshot) => {
                eprintln!(
                    "policy hot-swap at line {consumed}: {} -> {}",
                    kind.name(),
                    new_kind.name()
                );
                kind = new_kind;
                pending_restore = Some(*snapshot);
                // A live swap re-checkpoints immediately at the
                // post-swap position, so a crash right after it recovers
                // under the new policy without replaying the swap; a
                // swap replayed from the journal tail does not (its
                // checkpoints already exist or were pruned).
                segment_checkpointed = !tail.is_empty();
                continue 'segments;
            }
            SegmentEnd::Term => {
                if commit.durable.is_some() {
                    commit.save(&DaemonDriver {
                        replayer: &replayer,
                        policy: kind,
                        ga,
                        consumed,
                    })?;
                    eprintln!(
                        "sigterm: drained at line {consumed}; final snapshot written (recover \
                         with --recover)"
                    );
                } else {
                    eprintln!("sigterm: drained at line {consumed} (no journal directory)");
                }
                break 'segments;
            }
            SegmentEnd::Eof => {
                // Pre-flush state: recovering a completed run re-derives
                // the final flush (see module docs).
                commit.save(&DaemonDriver { replayer: &replayer, policy: kind, ga, consumed })?;
                let fed = replayer.events_fed();
                warn_unknown_deps(&replayer);
                let summary = replayer.finish().map_err(|e| CliError::Run(e.to_string()))?;
                eprintln!(
                    "served {consumed} lines ({fed} job events): {} jobs ({} clamped), {} \
                     finishes, {} invocations, makespan {:.1} s, left {} waiting / {} running",
                    summary.jobs,
                    summary.clamped_jobs,
                    summary.finishes,
                    summary.invocations,
                    summary.makespan,
                    summary.left_waiting,
                    summary.left_running
                );
                break 'segments;
            }
        }
    }

    if let Some(stats) = &stats {
        if let Some(e) = stats.io_error() {
            eprintln!("warning: stats stream: {e}");
        }
    }
    // The final flush's decisions.
    commit.commit()?;
    if let Some(e) = commit.out_error.take() {
        return Err(CliError::Output(format!("cannot write decision stream: {e}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsched_sched::durability::Journal;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bbsched_serve_unit_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable(dir: &Path) -> Durable {
        let (journal, _) = Journal::open(&dir.join("events.wal")).unwrap();
        let store = SnapshotStore::open(dir, 3).unwrap();
        Durable { journal, store, snapshot_every: 0, encoding: Encoding::Binary }
    }

    fn replayer() -> Replayer<'static> {
        let system = parse_machine("cori").unwrap().scaled(0.05).system;
        let ga = GaParams::default();
        Replayer::new(&system, SchedConfig::default(), PolicyKind::Baseline.build(ga), Vec::new())
            .unwrap()
    }

    fn synced(commit: &GroupCommit<&mut Vec<u8>>) -> (u64, u64) {
        let journal = &commit.durable.as_ref().unwrap().journal;
        (journal.records(), journal.synced_records())
    }

    /// No decision reaches the output before the records of its group
    /// are synced; a commit syncs the group, then releases it whole.
    #[test]
    fn decisions_are_released_only_after_their_group_is_synced() {
        let dir = tempdir("release");
        let mut out = Vec::new();
        let held = HeldDecisions::default();
        let mut decisions = held.clone();
        let mut commit =
            GroupCommit { durable: Some(durable(&dir)), held, out: &mut out, out_error: None };
        for line in ["a", "b", "c"] {
            commit.append(line).unwrap();
            writeln!(decisions, "decision after {line}").unwrap();
        }
        assert_eq!(synced(&commit), (3, 0));
        assert!(commit.out.is_empty(), "held until the group is durable");
        commit.commit().unwrap();
        assert_eq!(synced(&commit), (3, 3));
        assert_eq!(
            String::from_utf8_lossy(commit.out),
            "decision after a\ndecision after b\ndecision after c\n"
        );

        // A snapshot commits the open group before it is written.
        commit.append("d").unwrap();
        writeln!(decisions, "decision after d").unwrap();
        let rp = replayer();
        let ga = GaParams::default();
        let driver = DaemonDriver { replayer: &rp, policy: PolicyKind::Baseline, ga, consumed: 4 };
        commit.save(&driver).unwrap();
        assert_eq!(synced(&commit), (4, 4));
        assert!(String::from_utf8_lossy(commit.out).ends_with("decision after d\n"));
        assert_eq!(commit.durable.as_ref().unwrap().store.positions().unwrap(), vec![4]);

        // An early exit (error return or panic) commits on drop.
        commit.append("e").unwrap();
        writeln!(decisions, "decision after e").unwrap();
        drop(commit);
        assert!(String::from_utf8_lossy(&out).ends_with("decision after e\n"));
        let (journal, recovery) = Journal::open(&dir.join("events.wal")).unwrap();
        assert_eq!(recovery.records.len(), 5);
        assert_eq!(journal.synced_records(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot ahead of the synced journal is a broken invariant.
    #[test]
    #[should_panic(expected = "outruns the synced journal")]
    fn snapshot_past_the_synced_journal_panics() {
        let dir = tempdir("outrun");
        let mut d = durable(&dir);
        d.journal.append(b"a").unwrap();
        let rp = replayer();
        let ga = GaParams::default();
        d.save(&DaemonDriver { replayer: &rp, policy: PolicyKind::Baseline, ga, consumed: 1 })
            .unwrap();
    }

    /// The splitter yields what `BufRead::lines` yields, whatever the
    /// read size: lines split across reads, a CR split from its LF, blank
    /// lines, and a final line without a newline.
    #[test]
    fn group_reader_splits_like_lines() {
        let inputs: [&[u8]; 5] = [
            b"one\ntwo\r\nthree",
            b"\n\nx\r\n\r\ny\n",
            b"a longer line than the buffer\r\nshort\n  \nlast\r",
            b"",
            b"only\n",
        ];
        for input in inputs {
            let expected: Vec<Vec<u8>> = input.lines().map(|l| l.unwrap().into_bytes()).collect();
            for capacity in [1, 2, 3, 7, 64] {
                let reader = std::io::BufReader::with_capacity(capacity, input);
                let mut groups = GroupReader::new(Box::new(reader));
                let mut got = Vec::new();
                while groups.read_group().unwrap() {
                    while let Some(line) = groups.next_line() {
                        got.push(line);
                    }
                }
                assert_eq!(got, expected, "{input:?} read {capacity} bytes at a time");
            }
        }
    }
}
