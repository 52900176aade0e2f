//! Crash-recovery integration tests for the durability layer
//! (DESIGN.md §13): a simulated daemon journals wire events in
//! group-committed runs (appends, then one sync) and takes rolling
//! snapshots; the process is then "killed" at hostile points —
//! including every byte boundary inside the final, unsynced group —
//! and recovery (newest valid snapshot + journal tail replay) must
//! reproduce the uninterrupted run's decision stream byte for byte.

use bbsched_policies::{GaParams, PolicyKind};
use bbsched_sched::durability::{from_bytes, to_bytes, Encoding, Journal, SnapshotStore};
use bbsched_sched::{DecisionLog, JobEvent, ReplaySnapshot, Replayer, SchedConfig};
use bbsched_workloads::{Job, SystemConfig};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-frame overhead of a journal record (u32 length + u64 checksum).
const FRAME_HEADER_LEN: usize = 12;
/// The journal file header (`BBWAL` + version + newline).
const JOURNAL_HEADER_LEN: usize = 7;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bbsched_crash_{tag}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn system() -> SystemConfig {
    SystemConfig {
        name: "crash-test".into(),
        nodes: 64,
        bb_gb: 4_000.0,
        bb_reserved_gb: 0.0,
        nodes_128: 0,
        nodes_256: 0,
        extra_resources: Vec::new(),
    }
}

fn policy() -> Box<dyn bbsched_policies::SelectionPolicy> {
    PolicyKind::Baseline.build(GaParams::default())
}

fn replayer(log: &mut DecisionLog) -> Replayer<'_> {
    Replayer::new(&system(), SchedConfig::default(), policy(), vec![log]).unwrap()
}

/// A valid wire stream interleaving submits and finishes: 24 submits at
/// t = 10 i, early finishes woven between later submits, the rest
/// finishing after the last arrival. Total capacity exceeds aggregate
/// demand, so every job is running when its finish event arrives.
fn events() -> Vec<JobEvent> {
    let mut timed: Vec<(f64, JobEvent)> = Vec::new();
    for i in 0..24u64 {
        let job = Job::new(i, i as f64 * 10.0, 1 + (i % 4) as u32, 50.0 + i as f64, 900.0);
        timed.push((job.submit, JobEvent::Submit(job)));
    }
    for i in 0..10u64 {
        let t = 85.0 + 10.0 * i as f64;
        timed.push((t, JobEvent::Finish { id: i, time: t }));
    }
    for i in 10..24u64 {
        let t = 300.0 + 7.0 * i as f64;
        timed.push((t, JobEvent::Finish { id: i, time: t }));
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    timed.into_iter().map(|(_, e)| e).collect()
}

/// Decision lines + summary of the uninterrupted run.
fn baseline(events: &[JobEvent]) -> (Vec<String>, bbsched_sched::ReplaySummary) {
    let mut log = DecisionLog::new();
    let summary = {
        let mut rp = replayer(&mut log);
        for e in events {
            rp.feed(e.clone()).unwrap();
        }
        rp.finish().unwrap()
    };
    (log.into_lines(), summary)
}

/// Decision lines an uninterrupted run has emitted after feeding the
/// first `p` events (pending batch unflushed — exactly the state a
/// snapshot at position `p` captures).
fn prefix_lines(events: &[JobEvent], p: usize) -> Vec<String> {
    let mut log = DecisionLog::new();
    {
        let mut rp = replayer(&mut log);
        for e in &events[..p] {
            rp.feed(e.clone()).unwrap();
        }
    }
    log.into_lines()
}

/// Byte offset of journal record `n` (= the journal's length once it
/// holds the first `n` events).
fn frame_offset(events: &[JobEvent], n: usize) -> usize {
    JOURNAL_HEADER_LEN
        + events[..n].iter().map(|e| FRAME_HEADER_LEN + e.to_json_line().len()).sum::<usize>()
}

/// What one daemon epoch left behind.
struct Epoch {
    lines: Vec<String>,
    summary: Option<bbsched_sched::ReplaySummary>,
    /// The snapshot position the epoch recovered from.
    snap_pos: usize,
    /// Journal records durable when the epoch ended.
    synced: usize,
}

/// One daemon epoch: restore (or start fresh), replay the journal tail
/// beyond the snapshot, then feed + journal live events until `stop`,
/// committing every `group` records (appends, then one sync) and
/// snapshotting every `every` records — a snapshot commits the open
/// group first, as the daemon does. A finishing epoch commits its last
/// group; a crashing one (`finish == false`) ends with it unsynced.
#[allow(clippy::too_many_arguments)]
fn daemon_epoch(
    events: &[JobEvent],
    wal: &std::path::Path,
    store: &SnapshotStore,
    every: u64,
    group: usize,
    encoding: Encoding,
    stop: usize,
    finish: bool,
) -> Epoch {
    let (mut journal, recovery) = Journal::open(wal).unwrap();
    let loaded = store.load_newest::<ReplaySnapshot>().unwrap();
    let mut log = DecisionLog::new();
    let (summary, snap_pos) = {
        let (mut rp, snap_pos) = match loaded {
            Some(l) => {
                let pos = l.position as usize;
                assert!(pos <= recovery.records.len(), "snapshot never outruns the journal");
                (Replayer::restore(l.value, policy(), vec![&mut log]).unwrap(), pos)
            }
            None => (replayer(&mut log), 0),
        };
        // Journal tail replay (not re-journaled).
        for record in &recovery.records[snap_pos..] {
            let line = std::str::from_utf8(record).unwrap();
            rp.feed(JobEvent::parse(line).unwrap()).unwrap();
        }
        // Live continuation, write-ahead journaled in groups.
        let mut consumed = recovery.records.len();
        for (i, e) in events[consumed..stop].iter().enumerate() {
            rp.feed(e.clone()).unwrap();
            journal.append(e.to_json_line().as_bytes()).unwrap();
            consumed += 1;
            if every > 0 && (consumed as u64).is_multiple_of(every) {
                journal.sync().unwrap();
                assert!(consumed as u64 <= journal.synced_records());
                store.save(consumed as u64, &rp.snapshot(), encoding).unwrap();
            }
            if (i + 1) % group == 0 {
                journal.sync().unwrap();
            }
        }
        let summary = if finish {
            journal.sync().unwrap();
            Some(rp.finish().unwrap())
        } else {
            None
        };
        (summary, snap_pos)
    };
    Epoch { lines: log.into_lines(), summary, snap_pos, synced: journal.synced_records() as usize }
}

/// Simulates a crash that loses part of the journal's unsynced suffix:
/// truncates the file at `cut_frac` of the bytes past record `synced`
/// (1.0 = nothing lost). Returns the intact records.
fn crash_unsynced_tail(
    wal: &std::path::Path,
    events: &[JobEvent],
    synced: usize,
    cut_frac: f64,
) -> usize {
    let bytes = fs::read(wal).unwrap();
    let durable = frame_offset(events, synced);
    let unsynced = bytes.len() - durable;
    let cut = durable + ((unsynced as f64 * cut_frac) as usize).min(unsynced);
    fs::write(wal, &bytes[..cut]).unwrap();
    let (_, recovery) = Journal::open(wal).unwrap();
    recovery.records.len()
}

/// Recovery's decisions, after the prefix an uninterrupted run had
/// emitted at the snapshot point, are exactly the uninterrupted run's.
fn assert_recovers_byte_identical(events: &[JobEvent], recovered: &Epoch, what: &str) {
    let (base_lines, base_summary) = baseline(events);
    let prefix = prefix_lines(events, recovered.snap_pos);
    assert_eq!(prefix.len() + recovered.lines.len(), base_lines.len(), "{what}");
    assert_eq!(&base_lines[..prefix.len()], &prefix[..], "{what}");
    assert_eq!(&base_lines[prefix.len()..], &recovered.lines[..], "{what}");
    assert_eq!(recovered.summary.unwrap(), base_summary, "{what}");
}

/// The tentpole guarantee, exhaustively: a daemon snapshotting every 7
/// records journals the final `GROUP` records as one group commit
/// (appends, then one sync) and is killed with the journal cut at
/// *every byte boundary* of that whole group. Recovery must keep an
/// exact record prefix, then — from the newest snapshot + journal tail,
/// then the remaining events — emit exactly the decisions the
/// uninterrupted run emits after the snapshot point, so snapshot-prefix
/// + recovery output is the uninterrupted stream, byte for byte.
#[test]
fn torn_journal_tail_recovers_byte_identical_at_every_cut() {
    const GROUP: usize = 5;
    let events = events();
    let group_start = events.len() - GROUP;
    assert!(
        (group_start + 1..=events.len()).all(|n| !n.is_multiple_of(7)),
        "no snapshot inside the group"
    );

    let dir = tempdir("torn");
    let wal = dir.join("events.wal");
    let store = SnapshotStore::open(dir.join("snaps"), usize::MAX).unwrap();
    {
        let mut log = DecisionLog::new();
        let (mut journal, _) = Journal::open(&wal).unwrap();
        let mut rp = replayer(&mut log);
        store.save(0, &rp.snapshot(), Encoding::Binary).unwrap();
        for (i, e) in events.iter().enumerate() {
            rp.feed(e.clone()).unwrap();
            journal.append(e.to_json_line().as_bytes()).unwrap();
            if i < group_start {
                journal.sync().unwrap();
            }
            if (i + 1) % 7 == 0 {
                store.save((i + 1) as u64, &rp.snapshot(), Encoding::Binary).unwrap();
            }
        }
        assert_eq!(journal.synced_records() as usize, group_start);
        journal.sync().unwrap();
        assert_eq!(journal.synced_records() as usize, events.len(), "one sync, whole group");
    }
    let full = fs::read(&wal).unwrap();
    assert_eq!(full.len(), frame_offset(&events, events.len()));
    let lines: Vec<Vec<u8>> = events.iter().map(|e| e.to_json_line().into_bytes()).collect();

    for cut in frame_offset(&events, group_start)..=full.len() {
        let jpath = dir.join("cut.wal");
        fs::write(&jpath, &full[..cut]).unwrap();
        let (_, recovery) = Journal::open(&jpath).unwrap();
        let whole = (group_start..=events.len())
            .take_while(|&n| frame_offset(&events, n) <= cut)
            .last()
            .unwrap();
        assert_eq!(recovery.records.len(), whole, "cut at byte {cut}: every whole frame survives");
        assert_eq!(&recovery.records[..], &lines[..whole], "cut at byte {cut}: an exact prefix");

        let recovered =
            daemon_epoch(&events, &jpath, &store, 0, 1, Encoding::Binary, events.len(), true);
        assert_recovers_byte_identical(&events, &recovered, &format!("cut at byte {cut}"));
    }
}

/// Two full kill/recover cycles against one journal directory, each
/// crash losing part of an unsynced group: crash, recover, continue
/// journaling, crash again, recover, drain. The final recovery must
/// still land exactly on the uninterrupted run's suffix.
#[test]
fn repeated_crash_cycles_recover_byte_identical() {
    let events = events();
    let dir = tempdir("cycles");
    let wal = dir.join("events.wal");
    let store = SnapshotStore::open(dir.join("snaps"), 3).unwrap();

    // Epoch 1: fresh start, groups of 4, crash after journaling 17
    // records: record 16 is synced, record 17 torn mid-frame.
    let e1 = daemon_epoch(&events, &wal, &store, 5, 4, Encoding::Binary, 17, false);
    assert_eq!(e1.synced, 16);
    assert_eq!(crash_unsynced_tail(&wal, &events, e1.synced, 0.5), 16);

    // Epoch 2: recover, continue to 33 records in groups of 3 (synced
    // at 19, 22, … 31), crash again: of the unsynced group 32..33,
    // record 32 survives and record 33 is torn.
    let e2 = daemon_epoch(&events, &wal, &store, 5, 3, Encoding::Json, 33, false);
    assert_eq!(e2.synced, 31);
    assert_eq!(crash_unsynced_tail(&wal, &events, e2.synced, 0.6), 32);

    // Epoch 3: recover and drain to the end.
    let e3 = daemon_epoch(&events, &wal, &store, 5, 2, Encoding::Binary, events.len(), true);
    assert_recovers_byte_identical(&events, &e3, "third epoch");
}

/// Golden binary ↔ JSON equivalence on a warmed snapshot: both
/// encodings decode to the identical snapshot, the JSON container *is*
/// the golden serde_json wire form, the encodings self-identify via
/// magic bytes, and the binary form achieves the promised ≥2× size
/// reduction.
#[test]
fn binary_and_json_snapshot_encodings_are_equivalent() {
    let events = events();
    let mut log = DecisionLog::new();
    let snap = {
        let mut rp = replayer(&mut log);
        for e in &events[..30] {
            rp.feed(e.clone()).unwrap();
        }
        rp.snapshot()
    };
    assert_eq!(snap.events_fed, 30);

    let json = to_bytes(&snap, Encoding::Json);
    let binary = to_bytes(&snap, Encoding::Binary);
    assert_eq!(json, serde_json::to_vec(&snap).unwrap(), "JSON container is the wire form");

    let (from_json, ej) = from_bytes::<ReplaySnapshot>(&json).unwrap();
    let (from_binary, eb) = from_bytes::<ReplaySnapshot>(&binary).unwrap();
    assert_eq!(ej, Encoding::Json);
    assert_eq!(eb, Encoding::Binary);
    assert_eq!(from_json, snap);
    assert_eq!(from_binary, snap);
    assert_eq!(from_json, from_binary);

    assert!(
        binary.len() * 2 <= json.len(),
        "binary snapshot ({} B) must be at most half the JSON form ({} B)",
        binary.len(),
        json.len()
    );

    // Either encoding restores to a byte-identical continuation.
    let tail_from = |snap: ReplaySnapshot| {
        let mut log = DecisionLog::new();
        {
            let mut rp = Replayer::restore(snap, policy(), vec![&mut log]).unwrap();
            for e in &events[30..] {
                rp.feed(e.clone()).unwrap();
            }
            rp.finish().unwrap();
        }
        log.into_lines()
    };
    assert_eq!(tail_from(from_json), tail_from(from_binary));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized interleavings of submit/finish/invoke with snapshot
    /// cadence, group size and crash position: kill after `crash_at`
    /// journaled records, losing a random share of the final unsynced
    /// group, in either snapshot encoding. No snapshot may survive past
    /// the intact journal, and recovery must be byte-identical.
    #[test]
    fn random_crash_points_recover_byte_identical(
        every in 1u64..9,
        group in 1usize..7,
        crash_at in 1usize..48,
        cut_frac in 0.0f64..1.0,
        enc_sel in 0u8..2,
    ) {
        let events = events();
        prop_assert!(crash_at <= events.len());
        let encoding = if enc_sel == 1 { Encoding::Binary } else { Encoding::Json };

        let dir = tempdir("prop");
        let wal = dir.join("events.wal");
        let store = SnapshotStore::open(dir.join("snaps"), 4).unwrap();
        // Initial position-0 checkpoint, as the daemon writes.
        {
            let mut log = DecisionLog::new();
            let rp = replayer(&mut log);
            store.save(0, &rp.snapshot(), encoding).unwrap();
        }
        let crashed = daemon_epoch(&events, &wal, &store, every, group, encoding, crash_at, false);
        let intact = crash_unsynced_tail(&wal, &events, crashed.synced, cut_frac);
        prop_assert!(crashed.synced <= intact && intact <= crash_at);
        // A snapshot commits the open group before it is written, so
        // no crash can leave one ahead of the intact journal.
        for pos in store.positions().unwrap() {
            prop_assert!(pos <= intact as u64, "snapshot at {} past {} intact records", pos, intact);
        }

        let recovered =
            daemon_epoch(&events, &wal, &store, every, group, encoding, events.len(), true);
        let (base_lines, base_summary) = baseline(&events);
        let prefix = prefix_lines(&events, recovered.snap_pos);
        prop_assert_eq!(prefix.len() + recovered.lines.len(), base_lines.len());
        prop_assert_eq!(&base_lines[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&base_lines[prefix.len()..], &recovered.lines[..]);
        prop_assert_eq!(recovered.summary.unwrap(), base_summary);
        fs::remove_dir_all(&dir).ok();
    }
}
