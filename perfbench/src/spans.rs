//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each public call
//! (observer hooks, the policy wrapper, the replica's calls into the
//! replay, durability and emit layers), kept in memory, and written out
//! once the run ends. Nothing is recorded inside the program itself.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the span that was open (innermost) when this
/// one began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Which trace of the workload's batch the span belongs to.
    pub run: u32,
    /// The scheduler invocation the span belongs to (0 outside one).
    pub invocation: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread of control.
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    invocation: u64,
    /// End of the last phase that precedes backfilling (window build or
    /// policy selection); the backfill span starts here.
    pub mark: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            invocation: 0,
            mark: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_run(&mut self, run: u32) {
        self.run = run;
        self.invocation = 0;
    }

    pub fn set_invocation(&mut self, invocation: u64) {
        self.invocation = invocation;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
            invocation: self.invocation,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span. Returns
    /// the end time.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
        end
    }

    /// Records a span that began at `start` and ends now, for a phase
    /// whose beginning has no hook of its own. Spans already recorded
    /// under the same parent since `start` lie inside it and become its
    /// children.
    pub fn record_since(&mut self, name: &'static str, start: u64) {
        let end = self.now();
        let parent = self.open.last().copied();
        let id = self.spans.len();
        for s in self.spans.iter_mut().rev() {
            if s.start < start {
                break;
            }
            if s.parent == parent {
                s.parent = Some(id);
            }
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            run: self.run,
            invocation: self.invocation,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line, with its self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tself_ns\tparent\trun\tinvocation")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start, s.end, self_ns[i], s.run, s.invocation
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub durations: Vec<u64>,
}

impl LayerStats {
    pub fn p99_us(&self) -> f64 {
        let mut d: Vec<f64> = self.durations.iter().map(|&n| n as f64 / 1e3).collect();
        crate::stats::percentile(&mut d, 0.99)
    }
}

pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.busy_ns += s.duration();
        e.self_ns += own;
        e.durations.push(s.duration());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, run: 0, invocation: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // invoke [0,100) holds order [0,10), select [10,60) and
        // backfill [60,90); select holds two GA spans, one of which
        // overlaps the other, and backfill holds an emit span.
        let spans = vec![
            span("invoke", 0, 100, None),
            span("order", 0, 10, Some(0)),
            span("select", 10, 60, Some(0)),
            span("ga", 12, 30, Some(2)),
            span("ga", 25, 40, Some(2)),
            span("backfill", 60, 90, Some(0)),
            span("emit", 70, 75, Some(5)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 22, 18, 15, 25, 5]);
        let layers = layer_stats(&spans);
        assert_eq!(layers["ga"].count, 2);
        assert_eq!(layers["ga"].busy_ns, 33);
        assert_eq!(layers["ga"].self_ns, 33);
        assert_eq!(layers["invoke"].self_ns, 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span("outer", 10, 20, None), span("inner", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorded_phase_adopts_the_spans_inside_it() {
        let mut rec = SpanRecorder::new();
        let invoke = rec.open("invoke");
        let start = rec.now();
        let emit = rec.open("emit");
        rec.close(emit);
        rec.record_since("backfill", start);
        rec.close(invoke);
        let s = rec.spans();
        assert_eq!(s[1].name, "emit");
        assert_eq!(s[1].parent, Some(2), "emit moves under the backfill span");
        assert_eq!(s[2].parent, Some(0));
        let own = self_times(s);
        assert_eq!(own[2], s[2].duration() - s[1].duration());
    }
}
