//! Timing taps on the scheduler core, attached through its public
//! observer hooks and by wrapping the selection policy.
//!
//! [`InvokeClock`] is the untraced tap: begin/end hooks only, one
//! latency sample per `SchedCore` invocation. [`TracingObserver`] and
//! [`TimedPolicy`] are the traced run's taps; together they split each
//! invocation into spans:
//!
//! * `sched.service.invoke` — begin hook to end hook;
//! * `sched.queue.order_window` — begin hook to window-built hook (queue
//!   ordering plus window fill);
//! * `policies.select` — the wrapped `SelectionPolicy::select` call;
//! * `sched.backfill.pass` — end of selection (or of the window build
//!   when no selection ran) to the backfill-pass hook, so it also holds
//!   the starts of the selected jobs;
//! * `sched.service.cleanup` — backfill-pass hook to end hook.

use crate::spans::SpanRecorder;
use bbsched_core::pools::PoolState;
use bbsched_core::problem::JobDemand;
use bbsched_policies::SelectionPolicy;
use bbsched_sched::{Decision, SchedObserver};
use serde::Value;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Per-invocation latency from the begin and end hooks. It reads the
/// monotonic clock, not the thread CPU clock: the CPU clock is a system
/// call of about 0.25 us, a large part of a 2 us invocation, and a
/// sample taken while the thread was descheduled is left out anyway by
/// the median over repetitions (`stats::per_invocation_median`).
#[derive(Default)]
pub struct InvokeClock {
    begin: Option<Instant>,
    /// Invocation latencies in seconds, in invocation order.
    pub samples: Vec<f64>,
}

impl SchedObserver for InvokeClock {
    fn on_invocation_begin(&mut self, _now: f64, _invocation: u64, _queue_len: usize) {
        self.begin = Some(Instant::now());
    }

    fn on_invocation_end(&mut self, _now: f64, _started: usize) {
        if let Some(b) = self.begin.take() {
            self.samples.push(b.elapsed().as_secs_f64());
        }
    }
}

/// The traced run's spans and the counters taken at the same hooks.
#[derive(Default)]
pub struct Tracer {
    pub rec: SpanRecorder,
    /// Jobs offered to the policy, summed over `select` calls.
    pub offered: u64,
    /// Jobs the policy selected.
    pub selected: u64,
    pub select_calls: u64,
    /// Reservation decisions made by the backfill strategy.
    pub reservations: u64,
    /// Jobs the backfill strategy credited as backfilled.
    pub backfill_starts: u64,
    /// Queue length at invocation begin, summed over invocations.
    pub depth_sum: u64,
}

/// A [`Tracer`] shared by the observer and the policy wrapper (the
/// policy must be `Send`, hence the mutex; it is never contended).
#[derive(Clone, Default)]
pub struct SharedTracer(Arc<Mutex<Tracer>>);

impl SharedTracer {
    pub fn lock(&self) -> MutexGuard<'_, Tracer> {
        self.0.lock().expect("a tracing tap panicked while holding the tracer")
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.lock().rec.open(name);
        let out = f();
        self.lock().rec.close(span);
        out
    }
}

pub struct TracingObserver {
    tracer: SharedTracer,
    invoke: usize,
    order: usize,
    cleanup: usize,
}

impl TracingObserver {
    pub fn new(tracer: SharedTracer) -> Self {
        Self { tracer, invoke: 0, order: 0, cleanup: 0 }
    }
}

impl SchedObserver for TracingObserver {
    fn on_invocation_begin(&mut self, _now: f64, invocation: u64, queue_len: usize) {
        let mut t = self.tracer.lock();
        t.depth_sum += queue_len as u64;
        t.rec.set_invocation(invocation);
        self.invoke = t.rec.open("sched.service.invoke");
        self.order = t.rec.open("sched.queue.order_window");
    }

    fn on_window_built(&mut self, _now: f64, _window_ids: &[u64]) {
        let mut t = self.tracer.lock();
        t.rec.mark = t.rec.close(self.order);
    }

    fn on_decision(&mut self, _now: f64, decision: &Decision) {
        if matches!(decision, Decision::Reserve { .. }) {
            self.tracer.lock().reservations += 1;
        }
    }

    fn on_backfill_pass(&mut self, _now: f64, _algorithm: &'static str, started: usize) {
        let mut t = self.tracer.lock();
        t.backfill_starts += started as u64;
        let mark = t.rec.mark;
        t.rec.record_since("sched.backfill.pass", mark);
        self.cleanup = t.rec.open("sched.service.cleanup");
    }

    fn on_invocation_end(&mut self, _now: f64, _started: usize) {
        let mut t = self.tracer.lock();
        t.rec.close(self.cleanup);
        t.rec.close(self.invoke);
        t.rec.set_invocation(0);
    }
}

/// Wraps a policy so each `select` call is a `policies.select` span.
pub struct TimedPolicy {
    inner: Box<dyn SelectionPolicy>,
    tracer: SharedTracer,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn SelectionPolicy>, tracer: SharedTracer) -> Box<dyn SelectionPolicy> {
        Box::new(Self { inner, tracer })
    }
}

impl SelectionPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, window: &[JobDemand], avail: &PoolState, invocation: u64) -> Vec<usize> {
        let span = self.tracer.lock().rec.open("policies.select");
        let picked = self.inner.select(window, avail, invocation);
        let mut t = self.tracer.lock();
        t.rec.mark = t.rec.close(span);
        t.select_calls += 1;
        t.offered += window.len() as u64;
        t.selected += picked.len() as u64;
        picked
    }

    fn snapshot_state(&self) -> Option<Value> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}
