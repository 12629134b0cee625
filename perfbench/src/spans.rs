//! The traced run's instruments: an in-memory span log and the
//! benchmark-owned adapters that time calls into the library from outside.
//!
//! Nothing here reaches into the program. [`TimedSource`] wraps a
//! [`TraceSource`] and records one span per `fill_batch`; [`TimedPredictor`]
//! wraps a boxed [`Predictor`], forwards every trait method, records one
//! span per `predict_batch`, counts every per-record `predict`/`train`/
//! `track` call and times a fixed 1-in-[`SAMPLE_EVERY`] sample of them.
//! Spans stay in memory until the benchmark writes them out at the end.

use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mbp_core::{
    Branch, BranchBatch, BranchRecord, PredictionBits, Predictor, TableProbe, TraceError,
    TraceSource, Value,
};

/// Per-record predictor calls are timed one in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// A sampled interval longer than this was interrupted (no per-record
/// predictor call takes microseconds); the sample is dropped so one
/// preemption cannot dominate the extrapolated total.
const INTERRUPTED_NS: u128 = 20_000;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (records, instructions, …), or 0.
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one traced run, shared by the adapters across threads.
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started; [`SpanLog::close`] records it.
pub struct Open {
    pub id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &'static str, parent: u32) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Records `open` as ending now and returns its duration in ns.
    pub fn close(&self, open: Open, work: u64) -> u64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            work,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        span.ns()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        Ok(())
    }
}

/// A [`TraceSource`] that times each `fill_batch` into the span log.
pub struct TimedSource<'a, S> {
    inner: S,
    log: &'a SpanLog,
    parent: u32,
    pub batches: u64,
    pub records: u64,
    pub decode_ns: u64,
}

impl<'a, S: TraceSource> TimedSource<'a, S> {
    pub fn new(inner: S, log: &'a SpanLog, parent: u32) -> Self {
        Self {
            inner,
            log,
            parent,
            batches: 0,
            records: 0,
            decode_ns: 0,
        }
    }
}

impl<S: TraceSource> TraceSource for TimedSource<'_, S> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        self.inner.next_record()
    }

    fn fill_batch(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        let span = self.log.open("trace.fill_batch", self.parent);
        let got = self.inner.fill_batch(out);
        let n = *got.as_ref().unwrap_or(&0);
        self.decode_ns += self.log.close(span, n as u64);
        if n > 0 {
            self.batches += 1;
            self.records += n as u64;
        }
        got
    }

    fn description(&self) -> Value {
        self.inner.description()
    }

    fn instruction_count_hint(&self) -> Option<u64> {
        self.inner.instruction_count_hint()
    }

    fn record_count_hint(&self) -> Option<u64> {
        self.inner.record_count_hint()
    }
}

/// Totals of one predictor configuration across every instance the traced
/// run builds. Each instance is driven by one thread at a time and the
/// library hands it between threads through its own synchronization, so
/// the counters are single-writer: plain load/store updates suffice.
#[derive(Default)]
pub struct PredCounters {
    batch_ns: AtomicU64,
    batch_records: AtomicU64,
    predict_calls: AtomicU64,
    train_calls: AtomicU64,
    track_calls: AtomicU64,
    sampled_calls: AtomicU64,
    sampled_ns: AtomicU64,
    /// Empty intervals timed beside the sampled calls.
    sampled_clock_ns: AtomicU64,
}

fn bump(c: &AtomicU64, by: u64) {
    c.store(c.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

impl PredCounters {
    fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Branches this predictor processed: whole batches plus every tracked
    /// record of the per-record loop (all workloads track every branch).
    pub fn branches(&self) -> u64 {
        Self::get(&self.batch_records) + Self::get(&self.track_calls)
    }

    /// Estimated predictor time in ns: measured `predict_batch` time plus
    /// the per-record calls extrapolated from the timed sample.
    pub fn estimated_ns(&self) -> f64 {
        let calls = Self::get(&self.predict_calls)
            + Self::get(&self.train_calls)
            + Self::get(&self.track_calls);
        let sampled = Self::get(&self.sampled_calls);
        let per_call = if sampled == 0 {
            0.0
        } else {
            Self::get(&self.sampled_ns).saturating_sub(Self::get(&self.sampled_clock_ns)) as f64
                / sampled as f64
        };
        Self::get(&self.batch_ns) as f64 + per_call * calls as f64
    }
}

/// A forwarding [`Predictor`] that times the calls the simulator makes.
pub struct TimedPredictor {
    inner: Box<dyn Predictor + Send>,
    counters: Arc<PredCounters>,
    /// `predict_batch` spans go here, children of `parent`.
    log: Option<(Arc<SpanLog>, u32)>,
    calls: u64,
}

impl TimedPredictor {
    pub fn new(
        inner: Box<dyn Predictor + Send>,
        counters: Arc<PredCounters>,
        log: Option<(Arc<SpanLog>, u32)>,
    ) -> Self {
        Self {
            inner,
            counters,
            log,
            calls: 0,
        }
    }

    /// Runs one per-record call, timing it if it falls on the sample grid.
    /// A sampled call is paired with an empty timed interval taken just
    /// before it, so the clock's own cost is measured in the same cache
    /// state and subtracted.
    fn per_record<T>(
        &mut self,
        kind: fn(&PredCounters) -> &AtomicU64,
        f: impl FnOnce(&mut Box<dyn Predictor + Send>) -> T,
    ) -> T {
        bump(kind(&self.counters), 1);
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        let empty = Instant::now();
        let empty_ns = empty.elapsed().as_nanos();
        let start = Instant::now();
        let value = f(&mut self.inner);
        let ns = start.elapsed().as_nanos();
        if ns > INTERRUPTED_NS || empty_ns > INTERRUPTED_NS {
            return value;
        }
        bump(&self.counters.sampled_calls, 1);
        bump(
            &self.counters.sampled_ns,
            u64::try_from(ns).unwrap_or(u64::MAX),
        );
        bump(
            &self.counters.sampled_clock_ns,
            u64::try_from(empty_ns).unwrap_or(u64::MAX),
        );
        value
    }
}

impl Predictor for TimedPredictor {
    fn predict(&mut self, ip: u64) -> bool {
        self.per_record(|c| &c.predict_calls, |p| p.predict(ip))
    }

    fn train(&mut self, branch: &Branch) {
        self.per_record(|c| &c.train_calls, |p| p.train(branch))
    }

    fn track(&mut self, branch: &Branch) {
        self.per_record(|c| &c.track_calls, |p| p.track(branch))
    }

    fn metadata(&self) -> Value {
        self.inner.metadata()
    }

    fn execution_statistics(&self) -> Value {
        self.inner.execution_statistics()
    }

    fn size_hint(&self) -> u64 {
        self.inner.size_hint()
    }

    fn last_mispredict_blame(&self) -> Option<&'static str> {
        self.inner.last_mispredict_blame()
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        self.inner.table_probes()
    }

    fn predict_batch(
        &mut self,
        batch: &BranchBatch,
        track_only_conditional: bool,
        out: &mut PredictionBits,
    ) {
        let span = self
            .log
            .as_ref()
            .map(|(log, parent)| log.open("predictors.predict_batch", *parent));
        let start = Instant::now();
        self.inner.predict_batch(batch, track_only_conditional, out);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let (Some((log, _)), Some(span)) = (&self.log, span) {
            log.close(span, batch.len() as u64);
        }
        bump(&self.counters.batch_ns, ns);
        bump(&self.counters.batch_records, batch.len() as u64);
    }
}
