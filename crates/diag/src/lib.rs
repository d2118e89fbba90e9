//! # polymage-diag
//!
//! The observability spine of PolyMage-rs: structured spans and typed
//! counters with pluggable sinks.
//!
//! Every layer of the system — the compiler driver, the grouping
//! heuristic, the session cache, the autotuner, and the execution engine —
//! reports what it decided and what it measured through a [`Diag`] handle
//! instead of ad-hoc side structures. A handle is a cheap clone over one of
//! two sinks:
//!
//! - **no-op** ([`Diag::noop`]) — the default everywhere. Emission sites
//!   reduce to a single enum-variant check, so instrumented code paths cost
//!   nothing measurable (checked by a criterion benchmark in
//!   `crates/bench/benches/engine.rs`, not by a cargo feature);
//! - **recorder** ([`Diag::recorder`]) — an in-memory [`Recorder`] that
//!   timestamps spans/events and accumulates [`Counter`]s. Its
//!   [`Recording`] snapshot can answer structured queries or export a
//!   chrome://tracing JSON document ([`Recording::to_chrome_json`]).
//!
//! Emission-site protocol: build argument vectors only when
//! [`Diag::enabled`] is true (or pass them to [`Diag::event`], which drops
//! them immediately on the no-op sink); hot loops should accumulate plain
//! integers and flush them with [`Diag::count`] at a coarse granularity
//! (per group, per run) rather than emitting per chunk.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed argument value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// Owned string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value as a `u64`, when it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

/// Argument list of a span or event: `(key, value)` pairs.
pub type Args = Vec<(&'static str, Value)>;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident => $text:expr,)*) => {
        /// Typed monotonic counters accumulated by the recording sink.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $name,)*
        }

        impl Counter {
            /// Number of counters.
            pub const COUNT: usize = [$(Counter::$name),*].len();
            /// Every counter, in declaration order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$name),*];

            /// Stable text name (used by exports and summaries).
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$name => $text,)*
                }
            }
        }
    };
}

counters! {
    /// Session instance-cache LRU evictions.
    CacheEvict => "cache.evict",
    /// Grouping merges accepted (overlap ratio under threshold).
    GroupMergeAccept => "grouping.merge.accept",
    /// Grouping merges rejected (any criterion).
    GroupMergeReject => "grouping.merge.reject",
    /// Shared-pool buffer acquisitions.
    PoolAcquire => "pool.acquire",
    /// Shared-pool acquisitions served by a retained allocation.
    PoolReuse => "pool.reuse",
    /// Shared-pool releases dropped at the retention cap.
    PoolDrop => "pool.drop",
    /// Tiles claimed by engine workers.
    TileClaim => "engine.tile.claim",
    /// Uniform-preamble row-cache hits (chunks reusing a cached preamble).
    UniformHit => "eval.uniform.hit",
    /// Uniform-preamble row-cache misses (preamble recomputed).
    UniformMiss => "eval.uniform.miss",
    /// Loads resolved to the broadcast (chunk-invariant) class.
    LoadBroadcast => "eval.load.broadcast",
    /// Loads resolved to the contiguous (slice-copy) class.
    LoadContiguous => "eval.load.contiguous",
    /// Loads resolved to the strided class (incl. diagonal).
    LoadStrided => "eval.load.strided",
    /// Loads resolved to the gather class.
    LoadGather => "eval.load.gather",
    /// Register lanes evaluated through the AVX2 chunk loops.
    SimdLanesAvx2 => "eval.simd.lanes.avx2",
    /// Register lanes evaluated through the SSE2 chunk loops.
    SimdLanesSse2 => "eval.simd.lanes.sse2",
    /// Register lanes evaluated through the NEON chunk loops.
    SimdLanesNeon => "eval.simd.lanes.neon",
    /// Register lanes evaluated by the scalar fallback loops.
    SimdLanesScalar => "eval.simd.lanes.scalar",
    /// Indexed-access lanes addressed through the vector index pipeline.
    IndexLanesVector => "eval.index.lanes.vector",
    /// Indexed-access lanes addressed by the scalar walk.
    IndexLanesScalar => "eval.index.lanes.scalar",
    /// Scratch bytes eliminated by slot folding (per-worker, at compile).
    StorageFoldedBytes => "storage.folded_bytes",
    /// Full buffers returned to the pool before run completion.
    StorageEarlyRelease => "storage.early_release",
    /// Peak bytes of full buffers resident across the engine (monotone;
    /// flushed as deltas so the summed counter equals the final peak).
    StoragePeakBytes => "storage.peak_bytes",
    /// Session plan-cache hits (a size-independent `ParametricPlan` was
    /// reused).
    PlanHit => "session.plan_hit",
    /// Session plan-cache misses (phase-1 planning ran).
    PlanMiss => "session.plan_miss",
    /// Session instance-cache hits (a bound `Program` was reused).
    InstanceHit => "session.instance_hit",
    /// Session instance-cache misses (phase-2 instantiation ran).
    InstanceMiss => "session.instance_miss",
    /// Groups whose tile shape the cache model selected (constraints met).
    TileModelSelect => "tilemodel.select",
    /// Groups where no candidate met every constraint and the model fell
    /// back to the fixed baseline shape.
    TileModelFallback => "tilemodel.fallback",
    /// Plan-time tile decisions demoted at instantiation because the
    /// concrete bounds no longer admit them.
    TileModelRecheck => "tilemodel.recheck",
    /// Scheduler grants where a higher-urgency run jumped ahead of an
    /// earlier submission (the FIFO order was overridden).
    SchedPreempt => "sched.preempt",
    /// Runs shed by admission control (fail-fast rejections plus inflight
    /// victims cancelled to make room).
    SchedShed => "sched.shed",
    /// Runs completed as cancelled, for any reason.
    SchedCancel => "sched.cancel",
    /// Runs cancelled because their deadline expired (while queued,
    /// blocked on admission, or mid-execution).
    SchedDeadlineMiss => "sched.deadline_miss",
}

/// An in-flight span, created by [`Diag::begin`] and closed by
/// [`Diag::end`]. On the no-op sink it carries nothing and costs nothing.
#[must_use = "close spans with Diag::end"]
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
}

/// One recorded span or instant event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event name (a stable identifier, not prose).
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Span duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Small dense id of the emitting thread.
    pub tid: u64,
    /// Typed arguments.
    pub args: Args,
}

impl Event {
    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The engine run this event belongs to (its `run_id` argument), if
    /// any. Engine-emitted spans and events all carry one, so traces from
    /// overlapping runs are separable.
    pub fn run_id(&self) -> Option<u64> {
        match self.arg("run_id") {
            Some(Value::UInt(id)) => Some(*id),
            _ => None,
        }
    }
}

/// The in-memory recording sink.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    events: Mutex<Vec<Event>>,
    counters: [AtomicU64; Counter::COUNT],
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
        }
    }

    fn push(&self, ev: Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ev);
    }

    fn snapshot(&self) -> Recording {
        Recording {
            events: self
                .events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            counters: Counter::ALL.map(|c| self.counters[c as usize].load(Ordering::Relaxed)),
        }
    }
}

/// The diagnostics handle every instrumented layer receives.
///
/// Cloning is cheap (an enum over nothing or an [`Arc`]); the default is
/// the no-op sink.
#[derive(Debug, Clone, Default)]
pub struct Diag {
    sink: Sink,
}

#[derive(Debug, Clone, Default)]
enum Sink {
    #[default]
    Noop,
    Record(Arc<Recorder>),
}

impl Diag {
    /// The no-op sink: every emission reduces to one enum check.
    pub fn noop() -> Diag {
        Diag { sink: Sink::Noop }
    }

    /// A fresh in-memory recorder. Timestamps are relative to this call.
    pub fn recorder() -> Diag {
        Diag {
            sink: Sink::Record(Arc::new(Recorder::new())),
        }
    }

    /// Whether emissions are recorded. Guard argument construction with
    /// this at hot emission sites.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self.sink, Sink::Record(_))
    }

    /// Opens a span. Timestamp capture is skipped entirely on the no-op
    /// sink.
    #[inline]
    pub fn begin(&self) -> Span {
        Span {
            start: match self.sink {
                Sink::Noop => None,
                Sink::Record(_) => Some(Instant::now()),
            },
        }
    }

    /// Closes a span, recording name, duration, and arguments.
    pub fn end(&self, span: Span, name: &'static str, args: Args) {
        if let (Sink::Record(rec), Some(start)) = (&self.sink, span.start) {
            let ts_us = start.duration_since(rec.t0).as_micros() as u64;
            rec.push(Event {
                name,
                ts_us,
                dur_us: Some(start.elapsed().as_micros() as u64),
                tid: TID.with(|t| *t),
                args,
            });
        }
    }

    /// Records an instant event.
    pub fn event(&self, name: &'static str, args: Args) {
        if let Sink::Record(rec) = &self.sink {
            rec.push(Event {
                name,
                ts_us: rec.t0.elapsed().as_micros() as u64,
                dur_us: None,
                tid: TID.with(|t| *t),
                args,
            });
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        if let Sink::Record(rec) = &self.sink {
            if n != 0 {
                rec.counters[c as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of everything recorded so far (`None` on the no-op sink).
    pub fn snapshot(&self) -> Option<Recording> {
        match &self.sink {
            Sink::Noop => None,
            Sink::Record(rec) => Some(rec.snapshot()),
        }
    }
}

/// A point-in-time copy of a recorder's events and counters.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Recorded spans and events, in emission order per thread.
    pub events: Vec<Event>,
    /// Final counter values, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
}

impl Recording {
    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Every event with the given name.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Every distinct engine run id appearing in the recording, in first-
    /// appearance order.
    pub fn run_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for e in &self.events {
            if let Some(id) = e.run_id() {
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        ids
    }

    /// Every event belonging to one engine run (events without a `run_id`
    /// argument — compiler phases, grouping decisions — are excluded).
    pub fn events_for_run(&self, run_id: u64) -> impl Iterator<Item = &Event> + '_ {
        self.events
            .iter()
            .filter(move |e| e.run_id() == Some(run_id))
    }

    /// Exports the recording as a chrome://tracing JSON document
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Spans become complete (`"ph":"X"`) events, instants become
    /// (`"ph":"i"`) events, and final counter values are attached as one
    /// trailing counter (`"ph":"C"`) sample per non-zero counter.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            match e.dur_us {
                Some(dur) => {
                    out.push_str(&format!(
                        "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":1,\"tid\":{}",
                        json_str(e.name),
                        e.ts_us,
                        dur,
                        e.tid
                    ));
                }
                None => {
                    out.push_str(&format!(
                        "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                         \"pid\":1,\"tid\":{}",
                        json_str(e.name),
                        e.ts_us,
                        e.tid
                    ));
                }
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{}:{}", json_str(k), json_value(v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        let last_ts = self.events.iter().map(|e| e.ts_us).max().unwrap_or(0);
        for c in Counter::ALL {
            let v = self.counter(c);
            if v == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"args\":{{\"value\":{}}}}}",
                json_str(c.name()),
                last_ts,
                v
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) if f.is_finite() => {
            // JSON has no NaN/Inf; finite floats print round-trippably.
            format!("{f}")
        }
        Value::Float(_) => "null".to_string(),
        Value::Str(s) => json_str(s),
        Value::Bool(b) => b.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let d = Diag::noop();
        assert!(!d.enabled());
        let sp = d.begin();
        assert!(sp.start.is_none(), "no-op spans must not read the clock");
        d.end(sp, "x", vec![]);
        d.event("y", vec![("k", Value::Int(1))]);
        d.count(Counter::InstanceHit, 5);
        assert!(d.snapshot().is_none());
    }

    #[test]
    fn recorder_captures_spans_events_counters() {
        let d = Diag::recorder();
        assert!(d.enabled());
        let sp = d.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        d.end(sp, "phase", vec![("n", Value::UInt(3))]);
        d.event("decision", vec![("ok", Value::Bool(true))]);
        d.count(Counter::InstanceMiss, 2);
        d.count(Counter::InstanceMiss, 1);

        let rec = d.snapshot().unwrap();
        assert_eq!(rec.events.len(), 2);
        let span = rec.events_named("phase").next().unwrap();
        assert!(span.dur_us.unwrap() >= 1000, "span measured ≥ 1ms");
        assert_eq!(span.arg("n").unwrap().as_u64(), Some(3));
        let ev = rec.events_named("decision").next().unwrap();
        assert!(ev.dur_us.is_none());
        assert_eq!(rec.counter(Counter::InstanceMiss), 3);
        assert_eq!(rec.counter(Counter::InstanceHit), 0);
    }

    #[test]
    fn clones_share_one_recorder() {
        let d = Diag::recorder();
        let d2 = d.clone();
        d2.event("from-clone", vec![]);
        d2.count(Counter::TileClaim, 7);
        let rec = d.snapshot().unwrap();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.counter(Counter::TileClaim), 7);
    }

    #[test]
    fn chrome_json_shape() {
        let d = Diag::recorder();
        let sp = d.begin();
        d.end(
            sp,
            "group",
            vec![
                ("name", Value::Str("harris\"x".into())),
                ("ratio", Value::Float(0.25)),
            ],
        );
        d.event("note", vec![("i", Value::Int(-1))]);
        d.count(Counter::PoolReuse, 4);
        let json = d.snapshot().unwrap().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("harris\\\"x"), "strings are escaped");
        assert!(json.contains("\"ratio\":0.25"));
        assert!(json.contains("pool.reuse"));
        // Balanced braces/brackets — a cheap well-formedness check in lieu
        // of a JSON parser dependency.
        let (mut braces, mut brackets) = (0i64, 0i64);
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!(braces, 0);
        assert_eq!(brackets, 0);
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }
}
