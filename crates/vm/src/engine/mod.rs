//! The multi-tenant execution engine: pooled workers shared by
//! concurrent runs, dynamic strip scheduling, and buffer reuse.
//!
//! [`Engine::submit`] takes a [`RunRequest`] (program, inputs, threads,
//! priority, deadline, trace sink, overload policy) and returns a
//! [`RunHandle`]; [`RunHandle::join`] blocks for the result,
//! [`RunHandle::cancel`] (or a cloneable [`CancelToken`]) stops the run
//! cooperatively within about one tile's worth of work, releasing its
//! pooled buffers immediately and surfacing [`VmError::Cancelled`].
//! Deadline expiry cancels the same way. Workers claim the next strip (or
//! reduction chunk) from the most urgent run that has work — highest
//! [`Priority`] first, earliest [`deadline`](RunRequest::deadline) within
//! a band, FIFO as the tiebreak — so one pool drives many overlapping runs
//! without a large batch run starving a small latency-sensitive one.
//!
//! # Structure
//!
//! - `policy` — the decisions (next claim, admission, shed victim, next
//!   timer) as functions over plain data: no locks, threads or clocks.
//! - `run` — one run's context and result-side state; advance, finalize,
//!   complete.
//! - `worker` — the loop that applies policy decisions and executes them.
//! - this module — the public API and the state the three share.
//!
//! # Locks
//!
//! | lock | guards | taken by |
//! |---|---|---|
//! | `Shared::sched` (one per engine) | the live runs' claim state (`policy::RunSlot`: phase, claim cursor, outstanding units, participation slots, halt flag, skipped tiles), their published tasks, admission (`inflight`, `shutdown`) and the scheduler counters | every scan, claim finish, task publication, submit, cancel, run departure |
//! | `RunContext::state` (one per run) | what a claim's *result* touches: full buffers, statistics, failure latch, reduction partials | the advancing worker; workers merging a finished unit |
//! | `RunContext::outcome` + `done_cv` (one per run) | the `(result, stats)` hand-off | `join`/`is_finished`; the completing worker, once, to publish |
//!
//! The three are **never nested**: every function releases one before it
//! takes another. A scan therefore never waits on (or skips) a busy run —
//! everything it reads is under the lock it already holds — and a joiner
//! never delays a worker. (`Shared::flushed` and the pool's shard locks
//! are leaves: nothing is acquired under them.)
//!
//! # Wake-up invariant
//!
//! `work_cv` is notified exactly when work becomes claimable, always under
//! `sched`, so a worker between its scan and its wait cannot miss it:
//! a run is submitted; an advancing worker publishes a task; a cancel,
//! shed or shutdown latch lands; a run leaves during shutdown. A deadline
//! needs no notifier — idle workers sleep no longer than
//! `policy::next_wakeup`. Finishing a unit wakes nobody: if it was the
//! task's last, the finishing worker advances the run itself.
//!
//! The phases a run moves through (`Advance → Advancing → Claimable → …`)
//! are documented on `policy::Phase` and drawn in DESIGN.md §3.5.
//!
//! # Determinism
//!
//! A run is bit-identical to a single-worker run with the same
//! [`threads(n)`](RunRequest::threads), whatever the pool size, the claim
//! order, or the number of concurrent runs. Strips write disjoint slabs
//! stitched by position (claim order cannot matter), scratch arenas are
//! re-zeroed exactly like fresh allocations, and reduction partials use
//! the chunk boundaries of `n` (not of the pool) and are combined in
//! ascending chunk order regardless of which worker computed them. Nothing
//! a run computes ever reads another run's state.

mod policy;
mod run;
mod worker;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::exec::validate_inputs;
use crate::pool::{PoolStats, SharedPool};
use crate::{Buffer, CancelReason, Program, RunStats, VmError};
use policy::{Admission, Incoming, RunSlot};
use polymage_diag::Diag;
use run::{FlushedCounters, RunContext, Task};

pub use policy::{OverloadPolicy, Priority};

/// A typed, builder-style run submission: program and inputs plus every
/// per-run policy knob — the single way to submit a run.
///
/// ```no_run
/// # use polymage_vm::{Engine, Priority, RunRequest, Program, Buffer};
/// # use std::sync::Arc;
/// # use std::time::Duration;
/// # fn demo(engine: &Engine, prog: &Arc<Program>, inputs: &[Buffer]) {
/// let handle = engine
///     .submit(
///         RunRequest::new(prog, inputs)
///             .threads(2)
///             .priority(Priority::High)
///             .deadline(Duration::from_millis(50)),
///     )
///     .unwrap();
/// let outputs = handle.join();
/// # let _ = outputs;
/// # }
/// ```
#[derive(Debug)]
pub struct RunRequest<'a> {
    prog: &'a Arc<Program>,
    inputs: &'a [Buffer],
    threads: Option<usize>,
    priority: Priority,
    deadline: Option<Instant>,
    diag: Diag,
    overload: OverloadPolicy,
    group_stats: bool,
}

impl<'a> RunRequest<'a> {
    /// A request with the defaults: all pooled workers, [`Priority::Normal`],
    /// no deadline, no tracing, blocking admission, per-group stats on.
    pub fn new(prog: &'a Arc<Program>, inputs: &'a [Buffer]) -> RunRequest<'a> {
        RunRequest {
            prog,
            inputs,
            threads: None,
            priority: Priority::default(),
            deadline: None,
            diag: Diag::noop(),
            overload: OverloadPolicy::default(),
            group_stats: true,
        }
    }

    /// Run as if the engine had `n` workers: reductions chunk for `n` and
    /// at most `min(n, pool size)` pooled workers participate. The result
    /// is bit-identical to a single-worker run with the same `n`.
    pub fn threads(mut self, n: usize) -> RunRequest<'a> {
        self.threads = Some(n.max(1));
        self
    }

    /// Scheduling urgency (default [`Priority::Normal`]).
    pub fn priority(mut self, p: Priority) -> RunRequest<'a> {
        self.priority = p;
        self
    }

    /// Cancel the run if it has not completed within `d` of submission.
    /// Expiry surfaces as `Err(Cancelled{reason: Deadline})` from join.
    pub fn deadline(self, d: Duration) -> RunRequest<'a> {
        self.deadline_at(Instant::now() + d)
    }

    /// Like [`RunRequest::deadline`] with an absolute expiry instant.
    pub fn deadline_at(mut self, at: Instant) -> RunRequest<'a> {
        self.deadline = Some(at);
        self
    }

    /// Structured diagnostics sink: the run's spans and events (run,
    /// groups, per-worker utilization) all carry this run's `run_id`, so
    /// traces from overlapping runs are separable.
    pub fn trace(mut self, diag: &Diag) -> RunRequest<'a> {
        self.diag = diag.clone();
        self
    }

    /// Behavior at the admission cap (default [`OverloadPolicy::Block`]).
    pub fn on_overload(mut self, policy: OverloadPolicy) -> RunRequest<'a> {
        self.overload = policy;
        self
    }

    /// Whether to record per-group wall-clock times and per-worker
    /// utilization into [`RunStats`] (default `true`). Opting out skips
    /// the per-group bookkeeping for latency-critical serving paths;
    /// scalar counters (tiles, points, caches) are collected regardless.
    pub fn group_stats(mut self, on: bool) -> RunRequest<'a> {
        self.group_stats = on;
        self
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Poisoning is benign everywhere this helper is used: every critical
    // section either only moves buffers between containers or is followed
    // by an explicit `failed`/outcome check, so a panicking holder cannot
    // leave state that a later holder would misread.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The error a run fails with when a worker panicked on its behalf.
fn panic_error(p: Box<dyn std::any::Any + Send>) -> VmError {
    let text = if let Some(s) = p.downcast_ref::<&str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.as_str()
    } else {
        "worker panicked"
    };
    VmError::Internal(format!("worker panicked: {text}"))
}

/// Waits on `cv`, for at most `timeout` if one is given.
fn wait_on<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Option<Duration>,
) -> MutexGuard<'a, T> {
    match timeout {
        Some(dur) => match cv.wait_timeout(guard, dur) {
            Ok((guard, _)) => guard,
            Err(e) => e.into_inner().0,
        },
        None => cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
    }
}

/// What the scheduler keeps per live run next to its claim state.
struct LiveRun {
    ctx: Arc<RunContext>,
    /// The task whose units are claimable, if one is published.
    task: Option<Task>,
}

/// Engine-global scheduler counters (monotone).
#[derive(Debug, Clone, Copy, Default)]
struct SchedCounters {
    /// Claim grants that jumped ahead of an earlier live submission.
    preempts: u64,
    /// Admission sheds: fail-fast rejections + cancelled inflight victims.
    sheds: u64,
    /// Runs completed as cancelled (any reason), plus rejected submissions.
    cancels: u64,
    /// Cancellations whose reason was a missed deadline.
    deadline_misses: u64,
}

/// The scheduler: every live run's claim state plus admission state.
struct Sched {
    /// Live runs in scan order (`policy::insert`), present from submission
    /// until completion.
    runs: Vec<RunSlot<LiveRun>>,
    /// Admission slots taken (reserved before a run's buffers exist).
    inflight: usize,
    max_inflight: usize,
    shutdown: bool,
    counters: SchedCounters,
}

impl Sched {
    fn slot_mut(&mut self, run_id: u64) -> Option<&mut RunSlot<LiveRun>> {
        self.runs.iter_mut().find(|r| r.run_id == run_id)
    }

    /// Counts a run that completed as cancelled, or a submission turned
    /// away at admission.
    fn count_cancel(&mut self, reason: CancelReason) {
        self.counters.cancels += 1;
        self.counters.deadline_misses += (reason == CancelReason::Deadline) as u64;
    }
}

/// Everything workers and submitters share.
struct Shared {
    sched: Mutex<Sched>,
    /// Workers wait here for claimable work.
    work_cv: Condvar,
    /// Submitters wait here for an admission slot.
    admit_cv: Condvar,
    pool: SharedPool,
    next_run_id: AtomicU64,
    /// Bytes of full buffers currently held by live runs (engine-global;
    /// excludes slabs, partials, and scratch arenas).
    full_bytes: AtomicU64,
    /// High-water mark of [`Shared::full_bytes`] (monotone).
    full_peak: AtomicU64,
    /// Engine-global counters already flushed to diag.
    flushed: Mutex<FlushedCounters>,
}

impl Shared {
    fn add_full_bytes(&self, bytes: u64) {
        let cur = self.full_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.full_peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Latches a cancellation on a live run: first signal wins; the run is
    /// granted no further units and sleeping workers are woken to drive
    /// it out. Returns whether this call set the signal.
    fn cancel_run(&self, sched: &mut Sched, ctx: &RunContext, reason: CancelReason) -> bool {
        let set = ctx.cancel.set(reason);
        if set {
            if let Some(slot) = sched.slot_mut(ctx.run_id) {
                slot.halt();
                self.work_cv.notify_all();
            }
        }
        set
    }
}

/// A persistent multi-tenant execution engine.
///
/// Construction spawns the worker threads once; every run submitted with
/// [`Engine::submit`] executes on them, together with recycled scratch
/// arenas and a size-class-sharded [`SharedPool`] of output/partial
/// allocations. Multiple runs execute **concurrently**: each owns its own
/// buffers, claims, and statistics, and workers interleave strips from
/// every live run (most urgent first). Results are bit-identical to a run
/// that had the engine to itself.
///
/// Admission is capped: at most `max_inflight` runs are live at once and
/// further submissions block, bounding memory under load.
///
/// Dropping the engine completes every pending run, then shuts the
/// workers down and joins them.
pub struct Engine {
    nthreads: usize,
    shared: Arc<Shared>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

/// A handle on a submitted run; redeem it with [`RunHandle::join`] (or
/// [`RunHandle::join_stats`]) for the outputs, or stop the run early with
/// [`RunHandle::cancel`]. The run makes progress whether or not anyone is
/// joining.
pub struct RunHandle {
    run: Arc<RunContext>,
    shared: Weak<Shared>,
}

impl std::fmt::Debug for RunHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHandle")
            .field("run_id", &self.run.run_id)
            .finish()
    }
}

impl RunHandle {
    /// The engine-unique id of this run (also stamped on every diag span
    /// and event the run emits, as `run_id`).
    pub fn run_id(&self) -> u64 {
        self.run.run_id
    }

    /// Whether the run has finished (joining would not block).
    pub fn is_finished(&self) -> bool {
        lock(&self.run.outcome).is_some()
    }

    /// Requests cooperative cancellation: workers observe the signal at
    /// the next tile boundary (mid-strip), claim grant, or group advance —
    /// whichever comes first — so the run stops within about one tile's
    /// worth of work, releases its pooled buffers immediately, and joins
    /// as `Err(Cancelled{reason: Caller})`. Idempotent; a no-op once the
    /// run has completed (the first signal wins and completion latches the
    /// result).
    pub fn cancel(&self) {
        self.cancel_token().cancel();
    }

    /// A cloneable, `'static` token that cancels this run — hand it to a
    /// watchdog or timeout thread while another thread holds the handle
    /// to join.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            run: Arc::clone(&self.run),
            shared: self.shared.clone(),
        }
    }

    /// Blocks until the run completes and returns its live-out buffers, in
    /// [`Program::outputs`] order.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] when the run failed (worker panic or internal
    /// invariant violation) or was cancelled ([`VmError::Cancelled`]).
    pub fn join(self) -> Result<Vec<Buffer>, VmError> {
        self.join_stats().map(|(out, _)| out)
    }

    /// Like [`RunHandle::join`], additionally returning execution
    /// statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RunHandle::join`].
    pub fn join_stats(self) -> Result<(Vec<Buffer>, RunStats), VmError> {
        let (result, stats) = self.join_outcome();
        result.map(|out| (out, stats))
    }

    /// Blocks until the run completes and returns its result *and* its
    /// statistics, even on failure — a cancelled run's
    /// [`RunStats::cancelled_tiles`] and [`RunStats::sched_wait`] are
    /// only reachable this way.
    pub fn join_outcome(self) -> (Result<Vec<Buffer>, VmError>, RunStats) {
        let mut outcome = lock(&self.run.outcome);
        loop {
            if let Some(done) = outcome.take() {
                return done;
            }
            outcome = wait_on(&self.run.done_cv, outcome, None);
        }
    }
}

/// Cancels one run cooperatively; obtained from
/// [`RunHandle::cancel_token`]. Cloneable and independent of the handle's
/// lifetime — it stays valid (and harmlessly inert) after the run
/// completes or the engine is dropped.
#[derive(Clone)]
pub struct CancelToken {
    run: Arc<RunContext>,
    shared: Weak<Shared>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("run_id", &self.run.run_id)
            .field("cancelled", &self.run.cancel.get())
            .finish()
    }
}

impl CancelToken {
    /// The id of the run this token cancels.
    pub fn run_id(&self) -> u64 {
        self.run.run_id
    }

    /// Whether a cancellation signal has been latched for the run.
    pub fn is_cancelled(&self) -> bool {
        self.run.cancel.get().is_some()
    }

    /// Signals cancellation (see [`RunHandle::cancel`]). Idempotent.
    pub fn cancel(&self) {
        match self.shared.upgrade() {
            Some(shared) => {
                let mut sched = lock(&shared.sched);
                shared.cancel_run(&mut sched, &self.run, CancelReason::Caller);
            }
            // No engine, no live run: just latch the flag.
            None => drop(self.run.cancel.set(CancelReason::Caller)),
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("nthreads", &self.nthreads)
            .field("max_inflight", &self.max_inflight())
            .finish()
    }
}

impl Engine {
    /// An engine with one worker per available hardware thread.
    pub fn new() -> Engine {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Engine::with_threads(n)
    }

    /// An engine with exactly `nthreads` pooled workers (minimum 1) and
    /// the default admission cap of `2 × nthreads` concurrent runs.
    pub fn with_threads(nthreads: usize) -> Engine {
        let nthreads = nthreads.max(1);
        Engine::with_threads_and_inflight(nthreads, 2 * nthreads)
    }

    /// An engine with exactly `nthreads` pooled workers and an explicit
    /// admission cap: at most `max_inflight` runs (minimum 1) are live at
    /// once; [`Engine::submit`] blocks past the cap until a run completes.
    pub fn with_threads_and_inflight(nthreads: usize, max_inflight: usize) -> Engine {
        let nthreads = nthreads.max(1);
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                runs: Vec::new(),
                inflight: 0,
                max_inflight: max_inflight.max(1),
                shutdown: false,
                counters: SchedCounters::default(),
            }),
            work_cv: Condvar::new(),
            admit_cv: Condvar::new(),
            pool: SharedPool::new(),
            next_run_id: AtomicU64::new(1),
            full_bytes: AtomicU64::new(0),
            full_peak: AtomicU64::new(0),
            flushed: Mutex::new(FlushedCounters::default()),
        });
        let joins = (0..nthreads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pm-worker-{i}"))
                    .spawn(move || worker::worker_main(i, shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            nthreads,
            shared,
            joins,
        }
    }

    /// Number of pooled workers.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The admission cap: maximum concurrently live runs.
    pub fn max_inflight(&self) -> usize {
        lock(&self.shared.sched).max_inflight
    }

    /// Submits a [`RunRequest`] and returns immediately; the run executes
    /// on the pool, concurrently with any other live runs, scheduled by
    /// its priority and deadline.
    ///
    /// Blocks only while the engine is at its `max_inflight` admission cap
    /// and the request's [`OverloadPolicy`] says to wait. The admission
    /// slot is reserved *before* the run's buffers are allocated, so a
    /// backlog of blocked submitters holds no memory.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] when the inputs do not match the program's
    /// images, or [`VmError::Cancelled`] when admission rejected the run
    /// (fail-fast shed, deadline expired while blocked, engine shutting
    /// down). Execution-time failures surface from [`RunHandle::join`].
    pub fn submit(&self, req: RunRequest<'_>) -> Result<RunHandle, VmError> {
        let submitted = Instant::now();
        validate_inputs(req.prog, req.inputs)?;
        let req_threads = req.threads.unwrap_or(self.nthreads).max(1);
        let effective = req_threads.min(self.nthreads);
        let shared = &*self.shared;

        let incoming = Incoming {
            priority: req.priority,
            deadline: req.deadline,
            overload: req.overload,
        };
        let mut sched = lock(&shared.sched);
        // At most one victim per submission; after that it waits for the
        // victim's slot like `Block` (the victim drains within about one
        // tile).
        let mut may_shed = true;
        loop {
            let now = Instant::now();
            let has_room = sched.inflight < sched.max_inflight;
            match policy::admit(
                &sched.runs,
                has_room,
                sched.shutdown,
                incoming,
                may_shed,
                now,
            ) {
                Admission::Admit => break,
                Admission::Reject(reason) => {
                    sched.count_cancel(reason);
                    sched.counters.sheds += (reason == CancelReason::Shed) as u64;
                    return Err(VmError::Cancelled { reason });
                }
                Admission::Shed { victim, reason } => {
                    may_shed = false;
                    let ctx = Arc::clone(&sched.runs[victim].run.ctx);
                    if shared.cancel_run(&mut sched, &ctx, reason) {
                        sched.counters.sheds += 1;
                    }
                }
                // Deadline-bearing submitters sleep with a timeout so their
                // own expiry is noticed without external wakeups.
                Admission::Wait(until) => {
                    let timeout = until.map(|u| u.saturating_duration_since(now));
                    sched = wait_on(&shared.admit_cv, sched, timeout);
                }
            }
        }
        sched.inflight += 1;
        drop(sched);

        // The slot is reserved; only now allocate the run's buffers.
        let run_id = shared.next_run_id.fetch_add(1, Ordering::Relaxed);
        let run = Arc::new(RunContext::new(
            shared,
            run_id,
            req,
            req_threads,
            effective,
            submitted,
        ));
        let live = LiveRun {
            ctx: Arc::clone(&run),
            task: None,
        };
        let Incoming {
            priority, deadline, ..
        } = incoming;
        let slot = RunSlot::new(run_id, priority, deadline, submitted, effective, live);
        let mut sched = lock(&shared.sched);
        policy::insert(&mut sched.runs, slot);
        shared.work_cv.notify_all();
        drop(sched);
        Ok(RunHandle {
            run,
            shared: Arc::downgrade(&self.shared),
        })
    }

    /// A snapshot of the shared buffer pool's counters
    /// ([`PoolStats::retained_bytes`] included) — the serving-layer leak
    /// check: after every handle resolves, retained bytes must equal what
    /// the pool actually holds (see
    /// [`Engine::pool_audit_retained_bytes`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Recounts the pooled bytes by walking the shards (O(free lists));
    /// equals [`PoolStats::retained_bytes`] unless accounting has leaked.
    pub fn pool_audit_retained_bytes(&self) -> usize {
        self.shared.pool.audit_retained_bytes()
    }

    /// Bytes of full buffers currently held by live runs (engine-global).
    /// Zero when the engine is idle — cancelled runs release their
    /// buffers at completion like finished ones.
    pub fn live_full_bytes(&self) -> u64 {
        self.shared.full_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let mut sched = lock(&self.shared.sched);
            sched.shutdown = true;
            // Workers drain every pending run before exiting, so
            // outstanding `RunHandle`s stay redeemable.
            self.shared.work_cv.notify_all();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}
