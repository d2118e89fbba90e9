//! One run: its context, its result-side state, and the steps that drive
//! it between tasks — advance (set up the next group, run sequential ones
//! inline), finalize (a drained task), complete (publish and leave).
//!
//! Claim state lives in the scheduler (`policy::RunSlot`); this module
//! takes the scheduler lock only to publish a task or to leave, and never
//! while it holds the run's own state lock.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::{lock, panic_error, RunRequest, SchedCounters, Shared};
use crate::exec::{decl_rect, execute_seq, strip_layout, written_stages, StripRows};
use crate::{
    reduction_chunks, BufId, BufKind, Buffer, CancelReason, GroupKind, Program, RunStats, VmError,
};
use polymage_diag::{Counter, Diag, Span, Value};

/// Shared state of one tiled-group execution (one run, one group).
pub(super) struct TiledTask {
    /// Index of the [`GroupKind::Tiled`] group in the run's program.
    pub group: usize,
    /// Snapshot of every buffer the group does not write (read-only).
    pub reads: Vec<Option<Arc<Vec<f32>>>>,
    /// `(stage index, full buffer)` pairs the group writes.
    pub written: Vec<(usize, BufId)>,
    pub strip_rows: StripRows,
    pub tiles_by_strip: Vec<Vec<usize>>,
}

/// Shared state of one parallel-reduction execution.
pub(super) struct ReduceTask {
    /// Index of the [`GroupKind::Reduction`] group in the run's program.
    pub group: usize,
    pub reads: Vec<Option<Arc<Vec<f32>>>>,
    /// Outer-dimension chunks, ascending; claimed by index.
    pub chunks: Vec<(i64, i64)>,
    pub out_len: usize,
    pub identity: f32,
}

/// The task a run has published to the scheduler.
#[derive(Clone)]
pub(super) enum Task {
    Tiled(Arc<TiledTask>),
    Reduce(Arc<ReduceTask>),
}

/// The latched cancellation signal of one run: 0 = live, otherwise the
/// discriminant of the first [`CancelReason`] + 1. Written at most once
/// (first signal wins) and read lock-free at every cancellation point.
pub(super) struct CancelCell(AtomicU8);

impl CancelCell {
    pub fn get(&self) -> Option<CancelReason> {
        match self.0.load(Ordering::Acquire) {
            0 => None,
            1 => Some(CancelReason::Caller),
            2 => Some(CancelReason::Deadline),
            3 => Some(CancelReason::Shutdown),
            _ => Some(CancelReason::Shed),
        }
    }

    /// Latches `reason` if no reason is set yet; returns whether this call
    /// was the one that set it.
    pub fn set(&self, reason: CancelReason) -> bool {
        let code = match reason {
            CancelReason::Caller => 1,
            CancelReason::Deadline => 2,
            CancelReason::Shutdown => 3,
            CancelReason::Shed => 4,
        };
        self.0
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// What a claim's *result* touches: buffers, statistics, the failure
/// latch, reduction partials. Locked by the advancing worker and by
/// workers merging a finished unit — never by a scheduler scan or a join.
pub(super) struct RunState {
    pub fulls: Vec<Vec<f32>>,
    /// Index of the group being set up / executed.
    group: usize,
    pub stats: RunStats,
    /// Per-slot (tiles, busy) for the current group's diag worker events.
    pub group_worker: Vec<(u64, Duration)>,
    /// The coordinator-side handle on buffers snapshotted into the current
    /// task; recovered via `Arc::try_unwrap` at finalization.
    reads_keep: Vec<Option<Arc<Vec<f32>>>>,
    /// First failure (worker panic or internal error).
    pub failed: Option<VmError>,
    /// Bytes of this run's full buffers currently resident (the peak goes
    /// to `stats.peak_full_bytes`).
    cur_full_bytes: u64,
    /// Reduction partials by chunk index.
    pub red_parts: Vec<Option<Vec<f32>>>,
    group_start: Instant,
    group_span: Option<Span>,
    run_span: Option<Span>,
}

/// What `join` receives: the result and the statistics, even on failure.
pub(super) type Outcome = (Result<Vec<Buffer>, VmError>, RunStats);

/// One concurrent run: its program, its thread policy, and all of its
/// mutable execution state.
pub(super) struct RunContext {
    pub run_id: u64,
    pub prog: Arc<Program>,
    /// Requested thread count: fixes reduction chunk boundaries, so the
    /// result is bit-identical to a single-worker run with the same count.
    req_threads: usize,
    /// Per buffer: provably overwritten in full before being read, so its
    /// (lazy or eager) acquisition may skip the zero-fill.
    overwritten: Vec<bool>,
    priority: super::Priority,
    deadline: Option<Instant>,
    /// When `Engine::submit` accepted the request (admission wait included
    /// — `sched_wait` measures the full submit-to-first-claim delay).
    submitted: Instant,
    /// Whether per-group times / per-worker utilization are recorded.
    group_stats: bool,
    pub cancel: CancelCell,
    diag: Diag,
    pub state: Mutex<RunState>,
    /// The hand-off to `join`: written once, by `complete_run`.
    pub outcome: Mutex<Option<Outcome>>,
    pub done_cv: Condvar,
}

impl RunContext {
    /// Allocates the run's whole-run buffers from the shared pool, copies
    /// the inputs in, and opens its diag span. `effective` is
    /// `min(req_threads, pool size)`: the length of `RunStats`' per-worker
    /// vectors.
    pub fn new(
        shared: &Shared,
        run_id: u64,
        req: RunRequest<'_>,
        req_threads: usize,
        effective: usize,
        submitted: Instant,
    ) -> RunContext {
        let prog = req.prog;
        let run_span = req.diag.begin();
        // Buffers the run provably overwrites in full skip the zero-fill:
        // input images are copied whole below, tiled sinks' tile stores
        // exactly partition a buffer sized exactly to the stage domain
        // (the validator's coverage invariant), and a reduction output is
        // replaced by its one partial or filled with the identity before
        // the partials combine into it. Sequential-scan
        // outputs stay zero-filled — they may write partially and read
        // their own zero-for-undefined border.
        let mut overwritten = vec![false; prog.buffers.len()];
        for &b in &prog.image_bufs {
            overwritten[b.0] = true;
        }
        for group in &prog.groups {
            match &group.kind {
                GroupKind::Tiled(tg) => {
                    for b in tg.stages.iter().filter_map(|s| s.full) {
                        overwritten[b.0] = true;
                    }
                }
                GroupKind::Reduction(red) => overwritten[red.out.0] = true,
                GroupKind::Sequential(_) => {}
            }
        }
        // Only buffers the storage plan scopes to the whole run (input
        // images, live-outs, and everything under the run-scoped plan)
        // materialize here; the rest acquire lazily when the group walk
        // first reaches their `acquire_group`.
        let mut acquired_bytes = 0u64;
        let mut fulls: Vec<Vec<f32>> = prog
            .buffers
            .iter()
            .enumerate()
            .map(|(i, b)| match b.kind {
                BufKind::Full if prog.storage.acquire_group[i].is_none() => {
                    acquired_bytes += (b.len() * 4) as u64;
                    acquire_full(shared, b.len(), overwritten[i])
                }
                BufKind::Full | BufKind::Scratch => Vec::new(),
            })
            .collect();
        for (&b, input) in prog.image_bufs.iter().zip(req.inputs) {
            fulls[b.0].copy_from_slice(&input.data);
        }
        shared.add_full_bytes(acquired_bytes);

        RunContext {
            run_id,
            prog: Arc::clone(prog),
            req_threads,
            overwritten,
            priority: req.priority,
            deadline: req.deadline,
            submitted,
            group_stats: req.group_stats,
            cancel: CancelCell(AtomicU8::new(0)),
            diag: req.diag,
            state: Mutex::new(RunState {
                fulls,
                group: 0,
                stats: RunStats {
                    worker_tiles: vec![0; effective],
                    worker_busy: vec![Duration::ZERO; effective],
                    peak_full_bytes: acquired_bytes,
                    ..RunStats::default()
                },
                group_worker: vec![(0, Duration::ZERO); effective],
                reads_keep: vec![None; prog.buffers.len()],
                failed: None,
                cur_full_bytes: acquired_bytes,
                red_parts: Vec::new(),
                group_start: submitted,
                group_span: None,
                run_span: Some(run_span),
            }),
            outcome: Mutex::new(None),
            done_cv: Condvar::new(),
        }
    }

    /// The run's live cancellation signal; converts deadline expiry into a
    /// latched [`CancelReason::Deadline`] on first observation, so every
    /// cancellation point doubles as a deadline check.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        if let Some(r) = self.cancel.get() {
            return Some(r);
        }
        if self.deadline.is_some_and(|dl| Instant::now() >= dl) {
            self.cancel.set(CancelReason::Deadline);
            return self.cancel.get();
        }
        None
    }
}

fn acquire_full(shared: &Shared, len: usize, overwritten: bool) -> Vec<f32> {
    if overwritten {
        shared.pool.acquire(len)
    } else {
        shared.pool.acquire_zeroed(len)
    }
}

/// Advances a run: finalizes the task that just drained (`finalize`),
/// executes sequential groups inline, publishes the next claimable task,
/// or completes the run. Exactly one worker is ever inside this for a
/// given run (`Phase::Advancing`).
pub(super) fn advance(shared: &Shared, run: &Arc<RunContext>, finalize: bool) {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        advance_inner(shared, run, finalize)
    }));
    if let Err(p) = res {
        // A panic while advancing (sequential group, finalization) fails
        // the run. `advance_inner` returns right after every
        // `complete_run`, so nothing was published yet; the state may be
        // mid-transition but is never read again past `complete_run`.
        complete_run(shared, run, Err(panic_error(p)));
    }
}

fn advance_inner(shared: &Shared, run: &Arc<RunContext>, finalize: bool) {
    let prog = &*run.prog;
    let mut st = lock(&run.state);
    if finalize {
        // A halted task has holes (skipped strips, missing partials):
        // latch why, so finalization neither combines nor recovers.
        if st.failed.is_none() {
            st.failed = run
                .cancel_reason()
                .map(|reason| VmError::Cancelled { reason });
        }
        if st.failed.is_none() {
            if let GroupKind::Reduction(red) = &prog.groups[st.group].kind {
                combine_partials(shared, red, &mut st);
            }
        }
        if st.failed.is_none() {
            recover_reads(&mut st);
        }
        end_group(shared, run, &mut st);
    } else {
        // The one advance without a task behind it is the first pickup.
        st.stats.sched_wait = run.submitted.elapsed();
    }
    if let Some(err) = st.failed.take() {
        drop(st);
        return complete_run(shared, run, Err(err));
    }

    // Walk groups until the run blocks on claimable work or completes.
    // Each iteration is a cancellation point (group-advance granularity):
    // a cancel or deadline signal stops the walk before the next group's
    // buffers are even acquired.
    loop {
        if let Some(reason) = run.cancel_reason() {
            drop(st);
            return complete_run(shared, run, Err(VmError::Cancelled { reason }));
        }
        if st.group == prog.groups.len() {
            let outputs = prog
                .outputs
                .iter()
                .map(|(_, b)| {
                    Buffer::from_vec(decl_rect(&prog.buffers[b.0]), st.fulls[b.0].clone())
                })
                .collect();
            drop(st);
            return complete_run(shared, run, Ok(outputs));
        }
        let gi = st.group;
        acquire_for_group(shared, run, &mut st, gi);
        begin_group(run, &mut st);
        let (task, units) = match &prog.groups[gi].kind {
            // A scan has no claimable units: it runs right here, under the
            // state lock — nobody else wants it while the run is
            // `Advancing`.
            GroupKind::Sequential(seq) => {
                execute_seq(prog, seq, &mut st.fulls);
                end_group(shared, run, &mut st);
                continue;
            }
            GroupKind::Reduction(red) => {
                let chunks = reduction_chunks(red.red_dom.range(0), run.req_threads);
                st.red_parts = chunks.iter().map(|_| None).collect();
                let units = vec![1; chunks.len()];
                let task = Task::Reduce(Arc::new(ReduceTask {
                    group: gi,
                    reads: snapshot_reads(&mut st, &[red.out.0]),
                    out_len: st.fulls[red.out.0].len(),
                    identity: red.op.identity(),
                    chunks,
                }));
                (task, units)
            }
            GroupKind::Tiled(tg) => {
                let written = match written_stages(tg) {
                    Ok(written) => written,
                    Err(e) => {
                        end_group(shared, run, &mut st);
                        drop(st);
                        return complete_run(shared, run, Err(e));
                    }
                };
                let (strip_rows, tiles_by_strip) = strip_layout(tg);
                let written_bufs: Vec<usize> = written.iter().map(|&(_, b)| b.0).collect();
                let units = tiles_by_strip.iter().map(|t| t.len() as u64).collect();
                let task = Task::Tiled(Arc::new(TiledTask {
                    group: gi,
                    reads: snapshot_reads(&mut st, &written_bufs),
                    written,
                    strip_rows,
                    tiles_by_strip,
                }));
                (task, units)
            }
        };
        drop(st);
        return publish(shared, run, task, units);
    }
}

/// Hands a task to the scheduler. This is the one place claimable units
/// appear mid-run, hence the notification.
fn publish(shared: &Shared, run: &RunContext, task: Task, unit_tiles: Vec<u64>) {
    let mut sched = lock(&shared.sched);
    let slot = sched
        .slot_mut(run.run_id)
        .expect("an advancing run is live");
    slot.run.task = Some(task);
    slot.publish(unit_tiles);
    shared.work_cv.notify_all();
}

/// Combines a drained reduction's partials into its output. One partial
/// *is* the output (a single sweep from the identity, bit for bit). More
/// are combined into an identity-filled output in ascending chunk order,
/// whichever worker finished first, for bit-identical float results.
fn combine_partials(shared: &Shared, red: &crate::ReductionExec, st: &mut RunState) {
    // No partial at all would leave the output never swept.
    if st.red_parts.is_empty() || st.red_parts.iter().any(Option::is_none) {
        st.failed = Some(VmError::Internal("reduction chunk lost".into()));
        return;
    }
    let mut parts: Vec<Vec<f32>> = st.red_parts.drain(..).flatten().collect();
    let out = &mut st.fulls[red.out.0];
    if parts.len() == 1 {
        shared.pool.release(std::mem::replace(out, parts.remove(0)));
    } else {
        out.fill(red.op.identity());
        for part in parts {
            for (o, p) in out.iter_mut().zip(&part) {
                *o = red.op.combine(*o, *p);
            }
            shared.pool.release(part);
        }
    }
    red.op.finish(out);
}

/// Materializes the full buffers whose narrowed lifetime starts at group
/// `gi` (the group walk visits each group index exactly once). Under the
/// run-scoped plan this is a no-op.
fn acquire_for_group(shared: &Shared, run: &RunContext, st: &mut RunState, gi: usize) {
    for (i, b) in run.prog.buffers.iter().enumerate() {
        if b.kind == BufKind::Full && run.prog.storage.acquire_group[i] == Some(gi) {
            debug_assert!(st.fulls[i].is_empty());
            st.fulls[i] = acquire_full(shared, b.len(), run.overwritten[i]);
            let bytes = (b.len() * 4) as u64;
            st.cur_full_bytes += bytes;
            st.stats.peak_full_bytes = st.stats.peak_full_bytes.max(st.cur_full_bytes);
            shared.add_full_bytes(bytes);
        }
    }
}

/// Moves every full buffer the current task does not write behind an
/// `Arc` snapshot workers can read without the run lock; the run keeps a
/// second handle in `reads_keep` for recovery at finalization.
fn snapshot_reads(st: &mut RunState, written: &[usize]) -> Vec<Option<Arc<Vec<f32>>>> {
    let mut reads: Vec<Option<Arc<Vec<f32>>>> = vec![None; st.fulls.len()];
    for (i, v) in st.fulls.iter_mut().enumerate() {
        if !written.contains(&i) {
            let arc = Arc::new(std::mem::take(v));
            st.reads_keep[i] = Some(Arc::clone(&arc));
            reads[i] = Some(arc);
        }
    }
    reads
}

/// Recovers the read snapshots back into `fulls`. All task handles are
/// dropped by the time a group finalizes, so each `Arc` is uniquely owned
/// again; a still-shared buffer fails the run.
fn recover_reads(st: &mut RunState) {
    for i in 0..st.reads_keep.len() {
        if let Some(a) = st.reads_keep[i].take() {
            match Arc::try_unwrap(a) {
                Ok(v) => st.fulls[i] = v,
                Err(_) => {
                    st.failed = Some(VmError::Internal("buffer still shared after group".into()));
                    return;
                }
            }
        }
    }
}

/// Opens the current group: wall-clock start and (when tracing) its span.
fn begin_group(run: &RunContext, st: &mut RunState) {
    st.group_start = Instant::now();
    st.group_span = run.diag.enabled().then(|| run.diag.begin());
    st.group_worker.fill((0, Duration::ZERO));
}

/// Closes the current group: records its wall time, emits its span and
/// per-worker events (all stamped with the run id), releases full buffers
/// whose last consumer just ran, and moves to the next group.
fn end_group(shared: &Shared, run: &RunContext, st: &mut RunState) {
    let prog = &run.prog;
    let group = &prog.groups[st.group];
    if run.group_stats {
        st.stats
            .group_times
            .push((group.name.clone(), st.group_start.elapsed()));
    }
    if run.diag.enabled() {
        for (slot, &(tiles, busy)) in st.group_worker.iter().enumerate() {
            if tiles == 0 && busy.is_zero() {
                continue;
            }
            run.diag.event(
                "worker",
                vec![
                    ("run_id", Value::UInt(run.run_id)),
                    ("group", Value::Str(group.name.clone())),
                    ("worker", Value::UInt(slot as u64)),
                    ("tiles", Value::UInt(tiles)),
                    ("busy_us", Value::UInt(busy.as_micros() as u64)),
                ],
            );
        }
        if let Some(span) = st.group_span.take() {
            let kind = match &group.kind {
                GroupKind::Tiled(_) => "tiled",
                GroupKind::Reduction(_) => "reduction",
                GroupKind::Sequential(_) => "sequential",
            };
            run.diag.end(
                span,
                "group",
                vec![
                    ("run_id", Value::UInt(run.run_id)),
                    ("name", Value::Str(group.name.clone())),
                    ("kind", Value::Str(kind.to_string())),
                ],
            );
        }
    }
    // Liveness-driven early release: buffers whose last consumer was this
    // group go back to the pool now instead of at run completion. On a
    // failed run the snapshot entries are empty and skipped (the Arcs in
    // `reads_keep` are recycled at completion).
    let gi = st.group;
    for (i, b) in prog.buffers.iter().enumerate() {
        if b.kind == BufKind::Full && prog.storage.release_group[i] == Some(gi) {
            let v = std::mem::take(&mut st.fulls[i]);
            if v.is_empty() {
                continue;
            }
            let bytes = (b.len() * 4) as u64;
            st.cur_full_bytes = st.cur_full_bytes.saturating_sub(bytes);
            shared.full_bytes.fetch_sub(bytes, Ordering::Relaxed);
            st.stats.early_releases += 1;
            shared.pool.release(v);
        }
    }
    st.group += 1;
}

/// Releases a run's buffers, removes it from the scheduler (freeing its
/// admission slot), flushes diagnostics and — last — publishes the outcome
/// to `join`. One lock at a time, in that order: a submitter admitted into
/// the freed slot finds the buffers already back in the pool, and a joiner
/// that returns finds the run gone from the engine.
fn complete_run(shared: &Shared, run: &RunContext, result: Result<Vec<Buffer>, VmError>) {
    let (mut stats, run_span) = {
        let mut st = lock(&run.state);
        for v in st.fulls.drain(..) {
            shared.pool.release(v);
        }
        shared
            .full_bytes
            .fetch_sub(st.cur_full_bytes, Ordering::Relaxed);
        st.cur_full_bytes = 0;
        // A cancelled/failed run skips `recover_reads`, so its snapshot
        // Arcs still hold pool-sized buffers here. All task handles are
        // gone by completion, so each unwraps cleanly and recycles —
        // cancellation releases every pooled buffer immediately, not just
        // the `fulls`.
        for a in st.reads_keep.drain(..).flatten() {
            if let Ok(v) = Arc::try_unwrap(a) {
                shared.pool.release(v);
            }
        }
        for part in st.red_parts.drain(..).flatten() {
            shared.pool.release(part);
        }
        (std::mem::take(&mut st.stats), st.run_span.take())
    };

    let cancelled = match &result {
        Err(VmError::Cancelled { reason }) => Some(*reason),
        _ => None,
    };
    let counters = {
        let mut sched = lock(&shared.sched);
        if let Some(i) = sched.runs.iter().position(|r| r.run_id == run.run_id) {
            let slot = sched.runs.remove(i);
            sched.inflight -= 1;
            if cancelled.is_some() {
                stats.cancelled_tiles += slot.skipped;
            }
        }
        if let Some(reason) = cancelled {
            sched.count_cancel(reason);
        }
        shared.admit_cv.notify_one();
        if sched.shutdown {
            // Workers exit once the last run has left.
            shared.work_cv.notify_all();
        }
        sched.counters
    };

    if let Some(span) = run_span.filter(|_| run.diag.enabled()) {
        flush_diag(shared, run, &stats, counters);
        let mut args = vec![
            ("run_id", Value::UInt(run.run_id)),
            ("program", Value::Str(run.prog.name.clone())),
            ("nthreads", Value::UInt(run.req_threads as u64)),
            ("tiles", Value::UInt(stats.tiles)),
            ("points", Value::UInt(stats.points_computed)),
            ("priority", Value::Str(run.priority.label().to_string())),
            (
                "sched_wait_us",
                Value::UInt(stats.sched_wait.as_micros() as u64),
            ),
        ];
        if let Some(dl) = run.deadline {
            // Relative to submission: the latency budget the caller gave
            // the run.
            let budget = dl.saturating_duration_since(run.submitted);
            args.push(("deadline_us", Value::UInt(budget.as_micros() as u64)));
        }
        match (&result, cancelled) {
            (Ok(_), _) => args.push(("status", Value::Str("ok".to_string()))),
            (_, Some(reason)) => {
                args.push(("status", Value::Str("cancelled".to_string())));
                args.push(("cancel_reason", Value::Str(reason.label().to_string())));
                args.push(("cancelled_tiles", Value::UInt(stats.cancelled_tiles)));
            }
            (Err(_), None) => args.push(("status", Value::Str("failed".to_string()))),
        }
        run.diag.end(span, "run", args);
    }

    *lock(&run.outcome) = Some((result, stats));
    run.done_cv.notify_all();
}

/// Snapshot of engine-global counters at the last diag flush.
#[derive(Default)]
pub(super) struct FlushedCounters {
    pool: crate::PoolStats,
    peak_full_bytes: u64,
    sched: SchedCounters,
}

/// Flushes one completed run's counters to its diag sink. Per-run counters
/// (tiles, evaluator) are exact. Pool, storage-peak and scheduler counters
/// are engine-global and monotone: each flush emits the delta since the
/// previous one, which under concurrency includes overlapping (and
/// untraced) runs' traffic — totals stay exact, attribution is per
/// completion.
fn flush_diag(shared: &Shared, run: &RunContext, stats: &RunStats, sched: SchedCounters) {
    let diag = &run.diag;
    let delta = |c: Counter, now: u64, seen: &mut u64| {
        diag.count(c, now.saturating_sub(*seen));
        *seen = (*seen).max(now);
    };
    let pool = shared.pool.stats();
    let peak = shared.full_peak.load(Ordering::Relaxed);
    let mut fl = lock(&shared.flushed);
    delta(Counter::PoolAcquire, pool.acquires, &mut fl.pool.acquires);
    delta(Counter::PoolReuse, pool.reuses, &mut fl.pool.reuses);
    delta(Counter::PoolDrop, pool.dropped, &mut fl.pool.dropped);
    delta(Counter::StoragePeakBytes, peak, &mut fl.peak_full_bytes);
    delta(
        Counter::SchedPreempt,
        sched.preempts,
        &mut fl.sched.preempts,
    );
    delta(Counter::SchedShed, sched.sheds, &mut fl.sched.sheds);
    delta(Counter::SchedCancel, sched.cancels, &mut fl.sched.cancels);
    delta(
        Counter::SchedDeadlineMiss,
        sched.deadline_misses,
        &mut fl.sched.deadline_misses,
    );
    drop(fl);
    for (c, n) in [
        (Counter::StorageEarlyRelease, stats.early_releases),
        (Counter::TileClaim, stats.tiles),
        (Counter::UniformHit, stats.uniform_hits),
        (Counter::UniformMiss, stats.uniform_misses),
        (Counter::LoadBroadcast, stats.loads.broadcast as u64),
        (Counter::LoadContiguous, stats.loads.contiguous as u64),
        (Counter::LoadStrided, stats.loads.strided as u64),
        (Counter::LoadGather, stats.loads.gather as u64),
        (Counter::SimdLanesAvx2, stats.simd_lanes_avx2),
        (Counter::SimdLanesSse2, stats.simd_lanes_sse2),
        (Counter::SimdLanesNeon, stats.simd_lanes_neon),
        (Counter::SimdLanesScalar, stats.simd_lanes_scalar),
        (Counter::IndexLanesVector, stats.index_lanes_vector),
        (Counter::IndexLanesScalar, stats.index_lanes_scalar),
    ] {
        diag.count(c, n);
    }
}
