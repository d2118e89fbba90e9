//! The pool worker: a loop that asks the policy for a claim under the
//! scheduler lock, then executes it — a strip, a reduction chunk, or an
//! advance step — with no scheduler lock held.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::policy::{self, ClaimKind};
use super::run::{advance, ReduceTask, RunContext, RunState, Task, TiledTask};
use super::{lock, panic_error, wait_on, Shared};
use crate::exec::{full_views, row_size, run_tile, sweep_reduction, LocalStats, SlabPart};
use crate::pool::BufferPool;
use crate::{GroupKind, RegFile};

/// Per-worker, per-run execution state: the scratch arena for the run's
/// current tiled group and a persistent register file. Keyed by `run_id`
/// so interleaving strips from different runs never share kernel state
/// (the register file's uniform-row cache is additionally epoch-guarded,
/// but keeping it per run makes the isolation structural).
struct WorkerRun {
    group: usize,
    /// Packed scratch arena for the run's current tiled group (slot
    /// offsets come from the group's [`crate::ScratchSlots`]).
    arena: Vec<f32>,
    regs: RegFile,
}

/// Worker-local per-run states are evicted wholesale past this count (a
/// worker rarely interleaves more than a handful of live runs; the cap
/// only bounds leakage from completed runs the worker never revisits).
const WORKER_RUN_CAP: usize = 16;

/// What one worker keeps between claims.
struct Local {
    /// Arena freelist, reused across strips, groups, and runs.
    arena_pool: BufferPool,
    runs: HashMap<u64, WorkerRun>,
}

pub(super) fn worker_main(index: usize, shared: Arc<Shared>) {
    let mut local = Local {
        arena_pool: BufferPool::new(),
        runs: HashMap::new(),
    };
    loop {
        let (run, kind, task) = {
            let mut sched = lock(&shared.sched);
            loop {
                if sched.shutdown && sched.runs.is_empty() {
                    return;
                }
                let now = Instant::now();
                if let Some(claim) = policy::next_claim(&mut sched.runs, index, now) {
                    sched.counters.preempts += claim.preempts as u64;
                    let live = &mut sched.runs[claim.run].run;
                    // An advance takes the scheduler's handle on the
                    // drained task with it (see `recover_reads`).
                    let task = match claim.kind {
                        ClaimKind::Unit { .. } => live.task.clone(),
                        ClaimKind::Advance { .. } => live.task.take(),
                    };
                    break (Arc::clone(&live.ctx), claim.kind, task);
                }
                // Nothing claimable: sleep until notified (see the wake-up
                // invariant in the module docs) or until the next pending
                // deadline has to be latched.
                let timeout = policy::next_wakeup(&sched.runs, now)
                    .map(|at| at.saturating_duration_since(now));
                sched = wait_on(&shared.work_cv, sched, timeout);
            }
        };
        match (kind, task) {
            (ClaimKind::Advance { finalize }, task) => {
                drop(task);
                advance(&shared, &run, finalize);
            }
            (ClaimKind::Unit { unit, slot }, Some(task)) => {
                exec_task(&shared, &run, task, unit, slot, &mut local)
            }
            (ClaimKind::Unit { .. }, None) => unreachable!("units exist only for a published task"),
        }
    }
}

/// The per-worker scratch/register state for one run's current group,
/// (re)built on group change (`arena_len` is 0 for a reduction, which
/// needs only the register file).
fn worker_run_state<'a>(
    local: &'a mut Local,
    run: &RunContext,
    group: usize,
    arena_len: usize,
) -> &'a mut WorkerRun {
    let Local { arena_pool, runs } = local;
    if runs.len() >= WORKER_RUN_CAP && !runs.contains_key(&run.run_id) {
        for (_, wr) in runs.drain() {
            arena_pool.release(wr.arena);
        }
    }
    let wr = runs.entry(run.run_id).or_insert_with(|| WorkerRun {
        group: usize::MAX,
        arena: Vec::new(),
        regs: RegFile::new(),
    });
    if wr.group != group {
        arena_pool.release(std::mem::take(&mut wr.arena));
        // Packed scratch arena, zero-filled exactly like a fresh
        // allocation (consumers may read the zeroed border of a producer's
        // region).
        wr.arena = arena_pool.acquire_zeroed(arena_len);
        wr.group = group;
    }
    wr
}

/// Executes unit `unit` of a published task: a strip of a tiled group or
/// a chunk of a reduction.
fn exec_task(
    shared: &Shared,
    run: &Arc<RunContext>,
    task: Task,
    unit: usize,
    slot: usize,
    local: &mut Local,
) {
    match task {
        Task::Tiled(task) => exec_unit(
            shared,
            run,
            slot,
            move || run_strip(shared, run, &task, unit, local),
            |st, product| merge_strip(shared, run, st, product),
        ),
        Task::Reduce(task) => exec_unit(
            shared,
            run,
            slot,
            move || run_chunk(shared, run, &task, unit, local),
            |st, (part, stats)| {
                st.red_parts[unit] = Some(part);
                stats
            },
        ),
    }
}

/// Executes one claimed unit: `compute` runs with no lock held (a panic
/// in it fails the run, not the worker), then `merge` folds its product
/// into the run under the run's own lock and says what to count.
fn exec_unit<T>(
    shared: &Shared,
    run: &Arc<RunContext>,
    slot: usize,
    compute: impl FnOnce() -> T,
    merge: impl FnOnce(&mut RunState, T) -> LocalStats,
) {
    let start = Instant::now();
    // `compute` owns the worker's handle on the task (`exec_task` moves it
    // in), so the handle is gone before the unit finishes — the last
    // finisher must find the read snapshots unshared (`recover_reads`).
    let res = catch_unwind(AssertUnwindSafe(compute));
    let busy = start.elapsed();

    let mut st = lock(&run.state);
    let failed = match res {
        Ok(product) => {
            let stats = merge(&mut st, product);
            absorb_local(&mut st, slot, &stats, busy);
            false
        }
        Err(p) => {
            // The run completes with the first error once outstanding
            // work drains.
            st.failed.get_or_insert_with(|| panic_error(p));
            true
        }
    };
    drop(st);
    finish_unit(shared, run, failed);
}

/// Stitches one strip's slabs into the run's full buffers by position.
fn merge_strip(
    shared: &Shared,
    run: &RunContext,
    st: &mut RunState,
    (parts, stats): (Vec<SlabPart>, LocalStats),
) -> LocalStats {
    for part in parts {
        let decl = &run.prog.buffers[part.buf.0];
        let off = ((part.row_lo - decl.origin[0]) * row_size(decl)) as usize;
        st.fulls[part.buf.0][off..off + part.data.len()].copy_from_slice(&part.data);
        shared.pool.release(part.data);
    }
    stats
}

/// Closes out one unit under the scheduler lock; the worker that drains
/// the task finalizes it (and keeps advancing the run) inline. A unit
/// that is not the last makes nothing new claimable, so nobody is woken.
fn finish_unit(shared: &Shared, run: &Arc<RunContext>, failed: bool) {
    let drained = {
        let mut sched = lock(&shared.sched);
        let slot = sched
            .slot_mut(run.run_id)
            .expect("a run with an outstanding unit is live");
        let drained = slot.finish_unit(failed);
        if drained {
            slot.run.task = None;
        }
        drained
    };
    if drained {
        advance(shared, run, true);
    }
}

fn read_refs(reads: &[Option<Arc<Vec<f32>>>]) -> Vec<Option<&[f32]>> {
    reads
        .iter()
        .map(|r| r.as_deref().map(Vec::as_slice))
        .collect()
}

/// Computes one strip of a tiled group into pool-backed slabs.
fn run_strip(
    shared: &Shared,
    run: &RunContext,
    task: &TiledTask,
    strip: usize,
    local: &mut Local,
) -> (Vec<SlabPart>, LocalStats) {
    let prog = &*run.prog;
    let GroupKind::Tiled(tg) = &prog.groups[task.group].kind else {
        panic!("strip work targets a non-tiled group");
    };
    let ws = worker_run_state(local, run, task.group, tg.slots.arena_len);
    ws.regs.set_simd(prog.simd);
    let read_refs = read_refs(&task.reads);

    // Pool-backed slabs for every written stage this strip covers. Strips
    // are disjoint along dimension 0 and tile stores exactly partition the
    // stage domain, so every element of a strip's slab is written before
    // the run reads it — the zero-fill can be skipped. Exception: a
    // *direct* stage stores only at points its (possibly guarded) cases
    // cover, so unless one case spans the whole domain unconditionally its
    // slab must start zeroed (the zero-for-undefined border convention).
    let mut parts: Vec<SlabPart> = Vec::new();
    for &(k, b) in &task.written {
        if let Some((lo, hi)) = task.strip_rows[k][strip] {
            let len = ((hi - lo + 1) * row_size(&prog.buffers[b.0])) as usize;
            let stage = &tg.stages[k];
            let data = if stage.direct && !stage.covers_domain() {
                shared.pool.acquire_zeroed(len)
            } else {
                shared.pool.acquire(len)
            };
            parts.push(SlabPart {
                stage: k,
                buf: b,
                row_lo: lo,
                data,
            });
        }
    }
    let mut stats = LocalStats::default();
    let tiles = &task.tiles_by_strip[strip];
    for (n, &ti) in tiles.iter().enumerate() {
        // Tile-boundary cancellation point: the finest-grained check.
        // A cancelled strip merges what it computed (the run's result is
        // discarded anyway) and reports the tiles it abandoned.
        if run.cancel_reason().is_some() {
            stats.cancelled_tiles += (tiles.len() - n) as u64;
            break;
        }
        stats.tiles += 1;
        run_tile(
            prog,
            tg,
            &tg.tiles[ti],
            &read_refs,
            &mut parts,
            &mut ws.arena,
            &mut ws.regs,
            &mut stats,
        );
    }
    stats.eval = ws.regs.take_counters();
    (parts, stats)
}

/// Computes one reduction chunk into a pool-backed, identity-filled
/// partial.
fn run_chunk(
    shared: &Shared,
    run: &RunContext,
    task: &ReduceTask,
    chunk: usize,
    local: &mut Local,
) -> (Vec<f32>, LocalStats) {
    let prog = &*run.prog;
    let GroupKind::Reduction(red) = &prog.groups[task.group].kind else {
        panic!("chunk work targets a non-reduction group");
    };
    let read_refs = read_refs(&task.reads);
    let views = full_views(prog, &red.name, &red.reads, &read_refs);
    let (lo, hi) = task.chunks[chunk];
    // The fill overwrites every element, so no zero-fill is needed.
    let mut part = shared.pool.acquire(task.out_len);
    part.fill(task.identity);
    // Chunk-level cancellation point: a cancelled run's combine step is
    // skipped anyway, so an identity-filled partial is as good as a swept
    // one and costs nothing.
    let mut stats = LocalStats::default();
    if run.cancel_reason().is_some() {
        return (part, stats);
    }
    let mut dom = red.red_dom.clone();
    *dom.range_mut(0) = (lo, hi);
    let ws = worker_run_state(local, run, task.group, 0);
    sweep_reduction(prog, red, &views, &dom, &mut part, &mut ws.regs);
    // Run statistics count chunks, load classes and SIMD lanes of tiled
    // groups only; of what the register file gathered here, only how the
    // scatter targets were addressed is carried. Every reduction sweeps
    // here, so that count does not depend on the thread count.
    let eval = ws.regs.take_counters();
    stats.eval.index_lanes_vector = eval.index_lanes_vector;
    stats.eval.index_lanes_scalar = eval.index_lanes_scalar;
    (part, stats)
}

/// Merges one unit's counters into the run statistics at its
/// participation slot.
fn absorb_local(st: &mut RunState, slot: usize, local: &LocalStats, busy: Duration) {
    st.stats.tiles += local.tiles;
    st.stats.cancelled_tiles += local.cancelled_tiles;
    st.stats.chunks += local.chunks;
    st.stats.points_computed += local.points;
    st.stats.uniform_hits += local.eval.uniform_hits;
    st.stats.uniform_misses += local.eval.uniform_misses;
    st.stats.loads.merge(&local.eval.loads);
    st.stats.simd_lanes_avx2 += local.eval.simd_lanes_avx2;
    st.stats.simd_lanes_sse2 += local.eval.simd_lanes_sse2;
    st.stats.simd_lanes_neon += local.eval.simd_lanes_neon;
    st.stats.simd_lanes_scalar += local.eval.simd_lanes_scalar;
    st.stats.index_lanes_vector += local.eval.index_lanes_vector;
    st.stats.index_lanes_scalar += local.eval.index_lanes_scalar;
    st.stats.worker_tiles[slot] += local.tiles;
    st.stats.worker_busy[slot] += busy;
    st.group_worker[slot].0 += local.tiles;
    st.group_worker[slot].1 += busy;
}
