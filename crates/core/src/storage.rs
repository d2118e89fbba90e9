//! Liveness-driven storage assignment (§3.6, second half).
//!
//! Scheduling gives every non-direct stage of a tiled group a private
//! scratchpad and every cross-group value a run-scoped full array. This
//! pass narrows both by liveness:
//!
//! - **Intra-group scratch folding.** Stages execute in a fixed order
//!   inside every tile, so a stage's scratchpad is live from its own
//!   evaluation until the last stage that reads it. Stages whose live
//!   ranges do not intersect can share one *slot* of the packed per-worker
//!   arena (greedy interval coloring; a slot is sized to its largest
//!   occupant and each occupant keeps its own relative-indexing geometry).
//!   This shrinks the per-tile working set toward cache size — the paper's
//!   reason tiling pays off at all.
//! - **Inter-group full-buffer release.** Each full buffer's lifetime is
//!   narrowed to `[first accessing group, last accessing group]`; the
//!   engine materializes it lazily and returns it to the pool right after
//!   its last consumer group, so deep pipelines (Pyramid Blending,
//!   Local Laplacian) no longer hold every intermediate to the end of the
//!   run. Input images stay materialized from submission (their data is
//!   copied in up front) and live-outs to completion (they are cloned into
//!   the result).
//!
//! Both transformations are value-invisible: tests compare every folded
//! program with the reference interpreter bit for bit.

use crate::Schedule;
use polymage_graph::PipelineGraph;
use polymage_ir::{FuncId, Pipeline};
use polymage_vm::{
    BufDecl, BufId, BufKind, GroupKind, Program, ScratchSlots, SlotRange, StoragePlan, TiledGroup,
};

/// Where one stage of a tiled group stores its values (§3.6, first half):
/// the one classification the planner and the cache model share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageStorage {
    /// Also stored to a full array: a live-out, read by another group, or
    /// any stage under a schedule without scratchpads.
    pub needs_full: bool,
    /// Full-stored with no in-group reader: written straight to the full
    /// array, with no scratchpad.
    pub direct: bool,
}

impl StageStorage {
    /// Classifies stage `f` of the group whose members are `stages`.
    pub(crate) fn of(
        pipe: &Pipeline,
        graph: &PipelineGraph,
        stages: &[FuncId],
        f: FuncId,
        schedule: Schedule,
    ) -> StageStorage {
        let consumers = graph.consumers(f);
        let needs_full = pipe.live_outs().contains(&f)
            || !consumers.iter().all(|c| stages.contains(c))
            || !schedule.scratchpads();
        StageStorage {
            needs_full,
            direct: needs_full && !consumers.iter().any(|c| stages.contains(c)),
        }
    }
}

/// Per-group outcome of scratch folding.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupStorage {
    /// Packed arena bytes after folding.
    pub folded_bytes: usize,
    /// Slots after folding (0 for non-tiled groups).
    pub slots: usize,
}

/// Whole-program outcome of the storage pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct StorageOutcome {
    /// One entry per program group, in execution order.
    pub groups: Vec<GroupStorage>,
    /// Estimated peak bytes of concurrently resident full buffers under
    /// the computed acquire/release schedule (includes input images).
    pub peak_full_bytes: usize,
    /// Per-worker scratch bytes eliminated (Σ unfolded − folded).
    pub folded_bytes: usize,
}

/// Runs the storage pass over a scheduled program, in place: folds every
/// tiled group's scratchpads and narrows every full buffer's lifetime.
pub(crate) fn optimize_storage(prog: &mut Program) -> StorageOutcome {
    let mut out = StorageOutcome::default();
    let Program {
        ref buffers,
        ref mut groups,
        ..
    } = *prog;
    for g in groups.iter_mut() {
        match &mut g.kind {
            GroupKind::Tiled(tg) => {
                let unfolded_bytes = tg.slots.arena_bytes();
                tg.slots = fold_group(tg, buffers);
                out.folded_bytes += unfolded_bytes - tg.slots.arena_bytes();
                out.groups.push(GroupStorage {
                    folded_bytes: tg.slots.arena_bytes(),
                    slots: tg.slots.nslots,
                });
            }
            _ => out.groups.push(GroupStorage::default()),
        }
    }
    prog.storage = lifetime_plan(prog);
    out.peak_full_bytes = peak_estimate(prog);
    out
}

/// Greedy interval coloring of a tiled group's scratchpads onto shared
/// slots — the one rule behind both this pass and the cache model's
/// working-set estimate. `lens[k]` is stage `k`'s scratchpad length
/// (`None` for a direct stage, which owns no slot) and `reads` yields, per
/// stage, the in-group stages whose scratchpads it reads. Stage `k` is live
/// over `[k, its last reader]`; a slot is free for `k` when its latest
/// occupant's last reader runs strictly before `k`. Slot choice is
/// deterministic: the smallest free slot that already fits, else the
/// largest free slot (minimizing growth), else a new slot; ties go to the
/// lowest slot. Returns each stage's slot and each slot's size.
pub(crate) fn color_slots<R: IntoIterator<Item = usize>>(
    lens: &[Option<usize>],
    reads: impl IntoIterator<Item = R>,
) -> (Vec<Option<usize>>, Vec<usize>) {
    let n = lens.len();
    let mut last_use: Vec<usize> = (0..n).collect();
    for (j, producers) in reads.into_iter().enumerate() {
        for k in producers {
            last_use[k] = last_use[k].max(j);
        }
    }
    let mut sizes: Vec<usize> = Vec::new();
    // Per slot: stage index of its latest occupant's last use.
    let mut busy_until: Vec<usize> = Vec::new();
    let mut assign: Vec<Option<usize>> = vec![None; n];
    for (k, len) in lens.iter().enumerate() {
        let Some(len) = *len else { continue };
        // `min_by_key` keeps the first of equal keys: the lowest slot.
        let free = (0..sizes.len()).filter(|&i| busy_until[i] < k);
        let best_fit = free
            .clone()
            .filter(|&i| sizes[i] >= len)
            .min_by_key(|&i| sizes[i]);
        let largest = free.min_by_key(|&i| std::cmp::Reverse(sizes[i]));
        let si = match best_fit.or(largest) {
            Some(i) => {
                sizes[i] = sizes[i].max(len);
                busy_until[i] = last_use[k];
                i
            }
            None => {
                sizes.push(len);
                busy_until.push(last_use[k]);
                sizes.len() - 1
            }
        };
        assign[k] = Some(si);
    }
    (assign, sizes)
}

/// Folds a tiled group's scratchpads onto shared slots ([`color_slots`])
/// and packs the slots, aligned, into one arena.
fn fold_group(tg: &TiledGroup, buffers: &[BufDecl]) -> ScratchSlots {
    let lens: Vec<Option<usize>> = tg
        .stages
        .iter()
        .map(|s| (!s.direct).then(|| buffers[s.scratch.0].len()))
        .collect();
    let producer = |b: &BufId| tg.stages.iter().position(|p| !p.direct && p.scratch == *b);
    let reads = tg
        .stages
        .iter()
        .map(|s| s.reads.iter().filter_map(producer));
    let (assign, sizes) = color_slots(&lens, reads);

    let mut offsets = Vec::with_capacity(sizes.len());
    let mut off = 0usize;
    for &size in &sizes {
        offsets.push(off);
        off += ScratchSlots::align(size);
    }
    ScratchSlots {
        stage: assign
            .iter()
            .zip(&lens)
            .map(|(a, len)| {
                a.map(|si| SlotRange {
                    slot: si,
                    offset: offsets[si],
                    len: len.expect("a slotted stage has a scratchpad"),
                })
            })
            .collect(),
        nslots: sizes.len(),
        arena_len: off,
    }
}

/// Full buffers accessed (read or written) by a group, as buffer indices.
fn group_accesses(prog: &Program, gi: usize) -> Vec<usize> {
    let mut bufs = Vec::new();
    match &prog.groups[gi].kind {
        GroupKind::Tiled(tg) => {
            for s in &tg.stages {
                if let Some(b) = s.full {
                    bufs.push(b.0);
                }
                bufs.extend(s.reads.iter().map(|b| b.0));
            }
        }
        GroupKind::Reduction(r) => {
            bufs.push(r.out.0);
            bufs.extend(r.reads.iter().map(|b| b.0));
        }
        GroupKind::Sequential(sq) => {
            bufs.push(sq.out.0);
            bufs.extend(sq.reads.iter().map(|b| b.0));
        }
    }
    bufs.retain(|&b| prog.buffers[b].kind == BufKind::Full);
    bufs
}

/// Narrows each full buffer's lifetime to its first/last accessing group.
/// Input images keep a submission-time acquire (`None`); live-outs keep a
/// completion-time release (`None`); untouched buffers stay run-scoped.
fn lifetime_plan(prog: &Program) -> StoragePlan {
    let nbufs = prog.buffers.len();
    let mut acquire: Vec<Option<usize>> = vec![None; nbufs];
    let mut release: Vec<Option<usize>> = vec![None; nbufs];
    for gi in 0..prog.groups.len() {
        for b in group_accesses(prog, gi) {
            if acquire[b].is_none() {
                acquire[b] = Some(gi);
            }
            release[b] = Some(gi);
        }
    }
    for &b in &prog.image_bufs {
        acquire[b.0] = None;
    }
    for (_, b) in &prog.outputs {
        release[b.0] = None;
    }
    // A buffer nobody releases must not be acquired lazily either (it
    // would never be freed mid-run anyway, and an unused live-out must
    // exist at completion).
    for i in 0..nbufs {
        if release[i].is_none() {
            acquire[i] = None;
        }
    }
    StoragePlan {
        acquire_group: acquire,
        release_group: release,
    }
}

/// Simulates the acquire/release schedule to estimate peak resident
/// full-buffer bytes (what `Shared::full_peak` measures for a lone run).
pub(crate) fn peak_estimate(prog: &Program) -> usize {
    let bytes = |i: usize| -> usize { prog.buffers[i].len() * 4 };
    let full = |i: usize| prog.buffers[i].kind == BufKind::Full;
    let mut cur: usize = (0..prog.buffers.len())
        .filter(|&i| full(i) && prog.storage.acquire_group[i].is_none())
        .map(bytes)
        .sum();
    let mut peak = cur;
    for gi in 0..prog.groups.len() {
        for i in 0..prog.buffers.len() {
            if full(i) && prog.storage.acquire_group[i] == Some(gi) {
                cur += bytes(i);
            }
        }
        peak = peak.max(cur);
        for i in 0..prog.buffers.len() {
            if full(i) && prog.storage.release_group[i] == Some(gi) {
                cur -= bytes(i);
            }
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymage_poly::Rect;
    use polymage_vm::StageExec;

    /// A stage skeleton: only `direct`, `scratch`, and `reads` matter to
    /// the coloring.
    fn stage(name: &str, scratch: usize, direct: bool, reads: &[usize]) -> StageExec {
        StageExec {
            name: name.into(),
            scratch: BufId(scratch),
            full: None,
            direct,
            sat: None,
            round: false,
            cases: vec![],
            dom: Rect::new(vec![(0, 0)]),
            reads: reads.iter().map(|&b| BufId(b)).collect(),
        }
    }

    fn scratch_decl(name: &str, len: i64) -> BufDecl {
        BufDecl {
            name: name.into(),
            kind: BufKind::Scratch,
            sizes: vec![len],
            origin: vec![0],
        }
    }

    #[test]
    fn chain_folds_to_two_slots() {
        // a → b → c → out: each stage reads only its predecessor, so `a`
        // is dead once `c` runs and can reuse `a`'s slot (ping-pong).
        let buffers = vec![
            scratch_decl("a", 100),
            scratch_decl("b", 80),
            scratch_decl("c", 120),
        ];
        let stages = vec![
            stage("a", 0, false, &[]),
            stage("b", 1, false, &[0]),
            stage("c", 2, false, &[1]),
            stage("out", 0, true, &[2]),
        ];
        let tg = TiledGroup::new(stages, vec![], 1, &buffers);
        assert_eq!(tg.slots.nslots, 3, "unfolded starts private");
        let folded = fold_group(&tg, &buffers);
        assert_eq!(folded.nslots, 2);
        // c reuses a's slot, grown to c's length.
        let (a, c) = (folded.stage[0].unwrap(), folded.stage[2].unwrap());
        assert_eq!(a.slot, c.slot);
        assert_eq!(a.len, 100);
        assert_eq!(c.len, 120);
        assert!(folded.arena_len < tg.slots.arena_len);
        assert!(folded.stage[3].is_none(), "direct stages own no slot");
    }

    #[test]
    fn long_lived_producer_is_not_folded() {
        // Both `a` and `b` feed the sink, so both are live until stage 2:
        // no interval ever closes early and nothing can fold.
        let buffers = vec![scratch_decl("a", 64), scratch_decl("b", 64)];
        let stages = vec![
            stage("a", 0, false, &[]),
            stage("b", 1, false, &[0]),
            stage("out", 0, true, &[0, 1]),
        ];
        let tg = TiledGroup::new(stages, vec![], 1, &buffers);
        let folded = fold_group(&tg, &buffers);
        assert_eq!(folded.nslots, 2);
        let (a, b) = (folded.stage[0].unwrap(), folded.stage[1].unwrap());
        assert_ne!(a.slot, b.slot);
        assert_eq!(folded.arena_len, tg.slots.arena_len);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_slot() {
        // Free slots of size 100 and 40 are both dead when `d` (len 30)
        // runs; best fit must pick the 40 so the 100 stays for larger
        // tenants and the arena does not grow.
        let buffers = vec![
            scratch_decl("a", 100),
            scratch_decl("b", 40),
            scratch_decl("c", 8),
            scratch_decl("d", 30),
        ];
        let stages = vec![
            stage("a", 0, false, &[]),
            stage("b", 1, false, &[0]),
            stage("c", 2, false, &[0, 1]),
            stage("d", 3, false, &[2]),
            stage("out", 0, true, &[3]),
        ];
        let tg = TiledGroup::new(stages, vec![], 1, &buffers);
        let folded = fold_group(&tg, &buffers);
        let (b, d) = (folded.stage[1].unwrap(), folded.stage[3].unwrap());
        assert_eq!(d.slot, b.slot, "d should land in the 40-wide slot");
        assert_eq!(d.len, 30);
    }
}
