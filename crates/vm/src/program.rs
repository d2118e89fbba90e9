//! Compiled program structure: groups, stages, tiles.

use crate::{BufDecl, BufId, Kernel, RegId};
use polymage_poly::Rect;

/// Whether kernels evaluate whole chunks (auto-vectorizable) or one point at
/// a time — the analogue of the paper's ±vectorization configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// Chunked evaluation (the paper's `+vec`).
    #[default]
    Vector,
    /// Point-at-a-time evaluation (the paper's `−vec`).
    Scalar,
}

impl EvalMode {
    /// Points per kernel evaluation: [`crate::CHUNK`] lanes when chunked,
    /// one when point-at-a-time.
    pub(crate) fn chunk_len(self) -> usize {
        match self {
            EvalMode::Vector => crate::CHUNK,
            EvalMode::Scalar => 1,
        }
    }
}

/// One guarded piece of a stage's definition, compiled.
#[derive(Debug, Clone)]
pub struct CaseExec {
    /// Concrete rectangle this case covers (guard box ∩ domain).
    pub rect: Rect,
    /// Per-dimension `(stride, phase)` from parity guards (`x % 2 == 1`):
    /// the case covers only points with `coord ≡ phase (mod stride)`. The
    /// kernel is lowered in *strided coordinates* (`coord = stride·c +
    /// phase`), so the executor iterates the compressed range directly —
    /// the paper's "splitting function domains" instead of inner-loop
    /// branching.
    pub steps: Vec<(i64, i64)>,
    /// The compiled value computation; `kernel.outs[0]` is the value.
    pub kernel: Kernel,
    /// Residual guard mask: when present, only lanes with mask ≠ 0 store.
    pub mask: Option<RegId>,
}

/// A compiled pipeline stage inside a tiled group.
#[derive(Debug, Clone)]
pub struct StageExec {
    /// Stage name (diagnostics).
    pub name: String,
    /// Scratchpad buffer for intra-tile storage (§3.6).
    pub scratch: BufId,
    /// Full buffer to copy results into (live-outs and stages consumed by
    /// later groups).
    pub full: Option<BufId>,
    /// When true the stage streams straight into its full buffer and skips
    /// the scratchpad (single-stage groups and group sinks).
    pub direct: bool,
    /// Saturation bounds applied on store (per declared scalar type).
    pub sat: Option<(f32, f32)>,
    /// Whether stores round to integers (integral declared types).
    pub round: bool,
    /// Compiled cases, evaluated in order.
    pub cases: Vec<CaseExec>,
    /// The stage's full concrete domain.
    pub dom: Rect,
    /// Buffers this stage's kernels load (so the executor only materializes
    /// the views it needs).
    pub reads: Vec<BufId>,
}

impl StageExec {
    /// True when evaluating this stage provably writes *every* point of any
    /// store region: some case covers the whole domain unconditionally (no
    /// residual mask, unit steps). Stages failing this rely on the
    /// zero-for-undefined convention — their store targets must be
    /// zero-filled before evaluation.
    pub fn covers_domain(&self) -> bool {
        self.cases.iter().any(|c| {
            c.mask.is_none() && c.steps.iter().all(|&(s, p)| s == 1 && p == 0) && c.rect == self.dom
        })
    }
}

/// Work description of one overlapped tile: the exact region of every stage
/// it computes (backward interval propagation, precomputed at compile time)
/// and the sub-rectangle each full-stored stage writes out (clipped to the
/// strip's owned rows so parallel strips never write the same element).
#[derive(Debug, Clone)]
pub struct TileWork {
    /// Index of the strip (outermost tile dimension) this tile belongs to.
    pub strip: usize,
    /// Per stage (group order): region to compute. Empty ⇒ skip.
    pub regions: Vec<Rect>,
    /// Per stage: rows to copy to the full buffer (`None` for scratch-only
    /// stages).
    pub stores: Vec<Option<Rect>>,
}

/// Placement of one stage's scratchpad inside its group's packed per-worker
/// arena (§3.6 storage optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRange {
    /// Slot index. Stages assigned the same slot share its memory; the
    /// storage pass guarantees their live ranges never intersect.
    pub slot: usize,
    /// Offset of the slot in the packed arena, in `f32` elements.
    pub offset: usize,
    /// Length of this stage's scratch view (its declaration's element
    /// count — a slot is sized to the largest of its occupants, but each
    /// occupant keeps its own geometry and strides).
    pub len: usize,
}

/// The scratch-slot assignment of a tiled group: where each stage's
/// per-tile scratchpad lives inside one packed per-worker arena.
///
/// Executors allocate a single `arena_len`-element buffer per worker per
/// group instead of one vector per stage. The identity assignment
/// ([`ScratchSlots::unfolded`]) gives every non-direct stage a private
/// slot; the liveness pass in `polymage-core` folds stages with disjoint
/// live ranges onto shared slots, shrinking the per-tile working set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScratchSlots {
    /// Per stage (group order): its arena placement; `None` for direct
    /// stages (they stream straight into their full buffer).
    pub stage: Vec<Option<SlotRange>>,
    /// Number of distinct slots.
    pub nslots: usize,
    /// Total packed arena length per worker, in `f32` elements.
    pub arena_len: usize,
}

impl ScratchSlots {
    /// Slot alignment in `f32` elements (64 bytes, one cache line).
    pub const ALIGN: usize = 16;

    /// Rounds a slot size up to the alignment quantum.
    pub fn align(len: usize) -> usize {
        len.div_ceil(Self::ALIGN) * Self::ALIGN
    }

    /// The identity (unfolded) assignment: one private, aligned slot per
    /// non-direct stage, in stage order.
    pub fn unfolded(stages: &[StageExec], buffers: &[BufDecl]) -> ScratchSlots {
        let mut stage_ranges = Vec::with_capacity(stages.len());
        let mut offset = 0usize;
        let mut nslots = 0usize;
        for s in stages {
            if s.direct {
                stage_ranges.push(None);
            } else {
                let len = buffers[s.scratch.0].len();
                stage_ranges.push(Some(SlotRange {
                    slot: nslots,
                    offset,
                    len,
                }));
                offset += Self::align(len);
                nslots += 1;
            }
        }
        ScratchSlots {
            stage: stage_ranges,
            nslots,
            arena_len: offset,
        }
    }

    /// Packed arena bytes per worker.
    pub fn arena_bytes(&self) -> usize {
        self.arena_len * 4
    }
}

/// A group of fused stages executed with overlapped tiling (§3.4–3.7).
#[derive(Debug, Clone)]
pub struct TiledGroup {
    /// Stages in intra-group topological order (producers first).
    pub stages: Vec<StageExec>,
    /// All tiles, grouped by strip in ascending strip order.
    pub tiles: Vec<TileWork>,
    /// Number of strips (parallel work units).
    pub nstrips: usize,
    /// Scratch-slot assignment (identity until the storage pass folds it).
    pub slots: ScratchSlots,
}

impl TiledGroup {
    /// A tiled group with the identity (one slot per stage) scratch
    /// assignment derived from the program's buffer declarations.
    pub fn new(
        stages: Vec<StageExec>,
        tiles: Vec<TileWork>,
        nstrips: usize,
        buffers: &[BufDecl],
    ) -> TiledGroup {
        let slots = ScratchSlots::unfolded(&stages, buffers);
        TiledGroup {
            stages,
            tiles,
            nstrips,
            slots,
        }
    }
}

/// Inter-group lifetimes of full buffers: when the engine must materialize
/// each one and when it may return it to the pool.
///
/// Indices refer to [`Program::groups`] execution order. The default
/// ([`StoragePlan::run_scoped`]) pins every buffer for the whole run —
/// exactly the legacy behavior; the storage pass narrows lifetimes to
/// first/last accessing group so deep pipelines release dead full arrays
/// early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoragePlan {
    /// Per buffer: the group before which the buffer must be materialized;
    /// `None` = at submission (always the case for input images, whose
    /// data is copied in before any group runs).
    pub acquire_group: Vec<Option<usize>>,
    /// Per buffer: the group after which the buffer is dead and may be
    /// released; `None` = at run completion (always the case for
    /// live-outs, which are cloned into the result).
    pub release_group: Vec<Option<usize>>,
}

impl StoragePlan {
    /// The run-scoped (legacy) plan: every buffer lives from submission to
    /// completion.
    pub fn run_scoped(nbufs: usize) -> StoragePlan {
        StoragePlan {
            acquire_group: vec![None; nbufs],
            release_group: vec![None; nbufs],
        }
    }
}

/// A compiled reduction (`Accumulator`) stage.
#[derive(Debug, Clone)]
pub struct ReductionExec {
    /// Stage name.
    pub name: String,
    /// Output (full) buffer over the variable domain.
    pub out: BufId,
    /// The reduction domain to sweep.
    pub red_dom: Rect,
    /// Compiled kernel: `outs[0]` is the contributed value, `outs[1..]` are
    /// the target indices (one per output dimension), all evaluated over the
    /// reduction domain.
    pub kernel: Kernel,
    /// The combining operator.
    pub op: polymage_ir::Reduction,
    /// Buffers the kernel loads.
    pub reads: Vec<BufId>,
}

/// The outer-dimension row chunks `(lo, hi)` a reduction over rows
/// `rlo..=rhi` is split into at `threads` requested threads: one partial
/// each, swept from the identity and combined in ascending order. The rows
/// are split evenly (chunk `t` starts at `rlo + t·total/n`), giving exactly
/// `min(threads, total)` non-empty chunks, and one empty chunk for an empty
/// domain (a single identity-filled partial). The split depends on the
/// *requested* count, not on the pool size, so float combine order is that
/// of a single-worker run at the same count; the reference interpreter
/// splits the same way.
pub fn reduction_chunks((rlo, rhi): (i64, i64), threads: usize) -> Vec<(i64, i64)> {
    let total = (rhi - rlo + 1).max(0);
    let nth = (threads as i64).clamp(1, total.max(1));
    // In `i128`: `t · total` may pass `i64` on a huge domain.
    let start = |t: i64| rlo + (t as i128 * total as i128 / nth as i128) as i64;
    (0..nth).map(|t| (start(t), start(t + 1) - 1)).collect()
}

/// A compiled self-referential (time-iterated) stage, executed as a
/// sequential scan in row-major order.
#[derive(Debug, Clone)]
pub struct SeqExec {
    /// Stage name.
    pub name: String,
    /// Output (full) buffer.
    pub out: BufId,
    /// The stage's domain.
    pub dom: Rect,
    /// Compiled cases.
    pub cases: Vec<CaseExec>,
    /// Saturation bounds on store.
    pub sat: Option<(f32, f32)>,
    /// Whether stores round to integers.
    pub round: bool,
    /// Whether whole-row chunks are safe (self-dependences never point to
    /// earlier points of the same row). When false the scan runs point-wise.
    pub chunked: bool,
    /// Buffers the kernels load (excluding the stage's own output buffer,
    /// which is always available to the scan).
    pub reads: Vec<BufId>,
}

/// One schedulable unit of the program.
#[derive(Debug, Clone)]
pub struct GroupExec {
    /// Group name (diagnostics; e.g. `"g0:harris"`).
    pub name: String,
    /// The execution strategy.
    pub kind: GroupKind,
}

/// Execution strategy of a group.
#[derive(Debug, Clone)]
pub enum GroupKind {
    /// Overlap-tiled parallel execution.
    Tiled(TiledGroup),
    /// Reduction sweep (privatized across threads).
    Reduction(ReductionExec),
    /// Sequential scan (time-iterated stages).
    Sequential(SeqExec),
}

/// A fully compiled, concrete (parameter-substituted) pipeline program.
///
/// Produced by `polymage-core`'s compiler; executed by submitting a
/// [`crate::RunRequest`] to an [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct Program {
    /// Pipeline name.
    pub name: String,
    /// All buffer declarations; [`BufId`] indexes this table.
    pub buffers: Vec<BufDecl>,
    /// The buffer backing each input image, in image declaration order.
    pub image_bufs: Vec<BufId>,
    /// Groups in execution order.
    pub groups: Vec<GroupExec>,
    /// Live-out stages: name and full buffer.
    pub outputs: Vec<(String, BufId)>,
    /// Evaluation mode.
    pub mode: EvalMode,
    /// SIMD dispatch level resolved at compile time (from
    /// `CompileOptions::simd` / `POLYMAGE_SIMD`); executors hand it to
    /// every register file they create.
    pub simd: crate::SimdLevel,
    /// Inter-group full-buffer lifetimes (run-scoped unless the storage
    /// pass narrowed them).
    pub storage: StoragePlan,
}

impl Program {
    /// Total bytes of full-buffer allocations.
    pub fn full_bytes(&self) -> usize {
        self.buffers
            .iter()
            .filter(|b| b.kind == crate::BufKind::Full)
            .map(|b| b.len() * 4)
            .sum()
    }

    /// Total bytes of scratch allocations (per thread).
    pub fn scratch_bytes(&self) -> usize {
        self.buffers
            .iter()
            .filter(|b| b.kind == crate::BufKind::Scratch)
            .map(|b| b.len() * 4)
            .sum()
    }

    /// Total packed scratch-arena bytes per worker, summed over tiled
    /// groups (≤ [`Program::scratch_bytes`] modulo alignment once slots
    /// are folded).
    pub fn arena_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| match &g.kind {
                GroupKind::Tiled(tg) => tg.slots.arena_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BufKind;

    #[test]
    fn reduction_chunks_split_rows_evenly() {
        // `rows` rows from row 10 at `threads` threads → chunks `(lo, hi)`.
        let check = |rows: i64, threads: usize, want: &[(i64, i64)]| {
            let got = reduction_chunks((10, 9 + rows), threads);
            assert_eq!(got, want, "{rows} rows at {threads} threads");
        };
        check(0, 3, &[(10, 9)]);
        check(3, 3, &[(10, 10), (11, 11), (12, 12)]);
        check(6, 3, &[(10, 11), (12, 13), (14, 15)]);
        check(5, 4, &[(10, 10), (11, 11), (12, 12), (13, 14)]);
        check(384, 2, &[(10, 201), (202, 393)]);
        check(5, 0, &[(10, 14)]);
    }

    #[test]
    fn byte_accounting() {
        let p = Program {
            name: "t".into(),
            buffers: vec![
                BufDecl {
                    name: "a".into(),
                    kind: BufKind::Full,
                    sizes: vec![10],
                    origin: vec![0],
                },
                BufDecl {
                    name: "b".into(),
                    kind: BufKind::Scratch,
                    sizes: vec![4, 4],
                    origin: vec![0, 0],
                },
            ],
            image_bufs: vec![],
            groups: vec![],
            outputs: vec![],
            mode: EvalMode::Vector,
            simd: crate::process_simd_level(),
            storage: StoragePlan::run_scoped(2),
        };
        assert_eq!(p.full_bytes(), 40);
        assert_eq!(p.scratch_bytes(), 64);
        assert_eq!(p.arena_bytes(), 0);
        assert_eq!(p.group_count(), 0);
    }

    #[test]
    fn unfolded_slots_are_private_and_aligned() {
        let buffers = vec![
            BufDecl {
                name: "a.scratch".into(),
                kind: BufKind::Scratch,
                sizes: vec![18],
                origin: vec![0],
            },
            BufDecl {
                name: "b.scratch".into(),
                kind: BufKind::Scratch,
                sizes: vec![5],
                origin: vec![0],
            },
        ];
        let stage = |name: &str, scratch: usize, direct: bool| StageExec {
            name: name.into(),
            scratch: BufId(scratch),
            full: None,
            direct,
            sat: None,
            round: false,
            cases: vec![],
            dom: Rect::new(vec![(0, 0)]),
            reads: vec![],
        };
        let stages = vec![
            stage("a", 0, false),
            stage("b", 1, false),
            stage("c", 0, true),
        ];
        let slots = ScratchSlots::unfolded(&stages, &buffers);
        assert_eq!(slots.nslots, 2);
        assert_eq!(
            slots.stage[0],
            Some(SlotRange {
                slot: 0,
                offset: 0,
                len: 18
            })
        );
        // 18 rounds up to 32 elements; the second slot starts there.
        assert_eq!(
            slots.stage[1],
            Some(SlotRange {
                slot: 1,
                offset: 32,
                len: 5
            })
        );
        assert_eq!(slots.stage[2], None);
        assert_eq!(slots.arena_len, 48);
        assert_eq!(slots.arena_bytes(), 192);
    }
}
