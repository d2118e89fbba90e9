//! Phase 2 of parametric compilation: binding a [`ParametricPlan`] to
//! concrete parameter values.
//!
//! [`instantiate`] is the cheap half of the split. It walks the plan's
//! groups once: per group it evaluates the symbolic geometry (stage
//! domains, image extents, reduction domains) at the bound values,
//! enumerates the overlapped tiles, sizes buffers, and gets each kernel in
//! its final form from [`crate::plan::build_kernel`], which hands back the
//! plan's prototype verbatim whenever that is provably byte-identical.
//! The storage pass then runs on the finished groups. No graph analysis,
//! grouping or alignment solving happens here, and a kernel is lowered
//! again only when the binding changes it.
//!
//! The resulting [`Compiled`] is bit-identical to what [`crate::compile`]
//! produces directly at the same values whenever the grouping heuristics
//! agree between the plan's estimates and the bound sizes.

use crate::grouping::{effective_tiles, strip_untiled_outer, GroupKindTag};
use crate::lower::LowerEnv;
use crate::plan::{build_kernel, eval_dom, KernelBody, KernelProto};
use crate::plan::{CasePlan, GroupPlan, ParametricPlan, ReductionPlan, SelfRefPlan, TiledPlan};
use crate::report::{CompileReport, GroupReport, Provenance};
use crate::{CompileError, Compiled};
use polymage_diag::{Counter, Diag, Value};
use polymage_graph::check_bounds;
use polymage_ir::{FuncBody, FuncId, VarId};
use polymage_poly::{narrow_rect_by_cond, required_region, DimMap, Rect};
use polymage_vm::{
    collect_reads, BufDecl, BufId, BufKind, CaseExec, GroupExec, GroupKind, Kernel,
    KernelOptReport, Program, ReductionExec, RegId, SeqExec, StageExec, StoragePlan, TileWork,
    TiledGroup,
};
use std::collections::HashMap;

/// Binds a [`ParametricPlan`] to concrete parameter values, producing an
/// executable [`Compiled`] (phase 2).
///
/// This is the cheap path: pure geometry evaluation plus kernel reuse.
/// One plan can be instantiated at arbitrarily many sizes; `Session` does
/// exactly that behind its two-level cache.
///
/// # Errors
///
/// [`CompileError::ParamMismatch`] when `params` does not match the
/// pipeline's declared parameters, [`CompileError::InvalidOptions`] when
/// the geometry at `params` overflows `i64` or cannot be addressed,
/// [`CompileError::Bounds`] / [`CompileError::EmptyDomain`] when the bound
/// geometry is invalid.
pub fn instantiate(plan: &ParametricPlan, params: &[i64]) -> Result<Compiled, CompileError> {
    instantiate_with(plan, params, &Diag::noop())
}

/// [`instantiate`] with diagnostics: wraps the bind in an `instantiate`
/// span containing the `phase.schedule` span (which also reports the
/// kernel count, eliminated ops and the reused/respecialized split), the
/// `phase.storage` span, and per-group `group.scheduled` events.
pub fn instantiate_with(
    plan: &ParametricPlan,
    params: &[i64],
    diag: &Diag,
) -> Result<Compiled, CompileError> {
    let pipe = &plan.pipe;
    if params.len() != pipe.params().len() {
        return Err(CompileError::param_mismatch(pipe, params.len()));
    }
    crate::options::check_params(pipe, params, "params")?;
    let inst_span = diag.begin();

    // The static bounds check is a per-binding property; the plan never
    // ran it.
    let violations = check_bounds(pipe, params);
    if !violations.is_empty() {
        return Err(CompileError::Bounds(violations));
    }

    // Image buffers (ids fixed by the plan).
    let mut b = Binder {
        plan,
        params,
        diag,
        buffers: Vec::with_capacity(plan.nbufs),
        kernels: Vec::new(),
        reused: 0,
        respecialized: 0,
    };
    for img in pipe.images() {
        let sizes: Vec<i64> = img.extents.iter().map(|e| e.eval(params).max(0)).collect();
        if sizes.contains(&0) {
            return Err(CompileError::EmptyDomain {
                name: img.name.clone(),
            });
        }
        b.buffers.push(BufDecl {
            name: img.name.clone(),
            kind: BufKind::Full,
            sizes: sizes.clone(),
            origin: vec![0; sizes.len()],
        });
    }

    // Per-group bind: evaluate geometry, enumerate tiles, size buffers,
    // build every kernel in its final form.
    let sched_span = diag.begin();
    let mut groups: Vec<GroupExec> = Vec::with_capacity(plan.groups.len());
    let mut group_reports: Vec<GroupReport> = Vec::with_capacity(plan.groups.len());
    for (gi, gp) in plan.groups.iter().enumerate() {
        let bufs_before = b.buffers.len();
        let choice = plan.tile_choices.get(gi).and_then(|c| c.as_ref());
        let (ge, bound_tiles) = match gp {
            GroupPlan::Tiled(tp) => {
                let (ge, tiles) = b.tiled(tp, choice)?;
                (ge, Some(tiles))
            }
            GroupPlan::Reduction(rp) => (b.reduction(rp)?, None),
            GroupPlan::SelfRef(sp) => (b.selfref(sp)?, None),
        };
        let (mut scratch_bytes, mut full_bytes) = (0usize, 0usize);
        for buf in &b.buffers[bufs_before..] {
            match buf.kind {
                BufKind::Scratch => scratch_bytes += buf.len() * 4,
                BufKind::Full => full_bytes += buf.len() * 4,
            }
        }
        let g = &plan.grouping.groups[gi];
        let gr = make_group_report(plan, g, scratch_bytes, full_bytes, bound_tiles, choice);
        if diag.enabled() {
            let tiles: Vec<String> = gr
                .tile_sizes
                .iter()
                .map(|t| t.map_or("-".to_string(), |v| v.to_string()))
                .collect();
            diag.event(
                "group.scheduled",
                vec![
                    ("sink", Value::from(gr.sink.as_str())),
                    ("sink_uid", Value::UInt(pipe.stage_uid(g.sink))),
                    ("stages", Value::UInt(gr.stages.len() as u64)),
                    ("kind", Value::from(format!("{:?}", gr.kind))),
                    ("tiles", Value::from(tiles.join("x"))),
                    ("overlap_ratio", Value::Float(gr.overlap_ratio)),
                    ("scratch_bytes", Value::UInt(gr.scratch_bytes as u64)),
                    ("full_bytes", Value::UInt(gr.full_bytes as u64)),
                ],
            );
        }
        group_reports.push(gr);
        groups.push(ge);
    }
    debug_assert_eq!(b.buffers.len(), plan.nbufs, "bind declared plan's buffers");
    let Binder {
        buffers,
        kernels,
        reused,
        respecialized,
        ..
    } = b;
    diag.end(
        sched_span,
        "phase.schedule",
        if diag.enabled() {
            let ops: usize = kernels.iter().map(|k| k.eliminated_ops()).sum();
            vec![
                ("groups", Value::UInt(group_reports.len() as u64)),
                ("kernels", Value::UInt(kernels.len() as u64)),
                ("ops_eliminated", Value::UInt(ops as u64)),
                ("reused", Value::UInt(reused as u64)),
                ("respecialized", Value::UInt(respecialized as u64)),
            ]
        } else {
            Vec::new()
        },
    );

    let nbufs = buffers.len();
    let mut program = Program {
        name: pipe.name().to_string(),
        buffers,
        image_bufs: plan.image_bufs.clone(),
        groups,
        outputs: plan.outputs.clone(),
        mode: plan.opts.mode,
        simd: plan.simd,
        storage: StoragePlan::run_scoped(nbufs),
    };

    // Storage optimization (§3.6) on the final kernels' reads.
    let span = diag.begin();
    let storage = crate::storage::optimize_storage(&mut program, plan.opts.storage_fold);
    for (gr, gs) in group_reports.iter_mut().zip(&storage.groups) {
        gr.scratch_folded_bytes = gs.folded_bytes;
        gr.scratch_slots = gs.slots;
    }
    diag.count(Counter::StorageFoldedBytes, storage.folded_bytes as u64);
    diag.end(
        span,
        "phase.storage",
        if diag.enabled() {
            vec![
                ("enabled", Value::UInt(plan.opts.storage_fold as u64)),
                ("folded_bytes", Value::UInt(storage.folded_bytes as u64)),
                (
                    "peak_full_bytes",
                    Value::UInt(storage.peak_full_bytes as u64),
                ),
            ]
        } else {
            Vec::new()
        },
    );

    let report = CompileReport {
        inlined: plan.inlined.clone(),
        dead: plan.dead.clone(),
        groups: group_reports,
        kernels,
        simd: program.simd,
        peak_full_bytes: storage.peak_full_bytes,
        provenance: Provenance {
            estimates: plan.estimates.clone(),
            params: params.to_vec(),
            kernels_reused: reused,
            kernels_respecialized: respecialized,
        },
    };
    diag.end(
        inst_span,
        "instantiate",
        if diag.enabled() {
            vec![
                ("pipeline", Value::from(pipe.name())),
                ("groups", Value::UInt(report.groups.len() as u64)),
                ("kernels_reused", Value::UInt(reused as u64)),
                ("kernels_respecialized", Value::UInt(respecialized as u64)),
            ]
        } else {
            Vec::new()
        },
    );
    Ok(Compiled {
        program: std::sync::Arc::new(program),
        report,
    })
}

/// One binding in progress: the buffers declared so far and the kernels
/// built so far (optimizer reports in program order, and the
/// reused/respecialized split under `kernel_opt`).
struct Binder<'a> {
    plan: &'a ParametricPlan,
    params: &'a [i64],
    diag: &'a Diag,
    buffers: Vec<BufDecl>,
    kernels: Vec<KernelOptReport>,
    reused: usize,
    respecialized: usize,
}

/// The effective tile sizes for a bound tiled group: the plan's
/// cache-model decision when present (each dimension re-checked against
/// the concrete bounds — a tile the bound extent can no longer hold twice
/// is demoted to untiled, counted as [`Counter::TileModelRecheck`]), else
/// the fixed configuration. The dim-0 strip rule applies in both paths.
fn bound_tiles_for(
    sink_extents: &[i64],
    plan: &ParametricPlan,
    choice: Option<&crate::TileChoice>,
    diag: &Diag,
) -> Vec<Option<i64>> {
    let Some(choice) = choice else {
        return effective_tiles(sink_extents, &plan.opts);
    };
    let mut out = vec![None; sink_extents.len()];
    let mut demoted = 0u64;
    for (d, &ext) in sink_extents.iter().enumerate() {
        if let Some(Some(t)) = choice.tiles.get(d) {
            if ext >= 2 * t {
                out[d] = Some(*t);
            } else {
                demoted += 1;
            }
        }
    }
    if demoted > 0 {
        diag.count(Counter::TileModelRecheck, demoted);
    }
    strip_untiled_outer(sink_extents, &mut out);
    out
}

/// The sub-rectangle of a stage's coordinates "owned" by tile `tidx`
/// (used to make parallel strips' full-buffer writes disjoint). Boundary
/// strips absorb coordinates outside the sink's scaled range.
#[allow(clippy::too_many_arguments)]
fn owned_rect(
    dom: &Rect,
    maps: &[DimMap],
    sink_dom: &Rect,
    tiles_cfg: &[Option<i64>],
    tidx: &[i64],
    tile_counts: &[i64],
    sink_scales: &[i64],
) -> Rect {
    const INF: i64 = i64::MAX / 4;
    let n = dom.ndim();
    let mut dims: Vec<(i64, i64)> = dom.ranges().to_vec();

    // Strips run along group dim 0, so cross-thread disjointness requires
    // the stage's own dim 0 to be aligned with group dim 0. Without that
    // alignment, the very first tile materializes the whole stage.
    let dim0_on_gdim0 = matches!(
        maps.first(),
        Some(DimMap::Grouped { gdim: 0, scale }) if scale.is_integer() && scale.num() > 0
    );
    if !dim0_on_gdim0 && tile_counts.first().copied().unwrap_or(1) > 1 {
        if tidx.iter().any(|&t| t != 0) {
            return Rect::new(vec![(0, -1); n]);
        }
        return Rect::new(dims);
    }

    // Partition every aligned, tiled dimension by its tile's scheduled range.
    for (k, m) in maps.iter().enumerate() {
        let (g, sigma) = match m {
            DimMap::Grouped { gdim, scale } if scale.is_integer() && scale.num() > 0 => {
                (*gdim, scale.num())
            }
            _ => continue,
        };
        if g >= sink_dom.ndim() {
            continue;
        }
        let Some(tg) = tiles_cfg[g] else { continue };
        let (slo, _) = sink_dom.range(g);
        let ls = sink_scales[g];
        let t = tidx[g];
        let last = tile_counts[g] - 1;
        let lo = if t == 0 {
            -INF
        } else {
            let s = (slo + t * tg) * ls;
            -(-s).div_euclid(sigma) // ceil(s/σ)
        };
        let hi = if t == last {
            INF
        } else {
            let s = (slo + (t + 1) * tg) * ls;
            -(-s).div_euclid(sigma) - 1
        };
        dims[k] = (dims[k].0.max(lo), dims[k].1.min(hi));
    }
    Rect::new(dims)
}

impl<'a> Binder<'a> {
    /// Binds one tiled group: tile enumeration and backward region
    /// propagation at the bound sizes, buffer sizing, kernels. Returns the
    /// group and its tile sizes.
    fn tiled(
        &mut self,
        tp: &TiledPlan,
        choice: Option<&crate::TileChoice>,
    ) -> Result<(GroupExec, Vec<Option<i64>>), CompileError> {
        let (plan, params) = (self.plan, self.params);
        let pipe = &plan.pipe;
        let doms: Vec<Rect> = tp
            .stages
            .iter()
            .map(|sp| eval_dom(pipe, sp.f, params))
            .collect();
        let sink_idx = tp
            .stages
            .iter()
            .position(|sp| sp.f == tp.sink)
            .expect("sink is a member of its group");
        let sink_dom = &doms[sink_idx];
        let sink_extents: Vec<i64> = (0..sink_dom.ndim()).map(|d| sink_dom.extent(d)).collect();
        let tiles_cfg = bound_tiles_for(&sink_extents, plan, choice, self.diag);
        let tile_counts: Vec<i64> = (0..sink_dom.ndim())
            .map(|d| match tiles_cfg[d] {
                Some(t) => (sink_dom.extent(d) + t - 1) / t,
                None => 1,
            })
            .collect();
        let nstrips = tile_counts.first().copied().unwrap_or(1).max(1) as usize;

        // --- tile enumeration + backward propagation ---
        let mut tiles: Vec<TileWork> = Vec::new();
        let mut max_ext: Vec<Vec<i64>> = doms.iter().map(|d| vec![0i64; d.ndim()]).collect();
        let stage_vars: Vec<&[VarId]> = tp
            .stages
            .iter()
            .map(|sp| pipe.func(sp.f).var_dom.vars.as_slice())
            .collect();

        // At least one tile always runs: a sink whose domain is empty at these
        // parameter values (deep pyramid levels at small sizes) must not
        // prevent full-stored member stages from materializing — their regions
        // then come entirely from the owned-coverage extension.
        let total_tiles: i64 = tile_counts.iter().product::<i64>().max(1);
        for lin in 0..total_tiles {
            // decompose the linear index into per-dim tile coordinates
            let mut tidx = vec![0i64; sink_dom.ndim()];
            let mut rem = lin;
            for d in (0..sink_dom.ndim()).rev() {
                tidx[d] = rem % tile_counts[d];
                rem /= tile_counts[d];
            }
            // sink tile rectangle
            let tile_rect = Rect::new(
                (0..sink_dom.ndim())
                    .map(|d| {
                        let (lo, hi) = sink_dom.range(d);
                        match tiles_cfg[d] {
                            Some(t) => (lo + tidx[d] * t, (lo + (tidx[d] + 1) * t - 1).min(hi)),
                            None => (lo, hi),
                        }
                    })
                    .collect(),
            );
            let strip = tidx[0] as usize;
            let mut regions: Vec<Rect> = doms
                .iter()
                .map(|d| Rect::new(vec![(0, -1); d.ndim()]))
                .collect();
            // sink gets the tile itself
            regions[sink_idx] = tile_rect.clone();
            // reverse topological propagation
            for ci in (0..tp.stages.len()).rev() {
                if regions[ci].is_empty() {
                    continue;
                }
                for (pi, accs) in &tp.accesses_to[ci] {
                    let req =
                        required_region(accs, stage_vars[ci], &regions[ci], &doms[*pi], params);
                    regions[*pi] = if regions[*pi].is_empty() {
                        req
                    } else {
                        regions[*pi].hull(&req)
                    };
                }
            }
            // owned ranges + stores for full stages; region extension for
            // coverage.
            let mut stores: Vec<Option<Rect>> = vec![None; tp.stages.len()];
            for (k, sp) in tp.stages.iter().enumerate() {
                if !sp.needs_full {
                    continue;
                }
                let owned = owned_rect(
                    &doms[k],
                    &sp.maps,
                    sink_dom,
                    &tiles_cfg,
                    &tidx,
                    &tile_counts,
                    &tp.sink_scales,
                );
                let owned = owned.intersect(&doms[k]);
                regions[k] = if regions[k].is_empty() {
                    owned.clone()
                } else {
                    regions[k].hull(&owned)
                };
                let store = regions[k].intersect(&owned);
                stores[k] = Some(store);
            }
            for (k, r) in regions.iter().enumerate() {
                if !r.is_empty() {
                    for (d, m) in max_ext[k].iter_mut().enumerate() {
                        *m = (*m).max(r.extent(d));
                    }
                }
            }
            tiles.push(TileWork {
                strip,
                regions,
                stores,
            });
        }
        // order tiles by strip so the executor's grouping is contiguous
        tiles.sort_by_key(|t| t.strip);

        // --- buffers (ids preassigned by the plan) and kernels ---
        let mut stage_execs: Vec<StageExec> = Vec::with_capacity(tp.stages.len());
        for (k, (sp, dom)) in tp.stages.iter().zip(doms).enumerate() {
            let name = pipe.func(sp.f).name.clone();
            if !sp.direct {
                debug_assert_eq!(sp.scratch, BufId(self.buffers.len()), "plan buffer order");
                self.buffers.push(BufDecl {
                    name: format!("{name}.scratch"),
                    kind: BufKind::Scratch,
                    sizes: max_ext[k].iter().map(|&e| e.max(1)).collect(),
                    origin: vec![0; dom.ndim()],
                });
            }
            if let Some(full) = sp.full {
                self.full_buffer(full, &name, &dom);
            }
            let cases = self.cases(&sp.cases, &dom, sp.f, &tp.func_scratch, &tp.name)?;
            let reads = collect_reads(cases.iter().map(|c| &c.kernel), None);
            stage_execs.push(StageExec {
                name,
                scratch: sp.scratch,
                full: sp.full,
                direct: sp.direct,
                sat: sp.sat,
                round: sp.round,
                cases,
                dom,
                reads,
            });
        }

        let tg = TiledGroup::new(stage_execs, tiles, nstrips, &self.buffers);
        Ok((
            GroupExec {
                name: tp.name.clone(),
                kind: GroupKind::Tiled(tg),
            },
            tiles_cfg,
        ))
    }

    /// Binds a stage's [`CasePlan`]s to concrete [`CaseExec`]s: re-narrows
    /// each guard at the bound values, drops cases empty at this binding,
    /// and builds each remaining case's kernel with [`build_kernel`].
    fn cases(
        &mut self,
        cases: &[CasePlan],
        dom: &Rect,
        f: FuncId,
        func_scratch: &HashMap<FuncId, BufId>,
        group_name: &str,
    ) -> Result<Vec<CaseExec>, CompileError> {
        let fd = self.plan.pipe.func(f);
        let env = self.env(func_scratch, &fd.var_dom.vars);
        let mut out = Vec::with_capacity(cases.len());
        for cp in cases {
            let rect = match &cp.cond {
                None => dom.clone(),
                Some(c) => {
                    let nr = narrow_rect_by_cond(c, env.vars, dom, self.params);
                    // Strides and exactness are structural — the plan's
                    // record must agree at every binding.
                    debug_assert_eq!(nr.steps, cp.steps, "narrowing strides are structural");
                    debug_assert_eq!(
                        nr.exact,
                        cp.residual.is_none(),
                        "narrowing exactness is structural"
                    );
                    nr.rect
                }
            };
            if rect.is_empty() {
                continue;
            }
            let (kernel, mask) = self.kernel(
                &env,
                KernelBody::Case(f, &cp.expr, cp.residual.as_ref()),
                (&rect.intersect(dom), &cp.steps),
                &cp.proto,
                format!("{}/{}#{}", group_name, fd.name, out.len()),
            )?;
            out.push(CaseExec {
                rect,
                steps: cp.steps.clone(),
                kernel,
                mask,
            });
        }
        Ok(out)
    }

    fn reduction(&mut self, rp: &ReductionPlan) -> Result<GroupExec, CompileError> {
        let (plan, params) = (self.plan, self.params);
        let fd = plan.pipe.func(rp.f);
        let FuncBody::Reduce(acc) = &fd.body else {
            unreachable!("reduction group")
        };
        self.full_buffer(rp.out, &fd.name, &eval_dom(&plan.pipe, rp.f, params));
        let red_dom = Rect::new(acc.red_dom.iter().map(|iv| iv.eval(params)).collect());
        let no_scratch = HashMap::new();
        let env = self.env(&no_scratch, &acc.red_vars);
        let (kernel, _) = self.kernel(
            &env,
            KernelBody::Reduce(rp.f),
            (&red_dom, &[]),
            &rp.proto,
            format!("{}/{}", rp.group_name, fd.name),
        )?;
        let reads = collect_reads(std::iter::once(&kernel), None);
        Ok(GroupExec {
            name: rp.group_name.clone(),
            kind: GroupKind::Reduction(ReductionExec {
                name: fd.name.clone(),
                out: rp.out,
                red_dom,
                kernel,
                op: acc.op,
                reads,
            }),
        })
    }

    fn selfref(&mut self, sp: &SelfRefPlan) -> Result<GroupExec, CompileError> {
        let fd = self.plan.pipe.func(sp.f);
        let dom = eval_dom(&self.plan.pipe, sp.f, self.params);
        self.full_buffer(sp.out, &fd.name, &dom);
        let cases = self.cases(&sp.cases, &dom, sp.f, &HashMap::new(), &sp.group_name)?;
        let reads = collect_reads(cases.iter().map(|c| &c.kernel), Some(sp.out));
        Ok(GroupExec {
            name: sp.group_name.clone(),
            kind: GroupKind::Sequential(SeqExec {
                name: fd.name.clone(),
                out: sp.out,
                dom,
                cases,
                sat: sp.sat,
                round: sp.round,
                chunked: sp.chunked,
                reads,
            }),
        })
    }

    /// Declares the full buffer `id` of a stage over its bound domain
    /// (exact extents: an empty domain yields an empty buffer).
    fn full_buffer(&mut self, id: BufId, name: &str, dom: &Rect) {
        debug_assert_eq!(id, BufId(self.buffers.len()), "plan buffer order");
        self.buffers.push(BufDecl {
            name: name.to_string(),
            kind: BufKind::Full,
            sizes: (0..dom.ndim()).map(|d| dom.extent(d).max(0)).collect(),
            origin: dom.ranges().iter().map(|&(lo, _)| lo).collect(),
        });
    }

    /// The lowering environment at the bound params.
    fn env<'e>(&self, func_scratch: &'e HashMap<FuncId, BufId>, vars: &'e [VarId]) -> LowerEnv<'e>
    where
        'a: 'e,
    {
        let plan = self.plan;
        LowerEnv {
            pipe: &plan.pipe,
            params: self.params,
            image_bufs: &plan.image_bufs,
            func_scratch,
            func_full: &plan.func_full,
            vars,
        }
    }

    /// Builds one bound kernel from its plan prototype and records its
    /// optimizer report.
    fn kernel(
        &mut self,
        env: &LowerEnv<'_>,
        body: KernelBody<'_>,
        geom: (&Rect, &[(i64, i64)]),
        proto: &KernelProto,
        name: String,
    ) -> Result<(Kernel, Option<RegId>), CompileError> {
        let kernel_opt = self.plan.opts.kernel_opt;
        let (k, reused) = build_kernel(env, body, geom, Some(proto), kernel_opt, name)?;
        if let Some(r) = k.report {
            self.kernels.push(r);
            if reused {
                self.reused += 1;
            } else {
                self.respecialized += 1;
            }
        }
        Ok((k.kernel, k.mask))
    }
}

fn make_group_report(
    plan: &ParametricPlan,
    g: &crate::grouping::Group,
    scratch_bytes: usize,
    full_bytes: usize,
    bound_tiles: Option<Vec<Option<i64>>>,
    choice: Option<&crate::TileChoice>,
) -> GroupReport {
    let pipe = &plan.pipe;
    // The grouping pass already solved alignment and cached the overlap
    // vector and ratio on the group; tiled groups report the tile shape
    // the bind actually used (fixed config or re-checked model decision).
    let tile_sizes = if g.kind == GroupKindTag::Normal {
        bound_tiles.unwrap_or_default()
    } else {
        Vec::new()
    };
    // Under the cache model the ratio follows the chosen shape; the fixed
    // path keeps the grouping pass's estimate bit-for-bit.
    let overlap_ratio = if choice.is_some() && !tile_sizes.is_empty() {
        let mut ratio = 1.0f64;
        for (d, t) in tile_sizes.iter().enumerate() {
            if let (Some(t), Some((l, r))) = (t, g.overlap.get(d)) {
                if *t > 0 {
                    ratio *= (t + l + r) as f64 / *t as f64;
                }
            }
        }
        ratio - 1.0
    } else {
        g.overlap_ratio
    };
    GroupReport {
        sink: pipe.func(g.sink).name.clone(),
        stages: g
            .stages
            .iter()
            .map(|&f| pipe.func(f).name.clone())
            .collect(),
        kind: g.kind,
        tile_sizes,
        overlap: g.overlap.clone(),
        overlap_ratio,
        scratch_bytes,
        full_bytes,
        // Filled in by the storage pass once slots are assigned.
        scratch_folded_bytes: 0,
        scratch_slots: 0,
        predicted_working_set: choice.map_or(0, |c| c.working_set),
        tile_model_fallback: choice.is_some_and(|c| c.fallback),
    }
}
