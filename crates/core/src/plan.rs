//! Phase 1 of parametric compilation: everything *size-independent*.
//!
//! [`plan`] runs the expensive analyses exactly once per pipeline
//! *structure* — front-end (cycle check, point-wise inlining), grouping
//! (Algorithm 1, steered by [`CompileOptions::estimates`]), alignment and
//! scaling, storage classification, schedule-space construction, kernel
//! prototypes, SIMD level resolution — and captures the result in a
//! [`ParametricPlan`] whose geometry stays *symbolic*:
//! stage domains and image extents remain the `PAff`/`Interval` forms of
//! the specification, evaluated only when [`crate::instantiate`] binds
//! concrete parameter values (the paper keeps emitted loop bounds
//! parametric for the same reason; heuristic decisions use estimates).
//!
//! What is deliberately *not* here (because it genuinely depends on the
//! bound sizes): tile enumeration and backward region propagation, buffer
//! extents and scratch sizing, and the storage-folding slot coloring — all
//! of which [`crate::instantiate`] derives per binding.
//!
//! Every kernel, at plan time and at bind time, comes from one function,
//! [`build_kernel`]: the only place a case or reduction body is lowered
//! and the only caller of `optimize_kernel`. The plan calls it at the
//! estimates and stores the result on each case and reduction as a
//! [`KernelProto`]; `instantiate` calls it at the bound params, and it
//! hands the prototype back verbatim when that is provably byte-identical
//! (the kernel embeds no parameter value and the bound rect pins the same
//! dimensions the prototype was specialized for).

use crate::grouping::{group_stages_with, Group, GroupKindTag, Grouping};
use crate::lower::{KernelBuilder, LowerEnv};
use crate::storage::StageStorage;
use crate::{CompileError, CompileOptions};
use polymage_diag::{Diag, Value};
use polymage_graph::{inline_pointwise, PipelineGraph};
use polymage_ir::{Cond, Expr, FuncBody, FuncId, Pipeline, ScalarType, Source, VarId};
use polymage_poly::{extract_accesses, narrow_rect_by_cond, solve_alignment, Access, DimMap, Rect};
use polymage_vm::MAX_INDEX_TERMS;
use polymage_vm::{fixed_dims, optimize_kernel, sync_mask};
use polymage_vm::{BufId, IdxPlan, Kernel, KernelOptReport, Op, RegId, SimdLevel};
use std::collections::HashMap;

/// A size-independent compilation plan: phase 1's output, phase 2's input.
///
/// Produced by [`plan`]; bind concrete parameter values with
/// [`crate::instantiate`] to obtain an executable
/// [`polymage_vm::Program`]. One plan serves arbitrarily many bindings —
/// `Session` caches plans by `content_hash ×`
/// [`CompileOptions::cache_key_structural`] and instances per bound
/// params.
#[derive(Debug, Clone)]
pub struct ParametricPlan {
    /// The inlined pipeline (phase-1 front-end output). Domains and image
    /// extents in here are the plan's *symbolic* geometry.
    pub(crate) pipe: Pipeline,
    pub(crate) inlined: Vec<String>,
    pub(crate) dead: Vec<String>,
    /// Grouping decisions (Algorithm 1 at the estimates).
    pub(crate) grouping: Grouping,
    /// Per-group structural schedules, parallel to `grouping.groups`.
    pub(crate) groups: Vec<GroupPlan>,
    /// Buffer ids of the input images (`BufId(0)..`).
    pub(crate) image_bufs: Vec<BufId>,
    /// Full buffer of every full-stored stage.
    pub(crate) func_full: HashMap<FuncId, BufId>,
    /// Live-out `(name, buffer)` pairs.
    pub(crate) outputs: Vec<(String, BufId)>,
    /// Total number of buffers every instantiation declares.
    pub(crate) nbufs: usize,
    /// The options snapshot the plan was built with (`params` inside it is
    /// only the default binding; `instantiate` receives explicit values).
    pub(crate) opts: CompileOptions,
    /// The estimates the heuristics used.
    pub(crate) estimates: Vec<i64>,
    /// SIMD level, resolved once at plan time.
    pub(crate) simd: SimdLevel,
    /// Cache-model tile decisions, parallel to `grouping.groups`
    /// (`Some` only for Normal groups under [`crate::TileSpec::Auto`]
    /// whose whole domain overflows the cache budget).
    /// Made at the estimates; `instantiate` re-checks them against each
    /// binding's concrete bounds.
    pub(crate) tile_choices: Vec<Option<crate::TileChoice>>,
}

impl ParametricPlan {
    /// The inlined pipeline the plan schedules (its domains and image
    /// extents are the plan's symbolic geometry).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipe
    }

    /// The parameter estimates the size-dependent heuristics used.
    pub fn estimates(&self) -> &[i64] {
        &self.estimates
    }

    /// Number of scheduled groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The cache model's tile decision per group (parallel to the
    /// grouping): `Some` only for Normal groups planned under
    /// [`crate::TileSpec::Auto`] whose whole domain overflows the cache
    /// budget.
    pub fn tile_choices(&self) -> &[Option<crate::TileChoice>] {
        &self.tile_choices
    }

    /// Renders the plan's *symbolic* geometry: parameter legend, image
    /// extents and per-stage domains as affine forms over the `ParamId`s
    /// (`p0`, `p1`, …), plus each group's structural schedule (storage
    /// class per stage, overlap vector). `bin/inspect` prints this next to
    /// one instantiated binding.
    pub fn describe_symbolic(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let names = self.pipe.params();
        for (i, n) in names.iter().enumerate() {
            let est = self.estimates.get(i).copied().unwrap_or(0);
            let _ = writeln!(s, "param p{i} = `{n}` (estimate {est})");
        }
        for (i, img) in self.pipe.images().iter().enumerate() {
            let exts: Vec<String> = img.extents.iter().map(|e| e.to_string()).collect();
            let _ = writeln!(s, "image {} [{}] -> buf{}", img.name, exts.join(" x "), i);
        }
        for ((gi, g), gp) in self.grouping.groups.iter().enumerate().zip(&self.groups) {
            let _ = writeln!(s, "group {} [{:?}]", gp.name(), g.kind);
            for f in gp.stage_ids() {
                let fd = self.pipe.func(f);
                let dom: Vec<String> = fd.var_dom.dom.iter().map(|iv| iv.to_string()).collect();
                let class = match &gp {
                    GroupPlan::Tiled(t) => {
                        let sp = t
                            .stages
                            .iter()
                            .find(|sp| sp.f == f)
                            .expect("stage in its own group");
                        if sp.direct {
                            "full(direct)"
                        } else if sp.needs_full {
                            "scratch+full"
                        } else {
                            "scratch"
                        }
                    }
                    GroupPlan::Reduction(_) => "full(reduce)",
                    GroupPlan::SelfRef(_) => "full(scan)",
                };
                let _ = writeln!(s, "  {}: {} {}", fd.name, dom.join(" x "), class);
            }
            if !g.overlap.is_empty() {
                let ov: Vec<String> = g.overlap.iter().map(|(l, r)| format!("{l}+{r}")).collect();
                let _ = writeln!(s, "  overlap: ({})", ov.join(","));
            }
            if let Some(Some(ch)) = self.tile_choices.get(gi) {
                let tiles: Vec<String> = ch
                    .tiles
                    .iter()
                    .map(|t| t.map_or("-".into(), |v| v.to_string()))
                    .collect();
                let _ = writeln!(
                    s,
                    "  tile model: ({}) ws={}B ratio={:.3}{}",
                    tiles.join(","),
                    ch.working_set,
                    ch.ratio,
                    if ch.fallback { " (fallback)" } else { "" }
                );
            }
        }
        s
    }
}

/// Structural schedule of one group (geometry left symbolic).
#[derive(Debug, Clone)]
pub(crate) enum GroupPlan {
    Tiled(TiledPlan),
    Reduction(ReductionPlan),
    SelfRef(SelfRefPlan),
}

impl GroupPlan {
    fn name(&self) -> &str {
        match self {
            GroupPlan::Tiled(t) => &t.name,
            GroupPlan::Reduction(r) => &r.group_name,
            GroupPlan::SelfRef(s) => &s.group_name,
        }
    }

    fn stage_ids(&self) -> Vec<FuncId> {
        match self {
            GroupPlan::Tiled(t) => t.stages.iter().map(|s| s.f).collect(),
            GroupPlan::Reduction(r) => vec![r.f],
            GroupPlan::SelfRef(s) => vec![s.f],
        }
    }
}

/// Structural schedule of a tiled (Normal) group.
#[derive(Debug, Clone)]
pub(crate) struct TiledPlan {
    pub(crate) name: String,
    pub(crate) sink: FuncId,
    /// Member stages, producers first.
    pub(crate) stages: Vec<StagePlanP>,
    /// Per sink dimension: the sink's own normalization scale (tile
    /// boundaries live in the scheduled space).
    pub(crate) sink_scales: Vec<i64>,
    /// Pre-extracted in-group accesses: consumer stage index → list of
    /// `(producer stage index, accesses)`.
    pub(crate) accesses_to: Vec<Vec<(usize, Vec<Access>)>>,
    /// Scratch buffer of each non-direct stage (for re-lowering).
    pub(crate) func_scratch: HashMap<FuncId, BufId>,
}

/// Structural plan for one stage of a tiled group.
#[derive(Debug, Clone)]
pub(crate) struct StagePlanP {
    pub(crate) f: FuncId,
    pub(crate) needs_full: bool,
    pub(crate) direct: bool,
    /// Alignment of each stage dimension to the group's schedule space.
    pub(crate) maps: Vec<DimMap>,
    pub(crate) scratch: BufId,
    pub(crate) full: Option<BufId>,
    pub(crate) sat: Option<(f32, f32)>,
    pub(crate) round: bool,
    pub(crate) cases: Vec<CasePlan>,
}

/// One lowered case: the structural narrowing outcome plus its kernel
/// prototype.
///
/// `steps` and residual-mask presence depend only on the guard's
/// *structure* (parity strides and exactness never read parameter values —
/// see `polymage_poly::narrow_rect_by_cond`), so they are fixed at plan
/// time; only the rectangle is re-narrowed per binding.
#[derive(Debug, Clone)]
pub(crate) struct CasePlan {
    /// The original guard (`None` = always).
    pub(crate) cond: Option<Cond>,
    /// Stride/phase per dimension (structural).
    pub(crate) steps: Vec<(i64, i64)>,
    /// Residual guard after strided substitution (`Some` iff the guard was
    /// not captured exactly — structural).
    pub(crate) residual: Option<Cond>,
    /// The case expression after strided substitution (re-lowered per
    /// binding unless the prototype is reused).
    pub(crate) expr: Expr,
    /// The case's kernel at the estimates.
    pub(crate) proto: KernelProto,
}

/// A kernel as [`build_kernel`] returns it and the plan stores it:
/// optimized under `kernel_opt`, raw otherwise, with the fixed-dimension
/// signature it was built for.
#[derive(Debug, Clone)]
pub(crate) struct KernelProto {
    pub(crate) kernel: Kernel,
    /// Store-mask register (only cases with a residual guard have one).
    pub(crate) mask: Option<RegId>,
    /// Whether the kernel embeds concrete parameter values (`Expr::Param`
    /// constants, parametric load offsets).
    pub(crate) param_sensitive: bool,
    /// The `fixed_dims` signature the optimizer specialized the kernel for
    /// (empty without `kernel_opt`: a raw kernel assumes nothing).
    pub(crate) fixed: Vec<Option<i64>>,
    /// The optimizer's report (present iff `kernel_opt`).
    pub(crate) report: Option<KernelOptReport>,
}

/// What [`build_kernel`] lowers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KernelBody<'a> {
    /// A case of stage `f`: its expression (after strided substitution)
    /// and residual guard, lowered to the outputs `[value, mask?]`.
    Case(FuncId, &'a Expr, Option<&'a Cond>),
    /// The reduction stage `f`, lowered to `[value, target indices…]`.
    Reduce(FuncId),
}

/// Produces one kernel: the only place a case or reduction body is lowered
/// and the only caller of `optimize_kernel`.
///
/// `geom` is the rect the kernel runs over (already intersected with the
/// domain) and its strides; it fixes the single-point-dimension signature
/// the optimizer specializes for. With `proto` given (a bind), the
/// prototype comes back verbatim — renamed, and flagged `true` — when it
/// embeds no parameter value and was built for the same signature; then it
/// is byte-identical to what lowering at `env.params` would produce.
/// Otherwise the body is lowered at `env.params` and, under `kernel_opt`,
/// optimized.
pub(crate) fn build_kernel(
    env: &LowerEnv<'_>,
    body: KernelBody<'_>,
    (rect, steps): (&Rect, &[(i64, i64)]),
    proto: Option<&KernelProto>,
    kernel_opt: bool,
    name: String,
) -> Result<(KernelProto, bool), CompileError> {
    let fixed = if kernel_opt {
        fixed_dims(rect, steps)
    } else {
        Vec::new()
    };
    if let Some(p) = proto.filter(|p| !p.param_sensitive && p.fixed == fixed) {
        let mut k = p.clone();
        if let Some(r) = &mut k.report {
            r.name = name;
        }
        return Ok((k, true));
    }
    let mut b = KernelBuilder::new(env);
    let (f, outs, mut mask) = match body {
        KernelBody::Case(f, expr, residual) => {
            let val = b.value(expr);
            let mask = residual.map(|c| b.cond(c));
            (f, std::iter::once(val).chain(mask).collect(), mask)
        }
        KernelBody::Reduce(f) => {
            let FuncBody::Reduce(acc) = &env.pipe.func(f).body else {
                unreachable!("reduction stage")
            };
            let mut outs = vec![b.value(&acc.value)];
            outs.extend(acc.target.iter().map(|t| b.index(t)));
            (f, outs, None)
        }
    };
    let param_sensitive = b.param_sensitive();
    let (mut kernel, _reads) = b.finish(outs);
    check_index_terms(&kernel, &env.pipe.func(f).name)?;
    let report = kernel_opt.then(|| {
        let report = optimize_kernel(&mut kernel, rect.ndim(), &fixed, name);
        sync_mask(&kernel, &mut mask);
        report
    });
    let k = KernelProto {
        kernel,
        mask,
        param_sensitive,
        fixed,
        report,
    };
    Ok((k, false))
}

/// Structural plan for a reduction group.
#[derive(Debug, Clone)]
pub(crate) struct ReductionPlan {
    pub(crate) group_name: String,
    pub(crate) f: FuncId,
    pub(crate) out: BufId,
    /// The reduction's kernel at the estimates.
    pub(crate) proto: KernelProto,
}

/// Structural plan for a self-referential (scan) group.
#[derive(Debug, Clone)]
pub(crate) struct SelfRefPlan {
    pub(crate) group_name: String,
    pub(crate) f: FuncId,
    pub(crate) out: BufId,
    pub(crate) chunked: bool,
    pub(crate) sat: Option<(f32, f32)>,
    pub(crate) round: bool,
    pub(crate) cases: Vec<CasePlan>,
}

pub(crate) fn sat_round(ty: ScalarType) -> (Option<(f32, f32)>, bool) {
    let sat = ty.saturation_range().map(|(lo, hi)| (lo as f32, hi as f32));
    (sat, ty.is_integral())
}

/// Builds a size-independent [`ParametricPlan`] (phase 1).
///
/// Runs the front-end, grouping (at [`CompileOptions::estimates`]),
/// alignment/scaling, storage classification, and builds each case's and
/// reduction's kernel prototype. The bound `opts.params` are *not*
/// consumed — pass them to [`crate::instantiate`].
///
/// # Errors
///
/// Same structural conditions as [`crate::compile`] (cycles, unsupported
/// self-references, estimate-count mismatch), and
/// [`CompileError::InvalidOptions`] for unusable option values, including
/// estimates at which the geometry overflows `i64`. Bounds
/// violations and empty domains are only detectable per binding and
/// surface from [`crate::instantiate`].
pub fn plan(pipe: &Pipeline, opts: &CompileOptions) -> Result<ParametricPlan, CompileError> {
    plan_with(pipe, opts, &Diag::noop())
}

/// [`plan`] with diagnostics: emits the `phase.frontend` / `phase.grouping`
/// spans of the classic compiler plus a `phase.lower` span for structural
/// scheduling and the kernel prototypes, all inside a `plan` span.
pub fn plan_with(
    pipe: &Pipeline,
    opts: &CompileOptions,
    diag: &Diag,
) -> Result<ParametricPlan, CompileError> {
    opts.validate()?;
    if opts.estimates().len() != pipe.params().len() {
        return Err(CompileError::param_mismatch(pipe, opts.estimates().len()));
    }
    let field = if opts.param_estimates.is_some() {
        "param_estimates"
    } else {
        "params"
    };
    crate::options::check_params(pipe, opts.estimates(), field)?;
    crate::options::env::report(diag);
    let plan_span = diag.begin();

    // Front-end. Cycle detection runs on the user's specification (before
    // inlining, which could fold a cycle of point-wise stages into a
    // self-reference and misreport the error). The static bounds check is
    // *per binding* and lives in `instantiate`.
    let span = diag.begin();
    PipelineGraph::build(pipe)?;
    let (pipe2, inline_report) = if opts.schedule.inlines() {
        inline_pointwise(pipe)?
    } else {
        (pipe.clone(), Default::default())
    };
    let graph = PipelineGraph::build(&pipe2)?;
    diag.end(
        span,
        "phase.frontend",
        if diag.enabled() {
            vec![
                ("inlined", Value::UInt(inline_report.inlined.len() as u64)),
                ("dead", Value::UInt(inline_report.dead.len() as u64)),
            ]
        } else {
            Vec::new()
        },
    );

    // Grouping (Algorithm 1) — size-dependent heuristics read the
    // estimates.
    let span = diag.begin();
    let grouping = group_stages_with(&pipe2, &graph, opts, diag);
    diag.end(
        span,
        "phase.grouping",
        if diag.enabled() {
            vec![
                ("groups", Value::UInt(grouping.groups.len() as u64)),
                ("stages", Value::UInt(pipe2.func_ids().count() as u64)),
            ]
        } else {
            Vec::new()
        },
    );

    // Cache-model tile selection (runs strictly after grouping so the
    // grouping structure never depends on the model's per-group shapes).
    let tile_choices = if matches!(opts.tiles, crate::TileSpec::Auto) {
        let span = diag.begin();
        let choices =
            crate::tilemodel::choose_group_tiles(&pipe2, &graph, &grouping.groups, opts, diag);
        diag.end(
            span,
            "phase.tilemodel",
            if diag.enabled() {
                vec![(
                    "modeled",
                    Value::UInt(choices.iter().filter(|c| c.is_some()).count() as u64),
                )]
            } else {
                Vec::new()
            },
        );
        choices
    } else {
        vec![None; grouping.groups.len()]
    };

    // Buffer ids are fully structural: images first, then per group (in
    // execution order) each stage's scratch and full slots in stage order.
    // `instantiate` re-declares them in exactly this order with concrete
    // sizes.
    let image_bufs: Vec<BufId> = (0..pipe2.images().len()).map(BufId).collect();

    let span = diag.begin();
    let estimates = opts.estimates().to_vec();
    let mut ctx = PlanCtx {
        pipe: &pipe2,
        graph: &graph,
        opts,
        est: &estimates,
        image_bufs: &image_bufs,
        func_full: HashMap::new(),
        next_buf: image_bufs.len(),
    };
    let mut groups = Vec::with_capacity(grouping.groups.len());
    for g in &grouping.groups {
        groups.push(plan_group(&mut ctx, g)?);
    }
    diag.end(
        span,
        "phase.lower",
        if diag.enabled() {
            let kernels: usize = groups
                .iter()
                .map(|g| match g {
                    GroupPlan::Tiled(t) => t.stages.iter().map(|s| s.cases.len()).sum(),
                    GroupPlan::Reduction(_) => 1,
                    GroupPlan::SelfRef(s) => s.cases.len(),
                })
                .sum();
            vec![
                ("groups", Value::UInt(groups.len() as u64)),
                ("kernels", Value::UInt(kernels as u64)),
            ]
        } else {
            Vec::new()
        },
    );

    let outputs: Vec<(String, BufId)> = pipe2
        .live_outs()
        .iter()
        .map(|f| {
            let b = *ctx
                .func_full
                .get(f)
                .expect("live-out stages always receive full storage");
            (pipe2.func(*f).name.clone(), b)
        })
        .collect();

    let nbufs = ctx.next_buf;
    let func_full = std::mem::take(&mut ctx.func_full);
    let simd = polymage_vm::resolve_simd(opts.simd);
    diag.end(
        plan_span,
        "plan",
        if diag.enabled() {
            vec![
                ("pipeline", Value::from(pipe2.name())),
                ("groups", Value::UInt(groups.len() as u64)),
            ]
        } else {
            Vec::new()
        },
    );
    Ok(ParametricPlan {
        pipe: pipe2,
        inlined: inline_report.inlined,
        dead: inline_report.dead,
        grouping,
        groups,
        image_bufs,
        func_full,
        outputs,
        nbufs,
        opts: opts.clone(),
        estimates,
        simd,
        tile_choices,
    })
}

/// Mutable planning context shared across groups.
struct PlanCtx<'a> {
    pipe: &'a Pipeline,
    graph: &'a PipelineGraph,
    opts: &'a CompileOptions,
    est: &'a [i64],
    image_bufs: &'a [BufId],
    func_full: HashMap<FuncId, BufId>,
    next_buf: usize,
}

impl PlanCtx<'_> {
    fn alloc_buf(&mut self) -> BufId {
        let b = BufId(self.next_buf);
        self.next_buf += 1;
        b
    }
}

/// Stage `f`'s domain at the given parameter values.
pub(crate) fn eval_dom(pipe: &Pipeline, f: FuncId, values: &[i64]) -> Rect {
    Rect::new(
        pipe.func(f)
            .var_dom
            .dom
            .iter()
            .map(|iv| iv.eval(values))
            .collect(),
    )
}

fn plan_group(ctx: &mut PlanCtx<'_>, group: &Group) -> Result<GroupPlan, CompileError> {
    match group.kind {
        GroupKindTag::Reduction => plan_reduction(ctx, group.sink),
        GroupKindTag::SelfRef => plan_selfref(ctx, group.sink),
        GroupKindTag::Normal => plan_tiled(ctx, group),
    }
}

fn plan_tiled(ctx: &mut PlanCtx<'_>, group: &Group) -> Result<GroupPlan, CompileError> {
    // Producers first.
    let stages: Vec<FuncId> = ctx
        .graph
        .topo_order()
        .iter()
        .copied()
        .filter(|f| group.stages.contains(f))
        .collect();
    let sink = group.sink;
    let alignment =
        solve_alignment(ctx.pipe, &stages, sink).expect("grouping only forms alignable groups");

    // Storage classification (structural).
    let storage: Vec<StageStorage> = stages
        .iter()
        .map(|&f| StageStorage::of(ctx.pipe, ctx.graph, &stages, f, ctx.opts.schedule))
        .collect();

    // Sink normalization scales (structural).
    let sink_ndim = ctx.pipe.func(sink).var_dom.dom.len();
    let sink_scales: Vec<i64> = (0..sink_ndim)
        .map(|g| alignment.scale_on(sink, g).map_or(1, |s| s.num().max(1)))
        .collect();

    // Pre-extracted in-group accesses: consumer stage index → producer →
    // accesses (structural).
    let accesses_to: Vec<Vec<(usize, Vec<Access>)>> = stages
        .iter()
        .map(|&c| {
            let mut per_prod: HashMap<usize, Vec<Access>> = HashMap::new();
            for acc in extract_accesses(ctx.pipe.func(c)) {
                if let Source::Func(p) = acc.src {
                    if let Some(pi) = stages.iter().position(|&s| s == p) {
                        if p != c {
                            per_prod.entry(pi).or_default().push(acc);
                        }
                    }
                }
            }
            per_prod.into_iter().collect()
        })
        .collect();

    // Buffer ids: per stage, scratch then full (matching `instantiate`'s
    // declaration order).
    let mut func_scratch: HashMap<FuncId, BufId> = HashMap::new();
    let mut stage_bufs: Vec<(BufId, Option<BufId>)> = Vec::with_capacity(stages.len());
    for (&f, s) in stages.iter().zip(&storage) {
        let scratch = if s.direct {
            BufId(0) // placeholder, unused by direct stages
        } else {
            let b = ctx.alloc_buf();
            func_scratch.insert(f, b);
            b
        };
        let full = if s.needs_full {
            let b = ctx.alloc_buf();
            ctx.func_full.insert(f, b);
            Some(b)
        } else {
            None
        };
        stage_bufs.push((scratch, full));
    }

    // Kernel protos.
    let group_name = format!("{}+{}", ctx.pipe.func(sink).name, stages.len() - 1);
    let mut stage_plans: Vec<StagePlanP> = Vec::with_capacity(stages.len());
    for (k, (&f, s)) in stages.iter().zip(&storage).enumerate() {
        let (sat, round) = sat_round(ctx.pipe.func(f).ty);
        let dom_est = eval_dom(ctx.pipe, f, ctx.est);
        let cases = plan_cases(ctx, f, &dom_est, &func_scratch, &group_name)?;
        stage_plans.push(StagePlanP {
            f,
            needs_full: s.needs_full,
            direct: s.direct,
            maps: alignment.map(f).to_vec(),
            scratch: stage_bufs[k].0,
            full: stage_bufs[k].1,
            sat,
            round,
            cases,
        });
    }

    Ok(GroupPlan::Tiled(TiledPlan {
        name: group_name,
        sink,
        stages: stage_plans,
        sink_scales,
        accesses_to,
        func_scratch,
    }))
}

/// Lowers every case of a stage into a [`CasePlan`] proto at the
/// estimates. Unlike the classic per-size scheduler, cases whose rectangle
/// is empty *at the estimates* are still lowered — they may be non-empty
/// at other bindings; `instantiate` filters per binding.
fn plan_cases(
    ctx: &PlanCtx<'_>,
    f: FuncId,
    dom_est: &Rect,
    func_scratch: &HashMap<FuncId, BufId>,
    group_name: &str,
) -> Result<Vec<CasePlan>, CompileError> {
    let fd = ctx.pipe.func(f);
    let cases = match &fd.body {
        FuncBody::Cases(cs) => cs,
        _ => unreachable!("tiled stages are case-defined"),
    };
    let vars: Vec<VarId> = fd.var_dom.vars.clone();
    let env = LowerEnv {
        pipe: ctx.pipe,
        params: ctx.est,
        image_bufs: ctx.image_bufs,
        func_scratch,
        func_full: &ctx.func_full,
        vars: &vars,
    };
    let mut out = Vec::with_capacity(cases.len());
    for (ci, case) in cases.iter().enumerate() {
        let (rect_est, steps, residual) = match &case.cond {
            None => (dom_est.clone(), vec![(1, 0); dom_est.ndim()], None),
            Some(c) => {
                // `steps` and `exact` are structural (strides and
                // exactness never read parameter values); only the rect
                // varies per binding.
                let nr = narrow_rect_by_cond(c, &vars, dom_est, ctx.est);
                (
                    nr.rect,
                    nr.steps,
                    if nr.exact { None } else { Some(c.clone()) },
                )
            }
        };
        // Strided cases (parity guards): lower the body in strided
        // coordinates by substituting v_d -> stride_d*v_d + phase_d — the
        // paper's domain splitting instead of inner-loop branching.
        let strided = steps.iter().any(|&(s, _)| s != 1);
        let (expr, residual) = if strided {
            let map: HashMap<_, _> = vars
                .iter()
                .enumerate()
                .filter(|(d, _)| steps[*d] != (1, 0))
                .map(|(d, &v)| {
                    let (s, ph) = steps[d];
                    (v, s * polymage_ir::Expr::Var(v) + ph as f64)
                })
                .collect();
            (
                polymage_graph::subst_vars(&case.expr, &map),
                residual.map(|c| polymage_graph::subst_vars_cond(&c, &map)),
            )
        } else {
            (case.expr.clone(), residual)
        };
        let (proto, _) = build_kernel(
            &env,
            KernelBody::Case(f, &expr, residual.as_ref()),
            (&rect_est.intersect(dom_est), &steps),
            None,
            ctx.opts.kernel_opt,
            format!("{}/{}#{}", group_name, fd.name, ci),
        )?;
        out.push(CasePlan {
            cond: case.cond.clone(),
            steps,
            residual,
            expr,
            proto,
        });
    }
    Ok(out)
}

fn plan_reduction(ctx: &mut PlanCtx<'_>, f: FuncId) -> Result<GroupPlan, CompileError> {
    let fd = ctx.pipe.func(f);
    let FuncBody::Reduce(acc) = &fd.body else {
        unreachable!("reduction group")
    };
    let out = ctx.alloc_buf();
    ctx.func_full.insert(f, out);

    let empty_scratch = HashMap::new();
    let env = LowerEnv {
        pipe: ctx.pipe,
        params: ctx.est,
        image_bufs: ctx.image_bufs,
        func_scratch: &empty_scratch,
        func_full: &ctx.func_full,
        vars: &acc.red_vars,
    };
    let group_name = format!("{}(reduce)", fd.name);
    let red_dom_est = Rect::new(acc.red_dom.iter().map(|iv| iv.eval(ctx.est)).collect());
    let (proto, _) = build_kernel(
        &env,
        KernelBody::Reduce(f),
        (&red_dom_est, &[]),
        None,
        ctx.opts.kernel_opt,
        format!("{}/{}", group_name, fd.name),
    )?;
    // Every target dimension is a data-dependent index of the scatter.
    if acc.target.len() > MAX_INDEX_TERMS {
        return Err(CompileError::UnsupportedAccess {
            func: fd.name.clone(),
            reason: format!(
                "accumulates into {} dimensions; at most {MAX_INDEX_TERMS} are supported",
                acc.target.len()
            ),
        });
    }
    Ok(GroupPlan::Reduction(ReductionPlan {
        group_name,
        f,
        out,
        proto,
    }))
}

/// Rejects a lowered kernel with a load the executor's index pipeline
/// cannot address: more than [`MAX_INDEX_TERMS`] data-dependent
/// dimensions, or more than that many dimensions driven by one loop
/// variable (the executor picks the chunk axis per region, so any loop
/// variable may become it).
fn check_index_terms(kernel: &Kernel, func: &str) -> Result<(), CompileError> {
    for op in &kernel.ops {
        let Op::Load { plan, .. } = op else { continue };
        let data_dependent = plan.iter().filter(|p| matches!(p, IdxPlan::Reg(_))).count();
        let driven: Vec<usize> = plan
            .iter()
            .filter_map(|p| match *p {
                IdxPlan::Affine {
                    dim: Some(v), q, ..
                } if q != 0 => Some(v),
                _ => None,
            })
            .collect();
        let widest = driven
            .iter()
            .map(|v| driven.iter().filter(|&u| u == v).count())
            .max()
            .unwrap_or(0);
        let reason = if data_dependent > MAX_INDEX_TERMS {
            format!("a read has {data_dependent} data-dependent dimensions")
        } else if widest > MAX_INDEX_TERMS {
            format!("a read varies in {widest} dimensions along one loop variable")
        } else {
            continue;
        };
        return Err(CompileError::UnsupportedAccess {
            func: func.to_string(),
            reason: format!("{reason}; at most {MAX_INDEX_TERMS} are supported"),
        });
    }
    Ok(())
}

fn plan_selfref(ctx: &mut PlanCtx<'_>, f: FuncId) -> Result<GroupPlan, CompileError> {
    let fd = ctx.pipe.func(f);
    let n = fd.var_dom.dom.len();

    // Validate self-access patterns (structural): pure constant offsets,
    // lexicographically negative.
    let mut chunked = true;
    for acc in extract_accesses(fd) {
        if acc.src != Source::Func(f) {
            continue;
        }
        let mut offsets: Vec<i64> = Vec::with_capacity(n);
        for (d, dim) in acc.dims.iter().enumerate() {
            let a = match dim {
                polymage_poly::AccessDim::Affine(a) => a,
                polymage_poly::AccessDim::Dynamic => {
                    return Err(CompileError::InvalidSelfReference {
                        func: fd.name.clone(),
                        reason: "data-dependent self access".into(),
                    })
                }
            };
            let ok = a.den == 1
                && a.single_var()
                    .map(|(v, q)| q == 1 && v == fd.var_dom.vars[d])
                    == Some(true)
                && a.cst.as_const().is_some();
            if !ok {
                return Err(CompileError::InvalidSelfReference {
                    func: fd.name.clone(),
                    reason: format!("unsupported self index in dimension {d}"),
                });
            }
            offsets.push(a.cst.as_const().unwrap());
        }
        match offsets.iter().position(|&o| o != 0) {
            None => {
                return Err(CompileError::InvalidSelfReference {
                    func: fd.name.clone(),
                    reason: "stage reads its own current point".into(),
                })
            }
            Some(first) => {
                if offsets[first] > 0 {
                    return Err(CompileError::InvalidSelfReference {
                        func: fd.name.clone(),
                        reason: "self dependence points forward in scan order".into(),
                    });
                }
                if first == n - 1 {
                    chunked = false; // same-row backward dependence
                }
            }
        }
    }

    let out = ctx.alloc_buf();
    ctx.func_full.insert(f, out);

    let (sat, round) = sat_round(fd.ty);
    let dom_est = eval_dom(ctx.pipe, f, ctx.est);
    let group_name = format!("{}(scan)", fd.name);
    let empty_scratch = HashMap::new();
    let cases = plan_cases(ctx, f, &dom_est, &empty_scratch, &group_name)?;
    Ok(GroupPlan::SelfRef(SelfRefPlan {
        group_name,
        f,
        out,
        chunked,
        sat,
        round,
        cases,
    }))
}
