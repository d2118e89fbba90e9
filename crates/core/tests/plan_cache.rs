//! Two-level session cache behavior: with pinned parameter estimates one
//! [`ParametricPlan`] serves every size (plan hits + instance misses),
//! racing binds at a fresh size never duplicate plan compilation, the
//! diagnostics counters `session.plan_*` / `session.instance_*` mirror
//! [`CacheStats`], and a bind reuses exactly the plan kernels the reuse
//! rule allows.

use polymage_apps::{all_benchmarks, Scale};
use polymage_core::interp::interpret;
use polymage_core::{compile, instantiate, plan, CompileError, CompileOptions, Compiled, Session};
use polymage_diag::{Counter, Diag};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{Buffer, Engine, RunRequest};
use std::sync::Arc;

/// blur(x) = (in(x−1) + in(x) + in(x+1)) / 3 over the interior of `N`.
fn blur1d() -> Pipeline {
    let mut p = PipelineBuilder::new("blur1d");
    let n = p.param("N");
    let img = p.image("in", ScalarType::Float, vec![PAff::param(n)]);
    let x = p.var("x");
    let dom = Interval::new(PAff::cst(1), PAff::param(n) - 2);
    let blur = p.func("blur", &[(x, dom)], ScalarType::Float);
    let e =
        (Expr::at(img, [x - 1]) + Expr::at(img, [x + 0]) + Expr::at(img, [x + 1])) * (1.0 / 3.0);
    p.define(blur, vec![Case::always(e)]).unwrap();
    p.finish(&[blur]).unwrap()
}

/// Optimized options at size `n` with the plan's estimates pinned at 96,
/// so every size shares one structural key (and therefore one plan).
fn opts_at(n: i64) -> CompileOptions {
    CompileOptions::optimized(vec![n]).with_estimates(vec![96])
}

/// The ISSUE's acceptance scenario: compile at A, then run at B and C —
/// one plan compilation total, three instantiations, two plan hits.
#[test]
fn one_plan_serves_three_sizes() {
    let diag = Diag::recorder();
    let session = Session::with_threads(1).with_diag(diag.clone());
    let pipe = blur1d();

    session.compile(&pipe, &opts_at(64)).unwrap(); // A
    let s = session.cache_stats();
    assert_eq!((s.plan_misses, s.plan_hits, s.misses, s.hits), (1, 0, 1, 0));

    session.compile(&pipe, &opts_at(128)).unwrap(); // B
    session.compile(&pipe, &opts_at(200)).unwrap(); // C
    let s = session.cache_stats();
    assert_eq!(s.plan_misses, 1, "one plan compile serves all sizes");
    assert_eq!(s.plan_hits, 2, "B and C rebind the cached plan");
    assert_eq!(s.misses, 3, "each size is its own instantiation");
    assert_eq!(session.plan_cache_len(), 1);
    assert_eq!(session.cache_len(), 3);

    // An instance hit is served before the plan cache is even consulted.
    let first = session.compile(&pipe, &opts_at(128)).unwrap();
    let again = session.compile(&pipe, &opts_at(128)).unwrap();
    assert!(Arc::ptr_eq(&first, &again));
    let s = session.cache_stats();
    assert_eq!(
        (s.plan_misses, s.plan_hits),
        (1, 2),
        "hit skips plan lookup"
    );
    assert_eq!(s.hits, 2);

    // Diagnostics counters mirror the stats.
    let rec = diag.snapshot().expect("recording sink");
    assert_eq!(rec.counter(Counter::PlanMiss), 1);
    assert_eq!(rec.counter(Counter::PlanHit), 2);
    assert_eq!(rec.counter(Counter::InstanceMiss), 3);
    assert_eq!(rec.counter(Counter::InstanceHit), 2);
}

/// Without pinned estimates the estimates default to the bound parameters,
/// so each size is a distinct structural key — the documented
/// one-plan-per-size fallback.
#[test]
fn default_estimates_follow_params() {
    let session = Session::with_threads(1);
    let pipe = blur1d();
    session
        .compile(&pipe, &CompileOptions::optimized(vec![64]))
        .unwrap();
    session
        .compile(&pipe, &CompileOptions::optimized(vec![128]))
        .unwrap();
    let s = session.cache_stats();
    assert_eq!(s.plan_misses, 2, "estimates follow params → two plans");
    assert_eq!(s.plan_hits, 0);
    assert_eq!(session.plan_cache_len(), 2);
}

/// `Session::plan` is cached and single-flighted on its own: repeated
/// calls return the same allocation with one planner run.
#[test]
fn plan_api_returns_cached_allocation() {
    let session = Session::with_threads(1);
    let pipe = blur1d();
    let a = session.plan(&pipe, &opts_at(64)).unwrap();
    let b = session.plan(&pipe, &opts_at(777)).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "params don't affect the plan key");
    let s = session.cache_stats();
    assert_eq!((s.plan_misses, s.plan_hits), (1, 1));
    assert_eq!(s.misses, 0, "plan() alone never instantiates");
    assert_eq!(a.estimates(), &[96]);
}

/// Racing binds at a brand-new size: many threads compile the same
/// (pipeline, size) concurrently. Exactly one instantiation runs
/// (single-flight) and the plan cache is consulted exactly once — zero
/// extra plan compiles.
#[test]
fn racing_binds_never_duplicate_plan_compilation() {
    let session = Arc::new(Session::with_threads(1));
    let pipe = Arc::new(blur1d());
    // Seed the plan cache at size A.
    session.compile(&pipe, &opts_at(64)).unwrap();
    assert_eq!(session.cache_stats().plan_misses, 1);

    const RACERS: usize = 8;
    let barrier = Arc::new(std::sync::Barrier::new(RACERS));
    let compiled: Vec<_> = (0..RACERS)
        .map(|_| {
            let (session, pipe, barrier) = (
                Arc::clone(&session),
                Arc::clone(&pipe),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                barrier.wait();
                session.compile(&pipe, &opts_at(300)).unwrap() // D
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    assert!(
        compiled.iter().all(|c| Arc::ptr_eq(c, &compiled[0])),
        "all racers share the leader's instantiation"
    );
    let s = session.cache_stats();
    assert_eq!(
        s.plan_misses, 1,
        "no extra plan compiles under racing binds"
    );
    assert_eq!(
        s.plan_hits, 1,
        "only the instance-flight leader binds the plan"
    );
    assert_eq!(s.misses, 2, "A's and D's instantiations only");
    assert_eq!(s.hits, RACERS as u64 - 1, "followers wait on the leader");
}

/// Caller-supplied `pub` option fields the tile arithmetic cannot use are
/// a typed error from every entry point, and a failed compile caches
/// nothing. An `i64::MAX` tile size used to overflow inside `compile`, and
/// empty or zero tile sizes silently left every group untiled.
#[test]
fn invalid_options_rejected() {
    let pipe = blur1d();
    let opt = CompileOptions::optimized(vec![64]);
    let bad = [
        ("tiles", opt.clone().with_tiles(vec![])),
        ("tiles", opt.clone().with_tiles(vec![0])),
        ("tiles", opt.clone().with_tiles(vec![i64::MAX])),
        ("overlap_threshold", opt.clone().with_threshold(f64::NAN)),
        ("overlap_threshold", opt.clone().with_threshold(-0.1)),
    ];
    let session = Session::with_threads(1);
    for (field, opts) in bad {
        let check = |e: CompileError| match e {
            CompileError::InvalidOptions { field: f, .. } => assert_eq!(f, field),
            other => panic!("expected InvalidOptions({field}), got {other:?}"),
        };
        check(plan(&pipe, &opts).unwrap_err());
        check(compile(&pipe, &opts).unwrap_err());
        check(session.compile(&pipe, &opts).unwrap_err());
    }
    assert_eq!((session.plan_cache_len(), session.cache_len()), (0, 0));
}

/// `(reused, respecialized)` kernel counts of a bind.
fn reuse(c: &Compiled) -> (usize, usize) {
    let p = &c.report.provenance;
    (p.kernels_reused, p.kernels_respecialized)
}

/// scale(x) = in(x) · N: the kernel embeds the bound value of `N`.
fn scale_by_param() -> Pipeline {
    let mut p = PipelineBuilder::new("scale_by_param");
    let n = p.param("N");
    let img = p.image("in", ScalarType::Float, vec![PAff::param(n)]);
    let x = p.var("x");
    let dom = Interval::new(PAff::cst(0), PAff::param(n) - 1);
    let f = p.func("scale", &[(x, dom)], ScalarType::Float);
    p.define(
        f,
        vec![Case::always(Expr::at(img, [x + 0]) * Expr::Param(n))],
    )
    .unwrap();
    p.finish(&[f]).unwrap()
}

/// The reuse rule, pinned: a bind hands back the plan's kernel unless the
/// kernel embeds a parameter value or the bound rect pins other
/// dimensions. Six apps reuse every kernel; Harris has one kernel that
/// reads a parameter. A kernel that reads a parameter is rebuilt at every size, with the bound value.
#[test]
fn binds_reuse_exactly_the_kernels_the_rule_allows() {
    let want = [
        ("Unsharp Mask", (3, 0)),
        ("Bilateral Grid", (11, 0)),
        ("Harris Corner", (8, 1)),
        ("Camera Pipeline", (30, 0)),
        ("Pyramid Blending", (43, 0)),
        ("Multiscale Interpolate", (41, 0)),
        ("Local Laplacian", (36, 0)),
    ];
    let tiny = all_benchmarks(Scale::Tiny);
    let small = all_benchmarks(Scale::Small);
    for ((t, s), (name, counts)) in tiny.iter().zip(&small).zip(want) {
        assert_eq!(t.name(), name);
        for b in [t, s] {
            let p = plan(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
            let at_estimates = instantiate(&p, &b.params()).unwrap();
            assert_eq!(reuse(&at_estimates), counts, "{name} at {:?}", b.params());
        }
        // Planned at Tiny, bound at Small.
        let p = plan(t.pipeline(), &CompileOptions::optimized(t.params())).unwrap();
        let off = instantiate(&p, &s.params()).unwrap();
        assert_eq!(reuse(&off), counts, "{name} off the estimates");
    }

    // A parameter-insensitive kernel is reused off the estimates.
    let p = plan(&blur1d(), &opts_at(64)).unwrap();
    assert_eq!(reuse(&instantiate(&p, &[200]).unwrap()), (1, 0));

    let pipe = scale_by_param();
    let p = plan(&pipe, &opts_at(64)).unwrap();
    let engine = Engine::with_threads(1);
    for n in [96, 200] {
        let bound = instantiate(&p, &[n]).unwrap();
        assert_eq!(reuse(&bound), (0, 1), "N = {n}");
        let inputs = [Buffer::zeros(Rect::new(vec![(0, n - 1)])).fill_with(|x| x[0] as f32 * 0.37)];
        let got = engine
            .submit(RunRequest::new(&bound.program, &inputs))
            .and_then(|h| h.join())
            .unwrap();
        let want = interpret(&pipe, &[n], &inputs, 1).unwrap();
        let bits = |b: &[Buffer]| -> Vec<Vec<u32>> {
            b.iter()
                .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&got), bits(&want), "N = {n}");
    }
}
