//! Two-level session cache behavior: with pinned parameter estimates one
//! [`ParametricPlan`] serves every size (plan hits + instance misses),
//! racing binds at a fresh size never duplicate plan compilation, and the
//! diagnostics counters `session.plan_*` / `session.instance_*` mirror
//! [`CacheStats`].

use polymage_core::{compile, plan, CompileError, CompileOptions, Session};
use polymage_diag::{Counter, Diag};
use polymage_ir::*;
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
