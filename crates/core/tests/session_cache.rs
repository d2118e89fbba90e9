//! Session compile-cache behavior: hits perform zero recompilation (the
//! returned `Arc<Compiled>` is the *same allocation* and the miss counter
//! does not move), while any change to the pipeline content, tile sizes,
//! threshold, or parameter values is a distinct cache key.

use polymage_core::autotune::autotune_with_session;
use polymage_core::{CompileError, CompileOptions, Session};
use polymage_diag::{Counter, Diag};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::Buffer;
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

#[test]
fn same_spec_hits_without_recompiling() {
    let session = Session::with_threads(1);
    let pipe = blur1d();
    let opts = CompileOptions::optimized(vec![64]);

    let first = session.compile(&pipe, &opts).unwrap();
    assert_eq!(session.cache_stats().misses, 1);
    assert_eq!(session.cache_stats().hits, 0);

    // Same spec → cache hit: zero recompilation, same allocation.
    let second = session.compile(&pipe, &opts).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "hit must return the cached program"
    );
    assert_eq!(
        session.cache_stats().misses,
        1,
        "hit path must not recompile"
    );
    assert_eq!(session.cache_stats().hits, 1);

    // A structurally identical but separately built pipeline hashes the
    // same — content, not identity, keys the cache.
    let rebuilt = blur1d();
    let third = session.compile(&rebuilt, &opts).unwrap();
    assert!(Arc::ptr_eq(&first, &third));
    assert_eq!(session.cache_stats().misses, 1);
    assert_eq!(session.cache_stats().hits, 2);
}

#[test]
fn changed_knobs_and_params_miss() {
    let session = Session::with_threads(1);
    let pipe = blur1d();
    let base = CompileOptions::optimized(vec![64]);
    let first = session.compile(&pipe, &base).unwrap();

    // Different tile size → different program → miss.
    let tiled = base.clone().with_tiles(vec![16]);
    let t = session.compile(&pipe, &tiled).unwrap();
    assert!(!Arc::ptr_eq(&first, &t));

    // Different overlap threshold → miss.
    let th = base.clone().with_threshold(0.9);
    let h = session.compile(&pipe, &th).unwrap();
    assert!(!Arc::ptr_eq(&first, &h));

    // Different parameter values → miss (programs are specialized).
    let big = CompileOptions::optimized(vec![128]);
    let p = session.compile(&pipe, &big).unwrap();
    assert!(!Arc::ptr_eq(&first, &p));

    assert_eq!(session.cache_stats().misses, 4);
    assert_eq!(session.cache_stats().hits, 0);
    assert_eq!(session.cache_len(), 4);
}

#[test]
fn bounds_check_runs_on_every_bind_including_plan_hits() {
    // f(x) = in(x) over [0, N-1], reading an image of constant extent 64:
    // in bounds up to N = 64, out of bounds beyond.
    let mut p = PipelineBuilder::new("copy");
    let n = p.param("N");
    let img = p.image("in", ScalarType::Float, vec![PAff::cst(64)]);
    let x = p.var("x");
    let f = p.func(
        "f",
        &[(x, Interval::new(PAff::cst(0), PAff::param(n) - 1))],
        ScalarType::Float,
    );
    p.define(f, vec![Case::always(Expr::at(img, [x + 0]))])
        .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    // Pinned estimates: every size shares one plan.
    let at = |n: i64| CompileOptions::optimized(vec![n]).with_estimates(vec![32]);
    let session = Session::with_threads(1);

    session.compile(&pipe, &at(48)).unwrap();
    for _ in 0..2 {
        // A plan-cache hit still checks the new binding, every time.
        let err = session.compile(&pipe, &at(96)).unwrap_err();
        assert!(matches!(err, CompileError::Bounds(_)), "{err}");
    }
    let stats = session.cache_stats();
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_hits, 2);
    assert_eq!(session.cache_len(), 1, "a failed bind is not cached");
}

#[test]
fn lru_evicts_least_recently_used() {
    let session = Session::with_threads(1).with_cache_capacity(2);
    let pipe = blur1d();
    let a = CompileOptions::optimized(vec![32]);
    let b = CompileOptions::optimized(vec![48]);
    let c = CompileOptions::optimized(vec![64]);

    session.compile(&pipe, &a).unwrap();
    session.compile(&pipe, &b).unwrap();
    session.compile(&pipe, &a).unwrap(); // refresh `a`
    session.compile(&pipe, &c).unwrap(); // evicts `b`
    assert_eq!(session.cache_stats().evictions, 1);

    session.compile(&pipe, &a).unwrap(); // still cached
    assert_eq!(session.cache_stats().hits, 2);
    session.compile(&pipe, &b).unwrap(); // evicted → recompiles
    assert_eq!(session.cache_stats().misses, 4);
}

#[test]
fn autotune_reuses_the_session_cache() {
    let diag = Diag::recorder();
    let session = Session::with_threads(1)
        .with_cache_capacity(16)
        .with_diag(diag.clone());
    let pipe = blur1d();
    let base = CompileOptions::optimized(vec![64]);
    let input = Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| p[0] as f32);
    let tiles = [8i64, 16];
    let thresholds = [0.4f64];

    let first = autotune_with_session(
        &session,
        &pipe,
        &base,
        std::slice::from_ref(&input),
        1,
        1,
        &tiles,
        &thresholds,
    )
    .unwrap();
    assert_eq!(first.records.len(), 4); // 2 × 2 tile pairs × 1 threshold
    assert_eq!(session.cache_stats().misses, 4);
    assert_eq!(session.cache_stats().hits, 0);
    assert!(first.records.iter().all(|r| r.predicted_overlap >= 0.0));

    // Re-sweeping the identical space on the same session must be served
    // entirely from the compile cache.
    let second = autotune_with_session(
        &session,
        &pipe,
        &base,
        std::slice::from_ref(&input),
        1,
        1,
        &tiles,
        &thresholds,
    )
    .unwrap();
    assert_eq!(second.records.len(), 4);
    assert_eq!(
        session.cache_stats().misses,
        4,
        "re-sweep must not recompile anything"
    );
    assert_eq!(session.cache_stats().hits, 4);

    // The diagnostics counters mirror the cache stats, and every measured
    // configuration left a tune.config event with the model's prediction.
    let rec = diag.snapshot().expect("recording sink");
    assert_eq!(rec.counter(Counter::InstanceHit), 4);
    assert_eq!(rec.counter(Counter::InstanceMiss), 4);
    let tune_events: Vec<_> = rec.events_named("tune.config").collect();
    assert_eq!(tune_events.len(), 8);
    assert!(tune_events
        .iter()
        .all(|e| e.arg("predicted_overlap").is_some() && e.arg("tn_us").is_some()));
}

#[test]
fn racing_cold_compiles_are_single_flight() {
    // Regression test: N threads racing on a cold cache used to compile
    // the same key N times (each thread checked the cache, missed, and
    // compiled outside the lock). Single-flight must collapse the group
    // to exactly one compile; followers block on the leader's slot and
    // share its allocation.
    const N: usize = 8;
    let session = Session::with_threads(2);
    let pipe = blur1d();
    let opts = CompileOptions::optimized(vec![256]);

    let barrier = std::sync::Barrier::new(N);
    let compiled: Vec<Arc<polymage_core::Compiled>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (session, pipe, opts, barrier) = (&session, &pipe, &opts, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    session.compile(pipe, opts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        session.cache_stats().misses,
        1,
        "racing threads must be deduplicated into one compile"
    );
    assert_eq!(session.cache_stats().hits as usize, N - 1);
    assert!(
        compiled.iter().all(|c| Arc::ptr_eq(c, &compiled[0])),
        "every racer must receive the leader's allocation"
    );
    assert_eq!(session.cache_len(), 1);
}

#[test]
fn run_through_cache_is_correct() {
    let session = Session::with_threads(2);
    let pipe = blur1d();
    let opts = CompileOptions::optimized(vec![64]);
    let input = Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| p[0] as f32);

    let out1 = session
        .run(&pipe, &opts, std::slice::from_ref(&input))
        .unwrap();
    let out2 = session.run(&pipe, &opts, &[input]).unwrap();
    assert_eq!(session.cache_stats().hits, 1);
    assert_eq!(out1[0].data, out2[0].data);
    // interior of a linear ramp: blur is the identity
    assert_eq!(out1[0].at(&[10]), 10.0);
}
