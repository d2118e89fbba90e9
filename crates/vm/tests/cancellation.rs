//! Cooperative cancellation, deadlines, and admission policies.
//!
//! Programs here are hand-assembled chains of pointwise tiled groups
//! (`out_g(x) = out_{g-1}(x) + 1`), long enough that a run spans many
//! tile claims — the granularity at which cancellation must take hold.

use polymage_ir::BinOp;
use polymage_poly::Rect;
use polymage_vm::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A chain of `ngroups` pointwise tiled groups over a 1-D domain of
/// `len` points, `tile` points per tile (one tile per strip). Group `g`
/// stores `buf[g] + 1` directly into `buf[g+1]`; the final buffer is the
/// output, so `out(x) = in(x) + ngroups`.
fn chain_program(ngroups: usize, len: i64, tile: i64) -> Program {
    assert!(len % tile == 0);
    let mut buffers = vec![BufDecl {
        name: "in".into(),
        kind: BufKind::Full,
        sizes: vec![len],
        origin: vec![0],
    }];
    for g in 0..ngroups {
        buffers.push(BufDecl {
            name: format!("b{}", g + 1),
            kind: BufKind::Full,
            sizes: vec![len],
            origin: vec![0],
        });
    }

    let dom = Rect::new(vec![(0, len - 1)]);
    let mut groups = Vec::new();
    for g in 0..ngroups {
        let src = BufId(g);
        let dst = BufId(g + 1);
        let kernel = Kernel::new(
            vec![
                Op::Load {
                    dst: RegId(0),
                    buf: src,
                    plan: vec![IdxPlan::Affine {
                        dim: Some(0),
                        q: 1,
                        o: 0,
                        m: 1,
                    }],
                },
                Op::ConstF {
                    dst: RegId(1),
                    val: 1.0,
                },
                Op::BinF {
                    op: BinOp::Add,
                    dst: RegId(2),
                    a: RegId(0),
                    b: RegId(1),
                },
            ],
            vec![RegId(2)],
        );
        let stage = StageExec {
            name: format!("s{g}"),
            scratch: src, // unused: direct stages stream to their full buffer
            full: Some(dst),
            direct: true,
            sat: None,
            round: false,
            cases: vec![CaseExec {
                steps: vec![(1, 0)],
                rect: dom.clone(),
                kernel,
                mask: None,
            }],
            dom: dom.clone(),
            reads: vec![src],
        };
        let nstrips = (len / tile) as usize;
        let tiles: Vec<TileWork> = (0..nstrips)
            .map(|s| {
                let lo = s as i64 * tile;
                let r = Rect::new(vec![(lo, lo + tile - 1)]);
                TileWork {
                    strip: s,
                    regions: vec![r.clone()],
                    stores: vec![Some(r)],
                }
            })
            .collect();
        groups.push(GroupExec {
            name: format!("g{g}"),
            kind: GroupKind::Tiled(TiledGroup::new(vec![stage], tiles, nstrips, &buffers)),
        });
    }

    Program {
        name: format!("chain{ngroups}"),
        image_bufs: vec![BufId(0)],
        outputs: vec![("out".into(), BufId(ngroups))],
        mode: EvalMode::Vector,
        simd: process_simd_level(),
        storage: StoragePlan::run_scoped(buffers.len()),
        groups,
        buffers,
    }
}

fn input_for(len: i64, seed: u64) -> Buffer {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
    Buffer::zeros(Rect::new(vec![(0, len - 1)])).fill_with(|p| data[p[0] as usize])
}

fn bits(bufs: &[Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A run whose deadline already passed is cancelled before it computes,
/// with the honest reason, and the `sched.deadline_miss` counter fires.
#[test]
fn expired_deadline_cancels_with_deadline_reason() {
    let engine = Engine::with_threads(2);
    let prog = Arc::new(chain_program(4, 4096, 256));
    let input = input_for(4096, 1);
    let diag = polymage_diag::Diag::recorder();

    let handle = engine
        .submit(
            RunRequest::new(&prog, std::slice::from_ref(&input))
                .deadline(Duration::ZERO)
                .trace(&diag),
        )
        .unwrap();
    let (result, _stats) = handle.join_outcome();
    match result {
        Err(VmError::Cancelled {
            reason: CancelReason::Deadline,
        }) => {}
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
    assert_eq!(engine.live_full_bytes(), 0);

    let rec = diag.snapshot().unwrap();
    assert!(rec.counter(polymage_diag::Counter::SchedCancel) >= 1);
    assert!(rec.counter(polymage_diag::Counter::SchedDeadlineMiss) >= 1);
}

/// Caller cancellation mid-run stops the run within one tile claim: the
/// remaining tiles are reported as `cancelled_tiles`, not computed, and
/// the run's buffers return to the pool immediately.
#[test]
fn caller_cancel_stops_within_one_tile_claim() {
    let engine = Engine::with_threads(2);
    // 16 groups × 256 tiles: far more claims than can finish instantly.
    let prog = Arc::new(chain_program(16, 1 << 18, 1 << 10));
    let total_tiles_per_group = 1u64 << 8;
    let input = input_for(1 << 18, 2);
    let diag = polymage_diag::Diag::recorder();

    let handle = engine
        .submit(RunRequest::new(&prog, std::slice::from_ref(&input)).trace(&diag))
        .unwrap();
    // Let it get going, then pull the plug.
    std::thread::sleep(Duration::from_millis(1));
    handle.cancel();
    let (result, stats) = handle.join_outcome();
    match result {
        Err(VmError::Cancelled {
            reason: CancelReason::Caller,
        }) => {}
        other => panic!("expected caller cancellation, got {other:?}"),
    }
    // The run must not have computed everything: either whole groups were
    // skipped (tiles counter short) or tiles inside a group were dropped
    // at the claim gate (cancelled_tiles counts them).
    let total = 16 * total_tiles_per_group;
    assert!(
        stats.tiles < total || stats.cancelled_tiles > 0,
        "cancelled run computed all {total} tiles (tiles {}, cancelled {})",
        stats.tiles,
        stats.cancelled_tiles
    );
    assert_eq!(engine.live_full_bytes(), 0, "buffers must return to pool");
    let rec = diag.snapshot().unwrap();
    assert!(rec.counter(polymage_diag::Counter::SchedCancel) >= 1);
}

/// `FailFast` submissions bounce off a full engine instead of blocking,
/// and `Shed` evicts a strictly-lower-priority victim to make room.
#[test]
fn overload_policies_fail_fast_and_shed() {
    let engine = Engine::with_threads_and_inflight(2, 1);
    let prog = Arc::new(chain_program(16, 1 << 18, 1 << 10));
    let input = input_for(1 << 18, 3);
    let inputs = std::slice::from_ref(&input);

    // Occupy the only slot with a low-priority run.
    let victim = engine
        .submit(RunRequest::new(&prog, inputs).priority(Priority::Low))
        .unwrap();

    // FailFast: immediate rejection, no blocking, reason Shed.
    let err = engine
        .submit(RunRequest::new(&prog, inputs).on_overload(OverloadPolicy::FailFast))
        .unwrap_err();
    assert!(matches!(
        err,
        VmError::Cancelled {
            reason: CancelReason::Shed
        }
    ));

    // Shed: the high-priority submission evicts the low-priority victim
    // and takes its slot.
    let high = engine
        .submit(
            RunRequest::new(&prog, inputs)
                .priority(Priority::High)
                .on_overload(OverloadPolicy::Shed),
        )
        .unwrap();
    let (victim_result, _) = victim.join_outcome();
    assert!(
        matches!(
            victim_result,
            Err(VmError::Cancelled {
                reason: CancelReason::Shed
            })
        ),
        "victim should be shed, got {victim_result:?}"
    );
    let out = high.join().unwrap();
    let fresh = Engine::with_threads(2)
        .submit(RunRequest::new(&prog, inputs))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(bits(&fresh), bits(&out), "shedding must not corrupt winner");
    assert_eq!(engine.live_full_bytes(), 0);
}

/// Satellite regression: the admission slot is reserved *before* buffer
/// allocation, so a submitter blocked at the cap holds no memory — the
/// engine's live-buffer footprint never exceeds one run's working set
/// even with a second submission queued behind it.
#[test]
fn blocked_submitter_holds_no_buffers() {
    let engine = Arc::new(Engine::with_threads_and_inflight(2, 1));
    let len = 1i64 << 18;
    let ngroups = 16;
    let prog = Arc::new(chain_program(ngroups, len, 1 << 10));
    let one_run_bytes = (ngroups as u64 + 1) * len as u64 * 4;
    let input = input_for(len, 4);

    let a = engine
        .submit(RunRequest::new(&prog, std::slice::from_ref(&input)))
        .unwrap();
    let b_submitting = Arc::new(AtomicBool::new(false));
    let b_done = Arc::new(AtomicBool::new(false));
    let b_thread = {
        let (engine, prog, input) = (Arc::clone(&engine), Arc::clone(&prog), input.clone());
        let (b_submitting, b_done) = (Arc::clone(&b_submitting), Arc::clone(&b_done));
        std::thread::spawn(move || {
            b_submitting.store(true, Ordering::SeqCst);
            let out = engine
                .submit(RunRequest::new(&prog, std::slice::from_ref(&input)))
                .unwrap()
                .join()
                .unwrap();
            b_done.store(true, Ordering::SeqCst);
            out
        })
    };
    // While A runs and B queues (and after both finish), live bytes never
    // exceed a single run's footprint: the blocked submitter allocated
    // nothing.
    while !b_done.load(Ordering::SeqCst) {
        let live = engine.live_full_bytes();
        assert!(
            live <= one_run_bytes,
            "live {live} bytes exceeds one run's {one_run_bytes}: \
             blocked submitter is holding buffers"
        );
        std::thread::yield_now();
    }
    assert!(b_submitting.load(Ordering::SeqCst));
    a.join().unwrap();
    let out_b = b_thread.join().unwrap();
    let fresh = Engine::with_threads(2)
        .submit(RunRequest::new(&prog, std::slice::from_ref(&input)))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(bits(&fresh), bits(&out_b));
    assert_eq!(engine.live_full_bytes(), 0);
}

/// On a single worker, a later-submitted high-priority run finishes ahead
/// of earlier low-priority submissions, and within the same band the
/// earlier deadline wins (EDF).
#[test]
fn priority_and_deadline_order_claims() {
    // One worker so claims are strictly ordered, with an admission cap
    // high enough that all four submissions are inflight at once.
    let engine = Engine::with_threads_and_inflight(1, 8);
    // The blocker is far longer than the queued runs (and than the cost
    // of submitting them), so the queue is fully built while the worker
    // is still busy — the claim order below is the scheduler's choice,
    // not submission timing.
    let big = Arc::new(chain_program(64, 1 << 18, 1 << 10));
    let big_input = input_for(1 << 18, 50);
    let prog = Arc::new(chain_program(8, 1 << 14, 1 << 9));
    let input = input_for(1 << 14, 5);
    let inputs = std::slice::from_ref(&input);

    // The blocker occupies the worker while the queue builds up.
    let blocker = engine
        .submit(RunRequest::new(&big, std::slice::from_ref(&big_input)))
        .unwrap();
    let low_a = engine
        .submit(RunRequest::new(&prog, inputs).priority(Priority::Low))
        .unwrap();
    let low_b = engine
        .submit(
            RunRequest::new(&prog, inputs)
                .priority(Priority::Low)
                .deadline(Duration::from_secs(600)),
        )
        .unwrap();
    let high = engine
        .submit(RunRequest::new(&prog, inputs).priority(Priority::High))
        .unwrap();

    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for (name, handle) in [
            ("blocker", blocker),
            ("low_a", low_a),
            ("low_b", low_b),
            ("high", high),
        ] {
            let order = Arc::clone(&order);
            s.spawn(move || {
                handle.join().unwrap();
                order.lock().unwrap().push(name);
            });
        }
    });
    let order = order.lock().unwrap();
    let pos = |n: &str| order.iter().position(|&x| x == n).unwrap();
    assert!(
        pos("high") < pos("low_a") && pos("high") < pos("low_b"),
        "high-priority run must finish before queued low runs: {order:?}"
    );
    // EDF within the Low band: low_b has a deadline, low_a has none, so
    // low_b (the only deadline-bearing Low) runs first.
    assert!(
        pos("low_b") < pos("low_a"),
        "deadline-bearing run must precede no-deadline peer in-band: {order:?}"
    );
}

/// Queued runs report the time they spent waiting for their first claim:
/// a positive wait, no longer than the run's whole submit-to-join time.
/// (Which of two runs waits longer is not ordered by one worker's wall
/// clock; the FIFO claim order itself is pinned thread-free in the engine's
/// `policy` tests.)
#[test]
fn sched_wait_reported_for_queued_runs() {
    let engine = Engine::with_threads(1);
    let prog = Arc::new(chain_program(8, 1 << 16, 1 << 10));
    let input = input_for(1 << 16, 6);
    let inputs = std::slice::from_ref(&input);

    let first = engine.submit(RunRequest::new(&prog, inputs)).unwrap();
    let submitted = Instant::now();
    let queued = engine.submit(RunRequest::new(&prog, inputs)).unwrap();
    first.join_stats().unwrap();
    let (_, s2) = queued.join_stats().unwrap();
    let lifetime = submitted.elapsed();
    assert!(
        s2.sched_wait > Duration::ZERO && s2.sched_wait <= lifetime,
        "queued run waited {:?} of its {lifetime:?}",
        s2.sched_wait
    );
    assert_eq!(s2.cancelled_tiles, 0);
}

/// Fuzz: concurrent runs with random cancellation points (pre-start,
/// mid-run, near-finish, never). Survivors are bit-exact against a fresh
/// engine, cancelled runs report the caller reason, and the pool's byte
/// accounting balances when the dust settles.
#[test]
fn cancellation_fuzz_survivors_bit_exact_and_pool_balances() {
    let len = 1i64 << 14;
    let prog = Arc::new(chain_program(6, len, 1 << 9));
    let fresh = Engine::with_threads(2);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let engine = Engine::with_threads(3);
        let n = 6;
        let runs: Vec<(Buffer, Option<Duration>)> = (0..n)
            .map(|i| {
                let input = input_for(len, seed * 100 + i);
                // i % 3 == 0 → never cancelled; otherwise a random point
                // from "before anything starts" to "probably finished".
                let cancel_after =
                    (i % 3 != 0).then(|| Duration::from_micros(rng.gen_range(0..3_000u64)));
                (input, cancel_after)
            })
            .collect();

        std::thread::scope(|s| {
            let mut joiners = Vec::new();
            for (input, cancel_after) in &runs {
                let handle = engine
                    .submit(RunRequest::new(&prog, std::slice::from_ref(input)))
                    .unwrap();
                if let Some(delay) = *cancel_after {
                    let token = handle.cancel_token();
                    s.spawn(move || {
                        std::thread::sleep(delay);
                        token.cancel();
                    });
                }
                joiners.push((handle, input, cancel_after.is_some()));
            }
            for (handle, input, was_cancelled) in joiners {
                let (result, stats) = handle.join_outcome();
                match result {
                    Ok(out) => {
                        // Cancelled-too-late runs may still complete; runs
                        // we never cancelled must.
                        let want = fresh
                            .submit(RunRequest::new(&prog, std::slice::from_ref(input)))
                            .unwrap()
                            .join()
                            .unwrap();
                        assert_eq!(
                            bits(&want),
                            bits(&out),
                            "seed {seed}: survivor diverged from fresh engine"
                        );
                        assert_eq!(stats.cancelled_tiles, 0);
                    }
                    Err(VmError::Cancelled {
                        reason: CancelReason::Caller,
                    }) => {
                        assert!(
                            was_cancelled,
                            "seed {seed}: uncancelled run reported caller cancellation"
                        );
                    }
                    Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
                }
            }
        });

        assert_eq!(
            engine.live_full_bytes(),
            0,
            "seed {seed}: runs resolved but buffers still live"
        );
        let pool = engine.pool_stats();
        assert_eq!(
            pool.retained_bytes,
            engine.pool_audit_retained_bytes(),
            "seed {seed}: pool byte accounting drifted"
        );
    }
}
