//! Multi-tenant execution: concurrent submitters on one shared engine
//! must get results bit-identical to a fresh single-run engine, runs must
//! actually interleave on the shared worker pool (not serialize), and the
//! serving types must be shareable across threads.

use polymage_apps::{all_benchmarks, harris::HarrisCorner, Benchmark, Scale};
use polymage_core::{compile, CompileOptions, Session};
use polymage_diag::Diag;
use polymage_vm::{Buffer, Engine, Program, RunHandle, RunRequest, SharedPool};
use std::collections::VecDeque;
use std::sync::Arc;

fn bits(bufs: &[Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

const THREAD_MIX: [usize; 3] = [1, 2, 4];

/// Every benchmark × {optimized, base}, with its inputs.
fn workload() -> Vec<(String, Arc<Program>, Vec<Buffer>)> {
    let mut out = Vec::new();
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        for opts in [
            CompileOptions::optimized(b.params()),
            CompileOptions::base(b.params()),
        ] {
            let compiled =
                compile(b.pipeline(), &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            let name = format!("{}/{}", b.name(), opts.schedule.label());
            out.push((name, Arc::clone(&compiled.program), inputs.clone()));
        }
    }
    out
}

#[test]
fn concurrent_submitters_bit_identical_to_fresh_engine() {
    let programs = workload();

    // Goldens: a fresh engine with nothing else running, per thread count.
    let mut golden: Vec<Vec<Vec<Vec<u32>>>> = Vec::new(); // [program][thread-mix]
    for (name, prog, inputs) in &programs {
        let mut per_threads = Vec::new();
        for &t in &THREAD_MIX {
            let fresh = Engine::with_threads(4);
            let out = fresh
                .submit(RunRequest::new(prog, inputs).threads(t))
                .and_then(|h| h.join())
                .unwrap_or_else(|e| panic!("{name}: golden run: {e}"));
            per_threads.push(bits(&out));
        }
        golden.push(per_threads);
    }

    // 4 submitter threads share one engine; each walks every program with
    // a different thread-count rotation and keeps two runs in flight, so
    // the scheduler constantly interleaves heterogeneous programs.
    let engine = Engine::with_threads(4);
    std::thread::scope(|s| {
        for submitter in 0..4usize {
            let engine = &engine;
            let programs = &programs;
            let golden = &golden;
            s.spawn(move || {
                let mut pending: VecDeque<(usize, usize, RunHandle)> = VecDeque::new();
                let check = |(pi, mi, handle): (usize, usize, RunHandle)| {
                    let out = handle
                        .join()
                        .unwrap_or_else(|e| panic!("{}: {e}", programs[pi].0));
                    assert_eq!(
                        golden[pi][mi],
                        bits(&out),
                        "{} (submitter {submitter}, {} threads) diverged under load",
                        programs[pi].0,
                        THREAD_MIX[mi]
                    );
                };
                for round in 0..2 {
                    for (pi, (_, prog, inputs)) in programs.iter().enumerate() {
                        let mi = (pi + submitter + round) % THREAD_MIX.len();
                        let handle = engine
                            .submit(RunRequest::new(prog, inputs).threads(THREAD_MIX[mi]))
                            .unwrap();
                        pending.push_back((pi, mi, handle));
                        if pending.len() >= 2 {
                            check(pending.pop_front().unwrap());
                        }
                    }
                }
                for item in pending {
                    check(item);
                }
            });
        }
    });
}

#[test]
fn submitted_runs_make_interleaved_progress() {
    // Two request threads share one Arc<Session> (2 pooled workers). If
    // runs serialized, no two group spans from distinct run_ids could
    // overlap in time; the scheduler must interleave them. Scheduling is
    // timing-dependent, so allow a few attempts before declaring failure.
    let b = HarrisCorner::new(Scale::Tiny);
    let opts = CompileOptions::optimized(b.params());
    for attempt in 0..5 {
        let diag = Diag::recorder();
        let session = Arc::new(Session::with_threads(2).with_diag(diag.clone()));
        std::thread::scope(|s| {
            for seed in [1u64, 2] {
                let session = Arc::clone(&session);
                let b = HarrisCorner::new(Scale::Tiny);
                let opts = opts.clone();
                s.spawn(move || {
                    let inputs = b.make_inputs(seed);
                    for _ in 0..6 {
                        session.run(b.pipeline(), &opts, &inputs).unwrap();
                    }
                });
            }
        });
        let rec = diag.snapshot().unwrap();
        assert!(
            rec.run_ids().len() >= 12,
            "every traced run contributes a distinct run_id"
        );
        let spans: Vec<(u64, u64, u64)> = rec
            .events_named("group")
            .filter_map(|e| {
                let id = e.run_id()?;
                let dur = e.dur_us?;
                Some((id, e.ts_us, e.ts_us + dur))
            })
            .collect();
        let overlap = spans.iter().enumerate().any(|(i, a)| {
            spans[i + 1..]
                .iter()
                .any(|b| a.0 != b.0 && a.1 < b.2 && b.1 < a.2)
        });
        if overlap {
            return; // interleaving demonstrated
        }
        eprintln!("attempt {attempt}: no overlapping group spans yet, retrying");
    }
    panic!("group spans from distinct run_ids never overlapped: runs are serializing");
}

#[test]
fn admission_cap_applies_backpressure_without_deadlock() {
    // max_inflight=1 forces complete serialization via the admission gate;
    // three submitter threads must all make progress and stay bit-exact.
    let b = HarrisCorner::new(Scale::Tiny);
    let compiled = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
    let prog = Arc::clone(&compiled.program);
    let inputs = b.make_inputs(7);
    let engine = Engine::with_threads_and_inflight(2, 1);
    assert_eq!(engine.max_inflight(), 1);
    let golden = bits(
        &Engine::with_threads(2)
            .submit(RunRequest::new(&prog, &inputs))
            .unwrap()
            .join()
            .unwrap(),
    );
    std::thread::scope(|s| {
        for _ in 0..3 {
            let engine = &engine;
            let (prog, inputs, golden) = (&prog, &inputs, &golden);
            s.spawn(move || {
                for _ in 0..4 {
                    let out = engine
                        .submit(RunRequest::new(prog, inputs))
                        .unwrap()
                        .join()
                        .unwrap();
                    assert_eq!(golden, &bits(&out));
                }
            });
        }
    });
}

#[test]
fn mixed_priority_random_cancellation_stress() {
    use polymage_vm::{CancelReason, Priority, VmError};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Real compiled pipelines under a priority mix with random caller
    // cancellation: survivors must stay bit-identical to a fresh engine,
    // cancelled runs must report the caller reason, and when everything
    // resolves the engine holds no run buffers and the pool's byte
    // accounting balances. This is the CI stress leg for the scheduler.
    let programs: Vec<(String, Arc<Program>, Vec<Buffer>)> = workload()
        .into_iter()
        .filter(|(name, _, _)| name.ends_with("/opt"))
        .collect();
    let golden: Vec<Vec<Vec<u32>>> = programs
        .iter()
        .map(|(name, prog, inputs)| {
            let fresh = Engine::with_threads(4);
            let out = fresh
                .submit(RunRequest::new(prog, inputs).threads(2))
                .and_then(|h| h.join())
                .unwrap_or_else(|e| panic!("{name}: golden run: {e}"));
            bits(&out)
        })
        .collect();

    let engine = Engine::with_threads(4);
    let priorities = [Priority::Low, Priority::Normal, Priority::High];
    std::thread::scope(|s| {
        for submitter in 0..4usize {
            let engine = &engine;
            let programs = &programs;
            let golden = &golden;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xABCD ^ submitter as u64);
                for round in 0..2 {
                    for (pi, (name, prog, inputs)) in programs.iter().enumerate() {
                        let prio = priorities[(pi + submitter + round) % priorities.len()];
                        let handle = engine
                            .submit(RunRequest::new(prog, inputs).threads(2).priority(prio))
                            .unwrap();
                        // About a third of the runs get cancelled at a
                        // random point: before they start, mid-flight, or
                        // (often) after they already finished.
                        let cancelled = rng.gen_bool(1.0 / 3.0);
                        if cancelled {
                            let token = handle.cancel_token();
                            let delay_us = rng.gen_range(0..1_500u64);
                            s.spawn(move || {
                                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                                token.cancel();
                            });
                        }
                        let (result, stats) = handle.join_outcome();
                        match result {
                            Ok(out) => {
                                assert_eq!(
                                    golden[pi],
                                    bits(&out),
                                    "{name} (submitter {submitter}, {prio:?}) \
                                     diverged under priority mix"
                                );
                                assert_eq!(stats.cancelled_tiles, 0, "{name}");
                            }
                            Err(VmError::Cancelled {
                                reason: CancelReason::Caller,
                            }) => {
                                assert!(cancelled, "{name}: run cancelled without a cancel call");
                            }
                            Err(other) => panic!("{name}: unexpected error {other:?}"),
                        }
                    }
                }
            });
        }
    });

    assert_eq!(
        engine.live_full_bytes(),
        0,
        "all runs resolved but buffers are still live"
    );
    assert_eq!(
        engine.pool_stats().retained_bytes,
        engine.pool_audit_retained_bytes(),
        "pool byte accounting drifted under cancellation stress"
    );
}

#[test]
fn serving_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Session>();
    assert_send_sync::<RunHandle>();
    assert_send_sync::<SharedPool>();
    assert_send_sync::<Diag>();
}
