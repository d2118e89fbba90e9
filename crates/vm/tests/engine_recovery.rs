//! Worker-panic recovery: a tile that panics must fail only its own run
//! (as a clean [`VmError`]), and the *same* engine instance must keep
//! serving later runs — the pool must not wedge and the `lock()` helpers
//! must shrug off any poisoned mutexes the unwind left behind.

use polymage_ir::BinOp;
use polymage_poly::Rect;
use polymage_vm::*;
use std::sync::Arc;

/// out(x) = in(x−1) + in(x+1) on [1,62], one direct stage, 4 strips.
/// With `poisoned`, the stage also claims to read its own group's written
/// full buffer — the executor panics on the first tile (deterministically,
/// on every strip), exercising the catch_unwind path.
fn program(poisoned: bool) -> Program {
    let img = BufId(0);
    let out_f = BufId(1);
    let buffers = vec![
        BufDecl {
            name: "in".into(),
            kind: BufKind::Full,
            sizes: vec![64],
            origin: vec![0],
        },
        BufDecl {
            name: "out".into(),
            kind: BufKind::Full,
            sizes: vec![62],
            origin: vec![1],
        },
    ];
    let load = |dst: u16, o: i64| Op::Load {
        dst: RegId(dst),
        buf: img,
        plan: vec![IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o,
            m: 1,
        }],
    };
    let kernel = Kernel::new(
        vec![
            load(0, -1),
            load(1, 1),
            Op::BinF {
                op: BinOp::Add,
                dst: RegId(2),
                a: RegId(0),
                b: RegId(1),
            },
        ],
        vec![RegId(2)],
    );
    let mut reads = vec![img];
    if poisoned {
        // A full buffer written by the stage's own group is never readable
        // (its snapshot is withheld); the executor panics on lookup.
        reads.push(out_f);
    }
    let stage = StageExec {
        name: "out".into(),
        scratch: out_f, // unused (direct)
        full: Some(out_f),
        direct: true,
        sat: None,
        round: false,
        cases: vec![CaseExec {
            steps: vec![(1, 0)],
            rect: Rect::new(vec![(1, 62)]),
            kernel,
            mask: None,
        }],
        dom: Rect::new(vec![(1, 62)]),
        reads,
    };
    let mut tiles = Vec::new();
    for (s, (lo, hi)) in [(1i64, 16i64), (17, 32), (33, 48), (49, 62)]
        .into_iter()
        .enumerate()
    {
        tiles.push(TileWork {
            strip: s,
            regions: vec![Rect::new(vec![(lo, hi)])],
            stores: vec![Some(Rect::new(vec![(lo, hi)]))],
        });
    }
    let tg = TiledGroup::new(vec![stage], tiles, 4, &buffers);
    Program {
        name: if poisoned { "poisoned" } else { "good" }.into(),
        buffers,
        image_bufs: vec![img],
        groups: vec![GroupExec {
            name: "g0".into(),
            kind: GroupKind::Tiled(tg),
        }],
        outputs: vec![("out".into(), out_f)],
        mode: EvalMode::Vector,
        simd: polymage_vm::process_simd_level(),
        storage: StoragePlan::run_scoped(2),
    }
}

fn bits(bufs: &[Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn engine_survives_worker_panics() {
    let engine = Engine::with_threads(2);
    let good = Arc::new(program(false));
    let bad = Arc::new(program(true));
    let input =
        Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| ((p[0] * 31 + 7) % 13) as f32);
    let inputs = std::slice::from_ref(&input);
    // The oracle: `good` on an engine no panic ever touches.
    let fresh = Engine::with_threads(2);
    let oracle = |threads| {
        fresh
            .submit(RunRequest::new(&good, inputs).threads(threads))
            .and_then(|h| h.join())
            .unwrap()
    };

    // The poisoned run fails with a clean error, not a hang or abort.
    let err = engine
        .submit(RunRequest::new(&bad, inputs))
        .unwrap()
        .join()
        .unwrap_err();
    match &err {
        VmError::Internal(msg) => assert!(
            msg.contains("panicked"),
            "expected a worker-panic error, got: {msg}"
        ),
        other => panic!("expected VmError::Internal, got {other:?}"),
    }

    // The same engine instance completes subsequent runs, bit-identical
    // to a fresh engine's — pool not wedged, no poisoned-lock fallout.
    for threads in [1, 2] {
        let got = engine
            .submit(RunRequest::new(&good, inputs).threads(threads))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(bits(&oracle(threads)), bits(&got), "threads {threads}");
    }

    // Panics stay survivable, run after run.
    let err2 = engine
        .submit(RunRequest::new(&bad, inputs))
        .unwrap()
        .join()
        .unwrap_err();
    assert!(matches!(err2, VmError::Internal(_)));
    let got = engine
        .submit(RunRequest::new(&good, inputs))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(bits(&oracle(2)), bits(&got));
}

#[test]
fn panicked_run_fails_while_concurrent_run_completes() {
    // A poisoned run submitted alongside a good run must not corrupt the
    // good run's result (per-run state is shared-nothing).
    let engine = Engine::with_threads(2);
    let good = Arc::new(program(false));
    let bad = Arc::new(program(true));
    let input = Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| (p[0] % 9) as f32);
    let inputs = std::slice::from_ref(&input);
    let oracle = Engine::with_threads(2)
        .submit(RunRequest::new(&good, inputs))
        .and_then(|h| h.join())
        .unwrap();

    for _ in 0..8 {
        let h_bad = engine.submit(RunRequest::new(&bad, inputs)).unwrap();
        let h_good = engine.submit(RunRequest::new(&good, inputs)).unwrap();
        assert!(h_bad.join().is_err());
        let got = h_good.join().unwrap();
        assert_eq!(bits(&oracle), bits(&got));
    }
}

/// Regression: polling `is_finished` (or joining) while a worker scans
/// must never strand the run. The scheduler used to `try_lock` each run's
/// state and read "busy" as "no work", so a caller holding that lock at
/// the wrong instant sent the only worker to sleep with the run half
/// done. One worker, a hot polling loop, many short runs; the whole body
/// sits under a timeout so a hang fails instead of wedging the suite.
#[test]
fn join_never_strands_a_run() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let engine = Engine::with_threads(1);
        let prog = Arc::new(program(false));
        let input = Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| (p[0] % 7) as f32);
        let inputs = std::slice::from_ref(&input);
        let want = bits(
            &Engine::with_threads(1)
                .submit(RunRequest::new(&prog, inputs))
                .and_then(|h| h.join())
                .unwrap(),
        );
        for _ in 0..2_000 {
            let handle = engine.submit(RunRequest::new(&prog, inputs)).unwrap();
            while !handle.is_finished() {
                std::hint::spin_loop();
            }
            assert_eq!(want, bits(&handle.join().unwrap()));
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a run was stranded: 2000 polled runs did not finish in 60 s");
}
