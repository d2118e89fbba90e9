//! End-to-end executor tests on hand-assembled programs (no compiler).
//!
//! These pin down the executor's semantics independently of the
//! `polymage-core` lowering: overlapped-tile scratch handling, slab
//! partitioning of full buffers, direct stores, reductions, and the
//! sequential scan path.

use polymage_ir::{BinOp, Reduction};
use polymage_poly::Rect;
use polymage_vm::*;
use std::sync::Arc;

/// `dst = buf(x₀ + o₀, x₁ + o₁, …)`: a load at the chunk's coordinates
/// shifted by `offsets`.
fn load(dst: u16, buf: BufId, offsets: &[i64]) -> Op {
    Op::Load {
        dst: RegId(dst),
        buf,
        plan: (0..offsets.len())
            .map(|d| IdxPlan::Affine {
                dim: Some(d),
                q: 1,
                o: offsets[d],
                m: 1,
            })
            .collect(),
    }
}

/// in(x) for x∈[0,63]; blur(x) = in(x−1)+in(x)+in(x+1) on [1,62];
/// out(x) = blur(x−1)+blur(x+1) on [2,61]. Fused into one tiled group with
/// 4 strips of 16, blur in scratch, out direct to full.
fn two_stage_program(mode: EvalMode) -> Program {
    let img = BufId(0);
    let blur_s = BufId(1);
    let out_f = BufId(2);
    let buffers = vec![
        BufDecl {
            name: "in".into(),
            kind: BufKind::Full,
            sizes: vec![64],
            origin: vec![0],
        },
        BufDecl {
            name: "blur".into(),
            kind: BufKind::Scratch,
            // worst-case region: 16 + 2 of overlap
            sizes: vec![18],
            origin: vec![0],
        },
        BufDecl {
            name: "out".into(),
            kind: BufKind::Full,
            sizes: vec![60],
            origin: vec![2],
        },
    ];

    let blur_kernel = Kernel::new(
        vec![
            load(0, img, &[-1]),
            load(1, img, &[0]),
            load(2, img, &[1]),
            Op::BinF {
                op: BinOp::Add,
                dst: RegId(3),
                a: RegId(0),
                b: RegId(1),
            },
            Op::BinF {
                op: BinOp::Add,
                dst: RegId(4),
                a: RegId(3),
                b: RegId(2),
            },
        ],
        vec![RegId(4)],
    );
    let out_kernel = Kernel::new(
        vec![
            load(0, blur_s, &[-1]),
            load(1, blur_s, &[1]),
            Op::BinF {
                op: BinOp::Add,
                dst: RegId(2),
                a: RegId(0),
                b: RegId(1),
            },
        ],
        vec![RegId(2)],
    );

    let blur_stage = StageExec {
        name: "blur".into(),
        scratch: blur_s,
        full: None,
        direct: false,
        sat: None,
        round: false,
        cases: vec![CaseExec {
            steps: vec![(1, 0)],
            rect: Rect::new(vec![(1, 62)]),
            kernel: blur_kernel,
            mask: None,
        }],
        dom: Rect::new(vec![(1, 62)]),
        reads: vec![img],
    };
    let out_stage = StageExec {
        name: "out".into(),
        scratch: BufId(1), // unused (direct)
        full: Some(out_f),
        direct: true,
        sat: None,
        round: false,
        cases: vec![CaseExec {
            steps: vec![(1, 0)],
            rect: Rect::new(vec![(2, 61)]),
            kernel: out_kernel,
            mask: None,
        }],
        dom: Rect::new(vec![(2, 61)]),
        reads: vec![blur_s],
    };

    // 4 tiles of 16 over out's domain [2,61]: [2,17],[18,33],[34,49],[50,61]
    let mut tiles = Vec::new();
    for (s, (lo, hi)) in [(2i64, 17i64), (18, 33), (34, 49), (50, 61)]
        .into_iter()
        .enumerate()
    {
        // out region = tile; blur region = tile dilated by 1 ∩ blur dom
        let blur_lo = (lo - 1).max(1);
        let blur_hi = (hi + 1).min(62);
        tiles.push(TileWork {
            strip: s,
            regions: vec![
                Rect::new(vec![(blur_lo, blur_hi)]),
                Rect::new(vec![(lo, hi)]),
            ],
            stores: vec![None, Some(Rect::new(vec![(lo, hi)]))],
        });
    }

    let tg = TiledGroup::new(vec![blur_stage, out_stage], tiles, 4, &buffers);
    Program {
        name: "two-stage".into(),
        buffers,
        image_bufs: vec![img],
        groups: vec![GroupExec {
            name: "g0".into(),
            kind: GroupKind::Tiled(tg),
        }],
        outputs: vec![("out".into(), out_f)],
        mode,
        simd: polymage_vm::process_simd_level(),
        storage: StoragePlan::run_scoped(3),
    }
}

fn reference_two_stage(input: &[f32]) -> Vec<f32> {
    let blur: Vec<f32> = (0..64)
        .map(|x| {
            if (1..=62).contains(&x) {
                input[x - 1] + input[x] + input[x + 1]
            } else {
                0.0
            }
        })
        .collect();
    (2..=61).map(|x: usize| blur[x - 1] + blur[x + 1]).collect()
}

#[test]
fn tiled_two_stage_matches_reference_all_modes_and_threads() {
    let input =
        Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| ((p[0] * 7919 + 13) % 101) as f32);
    let expect = reference_two_stage(&input.data);
    let engine = Engine::with_threads(7);
    for mode in [EvalMode::Vector, EvalMode::Scalar] {
        let prog = Arc::new(two_stage_program(mode));
        for threads in [1, 2, 4, 7] {
            let outs = engine
                .submit(RunRequest::new(&prog, std::slice::from_ref(&input)).threads(threads))
                .and_then(|h| h.join())
                .unwrap();
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].rect, Rect::new(vec![(2, 61)]));
            for (i, (&got, &want)) in outs[0].data.iter().zip(&expect).enumerate() {
                assert!(
                    (got - want).abs() < 1e-4,
                    "mode {mode:?} threads {threads} x={} got {got} want {want}",
                    i + 2
                );
            }
        }
    }
}

#[test]
fn input_validation_errors() {
    let engine = Engine::with_threads(1);
    let prog = Arc::new(two_stage_program(EvalMode::Vector));
    let err = engine
        .submit(RunRequest::new(&prog, &[]))
        .and_then(|h| h.join())
        .unwrap_err();
    assert!(matches!(
        err,
        VmError::InputCountMismatch {
            expected: 1,
            got: 0
        }
    ));
    let bad = Buffer::zeros(Rect::new(vec![(0, 10)]));
    let err = engine
        .submit(RunRequest::new(&prog, &[bad]))
        .and_then(|h| h.join())
        .unwrap_err();
    assert!(matches!(err, VmError::InputShapeMismatch { index: 0, .. }));
}

/// One reduction group: `op` over `red_dom` of the value in the first
/// register `ops` write, into the cell of a `cells`-long accumulator the
/// last one names; `ops` may load the input image (`in_sizes`, `BufId(0)`).
fn reduction_program(
    in_sizes: Vec<i64>,
    cells: i64,
    red_dom: Rect,
    ops: Vec<Op>,
    op: Reduction,
) -> Arc<Program> {
    let (img, out) = (BufId(0), BufId(1));
    let nregs = ops.len();
    Arc::new(Program {
        name: "acc".into(),
        buffers: vec![
            BufDecl {
                name: "in".into(),
                kind: BufKind::Full,
                origin: vec![0; in_sizes.len()],
                sizes: in_sizes,
            },
            BufDecl {
                name: "acc".into(),
                kind: BufKind::Full,
                sizes: vec![cells],
                origin: vec![0],
            },
        ],
        image_bufs: vec![img],
        groups: vec![GroupExec {
            name: "acc".into(),
            kind: GroupKind::Reduction(ReductionExec {
                name: "acc".into(),
                out,
                red_dom,
                kernel: Kernel::new(ops, vec![RegId(0), RegId(nregs as u16 - 1)]),
                op,
                reads: vec![img],
            }),
        }],
        outputs: vec![("acc".into(), out)],
        mode: EvalMode::Vector,
        simd: polymage_vm::process_simd_level(),
        storage: StoragePlan::run_scoped(2),
    })
}

#[test]
fn histogram_reduction_parallel_matches_serial() {
    // hist(b) over b∈[0,9]: count input values.
    let prog = reduction_program(
        vec![32, 32],
        10,
        Rect::new(vec![(0, 31), (0, 31)]),
        vec![
            Op::ConstF {
                dst: RegId(0),
                val: 1.0,
            },
            load(1, BufId(0), &[0, 0]),
        ],
        Reduction::Sum,
    );
    let input = Buffer::zeros(Rect::new(vec![(0, 31), (0, 31)]))
        .fill_with(|p| ((p[0] * 31 + p[1] * 17) % 10) as f32);
    let engine = Engine::with_threads(4);
    let run = |threads| {
        engine
            .submit(RunRequest::new(&prog, std::slice::from_ref(&input)).threads(threads))
            .and_then(|h| h.join())
            .unwrap()
    };
    let serial = run(1);
    let par = run(4);
    assert_eq!(serial[0].data, par[0].data);
    let total: f32 = serial[0].data.iter().sum();
    assert_eq!(total, 1024.0);
}

#[test]
fn sequential_scan_prefix_sum() {
    // f(x) = f(x−1) + in(x) for x ≥ 1; f(0) = in(0): a prefix sum.
    let img = BufId(0);
    let out = BufId(1);
    let kernel_rec = Kernel::new(
        vec![
            load(0, out, &[-1]),
            load(1, img, &[0]),
            Op::BinF {
                op: BinOp::Add,
                dst: RegId(2),
                a: RegId(0),
                b: RegId(1),
            },
        ],
        vec![RegId(2)],
    );
    let kernel_base = Kernel::new(vec![load(0, img, &[0])], vec![RegId(0)]);
    let prog = Arc::new(Program {
        name: "scan".into(),
        buffers: vec![
            BufDecl {
                name: "in".into(),
                kind: BufKind::Full,
                sizes: vec![100],
                origin: vec![0],
            },
            BufDecl {
                name: "f".into(),
                kind: BufKind::Full,
                sizes: vec![100],
                origin: vec![0],
            },
        ],
        image_bufs: vec![img],
        groups: vec![GroupExec {
            name: "scan".into(),
            kind: GroupKind::Sequential(SeqExec {
                name: "f".into(),
                out,
                dom: Rect::new(vec![(0, 99)]),
                cases: vec![
                    CaseExec {
                        steps: vec![(1, 0)],
                        rect: Rect::new(vec![(0, 0)]),
                        kernel: kernel_base,
                        mask: None,
                    },
                    CaseExec {
                        steps: vec![(1, 0)],
                        rect: Rect::new(vec![(1, 99)]),
                        kernel: kernel_rec,
                        mask: None,
                    },
                ],
                sat: None,
                round: false,
                chunked: false, // same-row self-dependence
                reads: vec![img, out],
            }),
        }],
        outputs: vec![("f".into(), out)],
        mode: EvalMode::Vector,
        simd: polymage_vm::process_simd_level(),
        storage: StoragePlan::run_scoped(2),
    });
    let input = Buffer::zeros(Rect::new(vec![(0, 99)])).fill_with(|p| (p[0] % 7) as f32);
    let outs = Engine::with_threads(1)
        .submit(RunRequest::new(&prog, std::slice::from_ref(&input)))
        .and_then(|h| h.join())
        .unwrap();
    let mut acc = 0.0;
    for (x, &v) in outs[0].data.iter().enumerate() {
        acc += input.data[x];
        assert_eq!(v, acc, "prefix sum mismatch at {x}");
    }
}

#[test]
fn saturating_stores() {
    // out(x) = in(x) * 3 stored as UChar-saturated.
    let img = BufId(0);
    let out = BufId(1);
    let buffers = vec![
        BufDecl {
            name: "in".into(),
            kind: BufKind::Full,
            sizes: vec![16],
            origin: vec![0],
        },
        BufDecl {
            name: "out".into(),
            kind: BufKind::Full,
            sizes: vec![16],
            origin: vec![0],
        },
    ];
    let tg = TiledGroup::new(
        vec![StageExec {
            name: "out".into(),
            scratch: BufId(1),
            full: Some(out),
            direct: true,
            sat: Some((0.0, 255.0)),
            round: true,
            cases: vec![CaseExec {
                steps: vec![(1, 0)],
                rect: Rect::new(vec![(0, 15)]),
                kernel: Kernel::new(
                    vec![
                        load(0, img, &[0]),
                        Op::ConstF {
                            dst: RegId(1),
                            val: 3.0,
                        },
                        Op::BinF {
                            op: BinOp::Mul,
                            dst: RegId(2),
                            a: RegId(0),
                            b: RegId(1),
                        },
                    ],
                    vec![RegId(2)],
                ),
                mask: None,
            }],
            dom: Rect::new(vec![(0, 15)]),
            reads: vec![img],
        }],
        vec![TileWork {
            strip: 0,
            regions: vec![Rect::new(vec![(0, 15)])],
            stores: vec![Some(Rect::new(vec![(0, 15)]))],
        }],
        1,
        &buffers,
    );
    let prog = Arc::new(Program {
        name: "sat".into(),
        buffers,
        image_bufs: vec![img],
        groups: vec![GroupExec {
            name: "g".into(),
            kind: GroupKind::Tiled(tg),
        }],
        outputs: vec![("out".into(), out)],
        mode: EvalMode::Vector,
        simd: polymage_vm::process_simd_level(),
        storage: StoragePlan::run_scoped(2),
    });
    let input = Buffer::zeros(Rect::new(vec![(0, 15)])).fill_with(|p| (p[0] * 20) as f32);
    let outs = Engine::with_threads(1)
        .submit(RunRequest::new(&prog, std::slice::from_ref(&input)))
        .and_then(|h| h.join())
        .unwrap();
    assert_eq!(outs[0].data[0], 0.0);
    assert_eq!(outs[0].data[4], 240.0);
    assert_eq!(outs[0].data[5], 255.0); // 300 saturates
    assert_eq!(outs[0].data[15], 255.0);
}

#[test]
fn min_max_reductions_and_untouched_cells() {
    // min/max over scattered targets; untouched cells read as 0.
    let engine = Engine::with_threads(3);
    for (op, odd_extreme) in [(Reduction::Min, -9.0f32), (Reduction::Max, 9.0f32)] {
        let prog = reduction_program(
            vec![20],
            4,
            Rect::new(vec![(0, 19)]),
            vec![
                load(0, BufId(0), &[0]),
                // target = x mod 2 (never touches cells 2, 3)
                Op::CoordF {
                    dst: RegId(1),
                    dim: 0,
                },
                Op::ConstF {
                    dst: RegId(2),
                    val: 2.0,
                },
                Op::BinF {
                    op: BinOp::Mod,
                    dst: RegId(3),
                    a: RegId(1),
                    b: RegId(2),
                },
            ],
            op,
        );
        // values −9..10 alternating over even/odd positions
        let input = Buffer::zeros(Rect::new(vec![(0, 19)]))
            .fill_with(|p| (p[0] - 10) as f32 + if p[0] % 2 == 0 { 0.5 } else { 0.0 });
        for threads in [1, 3] {
            let got = engine
                .submit(RunRequest::new(&prog, std::slice::from_ref(&input)).threads(threads))
                .and_then(|h| h.join())
                .unwrap();
            // cell 0: evens; cell 1: odds; cells 2/3 untouched → 0
            let evens: Vec<f32> = (0..20)
                .filter(|i| i % 2 == 0)
                .map(|i| input.data[i])
                .collect();
            let odds: Vec<f32> = (0..20)
                .filter(|i| i % 2 == 1)
                .map(|i| input.data[i])
                .collect();
            let fold = |v: &[f32]| match op {
                Reduction::Min => v.iter().fold(f32::MAX, |a, &b| a.min(b)),
                Reduction::Max => v.iter().fold(f32::MIN, |a, &b| a.max(b)),
                Reduction::Sum => v.iter().sum(),
            };
            assert_eq!(
                got[0].data[0],
                fold(&evens),
                "{op:?} cell 0 threads {threads}"
            );
            assert_eq!(
                got[0].data[1],
                fold(&odds),
                "{op:?} cell 1 threads {threads}"
            );
            assert_eq!(got[0].data[2], 0.0, "untouched cell stays 0");
            assert_eq!(got[0].data[3], 0.0);
            // the odd cell's extreme, by hand: −10 + 1 and −10 + 19
            assert_eq!(got[0].data[1], odd_extreme, "{op:?} threads {threads}");
        }
    }
}

#[test]
fn engine_reuse_matches_single_worker_engine_bit_exact() {
    // One 4-worker Engine, many runs, varied thread counts and inputs:
    // every result must be bit-identical to a single-worker engine's run
    // at the same requested thread count.
    let engine = Engine::with_threads(4);
    let single = Engine::with_threads(1);
    for mode in [EvalMode::Vector, EvalMode::Scalar] {
        let prog = Arc::new(two_stage_program(mode));
        for round in 0..3 {
            let input = Buffer::zeros(Rect::new(vec![(0, 63)]))
                .fill_with(|p| ((p[0] * 7919 + 13 * (round + 1)) % 101) as f32);
            for threads in [1, 2, 4, 7] {
                let [oracle, pooled] = [&single, &engine].map(|e| {
                    e.submit(RunRequest::new(&prog, std::slice::from_ref(&input)).threads(threads))
                        .and_then(|h| h.join())
                        .unwrap()
                });
                assert_eq!(oracle.len(), pooled.len());
                for (l, p) in oracle.iter().zip(&pooled) {
                    assert_eq!(l.rect, p.rect);
                    let lb: Vec<u32> = l.data.iter().map(|v| v.to_bits()).collect();
                    let pb: Vec<u32> = p.data.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(lb, pb, "mode {mode:?} threads {threads} round {round}");
                }
            }
        }
    }
}

#[test]
fn engine_stats_report_group_times() {
    let prog = Arc::new(two_stage_program(EvalMode::Vector));
    let input = Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| p[0] as f32);
    let engine = Engine::with_threads(2);
    let (outs, stats) = engine
        .submit(RunRequest::new(&prog, std::slice::from_ref(&input)))
        .unwrap()
        .join_stats()
        .unwrap();
    assert_eq!(outs.len(), 1);
    assert_eq!(stats.tiles, 4);
    assert!(stats.points_computed > 0);
    assert_eq!(stats.group_times.len(), 1);
    assert_eq!(stats.group_times[0].0, "g0");
}

#[test]
fn empty_reduction_domain_yields_finished_identity() {
    // A reduction over an empty domain sweeps nothing: its output is the
    // identity, finished (untouched Min/Max cells read as 0), at any
    // thread count. The domain still gets its one (empty) chunk, so the
    // combine step has a partial to adopt.
    let engine = Engine::with_threads(3);
    for op in [Reduction::Sum, Reduction::Min] {
        let prog = reduction_program(
            vec![8],
            4,
            Rect::new(vec![(5, 4)]),
            vec![
                load(0, BufId(0), &[0]),
                Op::ConstF {
                    dst: RegId(1),
                    val: 0.0,
                },
            ],
            op,
        );
        let input = Buffer::zeros(Rect::new(vec![(0, 7)])).fill_with(|p| p[0] as f32 + 1.0);
        let mut want = vec![op.identity(); 4];
        op.finish(&mut want);
        for threads in [1, 3] {
            let got = engine
                .submit(RunRequest::new(&prog, std::slice::from_ref(&input)).threads(threads))
                .and_then(|h| h.join())
                .unwrap_or_else(|e| panic!("{op:?} threads {threads}: {e}"));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got[0].data), bits(&want), "{op:?} threads {threads}");
        }
    }
}
