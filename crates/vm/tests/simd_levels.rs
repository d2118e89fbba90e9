//! The SIMD backend's bit-exactness contract, checked exhaustively at the
//! chunk level: for every instruction-set level the host supports, every
//! vectorized operation, and every chunk length 1..=CHUNK (so every
//! vector-body/scalar-tail split), the lanes produced must be bit-identical
//! to the scalar loops — including NaN, ±0.0, infinities, denormals, and
//! round-half-away ties.
//!
//! Also pins down the register-file reuse contract behind the persistent
//! per-worker `RegFile`: operations write only `[..len]` and consumers read
//! only `[..len]`, so lanes left over from an earlier, longer evaluation
//! can never leak into a later short one.

use polymage_ir::{BinOp, CmpOp};
use polymage_vm::*;

/// Adversarial lane values: exercises NaN propagation/ordering, signed
/// zeros, infinities, denormals, round-half-away ties, and saturation
/// boundaries.
const SPECIALS: [f32; 16] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -0.5,
    2.5,
    -3.5,
    255.49,
    256.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE,
    1.0e-40,   // denormal
    8388609.0, // 2^23 + 1: already integral, "big" path of round
];

/// Fills a CHUNK-sized buffer cycling through the special values, offset
/// so that `a` and `b` operands pair every special with every other over
/// the various lengths.
fn special_data(offset: usize) -> Vec<f32> {
    (0..2 * CHUNK)
        .map(|i| SPECIALS[(i * 7 + offset) % SPECIALS.len()])
        .collect()
}

/// A kernel applying every vectorized op class to two loaded operands.
fn all_ops_kernel() -> Kernel {
    let bin = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
    ];
    let cmp = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    let mut ops = vec![
        Op::Load {
            dst: RegId(0),
            buf: BufId(0),
            plan: vec![IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            }],
        },
        Op::Load {
            dst: RegId(1),
            buf: BufId(1),
            plan: vec![IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            }],
        },
    ];
    let mut n = 2u16;
    for op in bin {
        ops.push(Op::BinF {
            op,
            dst: RegId(n),
            a: RegId(0),
            b: RegId(1),
        });
        n += 1;
    }
    for op in cmp {
        ops.push(Op::CmpMask {
            op,
            dst: RegId(n),
            a: RegId(0),
            b: RegId(1),
        });
        n += 1;
    }
    let m1 = RegId(n - 1); // Ne mask
    let m2 = RegId(n - 2); // Eq mask
    for op in [
        Op::MaskAnd {
            dst: RegId(n),
            a: m1,
            b: m2,
        },
        Op::MaskOr {
            dst: RegId(n + 1),
            a: m1,
            b: m2,
        },
        Op::MaskNot {
            dst: RegId(n + 2),
            a: m1,
        },
        Op::SelectF {
            dst: RegId(n + 3),
            mask: RegId(0),
            a: RegId(1),
            b: RegId(2),
        },
        Op::CastRound {
            dst: RegId(n + 4),
            a: RegId(0),
        },
        Op::CastSat {
            dst: RegId(n + 5),
            a: RegId(0),
            lo: 0.0,
            hi: 255.0,
        },
    ] {
        ops.push(op);
        n += 1;
    }
    // every computed register is an output
    Kernel::new(ops, (2..n).map(RegId).collect())
}

/// 1-D contiguous view over a data slice.
fn view(d: &[f32]) -> BufView<'_> {
    BufView {
        data: d,
        origin: vec![0],
        strides: vec![1],
        sizes: vec![d.len() as i64],
    }
}

/// Evaluates `k` once at (x0=0, len) against the two special-value buffers
/// and returns the bit pattern of every output register's live lanes.
fn eval_bits(k: &Kernel, a: &[f32], b: &[f32], len: usize, level: SimdLevel) -> Vec<u32> {
    let bufs = [Some(view(a)), Some(view(b))];
    let ctx = ChunkCtx {
        coords: &[0],
        len,
        inner: 0,
        bufs: &bufs,
    };
    let mut regs = RegFile::new();
    regs.set_simd(level);
    eval_kernel(k, &ctx, &mut regs);
    let mut out = Vec::new();
    for &r in &k.outs {
        out.extend(regs.reg(r)[..len].iter().map(|v| v.to_bits()));
    }
    out
}

/// Every level × every vectorized op × every body/tail split 1..=CHUNK is
/// bit-identical to the scalar loops on adversarial values.
#[test]
fn all_levels_bit_identical_at_every_tail_length() {
    let k = all_ops_kernel();
    let a = special_data(0);
    let b = special_data(3);
    for len in 1..=CHUNK {
        let want = eval_bits(&k, &a, &b, len, SimdLevel::Scalar);
        for level in available_simd_levels() {
            let got = eval_bits(&k, &a, &b, len, level);
            assert_eq!(want, got, "level {level} diverged from scalar at len {len}");
        }
    }
}

/// Strided loads (the AVX2 gather path) are value-identical to scalar
/// indexing at every length, including negative strides via dim-0 chunking
/// of a row-major 2-D view.
#[test]
fn strided_loads_bit_identical() {
    let cols = 7i64;
    let rows = CHUNK as i64 + 3;
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| SPECIALS[i as usize % SPECIALS.len()])
        .collect();
    let k = Kernel::new(
        vec![Op::Load {
            dst: RegId(0),
            buf: BufId(0),
            plan: vec![
                IdxPlan::Affine {
                    dim: Some(0),
                    q: 2,
                    o: 1,
                    m: 1,
                },
                IdxPlan::Affine {
                    dim: Some(1),
                    q: 1,
                    o: 0,
                    m: 1,
                },
            ],
        }],
        vec![RegId(0)],
    );
    let bufs = [Some(BufView {
        data: &data,
        origin: vec![0, 0],
        strides: vec![cols, 1],
        sizes: vec![rows, cols],
    })];
    for len in [1usize, 3, 4, 5, 8, 9, 31, 60] {
        for y in 0..cols {
            let ctx = ChunkCtx {
                coords: &[0, y],
                len,
                inner: 0,
                bufs: &bufs,
            };
            let mut want = Vec::new();
            for level in available_simd_levels() {
                let mut regs = RegFile::new();
                regs.set_simd(level);
                eval_kernel(&k, &ctx, &mut regs);
                let got: Vec<u32> = regs.reg(RegId(0))[..len]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                if level == SimdLevel::Scalar {
                    for (i, &bits) in got.iter().enumerate() {
                        let idx = (2 * i as i64 + 1) * cols + y;
                        assert_eq!(bits, data[idx as usize].to_bits());
                    }
                    want = got;
                } else {
                    assert_eq!(want, got, "level {level} gather len {len} y {y}");
                }
            }
        }
    }
}

/// Register-file reuse: a long evaluation followed by a short one on the
/// *same* register file yields exactly what a fresh register file yields —
/// stale lanes beyond `len` are never observable through outputs. This is
/// the contract that lets engine workers keep one `RegFile` across jobs
/// and lets `ensure`/`begin_row` skip re-zeroing live registers.
#[test]
fn tail_chunks_never_see_stale_lanes() {
    let k = all_ops_kernel();
    let a = special_data(1);
    let b = special_data(5);
    let a2 = special_data(9);
    let b2 = special_data(13);
    for level in available_simd_levels() {
        let mut reused = RegFile::new();
        reused.set_simd(level);
        // Long evaluation fills all CHUNK lanes of every register.
        {
            let bufs = [Some(view(&a)), Some(view(&b))];
            reused.begin_row();
            let ctx = ChunkCtx {
                coords: &[0],
                len: CHUNK,
                inner: 0,
                bufs: &bufs,
            };
            eval_kernel(&k, &ctx, &mut reused);
        }
        // Short tail evaluation on different data, same register file.
        for len in [1usize, 2, 7, 31] {
            let bufs = [Some(view(&a2)), Some(view(&b2))];
            reused.begin_row();
            let ctx = ChunkCtx {
                coords: &[0],
                len,
                inner: 0,
                bufs: &bufs,
            };
            eval_kernel(&k, &ctx, &mut reused);
            let fresh_bits = eval_bits(&k, &a2, &b2, len, level);
            let mut reused_bits = Vec::new();
            for &r in &k.outs {
                reused_bits.extend(reused.reg(r)[..len].iter().map(|v| v.to_bits()));
            }
            assert_eq!(
                fresh_bits, reused_bits,
                "stale lanes leaked at level {level} len {len}"
            );
        }
    }
}

/// `set_simd` clamps to host support, and lane counters attribute work to
/// the level actually dispatched.
#[test]
fn level_clamping_and_counters() {
    let k = all_ops_kernel();
    let a = special_data(0);
    let b = special_data(3);
    for level in available_simd_levels() {
        let bufs = [Some(view(&a)), Some(view(&b))];
        let ctx = ChunkCtx {
            coords: &[0],
            len: 17,
            inner: 0,
            bufs: &bufs,
        };
        let mut regs = RegFile::new();
        regs.set_simd(level);
        assert_eq!(regs.simd_level(), level, "available level must stick");
        eval_kernel(&k, &ctx, &mut regs);
        let c = regs.take_counters();
        let lanes = [
            c.simd_lanes_scalar,
            c.simd_lanes_sse2,
            c.simd_lanes_avx2,
            c.simd_lanes_neon,
        ];
        let idx = match level {
            SimdLevel::Scalar => 0,
            SimdLevel::Sse2 => 1,
            SimdLevel::Avx2 => 2,
            SimdLevel::Neon => 3,
        };
        assert_eq!(lanes[idx], 17, "lanes counted at the dispatched level");
        for (i, &l) in lanes.iter().enumerate() {
            if i != idx {
                assert_eq!(l, 0, "no lanes counted at other levels");
            }
        }
    }
    // An unavailable level clamps to something the host has (never panics,
    // never dispatches unsupported instructions).
    let mut regs = RegFile::new();
    regs.set_simd(SimdLevel::Avx2);
    let eff = regs.simd_level();
    assert!(
        available_simd_levels().contains(&eff),
        "clamped level {eff} must be available"
    );
}

// ---------------------------------------------------------------------------
// The index pipeline: every addressed access (floor-divided, diagonal and
// data-dependent loads, reduction scatter targets) against the per-lane
// reference arithmetic — `div_euclid`, `round`, `as i64`, `clamp` — at
// every level and every chunk length.
// ---------------------------------------------------------------------------

/// The reference conversion of a data-dependent index.
fn index_oracle(v: f32, org: i64, size: i64) -> i64 {
    (v.round() as i64).clamp(org, org + size - 1)
}

/// Index values that stress the float → index conversion: NaN, infinities,
/// signed zeros, round-half-away ties and their neighbours, denormals, the
/// `i32` edges, and magnitudes far outside any buffer.
const INDEX_SPECIALS: [f32; 32] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    0.5,
    -0.5,
    1.5,
    -1.5,
    2.5,
    -2.5,
    0.499_999_97,
    -0.499_999_97,
    3.499_999_8,
    -3.499_999_8,
    1.0e-40,
    -1.0e-40,
    f32::MIN_POSITIVE,
    2_147_483_648.0,
    -2_147_483_648.0,
    2_147_483_904.0,
    -2_147_483_904.0,
    1.0e30,
    -1.0e30,
    16_777_216.0,
    -16_777_215.0,
    8_388_607.5,
    6.5,
    -7.5,
    100.49,
    -4.0,
    9.0,
];

/// `Load r0 ← src[x]` then `Load r1 ← table[plan]`.
fn lookup_kernel(plan: Vec<IdxPlan>) -> Kernel {
    Kernel::new(
        vec![
            Op::Load {
                dst: RegId(0),
                buf: BufId(0),
                plan: vec![IdxPlan::Affine {
                    dim: Some(0),
                    q: 1,
                    o: 0,
                    m: 1,
                }],
            },
            Op::Load {
                dst: RegId(1),
                buf: BufId(1),
                plan,
            },
        ],
        vec![RegId(1)],
    )
}

/// Evaluates `k` at `coords` and returns the live lanes of its output plus
/// the `(vector, scalar)` indexed-lane counts.
fn eval_lanes(
    k: &Kernel,
    bufs: &[Option<BufView<'_>>],
    coords: &[i64],
    len: usize,
    level: SimdLevel,
) -> (Vec<f32>, (u64, u64)) {
    let ctx = ChunkCtx {
        coords,
        len,
        inner: 0,
        bufs,
    };
    let mut regs = RegFile::new();
    regs.set_simd(level);
    eval_kernel(k, &ctx, &mut regs);
    let out = regs.reg(k.out())[..len].to_vec();
    let c = regs.take_counters();
    (out, (c.index_lanes_vector, c.index_lanes_scalar))
}

/// A table whose element at index `i` (relative to its origin) is `i`, so
/// a load returns the flat offset it addressed.
fn identity_table(n: usize) -> Vec<f32> {
    (0..n).map(|i| i as f32).collect()
}

/// The float → index conversion equals round-then-clamp on every special
/// value, for negative origins, one-cell dimensions and bounds at the edge
/// of `f32` exactness — and lanes are counted on the side that addressed
/// them.
#[test]
fn index_conversion_matches_round_then_clamp() {
    let src: Vec<f32> = (0..CHUNK + 16)
        .map(|i| INDEX_SPECIALS[(i * 7) % INDEX_SPECIALS.len()])
        .collect();
    let k = lookup_kernel(vec![IdxPlan::Reg(RegId(0))]);
    let exact = 1i64 << 24;
    // (origin, size, within the vector pipeline's exact range)
    for (org, size, vector) in [
        (0i64, 10i64, true),
        (-3, 7, true),
        (-5, 1, true),
        (2, 1, true),
        (-100, 300, true),
        (exact - 4, 5, true),
        (-exact, 3, true),
        (exact - 1, 3, false),
    ] {
        let table = identity_table(size as usize);
        let bufs = [
            Some(view(&src)),
            Some(BufView {
                data: &table,
                origin: vec![org],
                strides: vec![1],
                sizes: vec![size],
            }),
        ];
        for x0 in [0i64, 5, 11] {
            for len in 1..=CHUNK {
                let want: Vec<f32> = (0..len)
                    .map(|i| (index_oracle(src[x0 as usize + i], org, size) - org) as f32)
                    .collect();
                for level in available_simd_levels() {
                    let (got, lanes) = eval_lanes(&k, &bufs, &[x0], len, level);
                    assert_eq!(got, want, "level {level} org {org} size {size} len {len}");
                    let n = len as u64;
                    let expect = if vector && level != SimdLevel::Scalar {
                        (n, 0)
                    } else {
                        (0, n)
                    };
                    assert_eq!(lanes, expect, "lane accounting at {level}");
                }
            }
        }
    }
}

/// Floor-divided affine loads — the division-free staircase — equal
/// per-lane `div_euclid` for every sign of the coefficient, every small
/// divisor, negative numerators and chunks that start mid-step.
#[test]
fn floor_division_matches_div_euclid() {
    let org = -600i64;
    let table = identity_table(1200);
    let bufs = [Some(BufView {
        data: &table,
        origin: vec![org],
        strides: vec![1],
        sizes: vec![1200],
    })];
    for q in [-3i64, -2, -1, 1, 2, 3] {
        for m in 1..=9i64 {
            for o in [0i64, -17, 5] {
                let k = Kernel::new(
                    vec![Op::Load {
                        dst: RegId(0),
                        buf: BufId(0),
                        plan: vec![IdxPlan::Affine {
                            dim: Some(0),
                            q,
                            o,
                            m,
                        }],
                    }],
                    vec![RegId(0)],
                );
                for x0 in [-41i64, -1, 0, 4, 13] {
                    for len in 1..=CHUNK {
                        let want: Vec<f32> = (0..len as i64)
                            .map(|i| ((q * (x0 + i) + o).div_euclid(m) - org) as f32)
                            .collect();
                        for level in available_simd_levels() {
                            let (got, _) = eval_lanes(&k, &bufs, &[x0], len, level);
                            assert_eq!(got, want, "level {level} q {q} m {m} o {o} x0 {x0}");
                        }
                    }
                }
            }
        }
    }
}

/// Diagonal accesses (two affine terms on the chunk axis) and mixed
/// affine + register accesses address the same elements as the reference
/// arithmetic.
#[test]
fn multi_term_loads_match_reference() {
    let (rows, cols) = (90i64, 40i64);
    let table = identity_table((rows * cols) as usize);
    let src: Vec<f32> = (0..CHUNK + 16)
        .map(|i| INDEX_SPECIALS[(i * 5) % INDEX_SPECIALS.len()] + (i % 13) as f32)
        .collect();
    let bufs = [
        Some(view(&src)),
        Some(BufView {
            data: &table,
            origin: vec![-3, -7],
            strides: vec![cols, 1],
            sizes: vec![rows, cols],
        }),
    ];
    let row = IdxPlan::Affine {
        dim: Some(0),
        q: 1,
        o: -5,
        m: 2,
    };
    let diagonal = lookup_kernel(vec![
        row,
        IdxPlan::Affine {
            dim: Some(0),
            q: -1,
            o: 90,
            m: 5,
        },
    ]);
    let mixed = lookup_kernel(vec![row, IdxPlan::Reg(RegId(0))]);
    for x0 in [0i64, 3, 10] {
        for len in 1..=CHUNK {
            let r = |i: usize| ((x0 + i as i64) - 5).div_euclid(2) + 3;
            let want_diag: Vec<f32> = (0..len)
                .map(|i| {
                    let c = (90 - (x0 + i as i64)).div_euclid(5) + 7;
                    (r(i) * cols + c) as f32
                })
                .collect();
            let want_mixed: Vec<f32> = (0..len)
                .map(|i| {
                    let c = index_oracle(src[x0 as usize + i], -7, cols) + 7;
                    (r(i) * cols + c) as f32
                })
                .collect();
            for level in available_simd_levels() {
                let (got, _) = eval_lanes(&diagonal, &bufs, &[x0], len, level);
                assert_eq!(got, want_diag, "diagonal, level {level} x0 {x0} len {len}");
                let (got, _) = eval_lanes(&mixed, &bufs, &[x0], len, level);
                assert_eq!(got, want_mixed, "mixed, level {level} x0 {x0} len {len}");
            }
        }
    }
}

/// A plan whose offset range cannot be proven inside the data — because
/// the view claims more than the data holds, or because the range passes
/// `i32::MAX` — takes the scalar walk: same values when every lane does
/// land in the data, same panic when one does not.
#[test]
fn unprovable_plans_take_the_scalar_walk() {
    let src: Vec<f32> = (0..CHUNK).map(|i| (i % 10) as f32).collect();
    let table = identity_table(16);
    let k = lookup_kernel(vec![IdxPlan::Reg(RegId(0))]);
    // The view claims 20 cells; the data has 16; the indices stay below 10.
    let overclaimed = [
        Some(view(&src)),
        Some(BufView {
            data: &table,
            origin: vec![0],
            strides: vec![1],
            sizes: vec![20],
        }),
    ];
    // The row stride makes the clamp range 4095·2²⁰ elements wide; the row
    // index is always 0.
    let k2 = lookup_kernel(vec![
        IdxPlan::Reg(RegId(0)),
        IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o: 0,
            m: 8,
        },
    ]);
    let zeros = vec![0.0f32; CHUNK];
    let huge = [
        Some(view(&zeros)),
        Some(BufView {
            data: &table,
            origin: vec![0, 0],
            strides: vec![1 << 20, 1],
            sizes: vec![4096, 16],
        }),
    ];
    for level in available_simd_levels() {
        for len in [1usize, 7, 8, 33, CHUNK] {
            let (got, lanes) = eval_lanes(&k, &overclaimed, &[0], len, level);
            assert_eq!(got, src[..len], "level {level}");
            assert_eq!(lanes, (0, len as u64), "unprovable ⇒ scalar walk");
            let (got, lanes) = eval_lanes(&k2, &huge, &[0], len, level);
            let want: Vec<f32> = (0..len).map(|i| (i / 8) as f32).collect();
            assert_eq!(got, want, "level {level}");
            assert_eq!(lanes, (0, len as u64), "range beyond i32 ⇒ scalar walk");
        }
        // One index (19, clamped by the view's claim) lies past the data.
        let mut bad = src.clone();
        bad[5] = 19.0;
        let bufs = [Some(view(&bad)), overclaimed[1].clone()];
        let r = std::panic::catch_unwind(|| eval_lanes(&k, &bufs, &[0], 8, level));
        assert!(r.is_err(), "out-of-data lane must panic at {level}");
    }
}

/// A one-group program reducing `vals[x]` into `acc[round(idx[x])]` over
/// `x ∈ [0, n)`; the accumulator covers `[-2, 2]`.
fn scatter_program(op: polymage_ir::Reduction, n: i64, simd: SimdLevel) -> Program {
    let load = |dst: u16, buf: usize| Op::Load {
        dst: RegId(dst),
        buf: BufId(buf),
        plan: vec![IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o: 0,
            m: 1,
        }],
    };
    let image = |name: &str| BufDecl {
        name: name.into(),
        kind: BufKind::Full,
        sizes: vec![n],
        origin: vec![0],
    };
    Program {
        name: "scatter".into(),
        buffers: vec![
            image("vals"),
            image("idx"),
            BufDecl {
                name: "acc".into(),
                kind: BufKind::Full,
                sizes: vec![5],
                origin: vec![-2],
            },
        ],
        image_bufs: vec![BufId(0), BufId(1)],
        groups: vec![GroupExec {
            name: "acc".into(),
            kind: GroupKind::Reduction(ReductionExec {
                name: "acc".into(),
                out: BufId(2),
                red_dom: polymage_poly::Rect::new(vec![(0, n - 1)]),
                kernel: Kernel::new(vec![load(0, 0), load(1, 1)], vec![RegId(0), RegId(1)]),
                op,
                reads: vec![BufId(0), BufId(1)],
            }),
        }],
        outputs: vec![("acc".into(), BufId(2))],
        mode: EvalMode::Vector,
        simd,
        storage: StoragePlan::run_scoped(3),
    }
}

/// Reduction scatter: many lanes hit one cell, and the cells combine in
/// ascending lane order at every level — pinned bit for bit with a `Sum`
/// whose value depends on the order. The pool size never changes a bit:
/// 1- and 3-worker engines agree at each requested thread count, and one
/// thread reproduces the hand-computed sweep.
#[test]
fn scatter_combines_in_ascending_lane_order() {
    use polymage_ir::Reduction;
    use polymage_poly::Rect;
    let engines = [Engine::with_threads(1), Engine::with_threads(3)];
    // Magnitudes eight orders apart: any reordering of a cell's additions
    // changes the rounded sum.
    let vals_at =
        |x: usize| [1.0e8f32, 1.0, -1.0e8, 0.1, 3.0e7, -0.7, 1.0e-3][x % 7] * (1 + x % 3) as f32;
    let idx_at = |x: usize| INDEX_SPECIALS[(x * 11) % INDEX_SPECIALS.len()];
    for n in (1..=CHUNK).chain([CHUNK + 1, 3 * CHUNK + 17]) {
        let rect = Rect::new(vec![(0, n as i64 - 1)]);
        let inputs = [
            Buffer::zeros(rect.clone()).fill_with(|p| vals_at(p[0] as usize)),
            Buffer::zeros(rect).fill_with(|p| idx_at(p[0] as usize)),
        ];
        for op in [Reduction::Sum, Reduction::Min, Reduction::Max] {
            let mut want = [op.identity(); 5];
            for x in 0..n {
                let cell = (index_oracle(idx_at(x), -2, 5) + 2) as usize;
                want[cell] = match op {
                    Reduction::Sum => want[cell] + vals_at(x),
                    Reduction::Min => want[cell].min(vals_at(x)),
                    Reduction::Max => want[cell].max(vals_at(x)),
                };
            }
            for w in &mut want {
                if w.is_infinite() {
                    *w = 0.0; // untouched Min/Max cells read as 0
                }
            }
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            for level in available_simd_levels() {
                let prog = std::sync::Arc::new(scatter_program(op, n as i64, level));
                for threads in [1, 3] {
                    let [single, pooled] = [&engines[0], &engines[1]].map(|e| {
                        let out = e
                            .submit(RunRequest::new(&prog, &inputs).threads(threads))
                            .and_then(|h| h.join())
                            .unwrap();
                        out[0]
                            .data
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<u32>>()
                    });
                    let at = format!("{op:?} n {n} level {level} threads {threads}");
                    assert_eq!(single, pooled, "{at}: pool size changed the bits");
                    if threads == 1 {
                        assert_eq!(single, want, "{at}");
                    }
                }
            }
        }
    }
}

/// An accumulator with a zero-extent dimension has no cell to combine
/// into: the sweep does nothing (it used to panic inside `clamp`).
#[test]
fn zero_extent_accumulator_is_a_no_op() {
    use polymage_poly::Rect;
    let rect = Rect::new(vec![(0, 9)]);
    let inputs = [
        Buffer::zeros(rect.clone()).fill_with(|p| p[0] as f32),
        Buffer::zeros(rect).fill_with(|p| p[0] as f32),
    ];
    let engine = Engine::with_threads(2);
    for level in available_simd_levels() {
        let mut prog = scatter_program(polymage_ir::Reduction::Sum, 10, level);
        prog.buffers[2].sizes = vec![0];
        let out = engine
            .submit(RunRequest::new(&std::sync::Arc::new(prog), &inputs).threads(2))
            .and_then(|h| h.join())
            .unwrap();
        assert!(out[0].data.is_empty());
    }
}
