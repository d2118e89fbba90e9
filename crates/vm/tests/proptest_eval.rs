//! Property-based tests for the chunk evaluator: chunked evaluation over
//! any chunk axis must agree with a direct scalar computation, and load
//! plans must agree with naive indexing. Every value-producing property
//! runs at each SIMD level the host supports — the vector loops must be
//! bit-identical to the scalar reference.

use polymage_ir::{BinOp, CmpOp, UnOp};
use polymage_vm::*;
use proptest::prelude::*;

fn view_1d(data: &[f32]) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
    (vec![0], vec![1], vec![data.len() as i64])
}

proptest! {
    /// Affine loads `(q·x + o)/m` equal naive gather for every chunk split.
    #[test]
    fn affine_loads_match_naive(
        q in 1i64..4,
        oo in 0i64..5,
        m in 1i64..4,
        x0 in 0i64..20,
        len in 1usize..64,
    ) {
        let data: Vec<f32> = (0..512).map(|i| (i * 3 % 97) as f32).collect();
        let (origin, strides, sizes) = view_1d(&data);
        // ensure indices stay in range
        let max_idx = (q * (x0 + len as i64 - 1) + oo) / m;
        prop_assume!(max_idx < 512);
        let k = Kernel::new(
            vec![Op::Load {
                dst: RegId(0),
                buf: BufId(0),
                plan: vec![IdxPlan::Affine { dim: Some(0), q, o: oo, m }],
            }],
            vec![RegId(0)],
        );
        let view = polymage_vm::ChunkCtx {
            coords: &[x0],
            len,
            inner: 0,
            bufs: &[Some(polymage_vm::BufView {
                data: &data,
                origin: origin.clone(),
                strides: strides.clone(),
                sizes: sizes.clone(),
            })],
        };
        for level in available_simd_levels() {
            let mut regs = RegFile::new();
            regs.set_simd(level);
            eval_kernel(&k, &view, &mut regs);
            for i in 0..len {
                let idx = (q * (x0 + i as i64) + oo).div_euclid(m);
                prop_assert_eq!(regs.reg(RegId(0))[i], data[idx as usize]);
            }
        }
    }

    /// Arithmetic over chunks equals scalar arithmetic per lane.
    #[test]
    fn chunk_arithmetic_matches_scalar(
        vals in proptest::collection::vec(-100.0f32..100.0, 1..64),
        c in -10.0f32..10.0,
    ) {
        let len = vals.len();
        let data = vals.clone();
        let k = Kernel::new(
            vec![
                Op::Load {
                    dst: RegId(0),
                    buf: BufId(0),
                    plan: vec![IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 }],
                },
                Op::ConstF { dst: RegId(1), val: c },
                Op::BinF { op: BinOp::Mul, dst: RegId(2), a: RegId(0), b: RegId(1) },
                Op::BinF { op: BinOp::Add, dst: RegId(3), a: RegId(2), b: RegId(0) },
                Op::UnF { op: UnOp::Abs, dst: RegId(4), a: RegId(3) },
                Op::BinF { op: BinOp::Max, dst: RegId(5), a: RegId(4), b: RegId(1) },
            ],
            vec![RegId(5)],
        );
        let (origin, strides, sizes) = view_1d(&data);
        let ctx = ChunkCtx {
            coords: &[0],
            len,
            inner: 0,
            bufs: &[Some(BufView { data: &data, origin, strides, sizes })],
        };
        for level in available_simd_levels() {
            let mut regs = RegFile::new();
            regs.set_simd(level);
            eval_kernel(&k, &ctx, &mut regs);
            for (i, &v) in vals.iter().enumerate().take(len) {
                let want = (v * c + v).abs().max(c);
                prop_assert_eq!(regs.reg(RegId(5))[i], want);
            }
        }
    }

    /// Masks and selects implement boolean algebra per lane.
    #[test]
    fn mask_algebra(vals in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
        let len = vals.len();
        let data = vals.clone();
        // select(!(v > 0 && v < 5), -1, v)
        let k = Kernel::new(
            vec![
                Op::Load {
                    dst: RegId(0),
                    buf: BufId(0),
                    plan: vec![IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 }],
                },
                Op::ConstF { dst: RegId(1), val: 0.0 },
                Op::ConstF { dst: RegId(2), val: 5.0 },
                Op::CmpMask { op: CmpOp::Gt, dst: RegId(3), a: RegId(0), b: RegId(1) },
                Op::CmpMask { op: CmpOp::Lt, dst: RegId(4), a: RegId(0), b: RegId(2) },
                Op::MaskAnd { dst: RegId(5), a: RegId(3), b: RegId(4) },
                Op::MaskNot { dst: RegId(6), a: RegId(5) },
                Op::ConstF { dst: RegId(7), val: -1.0 },
                Op::SelectF { dst: RegId(8), mask: RegId(6), a: RegId(7), b: RegId(0) },
            ],
            vec![RegId(8)],
        );
        let (origin, strides, sizes) = view_1d(&data);
        let ctx = ChunkCtx {
            coords: &[0],
            len,
            inner: 0,
            bufs: &[Some(BufView { data: &data, origin, strides, sizes })],
        };
        for level in available_simd_levels() {
            let mut regs = RegFile::new();
            regs.set_simd(level);
            eval_kernel(&k, &ctx, &mut regs);
            for (i, &v) in vals.iter().enumerate().take(len) {
                let want = if !(v > 0.0 && v < 5.0) { -1.0 } else { v };
                prop_assert_eq!(regs.reg(RegId(8))[i], want);
            }
        }
    }

    /// Chunking a 2-D load along either axis yields the same values.
    #[test]
    fn chunk_axis_equivalence(rows in 2i64..8, cols in 2i64..8, ox in 0i64..2, oy in 0i64..2) {
        let n = (rows * cols) as usize;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mk = || Kernel::new(
            vec![Op::Load {
                dst: RegId(0),
                buf: BufId(0),
                plan: vec![
                    IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 },
                    IdxPlan::Affine { dim: Some(1), q: 1, o: 0, m: 1 },
                ],
            }],
            vec![RegId(0)],
        );
        let view = || BufView {
            data: &data,
            origin: vec![0, 0],
            strides: vec![cols, 1],
            sizes: vec![rows, cols],
        };
        for level in available_simd_levels() {
        // chunk along axis 1 (rows of the buffer)
        let mut got_rowwise = vec![0.0f32; n];
        {
            let bufs = [Some(view())];
            let mut regs = RegFile::new();
            regs.set_simd(level);
            for x in ox..rows {
                let len = (cols - oy) as usize;
                let ctx = ChunkCtx { coords: &[x, oy], len, inner: 1, bufs: &bufs };
                eval_kernel(&mk(), &ctx, &mut regs);
                for i in 0..len {
                    got_rowwise[(x * cols + oy + i as i64) as usize] =
                        regs.reg(RegId(0))[i];
                }
            }
        }
        // chunk along axis 0 (columns of the buffer, strided loads —
        // the AVX2 gather path when the level allows it)
        let mut got_colwise = vec![0.0f32; n];
        {
            let bufs = [Some(view())];
            let mut regs = RegFile::new();
            regs.set_simd(level);
            for y in oy..cols {
                let len = (rows - ox) as usize;
                let ctx = ChunkCtx { coords: &[ox, y], len, inner: 0, bufs: &bufs };
                eval_kernel(&mk(), &ctx, &mut regs);
                for i in 0..len {
                    got_colwise[((ox + i as i64) * cols + y) as usize] =
                        regs.reg(RegId(0))[i];
                }
            }
        }
        for x in ox..rows {
            for y in oy..cols {
                let i = (x * cols + y) as usize;
                prop_assert_eq!(got_rowwise[i], data[i]);
                prop_assert_eq!(got_colwise[i], data[i]);
            }
        }
        }
    }
}
