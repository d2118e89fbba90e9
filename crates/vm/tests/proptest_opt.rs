//! The evaluator's and the kernel optimizer's bit-exactness contract,
//! checked on random SSA kernels: for any kernel, any chunk axis, any chunk
//! length, and any row, the raw kernel and the optimized kernel (constant
//! folding, simplification, CSE, DCE, compaction) evaluated through the
//! uniform preamble and row-resolved loads produce **bit identical** lane
//! values for every output register — identical to a reference that
//! computes each lane on its own from the op table.

use polymage_ir::{index_convert, round_ties_away, store_convert, BinOp, CmpOp, UnOp};
use polymage_vm::opt::optimize_kernel;
use polymage_vm::*;
use proptest::prelude::*;

const CONSTS: [f32; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 4.0, 3.1];
const BINOPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Min,
    BinOp::Max,
    BinOp::Mod,
    BinOp::Pow,
];
const UNOPS: [UnOp; 9] = [
    UnOp::Neg,
    UnOp::Abs,
    UnOp::Sqrt,
    UnOp::Exp,
    UnOp::Log,
    UnOp::Sin,
    UnOp::Cos,
    UnOp::Floor,
    UnOp::Ceil,
];
const CMPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// Builds a random SSA kernel from opcode tuples. Register 0/1 are the two
/// coordinates, 2/3 seed constants; every subsequent op reads earlier
/// registers only. Load plans stay within the fixed 16×200 test buffer for
/// the evaluation grid used below (affine dim-0 offsets ≤ 2 on x ≤ 5;
/// dim-1 coefficients ≤ 2 on y ≤ 39).
fn build_kernel(codes: &[(u8, usize, usize, u8)]) -> Kernel {
    let mut ops = vec![
        Op::CoordF {
            dst: RegId(0),
            dim: 0,
        },
        Op::CoordF {
            dst: RegId(1),
            dim: 1,
        },
        Op::ConstF {
            dst: RegId(2),
            val: 2.0,
        },
        Op::ConstF {
            dst: RegId(3),
            val: -0.5,
        },
    ];
    let mut n: u16 = 4;
    for &(code, a, b, extra) in codes {
        let ra = RegId((a % n as usize) as u16);
        let rb = RegId((b % n as usize) as u16);
        let rc = RegId(((a + b) % n as usize) as u16);
        let dst = RegId(n);
        let e = extra as usize;
        let op = match code % 12 {
            0 => Op::ConstF {
                dst,
                val: CONSTS[e % CONSTS.len()],
            },
            1 => Op::CoordF { dst, dim: e % 2 },
            2 => Op::BinF {
                op: BINOPS[e % BINOPS.len()],
                dst,
                a: ra,
                b: rb,
            },
            3 => Op::UnF {
                op: UNOPS[e % UNOPS.len()],
                dst,
                a: ra,
            },
            4 => Op::CmpMask {
                op: CMPS[e % CMPS.len()],
                dst,
                a: ra,
                b: rb,
            },
            5 => Op::MaskAnd { dst, a: ra, b: rb },
            6 => Op::MaskOr { dst, a: ra, b: rb },
            7 => Op::MaskNot { dst, a: ra },
            8 => Op::SelectF {
                dst,
                mask: ra,
                a: rb,
                b: rc,
            },
            9 => Op::CastRound { dst, a: ra },
            10 => Op::CastSat {
                dst,
                a: ra,
                lo: 0.0,
                hi: 255.0,
            },
            _ => {
                let inner = if extra & 1 == 0 {
                    // affine: (q·y + o)/m with q,m ∈ {1,2}
                    IdxPlan::Affine {
                        dim: Some(1),
                        q: 1 + (e as i64 >> 1 & 1),
                        o: (e as i64 >> 2) % 3,
                        m: 1 + (e as i64 >> 3 & 1),
                    }
                } else {
                    // data-dependent (rounded + clamped in both paths)
                    IdxPlan::Reg(ra)
                };
                Op::Load {
                    dst,
                    buf: BufId(0),
                    plan: vec![
                        IdxPlan::Affine {
                            dim: Some(0),
                            q: 1,
                            o: (e as i64) % 3,
                            m: 1,
                        },
                        inner,
                    ],
                }
            }
        };
        ops.push(op);
        n += 1;
    }
    // two outputs so multi-out (value + mask style) kernels and the
    // uniform-out broadcast path are exercised
    Kernel::new(ops, vec![RegId(n - 1), RegId(n / 2)])
}

/// Calls `f(coords, len)` for every chunk of the 6×40 evaluation grid,
/// chunking along `inner` with the given chunk length: row by row, and
/// within a row chunk by chunk.
fn walk_grid(inner: usize, chunk: usize, mut f: impl FnMut([i64; 2], usize)) {
    let (xe, ye) = (6i64, 40i64);
    let (outer_end, inner_end) = if inner == 1 { (xe, ye) } else { (ye, xe) };
    for o in 0..outer_end {
        let mut i = 0i64;
        while i < inner_end {
            let len = ((inner_end - i) as usize).min(chunk);
            f(if inner == 1 { [o, i] } else { [i, o] }, len);
            i += len as i64;
        }
    }
}

/// Evaluates all output registers of `k` over the grid of [`walk_grid`],
/// starting a fresh uniform-row cache per row. Evaluation dispatches at the
/// given SIMD `level` (clamped to host support). Returns the concatenated
/// bit patterns of every out register, chunk by chunk.
fn eval_grid(k: &Kernel, data: &[f32], inner: usize, chunk: usize, level: SimdLevel) -> Vec<u32> {
    let bufs = [Some(BufView {
        data,
        origin: vec![0, 0],
        strides: vec![200, 1],
        sizes: vec![16, 200],
    })];
    let mut regs = RegFile::new();
    regs.set_simd(level);
    let mut out = Vec::new();
    walk_grid(inner, chunk, |coords, len| {
        if coords[inner] == 0 {
            regs.begin_row();
        }
        let ctx = ChunkCtx {
            coords: &coords,
            len,
            inner,
            bufs: &bufs,
        };
        eval_kernel(k, &ctx, &mut regs);
        for &r in &k.outs {
            out.extend(regs.reg(r)[..len].iter().map(|v| v.to_bits()));
        }
    });
    out
}

/// The value of every register of `k` at one point, computed on its own:
/// the op table and plain indexing into the 16×200 test buffer, with no
/// chunks, preamble or load classes.
fn point_values(k: &Kernel, data: &[f32], coords: [i64; 2]) -> Vec<f32> {
    let mut v = vec![0.0f32; k.nregs];
    for op in &k.ops {
        let r = |x: RegId| v[x.0 as usize];
        let val = match *op {
            Op::ConstF { val, .. } => val,
            Op::CoordF { dim, .. } => coords[dim] as f32,
            Op::BinF { op, a, b, .. } => op.eval(r(a), r(b)),
            Op::UnF { op, a, .. } => op.eval(r(a)),
            Op::CmpMask { op, a, b, .. } => op.mask(r(a), r(b)),
            Op::MaskAnd { a, b, .. } => r(a) * r(b),
            Op::MaskOr { a, b, .. } => r(a).max(r(b)),
            Op::MaskNot { a, .. } => 1.0 - r(a),
            Op::SelectF { mask, a, b, .. } => {
                if r(mask) != 0.0 {
                    r(a)
                } else {
                    r(b)
                }
            }
            Op::CastRound { a, .. } => round_ties_away(r(a)),
            Op::CastSat { a, lo, hi, .. } => store_convert(r(a), Some((lo, hi)), true),
            Op::Load { ref plan, .. } => {
                let sizes = [16i64, 200];
                let mut flat = 0i64;
                for (d, p) in plan.iter().enumerate() {
                    let idx = match *p {
                        IdxPlan::Affine { dim, q, o, m } => {
                            (q * dim.map_or(0, |dd| coords[dd]) + o).div_euclid(m)
                        }
                        IdxPlan::Reg(x) => index_convert(r(x)).clamp(0, sizes[d] - 1),
                    };
                    flat = flat * sizes[d] + idx;
                }
                data[flat as usize]
            }
        };
        v[op.dst().0 as usize] = val;
    }
    v
}

/// [`eval_grid`]'s output computed point by point by [`point_values`].
fn reference_grid(k: &Kernel, data: &[f32], inner: usize, chunk: usize) -> Vec<u32> {
    let mut out = Vec::new();
    walk_grid(inner, chunk, |coords, len| {
        let lanes: Vec<Vec<f32>> = (0..len as i64)
            .map(|i| {
                let mut c = coords;
                c[inner] += i;
                point_values(k, data, c)
            })
            .collect();
        for &r in &k.outs {
            out.extend(lanes.iter().map(|v| v[r.0 as usize].to_bits()));
        }
    });
    out
}

proptest! {
    /// Unoptimized ≡ optimized ≡ a point-by-point reference, bit-exactly,
    /// for random kernels under both chunk axes and non-CHUNK-aligned
    /// chunk lengths — and at every SIMD level the host supports.
    #[test]
    fn optimizer_is_bit_exact(
        codes in proptest::collection::vec(
            (0u8..12, 0usize..64, 0usize..64, 0u8..=255), 1..40),
        chunk in 1usize..50,
    ) {
        let data: Vec<f32> = (0..16 * 200)
            .map(|i| ((i * 37 % 113) as f32) - 50.0)
            .collect();
        let k = build_kernel(&codes);
        let mut k2 = k.clone();
        let rpt = optimize_kernel(&mut k2, 2, &[], "prop".into());
        prop_assert!(rpt.ops_after <= rpt.ops_before);
        for inner in [1usize, 0] {
            let want = reference_grid(&k, &data, inner, chunk);
            for level in available_simd_levels() {
                let raw = eval_grid(&k, &data, inner, chunk, level);
                prop_assert_eq!(&want, &raw,
                    "unoptimized axis {} chunk {} level {} kernel {:?}",
                    inner, chunk, level, &k);
                let got = eval_grid(&k2, &data, inner, chunk, level);
                prop_assert_eq!(&want, &got,
                    "axis {} chunk {} level {} kernel {:?}",
                    inner, chunk, level, &k);
            }
        }
    }
}
