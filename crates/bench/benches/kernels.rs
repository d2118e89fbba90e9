//! Kernel-optimizer and SIMD-backend ablations on the evaluator.
//!
//! - `kernels_*`: the opt+vec schedule with the bit-exact SSA pass
//!   pipeline (`CompileOptions::kernel_opt`) on vs off, across all seven
//!   apps, plus the SIMD backend (detected best vs forced scalar) under
//!   the same schedule. Isolates instruction quality from the
//!   schedule-level optimizations, which are held fixed.
//! - `simd_eval_*`: raw chunk-kernel evaluation of lane-varying kernels
//!   at every SIMD level the host supports — the per-lane dispatch cost
//!   with no scheduler, store, or memory-allocation term. This is the
//!   ≥1.5× geomean claim in EXPERIMENTS.md §SIMD.
//!
//! Numbers go into EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polymage_apps::{all_benchmarks, Scale};
use polymage_core::{compile, CompileOptions, SimdOpt};
use polymage_ir::{BinOp, CmpOp};
use polymage_vm::{
    available_simd_levels, eval_kernel, BufId, BufView, ChunkCtx, Engine, IdxPlan, Kernel, Op,
    RegFile, RegId, RunRequest, CHUNK,
};

fn bench_kernel_opt(c: &mut Criterion) {
    let threads = 1; // single-core container; avoids scheduler noise
    let engine = Engine::with_threads(threads);
    for b in all_benchmarks(Scale::Small) {
        let inputs = b.make_inputs(42);
        let on = compile(b.pipeline(), &CompileOptions::optimized(b.params()))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let off = compile(
            b.pipeline(),
            &CompileOptions::optimized(b.params()).with_kernel_opt(false),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let mut g = c.benchmark_group(format!("kernels_{}", b.name().replace(' ', "_")));
        g.sample_size(15);
        g.bench_function(BenchmarkId::from_parameter("kernel-opt"), |bench| {
            bench.iter(|| {
                engine
                    .submit(RunRequest::new(&on.program, &inputs).threads(threads))
                    .unwrap()
                    .join()
                    .unwrap()
            })
        });
        g.bench_function(BenchmarkId::from_parameter("no-kernel-opt"), |bench| {
            bench.iter(|| {
                engine
                    .submit(RunRequest::new(&off.program, &inputs).threads(threads))
                    .unwrap()
                    .join()
                    .unwrap()
            })
        });
        let simd_off = compile(
            b.pipeline(),
            &CompileOptions::optimized(b.params()).with_simd(SimdOpt::Off),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        g.bench_function(BenchmarkId::from_parameter("simd-off"), |bench| {
            bench.iter(|| {
                engine
                    .submit(RunRequest::new(&simd_off.program, &inputs).threads(threads))
                    .unwrap()
                    .join()
                    .unwrap()
            })
        });
        g.finish();
    }
}

/// A stencil-flavored arithmetic chain: three taps, weights, and a
/// normalization divide — all lane-varying `BinOp` traffic.
fn arith_kernel() -> Kernel {
    let tap = |dst: u16, o: i64| Op::Load {
        dst: RegId(dst),
        buf: BufId(0),
        plan: vec![IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o,
            m: 1,
        }],
    };
    Kernel {
        ops: vec![
            tap(0, 0),
            tap(1, 1),
            tap(2, 2),
            Op::ConstF {
                dst: RegId(3),
                val: 0.25,
            },
            Op::BinF {
                op: BinOp::Add,
                dst: RegId(4),
                a: RegId(0),
                b: RegId(1),
            },
            Op::BinF {
                op: BinOp::Add,
                dst: RegId(5),
                a: RegId(4),
                b: RegId(2),
            },
            Op::BinF {
                op: BinOp::Mul,
                dst: RegId(6),
                a: RegId(5),
                b: RegId(3),
            },
            Op::BinF {
                op: BinOp::Max,
                dst: RegId(7),
                a: RegId(6),
                b: RegId(0),
            },
            Op::BinF {
                op: BinOp::Min,
                dst: RegId(8),
                a: RegId(7),
                b: RegId(1),
            },
            Op::BinF {
                op: BinOp::Div,
                dst: RegId(9),
                a: RegId(8),
                b: RegId(3),
            },
        ],
        nregs: 10,
        meta: None,
        outs: vec![RegId(9)],
    }
}

/// A thresholding chain: compares, mask algebra, select, and a saturating
/// cast — the mask/select half of the vector catalog.
fn mask_kernel() -> Kernel {
    let tap = |dst: u16, o: i64| Op::Load {
        dst: RegId(dst),
        buf: BufId(0),
        plan: vec![IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o,
            m: 1,
        }],
    };
    Kernel {
        ops: vec![
            tap(0, 0),
            tap(1, 1),
            Op::ConstF {
                dst: RegId(2),
                val: 8.0,
            },
            Op::CmpMask {
                op: CmpOp::Lt,
                dst: RegId(3),
                a: RegId(0),
                b: RegId(2),
            },
            Op::CmpMask {
                op: CmpOp::Ge,
                dst: RegId(4),
                a: RegId(1),
                b: RegId(2),
            },
            Op::MaskOr {
                dst: RegId(5),
                a: RegId(3),
                b: RegId(4),
            },
            Op::MaskNot {
                dst: RegId(6),
                a: RegId(5),
            },
            Op::SelectF {
                dst: RegId(7),
                mask: RegId(6),
                a: RegId(0),
                b: RegId(1),
            },
            Op::CastSat {
                dst: RegId(8),
                a: RegId(7),
                lo: 0.0,
                hi: 255.0,
            },
            Op::CastRound {
                dst: RegId(9),
                a: RegId(7),
            },
        ],
        nregs: 10,
        meta: None,
        outs: vec![RegId(8), RegId(9)],
    }
}

fn bench_simd_eval(c: &mut Criterion) {
    let data: Vec<f32> = (0..4096 + CHUNK)
        .map(|i| ((i * 37 % 113) as f32) - 50.0)
        .collect();
    let rows = 64i64;
    let row_len = 124usize; // non-multiple of every vector width: tails too
    for (name, k) in [("arith", arith_kernel()), ("mask", mask_kernel())] {
        let mut g = c.benchmark_group(format!("simd_eval_{name}"));
        for level in available_simd_levels() {
            g.bench_function(BenchmarkId::from_parameter(level.name()), |bench| {
                let bufs = [Some(BufView {
                    data: &data,
                    origin: vec![0],
                    strides: vec![1],
                    sizes: vec![data.len() as i64],
                })];
                let mut regs = RegFile::new();
                regs.set_simd(level);
                bench.iter(|| {
                    let mut acc = 0.0f32;
                    for r in 0..rows {
                        regs.begin_row();
                        let mut x = r * 8;
                        let end = x + row_len as i64;
                        while x < end {
                            let len = ((end - x) as usize).min(CHUNK);
                            let ctx = ChunkCtx {
                                coords: &[x],
                                len,
                                inner: 0,
                                bufs: &bufs,
                            };
                            eval_kernel(&k, &ctx, &mut regs);
                            acc += regs.reg(k.outs[0])[len - 1];
                            x += len as i64;
                        }
                    }
                    acc
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_kernel_opt, bench_simd_eval);
criterion_main!(benches);
