//! Tile-shape selection is value-invisible — the invariant the autotuner
//! relies on when it sweeps §3.8's ladder, and the one the default cache
//! model relies on when it picks per-group shapes. The two ends of that
//! ladder (`[8, 8]` and `[128, 512]`) and the model's shapes must each
//! produce outputs **bit-identical** to the fixed default shape, across
//! thread counts — tiling (and the grouping it steers) only changes
//! *which* points each tile computes and recomputes, never the arithmetic
//! performed per point. The naive reference interpreter is the oracle for
//! all seven apps, bit for bit at every thread count: at the same count it
//! splits a reduction (Bilateral Grid's grid) into the engine's partials.
//!
//! The model acts only on groups whose whole domain overflows the cache
//! budget, so at the smallest sizes it must leave every app exactly as the
//! fixed default schedules it; its own shapes are checked on one app at a
//! size where every plausible L2 overflows.

use polymage_apps::bilateral::BilateralGrid;
use polymage_apps::camera::CameraPipe;
use polymage_apps::harris::HarrisCorner;
use polymage_apps::interpolate::MultiscaleInterp;
use polymage_apps::laplacian::LocalLaplacian;
use polymage_apps::pyramid::PyramidBlend;
use polymage_apps::unsharp::Unsharp;
use polymage_apps::{all_benchmarks, Benchmark, Scale};
use polymage_core::interp::interpret;
use polymage_core::{compile, plan, CompileOptions, Compiled, DEFAULT_TILE_SIZES};
use polymage_vm::{Engine, RunRequest};

const THREADS: [usize; 3] = [1, 2, 4];

fn bits(bufs: &[polymage_vm::Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn tile_sizes(c: &Compiled) -> Vec<Vec<Option<i64>>> {
    c.report
        .groups
        .iter()
        .map(|g| g.tile_sizes.clone())
        .collect()
}

fn fixed_default(opts: &CompileOptions) -> CompileOptions {
    opts.clone().with_tiles(DEFAULT_TILE_SIZES.to_vec())
}

fn compile_ok(b: &dyn Benchmark, opts: &CompileOptions) -> Compiled {
    compile(b.pipeline(), opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()))
}

fn run(
    engine: &Engine,
    b: &dyn Benchmark,
    c: &Compiled,
    inputs: &[polymage_vm::Buffer],
    threads: usize,
) -> Vec<polymage_vm::Buffer> {
    engine
        .submit(RunRequest::new(&c.program, inputs).threads(threads))
        .and_then(|h| h.join())
        .unwrap_or_else(|e| panic!("{}: {e}", b.name()))
}

/// Each app at the smallest size it accepts: 32×32, and 64×64 for
/// Multiscale Interpolate, whose five pyramid levels would leave a 1×1
/// top. Every group there fits even a 192 KiB L2 whole.
fn smallest_apps() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Unsharp::with_size(32, 32)),
        Box::new(BilateralGrid::with_size(32, 32)),
        Box::new(HarrisCorner::with_size(32, 32)),
        Box::new(CameraPipe::with_size(32, 32)),
        Box::new(PyramidBlend::with_size(32, 32)),
        Box::new(MultiscaleInterp::with_size(64, 64)),
        Box::new(LocalLaplacian::with_size(32, 32)),
    ]
}

/// Where every group fits the cache budget whole, the default cache model
/// makes no decision and the optimized plan is exactly the fixed
/// default's. (At `Scale::Tiny` the pyramid apps already have one fused
/// group over a 2 MiB L2's budget.)
#[test]
fn model_leaves_groups_that_fit_alone() {
    for b in smallest_apps() {
        let opts = CompileOptions::optimized(b.params());
        let p = plan(b.pipeline(), &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        assert!(
            p.tile_choices().iter().all(Option::is_none),
            "{}: the model acted on a group that fits the budget",
            b.name()
        );
        assert_eq!(
            compile_ok(b.as_ref(), &opts).report.to_string(),
            compile_ok(b.as_ref(), &fixed_default(&opts))
                .report
                .to_string(),
            "{}",
            b.name()
        );
    }
}

#[test]
fn fixed_shapes_never_change_output_bits() {
    let shapes = [vec![8, 8], vec![128, 512]];
    // Per shape: did any benchmark's optimized schedule really differ from
    // the default's? Otherwise the comparison below would be vacuous.
    let mut differs = [false; 2];
    let engine = Engine::with_threads(4);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        let oracle = THREADS.map(|threads| {
            interpret(b.pipeline(), &b.params(), &inputs, threads)
                .map(|o| bits(&o))
                .unwrap_or_else(|e| panic!("{}: interpreter: {e}", b.name()))
        });
        let schedules = [
            ("base", CompileOptions::base(b.params())),
            ("opt", CompileOptions::optimized(b.params())),
        ];
        for (label, opts) in schedules {
            let c_default = compile_ok(b.as_ref(), &fixed_default(&opts));
            let out_default = THREADS
                .map(|threads| bits(&run(&engine, b.as_ref(), &c_default, &inputs, threads)));
            for (si, shape) in shapes.iter().enumerate() {
                let c_shape = compile_ok(b.as_ref(), &opts.clone().with_tiles(shape.clone()));
                if label == "opt" && tile_sizes(&c_shape) != tile_sizes(&c_default) {
                    differs[si] = true;
                }
                for (ti, threads) in THREADS.into_iter().enumerate() {
                    let out_shape = bits(&run(&engine, b.as_ref(), &c_shape, &inputs, threads));
                    assert_eq!(
                        out_default[ti],
                        out_shape,
                        "{}: {shape:?} changed output bits vs the fixed default \
                         ({label}, threads {threads})",
                        b.name()
                    );
                    assert_eq!(
                        oracle[ti],
                        out_shape,
                        "{}: {shape:?} differs from the interpreter \
                         ({label}, threads {threads})",
                        b.name()
                    );
                }
            }
        }
    }
    assert!(
        differs.iter().all(|&d| d),
        "a tile shape scheduled every benchmark exactly like the default \
         ({differs:?}) — the comparison above is vacuous for it"
    );
}

/// Unsharp Mask at 512×512: the whole fused group reads and writes about
/// 15 MiB, more than any plausible L2, so the model picks its own shapes —
/// and they must not change a bit.
#[test]
fn model_shapes_never_change_output_bits() {
    let b = Unsharp::with_size(512, 512);
    let inputs = b.make_inputs(42);
    let opts = CompileOptions::optimized(b.params());
    let c_model = compile_ok(&b, &opts);
    let c_fixed = compile_ok(&b, &fixed_default(&opts));
    assert_ne!(
        tile_sizes(&c_model),
        tile_sizes(&c_fixed),
        "the model kept the fixed shape for every group — the comparison \
         below is vacuous"
    );
    let engine = Engine::with_threads(4);
    for threads in THREADS {
        assert_eq!(
            bits(&run(&engine, &b, &c_fixed, &inputs, threads)),
            bits(&run(&engine, &b, &c_model, &inputs, threads)),
            "model tiles changed output bits (threads {threads})"
        );
    }
}
