//! Ablation study for the design choices DESIGN.md calls out:
//!
//! - **inlining** (§3 front-end): point-wise inlining on/off under the
//!   optimized schedule;
//! - **storage optimization** (§3.6): scratchpads vs full-array writes for
//!   tiled groups ("without storage reduction, the tiling transformations
//!   are not very effective");
//! - **fusion without tiling** and **tiling without fusion**: separating
//!   the two halves of the paper's headline optimization;
//! - **overlap estimate**: the level-wise tight tile shapes vs forcing
//!   group splits with a near-zero overlap threshold;
//! - **kernel optimizer**: the bit-exact SSA pass pipeline plus
//!   uniform-op hoisting and load specialization on/off;
//! - **SIMD backend**: runtime-dispatched vector chunk loops vs the
//!   forced-scalar fallback (`CompileOptions::with_simd(SimdOpt::Off)`);
//! - **storage folding** (§3.6, second half): liveness-based scratch-slot
//!   reuse and early full-buffer release on/off
//!   (`CompileOptions::with_storage_fold(false)`);
//! - **tile model** (§3.8): the fixed `[32, 256]` shape for every group
//!   (`CompileOptions::with_tiles`) vs the default per-group cache-model
//!   shapes, which differ only for groups that overflow the L2 budget.

use polymage_bench::{ms, time_program, HarnessArgs};
use polymage_core::{CompileOptions, Session, SimdOpt, DEFAULT_TILE_SIZES};

fn main() {
    let args = HarnessArgs::parse();
    let threads = args.threads.iter().copied().max().unwrap_or(1);
    let session = Session::with_threads(threads);
    println!(
        "Ablations — scale {:?}, threads {threads}, runs {} (ms; lower is better)",
        args.scale, args.runs
    );
    println!(
        "{:<24} {:>9} {:>11} {:>11} {:>10} {:>10} {:>11} {:>9} {:>9} {:>9} {:>10}",
        "Benchmark",
        "opt",
        "no-inline",
        "no-scratch",
        "fuse-only",
        "tile-only",
        "thresh≈0",
        "no-kopt",
        "simd-off",
        "fold-off",
        "tile-fixed"
    );
    for b in args.benchmarks() {
        let inputs = b.make_inputs(42);
        let mut row: Vec<String> = Vec::new();
        let variants: Vec<CompileOptions> = vec![
            CompileOptions::optimized(b.params()),
            {
                let mut o = CompileOptions::optimized(b.params());
                o.inline_pointwise = false;
                o
            },
            {
                let mut o = CompileOptions::optimized(b.params());
                o.storage_opt = false;
                o
            },
            {
                let mut o = CompileOptions::optimized(b.params());
                o.tile = false; // fusion with strip-parallelism only
                o
            },
            {
                let mut o = CompileOptions::optimized(b.params());
                o.fuse = false; // tiling of singleton groups
                o
            },
            CompileOptions::optimized(b.params()).with_threshold(1e-9),
            CompileOptions::optimized(b.params()).with_kernel_opt(false),
            CompileOptions::optimized(b.params()).with_simd(SimdOpt::Off),
            CompileOptions::optimized(b.params()).with_storage_fold(false),
            CompileOptions::optimized(b.params()).with_tiles(DEFAULT_TILE_SIZES.to_vec()),
        ];
        for opts in variants {
            let compiled = session
                .compile(b.pipeline(), &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            row.push(ms(time_program(
                session.engine(),
                &compiled,
                &inputs,
                threads,
                args.runs,
            )));
        }
        println!(
            "{:<24} {:>9} {:>11} {:>11} {:>10} {:>10} {:>11} {:>9} {:>9} {:>9} {:>10}",
            b.name(),
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5],
            row[6],
            row[7],
            row[8],
            row[9]
        );
    }
}
