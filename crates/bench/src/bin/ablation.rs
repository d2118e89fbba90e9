//! Ablation study for the design choices DESIGN.md calls out. The first
//! columns are the schedules of `polymage_core::Schedule` (`opt`, the
//! paper's `base`, and one column per pass turned off); the rest change
//! one other knob of `opt`:
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
//! - **SIMD backend**: runtime-dispatched vector chunk loops vs the
//!   forced-scalar fallback (`CompileOptions::with_simd(SimdOpt::Off)`);
//! - **tile model** (§3.8): the fixed `[32, 256]` shape for every group
//!   (`CompileOptions::with_tiles`) vs the default per-group cache-model
//!   shapes, which differ only for groups that overflow the L2 budget.

use polymage_bench::{ms, time_program, HarnessArgs};
use polymage_core::{CompileOptions, Schedule, Session, SimdOpt, DEFAULT_TILE_SIZES};

/// The columns after the schedules: one other knob of `opt` each.
type Knob = (&'static str, fn(CompileOptions) -> CompileOptions);
const KNOBS: [Knob; 3] = [
    ("thresh≈0", |o| o.with_threshold(1e-9)),
    ("simd-off", |o| o.with_simd(SimdOpt::Off)),
    ("tile-fixed", |o| o.with_tiles(DEFAULT_TILE_SIZES.to_vec())),
];

fn main() {
    let args = HarnessArgs::parse();
    let threads = args.threads.iter().copied().max().unwrap_or(1);
    let session = Session::with_threads(threads);
    println!(
        "Ablations — scale {:?}, threads {threads}, runs {} (ms; lower is better)",
        args.scale, args.runs
    );
    let labels = Schedule::ALL.map(Schedule::label);
    print!("{:<24}", "Benchmark");
    for label in labels.iter().chain(KNOBS.iter().map(|(l, _)| l)) {
        print!(" {label:>10}");
    }
    println!();
    for b in args.benchmarks() {
        let inputs = b.make_inputs(42);
        let opt = CompileOptions::optimized(b.params());
        let schedules = Schedule::ALL.map(|schedule| CompileOptions {
            schedule,
            ..opt.clone()
        });
        let knobs = KNOBS.map(|(_, knob)| knob(opt.clone()));
        print!("{:<24}", b.name());
        for opts in schedules.iter().chain(&knobs) {
            let compiled = session
                .compile(b.pipeline(), opts)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            let t = time_program(session.engine(), &compiled, &inputs, threads, args.runs);
            print!(" {:>10}", ms(t));
        }
        println!();
    }
}
