//! Reproduces **Figure 10**: for each benchmark, the speedup of every
//! configuration — PolyMage(base), (base+vec), (opt), (opt+vec) — over
//! PolyMage(base) on one thread, across thread counts.
//!
//! The paper plots bars for 1/2/4/8/16 cores; pass `--threads 1,2,4,8,16`
//! on a many-core host. On a single-core host the thread series is flat and
//! the interesting axes are ±vec and base→opt (locality), which this
//! harness still reproduces.

use polymage_bench::{compile_config, config_label, time_program, HarnessArgs};
use polymage_core::{Schedule, Session};
use polymage_vm::EvalMode;

fn main() {
    let args = HarnessArgs::parse();
    let session = Session::with_threads(args.threads.iter().copied().max().unwrap_or(1));
    let engine = session.engine();
    println!(
        "Figure 10 — speedups over PolyMage(base) @ 1 thread; scale {:?}, runs {}",
        args.scale, args.runs
    );
    for b in args.benchmarks() {
        println!("\n--- {} ---", b.name());
        let inputs = b.make_inputs(42);
        let base = compile_config(&session, b.as_ref(), Schedule::Base, EvalMode::Scalar);
        let t0 = time_program(engine, &base, &inputs, 1, args.runs).as_secs_f64();
        print!("{:<22}", "config \\ threads");
        for t in &args.threads {
            print!("{t:>9}");
        }
        println!();
        for schedule in [Schedule::Base, Schedule::Opt] {
            for mode in [EvalMode::Scalar, EvalMode::Vector] {
                let compiled = compile_config(&session, b.as_ref(), schedule, mode);
                print!("{:<22}", config_label(schedule, mode));
                for &t in &args.threads {
                    let d = time_program(engine, &compiled, &inputs, t, args.runs).as_secs_f64();
                    print!("{:>8.2}x", t0 / d);
                }
                println!();
            }
        }
    }
}
