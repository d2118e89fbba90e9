//! Reproduces **Table 2**: per-benchmark stage counts, image sizes,
//! PolyMage (opt+vec) execution times across core counts, the library
//! baseline time, and speedups of the optimized schedule over the base
//! schedule and the library baseline.
//!
//! The paper's columns compare against Halide schedules (H-tuned,
//! OpenTuner); our comparators are the configurations we can build
//! faithfully: the paper's own "base" schedule and the unfused
//! library-style reference (the OpenCV stand-in). See EXPERIMENTS.md for
//! the mapping.

use polymage_bench::{compile_config, ms, time_program, time_reference, HarnessArgs};
use polymage_core::{emit_c, Schedule, Session};
use polymage_vm::EvalMode;

fn main() {
    let args = HarnessArgs::parse();
    let threads = &args.threads;
    // One session for the whole table: the worker pool persists across
    // benchmarks and the compile cache deduplicates repeated configs.
    let session = Session::with_threads(threads.iter().copied().max().unwrap_or(1));
    let engine = session.engine();
    println!(
        "Table 2 — scale {:?}, runs {} (mean after 1 warm-up), threads {:?}",
        args.scale, args.runs, threads
    );
    println!(
        "{:<24} {:>6} {:>8} {:>14} {:>30} {:>12} {:>12} {:>10}",
        "Benchmark",
        "Stages",
        "C-lines",
        "Image",
        format!("opt+vec ms @ {threads:?}"),
        "library ms",
        "vs base",
        "vs lib"
    );
    for b in args.benchmarks() {
        let stages = b.pipeline().funcs().len();
        let params = b.params();
        let size = params
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("×");
        let inputs = b.make_inputs(42);

        let opt = if args.tune {
            let (compiled, tiles) = polymage_bench::tune_config(
                &session,
                b.as_ref(),
                &inputs,
                *threads.iter().max().unwrap(),
                1,
            );
            eprintln!("{}: tuned tiles {tiles:?}", b.name());
            compiled
        } else {
            compile_config(&session, b.as_ref(), Schedule::Opt, EvalMode::Vector)
        };
        // the paper reports spec-vs-generated code sizes ("our 86 line
        // input code was transformed to 732 lines of C++"): count the C
        // this schedule emits, tile tables included
        let c_lines = emit_c(&opt.program).lines().count();
        let times: Vec<String> = threads
            .iter()
            .map(|&t| ms(time_program(engine, &opt, &inputs, t, args.runs)))
            .collect();
        let t_opt_max = time_program(
            engine,
            &opt,
            &inputs,
            *threads.iter().max().unwrap(),
            args.runs,
        );

        let base = compile_config(&session, b.as_ref(), Schedule::Base, EvalMode::Scalar);
        let t_base = time_program(
            engine,
            &base,
            &inputs,
            *threads.iter().max().unwrap(),
            args.runs,
        );

        let t_lib = time_reference(b.as_ref(), &inputs, args.runs);

        println!(
            "{:<24} {:>6} {:>8} {:>14} {:>30} {:>12} {:>11.2}x {:>9.2}x",
            b.name(),
            stages,
            c_lines,
            size,
            times.join(" / "),
            ms(t_lib),
            t_base.as_secs_f64() / t_opt_max.as_secs_f64(),
            t_lib.as_secs_f64() / t_opt_max.as_secs_f64(),
        );
    }
}
