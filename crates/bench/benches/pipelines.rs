//! Criterion benches: one group per paper benchmark, measuring the four
//! Fig. 10 configurations at Tiny scale (fast, CI-friendly). The printed
//! table/figure harnesses in `src/bin/` run the paper-scale sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polymage_apps::{all_benchmarks, Scale};
use polymage_bench::{compile_config, config_label};
use polymage_core::{Schedule, Session};
use polymage_vm::EvalMode;

fn bench_pipelines(c: &mut Criterion) {
    let session = Session::with_threads(1);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        let mut g = c.benchmark_group(b.name().replace(' ', "_"));
        g.sample_size(10);
        for schedule in [Schedule::Base, Schedule::Opt] {
            for mode in [EvalMode::Scalar, EvalMode::Vector] {
                let compiled = compile_config(&session, b.as_ref(), schedule, mode);
                let id = BenchmarkId::from_parameter(config_label(schedule, mode));
                g.bench_function(id, |bench| {
                    bench.iter(|| session.run_compiled(&compiled, &inputs).unwrap())
                });
            }
        }
        // the library-style reference for comparison (Table 2's OpenCV column)
        g.bench_function(BenchmarkId::from_parameter("library-reference"), |bench| {
            bench.iter(|| b.reference(&inputs))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
