//! Persistent-engine throughput: frames/sec on a reused [`Engine`]
//! (pooled workers, recycled buffers, dynamic strip scheduling) vs
//! spawning a fresh engine per frame. Harris and Unsharp at Small scale —
//! the two single-group stencil apps where per-frame fixed costs are most
//! visible. Numbers go into EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polymage_apps::{harris::HarrisCorner, unsharp::Unsharp, Benchmark, Scale};
use polymage_core::{compile, CompileOptions};
use polymage_diag::Diag;
use polymage_vm::{Engine, RunRequest};

fn bench_engine_reuse(c: &mut Criterion) {
    // Tiny frames are fixed-cost dominated (spawn/alloc overhead visible);
    // Small frames are compute dominated (overhead amortizes).
    let apps: Vec<(Box<dyn Benchmark>, &str)> = vec![
        (Box::new(HarrisCorner::new(Scale::Tiny)), "tiny"),
        (Box::new(Unsharp::new(Scale::Tiny)), "tiny"),
        (Box::new(HarrisCorner::new(Scale::Small)), "small"),
        (Box::new(Unsharp::new(Scale::Small)), "small"),
    ];
    let threads = 2;
    let engine = Engine::with_threads(threads);
    for (b, scale) in &apps {
        let inputs = b.make_inputs(42);
        let compiled = compile(b.pipeline(), &CompileOptions::optimized(b.params()))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let mut g = c.benchmark_group(format!("engine_{}_{scale}", b.name().replace(' ', "_")));
        g.sample_size(20);
        g.bench_function(BenchmarkId::from_parameter("reused-engine"), |bench| {
            bench.iter(|| {
                engine
                    .submit(RunRequest::new(&compiled.program, &inputs).threads(threads))
                    .unwrap()
                    .join()
                    .unwrap()
            })
        });
        g.bench_function(BenchmarkId::from_parameter("fresh-spawn"), |bench| {
            bench.iter(|| {
                Engine::with_threads(threads)
                    .submit(RunRequest::new(&compiled.program, &inputs))
                    .unwrap()
                    .join()
                    .unwrap()
            })
        });
        g.finish();
    }
}

/// Pins the diagnostics layer's hot-path cost: the same traced run with the
/// no-op sink must stay within noise (<2%) of the untraced path, and the
/// recording sink shows what full tracing costs. Numbers go into
/// EXPERIMENTS.md §PR3.
fn bench_diag_overhead(c: &mut Criterion) {
    let b = HarrisCorner::new(Scale::Small);
    let inputs = b.make_inputs(42);
    let compiled = compile(b.pipeline(), &CompileOptions::optimized(b.params()))
        .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
    let threads = 2;
    let engine = Engine::with_threads(threads);
    let mut g = c.benchmark_group("diag_overhead_Harris_small");
    g.sample_size(20);
    g.bench_function(BenchmarkId::from_parameter("untraced"), |bench| {
        bench.iter(|| {
            engine
                .submit(RunRequest::new(&compiled.program, &inputs).threads(threads))
                .unwrap()
                .join()
                .unwrap()
        })
    });
    let noop = Diag::noop();
    g.bench_function(BenchmarkId::from_parameter("diag-noop"), |bench| {
        bench.iter(|| {
            engine
                .submit(
                    RunRequest::new(&compiled.program, &inputs)
                        .threads(threads)
                        .trace(&noop),
                )
                .unwrap()
                .join_stats()
                .unwrap()
        })
    });
    let rec = Diag::recorder();
    g.bench_function(BenchmarkId::from_parameter("diag-recording"), |bench| {
        bench.iter(|| {
            engine
                .submit(
                    RunRequest::new(&compiled.program, &inputs)
                        .threads(threads)
                        .trace(&rec),
                )
                .unwrap()
                .join_stats()
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine_reuse, bench_diag_overhead);
criterion_main!(benches);
