//! Liveness-driven storage folding on the real benchmark pipelines: for
//! every app, every schedule, and every thread count, `storage_fold` on
//! must be **bit identical** to off — and on the deep pipelines (Pyramid
//! Blending, Local Laplacian) it must measurably shrink both the
//! per-worker scratch arena and the peak of concurrently resident full
//! buffers (early release after each buffer's last consumer group).

use polymage_apps::{all_benchmarks, Scale};
use polymage_core::{compile, CompileOptions};
use polymage_vm::{Engine, RunRequest};

fn bits(bufs: &[polymage_vm::Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn fold_on_off_bit_identical_all_benchmarks() {
    let engine = Engine::with_threads(4);
    let single = Engine::with_threads(1);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        for base in [
            CompileOptions::optimized(b.params()),
            CompileOptions::base(b.params()),
        ] {
            let c_on = compile(b.pipeline(), &base.clone().with_storage_fold(true))
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            let c_off = compile(b.pipeline(), &base.clone().with_storage_fold(false))
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(
                c_on.program.arena_bytes() <= c_off.program.arena_bytes(),
                "{}: folding grew the scratch arena",
                b.name()
            );
            // Per thread count (reduction merge order is thread-count
            // specific): the unfolded program on a single worker is the
            // oracle; the 4-worker engine must match it exactly with
            // folding on and off.
            for nthreads in [1usize, 2, 4] {
                let oracle = single
                    .submit(RunRequest::new(&c_off.program, &inputs).threads(nthreads))
                    .and_then(|h| h.join())
                    .unwrap_or_else(|e| panic!("{}: oracle: {e}", b.name()));
                for (label, prog) in [("fold on", &c_on.program), ("fold off", &c_off.program)] {
                    let got = engine
                        .submit(RunRequest::new(prog, &inputs).threads(nthreads))
                        .and_then(|h| h.join())
                        .unwrap_or_else(|e| panic!("{}: {label}: {e}", b.name()));
                    assert_eq!(
                        bits(&oracle),
                        bits(&got),
                        "{}: {label} differs from unfolded oracle \
                         (threads {nthreads}, schedule {})",
                        b.name(),
                        base.schedule.label()
                    );
                }
            }
        }
    }
}

#[test]
fn deep_pipelines_fold_and_release_early() {
    let engine = Engine::with_threads(4);
    for name in ["Pyramid Blending", "Local Laplacian"] {
        let b = all_benchmarks(Scale::Tiny)
            .into_iter()
            .find(|b| b.name() == name)
            .expect("benchmark present");
        let inputs = b.make_inputs(7);
        let on = compile(
            b.pipeline(),
            &CompileOptions::optimized(b.params()).with_storage_fold(true),
        )
        .unwrap();
        let off = compile(
            b.pipeline(),
            &CompileOptions::optimized(b.params()).with_storage_fold(false),
        )
        .unwrap();

        // Estimated peaks: narrowing lifetimes can only help.
        assert!(
            on.report.peak_full_bytes <= off.report.peak_full_bytes,
            "{name}: folding raised the estimated peak"
        );
        assert!(
            on.report.peak_full_bytes < off.report.peak_full_bytes,
            "{name}: a ≥37-stage pipeline must release something early \
             (peak {} vs {})",
            on.report.peak_full_bytes,
            off.report.peak_full_bytes
        );

        // Measured per-run accounting from the engine.
        let (_, s_on) = engine
            .submit(RunRequest::new(&on.program, &inputs))
            .unwrap()
            .join_stats()
            .unwrap();
        let (_, s_off) = engine
            .submit(RunRequest::new(&off.program, &inputs))
            .unwrap()
            .join_stats()
            .unwrap();
        assert!(
            s_on.early_releases > 0,
            "{name}: no buffer was released before run end"
        );
        assert_eq!(s_off.early_releases, 0, "{name}: fold-off must not release");
        assert!(
            s_on.peak_full_bytes < s_off.peak_full_bytes,
            "{name}: measured peak {} (fold on) not below {} (fold off)",
            s_on.peak_full_bytes,
            s_off.peak_full_bytes
        );
        assert_eq!(
            s_on.peak_full_bytes as usize, on.report.peak_full_bytes,
            "{name}: compiler peak estimate disagrees with the engine"
        );
    }
}
