//! Kernel-optimizer equivalence on the real benchmark apps: for every
//! benchmark under {base, opt, opt+vec}, the optimized program must produce
//! **bit-identical** outputs to the reference interpreter at the same
//! thread count — the optimizer's whole rewrite catalog is restricted to
//! bit-exact f32 transformations. Also pins down that the optimizer
//! actually *does* something on every multi-stage app: nonzero
//! folded/simplified ops and specialized (non-gather) loads.

use polymage_apps::{all_benchmarks, Scale};
use polymage_core::interp::interpret;
use polymage_core::{compile, CompileOptions};
use polymage_vm::{Engine, EvalMode, RunRequest};

fn bits(bufs: &[polymage_vm::Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn kernel_opt_bit_exact_all_benchmarks_all_schedules() {
    let engine = Engine::with_threads(3);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        let schedules = [
            (
                "base",
                CompileOptions::base(b.params()).with_mode(EvalMode::Scalar),
            ),
            (
                "opt",
                CompileOptions::optimized(b.params()).with_mode(EvalMode::Scalar),
            ),
            ("opt+vec", CompileOptions::optimized(b.params())),
        ];
        let oracles = [1usize, 3].map(|threads| {
            let want = interpret(b.pipeline(), &b.params(), &inputs, threads)
                .unwrap_or_else(|e| panic!("{}: interpreter: {e}", b.name()));
            (threads, bits(&want))
        });
        for (label, opts) in schedules {
            let c = compile(b.pipeline(), &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            for (threads, want) in &oracles {
                let got = engine
                    .submit(RunRequest::new(&c.program, &inputs).threads(*threads))
                    .and_then(|h| h.join())
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
                assert_eq!(
                    *want,
                    bits(&got),
                    "{}: the optimized program differs from the interpreter \
                     ({label}, threads {threads})",
                    b.name()
                );
            }
        }
    }
}

#[test]
fn optimizer_report_is_nontrivial_on_every_app() {
    for b in all_benchmarks(Scale::Tiny) {
        let compiled = compile(b.pipeline(), &CompileOptions::optimized(b.params()))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let r = &compiled.report;
        assert!(
            !r.kernels.is_empty(),
            "{}: optimizer produced no kernel reports",
            b.name()
        );
        let folded: usize = r.kernels.iter().map(|k| k.folded).sum();
        let simplified: usize = r.kernels.iter().map(|k| k.simplified).sum();
        assert!(
            folded + simplified > 0 && r.ops_eliminated() > 0,
            "{}: no ops folded/simplified/eliminated (folded {folded}, \
             simplified {simplified}, eliminated {})",
            b.name(),
            r.ops_eliminated()
        );
        let h = r.load_histogram();
        assert!(
            h.broadcast + h.contiguous + h.strided > 0,
            "{}: no specialized loads (histogram [{h}])",
            b.name()
        );
        // Uniform-op hoisting finds chunk-invariant work on every app.
        assert!(
            r.kernels.iter().any(|k| k.uniform_ops > 0),
            "{}: no chunk-invariant ops found",
            b.name()
        );
    }
}
