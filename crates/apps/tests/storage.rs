//! Liveness-driven storage folding on the real benchmark pipelines: for
//! every app, every schedule, and every thread count, the folded program
//! must be **bit identical** to the reference interpreter at that thread
//! count — and on the deep pipelines (Pyramid Blending, Local Laplacian)
//! it must measurably shrink both the per-worker scratch arena and the
//! peak of concurrently resident full buffers (early release after each
//! buffer's last consumer group) below what holding every buffer for the
//! whole run would take.

use polymage_apps::{all_benchmarks, Scale};
use polymage_core::interp::interpret;
use polymage_core::{compile, CompileOptions};
use polymage_vm::{Engine, GroupKind, Program, RunRequest, ScratchSlots};

fn bits(bufs: &[polymage_vm::Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The per-worker arena with one private slot per scratchpad.
fn unfolded_arena_bytes(prog: &Program) -> usize {
    prog.groups
        .iter()
        .map(|g| match &g.kind {
            GroupKind::Tiled(tg) => ScratchSlots::unfolded(&tg.stages, &prog.buffers).arena_bytes(),
            _ => 0,
        })
        .sum()
}

#[test]
fn folded_programs_bit_identical_all_benchmarks() {
    let engine = Engine::with_threads(4);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        // Per thread count (reduction merge order is thread-count
        // specific): the interpreter at that count is the oracle. Only 3
        // splits Bilateral Grid's rows inside its 8-row grid cells here.
        let oracles = [1usize, 2, 3, 4].map(|nthreads| {
            let want = interpret(b.pipeline(), &b.params(), &inputs, nthreads)
                .unwrap_or_else(|e| panic!("{}: oracle: {e}", b.name()));
            (nthreads, bits(&want))
        });
        for opts in [
            CompileOptions::optimized(b.params()),
            CompileOptions::base(b.params()),
        ] {
            let c = compile(b.pipeline(), &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(
                c.program.arena_bytes() <= unfolded_arena_bytes(&c.program),
                "{}: folding grew the scratch arena",
                b.name()
            );
            for (nthreads, oracle) in &oracles {
                let got = engine
                    .submit(RunRequest::new(&c.program, &inputs).threads(*nthreads))
                    .and_then(|h| h.join())
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
                assert_eq!(
                    *oracle,
                    bits(&got),
                    "{}: folded program differs from the interpreter \
                     (threads {nthreads}, schedule {})",
                    b.name(),
                    opts.schedule.label()
                );
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
        let on = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
        // What a run-scoped plan holds: every full buffer, inputs included,
        // from submission to completion.
        let all_full = on.program.full_bytes();

        // Estimated peaks: narrowing lifetimes can only help.
        assert!(
            on.report.peak_full_bytes <= all_full,
            "{name}: folding raised the estimated peak"
        );
        assert!(
            on.report.peak_full_bytes < all_full,
            "{name}: a ≥37-stage pipeline must release something early \
             (peak {} vs {all_full})",
            on.report.peak_full_bytes,
        );
        // Scratch folding shrinks the arena below one private scratchpad
        // per stage.
        let unfolded: usize = on.report.groups.iter().map(|g| g.scratch_bytes).sum();
        assert!(
            on.program.arena_bytes() < unfolded,
            "{name}: arena {} not below the unfolded {unfolded} bytes",
            on.program.arena_bytes()
        );

        // Measured per-run accounting from the engine.
        let (_, s_on) = engine
            .submit(RunRequest::new(&on.program, &inputs))
            .unwrap()
            .join_stats()
            .unwrap();
        assert!(
            s_on.early_releases > 0,
            "{name}: no buffer was released before run end"
        );
        assert!(
            (s_on.peak_full_bytes as usize) < all_full,
            "{name}: measured peak {} not below {all_full} (every full buffer)",
            s_on.peak_full_bytes,
        );
        assert_eq!(
            s_on.peak_full_bytes as usize, on.report.peak_full_bytes,
            "{name}: compiler peak estimate disagrees with the engine"
        );
    }
}
