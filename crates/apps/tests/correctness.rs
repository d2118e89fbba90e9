//! Every benchmark's compiled pipeline must agree with its reference
//! implementation (the library-baseline stand-in) at Tiny scale, for both
//! the optimized and base schedules.

use polymage_apps::{all_benchmarks, Scale};
use polymage_core::{compile, CompileOptions, Session};
use polymage_vm::RunRequest;

#[test]
fn compiled_matches_reference_all_benchmarks() {
    let session = Session::with_threads(3);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        let expect = b.reference(&inputs);
        for opts in [
            CompileOptions::optimized(b.params()),
            CompileOptions::base(b.params()),
            CompileOptions::optimized(b.params()).with_tiles(vec![8, 16]),
        ] {
            let compiled = session
                .compile(b.pipeline(), &opts)
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name()));
            for threads in [1, 3] {
                let got = session
                    .engine()
                    .submit(RunRequest::new(&compiled.program, &inputs).threads(threads))
                    .and_then(|h| h.join())
                    .unwrap_or_else(|e| panic!("{}: run failed: {e}", b.name()));
                assert_eq!(got.len(), expect.len(), "{}", b.name());
                let tol = b.tolerance();
                for (o, (g, w)) in got.iter().zip(&expect).enumerate() {
                    assert_eq!(g.rect, w.rect, "{} out {o} shape", b.name());
                    for (i, (a, bb)) in g.data.iter().zip(&w.data).enumerate() {
                        assert!(
                            (a - bb).abs() <= tol + tol * bb.abs(),
                            "{} out {o} elem {i}: compiled {a} vs reference {bb} \
                             (threads {threads})",
                            b.name()
                        );
                    }
                }
            }
        }
    }
}

/// "The generated pipeline is optimized for the parameter values around the
/// estimates. However, the implementation is valid for all parameter
/// sizes" — we recompile per size; every size (including awkward odd ones
/// that stress tile boundaries) must agree with the reference.
#[test]
fn harris_valid_across_sizes() {
    use polymage_apps::harris::HarrisCorner;
    use polymage_apps::Benchmark;
    let session = Session::with_threads(2);
    for (r, c) in [(33, 37), (64, 64), (65, 129), (40, 200), (97, 41)] {
        let app = HarrisCorner::with_size(r, c);
        let inputs = app.make_inputs(11);
        let expect = app.reference(&inputs);
        let got = session
            .run(
                app.pipeline(),
                &CompileOptions::optimized(vec![r, c]),
                &inputs,
            )
            .unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
        assert_eq!(got[0].rect, expect[0].rect, "{r}x{c}");
        for (i, (a, b)) in got[0].data.iter().zip(&expect[0].data).enumerate() {
            assert!(
                (a - b).abs() <= 5e-4 + 5e-4 * b.abs(),
                "{r}x{c} elem {i}: {a} vs {b}"
            );
        }
    }
}

/// The compiled benchmarks also agree with the naive interpreter (a second
/// oracle, independent of the hand-written references), bit for bit.
#[test]
fn camera_matches_interpreter_at_tiny() {
    use polymage_apps::camera::CameraPipe;
    use polymage_apps::{Benchmark, Scale};
    let app = CameraPipe::new(Scale::Tiny);
    let inputs = app.make_inputs(21);
    let session = Session::with_threads(3);
    let expect =
        polymage_core::interp::interpret(app.pipeline(), &app.params(), &inputs, 3).unwrap();
    let got = session
        .run(
            app.pipeline(),
            &CompileOptions::optimized(app.params()),
            &inputs,
        )
        .unwrap();
    for (g, w) in got.iter().zip(&expect) {
        assert_eq!(g.rect, w.rect);
        for (a, b) in g.data.iter().zip(&w.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }
}

/// Every benchmark's compiled program — under several schedules and scales —
/// passes the structural validator (regions ⊆ domains, exact store
/// partitions, strip disjointness, SSA kernels).
#[test]
fn compiled_programs_are_structurally_valid() {
    use polymage_apps::Scale;
    for scale in [Scale::Tiny, Scale::Small] {
        for b in polymage_apps::all_benchmarks(scale) {
            for opts in [
                CompileOptions::optimized(b.params()),
                CompileOptions::base(b.params()),
                CompileOptions::optimized(b.params()).with_tiles(vec![128, 512]),
                CompileOptions::optimized(b.params()).with_threshold(1e-9),
            ] {
                let compiled =
                    compile(b.pipeline(), &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
                polymage_core::assert_valid(&compiled.program);
            }
        }
    }
}
