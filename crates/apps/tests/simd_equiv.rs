//! SIMD-backend equivalence on the real benchmark apps: for every
//! benchmark under {base, opt} schedules, every available SIMD level must
//! produce **bit-identical** outputs to the forced-scalar loops, across
//! thread counts — the backend's whole catalog (arithmetic, min/max,
//! comparisons, masks, select, round/saturate casts, strided gathers,
//! chunk stores) is restricted to bit-exact lane sequences.

use polymage_apps::{all_benchmarks, Scale};
use polymage_core::{compile, CompileOptions, SimdLevel, SimdOpt};
use polymage_vm::{Engine, RunRequest};

fn bits(bufs: &[polymage_vm::Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn as_opt(level: SimdLevel) -> SimdOpt {
    match level {
        SimdLevel::Scalar => SimdOpt::Off,
        SimdLevel::Sse2 => SimdOpt::Sse2,
        SimdLevel::Avx2 => SimdOpt::Avx2,
        SimdLevel::Neon => SimdOpt::Neon,
    }
}

#[test]
fn simd_bit_exact_all_benchmarks_all_schedules() {
    // A POLYMAGE_SIMD override wins over `with_simd`, forcing every
    // compile to the same level and making the comparison vacuous —
    // skip rather than mislead. Detected by asking for each available
    // level and seeing whether it sticks.
    let forced = polymage_vm::available_simd_levels()
        .into_iter()
        .any(|l| polymage_vm::resolve_simd(as_opt(l)) != l);
    if forced {
        eprintln!("skipped: POLYMAGE_SIMD overrides per-compile levels");
        return;
    }
    let engine = Engine::with_threads(4);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        let schedules = [
            ("base", CompileOptions::base(b.params())),
            ("opt", CompileOptions::optimized(b.params())),
        ];
        for (label, opts) in schedules {
            let scalar = opts.clone().with_simd(SimdOpt::Off);
            let c_scalar =
                compile(b.pipeline(), &scalar).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(c_scalar.report.simd, SimdLevel::Scalar);
            let want: Vec<_> = [1usize, 2, 4]
                .map(|threads| {
                    bits(
                        &engine
                            .submit(RunRequest::new(&c_scalar.program, &inputs).threads(threads))
                            .and_then(|h| h.join())
                            .unwrap_or_else(|e| panic!("{}: {e}", b.name())),
                    )
                })
                .into_iter()
                .collect();
            for level in polymage_vm::available_simd_levels() {
                let c = compile(b.pipeline(), &opts.clone().with_simd(as_opt(level)))
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
                assert_eq!(c.report.simd, level);
                for (ti, threads) in [1usize, 2, 4].into_iter().enumerate() {
                    let got = bits(
                        &engine
                            .submit(RunRequest::new(&c.program, &inputs).threads(threads))
                            .and_then(|h| h.join())
                            .unwrap_or_else(|e| panic!("{}: {e}", b.name())),
                    );
                    assert_eq!(
                        want[ti],
                        got,
                        "{}: SIMD level {level} changed output bits ({label}, threads {threads})",
                        b.name()
                    );
                }
            }
        }
    }
}

/// Index-pipeline coverage as a count: on the two applications whose
/// indexed accesses all have provable ranges — Bilateral Grid (trilinear
/// gathers, two reduction scatters) and Camera (LUT gathers, demosaic
/// floor-division) — every indexed lane goes through the vector pipeline
/// at a vector level and through the scalar walk at the scalar level, and
/// one thread counts the same lanes as three. (Under a `POLYMAGE_SIMD` override both compiles resolve to the same
/// level, and the matching half of the assertion is checked twice.)
#[test]
fn indexed_lanes_are_all_vector_or_all_scalar() {
    let engine = Engine::with_threads(3);
    for b in all_benchmarks(Scale::Tiny) {
        if !["Bilateral Grid", "Camera Pipeline"].contains(&b.name()) {
            continue;
        }
        let inputs = b.make_inputs(42);
        for simd in [SimdOpt::Auto, SimdOpt::Off] {
            let opts = CompileOptions::optimized(b.params()).with_simd(simd);
            let c = compile(b.pipeline(), &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            let mut first: Option<(u64, u64)> = None;
            for threads in [1usize, 3] {
                let (_, stats) = engine
                    .submit(RunRequest::new(&c.program, &inputs).threads(threads))
                    .and_then(|h| h.join_stats())
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
                let (vector, scalar) = (stats.index_lanes_vector, stats.index_lanes_scalar);
                assert!(vector + scalar > 0, "{}: no indexed lanes", b.name());
                if c.report.simd == SimdLevel::Scalar {
                    assert_eq!(vector, 0, "{}: vector lanes at the scalar level", b.name());
                } else {
                    assert_eq!(
                        scalar,
                        0,
                        "{}: {scalar} of {} indexed lanes fell back to the scalar walk at {}",
                        b.name(),
                        vector + scalar,
                        c.report.simd
                    );
                }
                // Every reduction sweeps as an engine task, so the thread
                // count changes how the domain is split, not what is counted.
                let pair = *first.get_or_insert((vector, scalar));
                assert_eq!(
                    (vector, scalar),
                    pair,
                    "{}: indexed lanes at {threads} threads differ from 1 thread",
                    b.name()
                );
            }
        }
    }
}
