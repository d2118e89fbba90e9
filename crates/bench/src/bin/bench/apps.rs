//! The seven applications as the benchmark sees them: how to build one at a
//! size, how to run it once through the public surface, and how to tell a
//! right output from a wrong one.

use crate::watchdog::Watchdog;
use polymage_apps::{
    bilateral::BilateralGrid, camera::CameraPipe, harris::HarrisCorner,
    interpolate::MultiscaleInterp, laplacian::LocalLaplacian, pyramid::PyramidBlend,
    unsharp::Unsharp, Benchmark,
};
use polymage_core::{instantiate, plan, CacheStats, CompileOptions, Compiled, Session};
use polymage_vm::{Buffer, Engine, PoolStats, RunRequest, RunStats};
use std::sync::Arc;
use std::time::Instant;

pub type Size = (i64, i64);

pub struct AppSpec {
    pub slug: &'static str,
    pub build: fn(Size) -> Box<dyn Benchmark>,
    /// The frame workloads' size: a quarter of the paper's linear size, so
    /// a frame takes milliseconds, not seconds, on two cores.
    pub small: Size,
    /// `cold-start`'s size (and `--smoke`'s).
    pub tiny: Size,
}

/// Small enough that compiling, not running, is most of a cold start, and
/// a multiple of 2⁵ so every application accepts it (pyramids need
/// divisibility by `2^levels`, the camera mosaic even sizes).
const TINY: Size = (32, 32);

/// Indexed like `metrics::APP_SLUGS`. The sizes are the benchmark's own: a
/// change to the apps crate's size table must not move the baseline.
pub const APPS: [AppSpec; 7] = [
    AppSpec {
        slug: "unsharp",
        build: |(r, c)| Box::new(Unsharp::with_size(r, c)),
        small: (512, 512),
        tiny: TINY,
    },
    AppSpec {
        slug: "bilateral",
        build: |(r, c)| Box::new(BilateralGrid::with_size(r, c)),
        small: (640, 384),
        tiny: TINY,
    },
    AppSpec {
        slug: "harris",
        build: |(r, c)| Box::new(HarrisCorner::with_size(r, c)),
        small: (1600, 1600),
        tiny: TINY,
    },
    AppSpec {
        slug: "camera",
        build: |(r, c)| Box::new(CameraPipe::with_size(r, c)),
        small: (632, 480),
        tiny: TINY,
    },
    AppSpec {
        slug: "pyramid",
        build: |(r, c)| Box::new(PyramidBlend::with_size(r, c)),
        small: (512, 512),
        tiny: TINY,
    },
    AppSpec {
        slug: "interpolate",
        build: |(r, c)| Box::new(MultiscaleInterp::with_size(r, c)),
        small: (640, 384),
        // Five pyramid levels: 32 would leave a 1×1 top level, a degenerate
        // image whose plan alone takes five times longer than any other.
        tiny: (64, 64),
    },
    AppSpec {
        slug: "laplacian",
        build: |(r, c)| Box::new(LocalLaplacian::with_size(r, c)),
        small: (640, 384),
        tiny: TINY,
    },
];

pub fn spec(slug: &str) -> &'static AppSpec {
    APPS.iter()
        .find(|a| a.slug == slug)
        .unwrap_or_else(|| panic!("no application `{slug}`"))
}

impl Instance {
    pub fn size(&self) -> Size {
        let p = self.app.params();
        (p[0], p[1])
    }
}

impl AppSpec {
    pub fn size(&self, smoke: bool) -> Size {
        if smoke {
            self.tiny
        } else {
            self.small
        }
    }
}

/// A 64-bit checksum over the bit patterns of every output, in order.
pub fn checksum(outputs: &[Buffer]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in outputs {
        h = (h ^ b.data.len() as u64).wrapping_mul(0x0000_0100_0000_01B3);
        for v in &b.data {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Compares compiled outputs with the hand-written library reference under
/// the application's own tolerance, as the repository's correctness tests
/// do.
pub fn close_to_reference(got: &[Buffer], want: &[Buffer], tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} outputs, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (o, (g, w)) in got.iter().zip(want).enumerate() {
        if g.rect != w.rect {
            return Err(format!(
                "output {o}: shape {} vs reference {}",
                g.rect, w.rect
            ));
        }
        // A NaN is never within tolerance.
        let within = |a: f32, b: f32| (a - b).abs() <= tol + tol * b.abs();
        if let Some(i) = g
            .data
            .iter()
            .zip(&w.data)
            .position(|(a, b)| !within(*a, *b))
        {
            return Err(format!(
                "output {o} element {i}: compiled {} vs reference {}",
                g.data[i], w.data[i]
            ));
        }
    }
    Ok(())
}

/// Where one pass through the public surface spent its time: the instants
/// between `Session::compile`, `Engine::submit` and `RunHandle::join_stats`.
pub struct RunTrace {
    pub start: Instant,
    pub compiled_at: Instant,
    pub submitted_at: Instant,
    pub done: Instant,
    pub stats: RunStats,
}

/// A session (with its engine) and the watchdog its joins go through.
pub struct Runner {
    pub session: Session,
    pub watchdog: Watchdog,
}

impl Runner {
    /// The session's cache counters and the engine's pool counters, to be
    /// read before and after a pass.
    pub fn counters(&self) -> (CacheStats, PoolStats) {
        (
            self.session.cache_stats(),
            self.session.engine().pool_stats(),
        )
    }

    pub fn new(workers: usize) -> Result<Runner, String> {
        Runner::with_engine(Engine::with_threads(workers))
    }

    /// Wraps `engine` and primes the watchdog with its first token.
    ///
    /// The watchdog rescues a stalled join with the token of a completed
    /// run, so the first join of an engine has nothing to be rescued with.
    /// The priming run cannot stall: it is joined only after it has
    /// certainly finished, when no worker scans it any more. It is bound by
    /// `plan` + `instantiate` directly, so the session's cache never sees it.
    pub fn with_engine(engine: Engine) -> Result<Runner, String> {
        let runner = Runner {
            session: Session::with_engine(engine),
            watchdog: Watchdog::new(),
        };
        let app = (APPS[0].build)(TINY);
        let opts = CompileOptions::optimized(app.params());
        let compiled = plan(app.pipeline(), &opts)
            .and_then(|p| instantiate(&p, &opts.params))
            .map_err(|e| format!("priming run: {e}"))?;
        let handle = runner
            .session
            .engine()
            .submit(RunRequest::new(&compiled.program, &app.make_inputs(0)).threads(1))
            .map_err(|e| format!("priming run: {e}"))?;
        // Far longer than the run takes (about 0.2 ms).
        std::thread::sleep(std::time::Duration::from_millis(20));
        runner
            .watchdog
            .join(handle)
            .0
            .map_err(|e| format!("priming run: {e}"))?;
        Ok(runner)
    }
}

/// Compiles (through the session's cache), submits and joins one run. With
/// `group_stats` the engine also records per-group wall times — the traced
/// pass; the measured pass leaves it off.
pub fn run_once(
    runner: &Runner,
    app: &dyn Benchmark,
    opts: &CompileOptions,
    inputs: &[Buffer],
    threads: usize,
    group_stats: bool,
) -> Result<(Vec<Buffer>, RunTrace), String> {
    let start = Instant::now();
    let compiled = runner
        .session
        .compile(app.pipeline(), opts)
        .map_err(|e| format!("{}: compile: {e}", app.name()))?;
    let compiled_at = Instant::now();
    let handle = runner
        .session
        .engine()
        .submit(
            RunRequest::new(&compiled.program, inputs)
                .threads(threads)
                .group_stats(group_stats),
        )
        .map_err(|e| format!("{}: submit: {e}", app.name()))?;
    let submitted_at = Instant::now();
    let (out, stats) = runner.watchdog.join(handle);
    let done = Instant::now();
    let out = out.map_err(|e| format!("{}: run: {e}", app.name()))?;
    let trace = RunTrace {
        start,
        compiled_at,
        submitted_at,
        done,
        stats,
    };
    Ok((out, trace))
}

/// One application at one size, ready to run: built, inputs generated from
/// the seed, and — per thread count in `thread_counts` — the checksum of an
/// output that was verified against the library reference.
pub struct Instance {
    pub spec: &'static AppSpec,
    pub app: Box<dyn Benchmark>,
    pub opts: CompileOptions,
    pub inputs: Vec<Buffer>,
    /// The bound program, for callers that submit without `Session::compile`.
    pub compiled: Arc<Compiled>,
    /// Checksums parallel to the `thread_counts` given to [`prepare`].
    /// Reductions chunk by the requested thread count, so outputs are
    /// bit-identical per thread count, not across them.
    pub sums: Vec<u64>,
    /// Bytes of live-ins plus live-outs: the least any schedule must move.
    pub io_bytes: u64,
    /// What the library reference took on these inputs during set-up.
    pub lib_ms: f64,
}

/// Builds, compiles and verifies one application at `size`. `estimates`
/// pins the plan's parameter estimates (so other sizes share the plan);
/// `None` plans for `size` itself.
pub fn prepare(
    runner: &Runner,
    spec: &'static AppSpec,
    size: Size,
    estimates: Option<Size>,
    seed: u64,
    thread_counts: &[usize],
) -> Result<Instance, String> {
    let app = (spec.build)(size);
    let mut opts = CompileOptions::optimized(app.params());
    if let Some((r, c)) = estimates {
        opts = opts.with_estimates(vec![r, c]);
    }
    let inputs = app.make_inputs(seed);
    let t = Instant::now();
    let reference = app.reference(&inputs);
    let lib_ms = t.elapsed().as_secs_f64() * 1e3;
    let compiled = runner
        .session
        .compile(app.pipeline(), &opts)
        .map_err(|e| format!("{} {size:?}: compile: {e}", spec.slug))?;
    let mut sums = Vec::new();
    for &threads in thread_counts {
        let (out, _) = run_once(runner, app.as_ref(), &opts, &inputs, threads, false)?;
        close_to_reference(&out, &reference, app.tolerance())
            .map_err(|e| format!("{} {size:?} threads {threads}: {e}", spec.slug))?;
        sums.push(checksum(&out));
    }
    let elems: usize = inputs.iter().chain(&reference).map(|b| b.data.len()).sum();
    Ok(Instance {
        spec,
        app,
        opts,
        inputs,
        compiled,
        sums,
        io_bytes: 4 * elems as u64,
        lib_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_order_matches_the_metric_slugs() {
        let slugs: Vec<&str> = APPS.iter().map(|a| a.slug).collect();
        assert_eq!(slugs, crate::metrics::APP_SLUGS);
    }

    #[test]
    fn checksum_sees_a_single_flipped_bit() {
        let app = (spec("unsharp").build)((48, 56));
        let inputs = app.make_inputs(3);
        let mut other = inputs.clone();
        other[0].data[17] = f32::from_bits(other[0].data[17].to_bits() ^ 1);
        assert_eq!(checksum(&inputs), checksum(&inputs.clone()));
        assert_ne!(checksum(&inputs), checksum(&other));
    }

    #[test]
    fn reference_comparison_rejects_nan_and_drift() {
        let app = (spec("harris").build)((60, 68));
        let want = app.reference(&app.make_inputs(1));
        assert!(close_to_reference(&want, &want, 1e-3).is_ok());
        let mut drift = want.clone();
        drift[0].data[5] += 1.0;
        assert!(close_to_reference(&drift, &want, 1e-3).is_err());
        let mut nan = want.clone();
        nan[0].data[5] = f32::NAN;
        assert!(close_to_reference(&nan, &want, 1e-3).is_err());
    }
}
