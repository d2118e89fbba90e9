//! # polymage-bench
//!
//! The measurement harness reproducing every table and figure of the
//! paper's evaluation (§4). Binaries:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2` | Table 2 (per-benchmark execution times and speedups) |
//! | `fig8_grouping` | Fig. 8 (grouping structure found by the compiler) |
//! | `fig9_autotune` | Fig. 9 (autotuning scatter: 1-core vs N-core times) |
//! | `fig10_speedups` | Fig. 10 (speedups of base/opt × ±vec over base) |
//! | `inspect` | compiler reports and emitted C for any benchmark |
//!
//! Criterion micro-benchmarks live in `benches/`.
//!
//! All binaries take `--scale tiny|small|paper` (default `small`) and
//! `--threads a,b,c`. Measurements follow the paper's protocol: one warm-up
//! run is discarded and the mean of the remaining runs is reported.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use polymage_apps::{Benchmark, Scale};
use polymage_core::{CompileOptions, Compiled, Schedule, Session};
use polymage_vm::{Buffer, Engine, EvalMode, RunRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times a compiled program on a persistent [`Engine`]: one discarded
/// warm-up then the mean of `runs`. Reusing one engine across
/// measurements keeps the worker pool and buffer pool warm, so the
/// numbers reflect steady-state frame-loop behavior rather than thread
/// spawn cost.
pub fn time_program(
    engine: &Engine,
    c: &Compiled,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
) -> Duration {
    let run_once = |what: &str| {
        engine
            .submit(RunRequest::new(&c.program, inputs).threads(threads))
            .and_then(|h| h.join())
            .unwrap_or_else(|e| panic!("{what} run: {e}"))
    };
    let _ = run_once("warm-up");
    let start = Instant::now();
    for _ in 0..runs.max(1) {
        let _ = run_once("measured");
    }
    start.elapsed() / runs.max(1) as u32
}

/// Display label of one Fig. 10 configuration (a schedule with or
/// without vectorization), matching the paper: `PolyMage(base)`,
/// `PolyMage(opt+vec)`, …
pub fn config_label(schedule: Schedule, mode: EvalMode) -> String {
    let vec = if mode == EvalMode::Vector { "+vec" } else { "" };
    format!("PolyMage({}{vec})", schedule.label())
}

/// Compiles a benchmark under a schedule and evaluation mode through a
/// [`Session`] (panicking on compile errors — benchmark specifications
/// are known-valid). Repeated calls with the same configuration hit the
/// session's compile cache.
pub fn compile_config(
    session: &Session,
    b: &dyn Benchmark,
    schedule: Schedule,
    mode: EvalMode,
) -> Arc<Compiled> {
    let opts = CompileOptions {
        schedule,
        ..CompileOptions::optimized(b.params()).with_mode(mode)
    };
    session
        .compile(b.pipeline(), &opts)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name()))
}

/// Times the library-style reference implementation (the OpenCV stand-in).
pub fn time_reference(b: &dyn Benchmark, inputs: &[Buffer], runs: usize) -> Duration {
    let _ = b.reference(inputs);
    let start = Instant::now();
    for _ in 0..runs.max(1) {
        let _ = b.reference(inputs);
    }
    start.elapsed() / runs.max(1) as u32
}

/// Common command-line options for harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Workload scale.
    pub scale: Scale,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Timed runs per measurement (after one warm-up).
    pub runs: usize,
    /// Restrict to benchmarks whose name contains this substring.
    pub filter: Option<String>,
    /// Autotune each benchmark (coarse sweep) before measuring, as the
    /// paper does for Table 2.
    pub tune: bool,
    /// Run the exhaustive autotune sweep instead of the model-pruned
    /// default (`fig9_autotune --full`; the ablation baseline).
    pub full: bool,
}

impl HarnessArgs {
    /// Parses `--scale`, `--threads`, `--runs`, `--filter` from the process
    /// arguments, with paper-faithful defaults adapted to the host.
    pub fn parse() -> HarnessArgs {
        let mut out = HarnessArgs {
            scale: Scale::Small,
            threads: vec![1, 2, 4],
            runs: 3,
            filter: None,
            tune: false,
            full: false,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    out.scale = match args.get(i).map(String::as_str) {
                        Some("tiny") => Scale::Tiny,
                        Some("small") => Scale::Small,
                        Some("paper") => Scale::Paper,
                        other => panic!("unknown scale {other:?}"),
                    };
                }
                "--threads" => {
                    i += 1;
                    out.threads = args[i]
                        .split(',')
                        .map(|s| s.parse().expect("thread count"))
                        .collect();
                }
                "--runs" => {
                    i += 1;
                    out.runs = args[i].parse().expect("runs");
                }
                "--filter" => {
                    i += 1;
                    out.filter = Some(args[i].clone());
                }
                "--tune" => out.tune = true,
                "--full" => out.full = true,
                other => panic!("unknown argument `{other}`"),
            }
            i += 1;
        }
        out
    }

    /// The selected benchmarks.
    pub fn benchmarks(&self) -> Vec<Box<dyn Benchmark>> {
        polymage_apps::all_benchmarks(self.scale)
            .into_iter()
            .filter(|b| {
                self.filter
                    .as_ref()
                    .map(|f| b.name().to_lowercase().contains(&f.to_lowercase()))
                    .unwrap_or(true)
            })
            .collect()
    }
}

/// Coarse per-benchmark autotuning (the paper tunes each Table 2 entry):
/// sweeps a reduced tile set at the default threshold on the session's
/// engine and returns the best configuration's compiled program.
pub fn tune_config(
    session: &Session,
    b: &dyn Benchmark,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
) -> (Arc<Compiled>, Vec<i64>) {
    let mut best: Option<(Duration, Arc<Compiled>, Vec<i64>)> = None;
    let mut opts = CompileOptions::optimized(b.params());
    for t0 in [32i64, 128, 512] {
        for t1 in [64i64, 256, 512] {
            opts.tiles = polymage_core::TileSpec::Fixed(vec![t0, t1]);
            let compiled = session
                .compile(b.pipeline(), &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            let t = time_program(session.engine(), &compiled, inputs, threads, runs.max(1));
            if best.as_ref().map(|(bt, _, _)| t < *bt).unwrap_or(true) {
                best = Some((t, compiled, vec![t0, t1]));
            }
        }
    }
    let (_, compiled, tiles) = best.expect("at least one configuration");
    (compiled, tiles)
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_labels_match_the_paper() {
        assert_eq!(
            config_label(Schedule::Base, EvalMode::Scalar),
            "PolyMage(base)"
        );
        assert_eq!(
            config_label(Schedule::Opt, EvalMode::Vector),
            "PolyMage(opt+vec)"
        );
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
    }
}
