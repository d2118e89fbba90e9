//! Autotuning (paper §3.8), model-pruned by default, and the
//! random-search baseline.
//!
//! The model-driven grouping heuristic narrows the schedule space to tile
//! sizes and an overlap threshold; the exhaustive tuner sweeps the paper's
//! exact space — tile sizes {8, 16, 32, 64, 128, 256, 512} per tilable
//! dimension and thresholds {0.2, 0.4, 0.5} — measuring real executions
//! and keeping the best. [`autotune_pruned`] ranks the same space with the
//! cache model of [`crate::tilemodel`] first (grouping plus analytic
//! per-group cost, no lowering or execution) and measures only the top-k
//! candidates — the "cost model prunes the measured set" move of the GPU
//! scheduling literature, applied to the paper's CPU space.
//! [`random_search`] is the stand-in for the unrestricted-space tuners the
//! paper compares against (OpenTuner): it samples arbitrary tile shapes
//! and thresholds from a much larger space under the same budget.

use crate::grouping::{effective_tiles, group_stages, GroupKindTag};
use crate::tilemodel::{predict_group_cost, CacheModel, GroupGeom};
use crate::{CompileError, CompileOptions, RunError, Schedule, Session, TileSpec};
use polymage_diag::Value;
use polymage_graph::{inline_pointwise, PipelineGraph};
use polymage_ir::Pipeline;
use polymage_vm::{Buffer, RunRequest};
use rand::Rng;
use std::time::{Duration, Instant};

/// The paper's tile-size candidates per dimension — the ladder the
/// exhaustive sweep measures and the cache model
/// ([`crate::tilemodel::select_tiles`]) chooses among analytically.
pub const TILE_CANDIDATES: [i64; 7] = [8, 16, 32, 64, 128, 256, 512];
/// The paper's overlap-threshold candidates.
pub const THRESHOLDS: [f64; 3] = [0.2, 0.4, 0.5];
/// Default number of model-ranked configurations [`autotune_pruned`]
/// actually measures.
pub const PRUNED_TOP_K: usize = 8;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct TuneRecord {
    /// Tile sizes tried.
    pub tile: Vec<i64>,
    /// Overlap threshold tried.
    pub threshold: f64,
    /// The compiler model's predicted redundancy fraction for this
    /// configuration ([`crate::CompileReport::predicted_overlap`]) —
    /// recorded next to the measured times so model-vs-measured tables
    /// fall straight out of a sweep.
    pub predicted_overlap: f64,
    /// Single-thread execution time (median of the timed runs).
    pub t1: Duration,
    /// Execution time with `threads` workers (median of the timed runs).
    pub tn: Duration,
}

/// Autotuner outcome: all records plus the index of the best (by `tn`).
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Every configuration measured, in exploration order.
    pub records: Vec<TuneRecord>,
    /// Index into `records` of the fastest configuration.
    pub best: usize,
    /// Size of the candidate space considered (equals `records.len()` for
    /// the exhaustive sweep; larger under model pruning, where only the
    /// top-ranked candidates were measured).
    pub considered: usize,
}

impl TuneOutcome {
    /// Picks the record with the smallest `tn` (the first, on ties), with
    /// the measured records as the whole candidate space.
    fn from_records(records: Vec<TuneRecord>) -> TuneOutcome {
        let best = records
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.tn)
            .map(|(i, _)| i)
            .unwrap_or(0);
        TuneOutcome {
            considered: records.len(),
            records,
            best,
        }
    }

    /// The best record.
    pub fn best_record(&self) -> &TuneRecord {
        &self.records[self.best]
    }
}

/// Compiles and times one configuration — one warm-up, then the median of
/// `runs` timed executions per thread count — and records it (model
/// prediction next to measured times) as a `tune.config` event on the
/// session's diagnostics sink.
fn measure(
    session: &Session,
    pipe: &Pipeline,
    opts: &CompileOptions,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
) -> Result<TuneRecord, RunError> {
    let compiled = session.compile(pipe, opts)?;
    let engine = session.engine();
    let time_with = |n: usize| -> Result<Duration, RunError> {
        let run_once = || -> Result<Duration, RunError> {
            let start = Instant::now();
            engine
                .submit(RunRequest::new(&compiled.program, inputs).threads(n))?
                .join()?;
            Ok(start.elapsed())
        };
        run_once()?;
        let mut times = (0..runs.max(1))
            .map(|_| run_once())
            .collect::<Result<Vec<_>, _>>()?;
        times.sort();
        // Median: the middle element, or the mean of the middle two.
        let n = times.len();
        Ok((times[(n - 1) / 2] + times[n / 2]) / 2)
    };
    let t1 = time_with(1)?;
    let tn = if threads > 1 { time_with(threads)? } else { t1 };
    let rec = TuneRecord {
        tile: opts.tiles.baseline_sizes().to_vec(),
        threshold: opts.overlap_threshold,
        predicted_overlap: compiled.report.predicted_overlap(),
        t1,
        tn,
    };
    let diag = session.diag();
    if diag.enabled() {
        let tile: Vec<String> = rec.tile.iter().map(|t| t.to_string()).collect();
        diag.event(
            "tune.config",
            vec![
                ("tile", Value::from(tile.join("x"))),
                ("threshold", Value::Float(rec.threshold)),
                ("predicted_overlap", Value::Float(rec.predicted_overlap)),
                ("t1_us", Value::UInt(rec.t1.as_micros() as u64)),
                ("tn_us", Value::UInt(rec.tn.as_micros() as u64)),
            ],
        );
    }
    Ok(rec)
}

/// Runs the paper's model-driven sweep: `tiles² × thresholds` (square tiles
/// per 2-D group; pass `dims = 1` for 1-D pipelines).
///
/// Each configuration's time is the median of `runs` executions (after one
/// warm-up). All measurements run on one [`Session`], so the worker pool
/// persists across the whole sweep.
///
/// # Errors
///
/// Propagates the first compilation or execution error through
/// [`RunError`]; no configuration result is silently dropped.
pub fn autotune(
    pipe: &Pipeline,
    base: &CompileOptions,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
    tiles: &[i64],
    thresholds: &[f64],
) -> Result<TuneOutcome, RunError> {
    // Size the compile cache to hold the whole sweep so a repeated sweep
    // on the same session (e.g. after resizing inputs back) hits entirely.
    let sweep = tiles.len() * tiles.len() * thresholds.len();
    let session = Session::with_threads(threads.max(1)).with_cache_capacity(sweep.max(1));
    autotune_with_session(
        &session, pipe, base, inputs, threads, runs, tiles, thresholds,
    )
}

/// [`autotune`] on a caller-provided [`Session`]: compilations go through
/// the session's compile cache (a re-sweep of the same space is all cache
/// hits) and each configuration is recorded as a `tune.config` diagnostics
/// event with the predicted overlap ratio next to the measured times.
///
/// # Errors
///
/// Same conditions as [`autotune`].
#[allow(clippy::too_many_arguments)]
pub fn autotune_with_session(
    session: &Session,
    pipe: &Pipeline,
    base: &CompileOptions,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
    tiles: &[i64],
    thresholds: &[f64],
) -> Result<TuneOutcome, RunError> {
    let mut records = Vec::new();
    let mut opts = base.clone();
    for &t0 in tiles {
        for &t1 in tiles {
            for &th in thresholds {
                opts.tiles = TileSpec::Fixed(vec![t0, t1]);
                opts.overlap_threshold = th;
                records.push(measure(session, pipe, &opts, inputs, threads, runs)?);
            }
        }
    }
    Ok(TuneOutcome::from_records(records))
}

/// Model score of one fixed-tile configuration: the summed
/// [`predict_group_cost`] over the grouping this configuration induces.
/// Runs the front-end and Algorithm 1 but no lowering, instantiation, or
/// execution — orders of magnitude cheaper than a measurement.
///
/// # Errors
///
/// Structural pipeline errors and unusable option values only (cycles,
/// estimate mismatch, [`CompileError::InvalidOptions`]) — the same
/// conditions [`crate::plan`] reports.
pub fn model_score(pipe: &Pipeline, opts: &CompileOptions) -> Result<f64, CompileError> {
    opts.validate()?;
    let (pipe2, _) = if opts.schedule.inlines() {
        inline_pointwise(pipe)?
    } else {
        (pipe.clone(), Default::default())
    };
    let graph = PipelineGraph::build(&pipe2)?;
    let grouping = group_stages(&pipe2, &graph, opts);
    let model = CacheModel::get();
    let mut total = 0.0;
    for g in &grouping.groups {
        if g.kind != GroupKindTag::Normal {
            continue;
        }
        if let Some(geom) = GroupGeom::build(&pipe2, &graph, g, opts) {
            let tiles = effective_tiles(geom.sink_extents(), opts);
            total += predict_group_cost(&geom, &tiles, &model);
        }
    }
    Ok(total)
}

/// Model-pruned autotuning: ranks the full `tiles² × thresholds` space
/// with [`model_score`], measures only the `top_k` best-ranked
/// configurations (the same measurement protocol as
/// [`autotune_with_session`]), and reports the full space size in
/// [`TuneOutcome::considered`]. With `top_k >= tiles²·thresholds` this
/// degenerates to the exhaustive sweep in model-rank order.
///
/// # Errors
///
/// Same conditions as [`autotune`].
#[allow(clippy::too_many_arguments)] // mirrors `autotune`'s surface plus the pruning knobs
pub fn autotune_pruned(
    pipe: &Pipeline,
    base: &CompileOptions,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
    tiles: &[i64],
    thresholds: &[f64],
    top_k: usize,
) -> Result<TuneOutcome, RunError> {
    let session = Session::with_threads(threads.max(1)).with_cache_capacity(top_k.max(1));
    autotune_pruned_with_session(
        &session, pipe, base, inputs, threads, runs, tiles, thresholds, top_k,
    )
}

/// [`autotune_pruned`] on a caller-provided [`Session`]. Each ranked
/// candidate is recorded as a `tune.rank` diagnostics event (model score,
/// measured or pruned) before the measurement loop starts.
///
/// # Errors
///
/// Same conditions as [`autotune`].
#[allow(clippy::too_many_arguments)]
pub fn autotune_pruned_with_session(
    session: &Session,
    pipe: &Pipeline,
    base: &CompileOptions,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
    tiles: &[i64],
    thresholds: &[f64],
    top_k: usize,
) -> Result<TuneOutcome, RunError> {
    // Rank the whole space analytically.
    let mut ranked: Vec<(f64, i64, i64, f64)> = Vec::new();
    let mut opts = base.clone();
    for &t0 in tiles {
        for &t1 in tiles {
            for &th in thresholds {
                opts.tiles = TileSpec::Fixed(vec![t0, t1]);
                opts.overlap_threshold = th;
                let score = model_score(pipe, &opts)?;
                ranked.push((score, t0, t1, th));
            }
        }
    }
    let considered = ranked.len();
    // Stable sort: ties keep sweep order, so the ranking is deterministic.
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let measured = top_k.max(1).min(ranked.len());
    let diag = session.diag();
    if diag.enabled() {
        for (i, &(score, t0, t1, th)) in ranked.iter().enumerate() {
            diag.event(
                "tune.rank",
                vec![
                    ("rank", Value::UInt(i as u64)),
                    ("tile", Value::from(format!("{t0}x{t1}"))),
                    ("threshold", Value::Float(th)),
                    ("score", Value::Float(score)),
                    ("measured", Value::from(i < measured)),
                ],
            );
        }
    }

    // Measure only the top-ranked candidates.
    let mut records = Vec::new();
    for &(_, t0, t1, th) in ranked.iter().take(measured) {
        opts.tiles = TileSpec::Fixed(vec![t0, t1]);
        opts.overlap_threshold = th;
        records.push(measure(session, pipe, &opts, inputs, threads, runs)?);
    }
    Ok(TuneOutcome {
        considered,
        ..TuneOutcome::from_records(records)
    })
}

/// Random search over an *unrestricted* schedule space: arbitrary tile
/// shapes in `[4, 1024]`, arbitrary thresholds in `[0, 1]`, and a random
/// [`Schedule`] out of `Opt` / `FuseOnly` / `TileOnly` / `Base` with
/// weights 0.64 / 0.16 / 0.16 / 0.04 (fusion and tiling each kept with
/// probability 0.8) — the OpenTuner stand-in. Same measurement protocol
/// as [`autotune`], with a configuration budget.
///
/// # Errors
///
/// Propagates compilation and execution errors through [`RunError`] (none
/// occur for valid pipelines; the random space only varies schedule
/// knobs).
pub fn random_search(
    pipe: &Pipeline,
    base: &CompileOptions,
    inputs: &[Buffer],
    threads: usize,
    runs: usize,
    budget: usize,
    rng: &mut impl Rng,
) -> Result<TuneOutcome, RunError> {
    let session = Session::with_threads(threads.max(1));
    let mut records = Vec::new();
    let mut opts = base.clone();
    for _ in 0..budget {
        let pow0 = rng.gen_range(2..=10u32);
        let pow1 = rng.gen_range(2..=10u32);
        opts.tiles = TileSpec::Fixed(vec![1i64 << pow0, 1i64 << pow1]);
        opts.overlap_threshold = rng.gen_range(0.0..1.0);
        opts.schedule = match (rng.gen_bool(0.8), rng.gen_bool(0.8)) {
            (true, true) => Schedule::Opt,
            (true, false) => Schedule::FuseOnly,
            (false, true) => Schedule::TileOnly,
            (false, false) => Schedule::Base,
        };
        records.push(measure(&session, pipe, &opts, inputs, threads, runs)?);
    }
    Ok(TuneOutcome::from_records(records))
}
