//! Compiler options: the schedule-relevant knobs of the paper.

use crate::CompileError;
use polymage_ir::{FuncBody, Interval, Pipeline};
use polymage_vm::{EvalMode, SimdOpt};

/// Accepted range of a tile size: positive, and small enough that `2 * t`
/// cannot overflow `i64` for any extent a buffer can have.
const SIZE_RANGE: std::ops::RangeInclusive<i64> = 1..=1 << 30;

/// The historical global tile shape (the paper's evaluation default): 32
/// rows × 256 columns. Under [`TileSpec::Auto`] it is the shape of every
/// group the cache model leaves alone, the baseline Algorithm 1's overlap
/// estimate reads, and the fallback when the model finds no feasible
/// shape.
pub const DEFAULT_TILE_SIZES: [i64; 2] = [32, 256];

/// How tile shapes are chosen for tiled groups.
///
/// [`Auto`](TileSpec::Auto), the default, runs the per-group cache model
/// ([`crate::tilemodel`]) after grouping: a group whose whole-domain
/// working set already fits the detected cache budget keeps
/// [`DEFAULT_TILE_SIZES`]; any other group gets the largest tile shape
/// whose per-tile working set fits that budget, subject to a parallelism
/// floor and the group's overlap threshold. [`Fixed`](TileSpec::Fixed)
/// applies one explicit global shape to every group (set with
/// [`CompileOptions::with_tiles`]; what the §3.8 autotuner sweeps). Both
/// are value-invisible — tiling never changes output bits — but the spec
/// participates in [`CompileOptions::cache_key`] because it changes the
/// produced program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TileSpec {
    /// Per-group tile shapes from the cache model (`core::tilemodel`).
    Auto,
    /// One global tile shape, as the paper's `T`. Dimensions beyond the
    /// vector reuse its last entry.
    Fixed(Vec<i64>),
}

impl TileSpec {
    /// The global sizes Algorithm 1's overlap estimate and the fallback
    /// path use: the fixed shape itself, or [`DEFAULT_TILE_SIZES`] under
    /// [`TileSpec::Auto`] (the model runs *after* grouping, so grouping
    /// decisions stay identical between `Auto` and the fixed default).
    pub fn baseline_sizes(&self) -> &[i64] {
        match self {
            TileSpec::Auto => &DEFAULT_TILE_SIZES,
            TileSpec::Fixed(sizes) => sizes,
        }
    }
}

/// The schedule configurations the paper evaluates: Fig. 10's `base` and
/// `opt`, plus the four ablation columns of `bin/ablation` that each turn
/// one pass of `opt` off (§3.6's "without storage reduction" among them).
///
/// Every schedule computes the same function (the interpreter is the
/// reference for all of them); they differ only in the program produced,
/// so the schedule participates in [`CompileOptions::cache_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Inlining, grouping (Algorithm 1), overlapped tiling and scratchpads:
    /// the paper's fully optimized configuration.
    Opt,
    /// Inlining and parallelism only: every stage is its own group,
    /// executed as parallel row strips (the paper's "base").
    Base,
    /// `Opt` without tiling: fused groups run as parallel row strips.
    FuseOnly,
    /// `Opt` without grouping: singleton groups, each overlap-tiled.
    TileOnly,
    /// `Opt` with every stage of a tiled group *also* written to a full
    /// array, modeling the memory traffic of tiling without scratchpads.
    NoScratch,
    /// `Opt` without the point-wise inlining pass.
    NoInline,
}

impl Schedule {
    /// Every schedule, `Opt` first.
    pub const ALL: [Schedule; 6] = [
        Schedule::Opt,
        Schedule::Base,
        Schedule::FuseOnly,
        Schedule::TileOnly,
        Schedule::NoScratch,
        Schedule::NoInline,
    ];

    /// Short display name (`opt`, `base`, `fuse-only`, …).
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Opt => "opt",
            Schedule::Base => "base",
            Schedule::FuseOnly => "fuse-only",
            Schedule::TileOnly => "tile-only",
            Schedule::NoScratch => "no-scratch",
            Schedule::NoInline => "no-inline",
        }
    }

    /// Runs the grouping heuristic (otherwise every stage keeps its own
    /// group).
    pub(crate) fn fuses(self) -> bool {
        !matches!(self, Schedule::Base | Schedule::TileOnly)
    }

    /// Tiles group domains (otherwise only the outer dimension splits,
    /// into parallel row strips).
    pub(crate) fn tiles(self) -> bool {
        !matches!(self, Schedule::Base | Schedule::FuseOnly)
    }

    /// Runs the point-wise inlining pass.
    pub(crate) fn inlines(self) -> bool {
        self != Schedule::NoInline
    }

    /// Keeps values consumed only inside their group in per-tile
    /// scratchpads (§3.6).
    pub(crate) fn scratchpads(self) -> bool {
        self != Schedule::NoScratch
    }
}

/// Options controlling compilation.
///
/// The defaults correspond to the paper's fully optimized configuration
/// ("PolyMage (opt+vec)"); the `schedule` / `mode` fields reproduce the
/// configurations of Fig. 10 and the ablations.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Concrete values for the pipeline parameters (indexed by
    /// [`polymage_ir::ParamId::index`]).
    pub params: Vec<i64>,
    /// Parameter *estimates* for the size-dependent heuristics (grouping's
    /// `group_size` ordering and the overlap-vs-tile ratio of Algorithm 1,
    /// matching the paper's estimate-driven decisions). `None` (the
    /// default) uses [`params`](Self::params), reproducing the historical
    /// behavior where every analysis is specialized to the bound values.
    ///
    /// Setting explicit estimates makes the expensive phase-1 analysis
    /// ([`crate::plan`]) independent of `params`: one
    /// [`crate::ParametricPlan`] can then be
    /// [instantiated](crate::instantiate) at many sizes, and `Session`
    /// shares the plan across them (see
    /// [`cache_key_structural`](Self::cache_key_structural)).
    pub param_estimates: Option<Vec<i64>>,
    /// Tile-shape selection: per-group shapes from the cache model
    /// ([`TileSpec::Auto`], the default) or a global fixed shape (the
    /// paper's `T`; a dimension is tiled only when its extent is at least
    /// twice the requested size).
    pub tiles: TileSpec,
    /// The overlap threshold of Algorithm 1 (`othresh`); fraction of
    /// redundant computation tolerated per tile.
    pub overlap_threshold: f64,
    /// Chunked (vectorized) or point-wise evaluation.
    pub mode: EvalMode,
    /// Which passes run: [`Schedule::Opt`] (the default) or `base` or one
    /// of the ablations.
    pub schedule: Schedule,
    /// SIMD backend selection for the chunk evaluator. [`SimdOpt::Auto`]
    /// (the default) uses the best instruction set detected at startup;
    /// [`SimdOpt::Off`] forces the scalar loops; explicit levels are
    /// clamped to what the host supports. The `POLYMAGE_SIMD` environment
    /// variable, when set, overrides this option. All levels are bit-exact
    /// (see `polymage-vm`'s `simd` module), so this is a pure performance
    /// knob — but it still participates in the cache key because the
    /// compiled [`polymage_vm::Program`] records the resolved level.
    pub simd: SimdOpt,
}

impl CompileOptions {
    /// Options for the paper's fully optimized configuration with the given
    /// parameter values.
    pub fn optimized(params: Vec<i64>) -> Self {
        CompileOptions {
            params,
            param_estimates: None,
            tiles: TileSpec::Auto,
            overlap_threshold: 0.4,
            mode: EvalMode::Vector,
            schedule: Schedule::Opt,
            simd: SimdOpt::Auto,
        }
    }

    /// Options for the paper's "base" configuration ([`Schedule::Base`]):
    /// inlining and parallelism but no grouping or tiling.
    pub fn base(params: Vec<i64>) -> Self {
        CompileOptions {
            schedule: Schedule::Base,
            ..CompileOptions::optimized(params)
        }
    }

    /// Switches the evaluation mode (the ±vec axis of Fig. 10).
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets a global fixed tile shape ([`TileSpec::Fixed`]) in place of
    /// the cache model.
    pub fn with_tiles(mut self, tiles: Vec<i64>) -> Self {
        self.tiles = TileSpec::Fixed(tiles);
        self
    }

    /// Sets the overlap threshold.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.overlap_threshold = t;
        self
    }

    /// Selects the SIMD backend ([`SimdOpt::Auto`] by default).
    pub fn with_simd(mut self, simd: SimdOpt) -> Self {
        self.simd = simd;
        self
    }

    /// Sets explicit parameter estimates for the size-dependent heuristics
    /// (see [`param_estimates`](Self::param_estimates)).
    pub fn with_estimates(mut self, estimates: Vec<i64>) -> Self {
        self.param_estimates = Some(estimates);
        self
    }

    /// The parameter values the heuristics use: the explicit
    /// [`param_estimates`](Self::param_estimates) when set, the bound
    /// [`params`](Self::params) otherwise.
    pub fn estimates(&self) -> &[i64] {
        self.param_estimates.as_deref().unwrap_or(&self.params)
    }

    /// Rejects values the scheduler's tile arithmetic cannot use, so that
    /// caller-supplied `pub` fields surface as a typed error instead of a
    /// division by zero or an overflow while tiling.
    pub(crate) fn validate(&self) -> Result<(), CompileError> {
        let invalid = |field, reason: String| Err(CompileError::InvalidOptions { field, reason });
        if let TileSpec::Fixed(sizes) = &self.tiles {
            if sizes.is_empty() {
                return invalid("tiles", "no tile size given".into());
            }
            if let Some(t) = sizes.iter().find(|t| !SIZE_RANGE.contains(t)) {
                return invalid("tiles", format!("tile size {t} outside 1..=2^30"));
            }
        }
        if !(self.overlap_threshold.is_finite() && self.overlap_threshold >= 0.0) {
            return invalid(
                "overlap_threshold",
                format!("{} is not a finite value >= 0", self.overlap_threshold),
            );
        }
        Ok(())
    }

    /// The hashable normal form of these options, used (together with the
    /// pipeline's content hash) to key compile caches.
    ///
    /// Every knob participates, since each can change the produced
    /// program.
    pub fn cache_key(&self) -> OptionsKey {
        OptionsKey {
            params: self.params.clone(),
            structural: self.cache_key_structural(),
        }
    }

    /// The *size-independent* part of [`cache_key`](Self::cache_key):
    /// every knob except the bound `params`. Two option sets with the same
    /// structural key produce the same [`crate::ParametricPlan`] (for the
    /// same pipeline), so `Session` keys its plan cache on this form and
    /// shares one plan across all bound parameter values.
    ///
    /// The *resolved* estimates participate (they steer grouping), which
    /// means that with the default `param_estimates: None` the structural
    /// key still varies with `params` — exactly the historical
    /// one-plan-per-size behavior. Pin `param_estimates` to share plans
    /// across sizes.
    pub fn cache_key_structural(&self) -> StructuralKey {
        let tiles = match &self.tiles {
            // The model's decisions depend on the detected cache geometry
            // and parallelism floor, so they participate in the key the
            // same way the resolved SIMD level does.
            TileSpec::Auto => {
                let m = crate::tilemodel::CacheModel::get();
                TileKey::Auto {
                    l1: m.l1 as u64,
                    l2: m.l2 as u64,
                    line: m.line as u64,
                    min_strips: crate::tilemodel::min_strip_tiles() as u64,
                }
            }
            TileSpec::Fixed(sizes) => TileKey::Fixed(sizes.clone()),
        };
        StructuralKey {
            estimates: self.estimates().to_vec(),
            tiles,
            overlap_threshold_bits: self.overlap_threshold.to_bits(),
            mode: self.mode,
            schedule: self.schedule,
            simd: polymage_vm::resolve_simd(self.simd),
        }
    }
}

/// The most `f32` points all images and stage domains may hold together:
/// any more cannot be addressed in bytes.
const MAX_POINTS: i64 = isize::MAX as i64 / 4;

/// Rejects parameter values (bound or estimated, named by `field`) at which
/// the pipeline's geometry leaves `i64`, as [`CompileError::InvalidOptions`].
/// Every image extent and stage and reduction domain is evaluated with
/// checked arithmetic, and their volumes together must stay within
/// [`MAX_POINTS`]; past this check the scheduler's unchecked domain
/// arithmetic cannot overflow.
pub(crate) fn check_params(
    pipe: &Pipeline,
    values: &[i64],
    field: &'static str,
) -> Result<(), CompileError> {
    fn volume(mut extents: impl Iterator<Item = Option<i64>>) -> Option<i64> {
        extents.try_fold(1i64, |v, e| v.checked_mul(e?.max(0)))
    }
    let domain = |dom: &[Interval]| volume(dom.iter().map(|iv| iv.checked_extent(values)));
    let mut total = 0i64;
    let mut add = |name: &str, volume: Option<i64>| -> Result<(), CompileError> {
        total = volume
            .and_then(|v| total.checked_add(v))
            .filter(|&t| t <= MAX_POINTS)
            .ok_or_else(|| CompileError::InvalidOptions {
                field,
                reason: format!("at {values:?} the domain of `{name}` is too large to address"),
            })?;
        Ok(())
    };
    for img in pipe.images() {
        add(
            &img.name,
            volume(img.extents.iter().map(|e| e.checked_eval(values))),
        )?;
    }
    for f in pipe.func_ids() {
        let fd = pipe.func(f);
        add(&fd.name, domain(&fd.var_dom.dom))?;
        if let FuncBody::Reduce(acc) = &fd.body {
            add(&fd.name, domain(&acc.red_dom))?;
        }
    }
    Ok(())
}

pub mod env {
    //! Diagnostics for ignored `POLYMAGE_*` environment variables.
    //!
    //! `polymage_vm` reads every `POLYMAGE_*` variable once per process
    //! (engine-only embedders need its `POLYMAGE_SIMD` override) and warns
    //! about each malformed value or unknown name once on stderr. This
    //! module reports the same list as structured `env.invalid` diag events
    //! when compilation first runs with an enabled sink (see [`report`]).

    use polymage_diag::{Diag, Value};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Reports every ignored `POLYMAGE_*` variable
    /// ([`polymage_vm::env_issues`]) once as structured `env.invalid` diag
    /// events on the first *enabled* sink offered. Called from the compiler
    /// entry points; idempotent and cheap when there is nothing to say.
    pub fn report(diag: &Diag) {
        let issues = polymage_vm::env_issues();
        static DIAG_DONE: AtomicBool = AtomicBool::new(false);
        if issues.is_empty()
            || !diag.enabled()
            || DIAG_DONE
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return;
        }
        for issue in issues {
            diag.event(
                "env.invalid",
                vec![
                    ("var", Value::Str(issue.var.clone())),
                    ("value", Value::Str(issue.value.clone())),
                    ("problem", Value::Str(issue.problem.clone())),
                ],
            );
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn report_is_idempotent_and_panic_free() {
            let diag = Diag::noop();
            report(&diag);
            report(&diag);
        }
    }
}

/// The `Eq + Hash` normal form of [`CompileOptions`] (floats by bit
/// pattern), produced by [`CompileOptions::cache_key`]: the bound
/// parameter values plus the size-independent [`StructuralKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OptionsKey {
    params: Vec<i64>,
    structural: StructuralKey,
}

impl OptionsKey {
    /// The size-independent part of the key (plan-cache key).
    pub fn structural(&self) -> &StructuralKey {
        &self.structural
    }
}

/// The size-independent normal form of [`CompileOptions`] (every knob but
/// `params`; floats by bit pattern), produced by
/// [`CompileOptions::cache_key_structural`]. Keys `Session`'s plan cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructuralKey {
    /// Resolved heuristic estimates (explicit `param_estimates`, or the
    /// bound `params` when none were given).
    estimates: Vec<i64>,
    tiles: TileKey,
    overlap_threshold_bits: u64,
    mode: EvalMode,
    schedule: Schedule,
    /// The *resolved* [`polymage_vm::SimdLevel`]: environment override and
    /// host clamping applied, so two option sets that resolve to the same
    /// level share a cache entry.
    simd: polymage_vm::SimdLevel,
}

/// The hashable normal form of [`TileSpec`]: fixed shapes by value,
/// [`TileSpec::Auto`] by the detected cache geometry and parallelism
/// floor its decisions depend on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TileKey {
    /// Cache-model selection with the detected model inputs.
    Auto {
        /// L1 data-cache bytes.
        l1: u64,
        /// Per-core L2 bytes (the working-set budget base).
        l2: u64,
        /// Cache-line bytes.
        line: u64,
        /// Parallelism floor (minimum strip-dimension tiles).
        min_strips: u64,
    },
    /// A global fixed shape.
    Fixed(Vec<i64>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_normal_form() {
        let a = CompileOptions::optimized(vec![100, 200]);
        assert_eq!(a.cache_key(), a.clone().cache_key());
        assert_ne!(
            a.cache_key(),
            a.clone().with_tiles(vec![64, 64]).cache_key()
        );
        assert_ne!(a.cache_key(), a.clone().with_threshold(0.5).cache_key());
        assert_ne!(
            a.cache_key(),
            CompileOptions::optimized(vec![100, 201]).cache_key()
        );
        // Every schedule is a distinct program.
        for s in Schedule::ALL.into_iter().filter(|&s| s != a.schedule) {
            let other = CompileOptions {
                schedule: s,
                ..a.clone()
            };
            assert_ne!(a.cache_key(), other.cache_key(), "{}", s.label());
        }
        // The simd option participates through its *resolved* level
        // (environment override and host clamping applied), so the keys
        // differ exactly when the resolved levels do.
        let off = a.clone().with_simd(SimdOpt::Off).cache_key();
        if polymage_vm::resolve_simd(SimdOpt::Off) == polymage_vm::resolve_simd(SimdOpt::Auto) {
            assert_eq!(a.cache_key(), off);
        } else {
            assert_ne!(a.cache_key(), off);
        }
    }

    #[test]
    fn structural_key_drops_params() {
        // Pinned estimates: the structural key is size-independent, the
        // full key still varies with the bound params.
        let a = CompileOptions::optimized(vec![100, 200]).with_estimates(vec![100, 200]);
        let b = CompileOptions::optimized(vec![400, 300]).with_estimates(vec![100, 200]);
        assert_eq!(a.cache_key_structural(), b.cache_key_structural());
        assert_ne!(a.cache_key(), b.cache_key());
        // Default estimates follow params (one plan per size, as before).
        let c = CompileOptions::optimized(vec![100, 200]);
        let d = CompileOptions::optimized(vec![400, 300]);
        assert_ne!(c.cache_key_structural(), d.cache_key_structural());
        assert_eq!(a.cache_key_structural(), c.cache_key_structural());
        // Estimates participate in both keys: they steer grouping.
        let e = CompileOptions::optimized(vec![100, 200]).with_estimates(vec![64, 64]);
        assert_ne!(c.cache_key(), e.cache_key());
        assert_eq!(e.estimates(), &[64, 64]);
        assert_eq!(c.estimates(), &[100, 200]);
    }

    #[test]
    fn presets() {
        let o = CompileOptions::optimized(vec![100]);
        assert_eq!(o.schedule, Schedule::Opt);
        assert_eq!(o.mode, EvalMode::Vector);
        let b = CompileOptions::base(vec![100]);
        assert_eq!(b.schedule, Schedule::Base);
        assert!(!b.schedule.fuses() && !b.schedule.tiles());
        let s = CompileOptions::optimized(vec![]).with_mode(EvalMode::Scalar);
        assert_eq!(s.mode, EvalMode::Scalar);
        let t = CompileOptions::optimized(vec![])
            .with_tiles(vec![64, 64])
            .with_threshold(0.2);
        assert_eq!(t.tiles, TileSpec::Fixed(vec![64, 64]));
        assert_eq!(t.overlap_threshold, 0.2);
    }

    #[test]
    fn tile_spec_baseline() {
        assert_eq!(TileSpec::Auto.baseline_sizes(), &DEFAULT_TILE_SIZES);
        assert_eq!(TileSpec::Fixed(vec![8]).baseline_sizes(), &[8]);
    }

    #[test]
    fn auto_and_fixed_key_differently() {
        let auto = CompileOptions::optimized(vec![100, 200]);
        assert_eq!(auto.tiles, TileSpec::Auto, "the cache model is the default");
        let fixed = auto.clone().with_tiles(DEFAULT_TILE_SIZES.to_vec());
        assert_ne!(fixed.cache_key(), auto.cache_key());
        assert_ne!(fixed.cache_key_structural(), auto.cache_key_structural());
        // Auto keys are stable across calls (the resolved model is a
        // process-wide constant).
        assert_eq!(auto.cache_key(), auto.clone().cache_key());
    }
}
