//! # polymage-core
//!
//! The PolyMage optimizing compiler — the paper's primary contribution
//! (§3). Takes a [`polymage_ir::Pipeline`] specification plus concrete
//! parameter values and produces an executable [`polymage_vm::Program`]:
//!
//! 1. front-end: stage graph, static bounds check, point-wise inlining
//!    (`polymage-graph`);
//! 2. **grouping** (Algorithm 1): greedy merging of a group into its single
//!    child when schedules can be aligned/scaled to make dependences
//!    constant and the estimated overlap stays below the threshold;
//! 3. **overlapped tiling**: per-group tile enumeration with exact per-stage
//!    regions from backward interval propagation (the tight tile shapes of
//!    Fig. 6);
//! 4. **storage optimization**: full arrays only for live-outs and
//!    cross-group values; per-tile scratchpads with relative indexing for
//!    everything else (§3.6);
//! 5. lowering of stage expressions to chunked VM kernels (the stand-in for
//!    §3.7's C++ code generation), plus a C emitter ([`emit_c`]) that renders
//!    the scheduled program as runnable C with the loop structure of the
//!    paper's Fig. 7, bit-for-bit equal to the engine;
//! 6. an [`autotune`] module exploring the paper's 7-tile-sizes ×
//!    3-thresholds space (§3.8), and a random-schedule baseline tuner.
//!
//! Compilation is split at the size boundary: [`plan`] runs every
//! size-independent analysis once (steered by parameter *estimates*) into
//! a [`ParametricPlan`] whose geometry stays symbolic, and
//! [`instantiate`] binds it to concrete parameter values cheaply — the
//! analogue of the paper's parametric generated code, which compiles once
//! and runs at any size. [`compile`] composes the two; `Session` caches
//! plans across sizes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autotune;
mod compile;
mod emit;
mod error;
mod grouping;
mod instantiate;
pub mod interp;
mod lower;
mod options;
mod plan;
mod report;
mod session;
mod storage;
pub mod tilemodel;
mod validate;

pub use compile::{compile, Compiled};
pub use emit::emit_c;
pub use error::CompileError;
pub use grouping::{group_stages, Group, GroupKindTag, Grouping};
pub use instantiate::{instantiate, instantiate_with};
pub use options::{
    CompileOptions, OptionsKey, Schedule, StructuralKey, TileSpec, DEFAULT_TILE_SIZES,
};
pub use plan::{plan, plan_with, ParametricPlan};
pub use polymage_vm::{SimdLevel, SimdOpt};
pub use report::{CompileReport, GroupReport, Provenance};
pub use session::{CacheStats, RunError, Session};
pub use tilemodel::{CacheModel, TileChoice};
pub use validate::{assert_valid, validate_program, Violation};
