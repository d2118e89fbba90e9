//! # polymage-vm
//!
//! The execution substrate of PolyMage-rs.
//!
//! The original PolyMage emits C++ (OpenMP + `ivdep`) and leans on icc for
//! vectorization. This crate is the executable stand-in: the compiler
//! (`polymage-core`) lowers each stage to a small register [`Kernel`] whose
//! operations work on *chunks* — contiguous runs of the innermost loop —
//! so the per-operation dispatch cost is amortized and the inner loops are
//! tight, slice-to-slice operations the Rust compiler auto-vectorizes. The
//! chunked mode is the analogue of the paper's `+vec` configurations;
//! [`EvalMode::Scalar`] evaluates one point at a time, the `−vec` analogue.
//!
//! Everything the paper's generated code does at run time exists here:
//!
//! - full arrays for live-outs, per-thread [`BufKind::Scratch`] pads with
//!   tile-relative indexing for intermediates (§3.6);
//! - a parallel executor over precomputed overlapped tiles (§3.4/3.7);
//! - sequential and privatized-parallel reduction execution for
//!   `Accumulator` stages;
//! - a sequential scan path for self-referential (time-iterated) stages.
//!
//! The VM computes in `f32` (with integer semantics applied on index
//! computation and saturating stores per declared [`polymage_ir::ScalarType`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Runs `$body` in one match arm per listed variant of `$E`, with `$o`
/// bound to that variant as a constant, so each arm compiles to the plain
/// loop of its op. The match is exhaustive: a new op must be listed.
macro_rules! per_op {
    ($op:expr, $E:ident { $($v:ident)* }, |$o:ident| $body:block) => {
        match $op {
            $($E::$v => {
                let $o = $E::$v;
                $body
            })*
        }
    };
}

mod buffer;
mod engine;
mod env;
mod error;
mod eval;
mod exec;
mod index;
mod kernel;
mod loadclass;
pub mod opt;
mod pool;
mod program;
// The SIMD backend is the single sanctioned home for `unsafe` in this
// crate: `#[target_feature]` chunk loops reached only through
// runtime-detected dispatch levels (see `simd/mod.rs` for the safety
// argument). Everything else stays under `deny(unsafe_code)`.
#[allow(unsafe_code)]
mod simd;

pub use buffer::{BufDecl, BufId, BufKind, Buffer};
pub use engine::{CancelToken, Engine, OverloadPolicy, Priority, RunHandle, RunRequest};
pub use env::{env_issues, EnvIssue};
pub use error::{CancelReason, VmError};
pub use eval::{eval_kernel, BufView, ChunkCtx, EvalCounters, RegFile, CHUNK};
pub use exec::RunStats;
pub use index::MAX_TERMS as MAX_INDEX_TERMS;
pub use kernel::{IdxPlan, Kernel, Op, RegId};
pub use loadclass::{LoadClass, LoadHistogram};
pub use opt::{collect_reads, fixed_dims, optimize_kernel, sync_mask, KernelOptReport};
pub use pool::{BufferPool, PoolStats, SharedPool};
pub use program::{
    reduction_chunks, CaseExec, EvalMode, GroupExec, GroupKind, Program, ReductionExec,
    ScratchSlots, SeqExec, SlotRange, StageExec, StoragePlan, TileWork, TiledGroup,
};
pub use simd::{
    available_levels as available_simd_levels, clamp_to_detected as clamp_simd_level,
    detect as detect_simd, process_level as process_simd_level, resolve as resolve_simd, SimdLevel,
    SimdOpt,
};
