//! The compiler driver: size-independent planning (phase 1) followed by
//! binding to the options' parameter values (phase 2).
//!
//! [`compile`] is now a thin composition of [`crate::plan`] and
//! [`crate::instantiate`] — the paper's full flow (Fig. 4) split at the
//! size boundary: graph construction, point-wise inlining, grouping
//! (Algorithm 1) and the kernel prototypes happen in the plan; bounds
//! checking, overlapped-tile construction, each kernel's final form and
//! storage optimization happen per binding. When the estimates default to
//! the bound values (the common case) the result is identical to the old
//! monolithic driver.

use crate::report::CompileReport;
use crate::{CompileError, CompileOptions};
use polymage_ir::Pipeline;
use polymage_vm::Program;

/// A compiled pipeline: the executable program and the structural report.
///
/// The program is behind an [`Arc`](std::sync::Arc) so cached `Compiled` values (see
/// `Session`) can be shared with a running [`polymage_vm::Engine`] without
/// copying; `&compiled.program` still coerces to `&Program` everywhere.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Executable program for a [`polymage_vm::Engine`].
    pub program: std::sync::Arc<Program>,
    /// Structural report (grouping, storage, overlaps).
    pub report: CompileReport,
}

/// Compiles a pipeline specification with the given options.
///
/// This runs the paper's full flow (Fig. 4): graph construction, point-wise
/// inlining, grouping (Algorithm 1), overlapped tile construction, storage
/// optimization, static bounds checking, and lowering to the execution
/// engine. Internally it is [`crate::plan`] (size-independent, at
/// [`CompileOptions::estimates`]) followed by [`crate::instantiate`] at
/// `opts.params` — build the plan yourself to amortize phase 1 across many
/// sizes.
///
/// # Errors
///
/// Returns a [`CompileError`] for invalid specifications (cycles,
/// out-of-bounds accesses, unsupported self-references) or mismatched
/// parameter counts.
pub fn compile(pipe: &Pipeline, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    if opts.params.len() != pipe.params().len() {
        return Err(CompileError::param_mismatch(pipe, opts.params.len()));
    }
    crate::instantiate(&crate::plan(pipe, opts)?, &opts.params)
}
