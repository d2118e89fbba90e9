//! Compiler errors.

use polymage_graph::{BoundsViolation, GraphError};
use polymage_ir::IrError;
use std::error::Error;
use std::fmt;

/// Errors reported by [`crate::compile`].
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Structural error in the specification.
    Ir(IrError),
    /// Graph construction failed (dependence cycle).
    Graph(GraphError),
    /// The static bounds check found out-of-range accesses.
    Bounds(Vec<BoundsViolation>),
    /// A self-referential stage's self-dependences are not lexicographically
    /// backward (the scan order cannot satisfy them), or use unsupported
    /// (scaled/dynamic) self-access patterns.
    InvalidSelfReference {
        /// Stage name.
        func: String,
        /// Explanation.
        reason: String,
    },
    /// The supplied parameter values do not match the pipeline's declared
    /// parameters: too few (the missing ones are named) or too many (the
    /// extra value indices have no declared `ParamId`).
    ParamMismatch {
        /// Pipeline name (as reported by `Pipeline::name`).
        pipeline: String,
        /// Parameters the pipeline declares.
        expected: usize,
        /// Values supplied.
        got: usize,
        /// `(ParamId index, name)` of every declared parameter without a
        /// supplied value.
        missing: Vec<(usize, String)>,
        /// Indices of supplied values beyond the declared parameters.
        extra: Vec<usize>,
    },
    /// A stage domain or image extent evaluated to an empty/negative size.
    EmptyDomain {
        /// Stage or image name.
        name: String,
    },
    /// A stage reads or accumulates through an access the executor cannot
    /// address: more than [`polymage_vm::MAX_INDEX_TERMS`] data-dependent
    /// dimensions, or more than that many dimensions driven by one loop
    /// variable; or its kernel would run over a zero-dimensional loop (a
    /// stage without variables, a reduction over no variables).
    UnsupportedAccess {
        /// Stage name.
        func: String,
        /// Explanation.
        reason: String,
    },
    /// A [`crate::CompileOptions`] field holds a value the scheduler cannot
    /// use (empty or out-of-range tile sizes, a negative or non-finite
    /// overlap threshold).
    InvalidOptions {
        /// The offending `CompileOptions` field.
        field: &'static str,
        /// What was wrong with its value.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Ir(e) => write!(f, "specification error: {e}"),
            CompileError::Graph(e) => write!(f, "pipeline graph error: {e}"),
            CompileError::Bounds(vs) => {
                writeln!(f, "static bounds check failed ({} violations):", vs.len())?;
                for v in vs.iter().take(5) {
                    writeln!(f, "  {v}")?;
                }
                if vs.len() > 5 {
                    writeln!(f, "  …")?;
                }
                Ok(())
            }
            CompileError::InvalidSelfReference { func, reason } => {
                write!(f, "invalid self-reference in `{func}`: {reason}")
            }
            CompileError::ParamMismatch {
                pipeline,
                expected,
                got,
                missing,
                extra,
            } => {
                write!(
                    f,
                    "pipeline `{pipeline}` declares {expected} parameter(s), got {got} value(s)"
                )?;
                if !missing.is_empty() {
                    let names: Vec<String> = missing
                        .iter()
                        .map(|(i, n)| format!("`{n}` (#{i})"))
                        .collect();
                    write!(f, "; missing: {}", names.join(", "))?;
                }
                if !extra.is_empty() {
                    let idxs: Vec<String> = extra.iter().map(|i| format!("#{i}")).collect();
                    write!(f, "; extra value(s) at: {}", idxs.join(", "))?;
                }
                Ok(())
            }
            CompileError::EmptyDomain { name } => {
                write!(f, "domain of `{name}` is empty for the given parameters")
            }
            CompileError::UnsupportedAccess { func, reason } => {
                write!(f, "unsupported access in `{func}`: {reason}")
            }
            CompileError::InvalidOptions { field, reason } => {
                write!(f, "invalid compile option `{field}`: {reason}")
            }
        }
    }
}

impl CompileError {
    /// Builds a [`CompileError::ParamMismatch`] naming the missing
    /// parameters (by `ParamId` index and pipeline name) and the indices
    /// of any extra values.
    pub(crate) fn param_mismatch(pipe: &polymage_ir::Pipeline, got: usize) -> CompileError {
        let names = pipe.params();
        CompileError::ParamMismatch {
            pipeline: pipe.name().to_string(),
            expected: names.len(),
            got,
            missing: names
                .iter()
                .enumerate()
                .skip(got)
                .map(|(i, n)| (i, n.clone()))
                .collect(),
            extra: (names.len()..got).collect(),
        }
    }
}

impl Error for CompileError {}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Ir(e)
    }
}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> Self {
        CompileError::Graph(e)
    }
}
