//! # polymage-ir
//!
//! The expression IR and embedded DSL of PolyMage-rs, a Rust reproduction of
//! *PolyMage: Automatic Optimization for Image Processing Pipelines*
//! (Mullapudi, Vasista, Bondhugula — ASPLOS 2015).
//!
//! The paper embeds its DSL in Python; we embed it in Rust. The constructs
//! map one-to-one:
//!
//! | Paper construct | This crate |
//! |---|---|
//! | `Parameter(Int)` | [`PipelineBuilder::param`] |
//! | `Image(Float, [R+2, C+2])` | [`PipelineBuilder::image`] |
//! | `Variable()` | [`PipelineBuilder::var`] |
//! | `Interval(0, R+1, 1)` | [`Interval`] |
//! | `Condition(x, '>=', 1) & ...` | [`Cond`] built from [`Expr`] comparisons |
//! | `Function(varDom=..., Float)` + `Case` | [`PipelineBuilder::func`] with [`Case`]s |
//! | `Stencil(I(x,y), w, [[..]])` | [`stencil`] helper |
//! | `Accumulator` / `Accumulate` | [`PipelineBuilder::accumulator`] |
//!
//! A finished [`Pipeline`] is a pure data structure: the compiler crates
//! (`polymage-graph`, `polymage-poly`, `polymage-core`) consume it to build
//! the stage DAG, the polyhedral representation, and finally an optimized
//! executable program.
//!
//! ## Example: a 3×3 box blur
//!
//! ```
//! use polymage_ir::*;
//!
//! let mut p = PipelineBuilder::new("blur");
//! let (r, c) = (p.param("R"), p.param("C"));
//! let img = p.image("I", ScalarType::Float, vec![PAff::param(r), PAff::param(c)]);
//! let (x, y) = (p.var("x"), p.var("y"));
//! let row = Interval::new(PAff::cst(1), PAff::param(r) - 2);
//! let col = Interval::new(PAff::cst(1), PAff::param(c) - 2);
//! let blur = p.func("blur", &[(x, row), (y, col)], ScalarType::Float);
//! let e = stencil(img, &[x, y], 1.0 / 9.0, &[[1, 1, 1], [1, 1, 1], [1, 1, 1]]);
//! p.define(blur, vec![Case::always(e)])?;
//! let pipe = p.finish(&[blur])?;
//! assert_eq!(pipe.funcs().len(), 1);
//! # Ok::<(), polymage_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cond;
mod display;
mod error;
mod expr;
mod function;
mod id;
mod ops;
mod paff;
mod pipeline;
mod stable_hash;
mod stencil;
mod types;
mod visit;

pub use cond::{CmpOp, Cond};
pub use display::{ExprDisplay, PipelineDisplay};
pub use error::IrError;
pub use expr::{BinOp, Expr, UnOp};
pub use function::{Accumulate, Case, FuncBody, FuncDef, Reduction, VarDom};
pub use id::{FuncId, ImageId, ParamId, Source, VarId};
pub use ops::{index_convert, round_ties_away, store_convert};
pub use paff::{Interval, PAff};
pub use pipeline::{ImageDecl, Pipeline, PipelineBuilder};
pub use stable_hash::{StableHash, StableHasher};
pub use stencil::{stencil, stencil_1d, stencil_sep};
pub use types::ScalarType;
pub use visit::{visit_cond, visit_exprs, visit_func_exprs, ExprVisitor};
