//! # PolyMage-rs
//!
//! A Rust reproduction of *PolyMage: Automatic Optimization for Image
//! Processing Pipelines* (Mullapudi, Vasista, Bondhugula — ASPLOS 2015):
//! a DSL for image-processing pipelines, a polyhedral optimizing compiler
//! (grouping, overlapped tiling, storage optimization), an execution
//! engine, and an autotuner.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! - [`ir`]: the embedded DSL ([`ir::PipelineBuilder`], expressions,
//!   accumulators);
//! - [`poly`]: the polyhedral substrate (affine forms, alignment/scaling,
//!   overlap analysis);
//! - [`graph`]: the stage DAG, bounds checking, inlining;
//! - [`core`]: the optimizing compiler ([`core::Session`],
//!   [`core::compile`]), reference interpreter, C emitter, autotuner;
//! - [`vm`]: the execution engine ([`vm::Engine`], [`vm::Buffer`]);
//! - [`diag`]: structured diagnostics ([`diag::Diag`] spans, counters, and
//!   the chrome://tracing exporter) threaded through compile and runtime;
//! - [`apps`]: the paper's seven benchmark pipelines.
//!
//! ## Quickstart
//!
//! Hold a [`core::Session`] for repeated work: it owns a persistent
//! [`vm::Engine`] (pooled worker threads, recycled buffers) and an LRU
//! compile cache keyed by a stable content hash of the
//! `(Pipeline, CompileOptions)` pair — recompiling the same spec is free.
//!
//! ```
//! use polymage::ir::*;
//! use polymage::core::{CompileOptions, Session};
//! use polymage::vm::Buffer;
//! use polymage::poly::Rect;
//!
//! // blur(x) = (in(x−1) + in(x) + in(x+1)) / 3 over the interior
//! let mut p = PipelineBuilder::new("blur1d");
//! let n = p.param("N");
//! let img = p.image("in", ScalarType::Float, vec![PAff::param(n)]);
//! let x = p.var("x");
//! let dom = Interval::new(PAff::cst(1), PAff::param(n) - 2);
//! let blur = p.func("blur", &[(x, dom)], ScalarType::Float);
//! let e = (Expr::at(img, [x - 1]) + Expr::at(img, [x + 0]) + Expr::at(img, [x + 1]))
//!     * (1.0 / 3.0);
//! p.define(blur, vec![Case::always(e)])?;
//! let pipe = p.finish(&[blur])?;
//!
//! let session = Session::with_threads(2);
//! let opts = CompileOptions::optimized(vec![64]);
//! let input = Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|p| p[0] as f32);
//! let out = session.run(&pipe, &opts, &[input.clone()])?;
//! assert_eq!(out[0].at(&[10]), 10.0);
//!
//! // The second run reuses the pooled workers AND the cached program.
//! let again = session.run(&pipe, &opts, &[input])?;
//! assert_eq!(again[0].at(&[10]), 10.0);
//! assert_eq!(session.cache_stats().hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Without a session, a [`core::compile`]d program runs by submitting a
//! [`vm::RunRequest`] to a [`vm::Engine`] the caller holds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use polymage_apps as apps;
pub use polymage_core as core;
pub use polymage_diag as diag;
pub use polymage_graph as graph;
pub use polymage_ir as ir;
pub use polymage_poly as poly;
pub use polymage_vm as vm;
