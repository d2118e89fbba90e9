//! A naive reference interpreter for pipeline specifications.
//!
//! Evaluates every stage point-by-point into full buffers, with no fusion,
//! tiling, or vectorization, so tests can use it as a semantic oracle: for
//! every pipeline, `compile(...)` run on an `Engine` must agree with
//! [`interpret`] **bit for bit**, under every schedule and SIMD level, at
//! the same requested thread count.
//!
//! What an operator means is shared, not reimplemented: values go through
//! the op table of `polymage_ir` (`BinOp::eval`, `UnOp::eval`,
//! `CmpOp::eval`, `Reduction::combine`, the store and index conversions),
//! the same definitions the engine evaluates. Everything else stays
//! independent of the compiler: indexing, case regions, the absence of
//! tiling, and storage (one full buffer per stage).
//!
//! Semantics mirrored from the engine:
//! - all arithmetic in `f32`; data-free index expressions are evaluated
//!   exactly in `i64` with floor division; an index argument that reads
//!   data is evaluated in `f32` (`/` floors, casts round) and converted
//!   once, by the table's index conversion;
//! - values outside every case's guard are 0 ("undefined");
//! - cases are applied in order (each writes where its guard holds);
//! - dynamic indices clamp into the producer's domain;
//! - stores saturate/round per declared scalar type;
//! - reductions split their outer dimension into the row chunks of
//!   [`polymage_vm::reduction_chunks`] at the requested thread count, sweep
//!   each chunk row-major from the identity into its own partial and
//!   combine the partials in ascending order (one partial is the output);
//!   self-referential stages scan row-major.

use crate::CompileError;
use polymage_graph::PipelineGraph;
use polymage_ir::{
    index_convert, round_ties_away, store_convert, visit_exprs, BinOp, Cond, Expr, FuncBody,
    FuncId, Pipeline, Source, UnOp, VarId,
};
use polymage_poly::{narrow_rect_by_cond, Rect};
use polymage_vm::{reduction_chunks, Buffer};
use std::collections::HashMap;

struct Interp<'a> {
    pipe: &'a Pipeline,
    params: &'a [i64],
    images: &'a [Buffer],
    /// The run's requested thread count, which fixes how reductions split.
    threads: usize,
    values: HashMap<FuncId, Buffer>,
}

impl Interp<'_> {
    fn dom(&self, f: FuncId) -> Rect {
        Rect::new(
            self.pipe
                .func(f)
                .var_dom
                .dom
                .iter()
                .map(|iv| iv.eval(self.params))
                .collect(),
        )
    }

    fn source_buffer(&self, s: Source) -> &Buffer {
        match s {
            Source::Image(i) => &self.images[i.index()],
            Source::Func(f) => self.values.get(&f).expect("producer evaluated"),
        }
    }

    /// Reads a producer at the given (rounded, clamped) coordinates.
    fn read(&self, s: Source, idx: &[i64]) -> f32 {
        let buf = self.source_buffer(s);
        let clamped: Vec<i64> = idx
            .iter()
            .zip(buf.rect.ranges())
            .map(|(&i, &(lo, hi))| i.clamp(lo, hi))
            .collect();
        buf.at(&clamped)
    }

    fn eval_value(&self, e: &Expr, vars: &[VarId], pt: &[i64]) -> f32 {
        match e {
            Expr::Const(c) => *c as f32,
            Expr::Param(p) => self.params[p.index()] as f32,
            Expr::Var(v) => {
                let d = vars.iter().position(|u| u == v).expect("bound variable");
                pt[d] as f32
            }
            Expr::Unary(op, a) => op.eval(self.eval_value(a, vars, pt)),
            Expr::Binary(op, a, b) => {
                op.eval(self.eval_value(a, vars, pt), self.eval_value(b, vars, pt))
            }
            Expr::Select(c, a, b) => {
                if self.eval_cond(c, vars, pt) {
                    self.eval_value(a, vars, pt)
                } else {
                    self.eval_value(b, vars, pt)
                }
            }
            Expr::Cast(ty, a) => {
                let (sat, round) = ty.store_rule();
                store_convert(self.eval_value(a, vars, pt), sat, round)
            }
            Expr::Call(src, args) => {
                let idx: Vec<i64> = args.iter().map(|a| self.eval_index(a, vars, pt)).collect();
                self.read(*src, &idx)
            }
        }
    }

    /// Index-position evaluation: floor semantics. An argument that reads
    /// data is evaluated in `f32` ([`Interp::eval_index_f32`]) and converted
    /// once; a data-free one exactly, in `i64`.
    fn eval_index(&self, e: &Expr, vars: &[VarId], pt: &[i64]) -> i64 {
        if reads_data(e) {
            return index_convert(self.eval_index_f32(e, vars, pt));
        }
        match e {
            Expr::Binary(BinOp::Div, a, b) => {
                let x = self.eval_index(a, vars, pt);
                let y = self.eval_index(b, vars, pt);
                if y == 0 {
                    0
                } else {
                    x.div_euclid(y)
                }
            }
            Expr::Binary(op, a, b) => {
                let x = self.eval_index(a, vars, pt);
                let y = self.eval_index(b, vars, pt);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::Mod => {
                        if y == 0 {
                            0
                        } else {
                            x.rem_euclid(y)
                        }
                    }
                    BinOp::Pow => index_convert(op.eval(x as f32, y as f32)),
                    BinOp::Div => unreachable!(),
                }
            }
            Expr::Var(v) => {
                let d = vars.iter().position(|u| u == v).expect("bound variable");
                pt[d]
            }
            Expr::Const(c) => *c as i64,
            Expr::Param(p) => self.params[p.index()],
            Expr::Cast(_, a) => self.eval_index(a, vars, pt),
            Expr::Unary(UnOp::Neg, a) => -self.eval_index(a, vars, pt),
            Expr::Select(c, a, b) => {
                if self.eval_cond(c, vars, pt) {
                    self.eval_index(a, vars, pt)
                } else {
                    self.eval_index(b, vars, pt)
                }
            }
            other => index_convert(self.eval_value(other, vars, pt)),
        }
    }

    /// An index argument in `f32`, the way the compiler lowers one that
    /// reads data: `/` floors, casts round, everything else is its value.
    fn eval_index_f32(&self, e: &Expr, vars: &[VarId], pt: &[i64]) -> f32 {
        match e {
            Expr::Binary(op, a, b) => {
                let x = self.eval_index_f32(a, vars, pt);
                let y = self.eval_index_f32(b, vars, pt);
                match op {
                    BinOp::Div => UnOp::Floor.eval(op.eval(x, y)),
                    _ => op.eval(x, y),
                }
            }
            Expr::Unary(op, a) => op.eval(self.eval_index_f32(a, vars, pt)),
            Expr::Cast(_, a) => round_ties_away(self.eval_index_f32(a, vars, pt)),
            Expr::Select(c, a, b) => {
                if self.eval_cond(c, vars, pt) {
                    self.eval_index_f32(a, vars, pt)
                } else {
                    self.eval_index_f32(b, vars, pt)
                }
            }
            other => self.eval_value(other, vars, pt),
        }
    }

    fn eval_cond(&self, c: &Cond, vars: &[VarId], pt: &[i64]) -> bool {
        match c {
            Cond::Cmp(op, a, b) => {
                let x = self.eval_value(a, vars, pt);
                let y = self.eval_value(b, vars, pt);
                op.eval(x, y)
            }
            Cond::And(a, b) => self.eval_cond(a, vars, pt) && self.eval_cond(b, vars, pt),
            Cond::Or(a, b) => self.eval_cond(a, vars, pt) || self.eval_cond(b, vars, pt),
            Cond::Not(a) => !self.eval_cond(a, vars, pt),
        }
    }

    fn eval_func(&mut self, f: FuncId) {
        let fd = self.pipe.func(f);
        let dom = self.dom(f);
        let mut buf = Buffer::zeros(dom.clone());
        match &fd.body {
            FuncBody::Undefined => {}
            FuncBody::Cases(cases) => {
                let vars = &fd.var_dom.vars;
                let (sat, round) = fd.ty.store_rule();
                // Temporarily park the (zeroed or partially written) buffer
                // so self-referential stages can read it while we scan.
                self.values.insert(f, buf);
                for case in cases {
                    // Narrow to the guard's box to skip trivially-false rows,
                    // then test the residual guard per point.
                    let region = match &case.cond {
                        Some(c) => narrow_rect_by_cond(c, vars, &dom, self.params),
                        None => polymage_poly::NarrowedRect {
                            rect: dom.clone(),
                            exact: true,
                            steps: vec![(1, 0); dom.ndim()],
                        },
                    };
                    let pts: Vec<Vec<i64>> = region.rect.points().collect();
                    for pt in pts {
                        // stride (parity) constraints from the guard
                        let on_stride = pt
                            .iter()
                            .zip(&region.steps)
                            .all(|(&c, &(s, ph))| (c - ph).rem_euclid(s) == 0);
                        if !on_stride {
                            continue;
                        }
                        let ok = region.exact
                            || match &case.cond {
                                Some(c) => self.eval_cond(c, vars, &pt),
                                None => true,
                            };
                        if !ok {
                            continue;
                        }
                        let v = store_convert(self.eval_value(&case.expr, vars, &pt), sat, round);
                        // write through the parked buffer
                        let b = self.values.get_mut(&f).expect("parked");
                        let flat = flat_index(&b.rect, &pt);
                        b.data[flat] = v;
                    }
                }
                return;
            }
            FuncBody::Reduce(acc) => {
                let red = Rect::new(acc.red_dom.iter().map(|iv| iv.eval(self.params)).collect());
                // The engine's row chunks at the same thread count (a
                // domain without dimensions has no rows to split).
                let chunks: Vec<Rect> = match red.ndim() {
                    0 => vec![red],
                    _ => reduction_chunks(red.range(0), self.threads)
                        .into_iter()
                        .map(|rows| {
                            let mut chunk = red.clone();
                            *chunk.range_mut(0) = rows;
                            chunk
                        })
                        .collect(),
                };
                let mut parts: Vec<Vec<f32>> = chunks
                    .iter()
                    .map(|chunk| {
                        let mut part = vec![acc.op.identity(); buf.data.len()];
                        for pt in chunk.points() {
                            let target: Vec<i64> = acc
                                .target
                                .iter()
                                .zip(dom.ranges())
                                .map(|(t, &(lo, hi))| {
                                    self.eval_index(t, &acc.red_vars, &pt).clamp(lo, hi)
                                })
                                .collect();
                            let v = self.eval_value(&acc.value, &acc.red_vars, &pt);
                            let flat = flat_index(&dom, &target);
                            part[flat] = acc.op.combine(part[flat], v);
                        }
                        part
                    })
                    .collect();
                // One partial is the output; more are combined into the
                // identity in ascending chunk order.
                if parts.len() == 1 {
                    buf.data = parts.remove(0);
                } else {
                    buf.data.fill(acc.op.identity());
                    for part in &parts {
                        for (o, p) in buf.data.iter_mut().zip(part) {
                            *o = acc.op.combine(*o, *p);
                        }
                    }
                }
                acc.op.finish(&mut buf.data);
            }
        }
        self.values.insert(f, buf);
    }
}

/// Whether `e` reads an image or a stage anywhere, guards included.
fn reads_data(e: &Expr) -> bool {
    let mut found = false;
    visit_exprs(e, &mut |x| found |= matches!(x, Expr::Call(..)));
    found
}

fn flat_index(rect: &Rect, pt: &[i64]) -> usize {
    let mut idx = 0i64;
    let mut stride = 1i64;
    for d in (0..pt.len()).rev() {
        let (lo, hi) = rect.range(d);
        idx += (pt[d] - lo) * stride;
        stride *= hi - lo + 1;
    }
    idx as usize
}

/// Interprets a pipeline directly (the testing oracle).
///
/// Returns the live-out buffers in declaration order, like
/// [`polymage_vm::RunHandle::join`] of a run requested with
/// `RunRequest::threads(threads)`: `threads` only fixes how reductions
/// split into partials, so a float sum rounds as the engine's does.
///
/// ```
/// use polymage_ir::*;
/// use polymage_core::interp::interpret;
/// use polymage_vm::Buffer;
/// use polymage_poly::Rect;
///
/// let mut p = PipelineBuilder::new("double");
/// let img = p.image("I", ScalarType::Float, vec![PAff::cst(4)]);
/// let x = p.var("x");
/// let f = p.func("f", &[(x, Interval::cst(0, 3))], ScalarType::Float);
/// p.define(f, vec![Case::always(Expr::at(img, [x + 0]) * 2.0)])?;
/// let pipe = p.finish(&[f])?;
/// let input = Buffer::from_vec(Rect::new(vec![(0, 3)]), vec![1.0, 2.0, 3.0, 4.0]);
/// let out = interpret(&pipe, &[], &[input], 1)?;
/// assert_eq!(out[0].data, vec![2.0, 4.0, 6.0, 8.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`CompileError::Graph`] for cyclic specifications and
/// [`CompileError::ParamMismatch`] for wrong parameter counts.
pub fn interpret(
    pipe: &Pipeline,
    params: &[i64],
    inputs: &[Buffer],
    threads: usize,
) -> Result<Vec<Buffer>, CompileError> {
    if params.len() != pipe.params().len() {
        return Err(CompileError::param_mismatch(pipe, params.len()));
    }
    let graph = PipelineGraph::build(pipe)?;
    let mut interp = Interp {
        pipe,
        params,
        images: inputs,
        threads,
        values: HashMap::new(),
    };
    for &f in graph.topo_order() {
        interp.eval_func(f);
    }
    Ok(pipe
        .live_outs()
        .iter()
        .map(|f| interp.values.remove(f).expect("live-out evaluated"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymage_ir::{Case, Interval, PAff, PipelineBuilder, ScalarType};

    #[test]
    fn simple_pointwise() {
        let mut p = PipelineBuilder::new("t");
        let img = p.image("I", ScalarType::Float, vec![PAff::cst(4)]);
        let x = p.var("x");
        let f = p.func("f", &[(x, Interval::cst(0, 3))], ScalarType::Float);
        p.define(f, vec![Case::always(Expr::at(img, [x + 0]) * 2.0 + 1.0)])
            .unwrap();
        let pipe = p.finish(&[f]).unwrap();
        let input = Buffer::from_vec(Rect::new(vec![(0, 3)]), vec![1.0, 2.0, 3.0, 4.0]);
        let out = interpret(&pipe, &[], &[input], 1).unwrap();
        assert_eq!(out[0].data, vec![3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn guarded_cases_zero_fill() {
        let mut p = PipelineBuilder::new("t");
        let x = p.var("x");
        let f = p.func("f", &[(x, Interval::cst(0, 9))], ScalarType::Float);
        p.define(
            f,
            vec![
                Case::new(Expr::from(x).ge(3) & Expr::from(x).le(6), Expr::from(x)),
                Case::new(Expr::from(x).gt(6), Expr::Const(99.0)),
            ],
        )
        .unwrap();
        let pipe = p.finish(&[f]).unwrap();
        let out = interpret(&pipe, &[], &[], 1).unwrap();
        assert_eq!(
            out[0].data,
            vec![0.0, 0.0, 0.0, 3.0, 4.0, 5.0, 6.0, 99.0, 99.0, 99.0]
        );
    }

    #[test]
    fn time_iterated_self_reference() {
        let mut p = PipelineBuilder::new("t");
        let (t, x) = (p.var("t"), p.var("x"));
        let f = p.func(
            "f",
            &[(t, Interval::cst(0, 3)), (x, Interval::cst(0, 4))],
            ScalarType::Float,
        );
        p.define(
            f,
            vec![
                Case::new(Expr::from(t).le(0), Expr::from(x)),
                Case::new(Expr::from(t).ge(1), Expr::at(f, [t - 1, x + 0]) * 2.0),
            ],
        )
        .unwrap();
        let pipe = p.finish(&[f]).unwrap();
        let out = interpret(&pipe, &[], &[], 1).unwrap();
        // f(3, x) = x * 8
        assert_eq!(out[0].at(&[3, 4]), 32.0);
        assert_eq!(out[0].at(&[3, 1]), 8.0);
    }

    /// `f(x) = I(I(x)·3 + 1)`: the index argument reads data, so it is
    /// evaluated in `f32` and rounded once, as the engine and the emitted C
    /// do — not rounded at the inner load and then multiplied in `i64`.
    fn data_index_pipeline() -> Pipeline {
        let mut p = PipelineBuilder::new("t");
        let img = p.image("I", ScalarType::Float, vec![PAff::cst(8)]);
        let x = p.var("x");
        let f = p.func("f", &[(x, Interval::cst(0, 7))], ScalarType::Float);
        let arg = Expr::at(img, [Expr::from(x)]) * 3.0 + 1.0;
        p.define(f, vec![Case::always(Expr::at(img, [arg]))])
            .unwrap();
        p.finish(&[f]).unwrap()
    }

    #[test]
    fn data_dependent_index_is_evaluated_in_f32() {
        let i = vec![0.3, 0.6, 1.2, 1.4, 0.0, 2.0, 0.5, 1.0];
        let input = Buffer::from_vec(Rect::new(vec![(0, 7)]), i);
        let out = interpret(&data_index_pipeline(), &[], &[input], 1).unwrap();
        assert_eq!(out[0].data, vec![1.2, 1.4, 2.0, 2.0, 0.6, 1.0, 1.4, 0.0]);
    }

    #[test]
    fn data_dependent_index_saturates() {
        // ±1e30·3 saturates and clamps to the ends; NaN indexes 0.
        let i = vec![1e30, -1e30, f32::NAN, 0.0, 0.0, 0.0, 0.0, 5.0];
        let input = Buffer::from_vec(Rect::new(vec![(0, 7)]), i);
        let out = interpret(&data_index_pipeline(), &[], &[input], 1).unwrap();
        assert_eq!(out[0].data[..3], [5.0, 1e30, 1e30]);
    }

    #[test]
    fn histogram() {
        let mut p = PipelineBuilder::new("t");
        let img = p.image("I", ScalarType::UChar, vec![PAff::cst(8)]);
        let (x, b) = (p.var("x"), p.var("b"));
        let acc = polymage_ir::Accumulate {
            red_vars: vec![x],
            red_dom: vec![Interval::cst(0, 7)],
            target: vec![Expr::at(img, [Expr::from(x)])],
            value: Expr::Const(1.0),
            op: polymage_ir::Reduction::Sum,
        };
        let h = p
            .accumulator("hist", &[(b, Interval::cst(0, 3))], ScalarType::Int, acc)
            .unwrap();
        let pipe = p.finish(&[h]).unwrap();
        let input = Buffer::from_vec(
            Rect::new(vec![(0, 7)]),
            vec![0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 0.0],
        );
        // Counts are exact however the rows split into partials.
        for threads in 1..=3 {
            let out = interpret(&pipe, &[], std::slice::from_ref(&input), threads).unwrap();
            assert_eq!(out[0].data, vec![2.0, 2.0, 1.0, 3.0], "threads {threads}");
        }
    }
}
