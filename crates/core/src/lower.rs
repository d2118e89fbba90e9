//! Lowering of DSL expressions to chunked VM kernels.
//!
//! This is the compiler's code generation backend (the counterpart of the
//! paper's §3.7, which emits C++). Two semantic regimes exist:
//!
//! - *value* position: ordinary floating-point arithmetic;
//! - *index* position (access arguments, reduction targets): integer
//!   semantics — `/` is floor division, casts round.
//!
//! Accesses with affine indices become [`IdxPlan::Affine`] entries
//! (contiguous or strided loads); anything else is lowered as a value
//! computation feeding an [`IdxPlan::Reg`] gather (lookup tables, grid
//! slicing, histogram targets).

use polymage_ir::{BinOp, Cond, Expr, FuncId, Pipeline, ScalarType, Source, UnOp, VarId};
use polymage_poly::VAff;
use polymage_vm::{BufId, IdxPlan, Kernel, Op, RegId};
use std::collections::HashMap;

/// Buffer environment for lowering one stage.
#[derive(Debug, Clone)]
pub struct LowerEnv<'a> {
    /// The pipeline (for stage metadata).
    pub pipe: &'a Pipeline,
    /// Concrete parameter values.
    pub params: &'a [i64],
    /// Buffer of each input image.
    pub image_bufs: &'a [BufId],
    /// Scratch buffer of each stage in the *current* group (reads of these
    /// stay tile-local).
    pub func_scratch: &'a HashMap<FuncId, BufId>,
    /// Full buffer of every full-stored stage (cross-group reads).
    pub func_full: &'a HashMap<FuncId, BufId>,
    /// The consumer's variables, in loop-dimension order.
    pub vars: &'a [VarId],
}

/// Incremental kernel builder. Emission is purely *structural*: one op per
/// expression node, duplicates and all — repeated stencil loads, cloned
/// interpolation weights, condition subtrees shared with the value. Sharing
/// them is the job of the kernel optimizer's CSE pass
/// (`polymage_vm::opt`), which keeps lowering trivially correct and makes
/// the cleanup measurable (its report counts ops before and after).
/// [`KernelBuilder::finish`] builds through `Kernel::new`, so even the
/// structural form carries its dependence masks.
pub struct KernelBuilder<'a> {
    env: &'a LowerEnv<'a>,
    ops: Vec<Op>,
    next: u16,
    reads: Vec<BufId>,
    param_sensitive: bool,
}

impl<'a> KernelBuilder<'a> {
    /// Starts a builder for the given environment.
    pub fn new(env: &'a LowerEnv<'a>) -> Self {
        KernelBuilder {
            env,
            ops: Vec::new(),
            next: 0,
            reads: Vec::new(),
            param_sensitive: false,
        }
    }

    /// Whether any emitted op depends on the concrete parameter values
    /// (`Expr::Param` constants, parametric affine load offsets). A kernel
    /// built from a param-insensitive expression is byte-identical for
    /// every parameter binding, so `instantiate` can reuse it verbatim
    /// across sizes; sensitive kernels are re-lowered per binding.
    pub fn param_sensitive(&self) -> bool {
        self.param_sensitive
    }

    fn fresh(&mut self) -> RegId {
        let r = RegId(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("kernel register budget exceeded (64k)");
        r
    }

    /// Emits an operation into a fresh register.
    fn emit(&mut self, build: impl Fn(RegId) -> Op) -> RegId {
        let d = self.fresh();
        self.ops.push(build(d));
        d
    }

    /// Finishes the kernel with the given outputs.
    pub fn finish(self, outs: Vec<RegId>) -> (Kernel, Vec<BufId>) {
        (Kernel::new(self.ops, outs), self.reads)
    }

    /// Lowers an expression in value position.
    pub fn value(&mut self, e: &Expr) -> RegId {
        match e {
            Expr::Const(c) => {
                let val = *c as f32;
                self.emit(|d| Op::ConstF { dst: d, val })
            }
            Expr::Param(p) => {
                let val = self.env.params[p.index()] as f32;
                self.param_sensitive = true;
                self.emit(|d| Op::ConstF { dst: d, val })
            }
            Expr::Var(v) => {
                let dim = self
                    .env
                    .vars
                    .iter()
                    .position(|&u| u == *v)
                    .expect("variable used outside its stage's domain");
                self.emit(|d| Op::CoordF { dst: d, dim })
            }
            Expr::Unary(op, a) => {
                let ra = self.value(a);
                self.emit(|d| Op::UnF {
                    op: *op,
                    dst: d,
                    a: ra,
                })
            }
            Expr::Binary(op, a, b) => {
                let ra = self.value(a);
                let rb = self.value(b);
                self.emit(|d| Op::BinF {
                    op: *op,
                    dst: d,
                    a: ra,
                    b: rb,
                })
            }
            Expr::Select(c, a, b) => {
                let m = self.cond(c);
                let ra = self.value(a);
                let rb = self.value(b);
                self.emit(|d| Op::SelectF {
                    dst: d,
                    mask: m,
                    a: ra,
                    b: rb,
                })
            }
            Expr::Cast(ty, a) => {
                let ra = self.value(a);
                self.cast(*ty, ra)
            }
            Expr::Call(src, args) => self.load(*src, args),
        }
    }

    /// Lowers an expression in *index* position: `/` floors, casts round.
    pub fn index(&mut self, e: &Expr) -> RegId {
        match e {
            Expr::Binary(BinOp::Div, a, b) => {
                let ra = self.index(a);
                let rb = self.index(b);
                let q = self.emit(|d| Op::BinF {
                    op: BinOp::Div,
                    dst: d,
                    a: ra,
                    b: rb,
                });
                self.emit(|d| Op::UnF {
                    op: UnOp::Floor,
                    dst: d,
                    a: q,
                })
            }
            Expr::Binary(op, a, b) => {
                let ra = self.index(a);
                let rb = self.index(b);
                self.emit(|d| Op::BinF {
                    op: *op,
                    dst: d,
                    a: ra,
                    b: rb,
                })
            }
            Expr::Unary(op, a) => {
                let ra = self.index(a);
                self.emit(|d| Op::UnF {
                    op: *op,
                    dst: d,
                    a: ra,
                })
            }
            Expr::Cast(_, a) => {
                let ra = self.index(a);
                self.emit(|d| Op::CastRound { dst: d, a: ra })
            }
            Expr::Select(c, a, b) => {
                let m = self.cond(c);
                let ra = self.index(a);
                let rb = self.index(b);
                self.emit(|d| Op::SelectF {
                    dst: d,
                    mask: m,
                    a: ra,
                    b: rb,
                })
            }
            // Calls in index position load *values* used as indices (e.g.
            // hist(I(x,y))); the loaded value participates in integer
            // context by rounding at the gather.
            other => self.value(other),
        }
    }

    /// Lowers a condition to a 0.0/1.0 mask register.
    pub fn cond(&mut self, c: &Cond) -> RegId {
        match c {
            Cond::Cmp(op, a, b) => {
                let ra = self.value(a);
                let rb = self.value(b);
                self.emit(|d| Op::CmpMask {
                    op: *op,
                    dst: d,
                    a: ra,
                    b: rb,
                })
            }
            Cond::And(a, b) => {
                let ra = self.cond(a);
                let rb = self.cond(b);
                self.emit(|d| Op::MaskAnd {
                    dst: d,
                    a: ra,
                    b: rb,
                })
            }
            Cond::Or(a, b) => {
                let ra = self.cond(a);
                let rb = self.cond(b);
                self.emit(|d| Op::MaskOr {
                    dst: d,
                    a: ra,
                    b: rb,
                })
            }
            Cond::Not(a) => {
                let ra = self.cond(a);
                self.emit(|d| Op::MaskNot { dst: d, a: ra })
            }
        }
    }

    /// Lowers a cast to the target type's store conversion.
    fn cast(&mut self, ty: ScalarType, a: RegId) -> RegId {
        match ty.store_rule() {
            (Some((lo, hi)), _) => self.emit(|d| Op::CastSat { dst: d, a, lo, hi }),
            (None, true) => self.emit(|d| Op::CastRound { dst: d, a }),
            (None, false) => a, // float-to-float: no-op in the f32 engine
        }
    }

    /// Lowers a value access to a [`Op::Load`].
    fn load(&mut self, src: Source, args: &[Expr]) -> RegId {
        let buf = self.buffer_of(src);
        if !self.reads.contains(&buf) {
            self.reads.push(buf);
        }
        let mut plan = Vec::with_capacity(args.len());
        for a in args {
            plan.push(self.plan_dim(a));
        }
        self.emit(move |d| Op::Load {
            dst: d,
            buf,
            plan: plan.clone(),
        })
    }

    /// The buffer an access resolves to: scratch for in-group producers,
    /// full otherwise.
    fn buffer_of(&self, src: Source) -> BufId {
        match src {
            Source::Image(i) => self.env.image_bufs[i.index()],
            Source::Func(f) => {
                if let Some(&b) = self.env.func_scratch.get(&f) {
                    b
                } else if let Some(&b) = self.env.func_full.get(&f) {
                    b
                } else {
                    panic!(
                        "stage `{}` read but has no storage (compiler bug)",
                        self.env.pipe.func(f).name
                    )
                }
            }
        }
    }

    /// One access-dimension plan: affine when analyzable, else a register
    /// gather.
    fn plan_dim(&mut self, arg: &Expr) -> IdxPlan {
        if let Some(a) = VAff::from_expr(arg) {
            let all_known = a.terms.iter().all(|(v, _)| self.env.vars.contains(v));
            if all_known {
                match (a.single_var(), a.is_const()) {
                    (Some((v, q)), _) => {
                        let dim = self.env.vars.iter().position(|&u| u == v);
                        if a.cst.as_const().is_none() {
                            self.param_sensitive = true;
                        }
                        return IdxPlan::Affine {
                            dim,
                            q,
                            o: a.cst.eval(self.env.params),
                            m: a.den,
                        };
                    }
                    (None, true) => {
                        if a.cst.as_const().is_none() {
                            self.param_sensitive = true;
                        }
                        return IdxPlan::Affine {
                            dim: None,
                            q: 0,
                            o: a.cst.eval(self.env.params),
                            m: a.den,
                        };
                    }
                    _ => {} // multi-variable affine: fall through to gather
                }
            }
        }
        IdxPlan::Reg(self.index(arg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymage_ir::{Case, Interval, PAff, PipelineBuilder};

    fn env_fixture() -> (Pipeline, FuncId, Vec<VarId>) {
        let mut p = PipelineBuilder::new("t");
        let _r = p.param("R");
        let img = p.image("I", ScalarType::Float, vec![PAff::cst(64), PAff::cst(64)]);
        let (x, y) = (p.var("x"), p.var("y"));
        let d = Interval::cst(0, 63);
        let f = p.func("f", &[(x, d.clone()), (y, d)], ScalarType::Float);
        p.define(
            f,
            vec![Case::always(
                Expr::at(img, [x + 1, Expr::from(y)]) * 2.0
                    + Expr::Param(polymage_ir::ParamId::from_index(0)),
            )],
        )
        .unwrap();
        let pipe = p.finish(&[f]).unwrap();
        (pipe, f, vec![x, y])
    }

    #[test]
    fn lowers_affine_access_and_param() {
        let (pipe, f, vars) = env_fixture();
        let scratch = HashMap::new();
        let full = HashMap::new();
        let env = LowerEnv {
            pipe: &pipe,
            params: &[100],
            image_bufs: &[BufId(0)],
            func_scratch: &scratch,
            func_full: &full,
            vars: &vars,
        };
        let mut b = KernelBuilder::new(&env);
        let case = match &pipe.func(f).body {
            polymage_ir::FuncBody::Cases(cs) => &cs[0],
            _ => unreachable!(),
        };
        let out = b.value(&case.expr);
        let (k, reads) = b.finish(vec![out]);
        assert_eq!(reads, vec![BufId(0)]);
        // Expect a Load with plan [Affine dim0 o=1, Affine dim1 o=0] and a
        // ConstF 100 for the parameter.
        let load = k
            .ops
            .iter()
            .find_map(|op| match op {
                Op::Load { plan, .. } => Some(plan.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            load[0],
            IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 1,
                m: 1
            }
        );
        assert_eq!(
            load[1],
            IdxPlan::Affine {
                dim: Some(1),
                q: 1,
                o: 0,
                m: 1
            }
        );
        assert!(k
            .ops
            .iter()
            .any(|op| matches!(op, Op::ConstF { val, .. } if *val == 100.0)));
    }

    #[test]
    fn index_semantics_floor_division() {
        let (pipe, _f, vars) = env_fixture();
        let scratch = HashMap::new();
        let full = HashMap::new();
        let env = LowerEnv {
            pipe: &pipe,
            params: &[100],
            image_bufs: &[BufId(0)],
            func_scratch: &scratch,
            func_full: &full,
            vars: &vars,
        };
        let mut b = KernelBuilder::new(&env);
        // value-position division: no floor
        let e = Expr::from(vars[0]) / 2;
        let _ = b.value(&e);
        assert!(!b.ops.iter().any(|op| matches!(
            op,
            Op::UnF {
                op: UnOp::Floor,
                ..
            }
        )));
        // index-position division: floored
        let mut b2 = KernelBuilder::new(&env);
        let _ = b2.index(&e);
        assert!(b2.ops.iter().any(|op| matches!(
            op,
            Op::UnF {
                op: UnOp::Floor,
                ..
            }
        )));
    }

    #[test]
    fn dynamic_access_becomes_gather() {
        let (pipe, _f, vars) = env_fixture();
        let scratch = HashMap::new();
        let full = HashMap::new();
        let env = LowerEnv {
            pipe: &pipe,
            params: &[100],
            image_bufs: &[BufId(0)],
            func_scratch: &scratch,
            func_full: &full,
            vars: &vars,
        };
        let mut b = KernelBuilder::new(&env);
        // I(x*x, y): non-affine first index
        let x = Expr::from(vars[0]);
        let e = Expr::at(
            polymage_ir::ImageId::from_index(0),
            [x.clone() * x, Expr::from(vars[1])],
        );
        let _ = b.value(&e);
        let load = b
            .ops
            .iter()
            .find_map(|op| match op {
                Op::Load { plan, .. } => Some(plan.clone()),
                _ => None,
            })
            .unwrap();
        assert!(matches!(load[0], IdxPlan::Reg(_)));
        assert!(matches!(load[1], IdxPlan::Affine { .. }));
    }

    #[test]
    fn param_sensitivity_is_tracked() {
        let (pipe, f, vars) = env_fixture();
        let scratch = HashMap::new();
        let full = HashMap::new();
        let env = LowerEnv {
            pipe: &pipe,
            params: &[100],
            image_bufs: &[BufId(0)],
            func_scratch: &scratch,
            func_full: &full,
            vars: &vars,
        };
        // The fixture's case mentions Expr::Param → sensitive.
        let case = match &pipe.func(f).body {
            polymage_ir::FuncBody::Cases(cs) => &cs[0],
            _ => unreachable!(),
        };
        let mut b = KernelBuilder::new(&env);
        let _ = b.value(&case.expr);
        assert!(b.param_sensitive());
        // A plain constant-offset access is parameter-independent.
        let mut b2 = KernelBuilder::new(&env);
        let img = polymage_ir::ImageId::from_index(0);
        let _ = b2.value(&Expr::at(img, [Expr::from(vars[0]), Expr::from(vars[1])]));
        assert!(!b2.param_sensitive());
        // A parametric access offset (I(x + R, y)) is sensitive even
        // without a Param in value position.
        let mut b3 = KernelBuilder::new(&env);
        let r = Expr::Param(polymage_ir::ParamId::from_index(0));
        let _ = b3.value(&Expr::at(
            img,
            [Expr::from(vars[0]) + r, Expr::from(vars[1])],
        ));
        assert!(b3.param_sensitive());
    }

    #[test]
    fn cast_lowering_variants() {
        let (pipe, _f, vars) = env_fixture();
        let scratch = HashMap::new();
        let full = HashMap::new();
        let env = LowerEnv {
            pipe: &pipe,
            params: &[0],
            image_bufs: &[BufId(0)],
            func_scratch: &scratch,
            func_full: &full,
            vars: &vars,
        };
        let mut b = KernelBuilder::new(&env);
        let x = Expr::from(vars[0]);
        let _ = b.value(&x.clone().cast(ScalarType::UChar));
        assert!(b
            .ops
            .iter()
            .any(|op| matches!(op, Op::CastSat { hi, .. } if *hi == 255.0)));
        let _ = b.value(&x.clone().cast(ScalarType::Int));
        assert!(b.ops.iter().any(|op| matches!(op, Op::CastRound { .. })));
        let n = b.ops.len();
        let _ = b.value(&x.cast(ScalarType::Float));
        // float-to-float cast adds no op of its own — only the operand's
        // CoordF is emitted
        assert_eq!(b.ops.len(), n + 1);
    }
}
