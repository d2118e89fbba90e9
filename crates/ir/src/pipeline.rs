//! The pipeline specification builder and the finished [`Pipeline`].

use crate::{
    Accumulate, Case, FuncBody, FuncDef, FuncId, ImageId, Interval, IrError, PAff, ParamId,
    ScalarType, Source, VarDom, VarId,
};
use std::collections::HashSet;

/// Declaration of an input image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageDecl {
    /// Image name.
    pub name: String,
    /// Element type of the stored pixels.
    pub ty: ScalarType,
    /// Extent of each dimension; the valid index range of dimension `d` is
    /// `[0, extents[d] - 1]`.
    pub extents: Vec<PAff>,
}

/// Builder for a [`Pipeline`] specification.
///
/// Mirrors the flow of the paper's Python-embedded DSL: declare parameters,
/// images, and variables; declare functions with their variable domains;
/// define each function with piecewise cases (or build accumulators); then
/// [`PipelineBuilder::finish`] with the live-out functions.
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    name: String,
    params: Vec<String>,
    images: Vec<ImageDecl>,
    vars: Vec<String>,
    funcs: Vec<FuncDef>,
}

impl PipelineBuilder {
    /// Starts a new pipeline specification.
    pub fn new(name: impl Into<String>) -> Self {
        PipelineBuilder {
            name: name.into(),
            params: Vec::new(),
            images: Vec::new(),
            vars: Vec::new(),
            funcs: Vec::new(),
        }
    }

    /// Declares an integer pipeline parameter (the paper's `Parameter(Int)`).
    pub fn param(&mut self, name: impl Into<String>) -> ParamId {
        self.params.push(name.into());
        ParamId((self.params.len() - 1) as u32)
    }

    /// Declares an input image with one extent per dimension.
    pub fn image(
        &mut self,
        name: impl Into<String>,
        ty: ScalarType,
        extents: Vec<PAff>,
    ) -> ImageId {
        self.images.push(ImageDecl {
            name: name.into(),
            ty,
            extents,
        });
        ImageId((self.images.len() - 1) as u32)
    }

    /// Declares a domain variable (the paper's `Variable()`).
    pub fn var(&mut self, name: impl Into<String>) -> VarId {
        self.vars.push(name.into());
        VarId((self.vars.len() - 1) as u32)
    }

    /// Declares a function over the given variable domain.
    ///
    /// The function must later receive a body via [`PipelineBuilder::define`].
    pub fn func(
        &mut self,
        name: impl Into<String>,
        var_dom: &[(VarId, Interval)],
        ty: ScalarType,
    ) -> FuncId {
        let (vars, dom): (Vec<_>, Vec<_>) = var_dom.iter().cloned().unzip();
        self.funcs.push(FuncDef {
            name: name.into(),
            var_dom: VarDom { vars, dom },
            ty,
            body: FuncBody::Undefined,
        });
        FuncId((self.funcs.len() - 1) as u32)
    }

    /// Gives a declared function its piecewise definition.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::AlreadyDefined`] if the function already has a body
    /// and [`IrError::EmptyCases`] for an empty case list.
    pub fn define(&mut self, f: FuncId, cases: Vec<Case>) -> Result<(), IrError> {
        let fd = &mut self.funcs[f.index()];
        if !matches!(fd.body, FuncBody::Undefined) {
            return Err(IrError::AlreadyDefined(fd.name.clone()));
        }
        if cases.is_empty() {
            return Err(IrError::EmptyCases(fd.name.clone()));
        }
        fd.body = FuncBody::Cases(cases);
        Ok(())
    }

    /// Declares and defines an accumulator in one step (the paper's
    /// `Accumulator` + `Accumulate`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TargetArityMismatch`] if the number of target index
    /// expressions differs from the variable-domain dimensionality.
    pub fn accumulator(
        &mut self,
        name: impl Into<String>,
        var_dom: &[(VarId, Interval)],
        ty: ScalarType,
        acc: Accumulate,
    ) -> Result<FuncId, IrError> {
        let name = name.into();
        if acc.target.len() != var_dom.len() {
            return Err(IrError::TargetArityMismatch {
                func: name,
                targets: acc.target.len(),
                dims: var_dom.len(),
            });
        }
        let (vars, dom): (Vec<_>, Vec<_>) = var_dom.iter().cloned().unzip();
        self.funcs.push(FuncDef {
            name,
            var_dom: VarDom { vars, dom },
            ty,
            body: FuncBody::Reduce(acc),
        });
        Ok(FuncId((self.funcs.len() - 1) as u32))
    }

    /// Finalizes the specification, validating structural invariants.
    ///
    /// # Errors
    ///
    /// Reports duplicate names, undefined functions, arity mismatches,
    /// repeated domain variables, unknown or missing live-outs.
    pub fn finish(self, live_outs: &[FuncId]) -> Result<Pipeline, IrError> {
        if live_outs.is_empty() {
            return Err(IrError::NoLiveOuts);
        }
        let mut seen = HashSet::new();
        for n in self
            .params
            .iter()
            .chain(self.images.iter().map(|i| &i.name))
            .chain(self.funcs.iter().map(|f| &f.name))
        {
            if !seen.insert(n.clone()) {
                return Err(IrError::DuplicateName(n.clone()));
            }
        }
        for f in &self.funcs {
            if matches!(f.body, FuncBody::Undefined) {
                return Err(IrError::UndefinedFunction(f.name.clone()));
            }
            if f.var_dom.vars.len() != f.var_dom.dom.len() {
                return Err(IrError::DomainArityMismatch {
                    func: f.name.clone(),
                    vars: f.var_dom.vars.len(),
                    intervals: f.var_dom.dom.len(),
                });
            }
            let mut vs = HashSet::new();
            for v in &f.var_dom.vars {
                if !vs.insert(*v) {
                    return Err(IrError::RepeatedVariable {
                        func: f.name.clone(),
                        var: self.vars[v.index()].clone(),
                    });
                }
            }
            if let FuncBody::Reduce(acc) = &f.body {
                let mut rs = HashSet::new();
                for v in &acc.red_vars {
                    if !rs.insert(*v) {
                        return Err(IrError::RepeatedVariable {
                            func: f.name.clone(),
                            var: self.vars[v.index()].clone(),
                        });
                    }
                }
            }
        }
        for lo in live_outs {
            if lo.index() >= self.funcs.len() {
                return Err(IrError::UnknownLiveOut(format!("{lo}")));
            }
        }
        let mut live: Vec<FuncId> = Vec::new();
        for lo in live_outs {
            if !live.contains(lo) {
                live.push(*lo);
            }
        }
        Ok(Pipeline {
            name: self.name,
            params: self.params,
            images: self.images,
            vars: self.vars,
            funcs: self.funcs,
            live_outs: live,
        })
    }
}

/// A finished, validated pipeline specification.
///
/// This is a pure description; compile it with `polymage-core` to obtain an
/// executable program.
#[derive(Debug, Clone)]
pub struct Pipeline {
    name: String,
    params: Vec<String>,
    images: Vec<ImageDecl>,
    vars: Vec<String>,
    funcs: Vec<FuncDef>,
    live_outs: Vec<FuncId>,
}

impl Pipeline {
    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of the declared parameters, indexable by [`ParamId::index`].
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Declared input images, indexable by [`ImageId::index`].
    pub fn images(&self) -> &[ImageDecl] {
        &self.images
    }

    /// Names of the declared variables, indexable by [`VarId::index`].
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// All stages, indexable by [`FuncId::index`].
    pub fn funcs(&self) -> &[FuncDef] {
        &self.funcs
    }

    /// The live-out (output) stages.
    pub fn live_outs(&self) -> &[FuncId] {
        &self.live_outs
    }

    /// Looks up a stage.
    pub fn func(&self, f: FuncId) -> &FuncDef {
        &self.funcs[f.index()]
    }

    /// Stage ids in declaration order.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len()).map(FuncId::from_index)
    }

    /// Human-readable name of a source (stage or image).
    pub fn source_name(&self, s: Source) -> &str {
        match s {
            Source::Func(f) => &self.funcs[f.index()].name,
            Source::Image(i) => &self.images[i.index()].name,
        }
    }

    /// A deterministic structural hash of the whole specification.
    ///
    /// Two pipelines built through identical builder calls hash equal, and
    /// the hash is stable across processes and platforms (no random state),
    /// which is what makes it usable as a compile-cache key in
    /// `polymage_core::Session`. Any structural change — a constant, a
    /// domain bound, a stage name, the live-out set — changes the hash.
    pub fn content_hash(&self) -> u64 {
        use crate::stable_hash::{StableHash, StableHasher};
        let mut h = StableHasher::new();
        self.name.stable_hash(&mut h);
        self.params.stable_hash(&mut h);
        self.images.stable_hash(&mut h);
        self.vars.stable_hash(&mut h);
        self.funcs.stable_hash(&mut h);
        self.live_outs.stable_hash(&mut h);
        h.finish()
    }

    /// A stable identifier for one stage, usable in diagnostic span
    /// payloads: combines the pipeline's [`Pipeline::content_hash`] with
    /// the stage's name, so the id survives process restarts and
    /// distinguishes like-named stages of structurally different
    /// pipelines. Arena indices alone are not stable across front-end
    /// transforms (inlining renumbers the survivors).
    pub fn stage_uid(&self, f: FuncId) -> u64 {
        use crate::stable_hash::{StableHash, StableHasher};
        let mut h = StableHasher::new();
        h.write_u64(self.content_hash());
        self.funcs[f.index()].name.stable_hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stencil, Expr};

    fn harris_like() -> Result<Pipeline, IrError> {
        let mut p = PipelineBuilder::new("t");
        let r = p.param("R");
        let c = p.param("C");
        let img = p.image(
            "I",
            ScalarType::Float,
            vec![PAff::param(r) + 2, PAff::param(c) + 2],
        );
        let x = p.var("x");
        let y = p.var("y");
        let row = Interval::new(PAff::cst(0), PAff::param(r) + 1);
        let col = Interval::new(PAff::cst(0), PAff::param(c) + 1);
        let g = p.func(
            "g",
            &[(x, row.clone()), (y, col.clone())],
            ScalarType::Float,
        );
        let e = stencil(
            img,
            &[x, y],
            1.0 / 12.0,
            &[[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]],
        );
        let cond = Expr::from(x).ge(1)
            & Expr::from(x).le(Expr::Param(r))
            & Expr::from(y).ge(1)
            & Expr::from(y).le(Expr::Param(c));
        p.define(g, vec![Case::new(cond, e)])?;
        let h = p.func("h", &[(x, row), (y, col)], ScalarType::Float);
        p.define(h, vec![Case::always(Expr::at(g, [x + 0, y + 0]) * 2.0)])?;
        p.finish(&[h])
    }

    #[test]
    fn builds_and_validates() {
        let p = harris_like().unwrap();
        assert_eq!(p.funcs().len(), 2);
        assert_eq!(p.live_outs().len(), 1);
        assert_eq!(p.params(), &["R".to_string(), "C".to_string()]);
        assert_eq!(p.source_name(Source::Func(p.live_outs()[0])), "h");
    }

    #[test]
    fn rejects_undefined_function() {
        let mut p = PipelineBuilder::new("t");
        let x = p.var("x");
        let f = p.func("f", &[(x, Interval::cst(0, 10))], ScalarType::Float);
        let err = p.finish(&[f]).unwrap_err();
        assert_eq!(err, IrError::UndefinedFunction("f".into()));
    }

    #[test]
    fn rejects_double_define() {
        let mut p = PipelineBuilder::new("t");
        let x = p.var("x");
        let f = p.func("f", &[(x, Interval::cst(0, 10))], ScalarType::Float);
        p.define(f, vec![Case::always(1.0)]).unwrap();
        let err = p.define(f, vec![Case::always(2.0)]).unwrap_err();
        assert_eq!(err, IrError::AlreadyDefined("f".into()));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut p = PipelineBuilder::new("t");
        let x = p.var("x");
        let f = p.func("f", &[(x, Interval::cst(0, 10))], ScalarType::Float);
        let g = p.func("f", &[(x, Interval::cst(0, 10))], ScalarType::Float);
        p.define(f, vec![Case::always(1.0)]).unwrap();
        p.define(g, vec![Case::always(2.0)]).unwrap();
        let err = p.finish(&[f]).unwrap_err();
        assert_eq!(err, IrError::DuplicateName("f".into()));
    }

    #[test]
    fn rejects_empty_cases_and_no_liveouts() {
        let mut p = PipelineBuilder::new("t");
        let x = p.var("x");
        let f = p.func("f", &[(x, Interval::cst(0, 10))], ScalarType::Float);
        assert_eq!(
            p.define(f, vec![]).unwrap_err(),
            IrError::EmptyCases("f".into())
        );
        p.define(f, vec![Case::always(1.0)]).unwrap();
        assert_eq!(p.clone().finish(&[]).unwrap_err(), IrError::NoLiveOuts);
    }

    #[test]
    fn rejects_repeated_domain_variable() {
        let mut p = PipelineBuilder::new("t");
        let x = p.var("x");
        let f = p.func(
            "f",
            &[(x, Interval::cst(0, 10)), (x, Interval::cst(0, 10))],
            ScalarType::Float,
        );
        p.define(f, vec![Case::always(1.0)]).unwrap();
        assert!(matches!(
            p.finish(&[f]),
            Err(IrError::RepeatedVariable { .. })
        ));
    }

    #[test]
    fn live_outs_deduplicated() {
        let p = {
            let mut b = PipelineBuilder::new("t");
            let x = b.var("x");
            let f = b.func("f", &[(x, Interval::cst(0, 10))], ScalarType::Float);
            b.define(f, vec![Case::always(1.0)]).unwrap();
            b.finish(&[f, f]).unwrap()
        };
        assert_eq!(p.live_outs().len(), 1);
    }
}
