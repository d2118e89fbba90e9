//! Structural validation of compiled programs.
//!
//! The executor relies on a set of invariants the scheduler must establish:
//! regions inside domains, store rectangles covering full-stored domains
//! exactly once with strips disjoint along the slab dimension, kernels in
//! SSA form referencing declared buffers, scratch allocations large enough
//! for every tile region. [`validate_program`] audits all of them; tests
//! run it over every benchmark and every schedule configuration, so a
//! scheduler regression is caught as a named invariant violation rather
//! than a mysterious wrong pixel.

use polymage_vm::{BufKind, GroupKind, Kernel, Op, Program, TiledGroup};

/// One violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which group (by name).
    pub group: String,
    /// Description of the violated invariant.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.group, self.message)
    }
}

/// Audits a compiled program's structural invariants; returns all
/// violations (empty = valid).
pub fn validate_program(prog: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for group in &prog.groups {
        let mut push = |message: String| {
            out.push(Violation {
                group: group.name.clone(),
                message,
            });
        };
        match &group.kind {
            GroupKind::Tiled(tg) => validate_tiled(prog, tg, &mut push),
            GroupKind::Reduction(red) => {
                validate_kernel(prog, &red.kernel, &mut push);
                if red.kernel.outs.len() != 1 + prog.buffers[red.out.0].sizes.len() {
                    push(format!(
                        "reduction `{}` must produce one value and one index per \
                         output dimension",
                        red.name
                    ));
                }
            }
            GroupKind::Sequential(seq) => {
                for c in &seq.cases {
                    validate_kernel(prog, &c.kernel, &mut push);
                }
            }
        }
    }
    out
}

fn validate_tiled(prog: &Program, tg: &TiledGroup, push: &mut dyn FnMut(String)) {
    let nstages = tg.stages.len();
    for (k, st) in tg.stages.iter().enumerate() {
        for c in &st.cases {
            validate_kernel(prog, &c.kernel, push);
            if c.steps.len() != st.dom.ndim() {
                push(format!("stage `{}` case steps rank mismatch", st.name));
            }
            if let Some(m) = c.mask {
                if !c.kernel.outs.contains(&m) {
                    push(format!(
                        "stage `{}` mask register not among kernel outputs",
                        st.name
                    ));
                }
            }
        }
        if st.direct && st.full.is_none() {
            push(format!("direct stage `{}` has no full buffer", st.name));
        }
        if !st.direct {
            let decl = &prog.buffers[st.scratch.0];
            if decl.kind != BufKind::Scratch {
                push(format!(
                    "stage `{}` scratch id is not a scratch buffer",
                    st.name
                ));
            }
        }
        let _ = k;
    }

    // Slot-map invariants: every non-direct stage owns an in-bounds arena
    // range of exactly its scratch declaration's length, and stages whose
    // live ranges intersect (stage k is live from its own evaluation to the
    // last stage reading its scratchpad) occupy disjoint arena ranges.
    if tg.slots.stage.len() != nstages {
        push(format!(
            "slot map covers {} stages, group has {nstages}",
            tg.slots.stage.len()
        ));
    }
    let mut last_use: Vec<usize> = (0..nstages).collect();
    for (j, s) in tg.stages.iter().enumerate() {
        for &b in &s.reads {
            if let Some(k) = tg.stages.iter().position(|p| !p.direct && p.scratch == b) {
                last_use[k] = last_use[k].max(j);
            }
        }
    }
    for (k, st) in tg.stages.iter().enumerate() {
        let Some(r) = tg.slots.stage.get(k).copied().flatten() else {
            if !st.direct {
                push(format!("non-direct stage `{}` has no arena slot", st.name));
            }
            continue;
        };
        if st.direct {
            push(format!("direct stage `{}` has an arena slot", st.name));
            continue;
        }
        if r.len != prog.buffers[st.scratch.0].len() {
            push(format!(
                "stage `{}` slot length {} != scratch declaration {}",
                st.name,
                r.len,
                prog.buffers[st.scratch.0].len()
            ));
        }
        if r.offset + r.len > tg.slots.arena_len || r.slot >= tg.slots.nslots {
            push(format!(
                "stage `{}` slot {:?} out of arena bounds (len {}, {} slots)",
                st.name, r, tg.slots.arena_len, tg.slots.nslots
            ));
        }
        for (j, other) in tg.stages.iter().enumerate().skip(k + 1) {
            let Some(o) = tg.slots.stage.get(j).copied().flatten() else {
                continue;
            };
            // Intervals [k, last_use[k]] and [j, last_use[j]] with k < j
            // intersect iff stage k is still live when j evaluates.
            if last_use[k] >= j && r.offset < o.offset + o.len && o.offset < r.offset + r.len {
                push(format!(
                    "stages `{}` and `{}` are simultaneously live but share \
                     arena bytes ({:?} vs {:?})",
                    st.name, other.name, r, o
                ));
            }
        }
    }

    // Per-tile invariants.
    let mut strips_seen: i64 = -1;
    for (ti, t) in tg.tiles.iter().enumerate() {
        if t.regions.len() != nstages || t.stores.len() != nstages {
            push(format!("tile {ti} has wrong per-stage vector lengths"));
            continue;
        }
        if (t.strip as i64) < strips_seen {
            push(format!("tile {ti} breaks ascending strip order"));
        }
        strips_seen = strips_seen.max(t.strip as i64);
        for (k, st) in tg.stages.iter().enumerate() {
            let region = &t.regions[k];
            if region.is_empty() {
                continue;
            }
            if !st.dom.contains_rect(region) {
                push(format!(
                    "tile {ti}: stage `{}` region {} outside domain {}",
                    st.name, region, st.dom
                ));
            }
            if let Some(store) = &t.stores[k] {
                if !region.contains_rect(store) {
                    push(format!(
                        "tile {ti}: stage `{}` store {} outside its region {}",
                        st.name, store, region
                    ));
                }
            }
            // scratch must be big enough for the region
            if !st.direct {
                let decl = &prog.buffers[st.scratch.0];
                for d in 0..region.ndim() {
                    if region.extent(d) > decl.sizes[d] {
                        push(format!(
                            "tile {ti}: stage `{}` region {} exceeds scratch size \
                             {:?}",
                            st.name, region, decl.sizes
                        ));
                    }
                }
            }
        }
    }

    // Full-stored stages: stores must cover the domain exactly once, and be
    // disjoint across strips along dimension 0 (the slab dimension).
    for (k, st) in tg.stages.iter().enumerate() {
        let Some(_full) = st.full else { continue };
        if st.dom.is_empty() {
            continue;
        }
        // coverage via a point-count argument (exact cover ⇒ Σ|store| = |dom|
        // and every store ⊆ dom; overlaps would make the sum exceed it)
        let mut covered: i64 = 0;
        for t in &tg.tiles {
            if let Some(store) = &t.stores[k] {
                covered += store.volume();
                if !st.dom.contains_rect(store) {
                    push(format!(
                        "stage `{}` store {} outside domain",
                        st.name, store
                    ));
                }
            }
        }
        if covered != st.dom.volume() {
            push(format!(
                "stage `{}` stores cover {covered} of {} domain points \
                 (must be an exact partition)",
                st.name,
                st.dom.volume()
            ));
        }
        // strip-disjointness along dim 0
        let mut ranges: Vec<(usize, (i64, i64))> = Vec::new();
        for t in &tg.tiles {
            if let Some(store) = &t.stores[k] {
                if !store.is_empty() {
                    ranges.push((t.strip, store.range(0)));
                }
            }
        }
        for (i, &(s1, r1)) in ranges.iter().enumerate() {
            for &(s2, r2) in ranges.iter().skip(i + 1) {
                if s1 != s2 && r1.0 <= r2.1 && r2.0 <= r1.1 {
                    push(format!(
                        "stage `{}` rows {:?} (strip {s1}) and {:?} (strip {s2}) \
                         overlap across strips",
                        st.name, r1, r2
                    ));
                }
            }
        }
    }
}

fn validate_kernel(prog: &Program, k: &Kernel, push: &mut dyn FnMut(String)) {
    if k.dep.len() != k.nregs {
        push(format!(
            "kernel has {} dependence masks for {} registers",
            k.dep.len(),
            k.nregs
        ));
    }
    let mut defined = vec![false; k.nregs];
    for op in &k.ops {
        // SSA: operands defined before use, destination fresh
        op.for_each_src(|r| {
            if r.0 as usize >= k.nregs || !defined[r.0 as usize] {
                push(format!("kernel reads undefined register r{}", r.0));
            }
        });
        if let Op::Load { buf, plan, .. } = op {
            if buf.0 >= prog.buffers.len() {
                push(format!("kernel loads undeclared buffer {}", buf.0));
            } else if plan.len() != prog.buffers[buf.0].sizes.len() {
                push(format!(
                    "kernel load plan rank {} != buffer `{}` rank {}",
                    plan.len(),
                    prog.buffers[buf.0].name,
                    prog.buffers[buf.0].sizes.len()
                ));
            }
        }
        let dst = op.dst();
        if dst.0 as usize >= k.nregs {
            push(format!("kernel writes out-of-range register r{}", dst.0));
        } else if defined[dst.0 as usize] {
            push(format!("kernel violates SSA: r{} written twice", dst.0));
        } else {
            defined[dst.0 as usize] = true;
        }
    }
    for o in &k.outs {
        if o.0 as usize >= k.nregs || !defined[o.0 as usize] {
            push(format!("kernel output r{} never defined", o.0));
        }
    }
}

/// Convenience: validates and panics with a readable report on failure
/// (used by tests).
pub fn assert_valid(prog: &Program) {
    let vs = validate_program(prog);
    assert!(
        vs.is_empty(),
        "program `{}` violates {} invariant(s):\n{}",
        prog.name,
        vs.len(),
        vs.iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymage_poly::Rect;
    use polymage_vm::{BufDecl, CaseExec, GroupExec, RegId, StageExec, TileWork};

    fn tiny_prog() -> Program {
        // single direct stage writing a 1-D buffer with 2 strips
        let kernel = Kernel::new(
            vec![Op::ConstF {
                dst: RegId(0),
                val: 1.0,
            }],
            vec![RegId(0)],
        );
        let buffers = vec![BufDecl {
            name: "out".into(),
            kind: BufKind::Full,
            sizes: vec![8],
            origin: vec![0],
        }];
        let stages = vec![StageExec {
            name: "out".into(),
            scratch: polymage_vm::BufId(0),
            full: Some(polymage_vm::BufId(0)),
            direct: true,
            sat: None,
            round: false,
            cases: vec![CaseExec {
                rect: Rect::new(vec![(0, 7)]),
                steps: vec![(1, 0)],
                kernel,
                mask: None,
            }],
            dom: Rect::new(vec![(0, 7)]),
            reads: vec![],
        }];
        let tiles = vec![
            TileWork {
                strip: 0,
                regions: vec![Rect::new(vec![(0, 3)])],
                stores: vec![Some(Rect::new(vec![(0, 3)]))],
            },
            TileWork {
                strip: 1,
                regions: vec![Rect::new(vec![(4, 7)])],
                stores: vec![Some(Rect::new(vec![(4, 7)]))],
            },
        ];
        let tg = TiledGroup::new(stages, tiles, 2, &buffers);
        Program {
            name: "v".into(),
            buffers,
            image_bufs: vec![],
            groups: vec![GroupExec {
                name: "g".into(),
                kind: GroupKind::Tiled(tg),
            }],
            outputs: vec![("out".into(), polymage_vm::BufId(0))],
            mode: polymage_vm::EvalMode::Vector,
            simd: polymage_vm::process_simd_level(),
            storage: polymage_vm::StoragePlan::run_scoped(1),
        }
    }

    #[test]
    fn valid_program_passes() {
        assert!(validate_program(&tiny_prog()).is_empty());
    }

    #[test]
    fn detects_overlapping_stores() {
        let mut p = tiny_prog();
        if let GroupKind::Tiled(tg) = &mut p.groups[0].kind {
            tg.tiles[1].stores[0] = Some(Rect::new(vec![(3, 7)]));
            tg.tiles[1].regions[0] = Rect::new(vec![(3, 7)]);
        }
        let vs = validate_program(&p);
        assert!(
            vs.iter().any(|v| v.message.contains("exact partition")),
            "{vs:?}"
        );
        assert!(
            vs.iter()
                .any(|v| v.message.contains("overlap across strips")),
            "{vs:?}"
        );
    }

    #[test]
    fn detects_region_outside_domain() {
        let mut p = tiny_prog();
        if let GroupKind::Tiled(tg) = &mut p.groups[0].kind {
            tg.tiles[0].regions[0] = Rect::new(vec![(-1, 3)]);
        }
        let vs = validate_program(&p);
        assert!(
            vs.iter().any(|v| v.message.contains("outside domain")),
            "{vs:?}"
        );
    }

    #[test]
    fn detects_ssa_violations() {
        let mut p = tiny_prog();
        if let GroupKind::Tiled(tg) = &mut p.groups[0].kind {
            tg.stages[0].cases[0].kernel = Kernel::new(
                vec![
                    Op::ConstF {
                        dst: RegId(0),
                        val: 1.0,
                    },
                    Op::ConstF {
                        dst: RegId(0),
                        val: 2.0,
                    }, // double write
                ],
                vec![RegId(0)],
            );
        }
        let vs = validate_program(&p);
        assert!(vs.iter().any(|v| v.message.contains("SSA")), "{vs:?}");
        // undefined use
        let mut p = tiny_prog();
        if let GroupKind::Tiled(tg) = &mut p.groups[0].kind {
            tg.stages[0].cases[0].kernel = Kernel::new(
                vec![Op::UnF {
                    op: polymage_ir::UnOp::Neg,
                    dst: RegId(1),
                    a: RegId(0), // never defined
                }],
                vec![RegId(1)],
            );
        }
        let vs = validate_program(&p);
        assert!(
            vs.iter().any(|v| v.message.contains("undefined register")),
            "{vs:?}"
        );
    }
}
