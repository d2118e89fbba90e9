//! Human-readable compilation reports (grouping structure, storage, tiles).
//!
//! The paper communicates its results partly through the *structure* the
//! compiler finds — e.g. Fig. 8's grouping of the Pyramid Blending pipeline.
//! [`CompileReport`] exposes that structure programmatically (tests pin it
//! down) and as text/dot renderings.

use crate::GroupKindTag;
use std::fmt;

/// Report for one scheduled group.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Sink stage name.
    pub sink: String,
    /// All member stage names (pipeline order).
    pub stages: Vec<String>,
    /// Execution class.
    pub kind: GroupKindTag,
    /// Effective tile size per sink dimension (`None` = untiled).
    pub tile_sizes: Vec<Option<i64>>,
    /// Per group dimension: (left, right) overlap in scheduled units.
    pub overlap: Vec<(i64, i64)>,
    /// Estimated redundant-computation fraction for the effective tile
    /// sizes (`∏(τ+o)/∏τ − 1`); `0.0` for non-normal or untiled groups.
    pub overlap_ratio: f64,
    /// Scratchpad bytes allocated per thread for this group.
    pub scratch_bytes: usize,
    /// Full-array bytes allocated for this group's outputs.
    pub full_bytes: usize,
    /// Per-thread scratch arena bytes after liveness folding (at most the
    /// 64-byte-aligned sum of `scratch_bytes`; `0` for non-tiled groups).
    pub scratch_folded_bytes: usize,
    /// Number of shared arena slots after folding (`0` for non-tiled
    /// groups).
    pub scratch_slots: usize,
    /// The cache model's predicted per-tile working set in bytes for the
    /// chosen tile shape (`0` when the group was not model-tiled: under
    /// `TileSpec::Fixed`, for non-normal groups, or when the whole group
    /// fits the cache budget).
    pub predicted_working_set: usize,
    /// `true` when the cache model found no shape satisfying every
    /// constraint and fell back to the fixed baseline.
    pub tile_model_fallback: bool,
}

/// Phase provenance of a compiled artifact: which parameter estimates the
/// size-independent plan (phase 1) was built with, which concrete values
/// the instantiation (phase 2) bound, and how many kernels the bind could
/// reuse verbatim from the plan versus re-specialize for the bound
/// geometry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Provenance {
    /// Parameter estimates the plan's heuristics (grouping, tile choice,
    /// kernel prototypes) used.
    pub estimates: Vec<i64>,
    /// Concrete parameter values this instance was bound to.
    pub params: Vec<i64>,
    /// Optimized kernels taken verbatim from the plan's prototypes.
    pub kernels_reused: usize,
    /// Optimized kernels rebuilt at bind time (parameter-sensitive, or the
    /// bound geometry's fixed-dimension signature diverged).
    pub kernels_respecialized: usize,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_vec = |v: &[i64]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "plan@[{}] bound@[{}] kernels reused={} respecialized={}",
            fmt_vec(&self.estimates),
            fmt_vec(&self.params),
            self.kernels_reused,
            self.kernels_respecialized
        )
    }
}

/// The complete compilation report.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Stages inlined by the front-end.
    pub inlined: Vec<String>,
    /// Stages dropped as dead code.
    pub dead: Vec<String>,
    /// Scheduled groups, in execution order.
    pub groups: Vec<GroupReport>,
    /// Per-kernel optimizer statistics, one per kernel in program order.
    pub kernels: Vec<polymage_vm::KernelOptReport>,
    /// The SIMD level the compiled program dispatches to (environment
    /// override and host clamping already applied).
    pub simd: polymage_vm::SimdLevel,
    /// Estimated peak bytes of concurrently resident full buffers under
    /// the program's acquire/release schedule (input images included).
    pub peak_full_bytes: usize,
    /// Which estimates planned this artifact, which values bound it, and
    /// the kernel reuse/respecialization split.
    pub provenance: Provenance,
}

impl CompileReport {
    /// Group sizes (number of stages per group).
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.stages.len()).collect()
    }

    /// Finds the group containing a stage by name.
    pub fn group_of(&self, stage: &str) -> Option<&GroupReport> {
        self.groups
            .iter()
            .find(|g| g.stages.iter().any(|s| s == stage))
    }

    /// Pairs each group report with its measured wall-clock duration from
    /// an execution's [`polymage_vm::RunStats`] (both are in execution
    /// order). Groups beyond the shorter list are dropped, so an empty
    /// `group_times` (a run submitted with per-group stats off) yields an
    /// empty profile.
    pub fn with_timings<'a>(
        &'a self,
        stats: &polymage_vm::RunStats,
    ) -> Vec<(&'a GroupReport, std::time::Duration)> {
        self.groups
            .iter()
            .zip(&stats.group_times)
            .map(|(g, (_, d))| (g, *d))
            .collect()
    }

    /// The model's predicted redundancy fraction for the whole pipeline:
    /// the maximum per-group overlap ratio (the group that dominates
    /// redundant recomputation). `0.0` when nothing fused.
    pub fn predicted_overlap(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| g.overlap_ratio)
            .fold(0.0, f64::max)
    }

    /// Total ops removed by the kernel optimizer across all kernels.
    pub fn ops_eliminated(&self) -> usize {
        self.kernels.iter().map(|k| k.eliminated_ops()).sum()
    }

    /// Total registers removed by compaction across all kernels.
    pub fn regs_eliminated(&self) -> usize {
        self.kernels.iter().map(|k| k.eliminated_regs()).sum()
    }

    /// Load-class histogram merged over all kernels.
    pub fn load_histogram(&self) -> polymage_vm::LoadHistogram {
        let mut h = polymage_vm::LoadHistogram::default();
        for k in &self.kernels {
            h.merge(&k.loads);
        }
        h
    }

    /// Renders the grouping as Graphviz clusters (Fig. 8 style).
    pub fn grouping_dot(&self) -> String {
        let mut s = String::from("digraph grouping {\n");
        for (i, g) in self.groups.iter().enumerate() {
            s.push_str(&format!(
                "  subgraph cluster_{i} {{ label=\"{} ({:?})\";\n",
                g.sink, g.kind
            ));
            for st in &g.stages {
                s.push_str(&format!("    \"{st}\";\n"));
            }
            s.push_str("  }\n");
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.inlined.is_empty() {
            writeln!(f, "inlined: {}", self.inlined.join(", "))?;
        }
        if !self.dead.is_empty() {
            writeln!(f, "dead: {}", self.dead.join(", "))?;
        }
        for (i, g) in self.groups.iter().enumerate() {
            let tiles: Vec<String> = g
                .tile_sizes
                .iter()
                .map(|t| t.map_or("-".to_string(), |v| v.to_string()))
                .collect();
            let ov: Vec<String> = g.overlap.iter().map(|(l, r)| format!("{l}+{r}")).collect();
            let model = if g.predicted_working_set > 0 {
                format!(
                    " model_ws={}B{}",
                    g.predicted_working_set,
                    if g.tile_model_fallback {
                        " (fallback)"
                    } else {
                        ""
                    }
                )
            } else {
                String::new()
            };
            writeln!(
                f,
                "group {i} [{:?}] sink={} tiles=({}) overlap=({}) \
                 scratch={}B folded={}B/{} slots full={}B{}: {}",
                g.kind,
                g.sink,
                tiles.join(","),
                ov.join(","),
                g.scratch_bytes,
                g.scratch_folded_bytes,
                g.scratch_slots,
                g.full_bytes,
                model,
                g.stages.join(" ")
            )?;
        }
        writeln!(f, "simd: {}", self.simd)?;
        writeln!(f, "peak full bytes: {}", self.peak_full_bytes)?;
        writeln!(f, "provenance: {}", self.provenance)?;
        if !self.kernels.is_empty() {
            writeln!(
                f,
                "kernel opt: {} ops / {} regs eliminated, loads [{}]",
                self.ops_eliminated(),
                self.regs_eliminated(),
                self.load_histogram()
            )?;
            for k in &self.kernels {
                writeln!(f, "  {k}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompileReport {
        CompileReport {
            inlined: vec!["a".into()],
            dead: vec![],
            groups: vec![GroupReport {
                sink: "out".into(),
                stages: vec!["b".into(), "out".into()],
                kind: GroupKindTag::Normal,
                tile_sizes: vec![Some(32), Some(256)],
                overlap: vec![(2, 2), (2, 2)],
                overlap_ratio: 0.07,
                scratch_bytes: 1024,
                full_bytes: 4096,
                scratch_folded_bytes: 512,
                scratch_slots: 1,
                predicted_working_set: 98304,
                tile_model_fallback: false,
            }],
            kernels: vec![],
            simd: polymage_vm::SimdLevel::Scalar,
            peak_full_bytes: 8192,
            provenance: Provenance {
                estimates: vec![64, 64],
                params: vec![128, 128],
                kernels_reused: 3,
                kernels_respecialized: 1,
            },
        }
    }

    #[test]
    fn queries() {
        let r = sample();
        assert_eq!(r.group_sizes(), vec![2]);
        assert!(r.group_of("b").is_some());
        assert!(r.group_of("zzz").is_none());
        assert!((r.predicted_overlap() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn renders() {
        let r = sample();
        let text = r.to_string();
        assert!(text.contains("inlined: a"));
        assert!(text.contains("sink=out"));
        assert!(text.contains("simd: scalar"));
        assert!(text.contains("folded=512B/1 slots"));
        assert!(text.contains("model_ws=98304B"));
        assert!(text.contains("peak full bytes: 8192"));
        assert!(text
            .contains("provenance: plan@[64,64] bound@[128,128] kernels reused=3 respecialized=1"));
        let dot = r.grouping_dot();
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("\"out\""));
    }
}
