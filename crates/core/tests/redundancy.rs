//! Ties the §3.4 analysis to reality: the overlap ratio the grouping
//! heuristic *predicts* from dependence vectors must equal the redundant
//! computation the executor *actually performs* (measured by counting
//! every computed point against the useful domain volumes).

use polymage_core::{compile, CompileOptions};
use polymage_ir::*;
use polymage_poly::{group_overlap, solve_alignment, Rect};
use polymage_vm::{Buffer, Engine, RunRequest};

/// A chain of `depth` 3×3 box stencils over an `n × n` image.
fn chain(depth: usize, n: i64) -> Pipeline {
    let mut p = PipelineBuilder::new("chain");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(n), PAff::cst(n)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let mut prev: Source = img.into();
    let mut last = None;
    for i in 1..=depth as i64 {
        let d = Interval::cst(i, n - 1 - i);
        let f = p.func(
            format!("s{i}"),
            &[(x, d.clone()), (y, d)],
            ScalarType::Float,
        );
        p.define(
            f,
            vec![Case::always(stencil(
                prev,
                &[x, y],
                1.0 / 9.0,
                &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            ))],
        )
        .unwrap();
        prev = f.into();
        last = Some(f);
    }
    p.finish(&[last.unwrap()]).unwrap()
}

#[test]
fn measured_redundancy_matches_predicted_overlap() {
    let depth = 4;
    let n = 512i64;
    let pipe = chain(depth, n);
    let engine = Engine::with_threads(2);
    for tiles in [vec![32i64, 64], vec![64, 128], vec![32, 256]] {
        let mut opts = CompileOptions::optimized(vec![]);
        opts.tiles = polymage_core::TileSpec::Fixed(tiles.clone());
        opts.overlap_threshold = 10.0; // force full fusion
        let compiled = compile(&pipe, &opts).unwrap();
        assert_eq!(compiled.report.groups.len(), 1, "chain must fully fuse");

        // predicted redundancy from the §3.4 analysis
        let stages: Vec<FuncId> = pipe.func_ids().collect();
        let sink = *pipe.live_outs().first().unwrap();
        let al = solve_alignment(&pipe, &stages, sink).unwrap();
        let ov = group_overlap(&pipe, &stages, &al).unwrap();

        // measured: every computed point vs the useful domain volumes
        let input = Buffer::zeros(Rect::new(vec![(0, n - 1), (0, n - 1)]))
            .fill_with(|p| ((p[0] + p[1]) % 7) as f32);
        let (_, stats) = engine
            .submit(RunRequest::new(&compiled.program, &[input]))
            .and_then(|h| h.join_stats())
            .unwrap();
        let useful: i64 = pipe
            .func_ids()
            .map(|f| {
                Rect::new(
                    pipe.func(f)
                        .var_dom
                        .dom
                        .iter()
                        .map(|iv| iv.eval(&[]))
                        .collect(),
                )
                .volume()
            })
            .sum();
        let measured = stats.points_computed as f64 / useful as f64 - 1.0;
        let predicted = ov.overlap_ratio(&tiles);
        // The §3.4 estimate bounds the *deepest* stage's extension (the
        // widest recompute cone) — deliberately conservative, since it
        // gates fusion. Actual redundancy averages over all stages, whose
        // extensions grow linearly from 0 at the sink to the maximum at
        // the deepest producer, so the measurement sits near half the
        // prediction and never above it.
        assert!(
            measured <= predicted * 1.05 + 0.01,
            "tiles {tiles:?}: measured redundancy {measured:.4} exceeds \
             prediction {predicted:.4} — the bound would be unsound"
        );
        assert!(
            measured >= predicted * 0.3,
            "tiles {tiles:?}: measured redundancy {measured:.4} far below \
             prediction {predicted:.4} — the analysis would be meaningless"
        );
        // sanity on the other counters
        assert!(stats.tiles > 0 && stats.chunks > 0);
    }
}

#[test]
fn base_schedule_has_no_redundancy() {
    let pipe = chain(3, 256);
    let compiled = compile(&pipe, &CompileOptions::base(vec![])).unwrap();
    let input = Buffer::zeros(Rect::new(vec![(0, 255), (0, 255)])).fill_with(|p| (p[0] % 5) as f32);
    let (_, stats) = Engine::with_threads(2)
        .submit(RunRequest::new(&compiled.program, &[input]))
        .and_then(|h| h.join_stats())
        .unwrap();
    let useful: u64 = pipe
        .func_ids()
        .map(|f| {
            Rect::new(
                pipe.func(f)
                    .var_dom
                    .dom
                    .iter()
                    .map(|iv| iv.eval(&[]))
                    .collect(),
            )
            .volume() as u64
        })
        .sum();
    assert_eq!(
        stats.points_computed, useful,
        "unfused schedules compute every point exactly once"
    );
}
