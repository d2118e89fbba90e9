//! Developer inspection tool: compiler report, generated C (Fig. 7 style),
//! and program statistics for any benchmark. Compilation goes through the
//! two-phase path explicitly, so the size-independent
//! [`ParametricPlan`](polymage_core::ParametricPlan)
//! (symbolic bounds) is shown alongside the geometry it instantiates at
//! the benchmark's concrete parameters.

use polymage_bench::HarnessArgs;
use polymage_core::{emit_c, instantiate, plan, CacheModel, CompileOptions};

fn main() {
    let args = HarnessArgs::parse();
    let model = CacheModel::get();
    println!(
        "cache model (detected): L1 {} KiB, L2 {} KiB, {}-byte lines → \
         per-tile budget {} KiB, strip floor {} tiles; only groups whose whole \
         domain overflows the budget get model tiles",
        model.l1 / 1024,
        model.l2 / 1024,
        model.line,
        model.budget() / 1024,
        polymage_core::tilemodel::min_strip_tiles()
    );
    for b in args.benchmarks() {
        let params = b.params();
        let p = plan(
            b.pipeline(),
            &CompileOptions::optimized(params.clone()).with_estimates(params.clone()),
        )
        .expect("plan");
        let compiled = instantiate(&p, &params).expect("instantiate");
        println!("\n================ {} ================", b.name());
        if args.filter.is_some() {
            println!("--- specification ---\n{}\n", b.pipeline().display());
        }
        println!("--- parametric plan (symbolic bounds) ---");
        println!("{}", p.describe_symbolic());
        println!("--- instantiated at {params:?} ---");
        println!("{}", compiled.report);
        println!(
            "simd: dispatching {} (host supports: {})",
            compiled.report.simd,
            polymage_vm::available_simd_levels()
                .iter()
                .map(|l| l.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!(
            "buffers: {} ({} full bytes, {} scratch bytes/thread), groups: {}",
            compiled.program.buffers.len(),
            compiled.program.full_bytes(),
            compiled.program.scratch_bytes(),
            compiled.program.group_count()
        );
        println!(
            "storage: {} arena bytes/worker after folding, {} peak full bytes",
            compiled.program.arena_bytes(),
            compiled.report.peak_full_bytes
        );
        for g in &compiled.program.groups {
            let polymage_vm::GroupKind::Tiled(tg) = &g.kind else {
                continue;
            };
            let map: Vec<String> = tg
                .stages
                .iter()
                .zip(&tg.slots.stage)
                .map(|(s, r)| match r {
                    Some(r) => format!("{}→slot{}@{}+{}", s.name, r.slot, r.offset, r.len),
                    None => format!("{}→direct", s.name),
                })
                .collect();
            println!(
                "  {}: {} slots, {} arena f32s [{}]",
                g.name,
                tg.slots.nslots,
                tg.slots.arena_len,
                map.join(", ")
            );
        }
        let r = &compiled.report;
        let folded: usize = r.kernels.iter().map(|k| k.folded).sum();
        let simplified: usize = r.kernels.iter().map(|k| k.simplified).sum();
        println!(
            "optimizer: {} kernels, {} ops eliminated ({} folded, {} simplified), \
             {} regs eliminated, loads [{}]",
            r.kernels.len(),
            r.ops_eliminated(),
            folded,
            simplified,
            r.regs_eliminated(),
            r.load_histogram()
        );
        if args.filter.is_some() {
            println!("--- emitted C (Fig. 7 style, runnable) ---");
            println!("{}", emit_c(&compiled.program));
        }
    }
}
