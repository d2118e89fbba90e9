//! Profiles benchmark pipelines through the unified diagnostics layer:
//! compiles and runs each selected app with a recording [`Diag`] sink,
//! writes a chrome://tracing JSON trace per app, and prints a text summary
//! (slowest groups, worker utilization, measured redundancy, cache and
//! evaluator counters).
//!
//! ```text
//! cargo run --release --bin profile -- [--scale tiny|small|paper]
//!     [--filter NAME] [--threads N] [--runs N] [--out DIR]
//! ```
//!
//! Traces land in `results/profile/<app>.trace.json` by default; open them
//! at `chrome://tracing` or <https://ui.perfetto.dev>.

use polymage_apps::{all_benchmarks, Benchmark, Scale};
use polymage_core::{CompileOptions, GroupKindTag, Session};
use polymage_diag::{Counter, Diag, Recording};
use polymage_ir::Pipeline;
use polymage_vm::RunStats;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    scale: Scale,
    filter: Option<String>,
    threads: usize,
    runs: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut out = Args {
        scale: Scale::Small,
        filter: None,
        threads: 4,
        runs: 3,
        out: PathBuf::from("results/profile"),
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                out.scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    other => panic!("unknown scale {other:?}"),
                };
            }
            "--filter" => {
                i += 1;
                out.filter = Some(args[i].clone());
            }
            "--threads" => {
                i += 1;
                out.threads = args[i].parse().expect("thread count");
            }
            "--runs" => {
                i += 1;
                out.runs = args[i].parse().expect("runs");
            }
            "--out" => {
                i += 1;
                out.out = PathBuf::from(&args[i]);
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }
    out
}

/// Sum of the domain volumes of the named stages at the given parameters —
/// the "useful" point count the redundancy measurement divides by. Stages
/// inlined away by the front-end no longer appear in the report, so this
/// matches what the executor actually computes.
fn useful_points(pipe: &Pipeline, params: &[i64], names: &[&str]) -> u64 {
    pipe.func_ids()
        .filter(|&f| names.contains(&pipe.func(f).name.as_str()))
        .map(|f| {
            pipe.func(f)
                .var_dom
                .dom
                .iter()
                .map(|iv| {
                    let (lo, hi) = iv.eval(params);
                    (hi - lo + 1).max(0) as u64
                })
                .product::<u64>()
        })
        .sum()
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// One line per traced run, in submission order: the engine tags every
/// span and event with a `run_id`, so a trace holding many (possibly
/// concurrent) runs can still be split cleanly per tenant.
fn per_run_breakdown(rec: &Recording) {
    let ids = rec.run_ids();
    if ids.is_empty() {
        return;
    }
    println!("  per-run breakdown ({} runs traced):", ids.len());
    for id in ids {
        let mut wall_us = 0u64;
        let mut tiles = 0u64;
        let mut threads = 0u64;
        let mut groups = 0usize;
        let mut priority = "-";
        let mut wait_us = 0u64;
        for e in rec.events_for_run(id) {
            match e.name {
                "run" => {
                    wall_us = e.dur_us.unwrap_or(0);
                    tiles = e.arg("tiles").and_then(|v| v.as_u64()).unwrap_or(0);
                    threads = e.arg("nthreads").and_then(|v| v.as_u64()).unwrap_or(0);
                    priority = e.arg("priority").and_then(|v| v.as_str()).unwrap_or("-");
                    wait_us = e.arg("sched_wait_us").and_then(|v| v.as_u64()).unwrap_or(0);
                }
                "group" => groups += 1,
                _ => {}
            }
        }
        println!(
            "    run {id:>3}: {:>9.3} ms  {groups} groups, {tiles} tiles, \
             {threads} threads, {priority}, waited {:.3} ms",
            wall_us as f64 / 1e3,
            wait_us as f64 / 1e3,
        );
    }
    per_priority_latency(rec);
}

/// Latency percentiles of the traced runs, split by scheduling priority
/// (the engine stamps each `run` span with its band and admission wait).
fn per_priority_latency(rec: &Recording) {
    let mut by_band: std::collections::BTreeMap<String, (Vec<u64>, Vec<u64>)> =
        std::collections::BTreeMap::new();
    for e in rec.events_named("run") {
        let Some(wall) = e.dur_us else { continue };
        let band = e
            .arg("priority")
            .and_then(|v| v.as_str())
            .unwrap_or("-")
            .to_string();
        let wait = e.arg("sched_wait_us").and_then(|v| v.as_u64()).unwrap_or(0);
        let entry = by_band.entry(band).or_default();
        entry.0.push(wall);
        entry.1.push(wait);
    }
    if by_band.is_empty() {
        return;
    }
    let q = |sorted: &[u64], p: f64| -> f64 {
        let i = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[i] as f64 / 1e3
    };
    println!("  latency by priority:");
    for (band, (mut walls, waits)) in by_band {
        walls.sort_unstable();
        let mean_wait = waits.iter().sum::<u64>() as f64 / waits.len() as f64 / 1e3;
        println!(
            "    {band:<8} {:>3} runs: p50 {:>9.3} ms  p95 {:>9.3} ms  \
             mean sched wait {mean_wait:.3} ms",
            walls.len(),
            q(&walls, 0.50),
            q(&walls, 0.95),
        );
    }
}

fn summarize(b: &dyn Benchmark, session: &Session, stats: &RunStats, rec: &Recording) {
    let compiled = session
        .compile(b.pipeline(), &CompileOptions::optimized(b.params()))
        .expect("already compiled");

    // Slowest groups, by measured wall clock.
    let mut timed = compiled.report.with_timings(stats);
    timed.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
    println!("  slowest groups:");
    for (g, d) in timed.iter().take(3) {
        println!(
            "    {:<24} {:>9.3} ms  [{:?}] {} stages, overlap {}",
            g.sink,
            d.as_secs_f64() * 1e3,
            g.kind,
            g.stages.len(),
            pct(g.overlap_ratio),
        );
    }

    // Worker utilization: per-worker busy time over the total execution
    // window (sum of group wall-clock times, the coordinator's view).
    let window: Duration = stats.group_times.iter().map(|(_, d)| *d).sum();
    let busy_strs: Vec<String> = stats
        .worker_busy
        .iter()
        .map(|b| {
            if window.is_zero() {
                "-".to_string()
            } else {
                pct(b.as_secs_f64() / window.as_secs_f64())
            }
        })
        .collect();
    println!(
        "  worker utilization: [{}]  tiles/worker: {:?}",
        busy_strs.join(", "),
        stats.worker_tiles,
    );

    // Redundancy: points actually computed in tiled (Normal) groups vs.
    // the useful domain volumes of their member stages.
    let normal_stages: Vec<&str> = compiled
        .report
        .groups
        .iter()
        .filter(|g| g.kind == GroupKindTag::Normal)
        .flat_map(|g| g.stages.iter().map(String::as_str))
        .collect();
    let useful = useful_points(b.pipeline(), &b.params(), &normal_stages);
    if useful > 0 && stats.points_computed >= useful {
        let measured = stats.points_computed as f64 / useful as f64 - 1.0;
        println!(
            "  redundancy: measured {} vs model {} (points {} / useful {})",
            pct(measured),
            pct(compiled.report.predicted_overlap()),
            stats.points_computed,
            useful,
        );
    }

    // Counters from the diagnostics recording.
    println!(
        "  session: {} plan hits / {} plan misses; {} instance hits / {} \
         instance misses",
        rec.counter(Counter::PlanHit),
        rec.counter(Counter::PlanMiss),
        rec.counter(Counter::InstanceHit),
        rec.counter(Counter::InstanceMiss),
    );
    println!(
        "  pool: {} reuses / {} acquires; uniform cache: {} hits / {} misses",
        rec.counter(Counter::PoolReuse),
        rec.counter(Counter::PoolAcquire),
        rec.counter(Counter::UniformHit),
        rec.counter(Counter::UniformMiss),
    );
    println!(
        "  storage: {} scratch bytes/worker folded away; peak full bytes {} \
         (last run {}); early releases {} (last run {})",
        rec.counter(Counter::StorageFoldedBytes),
        rec.counter(Counter::StoragePeakBytes),
        stats.peak_full_bytes,
        rec.counter(Counter::StorageEarlyRelease),
        stats.early_releases,
    );
    println!(
        "  simd: {} (lanes avx2 {} / sse2 {} / neon {} / scalar {}; \
         indexed lanes vector {} / scalar {})",
        compiled.report.simd,
        rec.counter(Counter::SimdLanesAvx2),
        rec.counter(Counter::SimdLanesSse2),
        rec.counter(Counter::SimdLanesNeon),
        rec.counter(Counter::SimdLanesScalar),
        rec.counter(Counter::IndexLanesVector),
        rec.counter(Counter::IndexLanesScalar),
    );
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out).expect("create output directory");

    let benches: Vec<Box<dyn Benchmark>> = all_benchmarks(args.scale)
        .into_iter()
        .filter(|b| {
            args.filter
                .as_ref()
                .map(|f| b.name().to_lowercase().contains(&f.to_lowercase()))
                .unwrap_or(true)
        })
        .collect();
    if benches.is_empty() {
        panic!("no benchmark matches the filter");
    }

    for b in &benches {
        let diag = Diag::recorder();
        let session = Session::with_threads(args.threads).with_diag(diag.clone());
        let inputs = b.make_inputs(0xD1A6);
        let opts = CompileOptions::optimized(b.params());

        let mut last_stats = None;
        for _ in 0..args.runs.max(1) {
            let (_, stats) = session
                .run_stats(b.pipeline(), &opts, &inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            last_stats = Some(stats);
        }
        let stats = last_stats.expect("at least one run");

        let rec = diag.snapshot().expect("recording sink");
        let slug = b.name().to_lowercase().replace([' ', '/'], "-");
        let path = args.out.join(format!("{slug}.trace.json"));
        std::fs::write(&path, rec.to_chrome_json()).expect("write trace");

        println!(
            "{} ({} threads, {} runs; {} trace events) -> {}",
            b.name(),
            args.threads,
            args.runs,
            rec.events.len(),
            path.display(),
        );
        summarize(b.as_ref(), &session, &stats, &rec);
        per_run_breakdown(&rec);
        println!();
    }
}
