//! Per-layer attribution from outside the program: what the traced pass
//! adds up from the `RunStats`, `CompileReport`, `CacheStats` and
//! `PoolStats` the public calls return, plus compiler probes run beside it.

use crate::apps::{run_once, Instance, RunTrace, Runner};
use crate::metrics::MetricSet;
use crate::spans::Recorder;
use crate::stats::{geomean, median, ms, ratio, us};
use polymage_core::{instantiate, plan, CacheStats, CompileOptions};
use polymage_vm::PoolStats;
use std::time::Instant;

/// What the benchmark expects `Session::compile` to find, by construction
/// of the workload; the `session.*` counts confirm it.
#[derive(Clone, Copy, PartialEq)]
pub enum CacheExpect {
    /// Warm: the bound program is cached.
    Hit,
    /// A new size of a planned pipeline: plan hit, then `instantiate`.
    Rebind,
    /// Nothing cached: `plan` and `instantiate` both run.
    Miss,
}

#[derive(Default)]
struct AppAcc {
    busy_ns: u64,
    points: u64,
    /// Per `threads(1)` run: wall from submit to join minus Σ group wall.
    outside_ms: Vec<f64>,
    /// Σ wall per group index, over every run of the app.
    group_ns: Vec<u64>,
}

/// Sums and samples over every run of a traced pass.
#[derive(Default)]
pub struct LayerAcc {
    tiles: u64,
    chunks: u64,
    points: u64,
    useful_points: u64,
    loads: [u64; 4],
    lanes_simd: u64,
    lanes_scalar: u64,
    uniform_hits: u64,
    uniform_misses: u64,
    busy_ns: u64,
    mt_busy_ns: u64,
    mt_group_ns: u64,
    early_releases: u64,
    peak_full_bytes: u64,
    submit_us: Vec<f64>,
    sched_wait_us: Vec<f64>,
    hit_us: Vec<f64>,
    rebind_ms: Vec<f64>,
    apps: Vec<AppAcc>,
}

impl LayerAcc {
    pub fn new(napps: usize) -> LayerAcc {
        LayerAcc {
            apps: (0..napps).map(|_| AppAcc::default()).collect(),
            ..LayerAcc::default()
        }
    }

    /// Adds one run. `useful` is the points a schedule without redundant
    /// recomputation stores for the same instance (see [`probe`]).
    pub fn add_run(
        &mut self,
        app: usize,
        threads: usize,
        expect: CacheExpect,
        useful: u64,
        t: &RunTrace,
    ) {
        let s = &t.stats;
        self.tiles += s.tiles;
        self.chunks += s.chunks;
        self.points += s.points_computed;
        self.useful_points += useful;
        for (sum, n) in self.loads.iter_mut().zip([
            s.loads.contiguous,
            s.loads.broadcast,
            s.loads.strided,
            s.loads.gather,
        ]) {
            *sum += n as u64;
        }
        self.lanes_simd += s.simd_lanes_avx2 + s.simd_lanes_sse2 + s.simd_lanes_neon;
        self.lanes_scalar += s.simd_lanes_scalar;
        self.uniform_hits += s.uniform_hits;
        self.uniform_misses += s.uniform_misses;
        self.early_releases += s.early_releases;
        self.peak_full_bytes = self.peak_full_bytes.max(s.peak_full_bytes);
        let busy: u64 = s.worker_busy.iter().map(|d| d.as_nanos() as u64).sum();
        let group_ns: u64 = s.group_times.iter().map(|(_, d)| d.as_nanos() as u64).sum();
        self.busy_ns += busy;
        if threads > 1 {
            self.mt_busy_ns += busy;
            self.mt_group_ns += group_ns * s.worker_busy.len() as u64;
        }
        self.submit_us.push(us(t.submitted_at - t.compiled_at));
        self.sched_wait_us.push(us(s.sched_wait));
        let compile = t.compiled_at - t.start;
        match expect {
            CacheExpect::Hit => self.hit_us.push(us(compile)),
            CacheExpect::Rebind => self.rebind_ms.push(ms(compile)),
            CacheExpect::Miss => {}
        }
        let a = &mut self.apps[app];
        a.busy_ns += busy;
        a.points += s.points_computed;
        if threads == 1 {
            a.outside_ms
                .push(ms(t.done - t.compiled_at) - group_ns as f64 / 1e6);
        }
        if a.group_ns.len() < s.group_times.len() {
            a.group_ns.resize(s.group_times.len(), 0);
        }
        for (sum, (_, d)) in a.group_ns.iter_mut().zip(&s.group_times) {
            *sum += d.as_nanos() as u64;
        }
    }

    /// Writes the metrics this accumulator alone determines; `slugs` names
    /// the workload's applications in accumulator order.
    pub fn fill(&self, m: &mut MetricSet, slugs: &[&str]) {
        m.set("exec.tiles", self.tiles as f64);
        m.set("exec.chunks", self.chunks as f64);
        m.set("exec.points_computed", self.points as f64);
        if self.useful_points > 0 {
            m.set(
                "exec.redundancy",
                self.points as f64 / self.useful_points as f64 - 1.0,
            );
        }
        m.set(
            "exec.ns_per_point",
            ratio(self.busy_ns as f64, self.points as f64),
        );
        let shares: Vec<f64> = self
            .apps
            .iter()
            .filter(|a| !a.group_ns.is_empty())
            .map(|a| {
                let top = *a.group_ns.iter().max().unwrap_or(&0);
                ratio(top as f64, a.group_ns.iter().sum::<u64>() as f64)
            })
            .collect();
        m.set(
            "exec.top_group_share",
            ratio(shares.iter().sum(), shares.len() as f64),
        );
        m.set(
            "eval.simd_lane_frac",
            ratio(
                self.lanes_simd as f64,
                (self.lanes_simd + self.lanes_scalar) as f64,
            ),
        );
        m.set(
            "eval.uniform_hit_rate",
            ratio(
                self.uniform_hits as f64,
                (self.uniform_hits + self.uniform_misses) as f64,
            ),
        );
        for (name, n) in ["contiguous", "broadcast", "strided", "gather"]
            .iter()
            .zip(self.loads)
        {
            m.set(&format!("eval.loads.{name}"), n as f64);
        }
        m.set("storage.early_releases", self.early_releases as f64);
        m.set(
            "storage.peak_full_mib",
            self.peak_full_bytes as f64 / (1 << 20) as f64,
        );
        m.set("engine.submit_us", median(&self.submit_us));
        m.set("engine.sched_wait_us_p50", median(&self.sched_wait_us));
        let outside: Vec<f64> = self.apps.iter().map(|a| median(&a.outside_ms)).collect();
        m.set("engine.outside_groups_ms", geomean(&outside));
        if self.mt_group_ns > 0 {
            m.set(
                "engine.barrier_idle_frac",
                1.0 - self.mt_busy_ns as f64 / self.mt_group_ns as f64,
            );
        }
        m.set("session.hit_us", median(&self.hit_us));
        m.set("session.rebind_ms", median(&self.rebind_ms));
        for (a, slug) in self.apps.iter().zip(slugs) {
            m.set(
                &format!("app.{slug}.ns_per_point"),
                ratio(a.busy_ns as f64, a.points as f64),
            );
        }
    }
}

/// Writes the `session.*` and `pool.*` counts a pass caused, from the
/// counters read before and after it.
pub fn fill_counters(
    m: &mut MetricSet,
    (c0, p0): (CacheStats, PoolStats),
    (c1, p1): (CacheStats, PoolStats),
) {
    m.set("session.instance_hits", (c1.hits - c0.hits) as f64);
    m.set("session.instance_misses", (c1.misses - c0.misses) as f64);
    m.set("session.plan_hits", (c1.plan_hits - c0.plan_hits) as f64);
    m.set(
        "session.plan_misses",
        (c1.plan_misses - c0.plan_misses) as f64,
    );
    m.set("session.evictions", (c1.evictions - c0.evictions) as f64);
    let acquires = p1.acquires - p0.acquires;
    m.set("pool.acquires", acquires as f64);
    m.set(
        "pool.reuse_rate",
        ratio((p1.reuses - p0.reuses) as f64, acquires as f64),
    );
    m.set("pool.dropped", (p1.dropped - p0.dropped) as f64);
    m.set(
        "pool.retained_mib",
        p1.retained_bytes as f64 / (1 << 20) as f64,
    );
}

const PROBE_REPEATS: usize = 3;

/// Measures the compiler beside the traced pass by calling `plan` and
/// `instantiate` directly — a `Session::compile` span cannot be split from
/// outside — and writes their times and the structure they produce.
/// `apps[a]` are the instances one operation of application `a` runs, the
/// first at the plan's estimates.
///
/// Returns, per application and instance, the points stored by the `base`
/// schedule, which computes every stage exactly once over its whole domain:
/// the useful work `exec.redundancy` compares `points_computed` with.
/// Overlapped tiles add points to that; fused stages computed only where
/// their consumers read them remove some, so the ratio can dip below zero
/// on small images.
pub fn probe(
    m: &mut MetricSet,
    recorder: &mut Recorder,
    apps: &[&[Instance]],
) -> Result<Vec<Vec<u64>>, String> {
    // A session of its own: the probe must not warm or fill the measured
    // session's cache and pool.
    let scratch = Runner::new(1)?;
    let mut all_useful = Vec::new();
    // Probe spans get operation ids of their own, far above any pass's.
    let mut op = u64::from(u32::MAX);
    let (mut build_ms, mut plan_ms, mut inst_ms) = (0.0, 0.0, 0.0);
    let (mut stages, mut groups, mut ops_before, mut ops_after, mut tiles) = (0, 0, 0, 0, 0);
    let (mut overlap, mut peak_est) = (0.0f64, 0usize);
    for instances in apps {
        let first = &instances[0];
        let slug = first.spec.slug;
        let size = first.size();
        let mut builds = Vec::new();
        let mut plans = Vec::new();
        let mut binds = Vec::new();
        let mut useful = Vec::new();
        for rep in 0..PROBE_REPEATS {
            op += 1;
            let t = Instant::now();
            let built = (first.spec.build)(size);
            builds.push(ms(t.elapsed()));
            let t0 = Instant::now();
            let planned =
                plan(built.pipeline(), &first.opts).map_err(|e| format!("{slug}: plan: {e}"))?;
            let t1 = Instant::now();
            plans.push(ms(t1 - t0));
            recorder.span("core.plan", slug, (t0, t1), None, op);
            if rep == 0 {
                stages += built.pipeline().funcs().len();
                groups += planned.num_groups();
            }
            for (k, inst) in instances.iter().enumerate() {
                let t0 = Instant::now();
                let compiled = instantiate(&planned, &inst.opts.params)
                    .map_err(|e| format!("{slug}: instantiate: {e}"))?;
                let t1 = Instant::now();
                binds.push(ms(t1 - t0));
                recorder.span("core.instantiate", slug, (t0, t1), None, op);
                if rep > 0 {
                    continue;
                }
                peak_est = peak_est.max(compiled.report.peak_full_bytes);
                if k == 0 {
                    ops_before += compiled
                        .report
                        .kernels
                        .iter()
                        .map(|r| r.ops_before)
                        .sum::<usize>();
                    ops_after += compiled
                        .report
                        .kernels
                        .iter()
                        .map(|r| r.ops_after)
                        .sum::<usize>();
                    overlap = overlap.max(compiled.report.predicted_overlap());
                }
                let (_, opt_run) = run_once(
                    &scratch,
                    inst.app.as_ref(),
                    &inst.opts,
                    &inst.inputs,
                    1,
                    false,
                )?;
                tiles += opt_run.stats.tiles;
                let base = CompileOptions::base(inst.opts.params.clone());
                let (_, base_run) =
                    run_once(&scratch, inst.app.as_ref(), &base, &inst.inputs, 1, false)?;
                useful.push(base_run.stats.points_computed);
            }
        }
        build_ms += median(&builds);
        plan_ms += median(&plans);
        // One operation binds every instance once.
        inst_ms += median(&binds) * instances.len() as f64;
        all_useful.push(useful);
    }
    m.set("apps.build_ms", build_ms);
    m.set("ir.stages", stages as f64);
    m.set("core.plan_ms", plan_ms);
    m.set("core.instantiate_ms", inst_ms);
    m.set("core.plan.groups", groups as f64);
    m.set("core.plan.kernel_ops_before", ops_before as f64);
    m.set("core.plan.kernel_ops_after", ops_after as f64);
    m.set("core.plan.predicted_overlap", overlap);
    m.set("core.instantiate.tiles", tiles as f64);
    m.set("core.peak_full_bytes_est", peak_est as f64);
    Ok(all_useful)
}
