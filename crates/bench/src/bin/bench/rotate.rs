//! The four rotating workloads — `stencil-frames`, `gather-frames`,
//! `pyramid-frames` and `cold-start`. A pass is a fixed number of
//! rotations at `threads(1)` followed by as many at `threads(W)`; a
//! rotation runs every application once, interleaved A,B,C,A,B,C… so host
//! drift hits every application, and both sides of a later A/B, alike.

use crate::apps::{checksum, prepare, run_once, spec, Instance, RunTrace, Runner, Size};
use crate::layers::{fill_counters, probe, CacheExpect, LayerAcc};
use crate::metrics::MetricSet;
use crate::spans::Recorder;
use crate::stats::{geomean, median, ms, ratio, tail};
use crate::{host, set_up_repeatedly, Plan, Tally, Workload};
use std::time::{Duration, Instant};

/// `cold-start` binds each plan at its tiny size and at these offsets from
/// it; multiples of 32 keep every application's size constraint (pyramids
/// need divisibility by at most 2⁵, the camera mosaic needs even sizes).
const REBIND_DELTAS: [Size; 3] = [(0, 0), (32, 32), (64, 32)];

pub struct Rotation {
    runner: Runner,
    /// Per application: the instances one operation runs — one for a frame,
    /// the three sizes for a cold start (estimates pinned at the first).
    apps: Vec<Vec<Instance>>,
    cold: bool,
    /// The two thread counts of a rotation, parallel to `Instance::sums`.
    threads: [usize; 2],
}

/// One operation as the pass sees it.
struct Op {
    start: Instant,
    end: Instant,
    build: Option<(Instant, Instant)>,
    runs: Vec<(CacheExpect, RunTrace)>,
    /// Why the operation failed, and whether by a wrong output.
    error: Option<(bool, String)>,
}

impl Rotation {
    /// Set-up: pipelines built, inputs generated from the seed, programs
    /// compiled, one warm-up run per thread count, every output compared
    /// with the library reference and checksummed.
    pub fn set_up(workload: Workload, seed: u64, smoke: bool) -> Result<Rotation, String> {
        let w = host::workers();
        let threads = [1, w];
        let runner = Runner::new(w)?;
        let cold = workload == Workload::ColdStart;
        let mut apps = Vec::new();
        for slug in workload.apps() {
            let spec = spec(slug);
            let instances = if cold {
                REBIND_DELTAS
                    .iter()
                    .map(|d| {
                        let size = (spec.tiny.0 + d.0, spec.tiny.1 + d.1);
                        prepare(&runner, spec, size, Some(spec.tiny), seed, &threads)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                vec![prepare(
                    &runner,
                    spec,
                    spec.size(smoke),
                    None,
                    seed,
                    &threads,
                )?]
            };
            apps.push(instances);
        }
        Ok(Rotation {
            runner,
            apps,
            cold,
            threads,
        })
    }

    fn slugs(&self) -> Vec<&'static str> {
        self.apps.iter().map(|i| i[0].spec.slug).collect()
    }

    /// One operation of application `app` at `self.threads[cfg]`. Outputs
    /// are checksummed after the timed region.
    fn op(&self, app: usize, cfg: usize, traced: bool) -> Op {
        let instances = &self.apps[app];
        let threads = self.threads[cfg];
        if self.cold {
            self.runner.session.clear_cache();
        }
        let mut outs = Vec::new();
        let mut runs = Vec::new();
        let mut error = None;
        let mut build = None;
        let start = Instant::now();
        // A cold start pays for the DSL build too; a warm frame reuses the
        // application it was set up with.
        let built = self.cold.then(|| {
            let app = (instances[0].spec.build)(instances[0].size());
            build = Some((start, Instant::now()));
            app
        });
        for (k, inst) in instances.iter().enumerate() {
            let app = built.as_deref().unwrap_or(inst.app.as_ref());
            match run_once(&self.runner, app, &inst.opts, &inst.inputs, threads, traced) {
                Ok((out, trace)) => {
                    let expect = match (self.cold, k) {
                        (false, _) => CacheExpect::Hit,
                        (true, 0) => CacheExpect::Miss,
                        (true, _) => CacheExpect::Rebind,
                    };
                    outs.push(out);
                    runs.push((expect, trace));
                }
                Err(e) => {
                    error = Some((false, e));
                    break;
                }
            }
        }
        let end = Instant::now();
        for (inst, out) in instances.iter().zip(&outs) {
            if checksum(out) != inst.sums[cfg] && error.is_none() {
                let what = format!(
                    "{} {:?} threads {threads}: output differs from the verified first output",
                    inst.spec.slug,
                    inst.size()
                );
                error = Some((true, what));
            }
        }
        Op {
            start,
            end,
            build,
            runs,
            error,
        }
    }

    /// Time the hand-written library takes for the frames of one operation
    /// of `app`.
    fn library(&self, app: usize) -> Duration {
        let t = Instant::now();
        for inst in &self.apps[app] {
            std::hint::black_box(inst.app.reference(&inst.inputs));
        }
        t.elapsed()
    }
}

/// Per-application samples of one pass, in milliseconds.
#[derive(Default, Clone)]
struct Samples {
    st: Vec<f64>,
    mt: Vec<f64>,
    lib: Vec<f64>,
}

pub struct Pass {
    samples: Vec<Samples>,
    /// Wall seconds of the pass without the library reference's and the
    /// warm-up rotations' share.
    wall_s: f64,
    /// Operations whose time was sampled (all but the warm-up).
    timed: u64,
    tally: Tally,
}

impl Pass {
    fn st_p50(&self) -> f64 {
        geomean(
            &self
                .samples
                .iter()
                .map(|s| median(&s.st))
                .collect::<Vec<_>>(),
        )
    }

    fn mt_p50(&self) -> f64 {
        geomean(
            &self
                .samples
                .iter()
                .map(|s| median(&s.mt))
                .collect::<Vec<_>>(),
        )
    }

    /// The tail of the `threads(1)` operation time. One application has too
    /// few samples for a 95th percentile with ten beyond it, so every
    /// sample is divided by its application's median, the tail is taken
    /// over that pool, and the ratio scales the geomean median back.
    fn st_tail(&self) -> f64 {
        let pooled: Vec<f64> = self
            .samples
            .iter()
            .flat_map(|s| {
                let m = median(&s.st);
                s.st.iter().map(move |v| ratio(*v, m))
            })
            .collect();
        self.st_p50() * tail(&pooled)
    }

    fn vs_library(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| ratio(median(&s.lib), median(&s.st)))
            .collect()
    }
}

/// What the traced pass collects on top of the samples.
struct Tracing<'a> {
    recorder: &'a mut Recorder,
    acc: LayerAcc,
    useful: Vec<Vec<u64>>,
}

/// Runs `rotations` rotations, timing the library reference on every
/// `lib_every`-th one.
fn pass(
    rot: &Rotation,
    rotations: usize,
    lib_every: usize,
    mut tracing: Option<&mut Tracing>,
) -> Pass {
    let slugs = rot.slugs();
    let mut out = Pass {
        samples: vec![Samples::default(); slugs.len()],
        wall_s: 0.0,
        timed: 0,
        tally: Tally::default(),
    };
    // Time inside the pass that is not the timed operations' own.
    let (mut lib_time, mut warm_up_time) = (Duration::ZERO, Duration::ZERO);
    let begin = Instant::now();
    // All `threads(1)` rotations first, then all `threads(W)` rotations. The
    // host parks a virtual CPU that idles for a few hundred milliseconds
    // and takes about a second of sustained load to give it back; frames
    // that alternate between one and W threads therefore measure whichever
    // state the host happens to be in (see the README). A contiguous
    // `threads(W)` phase spends its first second there, so it starts with
    // a quarter as many rotations again that are verified but not timed.
    for cfg in 0..2 {
        let warm_up = if cfg == 0 { 0 } else { rotations.div_ceil(4) };
        for r in 0..warm_up + rotations {
            for (app, slug) in slugs.iter().enumerate() {
                let op = rot.op(app, cfg, tracing.is_some());
                out.tally.attempted += 1;
                if let Some((incorrect, e)) = &op.error {
                    out.tally.fail(*incorrect, e.clone());
                }
                if r < warm_up {
                    warm_up_time += op.end - op.start;
                    continue;
                }
                let wall = ms(op.end - op.start);
                match cfg {
                    0 => out.samples[app].st.push(wall),
                    _ => out.samples[app].mt.push(wall),
                }
                out.timed += 1;
                if let Some(t) = tracing.as_deref_mut() {
                    let id = out.timed;
                    let root = t.recorder.span("op", slug, (op.start, op.end), None, id);
                    if let Some(b) = op.build {
                        t.recorder.span("apps.build", slug, b, Some(root), id);
                    }
                    for (k, (expect, run)) in op.runs.iter().enumerate() {
                        record_run(t.recorder, slug, root, id, run);
                        let useful = t.useful[app][k];
                        t.acc.add_run(app, rot.threads[cfg], *expect, useful, run);
                    }
                }
                // The library is single-threaded: time it beside the
                // single-threaded frames it is compared with.
                if cfg == 0 && r % lib_every == 0 {
                    let d = rot.library(app);
                    out.samples[app].lib.push(ms(d));
                    lib_time += d;
                }
            }
        }
    }
    out.wall_s = (begin.elapsed() - lib_time - warm_up_time).as_secs_f64();
    out
}

/// The spans of one compile–submit–join sequence, with the engine's
/// per-group times as children of the join.
pub fn record_run(rec: &mut Recorder, detail: &str, parent: usize, op: u64, t: &RunTrace) {
    rec.span(
        "session.compile",
        detail,
        (t.start, t.compiled_at),
        Some(parent),
        op,
    );
    rec.span(
        "engine.submit",
        detail,
        (t.compiled_at, t.submitted_at),
        Some(parent),
        op,
    );
    let join = rec.span(
        "engine.join",
        detail,
        (t.submitted_at, t.done),
        Some(parent),
        op,
    );
    rec.groups(
        join,
        t.submitted_at + t.stats.sched_wait,
        &t.stats.group_times,
        op,
    );
}

/// Runs one rotating workload as `plan` says and returns its metrics.
pub fn run(
    workload: Workload,
    plan: &Plan,
    recorder: &mut Recorder,
) -> Result<crate::Outcome, String> {
    let (rot, setups) =
        set_up_repeatedly(plan, || Rotation::set_up(workload, plan.seed, plan.smoke))?;
    let (rotations, lib_every) = workload.rotations(plan);

    let mut out = crate::Outcome::default();
    let measured_rotations = if plan.end_to_end {
        rotations
    } else {
        rotations / 2
    };
    let measured = pass(&rot, measured_rotations.max(1), lib_every, None);
    out.tally.absorb(&measured.tally);

    if plan.end_to_end {
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", median(&setups));
        // Read before the traced pass and the host probes add their own.
        m.set("peak_rss_mib", host::peak_rss_mib());
        m.set("op_ms_p50", measured.st_p50());
        m.set("op_mt_ms_p50", measured.mt_p50());
        m.set("op_ms_p95", measured.st_tail());
        m.set("ops_per_s", ratio(measured.timed as f64, measured.wall_s));
        m.set("vs_library_geomean", geomean(&measured.vs_library()));
        m.set("ok_frac", measured.tally.ok_frac());
        out.end_to_end = Some(m);
    }

    if plan.per_layer {
        let mut m = MetricSet::per_layer();
        let slugs = rot.slugs();
        let instances: Vec<&[Instance]> = rot.apps.iter().map(Vec::as_slice).collect();
        let useful = probe(&mut m, recorder, &instances)?;
        let mut tracing = Tracing {
            recorder,
            acc: LayerAcc::new(slugs.len()),
            useful,
        };
        let before = rot.runner.counters();
        let traced = pass(&rot, (rotations / 2).max(1), lib_every, Some(&mut tracing));
        fill_counters(&mut m, before, rot.runner.counters());
        out.tally.absorb(&traced.tally);
        tracing.acc.fill(&mut m, &slugs);

        m.set("engine.watchdog_kicks", rot.runner.watchdog.kicks() as f64);
        let memcpy = host::probe(&mut m, plan.smoke, &mut out.notes);
        m.set(
            "trace.overhead_frac",
            ratio(traced.st_p50(), measured.st_p50()) - 1.0,
        );
        m.set(
            "exec.parallel_speedup",
            ratio(measured.st_p50(), measured.mt_p50()),
        );
        let mut roofline = Vec::new();
        for ((slug, s), (inst, vs)) in slugs
            .iter()
            .zip(&measured.samples)
            .zip(rot.apps.iter().zip(measured.vs_library()))
        {
            m.set(&format!("app.{slug}.op_ms_p50"), median(&s.st));
            m.set(&format!("app.{slug}.op_mt_ms_p50"), median(&s.mt));
            m.set(&format!("app.{slug}.vs_library"), vs);
            let io_bytes: u64 = inst.iter().map(|i| i.io_bytes).sum();
            roofline.push(ratio(io_bytes as f64 / (median(&s.st) / 1e3), memcpy * 1e9));
        }
        m.set("exec.roofline_frac", geomean(&roofline));
        out.per_layer = Some(m);
    }
    Ok(out)
}
