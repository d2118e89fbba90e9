//! `serve-mixed`: one session and engine used as a server. A closed loop of
//! two always-in-flight `Priority::Low` batch runs saturates the workers
//! while an open loop sends `Priority::High` camera requests on a seeded
//! schedule, regardless of how the earlier ones fared. Latency is timed
//! from the instant a request was *due*, so a stall is charged to every
//! request it delays.

use crate::apps::{checksum, close_to_reference, prepare, spec, Instance, RunTrace, Runner, Size};
use crate::layers::{fill_counters, probe, CacheExpect, LayerAcc};
use crate::metrics::MetricSet;
use crate::rng::SplitMix64;
use crate::rotate::record_run;
use crate::spans::Recorder;
use crate::stats::{geomean, median, ms, ratio, tail};
use crate::{host, set_up_repeatedly, Outcome, Plan, Tally};
use polymage_apps::Benchmark;
use polymage_core::CompileOptions;
use polymage_vm::{
    Buffer, CancelReason, Engine, OverloadPolicy, Priority, Program, RunHandle, RunRequest, VmError,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Foreground arrival rate. 24 requests per second for ten seconds is 240
/// requests, so the 95th percentile has twelve samples beyond it.
const RATE_HZ: f64 = 24.0;
/// A request not finished this long after it was due is cancelled.
const DEADLINE: Duration = Duration::from_millis(200);
/// The latency limit: a request slower than this (or failed) is over it.
const LIMIT_MS: f64 = 150.0;
/// One request in every block of this many asks for a never-seen size, so
/// a tenth of the requests pay `instantiate` on the request path — enough
/// that the reported tail lies inside them, not at their edge.
const BLOCK: usize = 10;
/// Admission cap of the serving engine, per worker: room for a burst of
/// foreground requests beside the two batch runs. At the engine's default
/// of two per worker a third overlapping request sheds a batch run, which
/// the baseline should not depend on.
const ADMISSION_PER_WORKER: usize = 4;
const WRONG_OUTPUT: &str = "output differs from the verified first output";
/// How much smaller than the base size each of the four warm camera sizes
/// is (an eighth of this under `--smoke`, whose base is tiny).
const WARM_DELTAS: [Size; 4] = [(0, 0), (32, 0), (0, 32), (64, 64)];

fn warm_sizes(base: Size, smoke: bool) -> Vec<Size> {
    let shrink = if smoke { 8 } else { 1 };
    WARM_DELTAS
        .iter()
        .map(|d| (base.0 - d.0 / shrink, base.1 - d.1 / shrink))
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Target {
    /// One of the four sizes compiled during set-up: an instance hit.
    Warm(usize),
    /// A size this session has never bound: plan hit, then `instantiate`.
    New,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Arrival {
    /// When the request is due, from the start of the pass.
    due: Duration,
    target: Target,
}

/// The seeded open-loop schedule: arrival `i` is due at `i / rate` plus a
/// jitter of up to half a period, and each block of [`BLOCK`] arrivals has
/// one never-seen size at a drawn position.
fn schedule(seed: u64, n: usize, rate_hz: f64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let period = 1.0 / rate_hz;
    let mut new_at = 0;
    (0..n)
        .map(|i| {
            if i % BLOCK == 0 {
                new_at = i + rng.below(BLOCK as u64) as usize;
            }
            let jitter = rng.next_f64() * period / 2.0;
            let warm = rng.below(WARM_DELTAS.len() as u64) as usize;
            Arrival {
                due: Duration::from_secs_f64(i as f64 * period + jitter),
                target: if i == new_at {
                    Target::New
                } else {
                    Target::Warm(warm)
                },
            }
        })
        .collect()
}

/// The `k`-th never-seen camera size: even, and never one of the warm
/// sizes (whose columns differ from the base's by a multiple of four).
fn new_size(base: Size, k: usize) -> Size {
    (base.0 - 2 * k as i64, base.1 - 2)
}

/// A never-seen size, built and given inputs before the pass; it meets the
/// session for the first time on the request path.
struct Fresh {
    app: Box<dyn Benchmark>,
    opts: CompileOptions,
    inputs: Vec<Buffer>,
}

struct Serving {
    runner: Runner,
    workers: usize,
    base: Size,
    warm: Vec<Instance>,
    background: Vec<Instance>,
    seed: u64,
    /// Never-seen sizes handed out so far, across passes.
    fresh_used: usize,
}

impl Serving {
    fn set_up(seed: u64, smoke: bool) -> Result<Serving, String> {
        let workers = host::workers();
        let runner = Runner::with_engine(Engine::with_threads_and_inflight(
            workers,
            ADMISSION_PER_WORKER * workers,
        ))?;
        let camera = spec("camera");
        let base = camera.size(smoke);
        let mut warm = Vec::new();
        for size in warm_sizes(base, smoke) {
            warm.push(prepare(
                &runner,
                camera,
                size,
                Some(base),
                seed,
                &[workers],
            )?);
        }
        let mut background = Vec::new();
        for slug in ["unsharp", "pyramid"] {
            let s = spec(slug);
            background.push(prepare(&runner, s, s.size(smoke), None, seed, &[1])?);
        }
        Ok(Serving {
            runner,
            workers,
            base,
            warm,
            background,
            seed,
            fresh_used: 0,
        })
    }

    fn fresh(&mut self) -> Fresh {
        let size = new_size(self.base, self.fresh_used);
        self.fresh_used += 1;
        let app = (spec("camera").build)(size);
        Fresh {
            opts: CompileOptions::optimized(app.params())
                .with_estimates(vec![self.base.0, self.base.1]),
            inputs: app.make_inputs(self.seed),
            app,
        }
    }
}

/// A submitted request on its way from the generator to the collector.
struct Sent {
    index: usize,
    due: Instant,
    started: Instant,
    compiled_at: Instant,
    submitted_at: Instant,
    /// A request refused at admission, or whose compilation failed, has
    /// no run to join.
    handle: Result<RunHandle, VmError>,
}

/// One finished foreground request.
struct Served {
    index: usize,
    due: Instant,
    /// `None` when the request never got as far as a run.
    trace: Option<RunTrace>,
    error: Option<VmError>,
    sum: u64,
    /// Kept only for a never-seen size, whose output has no verified
    /// checksum to compare with yet.
    output: Option<Vec<Buffer>>,
}

/// One finished background run.
struct Batch {
    app: usize,
    wall_ms: f64,
    /// Why the run failed, and whether by a wrong output.
    error: Option<(bool, String)>,
}

/// How late the generator ran and how long the request took, both from the
/// instant it was due.
fn due_bookkeeping(due: Instant, started: Instant, done: Instant) -> (f64, f64) {
    (
        ms(started.saturating_duration_since(due)),
        ms(done.saturating_duration_since(due)),
    )
}

struct PassResult {
    /// Latency from due time of the requests that succeeded.
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    batches: Vec<Batch>,
    wall_s: f64,
    tally: Tally,
    shed: u64,
    deadline_miss: u64,
    over_limit: u64,
    backlog_max: usize,
    acc: LayerAcc,
}

impl PassResult {
    fn batch_ms(&self, app: usize) -> f64 {
        let walls: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| b.app == app)
            .map(|b| b.wall_ms)
            .collect();
        median(&walls)
    }
}

fn pass(s: &mut Serving, n: usize, mut recorder: Option<&mut Recorder>) -> PassResult {
    let traced = recorder.is_some();
    let arrivals = schedule(s.seed, n, RATE_HZ);
    let fresh: Vec<Option<Fresh>> = arrivals
        .iter()
        .map(|a| (a.target == Target::New).then(|| s.fresh()))
        .collect();
    let s = &*s;
    let engine = s.runner.session.engine();
    let watchdog = &s.runner.watchdog;
    // `Box<dyn Benchmark>` is not `Sync`, so the other threads get only the
    // plain data they need.
    let jobs: Vec<(&Arc<Program>, &[Buffer], u64)> = s
        .background
        .iter()
        .map(|i| (&i.compiled.program, i.inputs.as_slice(), i.sums[0]))
        .collect();
    let stop = AtomicBool::new(false);
    let inflight = AtomicUsize::new(0);
    let mut backlog_max = 0;
    let (tx, rx) = mpsc::channel::<Sent>();

    // A short lead lets the background loop fill the workers first.
    let t0 = Instant::now() + Duration::from_millis(20);
    let (served, batches, end) = std::thread::scope(|scope| {
        // Closed loop: each slot resubmits as soon as its run completes,
        // alternating the two batch applications.
        let slots: Vec<_> = (0..2)
            .map(|slot| {
                let (stop, jobs) = (&stop, &jobs);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut k = slot;
                    while !stop.load(Ordering::Relaxed) {
                        let app = k % jobs.len();
                        let (program, inputs, sum) = jobs[app];
                        let t = Instant::now();
                        let out = engine
                            .submit(
                                RunRequest::new(program, inputs)
                                    .threads(1)
                                    .priority(Priority::Low)
                                    .group_stats(false),
                            )
                            .and_then(|h| watchdog.join(h).0);
                        let wall_ms = ms(t.elapsed());
                        // A run that straddles either end of the pass is
                        // not the pass's work.
                        if t >= t0 && !stop.load(Ordering::Relaxed) {
                            let error = match out {
                                Ok(o) if checksum(&o) == sum => None,
                                Ok(_) => Some((true, WRONG_OUTPUT.to_string())),
                                Err(e) => Some((false, e.to_string())),
                            };
                            done.push(Batch {
                                app,
                                wall_ms,
                                error,
                            });
                        }
                        k += 1;
                    }
                    done
                })
            })
            .collect();

        let (inflight, arrivals) = (&inflight, &arrivals);
        let collector = scope.spawn(move || {
            let mut served = Vec::new();
            for sent in rx {
                let (trace, error, output) = match sent.handle {
                    Ok(handle) => {
                        let (result, stats) = watchdog.join(handle);
                        let done = Instant::now();
                        inflight.fetch_sub(1, Ordering::Relaxed);
                        let trace = RunTrace {
                            start: sent.started,
                            compiled_at: sent.compiled_at,
                            submitted_at: sent.submitted_at,
                            done,
                            stats,
                        };
                        match result {
                            Ok(out) => (Some(trace), None, Some(out)),
                            Err(e) => (Some(trace), Some(e), None),
                        }
                    }
                    Err(e) => (None, Some(e), None),
                };
                served.push(Served {
                    index: sent.index,
                    due: sent.due,
                    trace,
                    error,
                    sum: output.as_deref().map_or(0, checksum),
                    output: output.filter(|_| arrivals[sent.index].target == Target::New),
                });
            }
            served
        });

        // Open loop: the generator sleeps until each request is due and
        // never waits for a reply.
        for (index, a) in arrivals.iter().enumerate() {
            let due = t0 + a.due;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let started = Instant::now();
            let (app, opts, inputs) = match (a.target, &fresh[index]) {
                (Target::Warm(i), _) => {
                    let inst = &s.warm[i];
                    (inst.app.as_ref(), &inst.opts, &inst.inputs)
                }
                (Target::New, Some(f)) => (f.app.as_ref(), &f.opts, &f.inputs),
                (Target::New, None) => unreachable!("every new-size arrival has inputs"),
            };
            let compiled = s.runner.session.compile(app.pipeline(), opts);
            let compiled_at = Instant::now();
            let handle = compiled
                .map_err(|e| VmError::Internal(format!("compile: {e}")))
                .and_then(|c| {
                    engine.submit(
                        RunRequest::new(&c.program, inputs)
                            .threads(s.workers)
                            .priority(Priority::High)
                            .deadline_at(due + DEADLINE)
                            .on_overload(OverloadPolicy::Shed)
                            .group_stats(traced),
                    )
                });
            let submitted_at = Instant::now();
            if handle.is_ok() {
                let backlog = inflight.fetch_add(1, Ordering::Relaxed) + 1;
                backlog_max = backlog_max.max(backlog);
            }
            tx.send(Sent {
                index,
                due,
                started,
                compiled_at,
                submitted_at,
                handle,
            })
            .expect("collector outlives the generator");
        }
        drop(tx);
        let served = collector.join().expect("collector thread panicked");
        let end = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let batches: Vec<Batch> = slots
            .into_iter()
            .flat_map(|h| h.join().expect("background thread panicked"))
            .collect();
        (served, batches, end)
    });

    let mut out = PassResult {
        latency_ms: Vec::new(),
        lateness_ms: Vec::new(),
        wall_s: (end - t0).as_secs_f64(),
        tally: Tally {
            attempted: (served.len() + batches.len()) as u64,
            ..Tally::default()
        },
        shed: 0,
        deadline_miss: 0,
        over_limit: 0,
        backlog_max,
        acc: LayerAcc::new(1),
        batches,
    };
    for (incorrect, e) in out.batches.iter().filter_map(|b| b.error.as_ref()) {
        out.tally.fail(*incorrect, format!("background run: {e}"));
    }
    for r in &served {
        let a = arrivals[r.index];
        match r.error {
            Some(VmError::Cancelled {
                reason: CancelReason::Shed,
            }) => out.shed += 1,
            Some(VmError::Cancelled {
                reason: CancelReason::Deadline,
            }) => out.deadline_miss += 1,
            _ => {}
        }
        // A run that ended in an error has failed; one that completed is
        // checked — a warm size against its verified checksum, a new size
        // against the library reference — and fails as incorrect.
        let error = match (&r.error, a.target, &fresh[r.index], &r.output) {
            (Some(e), ..) => Some((false, e.to_string())),
            (None, Target::Warm(i), ..) if r.sum == s.warm[i].sums[0] => None,
            (None, Target::Warm(_), ..) => Some((true, WRONG_OUTPUT.to_string())),
            (None, Target::New, Some(f), Some(output)) => {
                close_to_reference(output, &f.app.reference(&f.inputs), f.app.tolerance())
                    .err()
                    .map(|e| (true, e))
            }
            (None, Target::New, ..) => Some((true, "new-size output lost".to_string())),
        };
        let timing = r
            .trace
            .as_ref()
            .map(|t| due_bookkeeping(r.due, t.start, t.done));
        if let Some((late, _)) = timing {
            out.lateness_ms.push(late);
        }
        match (error, timing) {
            (None, Some((_, latency))) => {
                out.latency_ms.push(latency);
                if latency > LIMIT_MS {
                    out.over_limit += 1;
                }
            }
            (error, _) => {
                let (incorrect, e) =
                    error.unwrap_or_else(|| (false, "request never ran".to_string()));
                out.tally
                    .fail(incorrect, format!("request {}: {e}", r.index));
                out.over_limit += 1;
            }
        }
        if let Some(t) = &r.trace {
            let expect = match a.target {
                Target::Warm(_) => CacheExpect::Hit,
                Target::New => CacheExpect::Rebind,
            };
            out.acc.add_run(0, s.workers, expect, 0, t);
            if let Some(rec) = recorder.as_deref_mut() {
                let op = r.index as u64;
                let root = rec.span("op", "camera", (r.due, t.done), None, op);
                rec.span("gen.wait", "camera", (r.due, t.start), Some(root), op);
                record_run(rec, "camera", root, op, t);
            }
        }
    }
    out
}

pub fn run(plan: &Plan, recorder: &mut Recorder) -> Result<Outcome, String> {
    // Every set-up times the library once per warm size, on an idle engine.
    let library = std::cell::RefCell::new(Vec::new());
    let (mut s, setups) = set_up_repeatedly(plan, || {
        let s = Serving::set_up(plan.seed, plan.smoke)?;
        let walls: Vec<f64> = s.warm.iter().map(|i| i.lib_ms).collect();
        library
            .borrow_mut()
            .push(ratio(walls.iter().sum(), walls.len() as f64));
        Ok(s)
    })?;
    let library_ms = median(&library.into_inner());
    let n = if plan.smoke {
        2 * BLOCK
    } else {
        (RATE_HZ * f64::from(plan.seconds)) as usize
    };

    let mut out = Outcome::default();
    let measured = pass(&mut s, if plan.end_to_end { n } else { n / 2 }, None);
    out.tally.absorb(&measured.tally);
    let batch_ok = measured
        .batches
        .iter()
        .filter(|b| b.error.is_none())
        .count();

    if plan.end_to_end {
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", median(&setups));
        // Read before the traced pass and the host probes add their own.
        m.set("peak_rss_mib", host::peak_rss_mib());
        m.set("op_ms_p50", median(&measured.latency_ms));
        // The two batch applications differ in length: a median over both
        // would sit between two clusters, so each gets its own.
        let batch: Vec<f64> = (0..s.background.len())
            .map(|app| measured.batch_ms(app))
            .collect();
        m.set("op_mt_ms_p50", geomean(&batch));
        m.set("op_ms_p95", tail(&measured.latency_ms));
        m.set("ops_per_s", ratio(batch_ok as f64, measured.wall_s));
        m.set(
            "vs_library_geomean",
            ratio(library_ms, median(&measured.latency_ms)),
        );
        m.set("ok_frac", measured.tally.ok_frac());
        out.end_to_end = Some(m);
    }

    if plan.per_layer {
        let mut m = MetricSet::per_layer();
        probe(&mut m, recorder, &[&s.warm[..1]])?;
        let before = s.runner.counters();
        let traced = pass(&mut s, (n / 2).max(BLOCK), Some(recorder));
        fill_counters(&mut m, before, s.runner.counters());
        out.tally.absorb(&traced.tally);
        traced.acc.fill(&mut m, &["camera"]);
        // The pool is engine-wide: it also serves the background runs, whose
        // number depends on timing.
        m.not_exact("pool.acquires");
        let requests = (traced.latency_ms.len() as u64 + traced.over_limit) as f64;
        m.set("engine.shed", traced.shed as f64);
        m.set("engine.deadline_miss", traced.deadline_miss as f64);
        m.set(
            "engine.over_limit_frac",
            ratio(traced.over_limit as f64, requests),
        );
        m.set("engine.backlog_max", traced.backlog_max as f64);
        m.set("gen.lateness_ms_p95", tail(&traced.lateness_ms));
        m.set(
            "trace.overhead_frac",
            ratio(median(&traced.latency_ms), median(&measured.latency_ms)) - 1.0,
        );
        m.set("app.camera.op_ms_p50", median(&measured.latency_ms));
        m.set(
            "app.camera.vs_library",
            ratio(library_ms, median(&measured.latency_ms)),
        );
        for (app, inst) in s.background.iter().enumerate() {
            let slug = inst.spec.slug;
            m.set(&format!("app.{slug}.op_ms_p50"), measured.batch_ms(app));
        }
        m.set("engine.watchdog_kicks", s.runner.watchdog.kicks() as f64);
        host::probe(&mut m, plan.smoke, &mut out.notes);
        out.per_layer = Some(m);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_ordered_and_one_new_size_per_block() {
        let a = schedule(11, 240, RATE_HZ);
        assert_eq!(a, schedule(11, 240, RATE_HZ));
        assert_ne!(a, schedule(12, 240, RATE_HZ));
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
        for block in a.chunks(BLOCK) {
            let new = block.iter().filter(|x| x.target == Target::New).count();
            assert_eq!(new, 1);
        }
        // Jitter stays inside half a period: arrival i is due in
        // [i/rate, (i + 0.5)/rate).
        for (i, x) in a.iter().enumerate() {
            let lo = i as f64 / RATE_HZ;
            assert!(x.due.as_secs_f64() >= lo && x.due.as_secs_f64() < lo + 0.5 / RATE_HZ);
        }
    }

    #[test]
    fn new_sizes_are_even_distinct_and_never_warm() {
        for (base, smoke) in [((632, 480), false), ((32, 32), true)] {
            let warm = warm_sizes(base, smoke);
            let sizes: Vec<Size> = (0..40).map(|k| new_size(base, k)).collect();
            for (k, s) in sizes.iter().enumerate() {
                assert!(s.0 % 2 == 0 && s.1 % 2 == 0);
                assert!(!warm.contains(s));
                assert!(!sizes[..k].contains(s));
            }
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let due = Instant::now();
        let started = due + Duration::from_millis(30); // the generator ran late
        let done = started + Duration::from_millis(12);
        let (late, latency) = due_bookkeeping(due, started, done);
        assert!((late - 30.0).abs() < 1e-9);
        assert!((latency - 42.0).abs() < 1e-9);
        // A generator that wakes early is not credited negative lateness.
        let (late, _) = due_bookkeeping(due, due - Duration::from_millis(1), done);
        assert_eq!(late, 0.0);
    }
}
