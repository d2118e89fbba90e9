//! The repository's benchmark of record. One process runs one workload:
//!
//! ```text
//! bench --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!       [--trace-out <file.json>] [--smoke]
//! bench [--smoke | --repeat-check] [--seed <u64>] [--seconds <n>]
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of its
//! own. See `README.md` beside this file for the workloads, the metric
//! glossary and which layer should move which number; `BENCHMARK.json` at
//! the repository root is the machine-readable contract.
//!
//! The binary drives only the stable public surface of `polymage-apps`,
//! `polymage-core` and `polymage-vm`, and nothing from `polymage-bench`'s
//! library, so the older harness helpers can be retired without touching it.

mod apps;
mod host;
mod json;
mod layers;
mod metrics;
mod repeat;
mod rng;
mod rotate;
mod serve;
mod spans;
mod stats;
mod watchdog;

use metrics::{Metric, MetricSet};
use spans::Recorder;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    StencilFrames,
    GatherFrames,
    PyramidFrames,
    ColdStart,
    ServeMixed,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::StencilFrames,
    Workload::GatherFrames,
    Workload::PyramidFrames,
    Workload::ColdStart,
    Workload::ServeMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilFrames => "stencil-frames",
            Workload::GatherFrames => "gather-frames",
            Workload::PyramidFrames => "pyramid-frames",
            Workload::ColdStart => "cold-start",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The applications a rotation visits, in order.
    fn apps(self) -> &'static [&'static str] {
        match self {
            Workload::StencilFrames => &["harris", "unsharp", "camera"],
            Workload::GatherFrames => &["bilateral", "laplacian"],
            Workload::PyramidFrames => &["pyramid", "interpolate"],
            Workload::ColdStart => &metrics::APP_SLUGS,
            Workload::ServeMixed => &["camera"],
        }
    }

    /// `(rotations, library-reference period)` of the measured pass. Work
    /// is a fixed operation count so that counters repeat exactly;
    /// `--seconds` scales the count by a per-workload rate chosen so that
    /// a pass lasts about that long on the two-core reference host.
    fn rotations(self, plan: &Plan) -> (usize, usize) {
        if plan.smoke {
            return (2, 2);
        }
        let (per_second, lib_every) = match self {
            Workload::StencilFrames => (5.0, 5),
            Workload::GatherFrames => (4.4, 5),
            Workload::PyramidFrames => (25.0, 5),
            Workload::ColdStart => (7.0, 10),
            Workload::ServeMixed => unreachable!("serve-mixed is paced by its arrival rate"),
        };
        (
            ((per_second * f64::from(plan.seconds)) as usize).max(2),
            lib_every,
        )
    }
}

/// What one process run does.
pub struct Plan {
    pub seed: u64,
    pub seconds: u32,
    /// Tiny sizes and two rotations: a seconds-long check that every
    /// workload still runs and verifies, not a measurement.
    pub smoke: bool,
    /// Run the full measured pass and report the end-to-end metrics.
    pub end_to_end: bool,
    /// Run a half-length measured pass and a half-length traced pass and
    /// report the per-layer metrics.
    pub per_layer: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// Operations attempted and how they ended. A run that errored or was
/// refused, shed or cancelled has *failed*; one that completed with an
/// output different from the verified one is also *incorrect*.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub incorrect: u64,
    /// The first few failures, for the human reading the output.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, incorrect: bool, error: String) {
        self.failed += 1;
        self.incorrect += u64::from(incorrect);
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
        self.errors.extend_from_slice(&other.errors);
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub notes: Vec<String>,
    pub end_to_end: Option<MetricSet>,
    pub per_layer: Option<MetricSet>,
}

/// Sets up `plan.setup_repeats` times, keeping the last, and returns it with
/// every set-up's seconds (`setup_s` is their median). The previous set-up
/// is dropped first: two alive at once would double the peak memory.
pub fn set_up_repeatedly<T>(
    plan: &Plan,
    set_up: impl Fn() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..plan.setup_repeats.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), seconds))
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    trace: Option<bool>,
    trace_out: Option<std::path::PathBuf>,
    smoke: bool,
    repeat_check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: None,
        trace_out: None,
        smoke: false,
        repeat_check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{arg}` needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--trace-out" => cli.trace_out = Some(value()?.into()),
            "--smoke" => cli.smoke = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn print_metrics(kind: &str, set: &MetricSet) {
    for m in set.iter() {
        let exact = if m.exact { " exact" } else { "" };
        println!(
            "{kind} {} {} {}{exact}",
            m.name,
            json::number(m.value),
            m.unit
        );
    }
}

/// Runs one workload in this process and prints its metrics; the last line
/// of standard output is the result object.
fn run_workload(workload: Workload, cli: &Cli) -> Result<bool, String> {
    let plan = Plan {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        end_to_end: cli.trace != Some(true),
        per_layer: cli.trace != Some(false),
        setup_repeats: if cli.smoke { 1 } else { 3 },
    };
    let mut recorder = Recorder::new(Instant::now());
    let outcome = match workload {
        Workload::ServeMixed => serve::run(&plan, &mut recorder)?,
        w => rotate::run(w, &plan, &mut recorder)?,
    };
    println!(
        "workload {} seed {} seconds {} workers {} smoke {}",
        workload.name(),
        plan.seed,
        plan.seconds,
        host::workers(),
        plan.smoke
    );
    for note in &outcome.notes {
        println!("note {note}");
    }
    for e in &outcome.tally.errors {
        println!("error {e}");
    }
    let mut all: Vec<Metric> = Vec::new();
    if let Some(m) = outcome.end_to_end {
        print_metrics("e2e", &m);
        all.extend(m.into_vec());
    }
    if let Some(m) = outcome.per_layer {
        print_metrics("layer", &m);
        all.extend(m.into_vec());
        let self_times = recorder.self_times();
        let op_ms: f64 = self_times
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| s.total_ms)
            .sum();
        println!("self-time  span                count     total ms      self ms  self/op");
        for s in &self_times {
            println!(
                "self-time  {:<18} {:>6} {:>12.3} {:>12.3} {:>8.4}",
                s.name,
                s.count,
                s.total_ms,
                s.self_ms,
                stats::ratio(s.self_ms, op_ms)
            );
        }
        if let Some(path) = &cli.trace_out {
            let file =
                std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut out = std::io::BufWriter::new(file);
            recorder
                .write_chrome(&mut out)
                .and_then(|()| std::io::Write::flush(&mut out))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let tally = &outcome.tally;
    println!(
        "{}",
        metrics::result_line(
            tally.incorrect == 0,
            tally.attempted.max(1),
            tally.failed,
            &all
        )
    );
    Ok(tally.incorrect == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if cli.repeat_check {
        repeat::check(&cli)
    } else if let Some(w) = cli.workload {
        run_workload(w, &cli)
    } else {
        repeat::run_each(&cli)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse_cli(&args(
            "--workload cold-start --seed 9 --seconds 7 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::ColdStart));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 7, Some(true)));
        let cli = parse_cli(&args("--smoke")).unwrap();
        assert!(cli.smoke && cli.workload.is_none() && cli.trace.is_none());
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse_cli(&args("--workload blur")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--seed -3")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }

    #[test]
    fn operation_counts_scale_with_seconds_and_never_vanish() {
        let plan = |seconds| Plan {
            seed: 1,
            seconds,
            smoke: false,
            end_to_end: true,
            per_layer: false,
            setup_repeats: 1,
        };
        let (ten, _) = Workload::PyramidFrames.rotations(&plan(10));
        let (twenty, _) = Workload::PyramidFrames.rotations(&plan(20));
        assert_eq!(twenty, 2 * ten);
        assert!(Workload::StencilFrames.rotations(&plan(1)).0 >= 2);
    }
}
