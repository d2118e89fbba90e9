//! Running several workloads — each in a child process of its own, so peak
//! memory and allocator state are never shared — and `--repeat-check`:
//! every workload twice, in alternating order, compared with itself.

use crate::{Cli, WORKLOADS};
use std::process::{Command, Stdio};

/// The share of its value by which each end-to-end metric may worsen
/// before a change counts as a regression; `BENCHMARK.json` carries the
/// same numbers. `true` = higher is better.
pub const BOUNDS: [(&str, f64, bool); 8] = [
    ("setup_s", 0.25, false),
    ("op_ms_p50", 0.20, false),
    ("op_mt_ms_p50", 0.25, false),
    ("op_ms_p95", 0.25, false),
    ("ops_per_s", 0.20, true),
    ("vs_library_geomean", 0.20, true),
    ("peak_rss_mib", 0.25, false),
    ("ok_frac", 0.01, true),
];

fn child(cli: &Cli, workload: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if let Some(trace) = cli.trace {
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
    }
    Ok(cmd)
}

/// Runs every workload once, each in its own process, passing their output
/// through.
pub fn run_each(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        let status = child(cli, w.name())?
            .status()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// One metric line of a child's output: `<kind> <name> <value> <unit> [exact]`.
#[derive(Debug, PartialEq)]
struct Line {
    end_to_end: bool,
    name: String,
    value: f64,
    exact: bool,
}

fn parse_line(line: &str) -> Option<Line> {
    let mut f = line.split_whitespace();
    let end_to_end = match f.next()? {
        "e2e" => true,
        "layer" => false,
        _ => return None,
    };
    let name = f.next()?.to_string();
    let value = f.next()?.parse().ok()?;
    let _unit = f.next()?;
    Some(Line {
        end_to_end,
        name,
        value,
        exact: f.next() == Some("exact"),
    })
}

fn run_captured(cli: &Cli, workload: &str) -> Result<Vec<Line>, String> {
    let out = child(cli, workload)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} failed:\n{text}"));
    }
    Ok(text.lines().filter_map(parse_line).collect())
}

/// Relative difference of a repeat from the first run, and whether it is
/// within `bound`.
fn compare(first: f64, second: f64, bound: f64) -> (f64, bool) {
    let rel = if first == 0.0 {
        if second == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (second - first).abs() / first.abs()
    };
    (rel, rel <= bound)
}

/// Runs every workload forwards (A…E) then backwards (E…A) and compares the
/// two runs of each: end-to-end metrics within their bounds, exact counts
/// identical.
pub fn check(cli: &Cli) -> Result<bool, String> {
    let names: Vec<&str> = match cli.workload {
        Some(w) => vec![w.name()],
        None => WORKLOADS.iter().map(|w| w.name()).collect(),
    };
    let mut first = Vec::new();
    for w in &names {
        eprintln!("repeat-check: first run of {w}");
        first.push(run_captured(cli, w)?);
    }
    let mut second = Vec::new();
    for w in names.iter().rev() {
        eprintln!("repeat-check: second run of {w}");
        second.push(run_captured(cli, w)?);
    }
    second.reverse();

    let mut ok = true;
    for ((w, a), b) in names.iter().zip(&first).zip(&second) {
        println!("{w}");
        println!(
            "  {:<22} {:>14} {:>14} {:>9} {:>7}",
            "metric", "first", "second", "rel diff", "bound"
        );
        for (name, bound, _) in BOUNDS {
            let find = |lines: &[Line]| {
                lines
                    .iter()
                    .find(|l| l.end_to_end && l.name == name)
                    .map(|l| l.value)
                    .ok_or_else(|| format!("{w}: no `{name}` in the output"))
            };
            let (x, y) = (find(a)?, find(b)?);
            let (rel, within) = compare(x, y, bound);
            ok &= within;
            println!(
                "  {name:<22} {x:>14.4} {y:>14.4} {rel:>9.4} {bound:>7.2}{}",
                if within { "" } else { "  OVER" }
            );
        }
        for l in a.iter().filter(|l| l.exact) {
            let other = b.iter().find(|m| m.name == l.name).map(|m| m.value);
            if other != Some(l.value) {
                ok = false;
                println!("  exact count {} differs: {} vs {other:?}", l.name, l.value);
            }
        }
    }
    println!("repeat-check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_and_everything_else_is_skipped() {
        assert_eq!(
            parse_line("e2e op_ms_p50 12.5 ms"),
            Some(Line {
                end_to_end: true,
                name: "op_ms_p50".to_string(),
                value: 12.5,
                exact: false
            })
        );
        let l = parse_line("layer exec.tiles 480 count exact").unwrap();
        assert!(!l.end_to_end && l.exact && l.value == 480.0);
        assert_eq!(parse_line("workload cold-start seed 1"), None);
        assert_eq!(parse_line("{\"correct\": true}"), None);
        assert_eq!(parse_line(""), None);
    }

    #[test]
    fn comparison_is_relative_to_the_first_run() {
        assert_eq!(compare(100.0, 108.0, 0.10), (0.08, true));
        assert!(!compare(100.0, 89.0, 0.10).1);
        assert_eq!(compare(0.0, 0.0, 0.0), (0.0, true));
        assert!(!compare(0.0, 1.0, 0.25).1);
    }

    #[test]
    fn bounds_cover_every_end_to_end_metric_within_the_contract() {
        let names: Vec<&str> = BOUNDS.iter().map(|b| b.0).collect();
        let catalogue: Vec<&str> = crate::metrics::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, catalogue);
        assert!(BOUNDS.iter().all(|b| b.1 > 0.0 && b.1 <= 0.25));
    }
}
