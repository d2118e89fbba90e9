//! The metric catalogue — every name the benchmark can print, with its unit
//! — and the result line. `BENCHMARK.json` at the repository root lists the
//! same names; a unit test keeps the two in step.

use crate::json;

/// Slugs of the seven applications, in Table 2 order.
pub const APP_SLUGS: [&str; 7] = [
    "unsharp",
    "bilateral",
    "harris",
    "camera",
    "pyramid",
    "interpolate",
    "laplacian",
];

/// What a user of the system sees, per workload. The README's glossary
/// says what each means on each workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_mt_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("vs_library_geomean", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics shared by all workloads; `0` where a workload does
/// not exercise the layer. `true` marks a count that must repeat exactly
/// for a fixed seed (‡ in the README).
const LAYER: [(&str, &str, bool); 50] = [
    ("apps.build_ms", "ms", false),
    ("ir.stages", "count", true),
    ("core.plan_ms", "ms", false),
    ("core.instantiate_ms", "ms", false),
    ("core.plan.groups", "count", true),
    ("core.plan.kernel_ops_before", "count", true),
    ("core.plan.kernel_ops_after", "count", true),
    ("core.plan.predicted_overlap", "ratio", true),
    ("core.instantiate.tiles", "count", true),
    ("core.peak_full_bytes_est", "bytes", true),
    ("session.hit_us", "us", false),
    ("session.rebind_ms", "ms", false),
    ("session.instance_hits", "count", true),
    ("session.instance_misses", "count", true),
    ("session.plan_hits", "count", true),
    ("session.plan_misses", "count", true),
    ("session.evictions", "count", true),
    ("engine.submit_us", "us", false),
    ("engine.sched_wait_us_p50", "us", false),
    ("engine.outside_groups_ms", "ms", false),
    ("engine.barrier_idle_frac", "frac", false),
    ("engine.shed", "count", false),
    ("engine.deadline_miss", "count", false),
    ("engine.over_limit_frac", "frac", false),
    ("engine.backlog_max", "count", false),
    ("gen.lateness_ms_p95", "ms", false),
    ("engine.watchdog_kicks", "count", false),
    ("exec.tiles", "count", true),
    ("exec.chunks", "count", true),
    ("exec.points_computed", "count", true),
    ("exec.redundancy", "ratio", true),
    ("exec.ns_per_point", "ns", false),
    ("exec.parallel_speedup", "ratio", false),
    ("exec.top_group_share", "frac", false),
    ("exec.roofline_frac", "frac", false),
    ("eval.simd_lane_frac", "frac", false),
    ("eval.uniform_hit_rate", "frac", false),
    ("eval.loads.contiguous", "count", true),
    ("eval.loads.broadcast", "count", true),
    ("eval.loads.strided", "count", true),
    ("eval.loads.gather", "count", true),
    ("pool.acquires", "count", true),
    ("pool.reuse_rate", "frac", false),
    ("pool.dropped", "count", false),
    ("pool.retained_mib", "MiB", false),
    ("storage.early_releases", "count", true),
    ("storage.peak_full_mib", "MiB", true),
    ("host.memcpy_gb_s", "GB/s", false),
    ("host.calib_ms", "ms", false),
    ("trace.overhead_frac", "frac", false),
];

/// Each application's own row, so a geomean never hides a loser.
const PER_APP: [(&str, &str); 4] = [
    ("op_ms_p50", "ms"),
    ("op_mt_ms_p50", "ms"),
    ("vs_library", "ratio"),
    ("ns_per_point", "ns"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Must repeat exactly for a fixed seed.
    pub exact: bool,
}

/// A full set of metrics of one kind, in catalogue order, all starting at
/// zero. Setting a name outside the catalogue is a bug in the benchmark.
#[derive(Debug, Clone)]
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    pub fn end_to_end() -> MetricSet {
        MetricSet(
            END_TO_END
                .iter()
                .map(|&(name, unit)| Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    exact: false,
                })
                .collect(),
        )
    }

    pub fn per_layer() -> MetricSet {
        let shared = LAYER.iter().map(|&(name, unit, exact)| Metric {
            name: name.to_string(),
            value: 0.0,
            unit,
            exact,
        });
        let per_app = APP_SLUGS.iter().flat_map(|slug| {
            PER_APP.iter().map(move |&(name, unit)| Metric {
                name: format!("app.{slug}.{name}"),
                value: 0.0,
                unit,
                exact: false,
            })
        });
        MetricSet(shared.chain(per_app).collect())
    }

    fn entry(&mut self, name: &str) -> &mut Metric {
        self.0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.entry(name).value = value;
    }

    /// Drops the must-repeat-exactly mark of `name` for this workload.
    pub fn not_exact(&mut self, name: &str) {
        self.entry(name).exact = false;
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    pub fn into_vec(self) -> Vec<Metric> {
        self.0
    }
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut set = MetricSet::end_to_end();
        set.set("op_ms_p50", 1.2034);
        let line = result_line(true, 1000, 0, &set.into_vec());
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"op_ms_p50\": {\"value\": 1.2034, \"unit\": \"ms\"}"));
        assert!(line.ends_with("}}"));
        assert!(!line.contains('\n'));
        // A shed run has failed without any output being wrong.
        let shed = result_line(true, 10, 1, &[]);
        assert!(shed.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1,"));
        let wrong = result_line(false, 10, 1, &[]);
        assert!(wrong.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
    }

    #[test]
    fn per_layer_set_has_every_app_row_once() {
        let set = MetricSet::per_layer();
        let names: Vec<&str> = set.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), LAYER.len() + APP_SLUGS.len() * PER_APP.len());
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.contains(&"app.laplacian.vs_library"));
        assert!(
            names.len() <= 128,
            "BENCHMARK.json allows 128 per-layer metrics"
        );
    }

    /// `BENCHMARK.json` must name every metric the binary prints, with the
    /// same unit, and nothing else.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        };
        let all: Vec<Metric> = MetricSet::end_to_end()
            .into_vec()
            .into_iter()
            .chain(MetricSet::per_layer().into_vec())
            .collect();
        for m in &all {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            all.len(),
            "BENCHMARK.json lists a metric the binary does not print"
        );
        for (name, bound, higher) in crate::repeat::BOUNDS {
            let better = if higher { "higher" } else { "lower" };
            let tail = format!("\"better\": \"{better}\", \"bound\": {bound}}}");
            let line = text
                .lines()
                .find(|l| l.contains(&format!("{{\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {name}"));
            assert!(line.contains(&tail), "{name}: {line} lacks {tail}");
        }
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{}\"", w.name())));
        }
    }
}
