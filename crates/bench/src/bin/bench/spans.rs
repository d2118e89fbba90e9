//! The traced pass's span recorder. Spans are recorded from the benchmark's
//! side of each public call (tracing inside the program is a later change),
//! kept in memory, and written once at exit as a chrome trace.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// What the span worked on: an application slug or a group's name.
    pub detail: String,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation the span belongs to; spans of one operation share it.
    pub op: u64,
}

pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index, for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        detail: &str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Synthesises one `group` child per entry of `RunStats::group_times`
    /// under `parent`. The engine reports only durations and runs a run's
    /// groups one after another, so the children are laid end to end from
    /// `first_start` and clipped to the parent.
    pub fn groups(
        &mut self,
        parent: usize,
        first_start: Instant,
        group_times: &[(String, Duration)],
        op: u64,
    ) {
        let (lo, hi) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let mut at = self.ns(first_start).clamp(lo, hi);
        for (name, d) in group_times {
            let end = (at + d.as_nanos() as u64).min(hi);
            self.spans.push(Span {
                name: "group",
                detail: name.clone(),
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                op,
            });
            at = end;
        }
    }

    /// Per span name: how many, their total duration, and their self time —
    /// the duration minus what their child spans cover.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                children_ns[p] += hi.saturating_sub(lo);
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&children_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(*child);
        }
        by_name
            .into_iter()
            .map(|(name, (count, total, own))| SelfTime {
                name,
                count,
                total_ms: total as f64 / 1e6,
                self_ms: own as f64 / 1e6,
            })
            .collect()
    }

    /// Writes the spans as chrome-trace "complete" events (`ph: X`,
    /// microsecond timestamps). The operation id is the `tid`, so each
    /// operation gets its own row in the viewer.
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"detail\": {}}}}}{}",
                json::string(s.name),
                s.op,
                json::number(s.start_ns as f64 / 1e3),
                json::number((s.end_ns - s.start_ns) as f64 / 1e3),
                s.op,
                json::string(&s.detail),
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch);
        let op = r.span("op", "harris", (at(epoch, 0), at(epoch, 1000)), None, 1);
        r.span(
            "session.compile",
            "harris",
            (at(epoch, 0), at(epoch, 100)),
            Some(op),
            1,
        );
        let join = r.span(
            "engine.join",
            "harris",
            (at(epoch, 200), at(epoch, 1000)),
            Some(op),
            1,
        );
        r.groups(
            join,
            at(epoch, 200),
            &[
                ("g0".to_string(), Duration::from_micros(300)),
                ("g1".to_string(), Duration::from_micros(400)),
            ],
            1,
        );
        let st = r.self_times();
        let get = |name: &str| st.iter().find(|s| s.name == name).unwrap();
        // op: 1000 − (100 + 800) = 100 µs of its own.
        assert!((get("op").self_ms - 0.1).abs() < 1e-9);
        // join: 800 − (300 + 400) = 100 µs outside its groups.
        assert!((get("engine.join").self_ms - 0.1).abs() < 1e-9);
        assert_eq!(get("group").count, 2);
        assert!((get("group").self_ms - 0.7).abs() < 1e-9);
        assert!((get("group").total_ms - 0.7).abs() < 1e-9);
    }

    #[test]
    fn groups_are_clipped_to_their_parent() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch);
        let join = r.span(
            "engine.join",
            "x",
            (at(epoch, 100), at(epoch, 200)),
            None,
            1,
        );
        // Reported group time exceeds the join span: never a negative self time.
        r.groups(
            join,
            at(epoch, 50),
            &[("g".to_string(), Duration::from_micros(500))],
            1,
        );
        let st = r.self_times();
        let join_self = st.iter().find(|s| s.name == "engine.join").unwrap().self_ms;
        assert_eq!(join_self, 0.0);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch);
        let op = r.span("op", "a\"b", (at(epoch, 0), at(epoch, 10)), None, 7);
        r.span(
            "engine.submit",
            "a",
            (at(epoch, 1), at(epoch, 2)),
            Some(op),
            7,
        );
        let mut buf = Vec::new();
        r.write_chrome(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 2);
        assert!(text.contains("\"detail\": \"a\\\"b\""));
        assert!(text.contains("\"parent\": 0"));
        assert!(text.contains("\"ts\": 1, \"dur\": 1"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
