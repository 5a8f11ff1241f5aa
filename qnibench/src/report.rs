//! The metric catalogue and the one-line JSON result.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step.

use std::collections::BTreeMap;

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (checked against `BENCHMARK.json` by the tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by the untraced pass of every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("fit_s", "s", Lower),
    m("latency_ms_p50", "ms", Lower),
    m("latency_ms_p95", "ms", Lower),
    m("ingest_capacity_rps", "1/s", Higher),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, reported by the traced pass of every workload.
pub const PER_LAYER: &[Metric] = &[
    m("trace.read_jsonl.s", "s", Lower),
    m("trace.read_jsonl.mb_per_s", "MB/s", Higher),
    m("trace.from_records.s", "s", Lower),
    m("trace.tail.poll.busy_s", "s", Lower),
    m("trace.tail.bytes", "B", Lower),
    m("trace.tail.bad_lines", "count", Lower),
    m("trace.window.push.busy_s", "s", Lower),
    m("trace.window.windows_out", "count", Higher),
    m("trace.window.peak_buffered_tasks", "count", Lower),
    m("trace.window.peak_open_spans", "count", Lower),
    m("core.init.s", "s", Lower),
    m("core.sweep.ms", "ms", Lower),
    m("core.sweep.arrival_moves", "count", Higher),
    m("core.sweep.final_moves", "count", Higher),
    m("core.sweep.shift_moves", "count", Higher),
    m("core.sweep.arrival_groups", "count", Lower),
    m("core.sweep.group_fallbacks", "count", Lower),
    m("core.sweep.fallback_ratio", "ratio", Lower),
    m("core.gibbs.arrival.us_per_move", "us", Lower),
    m("core.gibbs.final_departure.us_per_move", "us", Lower),
    m("core.gibbs.shift.us_per_move", "us", Lower),
    m("core.mstep.us_per_iter", "us", Lower),
    m("core.stem.waiting_phase.s", "s", Lower),
    m("core.diagnostics.s", "s", Lower),
    m("core.chains.chain_s.max", "s", Lower),
    m("core.chains.imbalance", "ratio", Lower),
    m("core.chains.ess_per_cpu_s", "1/s", Higher),
    m("core.stream.push_window.ms_p50", "ms", Lower),
    m("core.stream.push_window.ms_p95", "ms", Lower),
    m("core.stream.tasks_per_window", "count", Higher),
    m("core.watch.checkpoint.ms", "ms", Lower),
    m("core.watch.checkpoint.bytes", "B", Lower),
    m("core.watch.lag_strides.max", "strides", Lower),
    m("bench.generator.late_ms.max", "ms", Lower),
    m("bench.latency.samples", "count", Higher),
    m("process.cpu_s", "s", Lower),
    m("tracing.overhead_frac", "ratio", Lower),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one pass: operations attempted and failed, and the
/// measured metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check did not hold.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one operation and whether its check held.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Records a check on an operation already counted as attempted.
    pub fn check_counted(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line for `catalogue`, or an error naming a metric that
    /// is missing, undeclared or not a finite number.
    pub fn to_json(&self, catalogue: &[Metric]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|m| m.name == **k))
        {
            return Err(format!("metric `{extra}` is not declared for this pass"));
        }
        let mut parts = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            if !(valid_name(m.name) && valid_unit(m.unit)) {
                return Err(format!("metric `{}` has an invalid name or unit", m.name));
            }
            let v = *self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite ({v})", m.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn name_rule() {
        assert!(valid_name("core.gibbs.final_departure.us_per_move"));
        assert!(valid_name("infer-task10"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ms/sweep"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("x".repeat(17).as_str()));
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    /// Every metric the binary reports is declared in `BENCHMARK.json`
    /// with the same unit and direction, and nothing else is.
    #[test]
    fn catalogue_matches_manifest() {
        let compact: String = MANIFEST.chars().filter(|c| !c.is_whitespace()).collect();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                m.name, m.unit
            );
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::ALL {
            assert!(valid_name(w.name));
            assert!(compact.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name)));
        }
        assert_eq!(
            compact.matches("\"why\":").count(),
            crate::workloads::ALL.len()
        );
    }

    #[test]
    fn result_line_lists_exactly_the_catalogue() {
        let cat = &END_TO_END[..2];
        let mut o = Outcome::default();
        o.check("fit", true);
        o.set("setup_s", 0.5);
        assert!(o.to_json(cat).is_err(), "fit_s missing");
        o.set("fit_s", 1.25);
        let line = o.to_json(cat).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"fit_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        o.set("peak_rss_mb", 3.0);
        assert!(o.to_json(cat).is_err(), "undeclared metric");
        let mut bad = Outcome::default();
        bad.check("fit", false);
        bad.set("setup_s", f64::NAN);
        bad.set("fit_s", 1.0);
        assert!(bad.to_json(cat).is_err(), "NaN value");
        bad.set("setup_s", 1.0);
        assert!(bad.to_json(cat).unwrap().starts_with("{\"correct\": false"));
    }
}
