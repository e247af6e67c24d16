//! What one run reports: named metrics, the correctness oracle's
//! verdicts, and the result line the driver reads.

use crate::json;
use crate::workload::MetricDecl;

/// One emitted metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Samples behind the figure, where it is an order statistic.
    pub samples: Option<usize>,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    /// Casts attempted (fresh and re-cast together, warm-up excluded).
    pub attempted: u64,
    /// Casts that failed or returned the wrong receipt.
    pub failed: u64,
    /// Oracle misses; empty means every output was correct.
    pub misses: Vec<String>,
    /// Context printed beside the metrics (injected delays, sizes, …).
    pub notes: Vec<String>,
}

/// The declared unit of `name` ("?" for an undeclared metric, which the
/// declared-metric check reports).
fn unit_of(declared: &[MetricDecl], name: &str) -> &'static str {
    declared
        .iter()
        .find(|(declared, _)| *declared == name)
        .map_or("?", |(_, unit)| unit)
}

impl RunOutput {
    pub fn emit(&mut self, name: &str, value: f64) {
        self.push(name, value, None);
    }

    pub fn emit_with_samples(&mut self, name: &str, value: f64, samples: usize) {
        self.push(name, value, Some(samples));
    }

    fn push(&mut self, name: &str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Records an oracle check; a miss fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.misses.push(what());
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The last oracle check: every declared metric emitted exactly once
    /// and finite, and nothing undeclared.
    pub fn check_declared(&mut self, declared: &[MetricDecl]) {
        for (name, _) in declared {
            let hits: Vec<f64> = self
                .metrics
                .iter()
                .filter(|m| m.name == *name)
                .map(|m| m.value)
                .collect();
            let ok = hits.len() == 1 && hits[0].is_finite();
            self.check(ok, || {
                format!("metric {name} emitted {hits:?}, want one finite value")
            });
        }
        let undeclared: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !declared.iter().any(|(name, _)| *name == m.name))
            .map(|m| m.name.clone())
            .collect();
        self.check(undeclared.is_empty(), || {
            format!("undeclared metrics emitted: {undeclared:?}")
        });
    }

    pub fn correct(&self) -> bool {
        self.misses.is_empty() && self.failed == 0
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self, declared: &[MetricDecl]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for m in &self.metrics {
            let unit = unit_of(declared, &m.name);
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            out.push_str(&format!(
                "{:<34} {:>14.4} {unit}{samples}\n",
                m.name, m.value
            ));
        }
        for miss in &self.misses {
            out.push_str(&format!("ORACLE MISS: {miss}\n"));
        }
        out
    }

    /// The `"metrics"` object of the result line.
    pub fn metrics_json(&self, declared: &[MetricDecl]) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(unit_of(declared, &m.name))
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn result_line(&self, declared: &[MetricDecl]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(declared)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const DECLARED: &[MetricDecl] = &[("a_ms", "ms"), ("b_s", "s")];

    #[test]
    fn declared_metrics_must_appear_exactly_once_and_finite() {
        let mut ok = RunOutput::default();
        ok.emit("a_ms", 1.5);
        ok.emit_with_samples("b_s", 2.0, 10);
        ok.check_declared(DECLARED);
        assert!(ok.correct(), "{:?}", ok.misses);

        let mut missing = RunOutput::default();
        missing.emit("a_ms", 1.5);
        missing.check_declared(DECLARED);
        assert!(!missing.correct());

        let mut twice = RunOutput::default();
        twice.emit("a_ms", 1.0);
        twice.emit("a_ms", 1.0);
        twice.emit("b_s", 1.0);
        twice.check_declared(DECLARED);
        assert!(!twice.correct());

        let mut nan = RunOutput::default();
        nan.emit("a_ms", f64::NAN);
        nan.emit("b_s", 1.0);
        nan.check_declared(DECLARED);
        assert!(!nan.correct());

        let mut extra = RunOutput::default();
        extra.emit("a_ms", 1.0);
        extra.emit("b_s", 1.0);
        extra.emit("c", 1.0);
        extra.check_declared(DECLARED);
        assert!(!extra.correct());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput {
            attempted: 10,
            ..RunOutput::default()
        };
        out.emit("a_ms", 1.25);
        out.emit("b_s", 0.5);
        let line = Json::parse(&out.result_line(DECLARED)).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let a = line.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("ms"));

        out.failed = 1;
        let line = Json::parse(&out.result_line(DECLARED)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
