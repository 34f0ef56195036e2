//! Result assembly: named metrics with units, human-readable lines, and
//! the one-line JSON result the run ends with.

use cicero_server::json::{self, Json};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: non-200, a connection error, or an answer
    /// that differs from the oracle.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// The figures the final JSON line carries.
    pub metrics: Vec<Metric>,
    /// Further figures, printed as text lines only.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a figure to the JSON result.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push(Metric { name: name.into(), value, unit: unit.into() });
    }

    /// Add a text-only line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count failures (with their first reasons).
    pub fn fail(&mut self, failed: u64, reasons: &[String]) {
        self.failed += failed;
        for reason in reasons {
            if self.reasons.len() < 5 {
                self.reasons.push(reason.clone());
            }
        }
    }

    /// Read back a result line that [`Report::json`] wrote, naming each
    /// metric `<prefix>.<name>`. A result that is not correct keeps at
    /// least one failure.
    pub fn from_json(line: &str, prefix: &str) -> Result<Report, String> {
        let result = json::parse(line)?;
        let count = |key| result.get(key).and_then(Json::as_u64).ok_or(format!("no {key}"));
        let mut report = Report { attempted: count("attempted")?, ..Report::default() };
        let failed = count("failed")?;
        if failed > 0 || result.get("correct") != Some(&Json::Bool(true)) {
            report.fail(failed.max(1), &[format!("{prefix}: {failed} failed")]);
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err("no metrics".to_owned());
        };
        for (name, metric) in metrics {
            let Some(Json::Num(value)) = metric.get("value") else {
                return Err(format!("metric {name} has no value"));
            };
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or_default();
            report.metric(format!("{prefix}.{name}"), *value, unit);
        }
        Ok(report)
    }

    /// Fold another report's operations, failures and figures in.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.fail(other.failed, &other.reasons);
        self.metrics.extend(other.metrics);
    }

    /// Whether every answer was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, number(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Text lines: every figure with its unit, then the notes.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{workload}: {} = {} {}", m.name, number(m.value), m.unit))
            .collect();
        lines.extend(self.notes.iter().map(|n| format!("{workload}: {n}")));
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        lines.push(format!(
            "{workload}: fail_ratio = {} ({} of {} failed)",
            number(ratio),
            self.failed,
            self.attempted
        ));
        lines.extend(self.reasons.iter().map(|r| format!("{workload}: FAILURE {r}")));
        lines
    }
}

/// A finite JSON number with all its digits (non-finite values print as
/// `0`, and are never produced by a passing run).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report { attempted: 3, ..Report::default() };
        report.metric("setup_s", 0.25, "s");
        assert_eq!(
            report.json(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        report.fail(1, &["wrong".to_owned()]);
        assert!(!report.correct());
        assert!(report.json().starts_with(r#"{"correct":false,"attempted":3,"failed":1"#));
    }

    #[test]
    fn a_result_line_reads_back_under_a_prefix() {
        let mut report = Report { attempted: 4, ..Report::default() };
        report.metric("req_p50_ms", 1.2034, "ms");
        let back = Report::from_json(&report.json(), "scan_small").unwrap();
        assert_eq!((back.attempted, back.failed), (4, 0));
        assert_eq!(
            back.metrics,
            vec![Metric {
                name: "scan_small.req_p50_ms".to_owned(),
                value: 1.2034,
                unit: "ms".to_owned()
            }]
        );
        report.fail(2, &[]);
        let back = Report::from_json(&report.json(), "scan_small").unwrap();
        assert!(!back.correct());
        assert_eq!(back.failed, 2);
        assert!(Report::from_json("perfbench: bind failed", "x").is_err());
    }
}
