//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use crate::stats::valid_name;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

#[derive(Debug)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, metrics: Vec<Metric>) -> Self {
        Self {
            attempted,
            failed,
            metrics,
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.name).collect()
    }

    /// Every session verified, and every metric measured (a refused tail
    /// or a failure-dominated percentile is not a measurement).
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && valid_name(m.name))
    }

    /// One line of JSON. Values print with every digit (`{}` on `f64` is
    /// the shortest exact round-trip form); a value that could not be
    /// measured prints as `null`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_nulls_for_gaps() {
        let r = Report::new(
            3,
            1,
            vec![
                Metric::new("a", "s", 1.25),
                Metric::new("b", "ms", f64::INFINITY),
            ],
        );
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
        assert!(!r.correct());
        assert!(Report::new(1, 0, vec![Metric::new("a", "s", 0.5)]).correct());
        assert!(!Report::new(1, 0, vec![Metric::new("a", "s", f64::NAN)]).correct());
    }
}
