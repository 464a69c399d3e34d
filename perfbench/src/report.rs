//! Result plumbing: metric values, robust summaries, and the one-line
//! JSON result the benchmark prints last.

use std::fmt::Write as _;

/// One reported metric. `value` is `None` where the platform cannot
/// measure it (a `/proc` reading off Linux); it prints as `null`, never
/// as zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: Some(value),
            unit,
        }
    }

    pub fn maybe(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and holds at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn json_number(out: &mut String, v: Option<f64>) {
    match v {
        // `{}` on f64 prints the shortest string that round-trips, so
        // every measured digit survives.
        Some(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        _ => out.push_str("null"),
    }
}

impl Outcome {
    /// Render the result line. Panics on a malformed or repeated metric
    /// name: that is a bug in this benchmark, not in the measured code.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
            assert!(
                !self.metrics[..i].iter().any(|o| o.name == m.name),
                "metric {:?} reported twice",
                m.name
            );
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {{\"value\": ", m.name);
            json_number(&mut s, m.value);
            let _ = write!(s, ", \"unit\": \"{}\"}}", m.unit);
        }
        s.push_str("}}");
        s
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method),
/// so in-run summaries match how runs are compared across seeds.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0; // 1-based rank
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// `median [q1, q3] (n=…)` of per-pass values, for the run's log.
pub fn spread_text(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, _, q3]) => format!("{:.6} [{q1:.6}, {q3:.6}] (n={})", median(xs), xs.len()),
        None => format!("{:.6} (n={})", median(xs), xs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract_alphabet() {
        for ok in ["ops_per_s", "netsim.fabric.steps", "a", "9lives", "x-y_z.w"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "has space", "ünï", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_contract_alphabet() {
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "frac"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-tenant", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("count", 3.0, "count"),
                Metric::maybe("rss", None, "MiB"),
            ],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3, \"unit\": \"count\"}, \
             \"rss\": {\"value\": null, \"unit\": \"MiB\"}}}"
        );
    }

    #[test]
    fn json_keeps_every_digit_and_nulls_non_finite() {
        let o = Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![
                Metric::new("a", 0.1 + 0.2, "s"),
                Metric::new("b", f64::NAN, "s"),
            ],
        };
        let j = o.to_json();
        assert!(j.contains("\"value\": 0.30000000000000004"), "{j}");
        assert!(j.contains("\"b\": {\"value\": null"), "{j}");
        assert!(j.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_names_are_refused() {
        let o = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("a", 1.0, "s"), Metric::new("a", 2.0, "s")],
        };
        o.to_json();
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
