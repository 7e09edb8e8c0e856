//! Small statistics and reporting helpers: medians, the tail-percentile
//! rule, failure accounting, metric records and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for even lengths);
/// 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A latency distribution summarised as a median and a tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// The tail percentile chosen by [`tail_percentile`].
    pub tail_pct: f64,
    /// Samples strictly beyond the tail percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank index of percentile `p` in `n` sorted samples, in exact
/// integer arithmetic on tenths of a percent (`99.9 · 10000 / 100` must
/// not round up past 9990).
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    let r = (tenths * n).div_ceil(1000);
    r.clamp(1, n.max(1)) - 1
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that leaves
/// at least 10 samples beyond its nearest rank. Returns the percentile
/// and how many samples lie beyond it; with fewer than 11 samples no
/// percentile qualifies and the median is used.
pub fn tail_percentile(n: usize) -> (f64, usize) {
    for p in TAIL_LADDER {
        if n == 0 {
            break;
        }
        let beyond = n - 1 - rank(p, n);
        if beyond >= 10 {
            return (p, beyond);
        }
    }
    let beyond = if n == 0 { 0 } else { n - 1 - rank(50.0, n) };
    (50.0, beyond)
}

/// Median and tail of `xs` by the tail rule.
pub fn latency(xs: &[f64]) -> Latency {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail_pct, beyond) = tail_percentile(n);
    if n == 0 {
        return Latency {
            p50: 0.0,
            tail: 0.0,
            tail_pct,
            beyond,
            samples: 0,
        };
    }
    Latency {
        p50: v[rank(50.0, n)],
        tail: v[rank(tail_pct, n)],
        tail_pct,
        beyond,
        samples: n,
    }
}

/// Why an operation counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Output values differ from the CPU reference.
    WrongValues,
    /// Output shape differs from the reference shape.
    WrongShape,
    /// The program returned a typed error.
    Error,
    /// The request was load-shed.
    Shed,
}

/// Attempted/failed accounting. Every attempted operation is recorded
/// exactly once, so failed operations of every kind stay in the
/// denominator of [`Tally::error_rate`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Wrong values.
    pub wrong_values: u64,
    /// Wrong shapes.
    pub wrong_shape: u64,
    /// Typed errors.
    pub errors: u64,
    /// Shed requests.
    pub shed: u64,
}

impl Tally {
    /// Record one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {}
            Err(Failure::WrongValues) => self.wrong_values += 1,
            Err(Failure::WrongShape) => self.wrong_shape += 1,
            Err(Failure::Error) => self.errors += 1,
            Err(Failure::Shed) => self.shed += 1,
        }
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.wrong_values += o.wrong_values;
        self.wrong_shape += o.wrong_shape;
        self.errors += o.errors;
        self.shed += o.shed;
    }

    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.wrong_values + self.wrong_shape + self.errors + self.shed
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// One-line breakdown for the report.
    pub fn describe(&self) -> String {
        format!(
            "attempted {} failed {} (wrong values {}, wrong shape {}, errors {}, shed {}) \
             error_rate {:.6}",
            self.attempted,
            self.failed(),
            self.wrong_values,
            self.wrong_shape,
            self.errors,
            self.shed,
            self.error_rate()
        )
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Render a float for JSON: every digit Rust's shortest round-trip
/// formatting gives, and `0` for non-finite values (never valid JSON).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted,
        tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 11 samples: p90's rank is 9 (0-based), one beyond; p50's rank
        // is 5, five beyond — nothing qualifies, so the median is used.
        assert_eq!(tail_percentile(11).0, 50.0);
        // 20 samples: p50 rank 9 leaves 10 beyond; p75 rank 14 leaves 5.
        assert_eq!(tail_percentile(20), (50.0, 10));
        // 40 samples: p75 rank 29 leaves 10 beyond.
        assert_eq!(tail_percentile(40), (75.0, 10));
        // 100 samples: p90 rank 89 leaves 10 beyond; p95 leaves 5.
        assert_eq!(tail_percentile(100), (90.0, 10));
        // 1000 samples: p99 rank 989 leaves 10 beyond.
        assert_eq!(tail_percentile(1000), (99.0, 10));
        // 10000 samples: p99.9 rank 9989 leaves 10 beyond.
        assert_eq!(tail_percentile(10_000), (99.9, 10));
        for n in 0..2000 {
            let (p, beyond) = tail_percentile(n);
            if n >= 21 {
                assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
            }
            // No higher rung of the ladder would also qualify.
            for higher in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(n == 0 || n - 1 - rank(*higher, n) < 10, "n={n}");
            }
        }
    }

    #[test]
    fn latency_reports_tail_value_and_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = latency(&xs);
        assert_eq!(l.p50, 50.0);
        assert_eq!(l.tail_pct, 90.0);
        assert_eq!(l.tail, 90.0);
        assert_eq!(l.beyond, 10);
        assert_eq!(l.samples, 100);
    }

    #[test]
    fn error_rate_counts_shed_and_errors_as_attempted() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Ok(()));
        t.record(Err(Failure::Shed));
        t.record(Err(Failure::Error));
        t.record(Err(Failure::WrongShape));
        t.record(Err(Failure::WrongValues));
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failed(), 4);
        assert!((t.error_rate() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_metric_name("kernels.GEMM-im2col.host_s"));
        assert!(valid_metric_name("serve.cache.hit_rate"));
        assert!(valid_metric_name("0th"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".leading_dot"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("paren(x)"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let mut t = Tally::default();
        t.record(Ok(()));
        let s = result_json(true, &t, &[Metric::new("setup_s", "s", 0.25)]);
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
