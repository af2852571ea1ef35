//! Metric collection, order statistics and the result line.

/// Metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => *entry = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    pub fn s(&mut self, name: impl Into<String>, value: f64) {
        self.put(name, value, "s");
    }

    pub fn ns(&mut self, name: impl Into<String>, value: f64) {
        self.put(name, value, "ns");
    }

    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.put(name, value, "count");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// Prints one `name value unit` line per metric (human-readable
    /// summary above the result line).
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<44} {value:>16.6} {unit}");
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (Rust's shortest round-trip formatting).
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Median of `xs` (sorts in place; mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// The `q`-quantile of `xs` with linear interpolation between order
/// statistics (sorts in place).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of sorted samples by nearest rank, plus the number of
/// samples strictly above it.
pub fn quantile(sorted: &[u64], q: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let v = sorted[rank - 1];
    let above = sorted.len() - sorted.partition_point(|&x| x <= v);
    (v, above)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_interpolates() {
        assert_eq!(quartile(&mut [4.0, 1.0, 3.0, 2.0, 5.0], 0.75), 4.0);
        assert_eq!(quartile(&mut [1.0, 2.0], 0.25), 1.25);
        assert_eq!(quartile(&mut [7.0], 0.25), 7.0);
    }

    #[test]
    fn quantile_counts_samples_above() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&xs, 0.5), (500, 500));
        assert_eq!(quantile(&xs, 0.99), (990, 10));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.s("setup_s", 0.25);
        m.count("events", 3.0);
        assert_eq!(
            m.result_json(true, 2, 0),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"events\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
