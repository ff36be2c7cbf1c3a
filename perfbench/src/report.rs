//! Metric collection, order statistics, and the result line.

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Prints one human-readable line per metric.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "metric {:<32} {:>16} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
    }

    /// The result object (one line of JSON).
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A number JSON can carry: +inf (a failed read) becomes the largest
/// finite double, which misses any latency limit just the same.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "null".into()
    } else if v.is_infinite() {
        format!("{:e}", f64::MAX.copysign(v))
    } else {
        format!("{v}")
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.abs() >= 1e-3 && v.abs() < 1e7 {
        format!("{v:.4}")
    } else {
        format!("{v:e}")
    }
}

/// The nearest-rank `p` quantile (0 < p ≤ 1) of `values`; +inf entries
/// sort last. NaN when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
