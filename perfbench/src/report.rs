//! Measurement helpers: percentiles, process CPU time and peak memory
//! from `/proc/self`, the ordered metric list, and the result line.

use std::fmt::Write as _;
use std::fs;

use zigzag_api::{LatencyHistogram, LATENCY_BUCKETS};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// An ordered list of named metrics, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.items.push((name.to_string(), value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Every metric, in insertion order.
    pub fn items(&self) -> &[(String, f64, &'static str)] {
        &self.items
    }

    /// Appends every metric of `other`, each name prefixed by `prefix/`.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &Metrics) {
        for (name, value, unit) in &other.items {
            self.set(&format!("{prefix}/{name}"), *value, unit);
        }
    }
}

/// Width of one [`LatencyHist`] bucket: `ln(1.005)`, so bucket bounds
/// are 0.5 % apart.
const LN_STEP: f64 = 0.004_987_541_511_038_968;
/// Buckets up to 10 s.
const HIST_BUCKETS: usize = 4620;

/// A latency histogram with 0.5 %-wide log-spaced buckets from 1 ns to
/// 10 s: constant memory however many requests a run completes, so the
/// benchmark's own bookkeeping does not grow with the program's speed.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
    sum_ns: u128,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHist {
    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        let i = ((ns.max(1) as f64).ln() / LN_STEP) as usize;
        self.counts[i.min(HIST_BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in nanoseconds (exact); 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        self.sum_ns as f64 / self.total.max(1) as f64
    }

    /// Nearest-rank percentile `p` (0–100) in nanoseconds, placed inside
    /// its bucket by the rank's position among the bucket's samples; 0
    /// when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0);
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + f64::from(c) >= target {
                let lo = (i as f64 * LN_STEP).exp();
                let hi = ((i + 1) as f64 * LN_STEP).exp();
                return lo + (hi - lo) * (target - seen - 0.5) / f64::from(c);
            }
            seen += f64::from(c);
        }
        0.0
    }
}

/// Nearest-rank percentile `p` (0–100) of ascending samples; 0 when
/// there are none.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted values; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of unsorted nanosecond samples; 0 when there are none.
pub fn median_ns(samples: &[u64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, 50.0)
}

/// The `p` percentile of the samples a latency histogram gained between
/// two snapshots, interpolated linearly inside its log-spaced bucket.
pub fn histogram_percentile(before: &LatencyHistogram, after: &LatencyHistogram, p: f64) -> f64 {
    let delta: Vec<u64> = (0..LATENCY_BUCKETS)
        .map(|i| after.buckets[i] - before.buckets[i])
        .collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (p / 100.0) * total as f64;
    let mut seen = 0.0;
    for (i, &n) in delta.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= target {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            let hi = hi.min(lo.max(1) * 2);
            return lo as f64 + (hi - lo) as f64 * (target - seen) / n as f64;
        }
        seen += n as f64;
    }
    0.0
}

/// User plus system CPU seconds used so far by this process, all threads
/// included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLOCK_TICKS_PER_S
}

/// The process's peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine-readable result: one JSON object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.items().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// A human-readable two-column table of metrics.
pub fn table(title: &str, metrics: &Metrics) -> String {
    let mut out = format!("== {title}\n");
    for (name, value, unit) in metrics.items() {
        let _ = writeln!(out, "  {name:<36} {value:>16.4} {unit}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = LatencyHist::default();
        for ns in 1..=10_000u64 {
            h.record(ns * 100);
        }
        for (p, exact) in [(50.0, 500_000.0), (99.0, 990_000.0)] {
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() / exact < 0.006,
                "p{p}: {got} vs {exact}"
            );
        }
        assert_eq!(h.mean_ns(), 500_050.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("req_per_s", 12.5, "1/s");
        m.set("setup_s", 0.25, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"req_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
