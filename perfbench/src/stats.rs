//! Order statistics, process counters, and the result line.

use std::time::Duration;

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-quantile (0..=1) of `sorted`, interpolating linearly between
/// order statistics; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// How many of `n` samples lie above the `p`-quantile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * (n.saturating_sub(1)) as f64).floor() as usize + 1).min(n)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User plus system CPU time of this process, all threads included, from
/// `/proc/self/stat` (Linux reports it in 1/100 s ticks).
pub fn process_cpu_seconds() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| bad_proc("/proc/self/stat has no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| bad_proc("short /proc/self/stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Machine-wide CPU ticks `(stolen by the hypervisor, all)` so far, from
/// the first line of `/proc/stat`.
pub fn host_ticks() -> std::io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or_else(|| bad_proc("/proc/stat has no cpu line"))?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let steal = *ticks.get(7).ok_or_else(|| bad_proc("short /proc/stat"))?;
    Ok((steal, ticks.iter().take(8).sum()))
}

/// Share of machine CPU time stolen between two [`host_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 * 100.0 / all as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| bad_proc("no VmHWM in /proc/self/status"))
}

fn bad_proc(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports: the result line plus human-readable notes.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result, each prefixed with `# `.
    pub notes: Vec<String>,
    /// Why the run is not correct, one line each.
    pub errors: Vec<String>,
}

impl Report {
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_count_the_tail() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.9), 91.0);
        assert_eq!(beyond(101, 0.9), 10);
        assert_eq!(beyond(101, 0.5), 50);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
