//! Sample summaries and the benchmark's result record.

/// A set of measurements of one quantity, in the unit it was taken in.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (0..=1), linearly interpolated between the two
    /// nearest ranks; `NaN` when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => f64::NAN,
            n => {
                let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
            }
        }
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }
}

/// CPU time the hypervisor gave to other guests, summed over this
/// machine's CPUs, in clock ticks (`steal` in `/proc/stat`); 0 where it
/// is not reported.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Tells measurements the host disturbed from clean ones.
///
/// On a shared virtual machine the hypervisor now and then runs other
/// guests on this machine's CPUs; every latency measured across such a
/// steal is longer by time the program never got. A measurement is
/// clean when the steal during it stays within 1% of the CPU time the
/// machine had over its wall time (any tick of steal, for measurements
/// shorter than half a second on two CPUs). Reading the counter costs
/// one small file read, made between measurements, never inside one.
pub struct StealGate {
    last: u64,
    cpus: f64,
}

impl StealGate {
    /// Clock ticks per second of `/proc/stat` (`USER_HZ`).
    const TICKS_PER_S: f64 = 100.0;

    pub fn new() -> StealGate {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        StealGate { last: steal_ticks(), cpus }
    }

    /// Whether the measurement that just took `wall` was clean; starts
    /// the next one.
    pub fn clean(&mut self, wall: std::time::Duration) -> bool {
        let now = steal_ticks();
        let stolen = now.saturating_sub(self.last) as f64 / Self::TICKS_PER_S;
        self.last = now;
        stolen <= 0.01 * wall.as_secs_f64() * self.cpus
    }
}

/// What one run of the benchmark reports: operations attempted and
/// failed, named metrics, and the human-readable lines printed before
/// the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one operation, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a failed check and says why on standard error.
    pub fn fail(&mut self, what: &str) {
        eprintln!("FAILED: {what}");
        self.op(false);
    }

    /// Counts a check that passed when `ok`, otherwise a failure naming
    /// `what`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.op(true);
        } else {
            self.fail(what);
        }
    }

    /// Records a metric and prints it with its unit and sample count.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        println!("metric {name:<36} {value:>14.4} {unit:<6} (n={samples})");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a figure that is reported for reading but is not one of
    /// the metrics of the result line.
    pub fn note(name: &str, value: f64, unit: &str, samples: usize) {
        println!("  also {name:<36} {value:>14.4} {unit:<6} (n={samples})");
    }

    /// The last line of the benchmark's output: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a missing value is a 0
                // the checks below have already counted as a failure.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of process `pid` in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(Samples::default().p50().is_nan());
    }

    #[test]
    fn result_line_counts_failures() {
        let mut r = Report::default();
        r.op(true);
        r.fail("x");
        r.metrics.push(("a_ms".into(), 1.5, "ms"));
        assert_eq!(
            r.result_line(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
