//! Collects a run's metrics and correctness tallies and prints them: one
//! human-readable line per metric (name, value, unit, sample count), a
//! provenance line, and the machine-readable result as the last line.

use crate::calib::Speedometer;
use crate::stats::{self, Sample};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (`None` for counts and ratios).
    pub samples: Option<usize>,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (decisions, requests, rounds).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Why operations failed, one line each (capped when printed).
    pub failures: Vec<String>,
    /// `key=value` pairs describing the workload and build.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Reports `<name>.p50` and `<name>.p99` of a nanosecond sample.
    pub fn ns_pair(&mut self, name: &str, sample: &Sample) {
        let n = Some(sample.len());
        self.metric(&format!("{name}.p50"), sample.pct(50.0) as f64, "ns", n);
        self.metric(&format!("{name}.p99"), sample.pct(99.0) as f64, "ns", n);
    }

    /// Reports the end-to-end metrics every workload measures itself:
    /// set-up time, throughput and latency from the windows, and adoption
    /// percentiles (all at nominal machine speed).
    pub fn end_to_end(&mut self, setups: Vec<f64>, w: &WindowSummary, adopt: &Sample) {
        let n = Some(setups.len());
        self.metric("setup_s", stats::median_of(setups), "s", n);
        self.metric("ops_per_s", w.rate, "1/s", Some(w.windows));
        self.metric("p50_us", w.p50 / 1e3, "us", Some(w.samples));
        self.metric("p99_us", w.p99 / 1e3, "us", Some(w.samples));
        let n = Some(adopt.len());
        self.metric("adopt_p50_ms", adopt.pct(50.0) as f64 / 1e6, "ms", n);
        self.metric("adopt_p90_ms", adopt.pct(90.0) as f64 / 1e6, "ms", n);
        self.provenance("window_speed_median", w.speed);
    }

    /// Records one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn provenance(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_owned(), value.to_string()));
    }

    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the report; the result object is the last stdout line.
    pub fn print(&self) {
        for why in self.failures.iter().take(20) {
            eprintln!("FAIL {why}");
        }
        if self.failures.len() > 20 {
            eprintln!("FAIL ... and {} more", self.failures.len() - 20);
        }
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
            println!("metric {} = {} {}{n}", m.name, m.value, m.unit);
        }
        let fail_frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "check attempted={} failed={} fail_frac={fail_frac}",
            self.attempted, self.failed
        );
        let mut prov = String::from("{\"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            if i > 0 {
                prov.push_str(", ");
            }
            let _ = write!(prov, "{}: {}", quote(k), quote(v));
        }
        prov.push_str("}}");
        println!("{prov}");
        println!("{}", self.result_json());
    }

    /// The machine-readable result object.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&m.name),
                quote(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fewest latency samples a window needs to report its p99 with at
/// least ten samples beyond it.
pub const MIN_WINDOW_SAMPLES: usize = 1000;

/// Measurement windows: each closes after (at least) `window_ns` of
/// measured time and records its throughput and, when it holds enough
/// latency samples, its p50 and p99. A run reports the interquartile mean
/// of each across windows, so a burst of interference from other tenants
/// of the machine moves a few windows rather than the whole figure, and
/// the memory a run holds does not grow with its speed.
///
/// Calibrated windows (see `calib`) measure the machine's speed when each
/// window closes, outside the measured time, and scale the window's
/// figures to nominal speed by the mean of the speeds at its start and end.
pub struct Windows {
    window_ns: u64,
    ops: u64,
    ns: u64,
    latencies: Vec<u64>,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: usize,
    speedometer: Option<Speedometer>,
    speeds: Vec<f64>,
}

/// What a run's windows add up to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSummary {
    /// Operations per second (interquartile mean over windows).
    pub rate: f64,
    /// Latency p50 and p99 in ns (interquartile means over windows).
    pub p50: f64,
    pub p99: f64,
    /// Windows closed, and latency samples they held.
    pub windows: usize,
    pub samples: usize,
    /// Median factor the windows were scaled by (1.0 uncalibrated).
    pub speed: f64,
}

impl Windows {
    /// Windows whose figures are taken as measured.
    pub fn new(window_ns: u64) -> Windows {
        Windows {
            window_ns,
            ops: 0,
            ns: 0,
            latencies: Vec::new(),
            rates: Vec::new(),
            p50s: Vec::new(),
            p99s: Vec::new(),
            samples: 0,
            speedometer: None,
            speeds: Vec::new(),
        }
    }

    /// Windows scaled to nominal machine speed by `speedometer`, which
    /// measures on the calling thread: the one that calls [`Windows::add`].
    pub fn calibrated_with(window_ns: u64, speedometer: Speedometer) -> Windows {
        Windows {
            speedometer: Some(speedometer),
            ..Windows::new(window_ns)
        }
    }

    /// Adds one latency sample to the open window.
    pub fn sample(&mut self, ns: u64) {
        self.latencies.push(ns);
    }

    /// Adds `ops` operations that took `ns` of measured time; returns true
    /// when this closed a window (and, calibrated, measured the speed).
    pub fn add(&mut self, ops: u64, ns: u64) -> bool {
        self.ops += ops;
        self.ns += ns;
        self.ns >= self.window_ns && self.close()
    }

    /// Closes the open window now, whatever its measured time; returns
    /// false when it held no operations.
    pub fn close(&mut self) -> bool {
        if self.ops == 0 || self.ns == 0 {
            return false;
        }
        let speed = self.speedometer.as_mut().map_or(1.0, Speedometer::interval);
        self.speeds.push(speed);
        self.rates
            .push(self.ops as f64 * 1e9 / self.ns as f64 / speed);
        if self.latencies.len() >= MIN_WINDOW_SAMPLES {
            let window = Sample::new(std::mem::take(&mut self.latencies));
            self.p50s.push(window.pct(50.0) as f64 * speed);
            self.p99s.push(window.pct(99.0) as f64 * speed);
            self.samples += window.len();
        }
        self.latencies.clear();
        self.ops = 0;
        self.ns = 0;
        true
    }

    /// The factor for the speed measured last (1.0 uncalibrated).
    pub fn factor_now(&self) -> f64 {
        self.speedometer
            .as_ref()
            .map_or(1.0, |s| s.factor(s.last()))
    }

    /// The run's figures; `NaN` where no window qualified.
    pub fn summary(&self) -> WindowSummary {
        let iqm = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                stats::interquartile_mean(v.to_vec())
            }
        };
        WindowSummary {
            rate: iqm(&self.rates),
            p50: iqm(&self.p50s),
            p99: iqm(&self.p99s),
            windows: self.rates.len(),
            samples: self.samples,
            speed: if self.speeds.is_empty() {
                1.0
            } else {
                stats::median_of(self.speeds.clone())
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_is_one_json_object_with_the_four_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("p50_us", 1.25, "us", Some(10));
        r.metric("setup_s", 0.5, "s", Some(5));
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.fail("mismatch".into());
        assert!(!r.correct());
        assert!(r
            .result_json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }

    #[test]
    fn non_finite_metric_is_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("x", f64::NAN, "ms", None);
        assert!(!r.correct());
    }

    #[test]
    fn windows_summarise_rate_and_latency() {
        let mut w = Windows::new(1_000);
        assert!(!w.add(10, 999));
        assert!(w.add(0, 1)); // 10 ops in 1000 ns: 1e7/s, too few samples
        for rate_ops in [30u64, 20, 40, 50] {
            for i in 0..MIN_WINDOW_SAMPLES as u64 {
                w.sample(rate_ops * 1000 + i);
            }
            assert!(w.add(rate_ops, 1_000));
        }
        w.add(5, 10); // open window: ignored
        let s = w.summary();
        assert_eq!(s.windows, 5);
        // Closing by hand ends the open window: 5 ops in 10 ns.
        assert!(w.close());
        assert!(!w.close());
        assert_eq!(w.summary().windows, 6);
        assert_eq!(s.speed, 1.0);
        assert_eq!(s.windows, 5);
        assert_eq!(s.samples, 4 * MIN_WINDOW_SAMPLES);
        // Rates 1e7, 2e7, 3e7, 4e7, 5e7: the middle three average 3e7.
        assert_eq!(s.rate, 3e7);
        // Window p50s 20499, 30499, 40499, 50499: middle two average.
        assert_eq!(s.p50, (30_499.0 + 40_499.0) / 2.0);
        assert!(Windows::new(5).summary().rate.is_nan());
    }

    #[test]
    fn quotes_escape() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
