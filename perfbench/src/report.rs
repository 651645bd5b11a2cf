//! The run's result: metric values, operation counts, and the details
//! line printed before the result line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One metric as it appears in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (analyses, requests, emissions, ...).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Human-readable reasons for the failures (first few).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra facts for the details line, as `(key, JSON value)`.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Records one attempted operation and whether it passed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a numeric detail.
    pub fn detail_num(&mut self, key: &str, value: f64) {
        self.details.push((key.to_string(), number(value)));
    }

    /// Adds a string detail.
    pub fn detail_str(&mut self, key: &str, value: &str) {
        self.details.push((key.to_string(), string(value)));
    }

    /// The share of attempted operations that passed.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Whether every attempted operation passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The details line: one JSON object.
    pub fn details_line(&self) -> String {
        let mut out = String::from("{\"details\":{");
        let mut entries: Vec<String> = self
            .details
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| string(p)).collect();
        entries.push(format!("\"problems\":[{}]", problems.join(",")));
        out.push_str(&entries.join(","));
        out.push_str("}}");
        out
    }

    /// The result line the contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    string(m.name),
                    number(m.value),
                    string(m.unit)
                )
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
}

/// A JSON number (non-finite values, which JSON cannot carry, become 0).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Samples this process's resident set every [`RSS_PERIOD`] on a thread
/// of its own, from [`RssSampler::start`] to [`RssSampler::stop`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

/// Time between resident-set samples.
const RSS_PERIOD: Duration = Duration::from_millis(50);

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.extend(status_mb("VmRSS:"));
                std::thread::sleep(RSS_PERIOD);
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling; returns the median resident set in MB (0 where
    /// `/proc` is unavailable).
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().expect("the RSS sampler panicked");
        crate::stats::median(&samples)
    }
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// VmHWM of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// FNV-1a 64 digest of a rendered output, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}
