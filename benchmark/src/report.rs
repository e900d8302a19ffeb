//! What a run prints: every metric by name with its unit, then the
//! result object the driver reads as the last line.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a timing, shown beside it.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result object.
    pub metrics: Vec<Metric>,
    /// Printed by name like the rest, but not part of the result
    /// object: metrics this workload has that others lack.
    pub extras: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn print(&self, header: &str) {
        println!("{header}");
        for m in self.metrics.iter().chain(&self.extras) {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("{:<36} {:>16.4} {}{n}", m.name, m.value, m.unit);
        }
        println!(
            "fail_ratio {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest digits that read back as the
            // same f64: the value as measured.
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}
