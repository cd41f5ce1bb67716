//! What a run reports: named metrics with units, counted checks, and
//! the one-line JSON result the driver reads.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    /// Operations and checks attempted, and how many failed or were
    /// wrong. Any failure fails the run.
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names: end-to-end ones from a
    /// measured run, per-layer ones from a traced run.
    pub metrics: Vec<Metric>,
    /// Printed and written to the output file, not part of the result
    /// line.
    pub info: Vec<Metric>,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl Report {
    /// A metric `BENCHMARK.json` names.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        // JSON has no NaN; a ratio over nothing reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.to_owned(), value, unit });
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push(Metric { name: name.into(), value, unit });
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            eprintln!("check failed: {what}");
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Every metric by name with its unit, one per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(out, "{:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<44} {:>16.6} ratio ({} failed of {} attempted)",
            "error_share", share, self.failed, self.attempted
        );
        out
    }

    fn metrics_json(metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Self::metrics_json(&self.metrics)
        )
    }

    /// The output file: the result plus the informational metrics.
    pub fn file_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace},\n \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \"metrics\": {},\n \"info\": {}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            Self::metrics_json(&self.metrics),
            Self::metrics_json(&self.info)
        )
    }
}
