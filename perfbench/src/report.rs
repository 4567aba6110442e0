//! What one benchmark run found: metrics, correctness gates, and the
//! closing JSON line.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Evidence printed beside the value (e.g. a tail's sample count).
    pub note: String,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub gates: Vec<Gate>,
    /// Sentences offered to the timed pipeline.
    pub attempted: u64,
    /// Offered sentences that were quarantined, dead-lettered or shed.
    pub failed: u64,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metric_noted(name, unit, value, String::new());
    }

    pub fn metric_noted(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: String,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }

    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Work was offered, every gate passed and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.attempted >= 1
            && self.gates.iter().all(|g| g.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable lines, then the one-line JSON result.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for g in &self.gates {
            let verdict = if g.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(s, "gate {verdict} {}: {}", g.name, g.detail);
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<28} {:>16.4} {:<10} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        s.push_str(&self.json());
        s.push('\n');
        s
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; such a value already
                // fails `correct()`.
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
