//! What one run reports, and the one line the driver reads.

use crate::json::Json;

/// The outcome of one workload run. `metrics` keeps insertion order for
/// the human-readable listing; the JSON line sorts by name.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations whose result was checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Free-form lines for the reader (digests, window samples).
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str((*unit).to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn print(&self, workload: &str) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{workload:<18} {name:<40} {value:>18.6} {unit}");
        }
        println!("{}", self.to_json().render());
    }
}
