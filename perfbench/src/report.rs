//! The benchmark's result: metrics by name and unit, failures, provenance,
//! and the small JSON writer that prints them.

use std::fmt::Write as _;

/// A JSON value.
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj() -> J {
        J::Obj(Vec::new())
    }

    pub fn with(mut self, key: &str, v: J) -> J {
        if let J::Obj(kv) = &mut self {
            kv.push((key.to_string(), v));
        }
        self
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(n) => {
                let _ = write!(out, "{n}");
            }
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
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
            }
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    x.write(out);
                }
                out.push(']');
            }
            J::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    J::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metric list in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn to_json(&self) -> J {
        J::Obj(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        J::obj().with("value", J::Num(m.value)).with("unit", J::Str(m.unit.into())),
                    )
                })
                .collect(),
        )
    }
}

/// Statement outcomes of the timed phase. Every generated statement is
/// valid, so any failure is listed with its error text.
#[derive(Default)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// How many distinct failure texts the report keeps (all are counted).
const MAX_ERRORS: usize = 32;

impl Outcomes {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(format!("{what}: {err}"));
        }
    }

    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one run of one workload produces.
#[derive(Default)]
pub struct Report {
    /// The metrics `BENCHMARK.json` names as end to end (untraced run),
    /// times scaled to the reference host speed.
    pub e2e: Metrics,
    /// The same times as measured, unscaled.
    pub raw: Metrics,
    /// The workload's own statement-class metrics (untraced run).
    pub detail: Metrics,
    /// The metrics `BENCHMARK.json` names as per layer (traced run).
    pub layer: Metrics,
    /// Span coverage and tracing overhead notes (traced run).
    pub coverage: Metrics,
    pub outcomes: Outcomes,
    /// Correctness checks that passed, in order.
    pub checks: Vec<String>,
    /// Settings and provenance, as `key: value` text.
    pub settings: Vec<(String, String)>,
    /// Untraced p50 of the workload's fastest statement class: what
    /// `core.snapshot_share` divides the snapshot copy by.
    pub fastest_p50_ms: f64,
}

impl Report {
    pub fn setting(&mut self, key: &str, value: impl ToString) {
        self.settings.push((key.to_string(), value.to_string()));
    }

    pub fn passed(&mut self, check: impl Into<String>) {
        self.checks.push(check.into());
    }
}
