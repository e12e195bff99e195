//! What one workload's run hands back: its metrics, its operation ledger,
//! and the digests that make a changed load or a changed answer visible.

use crate::json::Json;
use crate::metrics::Results;

/// Operations attempted and failed. An operation (a pass, window,
/// recovery, query or round) fails when any check on its output fails.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Books one operation with the checks made on it; each check is
    /// `(held, what it asserts)`.
    pub fn op(&mut self, context: &str, checks: &[(bool, &str)]) {
        self.attempted += 1;
        let broken: Vec<&str> = checks
            .iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, what)| *what)
            .collect();
        if !broken.is_empty() {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures
                    .push(format!("{context}: {}", broken.join("; ")));
            }
        }
    }

    pub fn absorb(&mut self, other: &Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }
}

/// One workload's result.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Digest of the outputs the checks compared (histograms, ledgers).
    pub output_digest: u64,
    /// Operation counts and exact ledgers, in print order.
    pub counts: Vec<(&'static str, u64)>,
    pub ops: Ops,
    pub metrics: Results,
    /// Wall seconds inside timed regions.
    pub timed_s: f64,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    /// The deterministic half of the outcome: everything two runs with
    /// one seed must agree on byte for byte. `metrics` is the run's whole
    /// result set; this workload's exact-count metrics are picked from it.
    pub fn exact_json(&self, metrics: &Results) -> Json {
        let exact = metrics
            .iter()
            .filter(|(name, _)| {
                crate::metrics::lookup(name).is_some_and(|d| d.exact && d.workload == self.workload)
            })
            .map(|(name, m)| (name, Json::Num(m.value)));
        Json::obj([
            (
                "input_digest",
                Json::str(format!("{:016x}", self.input_digest)),
            ),
            (
                "output_digest",
                Json::str(format!("{:016x}", self.output_digest)),
            ),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (*k, Json::uint(*v)))),
            ),
            ("exact_metrics", Json::obj(exact)),
        ])
    }
}
