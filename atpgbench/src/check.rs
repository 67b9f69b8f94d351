//! Output checks: every sample's emitted test file is parsed and fault
//! simulated again, and the counts must equal what the CLI reported.

use pdf_atpg::{SimOptions, TestSet};

use crate::flow::{self, Targets, Tracer};
use crate::workload::Plan;

/// The re-simulated counts of one sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Tests in the emitted file.
    pub tests: usize,
    /// P0 faults the file detects.
    pub p0_detected: usize,
    /// P0∪P1 faults the file detects.
    pub p01_detected: usize,
}

/// The fault population a workload's samples are checked against. It
/// does not depend on the generator seed, so one reference serves every
/// sample of a run.
pub struct Reference {
    enrich: bool,
    targets: Targets,
}

impl Reference {
    /// Builds the population for `plan` through the same calls the traced
    /// run makes.
    ///
    /// # Errors
    ///
    /// A message when the population cannot be built.
    pub fn new(plan: &Plan) -> Result<Reference, String> {
        let targets = flow::prepare(plan, &mut Tracer::new("reference"))?;
        Ok(Reference {
            enrich: plan.enrich,
            targets,
        })
    }

    /// Checks one sample: the CLI summary `stdout` and the test file text
    /// it wrote. The run must report no budget exhaustion and no
    /// quarantined fault, its target sizes must match the reference, and
    /// re-simulating the file must reproduce the reported test count and
    /// P0 (and, for enrichment, P0∪P1) detections.
    ///
    /// # Errors
    ///
    /// A message naming the first disagreement.
    pub fn check(&self, stdout: &str, text: &str) -> Result<Counts, String> {
        let split = &self.targets.split;
        let targets = format!(
            "targets: |P0| = {} (lengths >= {}), |P1| = {}",
            split.p0().len(),
            split.cutoffs()[0],
            split.p1().len()
        );
        for expected in [
            targets.as_str(),
            "budget_exhausted: false",
            "faults_quarantined: 0",
        ] {
            if !stdout.lines().any(|l| l == expected) {
                return Err(format!("the CLI output lacks `{expected}`"));
            }
        }
        let prefix = if self.enrich {
            "enrichment: "
        } else {
            "basic ("
        };
        let summary = stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| format!("the CLI output lacks a `{prefix}` summary"))?;
        let generated = number_before(summary, " tests")?;
        let reported_p0 = number_after(summary, "; P0 ")?;
        let reported_p01 = if self.enrich {
            Some(number_after(summary, "P0∪P1 ")?)
        } else {
            None
        };
        let reported_tests = match stdout
            .lines()
            .find(|l| l.starts_with("static minimization"))
        {
            None => generated,
            Some(line) if line.starts_with("static minimization: ") => {
                if number_after(line, "minimization: ")? != generated {
                    return Err(format!("`{line}` does not start from {generated} tests"));
                }
                number_after(line, "-> ")?
            }
            Some(line) => return Err(format!("minimization did not run: `{line}`")),
        };

        let tests = TestSet::from_text(text).map_err(|e| format!("test file: {e}"))?;
        if tests.len() != reported_tests {
            return Err(format!(
                "the test file holds {} tests, the CLI reported {reported_tests}",
                tests.len()
            ));
        }
        let circuit = &self.targets.circuit;
        let sim = SimOptions::default();
        let p0_detected = tests
            .coverage_with(sim, circuit, split.p0())
            .detected_count();
        let p01_detected = tests
            .coverage_with(sim, circuit, &self.targets.everything)
            .detected_count();
        if p0_detected != reported_p0 {
            return Err(format!(
                "re-simulation detects {p0_detected} P0 faults, the CLI reported {reported_p0}"
            ));
        }
        if let Some(reported) = reported_p01 {
            if p01_detected != reported {
                return Err(format!(
                    "re-simulation detects {p01_detected} P0∪P1 faults, the CLI reported {reported}"
                ));
            }
        }
        Ok(Counts {
            tests: tests.len(),
            p0_detected,
            p01_detected,
        })
    }
}

/// The integer right after the first `marker` in `line`.
fn number_after(line: &str, marker: &str) -> Result<usize, String> {
    let (_, rest) = line
        .split_once(marker)
        .ok_or_else(|| format!("`{line}` lacks `{marker}`"))?;
    leading_number(rest).ok_or_else(|| format!("`{line}`: no number after `{marker}`"))
}

/// The integer right before the first `marker` in `line`.
fn number_before(line: &str, marker: &str) -> Result<usize, String> {
    let (head, _) = line
        .split_once(marker)
        .ok_or_else(|| format!("`{line}` lacks `{marker}`"))?;
    let start = head
        .rfind(|c: char| !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    head[start..]
        .parse()
        .map_err(|_| format!("`{line}`: no number before `{marker}`"))
}

fn leading_number(s: &str) -> Option<usize> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}
