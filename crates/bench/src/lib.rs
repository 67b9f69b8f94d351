//! Shared setup and sampling helpers for the `*_throughput` binaries.
//!
//! They run on reduced workloads (small enumeration caps) so that
//! repeated sampling stays tractable; the full-scale numbers come from
//! `cargo run --release -p pdf-experiments --bin all_tables`. Each binary
//! times its workload with [`measure`], reports a [`Spread`] per
//! measurement and ends with [`publish`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::io::{ErrorKind, Write};
use std::time::Instant;

use pdf_atpg::{BudgetSpec, RunBudget};
use pdf_experiments::{Prepared, Workload};
use pdf_knobs::{Knob, KnobError, Program};
use pdf_telemetry::Json;

/// Prepares `name` for benchmarking with a reduced cap (`n_p` faults) and
/// `n_p0` split threshold, through [`pdf_experiments::prepare`] with both
/// static passes off.
///
/// # Panics
///
/// Panics if `name` is neither `s27` nor a benchmark stand-in.
#[must_use]
pub fn setup(name: &str, n_p: usize, n_p0: usize) -> Prepared {
    let workload = Workload {
        n_p,
        n_p0,
        ..Workload::default()
    };
    pdf_experiments::prepare(name, &workload).unwrap_or_else(|| panic!("unknown circuit {name}"))
}

/// The start of every throughput binary: validates the knobs the bench
/// binaries read, arms `PDF_FAILPOINTS` (so chaos drills cover them too)
/// and opens the `PDF_TELEMETRY` guard. Returns the guard with the
/// `PDF_BENCH_CIRCUIT` name. A malformed knob exits with status 2.
pub fn start() -> (pdf_telemetry::Guard, String) {
    let started = || -> Result<_, KnobError> {
        pdf_atpg::validate_env(Program::Bench)?;
        pdf_chaos::install_from_env()?;
        let telemetry = pdf_telemetry::Guard::from_env()?;
        let circuit = pdf_knobs::BENCH_CIRCUIT.text()?;
        Ok((telemetry, circuit.unwrap_or_else(|| "s9234*".to_owned())))
    };
    started().unwrap_or_else(|e| e.exit())
}

/// A numeric bench knob, or `default` when unset. A malformed value exits
/// with status 2.
#[must_use]
pub fn knob_number(knob: &Knob, default: usize) -> usize {
    knob.number()
        .unwrap_or_else(|e| e.exit())
        .unwrap_or(default)
}

/// The optional `PDF_TIME_BUDGET` bound on a bench binary's sampling
/// loops. The budget gates *harness repetitions*, never the measured work
/// itself, so the determinism cross-checks stay meaningful: an exhausted
/// budget means fewer samples, not different outcomes. A malformed
/// budget exits with status 2.
#[must_use]
pub fn bench_budget() -> RunBudget {
    let spec = pdf_knobs::TIME_BUDGET.read(None, BudgetSpec::parse);
    match spec.unwrap_or_else(|e| e.exit()) {
        Some(spec) => {
            let now = Instant::now();
            RunBudget::with_deadline(spec.deadline_for("bench", now, now))
        }
        None => RunBudget::unlimited(),
    }
}

/// The end of every throughput binary: writes `report` to `path`, then
/// prints `summary` on stdout. The file comes first, so a reader that
/// stops early (`pipeline_throughput | head -3`) cannot keep it from
/// being written. A closed stdout is not an error; any other stdout
/// error exits with status 2.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn publish(path: &str, report: &Json, summary: &str) {
    std::fs::write(path, report.to_pretty()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(summary.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(2);
        }
    }
}

/// The spread of repeated wall-clock samples, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Fastest sample.
    pub min: f64,
    /// Median sample (the mean of the two middle ones for an even count).
    pub median: f64,
    /// Slowest sample.
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Spread {
    /// The spread of `seconds`.
    ///
    /// # Panics
    ///
    /// Panics when `seconds` is empty.
    #[must_use]
    pub fn of(seconds: &[f64]) -> Spread {
        assert!(!seconds.is_empty(), "a spread needs at least one sample");
        let mut sorted = seconds.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Spread {
            min: sorted[0],
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            max: sorted[n - 1],
            samples: n,
        }
    }

    /// `{"min", "median", "max", "samples"}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("min", self.min)
            .field("median", self.median)
            .field("max", self.max)
            .field("samples", self.samples)
    }
}

/// One untimed warm-up call of `f`, then up to `samples` timed calls — at
/// least one; an exhausted `budget` trims the rest. Every timed call must
/// return what the warm-up returned, so a nondeterministic workload
/// fails the bench instead of producing a number.
///
/// # Panics
///
/// Panics when a timed call's result differs from the warm-up's.
pub fn measure<R: PartialEq + Debug>(
    budget: &RunBudget,
    samples: usize,
    mut f: impl FnMut() -> R,
) -> (Spread, R) {
    let result = f();
    let mut seconds = Vec::with_capacity(samples);
    for sample in 0..samples.max(1) {
        if sample > 0 && budget.exhausted() {
            eprintln!("warning: time budget exhausted after {sample} sample(s)");
            break;
        }
        let start = Instant::now();
        let again = f();
        seconds.push(start.elapsed().as_secs_f64());
        assert_eq!(again, result, "nondeterministic bench workload");
    }
    (Spread::of(&seconds), result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_orders_and_takes_the_middle() {
        let odd = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (odd.min, odd.median, odd.max, odd.samples),
            (1.0, 2.0, 3.0, 3)
        );
        let even = Spread::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(even.median, 2.5);
    }

    #[test]
    fn measure_runs_a_warm_up_plus_the_samples() {
        let mut calls = 0;
        let (spread, result) = measure(&RunBudget::unlimited(), 4, || {
            calls += 1;
            7
        });
        assert_eq!((calls, result, spread.samples), (5, 7, 4));
    }

    #[test]
    #[should_panic(expected = "nondeterministic")]
    fn measure_rejects_a_changing_result() {
        let mut calls = 0;
        let _ = measure(&RunBudget::unlimited(), 2, || {
            calls += 1;
            calls
        });
    }
}
