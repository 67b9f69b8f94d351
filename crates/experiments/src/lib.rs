//! Reproduction harness for every table and figure of the DATE 2002
//! test-enrichment paper.
//!
//! Each binary of this crate regenerates one artifact of the paper's
//! evaluation and prints measured values side by side with the paper's:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | the `s27` enumeration walkthrough (`N_P = 20`) |
//! | `table2` | `L_i` / `N_p(L_i)` cumulative length table |
//! | `table3` | `P_0` faults detected per compaction heuristic |
//! | `table4` | number of tests per compaction heuristic |
//! | `table5` | accidental `P_0 ∪ P_1` coverage of the basic test sets |
//! | `table6` | enrichment results (11 circuits) |
//! | `table7` | run-time ratio enrichment / basic |
//! | `figure1` | the `s27` circuit of Fig. 1 (paper numbering + DOT) |
//! | `figure2` | the distance bound `len(p) = delay(p) + d(g)` of Fig. 2 |
//! | `all_tables` | everything above, plus an `EXPERIMENTS.md` report |
//!
//! The workload parameters default to the paper's (`N_P = 10000`,
//! `N_P0 = 1000`) and can be overridden through environment variables for
//! quick runs: `PDF_NP`, `PDF_NP0`, `PDF_SEED`, `PDF_ATTEMPTS`, and
//! `PDF_CIRCUITS` (comma-separated allow-list).
//!
//! Benchmark circuits are deterministic synthetic stand-ins (see
//! [`pdf_netlist::stand_in_profile`] and `DESIGN.md`); `s27` is the exact
//! circuit of the paper's Figure 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
pub mod report;

use std::sync::Arc;
use std::time::Instant;

use pdf_analyze::{lint_circuit, LintMode, Preparation};
use pdf_atpg::{
    AtpgConfig, BasicAtpg, BudgetSpec, Compaction, EnrichmentAtpg, RunBudget, TargetSplit,
};
use pdf_faults::{FaultList, LearnedImplications};
use pdf_knobs::{KnobError, Program};
use pdf_netlist::Circuit;
use pdf_paths::PathEnumerator;

/// Workload parameters shared by all experiments.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The enumeration cap `N_P`, in faults (paper: 10000).
    pub n_p: usize,
    /// The `P_0` sizing threshold `N_P0` (paper: 1000).
    pub n_p0: usize,
    /// Master seed for all randomized decisions.
    pub seed: u64,
    /// Justification completion blocks per call (paper: 1 attempt).
    pub attempts: u32,
    /// Optional wall-clock budget per generation run (`PDF_TIME_BUDGET`).
    /// A budgeted run that exhausts its deadline still reports its partial
    /// results, flagged on stderr.
    pub time_budget: Option<BudgetSpec>,
    /// Run static implication learning before fault-list construction and
    /// thread the learned closure table through elimination and test
    /// generation (`PDF_STATIC_LEARNING`). Off by default: a disabled
    /// table leaves every experiment byte-identical.
    pub static_learning: bool,
    /// Classify path sensitizability before fault-list construction and
    /// pre-eliminate the provably false paths (`PDF_SENSITIZE`). Off by
    /// default: with the pass disabled every experiment is
    /// byte-identical to earlier releases.
    pub sensitize: bool,
}

impl Default for Workload {
    fn default() -> Workload {
        Workload {
            n_p: 10_000,
            n_p0: 1_000,
            seed: 2002,
            attempts: 1,
            time_budget: None,
            static_learning: false,
            sensitize: false,
        }
    }
}

impl Workload {
    /// The defaults, overridden by `PDF_NP`, `PDF_NP0`, `PDF_SEED`,
    /// `PDF_ATTEMPTS`, `PDF_TIME_BUDGET`, `PDF_STATIC_LEARNING` and
    /// `PDF_SENSITIZE` when set. Every knob the experiments read is
    /// validated first, so a malformed one aborts before any work.
    ///
    /// # Errors
    ///
    /// A [`KnobError`] for the first malformed knob — `PDF_NP=10k` must
    /// abort the run, not silently fall back to the paper's default.
    pub fn from_env() -> Result<Workload, KnobError> {
        pdf_atpg::validate_env(Program::Experiments)?;
        let d = Workload::default();
        Ok(Workload {
            n_p: pdf_knobs::NP.number()?.unwrap_or(d.n_p),
            n_p0: pdf_knobs::NP0.number()?.unwrap_or(d.n_p0),
            seed: pdf_knobs::SEED.number()?.unwrap_or(d.seed),
            attempts: pdf_knobs::ATTEMPTS.number()?.unwrap_or(d.attempts),
            time_budget: pdf_knobs::TIME_BUDGET.read(None, BudgetSpec::parse)?,
            static_learning: pdf_knobs::STATIC_LEARNING.switch(false)?,
            sensitize: pdf_knobs::SENSITIZE.switch(false)?,
        })
    }

    /// A fresh [`RunBudget`] for one generation run: the workload's time
    /// budget (generate-phase entry or global) anchored at the call
    /// instant, or an unlimited budget when none is configured.
    #[must_use]
    pub fn run_budget(&self) -> RunBudget {
        match &self.time_budget {
            Some(spec) => {
                let now = Instant::now();
                RunBudget::with_deadline(spec.deadline_for("generate", now, now))
            }
            None => RunBudget::unlimited(),
        }
    }

    /// The generation config for one run on `prepared` under
    /// `compaction`: the workload's seed and attempts, a fresh
    /// [`Workload::run_budget`], and the preparation's learned table.
    #[must_use]
    pub fn config(&self, prepared: &Prepared, compaction: Compaction) -> AtpgConfig {
        AtpgConfig {
            seed: self.seed,
            compaction,
            justify_attempts: self.attempts,
            budget: self.run_budget(),
            learned: prepared.learned.clone(),
            ..AtpgConfig::default()
        }
    }
}

/// Applies the `PDF_CIRCUITS` allow-list to a circuit name list. Each
/// allow-list entry that matches nothing in `names` draws a warning on
/// stderr (misspelling a circuit must not silently shrink a table).
///
/// # Errors
///
/// A [`KnobError`] when `PDF_CIRCUITS` is malformed or selects none of
/// `names` — an experiment over zero circuits is never what the user
/// meant.
pub fn filter_circuits(names: &[&'static str]) -> Result<Vec<&'static str>, KnobError> {
    let Some(allowed) = pdf_knobs::CIRCUITS.list::<String>()? else {
        return Ok(names.to_vec());
    };
    for a in &allowed {
        if !names.contains(&a.as_str()) {
            eprintln!(
                "warning: PDF_CIRCUITS entry `{a}` matches none of the available circuits \
                 {names:?}"
            );
        }
    }
    let kept: Vec<&'static str> = names
        .iter()
        .copied()
        .filter(|n| allowed.iter().any(|a| a == n))
        .collect();
    if kept.is_empty() {
        return Err(KnobError {
            name: pdf_knobs::CIRCUITS.env.to_owned(),
            value: allowed.join(","),
            expected: format!("selects none of the available circuits {names:?}"),
        });
    }
    Ok(kept)
}

/// A circuit prepared for test generation: enumerated, filtered, split.
#[derive(Debug)]
pub struct Prepared {
    /// Circuit name.
    pub name: String,
    /// The line-level circuit.
    pub circuit: Circuit,
    /// The detectable fault population `P`.
    pub faults: FaultList,
    /// The `P_0` / `P_1` split.
    pub split: TargetSplit,
    /// The learned implication closure table, when the workload enables
    /// static learning. Threaded into every [`AtpgConfig`] built from
    /// this preparation.
    pub learned: Option<Arc<LearnedImplications>>,
}

/// Enumerates the longest-path faults of `name`, eliminates undetectable
/// ones ([`pdf_analyze::Preparation`], with the workload's static
/// learning and sensitizability switches), and splits the survivors per
/// the paper's `N_P0` rule. The passes' notes go to stderr behind the
/// circuit name.
#[must_use]
pub fn prepare(name: &str, workload: &Workload) -> Option<Prepared> {
    let circuit = pdf_netlist::circuit_by_name(name)?;
    let prepared = Preparation {
        cap: workload.n_p,
        learning: workload.static_learning,
        sensitize: workload.sensitize,
        threads: 1,
    }
    .run(&circuit);
    for line in prepared.notes().lines() {
        eprintln!("{name}: {line}");
    }
    let split = TargetSplit::by_cumulative_length(&prepared.faults, workload.n_p0);
    Some(Prepared {
        name: name.to_owned(),
        circuit,
        faults: prepared.faults,
        split,
        learned: prepared.learned,
    })
}

/// Lints every named circuit before an experiment spends any enumeration
/// or justification budget. Honors `PDF_LINT`: `deny` (default) prints
/// the diagnostics and exits with status 3 on any error, `warn` prints
/// and continues, `off` skips the pass entirely. A malformed `PDF_LINT`
/// exits with status 2.
pub fn preflight_lint(names: &[&str]) {
    let mode = LintMode::from_env().unwrap_or_else(|e| e.exit());
    if mode == LintMode::Off {
        return;
    }
    let mut errors = 0usize;
    for &name in names {
        let Some(circuit) = pdf_netlist::circuit_by_name(name) else {
            continue;
        };
        let report = lint_circuit(&circuit);
        for d in report.iter() {
            eprintln!("{d}");
        }
        errors += report.error_count();
    }
    if errors > 0 && mode == LintMode::Deny {
        eprintln!(
            "lint: {errors} error(s); aborting before any budget is spent \
             (set PDF_LINT=warn or PDF_LINT=off to override)"
        );
        std::process::exit(3);
    }
}

/// Flags a budget-truncated run on stderr: the tables still include its
/// partial numbers, but a reader must know they are a floor, not a
/// measurement.
fn note_budget_exhaustion(circuit: &str, label: &str, outcome: &pdf_atpg::AtpgOutcome) {
    if outcome.budget_exhausted() {
        eprintln!(
            "warning: {circuit}/{label}: time budget exhausted after {} tests — \
             reported coverage is partial",
            outcome.tests().len()
        );
    }
}

/// Measured results of the basic procedure under one heuristic.
#[derive(Clone, Debug)]
pub struct HeuristicResult {
    /// Heuristic label (`uncomp`/`arbit`/`length`/`values`).
    pub heuristic: String,
    /// Faults of `P_0` detected (Table 3).
    pub p0_detected: usize,
    /// Number of tests (Table 4).
    pub tests: usize,
    /// Faults of `P_0 ∪ P_1` detected accidentally (Table 5).
    pub p01_detected: usize,
    /// Wall-clock seconds of the generation run.
    pub seconds: f64,
}

/// Measured results of the basic procedure on one circuit (Tables 3–5).
#[derive(Clone, Debug)]
pub struct BasicCircuitResult {
    /// Circuit name.
    pub circuit: String,
    /// Measured cutoff index `i0`.
    pub i0: usize,
    /// `|P_0|`.
    pub p0_total: usize,
    /// `|P_0 ∪ P_1|`.
    pub p01_total: usize,
    /// One entry per heuristic, in `Compaction::ALL` order.
    pub heuristics: Vec<HeuristicResult>,
}

/// Runs the basic procedure on `name` under all four heuristics.
#[must_use]
pub fn run_basic(name: &str, workload: &Workload) -> Option<BasicCircuitResult> {
    let prepared = prepare(name, workload)?;
    Some(run_basic_on(&prepared, workload))
}

/// Like [`run_basic`], on an already-prepared circuit (lets callers share
/// the enumeration and fault-list construction across experiments).
#[must_use]
pub fn run_basic_on(prepared: &Prepared, workload: &Workload) -> BasicCircuitResult {
    let all_faults = prepared.split.all();
    let mut heuristics = Vec::new();
    for compaction in Compaction::ALL {
        let start = Instant::now();
        let outcome = BasicAtpg::new(&prepared.circuit)
            .with_config(workload.config(prepared, compaction))
            .run(prepared.split.p0());
        let seconds = start.elapsed().as_secs_f64();
        note_budget_exhaustion(&prepared.name, compaction.label(), &outcome);
        let accidental = outcome
            .tests()
            .coverage(&prepared.circuit, &all_faults)
            .detected_count();
        heuristics.push(HeuristicResult {
            heuristic: compaction.label().to_owned(),
            p0_detected: outcome.detected_in_set(0),
            tests: outcome.tests().len(),
            p01_detected: accidental,
            seconds,
        });
    }
    BasicCircuitResult {
        circuit: prepared.name.clone(),
        i0: prepared.split.i0(),
        p0_total: prepared.split.p0().len(),
        p01_total: all_faults.len(),
        heuristics,
    }
}

/// Measured results of the enrichment procedure on one circuit (Table 6),
/// plus the run-time ratio against the value-based basic procedure
/// (Table 7).
#[derive(Clone, Debug)]
pub struct EnrichCircuitResult {
    /// Circuit name.
    pub circuit: String,
    /// Measured cutoff index `i0`.
    pub i0: usize,
    /// `|P_0|`.
    pub p0_total: usize,
    /// Faults of `P_0` detected.
    pub p0_detected: usize,
    /// `|P_0 ∪ P_1|`.
    pub p01_total: usize,
    /// Faults of `P_0 ∪ P_1` detected.
    pub p01_detected: usize,
    /// Number of tests.
    pub tests: usize,
    /// Wall-clock seconds of the enrichment run.
    pub seconds: f64,
    /// Wall-clock seconds of the value-based basic run on the same split.
    pub basic_seconds: f64,
}

impl EnrichCircuitResult {
    /// `RT_enrich / RT_basic` (Table 7).
    #[must_use]
    pub fn runtime_ratio(&self) -> f64 {
        if self.basic_seconds > 0.0 {
            self.seconds / self.basic_seconds
        } else {
            f64::NAN
        }
    }
}

/// Runs the enrichment procedure (and the value-based basic run it is
/// compared against) on `name`.
#[must_use]
pub fn run_enrich(name: &str, workload: &Workload) -> Option<EnrichCircuitResult> {
    let prepared = prepare(name, workload)?;
    Some(run_enrich_on(&prepared, workload))
}

/// Like [`run_enrich`], on an already-prepared circuit.
#[must_use]
pub fn run_enrich_on(prepared: &Prepared, workload: &Workload) -> EnrichCircuitResult {
    let start = Instant::now();
    let basic = BasicAtpg::new(&prepared.circuit)
        .with_config(workload.config(prepared, Compaction::ValueBased))
        .run(prepared.split.p0());
    let basic_seconds = start.elapsed().as_secs_f64();
    note_budget_exhaustion(&prepared.name, "basic", &basic);
    drop(basic);

    let start = Instant::now();
    // The enrichment run gets its own deadline anchor: Table 7 compares
    // the two runs' wall clocks, so both must start with a full budget.
    let outcome = EnrichmentAtpg::new(&prepared.circuit)
        .with_config(workload.config(prepared, Compaction::ValueBased))
        .run(&prepared.split);
    let seconds = start.elapsed().as_secs_f64();
    note_budget_exhaustion(&prepared.name, "enrich", &outcome);

    EnrichCircuitResult {
        circuit: prepared.name.clone(),
        i0: prepared.split.i0(),
        p0_total: prepared.split.p0().len(),
        p0_detected: outcome.detected_in_set(0),
        p01_total: prepared.split.total(),
        p01_detected: outcome.detected_total(),
        tests: outcome.tests().len(),
        seconds,
        basic_seconds,
    }
}

/// Renders the Table 1 reproduction: the `s27` walkthrough with
/// `N_P = 20` at path granularity, showing the snapshots corresponding to
/// the paper's Set 1 and Set 2 and the final store.
#[must_use]
pub fn table1_text() -> String {
    use std::fmt::Write as _;

    let circuit = pdf_netlist::iscas::s27();
    let mut snapshots: Vec<Vec<pdf_paths::SnapshotPath>> = Vec::new();
    let result = PathEnumerator::new(&circuit)
        .with_cap(20)
        .with_units_per_path(1)
        .with_strategy(pdf_paths::Strategy::Moderate)
        .enumerate_observed(|e| {
            let pdf_paths::EnumEvent::CapReached { snapshot } = e;
            snapshots.push(snapshot.clone());
        });

    let mut s = String::new();
    let _ = writeln!(s, "Table 1: paths of s27 (N_P = 20, path granularity)");
    for (label, idx) in [
        ("Set 1 (paper Table 1(a))", 0usize),
        ("Set 2 (paper Table 1(b))", 3),
    ] {
        let Some(snapshot) = snapshots.get(idx) else {
            continue;
        };
        let _ = writeln!(s, "-- {label}: {} paths", snapshot.len());
        for p in snapshot {
            let _ = writeln!(s, "   {}{}", p.path, if p.complete { "c" } else { "p" });
        }
    }
    let _ = writeln!(
        s,
        "-- final store: {} complete paths, lengths {}..={}",
        result.store.len(),
        result.store.min_delay().unwrap_or(0),
        result.store.max_delay().unwrap_or(0),
    );
    for e in result.store.iter() {
        let _ = writeln!(s, "   {} (length {})", e.path, e.delay);
    }
    s
}

/// Renders the Table 2 reproduction: the 20 highest length classes of the
/// (stand-in) `s1423` with their cumulative fault counts, next to the
/// paper's values.
#[must_use]
pub fn table2_text(workload: &Workload) -> String {
    use std::fmt::Write as _;

    let mut s = String::new();
    let _ = writeln!(s, "Table 2: numbers of faults in s1423 (stand-in)");
    let Some(prepared) = prepare("s1423", workload) else {
        return s;
    };
    let histogram = pdf_paths::LengthHistogram::from_lengths(prepared.faults.delays());
    let _ = writeln!(
        s,
        "{:>4} {:>10} {:>12} | {:>8} {:>12}",
        "i", "L_i", "N_p(L_i)", "paper L_i", "paper N_p"
    );
    for i in 0..20 {
        let (li, np) = histogram
            .classes()
            .get(i)
            .map_or((0, 0), |c| (c.length, c.cumulative));
        let (pi, pl, pn) = paper::S1423_LENGTHS[i];
        debug_assert_eq!(pi, i);
        let _ = writeln!(s, "{i:>4} {li:>10} {np:>12} | {pl:>8} {pn:>12}");
    }
    let cut = histogram.cutoff(workload.n_p0);
    let _ = writeln!(
        s,
        "first i0 with N_p >= {}: {} (paper: 17)",
        workload.n_p0,
        cut.map_or("—".to_owned(), |i| i.to_string()),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_env_defaults() {
        let w = Workload::default();
        assert_eq!(w.n_p, 10_000);
        assert_eq!(w.n_p0, 1_000);
    }

    #[test]
    fn prepare_small_workload() {
        let w = Workload {
            n_p: 500,
            n_p0: 100,
            ..Workload::default()
        };
        let p = prepare("b09", &w).unwrap();
        assert!(p.faults.len() <= 500);
        assert!(p.split.p0().len() >= 100 || p.split.p1().is_empty());
    }

    #[test]
    fn basic_and_enrich_small_run() {
        let w = Workload {
            n_p: 300,
            n_p0: 60,
            seed: 7,
            ..Workload::default()
        };
        let basic = run_basic("b09", &w).unwrap();
        assert_eq!(basic.heuristics.len(), 4);
        // Compaction never produces more tests than uncompacted.
        let uncomp = basic.heuristics[0].tests;
        for h in &basic.heuristics[1..] {
            assert!(h.tests <= uncomp, "{}: {} > {uncomp}", h.heuristic, h.tests);
        }
        let enrich = run_enrich("b09", &w).unwrap();
        assert!(enrich.p01_detected >= enrich.p0_detected);
        assert!(enrich.runtime_ratio() > 0.0);
    }
}
