//! Combinatoric cross-configuration scenario harness for the path delay
//! fault ATPG pipeline.
//!
//! The paper's procedures carry many orthogonal knobs — circuit, delay
//! population sizing (`N_P`/`N_P0`), number of target sets `k`, compaction
//! heuristic, worker threads, static learning, budgets and
//! checkpoint/resume. Each knob is tested in isolation elsewhere; this
//! crate tests their *products*. It enumerates the cross-product of axis
//! values ([`MatrixAxes`]), runs every (sampled) cell in order through the
//! shared generation session, and checks six
//! cross-cell invariant families ([`invariants`]):
//!
//! * **ident** — throughput axes (threads × generous budget × run mode)
//!   never change results,
//! * **kmono** — uncompacted generation is independent of `k`,
//! * **resume** — cancel + checkpoint + resume equals uninterrupted,
//! * **learning** — static learning removes only proven-untestable faults,
//! * **chaos** — injected I/O faults ([`pdf_chaos`] failpoints on the
//!   checkpoint path) heal through retries and previous-generation
//!   recovery without changing a single result byte,
//! * **sensitize** — the false-path pre-elimination filter is sound: the
//!   filtered population is a subset of the unfiltered one, nothing the
//!   unfiltered cell detects is eliminated, and the in-cell exact-search
//!   audit confirms no eliminated fault is satisfiable.
//!
//! Any failing cell is auto-minimized abi-cafe-style ([`minimize`]) into
//! the smallest reproducing circuit + configuration, written as a
//! self-contained `pdf-matrix-repro` JSON artifact ([`ReproCase`]) that
//! replays to the same failure, and the whole run is summarized in a
//! `pdf-matrix-report` document ([`MatrixOutcome::to_report_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod invariants;
pub mod minimize;
pub mod report;
pub mod repro;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{OnceLock, PoisonError, RwLock};

use pdf_netlist::Circuit;

pub use cell::{run_cell, CellConfig, CellObservation, Injection, MatrixAxes, RunMode};
pub use invariants::{check_all, Invariant, Violation};
pub use minimize::{minimize, netlist_by_name, FailureProbe, Minimized};
pub use report::{MatrixOutcome, REPORT_SCHEMA, REPORT_VERSION};
pub use repro::{ReproCase, REPRO_SCHEMA, REPRO_VERSION};

/// Resolves a circuit name the way every matrix entry point does: the
/// paper's exact `s27`, or a synthetic benchmark stand-in.
#[must_use]
pub fn resolve_circuit(name: &str) -> Option<Circuit> {
    if name == "s27" {
        return Some(pdf_netlist::iscas::s27());
    }
    netlist_by_name(name).and_then(|n| n.to_circuit().ok())
}

/// The process-wide chaos gate: the failpoint registry is global, so a
/// cell that arms failpoints takes the write side while clean cells take
/// the read side. A runner observes its cells in order, but several
/// runners can run concurrently in one process (test threads do); the
/// gate keeps their cells from cross-contaminating.
fn chaos_gate() -> &'static RwLock<()> {
    static GATE: OnceLock<RwLock<()>> = OnceLock::new();
    GATE.get_or_init(|| RwLock::new(()))
}

/// Drop guard that disarms the failpoint registry even when the cell
/// panics, so one poisoned chaos cell cannot leak failpoints into the
/// rest of the matrix.
struct ArmedFailpoints;

impl ArmedFailpoints {
    fn install(spec: &pdf_chaos::FailpointSpec) -> ArmedFailpoints {
        pdf_chaos::install(spec);
        ArmedFailpoints
    }
}

impl Drop for ArmedFailpoints {
    fn drop(&mut self) {
        pdf_chaos::clear();
    }
}

/// The matrix driver: axes, sampling bound, and the optional test-only
/// observation injection.
pub struct MatrixRunner {
    axes: MatrixAxes,
    max_cells: usize,
    injection: Option<Injection>,
}

impl MatrixRunner {
    /// A runner over `axes` with no sampling bound.
    #[must_use]
    pub fn new(axes: MatrixAxes) -> MatrixRunner {
        MatrixRunner {
            axes,
            max_cells: usize::MAX,
            injection: None,
        }
    }

    /// Caps the number of executed cells; the cross-product is
    /// deterministically stride-sampled down to the cap.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: usize) -> MatrixRunner {
        self.max_cells = max_cells;
        self
    }

    /// Installs a test-only observation corruption hook. The hook runs
    /// after every cell execution — including the re-runs the minimizer
    /// performs, so injected failures survive shrinking.
    #[must_use]
    pub fn with_injection(mut self, injection: Injection) -> MatrixRunner {
        self.injection = Some(injection);
        self
    }

    /// The cells this runner would execute. Stride sampling can land on
    /// a chaos cell without its `faults: None` twin, or a sensitize-on
    /// cell without its off twin; the missing twins are appended so the
    /// chaos and sensitize families always have a reference cell. An
    /// appended twin is itself processed (a chaos+sensitize cell gets a
    /// clean twin that in turn gets its own sensitize-off twin).
    #[must_use]
    pub fn cells(&self) -> Vec<CellConfig> {
        let cells = self.axes.cells(self.max_cells);
        let mut seen: BTreeSet<String> = cells.iter().map(|c| c.label()).collect();
        let mut out = cells.clone();
        let mut queue = cells;
        while let Some(cell) = queue.pop() {
            let mut twins = Vec::new();
            if cell.faults.is_some() {
                twins.push(cell.clean_twin());
            }
            if cell.sensitize {
                twins.push(cell.sensitize_twin());
            }
            for twin in twins {
                if seen.insert(twin.label()) {
                    out.push(twin.clone());
                    queue.push(twin);
                }
            }
        }
        out
    }

    fn observe(&self, circuit: &Circuit, config: &CellConfig) -> CellObservation {
        let mut observation = match &config.faults {
            // The failpoint registry is process-global, so chaos cells
            // serialize behind a write lock while clean cells share a
            // read lock: concurrent runners still run clean cells side by
            // side, but no cell ever executes under another cell's
            // failpoints.
            Some(spec) => {
                let _gate = chaos_gate().write().unwrap_or_else(PoisonError::into_inner);
                match pdf_chaos::FailpointSpec::parse(spec) {
                    Ok(spec) => {
                        // The guard clears the registry (in reverse
                        // declaration order) before the gate releases.
                        let _armed = ArmedFailpoints::install(&spec);
                        run_cell(circuit, config)
                    }
                    Err(error) => {
                        let mut observation = run_cell(circuit, &config.clean_twin());
                        observation.config = config.clone();
                        observation.error = Some(format!("invalid faults axis: {error}"));
                        observation
                    }
                }
            }
            None => {
                let _gate = chaos_gate().read().unwrap_or_else(PoisonError::into_inner);
                run_cell(circuit, config)
            }
        };
        if let Some(injection) = &self.injection {
            injection(config, &mut observation);
        }
        observation
    }

    /// Re-runs `cells` on `circuit` and returns the detail of the first
    /// violation of `invariant`, if the family still fails — the probe
    /// the minimizer drives.
    #[must_use]
    pub fn probe(
        &self,
        circuit: &Circuit,
        cells: &[CellConfig],
        invariant: Invariant,
    ) -> Option<String> {
        let observations: Vec<CellObservation> =
            cells.iter().map(|c| self.observe(circuit, c)).collect();
        check_all(&observations)
            .into_iter()
            .find(|v| v.invariant == invariant)
            .map(|v| v.detail)
    }

    /// Runs the matrix: resolve circuits, observe the cells in order on
    /// the caller's thread, check all invariant families, and minimize
    /// every violation into a repro artifact.
    ///
    /// # Panics
    ///
    /// Panics when an axis names a circuit that does not resolve — a
    /// misconfigured matrix must not silently shrink.
    #[must_use]
    pub fn run(&self) -> MatrixOutcome {
        let cells = self.cells();
        let mut circuits: BTreeMap<String, Circuit> = BTreeMap::new();
        for cell in &cells {
            if !circuits.contains_key(&cell.circuit) {
                let circuit = resolve_circuit(&cell.circuit)
                    .unwrap_or_else(|| panic!("unknown matrix circuit `{}`", cell.circuit));
                circuits.insert(cell.circuit.clone(), circuit);
            }
        }

        let observations: Vec<CellObservation> = cells
            .iter()
            .map(|cell| self.observe(&circuits[&cell.circuit], cell))
            .collect();

        let violations = check_all(&observations);
        let repros = violations
            .iter()
            .map(|violation| {
                let name = &violation.cells[0].circuit;
                let netlist = netlist_by_name(name);
                let minimized = minimize(
                    &circuits[name],
                    netlist.as_ref(),
                    &violation.cells,
                    violation.invariant,
                    &violation.detail,
                    &|circuit, cells, invariant| self.probe(circuit, cells, invariant),
                );
                ReproCase {
                    invariant: violation.invariant,
                    detail: minimized.detail,
                    circuit: name.clone(),
                    bench: minimized.bench,
                    cells: minimized.cells,
                }
            })
            .collect();

        MatrixOutcome {
            observations,
            violations,
            repros,
        }
    }
}

/// Replays a repro artifact: re-runs its cells on its circuit and
/// re-checks its invariant family.
///
/// Returns the failure detail when the artifact still reproduces, `None`
/// when the underlying bug is fixed.
///
/// # Errors
///
/// Returns a message when the artifact's circuit cannot be resolved.
pub fn replay(repro: &ReproCase) -> Result<Option<String>, String> {
    let circuit = repro.resolve_circuit()?;
    let runner = MatrixRunner::new(MatrixAxes::smoke());
    Ok(runner.probe(&circuit, &repro.cells, repro.invariant))
}
