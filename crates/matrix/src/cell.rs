//! One cell of the configuration matrix: the full axis assignment, the
//! lazily-decoded cross-product, and the runner that turns a cell into a
//! [`CellObservation`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pdf_analyze::Preparation;
use pdf_atpg::{
    AtpgConfig, CancelToken, Checkpoint, CheckpointPolicy, Compaction, EnrichmentAtpg, RunBudget,
    TargetSplit,
};
use pdf_faults::FaultList;
use pdf_netlist::Circuit;
use pdf_telemetry::Json;

/// How the cell's generation run is driven through the run-control layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// One uninterrupted run.
    Direct,
    /// Three runs: uninterrupted, cancelled after the given number of
    /// budget polls (with a checkpoint written every completed test), and
    /// resumed from that checkpoint. The resume invariant compares the
    /// composite against the uninterrupted run.
    CheckpointResume {
        /// Budget polls before the cancel token trips.
        cancel_after_polls: u64,
    },
}

impl RunMode {
    /// A short label for report keys (`direct` / `resume@N`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RunMode::Direct => "direct".to_owned(),
            RunMode::CheckpointResume { cancel_after_polls } => {
                format!("resume@{cancel_after_polls}")
            }
        }
    }

    fn parse(s: &str) -> Option<RunMode> {
        if s == "direct" {
            return Some(RunMode::Direct);
        }
        // A cancel token needs at least one poll: `resume@0` is refused.
        let polls = s.strip_prefix("resume@")?.parse().ok().filter(|&n| n > 0)?;
        Some(RunMode::CheckpointResume {
            cancel_after_polls: polls,
        })
    }
}

/// The largest `k` a parsed cell may ask for (the axes use 2 to 4), so an
/// artifact cannot pad a split to an unbounded number of empty sets.
pub const MAX_K: usize = 16;

/// One fully-specified configuration cell of the matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CellConfig {
    /// Circuit name (resolvable by [`pdf_netlist::circuit_by_name`]).
    pub circuit: String,
    /// Compaction heuristic.
    pub compaction: Compaction,
    /// Number of target sets (`>= 2`; the paper uses 2).
    pub k: usize,
    /// Enumeration cap `N_P`.
    pub n_p: usize,
    /// `P_0` sizing threshold `N_P0`.
    pub n_p0: usize,
    /// Static implication learning on/off.
    pub learning: bool,
    /// Static sensitizability pre-elimination on/off. Off must be
    /// byte-identical to builds predating the pass; on may only remove
    /// faults the classifier *proves* unsensitizable — the sensitize
    /// invariant re-proves every elimination by exact search and against
    /// the off twin's detections.
    pub sensitize: bool,
    /// Direct run or the cancel/checkpoint/resume dance.
    pub run_mode: RunMode,
    /// Generation worker-thread count. A throughput knob: every
    /// observation must be byte-identical at every count.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Generous wall-clock budget in minutes (`None` = unlimited). A
    /// never-exhausted budget must not perturb results — its polling is
    /// covered by the identity invariant.
    pub budget_minutes: Option<u64>,
    /// Failpoint spec (`site:kind@N,...`) armed while the cell runs, or
    /// `None` for a clean cell. Restricted to I/O fault kinds that must
    /// heal (retry, recovery) — the chaos invariant compares every
    /// injected cell byte-for-byte against its clean twin.
    pub faults: Option<String>,
}

impl CellConfig {
    /// The canonical default cell (smoke-sized workload on `s27`).
    #[must_use]
    pub fn default_cell() -> CellConfig {
        CellConfig {
            circuit: "s27".to_owned(),
            compaction: Compaction::ValueBased,
            k: 2,
            n_p: 300,
            n_p0: 60,
            learning: false,
            sensitize: false,
            run_mode: RunMode::Direct,
            threads: 1,
            seed: 2002,
            budget_minutes: None,
            faults: None,
        }
    }

    /// The cell's clean twin: the same configuration with no failpoints
    /// armed. The chaos invariant groups by this twin's label.
    #[must_use]
    pub fn clean_twin(&self) -> CellConfig {
        CellConfig {
            faults: None,
            ..self.clone()
        }
    }

    /// The cell's sensitize-off twin: the same configuration without the
    /// false-path pre-elimination. The sensitize invariant compares the
    /// on cell's population and detections against this twin's.
    #[must_use]
    pub fn sensitize_twin(&self) -> CellConfig {
        CellConfig {
            sensitize: false,
            ..self.clone()
        }
    }

    /// A compact one-line label (`b09 values k=2 ...`).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} {} k={} np={} np0={} learn={} sens={} {} t={} seed={} budget={} faults={}",
            self.circuit,
            self.compaction.label(),
            self.k,
            self.n_p,
            self.n_p0,
            if self.learning { "on" } else { "off" },
            if self.sensitize { "on" } else { "off" },
            self.run_mode.label(),
            self.threads,
            self.seed,
            self.budget_minutes
                .map_or("none".to_owned(), |m| format!("{m}m")),
            self.faults.as_deref().unwrap_or("none"),
        )
    }

    /// The cell as a JSON object (the repro-artifact cell schema).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("circuit", self.circuit.as_str())
            .field("compaction", self.compaction.label())
            .field("k", self.k)
            .field("n_p", self.n_p)
            .field("n_p0", self.n_p0)
            .field("learning", self.learning)
            .field("sensitize", self.sensitize)
            .field("run_mode", self.run_mode.label())
            .field("threads", self.threads)
            .field("seed", self.seed)
            .field(
                "budget_minutes",
                self.budget_minutes.map_or(Json::Null, Json::from),
            )
            .field(
                "faults",
                self.faults.as_deref().map_or(Json::Null, Json::from),
            )
    }

    /// Parses a cell from its [`CellConfig::to_json`] form. Keys of
    /// retired axes (`backend`, `width`, `events` — the simulation
    /// engine is no longer selectable) are ignored, so older artifacts
    /// still replay. Numbers must be exact counts ([`Json::as_count`]).
    ///
    /// # Errors
    ///
    /// A message naming the first malformed field (`resume@0` included),
    /// or a `k` outside `2..=`[`MAX_K`].
    pub fn from_json(json: &Json) -> Result<CellConfig, String> {
        let bad = |k: &str| format!("missing or malformed `{k}`");
        let s = |k: &str| json.get(k).and_then(Json::as_str).ok_or_else(|| bad(k));
        let b = |k: &str| match json.get(k) {
            Some(Json::Bool(v)) => Ok(*v),
            _ => Err(bad(k)),
        };
        let n = |k: &str| match json.get(k) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_count::<u64>().map(Some).ok_or_else(|| bad(k)),
        };
        let required = |k: &str| n(k)?.ok_or_else(|| bad(k));
        let k = required("k")? as usize;
        if !(2..=MAX_K).contains(&k) {
            return Err(format!("`k` {k} is outside 2..={MAX_K}"));
        }
        Ok(CellConfig {
            circuit: s("circuit")?.to_owned(),
            compaction: Compaction::from_label(s("compaction")?)
                .ok_or_else(|| bad("compaction"))?,
            k,
            n_p: required("n_p")? as usize,
            n_p0: required("n_p0")? as usize,
            learning: b("learning")?,
            // Artifacts predating the sensitize axis replay with the
            // pass off (the byte-identical legacy behavior).
            sensitize: b("sensitize").unwrap_or(false),
            run_mode: RunMode::parse(s("run_mode")?).ok_or_else(|| bad("run_mode"))?,
            // Artifacts predating the threads axis replay single-threaded.
            threads: n("threads")?.map_or(1, |v| (v as usize).max(1)),
            seed: required("seed")?,
            budget_minutes: n("budget_minutes")?,
            // Artifacts predating the faults axis replay clean.
            faults: match json.get("faults") {
                Some(Json::Str(spec)) => Some(spec.clone()),
                _ => None,
            },
        })
    }
}

/// The axes of the cross-product. `cells()` decodes indices lazily in
/// mixed radix — the full product is never materialized beyond the
/// (possibly sampled) cell list.
#[derive(Clone, Debug)]
pub struct MatrixAxes {
    /// Circuit names.
    pub circuits: Vec<String>,
    /// Compaction heuristics.
    pub compactions: Vec<Compaction>,
    /// Target-set counts.
    pub ks: Vec<usize>,
    /// Enumeration caps.
    pub n_ps: Vec<usize>,
    /// `P_0` thresholds.
    pub n_p0s: Vec<usize>,
    /// Static learning settings.
    pub learnings: Vec<bool>,
    /// Sensitizability pre-elimination settings.
    pub sensitizes: Vec<bool>,
    /// Run modes.
    pub run_modes: Vec<RunMode>,
    /// Generation worker-thread counts.
    pub threads: Vec<usize>,
    /// Seeds.
    pub seeds: Vec<u64>,
    /// Budget settings (minutes; `None` = unlimited).
    pub budgets: Vec<Option<u64>>,
    /// Failpoint specs (`None` = clean). Only healing I/O kinds belong
    /// here: every chaos cell must end up byte-identical to its clean
    /// twin (panic-kind injection is covered by dedicated pool tests).
    pub faults: Vec<Option<String>>,
}

impl MatrixAxes {
    /// The bounded smoke matrix CI runs on every push: tiny circuits,
    /// every invariant family exercised, 768 raw cells before sampling.
    #[must_use]
    pub fn smoke() -> MatrixAxes {
        MatrixAxes {
            circuits: vec!["s27".to_owned(), "b09".to_owned()],
            compactions: vec![Compaction::Uncompacted, Compaction::ValueBased],
            ks: vec![2, 3],
            n_ps: vec![300],
            n_p0s: vec![60],
            learnings: vec![false, true],
            sensitizes: vec![false, true],
            run_modes: vec![
                RunMode::Direct,
                RunMode::CheckpointResume {
                    cancel_after_polls: 7,
                },
            ],
            threads: vec![1, 4],
            seeds: vec![2002],
            budgets: vec![None, Some(10)],
            // torn@2 tears the second write, an append: the journal's
            // first record is good, so recovery always has a floor.
            faults: vec![
                None,
                Some("checkpoint.write:torn@2".to_owned()),
                Some("checkpoint.read:io@1".to_owned()),
            ],
        }
    }

    /// The nightly full-axis matrix: more circuits, every heuristic, two
    /// seeds, larger workloads.
    #[must_use]
    pub fn full() -> MatrixAxes {
        MatrixAxes {
            circuits: vec![
                "s27".to_owned(),
                "b03".to_owned(),
                "b09".to_owned(),
                "b09+r".to_owned(),
                "s1196".to_owned(),
            ],
            compactions: Compaction::ALL.to_vec(),
            ks: vec![2, 3, 4],
            n_ps: vec![300, 1000],
            n_p0s: vec![60, 200],
            learnings: vec![false, true],
            sensitizes: vec![false, true],
            run_modes: vec![
                RunMode::Direct,
                RunMode::CheckpointResume {
                    cancel_after_polls: 3,
                },
                RunMode::CheckpointResume {
                    cancel_after_polls: 11,
                },
            ],
            threads: vec![1, 2, 4, 8],
            seeds: vec![2002, 7],
            budgets: vec![None, Some(10)],
            faults: vec![
                None,
                Some("checkpoint.write:torn@2".to_owned()),
                Some("checkpoint.write:io@1".to_owned()),
                Some("checkpoint.read:io@1".to_owned()),
            ],
        }
    }

    /// The size of the raw cross-product.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.circuits.len()
            * self.compactions.len()
            * self.ks.len()
            * self.n_ps.len()
            * self.n_p0s.len()
            * self.learnings.len()
            * self.sensitizes.len()
            * self.run_modes.len()
            * self.threads.len()
            * self.seeds.len()
            * self.budgets.len()
            * self.faults.len()
    }

    /// Decodes cell `index` of the cross-product (mixed-radix, circuit
    /// slowest so samples spread over circuits first).
    ///
    /// # Panics
    ///
    /// Panics when `index >= cell_count()` or any axis is empty.
    #[must_use]
    pub fn cell(&self, index: usize) -> CellConfig {
        assert!(index < self.cell_count(), "cell index out of range");
        let mut rest = index;
        let mut take = |len: usize| {
            let i = rest % len;
            rest /= len;
            i
        };
        // Fastest-varying axes first: throughput knobs, so neighboring
        // indices form identity groups and stride sampling spreads over
        // the semantic axes.
        let faults = self.faults[take(self.faults.len())].clone();
        let threads = self.threads[take(self.threads.len())];
        let budget_minutes = self.budgets[take(self.budgets.len())];
        let run_mode = self.run_modes[take(self.run_modes.len())];
        let k = self.ks[take(self.ks.len())];
        let learning = self.learnings[take(self.learnings.len())];
        let sensitize = self.sensitizes[take(self.sensitizes.len())];
        let compaction = self.compactions[take(self.compactions.len())];
        let n_p = self.n_ps[take(self.n_ps.len())];
        let n_p0 = self.n_p0s[take(self.n_p0s.len())];
        let seed = self.seeds[take(self.seeds.len())];
        let circuit = self.circuits[take(self.circuits.len())].clone();
        CellConfig {
            circuit,
            compaction,
            k,
            n_p,
            n_p0,
            learning,
            sensitize,
            run_mode,
            threads,
            seed,
            budget_minutes,
            faults,
        }
    }

    /// The cell list, deterministically stride-sampled down to at most
    /// `max_cells` when the raw product is larger: sample `j` is cell
    /// `j * count / max_cells`, so the samples spread evenly across the
    /// whole product and two runs with equal axes pick equal cells.
    #[must_use]
    pub fn cells(&self, max_cells: usize) -> Vec<CellConfig> {
        let count = self.cell_count();
        let max = max_cells.max(1);
        if count <= max {
            (0..count).map(|i| self.cell(i)).collect()
        } else {
            (0..max).map(|j| self.cell(j * count / max)).collect()
        }
    }
}

/// Everything observed from running one cell; the invariant checkers
/// compare these across cells.
#[derive(Clone, Debug)]
pub struct CellObservation {
    /// The cell that produced this observation.
    pub config: CellConfig,
    /// Canonical text of the generated test set.
    pub tests_text: String,
    /// Per-fault detection flags, split order (set 0 first).
    pub detected: Vec<bool>,
    /// Total faults detected across all sets.
    pub detected_total: usize,
    /// Population size per set.
    pub set_sizes: Vec<usize>,
    /// Fault identity keys, aligned with `detected`.
    pub fault_keys: Vec<String>,
    /// Whether the (generous) budget was reported exhausted.
    pub budget_exhausted: bool,
    /// For sensitize-on cells: fault keys the pre-elimination filter
    /// dropped but complete search proved *testable*. Always empty for a
    /// sound classifier — any entry is a sensitize violation.
    pub sensitize_testable: Vec<String>,
    /// For [`RunMode::CheckpointResume`]: the test text of the
    /// cancelled-then-resumed composite run.
    pub resume_tests_text: Option<String>,
    /// For [`RunMode::CheckpointResume`]: detected total of the resumed
    /// composite.
    pub resume_detected_total: Option<usize>,
    /// A run-level failure (resume rejection, checkpoint I/O) that is
    /// itself a violation.
    pub error: Option<String>,
}

/// Test-only corruption hook: applied to every observation right after
/// its cell runs, including the re-runs the minimizer performs — so an
/// injected failure survives shrinking, which is exactly what makes the
/// minimizer testable.
pub type Injection = Arc<dyn Fn(&CellConfig, &mut CellObservation) + Send + Sync>;

/// A checkpoint file no other cell run uses: runners on different threads
/// of one process may run the same cell at the same time.
fn unique_checkpoint_path() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "pdf_matrix_ckpt_{}_{}.json",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs one cell on an already-resolved circuit.
///
/// The split is built with [`TargetSplit::by_nested_cumulative`], the
/// generator is always the enrichment procedure (the `k` axis covers the
/// paper's two-set scheme at `k = 2`), and [`RunMode::CheckpointResume`]
/// additionally performs the cancel/checkpoint/resume dance.
#[must_use]
pub fn run_cell(circuit: &Circuit, cell: &CellConfig) -> CellObservation {
    let prepared = Preparation {
        cap: cell.n_p,
        learning: cell.learning,
        sensitize: cell.sensitize,
        threads: cell.threads,
    }
    .run(circuit);
    // Soundness audit, in-cell: every fault the filter eliminated beyond
    // what the rules already drop is re-proven untestable by complete
    // search. A limit-exceeded search is inconclusive (not a violation);
    // a satisfiable one is recorded and fails the sensitize invariant.
    let sensitize_testable = if prepared.analysis.is_some() {
        let kept: std::collections::BTreeSet<String> = prepared
            .faults
            .iter()
            .map(|e| e.fault.to_string())
            .collect();
        let exact = pdf_atpg::ExactJustifier::new(circuit).with_node_limit(200_000);
        prepared
            .unfiltered_faults(circuit)
            .iter()
            .filter(|e| !kept.contains(&e.fault.to_string()))
            .filter(|e| {
                matches!(
                    exact.justify(&e.assignments),
                    pdf_atpg::ExactOutcome::Satisfiable(_)
                )
            })
            .map(|e| e.fault.to_string())
            .collect()
    } else {
        Vec::new()
    };
    let split = TargetSplit::by_nested_cumulative(&prepared.faults, cell.n_p0, cell.k.max(2));
    let fault_keys: Vec<String> = split
        .sets()
        .iter()
        .flat_map(|s| s.iter().map(|e| e.fault.to_string()))
        .collect();
    let set_sizes: Vec<usize> = split.sets().iter().map(FaultList::len).collect();

    let budget = || match cell.budget_minutes {
        Some(m) => RunBudget::with_deadline(pdf_atpg::Deadline::after(
            std::time::Duration::from_secs(m.saturating_mul(60)),
        )),
        None => RunBudget::unlimited(),
    };
    let base_config = AtpgConfig {
        seed: cell.seed,
        compaction: cell.compaction,
        budget: budget(),
        learned: prepared.learned.clone(),
        threads: cell.threads.max(1),
        ..AtpgConfig::default()
    };

    let atpg = EnrichmentAtpg::new(circuit).with_config(base_config.clone());
    let outcome = atpg.run(&split);

    let mut observation = CellObservation {
        config: cell.clone(),
        tests_text: outcome.tests().to_text(),
        detected: outcome.detected().to_vec(),
        detected_total: outcome.detected_total(),
        set_sizes,
        fault_keys,
        budget_exhausted: outcome.budget_exhausted(),
        sensitize_testable,
        resume_tests_text: None,
        resume_detected_total: None,
        error: None,
    };

    if let RunMode::CheckpointResume { cancel_after_polls } = cell.run_mode {
        let path = unique_checkpoint_path();
        let cancelled_config = AtpgConfig {
            budget: budget().and_cancel(CancelToken::cancel_after_polls(cancel_after_polls)),
            checkpoint: Some(CheckpointPolicy::new(&path, 1)),
            ..base_config.clone()
        };
        let _ = EnrichmentAtpg::new(circuit)
            .with_config(cancelled_config)
            .run(&split);
        match Checkpoint::load_with_recovery(&path) {
            Ok((checkpoint, _recovered)) => {
                let resumed = EnrichmentAtpg::new(circuit)
                    .with_config(AtpgConfig {
                        budget: budget(),
                        ..base_config
                    })
                    .run_resumed(&split, &checkpoint);
                match resumed {
                    Ok(out) => {
                        observation.resume_tests_text = Some(out.tests().to_text());
                        observation.resume_detected_total = Some(out.detected_total());
                    }
                    Err(e) => observation.error = Some(format!("resume rejected: {e}")),
                }
            }
            Err(e) => observation.error = Some(format!("checkpoint unreadable: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }

    observation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_decodes_every_index_exactly_once() {
        let axes = MatrixAxes::smoke();
        let count = axes.cell_count();
        assert_eq!(count, 2 * 2 * 2 * 2 * 2 * 2 * 2 * 2 * 3);
        let mut labels: Vec<String> = (0..count).map(|i| axes.cell(i).label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), count, "decoded cells must be distinct");
    }

    #[test]
    fn stride_sampling_is_deterministic_and_bounded() {
        let axes = MatrixAxes::smoke();
        let a = axes.cells(200);
        let b = axes.cells(200);
        assert_eq!(a.len(), 200);
        assert_eq!(a, b);
        // Sampling must still spread over the slowest axis (circuits).
        let circuits: std::collections::BTreeSet<&str> =
            a.iter().map(|c| c.circuit.as_str()).collect();
        assert_eq!(circuits.len(), 2);
        // Unbounded: the whole product.
        assert_eq!(axes.cells(usize::MAX).len(), axes.cell_count());
    }

    #[test]
    fn cell_json_round_trips() {
        let axes = MatrixAxes::full();
        for i in [0, 1, 17, axes.cell_count() - 1] {
            let cell = axes.cell(i);
            let back = CellConfig::from_json(&cell.to_json()).unwrap();
            assert_eq!(back, cell, "cell {i}");
        }
    }

    #[test]
    fn chaos_cells_sit_next_to_their_clean_twin() {
        let axes = MatrixAxes::smoke();
        // The faults axis is the fastest-varying: indices 3j, 3j+1, 3j+2
        // share every other coordinate, so sampled chaos cells pair with
        // a nearby clean twin and the chaos checker has its reference.
        for base in [0, 3, 33 * 3] {
            let clean = axes.cell(base);
            assert_eq!(clean.faults, None);
            for offset in 1..3 {
                let chaos = axes.cell(base + offset);
                assert!(chaos.faults.is_some());
                assert_eq!(chaos.clean_twin(), clean);
            }
        }
    }

    #[test]
    fn artifacts_without_the_sensitize_field_replay_with_the_pass_off() {
        let mut cell = CellConfig::default_cell();
        cell.sensitize = true;
        let json = cell.to_json();
        let stripped = match json {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "sensitize")
                    .collect(),
            ),
            other => other,
        };
        let back = CellConfig::from_json(&stripped).unwrap();
        assert!(
            !back.sensitize,
            "legacy artifacts must replay with sensitize off"
        );
        assert_eq!(back.sensitize_twin(), back);
    }

    #[test]
    fn run_mode_labels_round_trip() {
        for m in [
            RunMode::Direct,
            RunMode::CheckpointResume {
                cancel_after_polls: 42,
            },
        ] {
            assert_eq!(RunMode::parse(&m.label()), Some(m));
        }
        assert_eq!(RunMode::parse("resume@x"), None);
        assert_eq!(RunMode::parse("resume@0"), None);
    }
}
