//! The `atpg` command's pipeline, rebuilt from the layers' public calls
//! with a benchmark span around each call.
//!
//! The sequence mirrors `pdf_cli::load_circuit` followed by
//! `pdf_cli::cmd_atpg` with no `PDF_*` variables set, so for the same
//! command line it writes the same test text as the CLI; the benchmark
//! checks that byte for byte on every traced run.

use std::sync::Arc;
use std::time::Instant;

use pdf_analyze::{SensitizeAnalysis, Testability};
use pdf_atpg::{
    AtpgConfig, AtpgOutcome, BasicAtpg, BranchGuide, Checkpoint, EnrichmentAtpg, RunBudget,
    SimOptions, SimWidth, TargetSplit, TestSet,
};
use pdf_faults::{FaultList, FaultListStats, LearnedImplications, Sensitization};
use pdf_netlist::Circuit;
use pdf_paths::PathEnumerator;
use pdf_telemetry::Json;

use crate::workload::Plan;

/// One recorded span: a named interval on the benchmark's clock.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id (index into the tracer's span list).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Span name: `<layer>.<step>`.
    pub name: &'static str,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// End, in seconds since the tracer was created (`NaN` while open).
    pub end_s: f64,
}

impl SpanRecord {
    /// The span's duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span recorder. Spans nest by enter/exit order and share
/// the tracer's trace id; nothing is written until [`Tracer::to_json`].
#[derive(Debug)]
pub struct Tracer {
    trace_id: String,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans all carry `trace_id`.
    #[must_use]
    pub fn new(trace_id: impl Into<String>) -> Tracer {
        Tracer {
            trace_id: trace_id.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total seconds of every closed span named `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && !s.end_s.is_nan())
            .map(SpanRecord::seconds)
            .sum()
    }

    /// Span `id`'s duration minus the durations of its direct children:
    /// the time no child span accounts for.
    #[must_use]
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(SpanRecord::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// The trace as JSON: `{trace_id, spans: [{id, parent, name, start_s,
    /// end_s}]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::object()
                    .field("id", s.id)
                    .field("parent", s.parent.map_or(Json::Null, Json::from))
                    .field("name", s.name)
                    .field("start_s", s.start_s)
                    .field("end_s", s.end_s)
            })
            .collect();
        Json::object()
            .field("trace_id", self.trace_id.as_str())
            .field("spans", Json::Arr(spans))
    }
}

/// The fault population and everything the generator is configured with,
/// as `cmd_atpg` builds it before generation.
pub struct Targets {
    /// The normalized circuit.
    pub circuit: Circuit,
    /// The learned implication table (`--static-learning`).
    pub learned: Option<Arc<LearnedImplications>>,
    /// The SCOAP branch guide (`--scoap`).
    pub guide: Option<Arc<BranchGuide>>,
    /// Paths retained by enumeration.
    pub paths_stored: usize,
    /// The sensitizability classification (`--sensitize`).
    pub analysis: Option<SensitizeAnalysis>,
    /// Fault-list elimination counters.
    pub fault_stats: FaultListStats,
    /// The P0/P1 split.
    pub split: TargetSplit,
    /// P0 followed by P1: the list coverage is checked against.
    pub everything: FaultList,
}

/// Loads the circuit and builds the target sets, one span per layer call:
/// `sim.width_probe`, `netlist.build`, `analyze.lint`, `analyze.learn`,
/// `analyze.scoap`, `paths.enumerate`, `analyze.sensitize`,
/// `faults.eliminate`, `core.split`.
///
/// # Errors
///
/// A message when the circuit is unknown or fails the structural lint,
/// or the population is empty.
pub fn prepare(plan: &Plan, t: &mut Tracer) -> Result<Targets, String> {
    // `pdf_cli::run` resolves the simulation options, and with them the
    // tile width, before it loads the circuit.
    t.time("sim.width_probe", SimWidth::auto);
    let circuit = load(&plan.circuit, t)?;

    let learned = t.time("analyze.learn", || {
        plan.learning
            .then(|| Arc::new(pdf_analyze::learn_implications(&circuit)))
    });
    let guide = t.time("analyze.scoap", || {
        plan.scoap.then(|| {
            let testability = Testability::of(&circuit);
            Arc::new(BranchGuide::new(
                testability.cc0_table().to_vec(),
                testability.cc1_table().to_vec(),
            ))
        })
    });
    let enumeration = t.time("paths.enumerate", || {
        PathEnumerator::new(&circuit).with_cap(plan.cap).enumerate()
    });
    let store = &enumeration.store;
    let analysis = t.time("analyze.sensitize", || {
        plan.sensitize.then(|| {
            pdf_analyze::classify_store(&circuit, store, Sensitization::Robust, learned.as_deref())
        })
    });
    let (faults, fault_stats) = t.time("faults.eliminate", || match &analysis {
        Some(a) => FaultList::build_with_filter(
            &circuit,
            store,
            Sensitization::Robust,
            learned.as_deref(),
            Some(&|i, p| a.is_false(i, p)),
        ),
        None => FaultList::build_with_learned(
            &circuit,
            store,
            Sensitization::Robust,
            learned.as_deref(),
        ),
    });
    if faults.is_empty() {
        return Err("no detectable path delay faults in the enumerated population".to_owned());
    }
    let split = t.time("core.split", || {
        TargetSplit::by_cumulative_length(&faults, plan.np0)
    });
    let everything: FaultList = split
        .p0()
        .iter()
        .chain(split.p1().iter())
        .cloned()
        .collect();
    Ok(Targets {
        paths_stored: store.len(),
        circuit,
        learned,
        guide,
        analysis,
        fault_stats,
        split,
        everything,
    })
}

/// `pdf_cli::load_circuit` split at its layer boundaries: netlist
/// construction and normalization (`netlist.build`) and the automatic
/// structural lint in deny mode (`analyze.lint`).
fn load(spec: &str, t: &mut Tracer) -> Result<Circuit, String> {
    // s27 and c17 keep their hand-numbered line-level forms, so only the
    // expanded circuit is linted, as the CLI does.
    let (mut report, circuit) = if spec == "s27" || spec == "c17" {
        let circuit = t.time("netlist.build", || {
            if spec == "s27" {
                pdf_netlist::iscas::s27()
            } else {
                pdf_netlist::iscas::c17()
            }
        });
        (pdf_analyze::LintReport::new(), circuit)
    } else {
        let profile = pdf_netlist::stand_in_profile(spec)
            .ok_or_else(|| format!("`{spec}` is not a bundled circuit"))?;
        let netlist = t.time("netlist.build", || profile.generate());
        let report = t.time("analyze.lint", || pdf_analyze::lint_netlist(&netlist));
        let circuit = t.time("netlist.build", || {
            let netlist = if netlist.dff_count() > 0 {
                netlist.combinational_core()
            } else {
                netlist
            };
            let netlist = if netlist.gates().iter().any(|g| g.kind.is_parity()) {
                netlist.decompose_parity()
            } else {
                netlist
            };
            netlist.to_circuit()
        });
        (report, circuit.map_err(|e| format!("{spec}: {e}"))?)
    };
    let circuit_report = t.time("analyze.lint", || pdf_analyze::lint_circuit(&circuit));
    report.extend(circuit_report);
    if report.has_errors() {
        return Err(format!("{spec}: the structural lint reports errors"));
    }
    Ok(circuit)
}

/// The generator configuration `cmd_atpg` builds for `plan`.
#[must_use]
pub fn config(plan: &Plan, targets: &Targets) -> AtpgConfig {
    AtpgConfig {
        seed: plan.seed,
        compaction: plan.compaction,
        justify_attempts: plan.attempts,
        sim: SimOptions::default(),
        cone_cache: plan.cone_cache,
        budget: RunBudget::unlimited(),
        checkpoint: plan.checkpoint.clone(),
        learned: targets.learned.clone(),
        guide: targets.guide.clone(),
        threads: plan.threads,
        ..AtpgConfig::default()
    }
}

/// Runs the basic or the enrichment generator, fresh or resumed.
///
/// # Errors
///
/// A message when `resume` does not belong to this run.
pub fn generate(
    plan: &Plan,
    targets: &Targets,
    config: AtpgConfig,
    resume: Option<&Checkpoint>,
) -> Result<AtpgOutcome, String> {
    let circuit = &targets.circuit;
    let split = &targets.split;
    let outcome = if plan.enrich {
        let atpg = EnrichmentAtpg::new(circuit).with_config(config);
        match resume {
            Some(checkpoint) => atpg.run_resumed(split, checkpoint),
            None => Ok(atpg.run(split)),
        }
    } else {
        let atpg = BasicAtpg::new(circuit).with_config(config);
        match resume {
            Some(checkpoint) => atpg.run_resumed(split.p0(), checkpoint),
            None => Ok(atpg.run(split.p0())),
        }
    };
    outcome.map_err(|e| format!("resume rejected: {e}"))
}

/// The static compaction step: the final test set the CLI writes.
#[must_use]
pub fn compact(plan: &Plan, targets: &Targets, tests: &TestSet) -> TestSet {
    if plan.minimize {
        let (minimized, _) = tests.minimized_within(
            &RunBudget::unlimited(),
            SimOptions::default(),
            &targets.circuit,
            &targets.everything,
        );
        minimized
    } else {
        tests.clone()
    }
}
