//! Implementation of the `pdfatpg` command-line tool.
//!
//! The binary front-end (`main.rs`) is a thin wrapper; all commands live
//! here and return their output as strings, which keeps them directly
//! testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Instant;

use pdf_analyze::{
    classify_store, constant_lines, lint_semantic, ConstantLine, Diagnostic, LintMode, LintReport,
    Preparation, Testability,
};
use pdf_atpg::{
    AtpgConfig, BasicAtpg, BranchGuide, BudgetSpec, Checkpoint, CheckpointPolicy, Compaction,
    EnrichmentAtpg, RunBudget, SimOptions, TargetSplit, DEFAULT_ATTEMPTS,
};
use pdf_knobs::{Kind, KnobError, Program};
use pdf_logic::Value;
use pdf_netlist::{Circuit, LineKind, Netlist, TwoPattern};
use pdf_paths::{PathEnumerator, PathSpectrum, Strategy};
use pdf_telemetry::Json;

/// The command-line usage text; [`help`] adds the environment section.
pub const USAGE: &str = "\
pdfatpg — path delay fault analysis and test enrichment
         (Pomeranz & Reddy, DATE 2002)

USAGE:
    pdfatpg <COMMAND> <CIRCUIT> [OPTIONS]

CIRCUIT:
    a .bench file path, `s27`, `c17`, or a benchmark stand-in name
    (s641, s953, s1196, s1423, s1488, b03, b04, b09, s1423*, s5378*, s9234*)

COMMANDS:
    info      <circuit>              structural summary
    lint      <circuit>              structural and semantic diagnostics
                                     (PDLxxx codes); exits 3 when errors
                                     are found
    analyze   <circuit> [--cap N] [--static-learning]
                                     JSON testability report: exact path
                                     spectrum, SCOAP difficulty, per-path
                                     sensitizability classification
                                     (false / robust / unknown), constant
                                     lines and semantic lint counts
    spectrum  <circuit> [--top N]    exact path counts per length (no enumeration)
    paths     <circuit> [--cap N] [--units N] [--strategy moderate|distance]
                                     enumerate the longest paths
    faults    <circuit> [--cap N] [--limit N] [--static-learning] [--sensitize]
                        [--threads N]
                                     the detectable fault population and A(p) sets
    atpg      <circuit> [--cap N] [--np0 N] [--heuristic uncomp|arbit|length|values]
                        [--seed S] [--attempts N] [--enrich] [--minimize]
                        [--output FILE] [--telemetry FILE]
                        [--time-budget SPEC] [--checkpoint FILE]
                        [--checkpoint-every K] [--resume FILE] [--static-learning]
                        [--sensitize] [--scoap] [--threads N] [--failpoints SPEC]
                                     generate a (optionally enriched) robust test
                                     set; exits 5 when --resume finds a
                                     corrupt checkpoint journal
    matrix    [--cells N] [--circuits a,b] [--seeds s1,s2] [--full]
              [--report FILE] [--repro-dir DIR] [--replay FILE]
                                     cross-configuration invariant matrix
                                     (no circuit argument); exits 4 when
                                     violations are found, auto-minimizing
                                     each into a repro artifact
    sim       <circuit> <v1> <v2>    two-pattern waveform simulation (patterns over {0,1,x})
    dot       <circuit>              Graphviz export
    bench     <circuit>              emit the netlist as .bench text
";

/// The closing note of the `--help` text.
const NOTES: &str = "\
Sequential netlists are reduced to their combinational core; XOR/XNOR
gates are decomposed before path analysis. Both transformations print a
notice to stderr.
";

/// The `--help` text: [`USAGE`], the environment section rendered from
/// the knob table, and the closing notes.
#[must_use]
pub fn help() -> String {
    format!(
        "{USAGE}\n{}\n{NOTES}",
        pdf_knobs::help_section(Program::Pdfatpg)
    )
}

/// Exit status for operational errors (bad usage, unreadable files,
/// failed runs).
pub const EXIT_ERROR: i32 = 2;

/// Exit status when linting finds error-severity diagnostics.
pub const EXIT_LINT: i32 = 3;

/// Exit status when the configuration matrix finds invariant violations
/// (or a replayed repro artifact still reproduces).
pub const EXIT_MATRIX: i32 = 4;

/// Exit status when `--resume` finds a corrupt checkpoint journal: a
/// damaged record before the last, or no record that verifies (typed
/// [`pdf_atpg::CheckpointError::Corrupt`]).
pub const EXIT_CORRUPT: i32 = 5;

/// A fatal command error: a message for stderr plus the process exit
/// status the binary should return.
#[derive(Debug)]
pub struct CliError {
    /// The message printed to stderr.
    pub message: String,
    /// The process exit status ([`EXIT_ERROR`] unless stated otherwise).
    pub code: i32,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: EXIT_ERROR,
        }
    }

    fn lint(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: EXIT_LINT,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> CliError {
        CliError::new(s)
    }
}

impl From<KnobError> for CliError {
    fn from(e: KnobError) -> CliError {
        CliError::new(e.to_string())
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::new(message))
}

/// Simple option parser: `--key value` pairs plus positionals.
#[derive(Debug, Default)]
pub struct Options {
    positionals: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Options {
    /// Parses `args` (without the command itself). Options named in
    /// `value_flags` consume a value; all other `--flags` are boolean.
    pub fn parse(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Options, CliError> {
        let mut out = Options::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let Some(value) = it.next() else {
                        return err(format!("--{name} requires a value"));
                    };
                    out.flags.push((name.to_owned(), Some(value.clone())));
                } else if bool_flags.contains(&name) {
                    out.flags.push((name.to_owned(), None));
                } else {
                    return err(format!("unknown option --{name}"));
                }
            } else {
                out.positionals.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// The positional arguments.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value of `--name`, if present.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether boolean `--name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, v)| n == name && v.is_none())
    }

    /// `--name` as a [`Kind::Count`] or [`Kind::Number`]; `default` if absent.
    ///
    /// # Errors
    ///
    /// ``invalid --name=`v`: <expected>`` ([`Kind::check`]).
    pub fn number<T: FromStr>(&self, name: &str, kind: Kind, default: T) -> Result<T, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => Ok(kind.number(&format!("--{name}"), raw)?),
        }
    }

    /// `--name` as a [`Kind::Names`] or [`Kind::Numbers`] list, if given.
    ///
    /// # Errors
    ///
    /// ``invalid --name=`v`: <expected>`` ([`Kind::check`]).
    pub fn list<T: FromStr>(&self, name: &str, kind: Kind) -> Result<Option<Vec<T>>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => Ok(Some(kind.list(&format!("--{name}"), raw)?)),
        }
    }
}

/// Where a circuit spec's netlist comes from.
enum Source {
    /// The embedded ISCAS `.bench` text of `s27` or `c17`.
    Embedded(&'static str),
    /// A synthetic benchmark stand-in.
    StandIn(Netlist),
    /// A `.bench` file's text.
    File(String),
}

/// Looks a circuit spec up: `s27`/`c17` come from the embedded ISCAS
/// sources, stand-in names from the synthetic generator, anything else is
/// read as a file behind the `netlist.read` failpoint site, transient
/// errors retried ([`pdf_telemetry::guarded_read`]).
fn source(spec: &str) -> Result<Source, CliError> {
    Ok(match spec {
        "s27" => Source::Embedded(pdf_netlist::iscas::S27_BENCH),
        "c17" => Source::Embedded(pdf_netlist::iscas::C17_BENCH),
        _ => match pdf_netlist::stand_in_profile(spec) {
            Some(profile) => Source::StandIn(profile.generate()),
            None => Source::File(
                pdf_telemetry::guarded_read(pdf_chaos::sites::NETLIST_READ, spec.as_ref())
                    .map_err(|e| CliError::new(format!("cannot read `{spec}`: {e}")))?,
            ),
        },
    })
}

/// Resolves a circuit spec to its raw netlist; a file that does not parse
/// fails with typed `PDLxxx` diagnostics.
fn resolve_netlist(spec: &str) -> Result<Netlist, CliError> {
    match source(spec)? {
        Source::Embedded(text) => pdf_netlist::parse_bench(text, spec)
            .map_err(|e| CliError::new(format!("embedded {spec} netlist: {e}"))),
        Source::StandIn(netlist) => Ok(netlist),
        Source::File(text) => {
            let name = std::path::Path::new(spec)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("circuit");
            pdf_netlist::parse_bench(&text, name)
                .map_err(|e| CliError::lint(Diagnostic::from_bench_error(spec, &e).to_string()))
        }
    }
}

/// Reduces a raw netlist to the combinational, parity-free form the path
/// analyses expect. Notices go to `notes`.
fn normalize_netlist(
    spec: &str,
    netlist: Netlist,
    notes: &mut String,
) -> Result<Circuit, CliError> {
    let netlist = if netlist.dff_count() > 0 {
        let _ = writeln!(
            notes,
            "note: {} flip-flops removed; analysing the combinational core",
            netlist.dff_count()
        );
        netlist.combinational_core()
    } else {
        netlist
    };
    let netlist = if netlist.gates().iter().any(|g| g.kind.is_parity()) {
        let _ = writeln!(notes, "note: XOR/XNOR gates decomposed for path analysis");
        netlist.decompose_parity()
    } else {
        netlist
    };
    // A failed expansion is a structural diagnostic, not an operational
    // error: it carries a PDLxxx class and exits with the lint status.
    netlist
        .to_circuit()
        .map_err(|e| CliError::lint(Diagnostic::from_netlist_error(spec, &e).to_string()))
}

/// Loads a circuit by name or file path, normalizing to a combinational,
/// parity-free line-level circuit, and runs the automatic structural lint
/// according to `PDF_LINT`, with the semantic lints too when `sensitize`
/// is on. Notices and lint findings go to `notes`; the semantic pass
/// comes back when the preflight ran it.
pub fn load_circuit(
    spec: &str,
    sensitize: bool,
    notes: &mut String,
) -> Result<(Circuit, Option<Semantic>), CliError> {
    let mode = LintMode::from_env()?;
    // s27 keeps the paper's exact hand-assigned line numbering, which the
    // generic bench pipeline would not reproduce; c17 rides along.
    let (netlist_report, circuit) = if spec == "s27" {
        (LintReport::new(), pdf_netlist::iscas::s27())
    } else if spec == "c17" {
        (LintReport::new(), pdf_netlist::iscas::c17())
    } else {
        let netlist = resolve_netlist(spec)?;
        let report = match mode {
            LintMode::Off => LintReport::new(),
            _ => pdf_analyze::lint_netlist(&netlist),
        };
        (report, normalize_netlist(spec, netlist, notes)?)
    };
    if matches!(mode, LintMode::Off) {
        return Ok((circuit, None));
    }
    let mut report = netlist_report;
    report.extend(pdf_analyze::lint_circuit(&circuit));
    // The semantic (value-level) lints join the automatic preflight only
    // when the sensitizability pass is enabled, so default runs keep
    // byte-identical stderr. Their findings are warnings: the deny mode
    // reports them without aborting.
    let semantic = sensitize.then(|| semantic_pass(&circuit));
    if let Some((_, lints)) = &semantic {
        report.extend(lints.clone());
    }
    if matches!(mode, LintMode::Deny) && report.has_errors() {
        return Err(CliError::lint(render_report(&report)));
    }
    for d in report.iter() {
        let _ = writeln!(notes, "{d}");
    }
    Ok((circuit, semantic))
}

/// A circuit's constant lines and the semantic lints (PDL008+) they raise.
fn semantic_pass(circuit: &Circuit) -> Semantic {
    let constants = constant_lines(circuit);
    let lints = lint_semantic(circuit, &constants);
    (constants, lints)
}

/// A circuit's constant lines and the semantic lints they raise.
pub type Semantic = (Vec<ConstantLine>, LintReport);

fn render_report(report: &LintReport) -> String {
    let mut s = String::new();
    for d in report.iter() {
        let _ = writeln!(s, "{d}");
    }
    let _ = write!(
        s,
        "lint: {} error(s), {} warning(s)",
        report.error_count(),
        report.warning_count()
    );
    s
}

/// `pdfatpg lint`: runs the full structural lint (raw netlist plus the
/// expanded line-level circuit) regardless of `PDF_LINT`, and fails with
/// [`EXIT_LINT`] when error-severity diagnostics are found.
pub fn cmd_lint(spec: &str) -> Result<String, CliError> {
    let netlist = resolve_netlist(spec)?;
    let mut report = pdf_analyze::lint_netlist(&netlist);
    let mut notes = String::new();
    // Lint what the analyses will actually see, too: the normalization
    // itself can fail, which surfaces as a typed diagnostic — combined
    // with whatever the netlist pass already found, not instead of it.
    match normalize_netlist(spec, netlist, &mut notes) {
        // The explicit lint command always runs the semantic pass too —
        // it exists to surface everything the analyses can prove.
        Ok(circuit) => {
            report.extend(pdf_analyze::lint_circuit(&circuit));
            report.extend(lint_semantic(&circuit, &constant_lines(&circuit)));
        }
        Err(e) => {
            let mut message = String::new();
            for d in report.iter() {
                let _ = writeln!(message, "{d}");
            }
            message.push_str(&e.message);
            return Err(CliError::lint(message));
        }
    }
    if report.has_errors() {
        return Err(CliError::lint(render_report(&report)));
    }
    if report.is_clean() {
        return Ok(format!("{spec}: clean\n"));
    }
    Ok(format!("{}\n", render_report(&report)))
}

/// `pdfatpg info`.
pub fn cmd_info(circuit: &Circuit) -> String {
    let spectrum = PathSpectrum::of(circuit);
    let mut s = String::new();
    let _ = writeln!(s, "circuit: {}", circuit.name());
    let _ = writeln!(
        s,
        "lines: {} ({} inputs, {} gates, {} branches, {} outputs)",
        circuit.line_count(),
        circuit.inputs().len(),
        circuit.gate_count(),
        circuit.branch_count(),
        circuit.outputs().len(),
    );
    let _ = writeln!(s, "critical path delay: {}", circuit.critical_delay());
    let _ = writeln!(
        s,
        "complete paths: {}{}",
        spectrum.total(),
        if spectrum.saturated() {
            "+ (saturated)"
        } else {
            ""
        },
    );
    let _ = writeln!(
        s,
        "path delays: {} distinct, {}..={}",
        spectrum.iter_desc().count(),
        spectrum.min_delay().unwrap_or(0),
        spectrum.max_delay().unwrap_or(0),
    );
    s
}

/// `pdfatpg spectrum`.
pub fn cmd_spectrum(circuit: &Circuit, options: &Options) -> Result<String, CliError> {
    let top: usize = options.number("top", Kind::Number, 20)?;
    let spectrum = PathSpectrum::of(circuit);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>4} {:>8} {:>20} {:>20}",
        "i", "L_i", "paths", "cumulative"
    );
    let mut cumulative = 0u64;
    for (i, (delay, count)) in spectrum.iter_desc().take(top).enumerate() {
        cumulative = cumulative.saturating_add(count);
        let _ = writeln!(s, "{i:>4} {delay:>8} {count:>20} {cumulative:>20}");
    }
    Ok(s)
}

fn strategy_from(options: &Options) -> Result<Strategy, CliError> {
    match options.value("strategy") {
        None | Some("distance") => Ok(Strategy::DistanceBased),
        Some("moderate") => Ok(Strategy::Moderate),
        Some(other) => err(format!("unknown strategy `{other}`")),
    }
}

/// `pdfatpg paths`.
pub fn cmd_paths(circuit: &Circuit, options: &Options) -> Result<String, CliError> {
    let cap: usize = options.number("cap", Kind::Number, 10_000)?;
    let units: u32 = options.number("units", Kind::Number, 2)?;
    let result = PathEnumerator::new(circuit)
        .with_cap(cap)
        .with_units_per_path(units)
        .with_strategy(strategy_from(options)?)
        .enumerate();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} paths retained (cap {} fault units; {} removals{})",
        result.store.len(),
        cap,
        result.stats.removed,
        if result.stats.overflowed {
            "; cap overflowed"
        } else {
            ""
        },
    );
    for entry in result.store.iter() {
        let _ = writeln!(s, "{:>4}  {}", entry.delay, entry.path);
    }
    Ok(s)
}

/// The preparation `--cap`, `--static-learning` (or `PDF_STATIC_LEARNING`),
/// `sensitize` and `--threads` ask for. Both passes off keeps the plain,
/// byte-identical behavior; the thread count never changes the output.
fn preparation_from(options: &Options, sensitize: bool) -> Result<Preparation, CliError> {
    Ok(Preparation {
        cap: options.number("cap", Kind::Number, 10_000)?,
        learning: pdf_knobs::STATIC_LEARNING.switch(options.has("static-learning"))?,
        sensitize,
        threads: options.number("threads", Kind::Count, 1)?,
    })
}

/// `pdfatpg faults`; `sensitize` is `--sensitize` or `PDF_SENSITIZE`.
pub fn cmd_faults(
    circuit: &Circuit,
    options: &Options,
    sensitize: bool,
) -> Result<String, CliError> {
    let preparation = preparation_from(options, sensitize)?;
    let limit: usize = options.number("limit", Kind::Number, 20)?;
    let prepared = preparation.run(circuit);
    let (faults, stats) = (&prepared.faults, &prepared.stats);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} candidates -> {} detectable ({} conflicting conditions, {} by implication)",
        stats.candidates,
        faults.len(),
        stats.rule1_conflicts,
        stats.rule2_conflicts,
    );
    s.push_str(&prepared.notes());
    let histogram = pdf_paths::LengthHistogram::from_lengths(faults.delays());
    let _ = writeln!(s, "length classes: {}", histogram.len());
    for entry in faults.iter().take(limit) {
        let _ = writeln!(s, "{}  A(p) = {}", entry.fault, entry.assignments);
    }
    if faults.len() > limit {
        let _ = writeln!(s, "... {} more (raise --limit)", faults.len() - limit);
    }
    Ok(s)
}

/// `pdfatpg analyze`: a JSON testability and path-classification report.
///
/// Combines the static passes — the exact per-line-DP path spectrum (no
/// enumeration), SCOAP controllability/observability, the
/// sensitizability classification of the enumerated longest paths, and
/// the semantic lints — and cross-checks them: the classified-path
/// counts must cover the store, and when nothing was capped the
/// enumerated population must equal the spectrum total. `semantic` is
/// the preflight's semantic pass, if it ran one.
pub fn cmd_analyze(
    circuit: &Circuit,
    options: &Options,
    semantic: Option<Semantic>,
) -> Result<String, CliError> {
    let Preparation { cap, learning, .. } = preparation_from(options, false)?;
    let table = learning.then(|| pdf_analyze::learn_implications(circuit));
    let spectrum = PathSpectrum::of(circuit);
    let result = PathEnumerator::new(circuit).with_cap(cap).enumerate();
    let analysis = classify_store(
        circuit,
        &result.store,
        pdf_faults::Sensitization::Robust,
        table.as_ref(),
    );
    let counts = analysis.class_counts();
    if counts.total() != result.store.len() {
        return err(format!(
            "internal error: {} classified paths do not cover the {} enumerated",
            counts.total(),
            result.store.len()
        ));
    }
    // With nothing capped or saturated, enumeration and the per-line DP
    // count the same population — a disagreement is a real defect.
    let complete = !result.stats.overflowed && result.stats.removed == 0 && !spectrum.saturated();
    if complete && result.store.len() as u64 != spectrum.total() {
        return err(format!(
            "internal error: {} enumerated paths but the spectrum counts {}",
            result.store.len(),
            spectrum.total()
        ));
    }

    let testability = Testability::of(circuit);
    let mut max_difficulty = 0u32;
    let mut hardest: Option<&str> = None;
    for (id, line) in circuit.iter() {
        let difficulty = testability.difficulty(id);
        if difficulty > max_difficulty || hardest.is_none() {
            max_difficulty = difficulty;
            hardest = Some(line.name());
        }
    }
    let (constants, semantic) = semantic.unwrap_or_else(|| semantic_pass(circuit));

    let report = Json::object()
        .field("circuit", circuit.name())
        .field("lines", circuit.line_count())
        .field("critical_delay", circuit.critical_delay())
        .field(
            "spectrum",
            Json::object()
                .field("complete_paths", spectrum.total())
                .field("saturated", spectrum.saturated())
                .field("distinct_delays", spectrum.iter_desc().count()),
        )
        .field(
            "paths",
            Json::object()
                .field("enumerated", result.store.len())
                .field("cap", cap)
                .field("complete", complete)
                .field("false", counts.false_paths)
                .field("robust", counts.robust)
                .field("unknown", counts.unknown),
        )
        .field(
            "faults",
            Json::object()
                .field("false", analysis.stats.false_faults)
                .field("split_refuted", analysis.stats.split_refuted),
        )
        .field(
            "testability",
            Json::object()
                .field("max_difficulty", max_difficulty)
                .field(
                    "hardest_line",
                    hardest.map_or(Json::Null, |name| Json::Str(name.to_owned())),
                ),
        )
        .field(
            "constants",
            Json::Arr(
                constants
                    .iter()
                    .map(|c| {
                        Json::object()
                            .field("line", circuit.line(c.line).name())
                            .field("value", c.value.to_string())
                    })
                    .collect(),
            ),
        )
        .field("semantic_lints", semantic.warning_count());
    Ok(format!("{}\n", report.to_pretty()))
}

fn heuristic_from(options: &Options) -> Result<Compaction, CliError> {
    let label = options.value("heuristic").unwrap_or("values");
    Compaction::from_label(label)
        .ok_or_else(|| CliError::new(format!("unknown heuristic `{label}`")))
}

/// The atpg run-control options: the generation budget (from
/// `--time-budget` or `PDF_TIME_BUDGET`), the checkpoint policy (from
/// `--checkpoint` and `--checkpoint-every`) and a checkpoint to resume
/// from (`--resume`).
type RunControl = (
    Option<BudgetSpec>,
    Option<CheckpointPolicy>,
    Option<Checkpoint>,
);

fn run_control_from(options: &Options) -> Result<RunControl, CliError> {
    let budget_spec =
        pdf_knobs::TIME_BUDGET.read(options.value("time-budget"), BudgetSpec::parse)?;
    let every = options.number(
        "checkpoint-every",
        Kind::Count,
        pdf_atpg::DEFAULT_CHECKPOINT_EVERY,
    )?;
    let checkpoint = match options.value("checkpoint") {
        Some(path) => Some(CheckpointPolicy::new(path, every)),
        None if options.value("checkpoint-every").is_some() => {
            return err("--checkpoint-every requires --checkpoint")
        }
        None => None,
    };
    let resume = match options.value("resume") {
        Some(path) => {
            let (checkpoint, recovered) =
                Checkpoint::load_with_recovery(std::path::Path::new(path)).map_err(|e| {
                    let corrupt = matches!(e, pdf_atpg::CheckpointError::Corrupt { .. });
                    let code = if corrupt { EXIT_CORRUPT } else { EXIT_ERROR };
                    CliError {
                        message: format!("--resume: {e}"),
                        code,
                    }
                })?;
            if recovered {
                eprintln!(
                    "note: --resume continued from checkpoint generation {}",
                    checkpoint.generation
                );
            }
            Some(checkpoint)
        }
        None => None,
    };
    Ok((budget_spec, checkpoint, resume))
}

/// `pdfatpg matrix`: runs the cross-configuration invariant matrix (or
/// replays a minimized repro artifact with `--replay`). Violations exit
/// with [`EXIT_MATRIX`] and the summary on stderr, mirroring `lint`.
pub fn cmd_matrix(options: &Options) -> Result<String, CliError> {
    if let Some(path) = options.value("replay") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot read `{path}`: {e}")))?;
        let repro = pdf_matrix::ReproCase::parse(&text)
            .map_err(|e| CliError::new(format!("`{path}` is not a repro artifact: {e}")))?;
        return match pdf_matrix::replay(&repro).map_err(CliError::new)? {
            Some(detail) => Err(CliError {
                message: format!(
                    "repro `{path}` still reproduces [{}]: {detail}",
                    repro.invariant.label()
                ),
                code: EXIT_MATRIX,
            }),
            None => Ok(format!(
                "repro `{path}` [{}] no longer reproduces\n",
                repro.invariant.label()
            )),
        };
    }

    let mut axes = if options.has("full") {
        pdf_matrix::MatrixAxes::full()
    } else {
        pdf_matrix::MatrixAxes::smoke()
    };
    if let Some(circuits) = options.list::<String>("circuits", Kind::Names)? {
        if let Some(c) = circuits
            .iter()
            .find(|c| pdf_netlist::circuit_by_name(c).is_none())
        {
            return err(format!("unknown matrix circuit `{c}`"));
        }
        axes.circuits = circuits;
    }
    if let Some(seeds) = options.list("seeds", Kind::Numbers)? {
        axes.seeds = seeds;
    }
    let max_cells = options.number("cells", Kind::Count, 200)?;

    let started = Instant::now();
    let outcome = pdf_matrix::MatrixRunner::new(axes)
        .with_max_cells(max_cells)
        .run();
    let elapsed = started.elapsed().as_secs_f64();

    if let Some(path) = options.value("report") {
        std::fs::write(path, outcome.to_report_json().to_pretty())
            .map_err(|e| CliError::new(format!("cannot write report `{path}`: {e}")))?;
    }
    if let Some(dir) = options.value("repro-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::new(format!("cannot create `{dir}`: {e}")))?;
        for (i, repro) in outcome.repros.iter().enumerate() {
            let path = std::path::Path::new(dir).join(format!("pdf-matrix-repro-{i}.json"));
            std::fs::write(&path, repro.to_json().to_pretty()).map_err(|e| {
                CliError::new(format!("cannot write repro `{}`: {e}", path.display()))
            })?;
        }
    }

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "matrix: {} cells in {elapsed:.1}s",
        outcome.observations.len()
    );
    for invariant in pdf_matrix::Invariant::ALL {
        let count = outcome
            .violations
            .iter()
            .filter(|v| v.invariant == invariant)
            .count();
        let _ = writeln!(
            summary,
            "  {:<10} {}",
            invariant.label(),
            if count == 0 {
                "ok".to_owned()
            } else {
                format!("{count} violation(s)")
            }
        );
    }
    for violation in &outcome.violations {
        let _ = writeln!(
            summary,
            "  [{}] {}",
            violation.invariant.label(),
            violation.detail
        );
    }
    if outcome.passed() {
        Ok(summary)
    } else {
        Err(CliError {
            message: summary,
            code: EXIT_MATRIX,
        })
    }
}

/// `pdfatpg atpg`; `sensitize` is `--sensitize` or `PDF_SENSITIZE`. Only
/// [`run`] honours `--telemetry`: a library caller that wants a report
/// opens its own [`pdf_telemetry::Guard`].
pub fn cmd_atpg(circuit: &Circuit, options: &Options, sensitize: bool) -> Result<String, CliError> {
    let started = Instant::now();
    let preparation = preparation_from(options, sensitize)?;
    let n_p0: usize = options.number("np0", Kind::Number, 1_000)?;
    let seed: u64 = options.number("seed", Kind::Number, 2002)?;
    let attempts: u32 = options.number("attempts", Kind::Number, DEFAULT_ATTEMPTS)?;
    // Installed before run control so an armed `checkpoint.read` entry
    // already covers the --resume load. The PDF_FAILPOINTS twin was
    // installed at startup; the flag re-installs over it.
    if let Some(text) = options.value("failpoints") {
        let spec = pdf_knobs::FAILPOINTS.read(Some(text), pdf_chaos::FailpointSpec::parse)?;
        pdf_chaos::install(&spec.unwrap_or_default());
    }
    let (budget_spec, checkpoint, resume) = run_control_from(options)?;
    let budget = match &budget_spec {
        Some(spec) => RunBudget::with_deadline(spec.deadline_for("generate", started, started)),
        None => RunBudget::unlimited(),
    };
    let compaction = heuristic_from(options)?;
    let prepared = preparation.run(circuit);
    // SCOAP guidance intentionally changes the search (and so the random
    // stream): the guide is recorded in the config fingerprint, and the
    // guided run stays deterministic in its own right.
    let guide = options.has("scoap").then(|| {
        let testability = Testability::of(circuit);
        std::sync::Arc::new(BranchGuide::new(
            testability.cc0_table().to_vec(),
            testability.cc1_table().to_vec(),
        ))
    });
    let config = AtpgConfig {
        seed,
        compaction,
        justify_attempts: attempts,
        budget,
        checkpoint,
        learned: prepared.learned.clone(),
        guide: guide.clone(),
        threads: preparation.threads,
        ..AtpgConfig::default()
    };

    if prepared.faults.is_empty() {
        return err("no detectable path delay faults in the enumerated population");
    }
    let split = TargetSplit::by_cumulative_length(&prepared.faults, n_p0);

    let mut s = prepared.notes();
    if guide.is_some() {
        let _ = writeln!(
            s,
            "scoap: branch guidance and hardest-first target ordering enabled"
        );
    }
    let _ = writeln!(
        s,
        "targets: |P0| = {} (lengths >= {}), |P1| = {}",
        split.p0().len(),
        split.cutoffs()[0],
        split.p1().len(),
    );
    let resume_err = |e: pdf_atpg::ResumeError| CliError::new(format!("--resume: {e}"));
    let (outcome, summary) = if options.has("enrich") {
        let atpg = EnrichmentAtpg::new(circuit).with_config(config.clone());
        let outcome = match &resume {
            Some(cp) => atpg.run_resumed(&split, cp).map_err(resume_err)?,
            None => atpg.run(&split),
        };
        let summary = format!(
            "enrichment: {} tests; P0 {}/{}; P0∪P1 {}/{}",
            outcome.tests().len(),
            outcome.detected_in_set(0),
            split.p0().len(),
            outcome.detected_total(),
            split.total(),
        );
        (outcome, summary)
    } else {
        let atpg = BasicAtpg::new(circuit).with_config(config.clone());
        let outcome = match &resume {
            Some(cp) => atpg.run_resumed(split.p0(), cp).map_err(resume_err)?,
            None => atpg.run(split.p0()),
        };
        let summary = format!(
            "basic ({}): {} tests; P0 {}/{}",
            config.compaction.label(),
            outcome.tests().len(),
            outcome.detected_in_set(0),
            split.p0().len(),
        );
        (outcome, summary)
    };
    let _ = writeln!(s, "{summary}");
    let _ = writeln!(s, "budget_exhausted: {}", outcome.budget_exhausted());
    let _ = writeln!(
        s,
        "faults_quarantined: {}",
        outcome.stats().faults_quarantined
    );
    let tests = outcome.tests().clone();

    let tests = if options.has("minimize") {
        let everything = split.all();
        let before = tests.len();
        let compact_budget = match &budget_spec {
            Some(spec) => {
                RunBudget::with_deadline(spec.deadline_for("compact", started, Instant::now()))
            }
            None => RunBudget::unlimited(),
        };
        let (minimized, cut_short) =
            tests.minimized_within(&compact_budget, SimOptions::default(), circuit, &everything);
        if cut_short {
            let _ = writeln!(
                s,
                "static minimization skipped: time budget exhausted ({} tests kept)",
                minimized.len(),
            );
        } else {
            let _ = writeln!(
                s,
                "static minimization: {} -> {} tests (coverage preserved)",
                before,
                minimized.len(),
            );
        }
        minimized
    } else {
        tests
    };

    if let Some(path) = options.value("output") {
        std::fs::write(path, tests.to_text())
            .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
        let _ = writeln!(s, "test set written to {path}");
    } else {
        s.push_str(&tests.to_text());
    }
    Ok(s)
}

/// `pdfatpg sim`.
pub fn cmd_sim(circuit: &Circuit, v1: &str, v2: &str) -> Result<String, CliError> {
    let parse = |text: &str| -> Result<Vec<Value>, CliError> {
        let values: Result<Vec<Value>, _> = text.chars().map(Value::try_from).collect();
        values.map_err(|e| CliError::new(e.to_string()))
    };
    let v1 = parse(v1)?;
    let v2 = parse(v2)?;
    let n = circuit.inputs().len();
    if v1.len() != n || v2.len() != n {
        return err(format!("patterns must have {n} values (one per input)"));
    }
    let test = TwoPattern::new(v1, v2);
    let waves = pdf_sim::waveforms(circuit, &test);
    let mut s = String::new();
    let _ = writeln!(s, "test: {test}");
    let _ = writeln!(s, "{:>5}  {:<16} {:<8} waveform", "line", "name", "kind");
    for (id, line) in circuit.iter() {
        let kind = match circuit.kind(id) {
            LineKind::Input => "input",
            LineKind::Gate(_) => "gate",
            LineKind::Branch { .. } => "branch",
        };
        let _ = writeln!(
            s,
            "{:>5}  {:<16} {:<8} {}{}",
            id.to_string(),
            line.name(),
            kind,
            waves[id.index()],
            if line.is_output() { "  [output]" } else { "" },
        );
    }
    Ok(s)
}

/// Each command's value-taking and boolean flags; `None` for an unknown
/// command.
fn command_flags(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match command {
        "info" | "lint" | "sim" | "dot" | "bench" => (&[], &[]),
        "spectrum" => (&["top"], &[]),
        "paths" => (&["cap", "units", "strategy"], &[]),
        "faults" => (
            &["cap", "limit", "threads"],
            &["static-learning", "sensitize"],
        ),
        "analyze" => (&["cap"], &["static-learning"]),
        "atpg" => (
            &[
                "cap",
                "np0",
                "heuristic",
                "seed",
                "attempts",
                "output",
                "telemetry",
                "time-budget",
                "checkpoint",
                "checkpoint-every",
                "resume",
                "threads",
                "failpoints",
            ],
            &[
                "enrich",
                "minimize",
                "static-learning",
                "sensitize",
                "scoap",
            ],
        ),
        "matrix" => (
            &[
                "cells",
                "circuits",
                "seeds",
                "report",
                "repro-dir",
                "replay",
            ],
            &["full"],
        ),
        _ => return None,
    })
}

/// Runs a full command line (without `argv[0]`). Returns the stdout text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return err(help());
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(help());
    }
    let Some((value_flags, bool_flags)) = command_flags(command) else {
        return err(format!("unknown command `{command}`\n\n{}", help()));
    };
    let options = Options::parse(&args[1..], value_flags, bool_flags)?;
    // Every knob pdfatpg reads is validated before any work, so a
    // malformed value is a typed error, never a panic mid-run. A valid
    // PDF_FAILPOINTS arms injection for every command (the atpg
    // --failpoints flag re-installs over it).
    pdf_atpg::validate_env(Program::Pdfatpg)?;
    pdf_chaos::install_from_env()?;
    // One report per run, at the --telemetry path when given.
    let _telemetry = match options.value("telemetry") {
        Some(path) => pdf_telemetry::Guard::to_path(path),
        None => pdf_telemetry::Guard::from_env()?,
    };
    // The matrix command runs over its own circuit axis, not a single
    // circuit argument.
    if command == "matrix" {
        return cmd_matrix(&options);
    }
    let Some((spec, rest)) = options.positionals().split_first() else {
        return err(format!(
            "`{command}` requires a circuit argument\n\n{}",
            help()
        ));
    };
    // The lint command drives its own loading (it must see the raw
    // netlist and report parse failures as diagnostics, not abort in the
    // automatic pre-lint).
    if command == "lint" {
        return cmd_lint(spec);
    }
    // One reading of the sensitize switch serves the preflight's semantic
    // lints and the preparation alike.
    let sensitize = pdf_knobs::SENSITIZE.switch(options.has("sensitize"))?;
    let mut notes = String::new();
    let (circuit, semantic) = load_circuit(spec, sensitize, &mut notes)?;
    if !notes.is_empty() {
        eprint!("{notes}");
    }
    match command.as_str() {
        "info" => Ok(cmd_info(&circuit)),
        "spectrum" => cmd_spectrum(&circuit, &options),
        "paths" => cmd_paths(&circuit, &options),
        "faults" => cmd_faults(&circuit, &options, sensitize),
        "analyze" => cmd_analyze(&circuit, &options, semantic),
        "atpg" => cmd_atpg(&circuit, &options, sensitize),
        "sim" => match rest {
            [v1, v2] => cmd_sim(&circuit, v1, v2),
            _ => err("sim requires exactly two pattern arguments"),
        },
        "dot" => Ok(pdf_netlist::to_dot(&circuit)),
        // Emitting the line-level circuit would be lossy; emit the
        // original netlist instead.
        "bench" => Ok(match source(spec)? {
            Source::Embedded(text) => text.to_owned(),
            Source::StandIn(netlist) => pdf_netlist::to_bench_string(&netlist),
            Source::File(text) => text,
        }),
        other => unreachable!("command_flags admitted `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let e = run(&args(&["frobnicate", "s27"])).unwrap_err();
        assert!(e.message.contains("unknown command"));
    }

    #[test]
    fn info_on_s27() {
        let out = run(&args(&["info", "s27"])).unwrap();
        assert!(out.contains("26"), "{out}");
        assert!(out.contains("critical path delay: 10"));
    }

    #[test]
    fn spectrum_on_s27() {
        let out = run(&args(&["spectrum", "s27", "--top", "3"])).unwrap();
        assert!(out.contains("10"), "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
    }

    #[test]
    fn paths_moderate_walkthrough() {
        let out = run(&args(&[
            "paths",
            "s27",
            "--cap",
            "20",
            "--units",
            "1",
            "--strategy",
            "moderate",
        ]))
        .unwrap();
        assert!(out.contains("19 paths retained"), "{out}");
        assert!(out.contains("(1,8,13,14,16,19,20,21,22,25)"));
    }

    #[test]
    fn faults_lists_assignments() {
        let out = run(&args(&["faults", "s27", "--limit", "3"])).unwrap();
        assert!(out.contains("A(p)"), "{out}");
        assert!(out.contains("detectable"));
    }

    #[test]
    fn analyze_emits_a_reconciled_json_report() {
        let out = run(&args(&["analyze", "s27"])).unwrap();
        let json = Json::parse(&out).unwrap();
        assert_eq!(json.get("circuit").unwrap().as_str(), Some("s27"));
        let paths = json.get("paths").unwrap();
        let class_total = ["false", "robust", "unknown"]
            .iter()
            .map(|k| paths.get(k).unwrap().as_num().unwrap() as u64)
            .sum::<u64>();
        let enumerated = paths.get("enumerated").unwrap().as_num().unwrap() as u64;
        assert_eq!(class_total, enumerated, "{out}");
        // s27 is fully enumerable: the store must match the spectrum DP.
        assert_eq!(paths.get("complete"), Some(&Json::Bool(true)));
        let spectrum = json.get("spectrum").unwrap();
        let dp_total = spectrum.get("complete_paths").unwrap().as_num().unwrap() as u64;
        assert_eq!(enumerated, dp_total, "{out}");
        assert!(json
            .get("testability")
            .unwrap()
            .get("max_difficulty")
            .is_some());
    }

    #[test]
    fn faults_sensitize_adds_the_note_and_off_stays_plain() {
        let off = run(&args(&["faults", "s27", "--limit", "3"])).unwrap();
        assert!(!off.contains("sensitizability:"), "{off}");
        let on = run(&args(&["faults", "s27", "--limit", "3", "--sensitize"])).unwrap();
        assert!(on.contains("sensitizability:"), "{on}");
        // On s27 the classifier proves false exactly the faults rules
        // 1/2 already eliminate (the filter runs first and absorbs
        // them), so the detectable population is unchanged.
        assert!(off.contains("56 candidates -> 50 detectable"), "{off}");
        assert!(on.contains("56 candidates -> 50 detectable"), "{on}");
        assert!(on.contains("6 faults pre-eliminated"), "{on}");
    }

    #[test]
    fn atpg_scoap_is_deterministic_and_reports_the_mode() {
        let cmd = ["atpg", "s27", "--np0", "10", "--scoap", "--seed", "7"];
        let first = run(&args(&cmd)).unwrap();
        let second = run(&args(&cmd)).unwrap();
        assert_eq!(first, second, "guided runs must be deterministic");
        assert!(first.contains("scoap:"), "{first}");
        let body: String = first
            .lines()
            .skip_while(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!pdf_atpg::TestSet::from_text(&body).unwrap().is_empty());
    }

    #[test]
    fn atpg_sensitize_runs_end_to_end() {
        let out = run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--sensitize",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("sensitizability:"), "{out}");
        assert!(out.contains("path-delay-atpg test set v1"), "{out}");
    }

    #[test]
    fn atpg_enrich_emits_tests() {
        let out = run(&args(&[
            "atpg", "s27", "--np0", "10", "--enrich", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("enrichment:"), "{out}");
        assert!(out.contains("path-delay-atpg test set v1"));
        // The emitted text parses back.
        let body: String = out
            .lines()
            .skip_while(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        let set = pdf_atpg::TestSet::from_text(&body).unwrap();
        assert!(!set.is_empty());
    }

    #[test]
    fn atpg_minimize_reports_shrinkage() {
        let out = run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--minimize",
            "--heuristic",
            "uncomp",
        ]))
        .unwrap();
        assert!(out.contains("static minimization:"), "{out}");
    }

    #[test]
    fn atpg_reports_run_control_state() {
        let out = run(&args(&["atpg", "s27", "--np0", "10"])).unwrap();
        assert!(out.contains("budget_exhausted: false"), "{out}");
        assert!(out.contains("faults_quarantined: 0"), "{out}");
    }

    #[test]
    fn atpg_exhausted_budget_finalizes_a_valid_partial_set() {
        // A bare duration and `global=` both set the whole-run budget.
        for budget in ["1us", "global=1us"] {
            let out = run(&args(&[
                "atpg",
                "s27",
                "--np0",
                "10",
                "--time-budget",
                budget,
            ]))
            .unwrap();
            assert!(out.contains("budget_exhausted: true"), "{budget}: {out}");
            // The (possibly empty) partial set still serializes validly.
            let body: String = out
                .lines()
                .skip_while(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n");
            assert!(pdf_atpg::TestSet::from_text(&body).is_ok());
        }
    }

    #[test]
    fn atpg_checkpoint_then_resume_reproduces_the_run() {
        let path = std::env::temp_dir().join(format!("pdf_cli_ckpt_{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        let plain = run(&args(&["atpg", "s27", "--np0", "10", "--seed", "9"])).unwrap();
        let with_ckpt = run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--seed",
            "9",
            "--checkpoint",
            file,
        ]))
        .unwrap();
        assert_eq!(plain, with_ckpt, "checkpointing must not change the run");
        let resumed = run(&args(&[
            "atpg", "s27", "--np0", "10", "--seed", "9", "--resume", file,
        ]))
        .unwrap();
        assert_eq!(plain, resumed, "resuming must reproduce the run");
        let foreign = run(&args(&[
            "atpg", "s27", "--np0", "10", "--seed", "8", "--resume", file,
        ]))
        .unwrap_err();
        assert!(foreign.message.contains("checkpoint"), "{foreign}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_checkpoint_written_at_zero_attempts_resumes_at_one() {
        // The justifier runs `--attempts 0` as 1, so the two runs write
        // the same tests and must pin the same fingerprint.
        let path = std::env::temp_dir().join(format!("pdf_cli_att0_{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        let line = ["atpg", "s27", "--np0", "10", "--seed", "9"];
        let zero = run(&args(
            &[&line[..], &["--attempts", "0", "--checkpoint", file]].concat(),
        ));
        let resumed = run(&args(
            &[&line[..], &["--attempts", "1", "--resume", file]].concat(),
        ));
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed.unwrap(), zero.unwrap());
    }

    #[test]
    fn a_checkpoint_without_the_probe_segment_is_refused() {
        // Checkpoints written before the guided search probed with
        // random completion end their fingerprint at `batch=8`. One
        // written with the same `--attempts` must still not resume into
        // the probing search.
        let path =
            std::env::temp_dir().join(format!("pdf_cli_noprobe_{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        let line = [
            "atpg",
            "s27",
            "--np0",
            "10",
            "--seed",
            "9",
            "--attempts",
            "4",
        ];
        run(&args(&[&line[..], &["--checkpoint", file]].concat())).unwrap();
        let mut checkpoint = Checkpoint::load(&path).unwrap();
        assert_eq!(
            checkpoint.fingerprint,
            "values:regenerate:4:packed:batch=8:probe=4"
        );
        checkpoint.fingerprint = "values:regenerate:4:packed:batch=8".to_owned();
        std::fs::write(&path, checkpoint.to_journal()).unwrap();
        let refused = run(&args(&[&line[..], &["--resume", file]].concat()));
        let _ = std::fs::remove_file(&path);
        let err = refused.unwrap_err();
        assert_eq!(err.code, EXIT_ERROR, "{err}");
        assert_eq!(
            err.message,
            "--resume: checkpoint does not match this run: fingerprint is \
             `values:regenerate:4:packed:batch=8` in the checkpoint but \
             `values:regenerate:4:packed:batch=8:probe=4` here"
        );
    }

    #[test]
    fn a_checkpoint_with_the_old_learned_count_is_refused() {
        // The learned table keys its rows by stem. Checkpoints written
        // while it also stored a copy per fanout branch pin that larger
        // count (464 rows on s27), and must not resume.
        let path =
            std::env::temp_dir().join(format!("pdf_cli_learned_{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        let line = [
            "atpg",
            "s27",
            "--np0",
            "10",
            "--seed",
            "9",
            "--static-learning",
        ];
        run(&args(&[&line[..], &["--checkpoint", file]].concat())).unwrap();
        let mut checkpoint = Checkpoint::load(&path).unwrap();
        let current = checkpoint.fingerprint.clone();
        assert!(current.ends_with(":learned=124"), "{current}");
        let old = current.replace(":learned=124", ":learned=464");
        checkpoint.fingerprint.clone_from(&old);
        std::fs::write(&path, checkpoint.to_journal()).unwrap();
        let refused = run(&args(&[&line[..], &["--resume", file]].concat()));
        let _ = std::fs::remove_file(&path);
        let err = refused.unwrap_err();
        assert_eq!(err.code, EXIT_ERROR, "{err}");
        assert_eq!(
            err.message,
            format!(
                "--resume: checkpoint does not match this run: fingerprint is \
                 `{old}` in the checkpoint but `{current}` here"
            )
        );
    }

    #[test]
    fn resume_of_a_corrupt_checkpoint_exits_with_the_corrupt_code() {
        let path =
            std::env::temp_dir().join(format!("pdf_cli_corrupt_{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--seed",
            "9",
            "--checkpoint",
            file,
        ]))
        .unwrap();
        // Tear the one-record journal, so recovery has no record to
        // fall back to.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let e = run(&args(&[
            "atpg", "s27", "--np0", "10", "--seed", "9", "--resume", file,
        ]))
        .unwrap_err();
        assert_eq!(e.code, EXIT_CORRUPT, "{e}");
        assert!(e.message.contains("--resume"), "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn healing_failpoints_do_not_change_atpg_output() {
        let path = std::env::temp_dir().join(format!("pdf_cli_chaos_{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        let clean = run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--seed",
            "9",
            "--checkpoint",
            file,
        ]))
        .unwrap();
        let clean_bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let chaos = run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--seed",
            "9",
            "--checkpoint",
            file,
            "--failpoints",
            "checkpoint.write:io@1",
        ]));
        pdf_chaos::clear();
        let chaos_bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(chaos.unwrap(), clean, "healed output must be identical");
        assert_eq!(clean_bytes, chaos_bytes, "healed checkpoint must match");
    }

    #[test]
    fn atpg_checkpoint_every_requires_a_checkpoint_file() {
        let e = run(&args(&["atpg", "s27", "--checkpoint-every", "4"])).unwrap_err();
        assert_eq!(e.message, "--checkpoint-every requires --checkpoint");
    }

    #[test]
    fn every_bad_flag_value_reads_as_one_error_shape() {
        for (line, expected) in [
            (
                &["paths", "s27", "--cap", "x"][..],
                "invalid --cap=`x`: expected a non-negative integer",
            ),
            (
                &["paths", "s27", "--units", "99999999999"],
                "invalid --units=`99999999999`: expected a non-negative integer",
            ),
            (
                &["spectrum", "s27", "--top", "-1"],
                "invalid --top=`-1`: expected a non-negative integer",
            ),
            (
                &["faults", "s27", "--limit", "many"],
                "invalid --limit=`many`: expected a non-negative integer",
            ),
            (
                &["faults", "s27", "--threads", "0"],
                "invalid --threads=`0`: expected a positive integer",
            ),
            (
                &["atpg", "s27", "--np0", "1.5"],
                "invalid --np0=`1.5`: expected a non-negative integer",
            ),
            (
                &["atpg", "s27", "--seed", "x"],
                "invalid --seed=`x`: expected a non-negative integer",
            ),
            (
                &["atpg", "s27", "--attempts", "5000000000"],
                "invalid --attempts=`5000000000`: expected a non-negative integer",
            ),
            (
                &["atpg", "s27", "--checkpoint-every", "0"],
                "invalid --checkpoint-every=`0`: expected a positive integer",
            ),
            (
                &["matrix", "--cells", "0"],
                "invalid --cells=`0`: expected a positive integer",
            ),
            (
                &["matrix", "--circuits", ","],
                "invalid --circuits=`,`: expected a comma-separated list of names",
            ),
            (
                &["matrix", "--seeds", "1,x"],
                "invalid --seeds=`1,x`: expected a comma-separated list of integers",
            ),
        ] {
            let e = run(&args(line)).unwrap_err();
            assert_eq!(e.code, EXIT_ERROR, "{line:?}");
            assert_eq!(e.message, expected, "{line:?}");
        }
    }

    #[test]
    fn sim_prints_waveforms() {
        let out = run(&args(&["sim", "s27", "0101010", "1101010"])).unwrap();
        assert!(out.contains("waveform"), "{out}");
        assert!(out.lines().count() > 26);
    }

    #[test]
    fn sim_rejects_wrong_width() {
        let e = run(&args(&["sim", "s27", "01", "10"])).unwrap_err();
        assert!(e.message.contains("7 values"));
    }

    #[test]
    fn dot_and_bench_roundtrip() {
        let dot = run(&args(&["dot", "c17"])).unwrap();
        assert!(dot.starts_with("digraph"));
        let bench = run(&args(&["bench", "b03"])).unwrap();
        let parsed = pdf_netlist::parse_bench(&bench, "b03").unwrap();
        assert!(parsed.gate_count() > 100);
    }

    #[test]
    fn missing_file_reports_error() {
        let e = run(&args(&["info", "/nonexistent/file.bench"])).unwrap_err();
        assert!(e.message.contains("cannot read"));
    }

    #[test]
    fn option_parser_rules() {
        let o = Options::parse(
            &args(&["--cap", "5", "pos", "--enrich"]),
            &["cap"],
            &["enrich"],
        )
        .unwrap();
        assert_eq!(o.value("cap"), Some("5"));
        assert!(o.has("enrich"));
        assert_eq!(o.positionals(), &["pos".to_owned()]);
        assert!(Options::parse(&args(&["--cap"]), &["cap"], &[]).is_err());
        assert!(Options::parse(&args(&["--bogus"]), &["cap"], &[]).is_err());
    }
}
