//! Structural netlist linting.
//!
//! Two passes, run at the two representation levels:
//!
//! * [`lint_netlist`] inspects a parsed [`Netlist`] for defects the
//!   builder's validation does not reject — dead gates, unused inputs,
//!   width-0 output cones — and re-derives cycle membership with *named*
//!   signals when topological ordering fails on a transformed netlist.
//! * [`lint_circuit`] inspects the expanded line-level [`Circuit`] for
//!   duplicate line names and degenerate fanout branching.
//!
//! Error-severity findings are conditions that would make downstream path
//! or fault analysis fail or silently lie; warnings are legal but
//! suspicious structure. [`LintMode`] (from `PDF_LINT`) decides whether
//! errors abort, print, or stay silent.

use std::collections::HashMap;

use pdf_netlist::{Circuit, Driver, LineKind, Netlist};

use crate::diagnostic::{codes, Diagnostic};

/// What to do with lint findings, from the `PDF_LINT` variable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LintMode {
    /// Report everything; error-severity findings abort the run (default).
    #[default]
    Deny,
    /// Report everything to stderr; never abort.
    Warn,
    /// Skip linting entirely.
    Off,
}

impl LintMode {
    /// Reads `PDF_LINT` (`deny` | `warn` | `off`, default `deny`).
    ///
    /// # Errors
    ///
    /// A [`pdf_knobs::KnobError`] on any other value — a misspelled mode
    /// silently downgrading to the default would defeat the gate's
    /// purpose.
    pub fn from_env() -> Result<LintMode, pdf_knobs::KnobError> {
        let mode = pdf_knobs::LINT.text()?.map(|m| m.to_ascii_lowercase());
        Ok(match mode.as_deref() {
            Some("warn") => LintMode::Warn,
            Some("off") => LintMode::Off,
            _ => LintMode::Deny,
        })
    }
}

/// The findings of one lint pass (or several, via [`LintReport::extend`]).
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, errors first, in detection order within a severity.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Iterates over the findings.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Returns `true` when at least one finding is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Returns `true` when nothing was found at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints a parsed netlist. See the module docs for the checks performed.
#[must_use]
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    let mut report = LintReport::new();
    let source = netlist.name().to_owned();

    // Signal universe: every id mentioned by inputs, outputs, gates, dffs.
    let mut max_sig = 0usize;
    let mut note = |i: usize| max_sig = max_sig.max(i + 1);
    for &s in netlist.inputs().iter().chain(netlist.outputs()) {
        note(s.index());
    }
    for g in netlist.gates() {
        note(g.output.index());
        for &i in &g.inputs {
            note(i.index());
        }
    }
    for d in netlist.dffs() {
        note(d.d.index());
        note(d.q.index());
    }

    // Reader counts: how many gate inputs / DFF data pins / primary
    // outputs consume each signal.
    let mut readers = vec![0usize; max_sig];
    for g in netlist.gates() {
        for &i in &g.inputs {
            readers[i.index()] += 1;
        }
    }
    for d in netlist.dffs() {
        readers[d.d.index()] += 1;
    }
    for &o in netlist.outputs() {
        readers[o.index()] += 1;
    }

    // PDL001: combinational cycle, with the member gates named. The
    // builder already rejects cycles at parse time; this re-check guards
    // netlists produced by transformations, and upgrades the message with
    // signal names when it does fire.
    if netlist.gate_topo_order().is_err() {
        let cyclic = cyclic_gate_outputs(netlist);
        report.push(Diagnostic::error(
            codes::CYCLE,
            &source,
            cyclic.first().map(String::as_str),
            format!(
                "gates form a combinational cycle through {}",
                format_names(&cyclic)
            ),
        ));
    }

    // PDL002: a declared primary input nothing reads. The line-level
    // expansion would reject it as a context-free `Dangling`; name it now.
    for &input in netlist.inputs() {
        if readers[input.index()] == 0 {
            let name = netlist.signal_name(input);
            report.push(Diagnostic::error(
                codes::FLOATING,
                &source,
                Some(name),
                format!("primary input `{name}` is never used"),
            ));
        }
    }

    // PDL004: dead logic — a gate whose output nothing consumes.
    for gate in netlist.gates() {
        if readers[gate.output.index()] == 0 {
            let name = netlist.signal_name(gate.output);
            report.push(Diagnostic::error(
                codes::UNREACHABLE,
                &source,
                Some(name),
                format!("gate `{name}` drives no output, gate, or flip-flop"),
            ));
        }
    }

    // PDL006: width-0 cone — an output whose transitive fanin contains no
    // primary input (fed entirely by flip-flops). Legal, but a path-delay
    // target population over it is empty.
    for &output in netlist.outputs() {
        if !cone_reaches_primary_input(netlist, output) {
            let name = netlist.signal_name(output);
            report.push(Diagnostic::warning(
                codes::EMPTY_CONE,
                &source,
                Some(name),
                format!("output `{name}` depends on no primary input (width-0 cone)"),
            ));
        }
    }

    count_lint_errors(&report);
    report
}

/// Lints an expanded line-level circuit.
#[must_use]
pub fn lint_circuit(circuit: &Circuit) -> LintReport {
    let mut report = LintReport::new();
    let source = circuit.name().to_owned();

    // PDL005: duplicate line names. `CircuitBuilder` never checks this,
    // and every by-name lookup (CLI specs, fault reports) silently
    // resolves to the first match.
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for (_, line) in circuit.iter() {
        *seen.entry(line.name()).or_insert(0) += 1;
    }
    let mut duplicates: Vec<(&str, usize)> = seen.into_iter().filter(|&(_, n)| n > 1).collect();
    duplicates.sort_unstable();
    for (name, n) in duplicates {
        report.push(Diagnostic::warning(
            codes::DUPLICATE,
            &source,
            Some(name),
            format!("{n} lines share the name `{name}`; by-name lookups are ambiguous"),
        ));
    }

    // PDL003: a stem fanning out through exactly one branch. Valid, but
    // the branch is redundant indirection and usually a generator bug —
    // it silently doubles the stem's contribution to path delays.
    for (id, _) in circuit.iter() {
        if let LineKind::Branch { stem } = circuit.kind(id) {
            let stem_line = circuit.line(*stem);
            if circuit.fanout(*stem).len() == 1 {
                let name = stem_line.name();
                report.push(Diagnostic::warning(
                    codes::BRANCH,
                    &source,
                    Some(name),
                    format!("stem `{name}` fans out through a single redundant branch"),
                ));
            }
        }
    }

    count_lint_errors(&report);
    report
}

fn count_lint_errors(report: &LintReport) {
    pdf_telemetry::count(
        pdf_telemetry::counters::LINT_ERRORS,
        report.error_count() as u64,
    );
}

/// Names of gate outputs that sit on (or feed only) a combinational
/// cycle: the gates a Kahn peel never reaches.
fn cyclic_gate_outputs(netlist: &Netlist) -> Vec<String> {
    let n = netlist.gate_count();
    let gates = netlist.gates();
    let mut indeg = vec![0usize; n];
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, gate) in gates.iter().enumerate() {
        for &inp in &gate.inputs {
            if let Driver::Gate(src) = netlist.driver(inp) {
                indeg[gi] += 1;
                users[src].push(gi);
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&g| indeg[g] == 0).collect();
    let mut head = 0;
    let mut peeled = vec![false; n];
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        peeled[g] = true;
        for &u in &users[g] {
            indeg[u] -= 1;
            if indeg[u] == 0 {
                queue.push(u);
            }
        }
    }
    let mut names: Vec<String> = (0..n)
        .filter(|&g| !peeled[g])
        .map(|g| netlist.signal_name(gates[g].output).to_owned())
        .collect();
    names.sort_unstable();
    names
}

fn format_names(names: &[String]) -> String {
    const SHOWN: usize = 5;
    if names.is_empty() {
        return "(unnamed)".to_owned();
    }
    let mut s = names
        .iter()
        .take(SHOWN)
        .map(|n| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(", ");
    if names.len() > SHOWN {
        s.push_str(&format!(" and {} more", names.len() - SHOWN));
    }
    s
}

/// Depth-first walk from `output` back towards primary inputs; `true` as
/// soon as one is reached. Flip-flop outputs terminate the walk without
/// counting as inputs.
fn cone_reaches_primary_input(netlist: &Netlist, output: pdf_netlist::SignalId) -> bool {
    let mut stack = vec![output];
    let mut visited = std::collections::HashSet::new();
    while let Some(sig) = stack.pop() {
        if !visited.insert(sig) {
            continue;
        }
        match netlist.driver(sig) {
            Driver::Input => return true,
            Driver::Gate(g) => stack.extend(netlist.gates()[g].inputs.iter().copied()),
            Driver::Dff(_) | Driver::Undriven => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_logic::GateKind;
    use pdf_netlist::{CircuitBuilder, NetlistBuilder};

    fn clean_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("clean");
        b.input("a").input("b").output("z");
        b.gate(GateKind::And, "m", &["a", "b"]);
        b.gate(GateKind::Not, "z", &["m"]);
        b.finish().unwrap()
    }

    #[test]
    fn clean_netlist_lints_clean() {
        assert!(lint_netlist(&clean_netlist()).is_clean());
    }

    #[test]
    fn iscas_benchmarks_lint_clean() {
        for netlist in [
            pdf_netlist::parse_bench(pdf_netlist::iscas::S27_BENCH, "s27").unwrap(),
            pdf_netlist::parse_bench(pdf_netlist::iscas::C17_BENCH, "c17").unwrap(),
        ] {
            let core = netlist.combinational_core();
            let report = lint_netlist(&core);
            assert!(!report.has_errors(), "{:?}", report.diagnostics());
            let circuit = core.decompose_parity().to_circuit().unwrap();
            assert!(!lint_circuit(&circuit).has_errors());
        }
    }

    #[test]
    fn unused_input_is_a_floating_error() {
        let mut b = NetlistBuilder::new("u");
        b.input("a").input("ghost").output("z");
        b.gate(GateKind::Not, "z", &["a"]);
        let report = lint_netlist(&b.finish().unwrap());
        assert!(report.has_errors());
        let d = &report.diagnostics()[0];
        assert_eq!(d.code, codes::FLOATING);
        assert_eq!(d.line.as_deref(), Some("ghost"));
        assert!(d.to_string().contains("u:ghost"));
    }

    #[test]
    fn dead_gate_is_an_unreachable_error() {
        let mut b = NetlistBuilder::new("d");
        b.input("a").output("z");
        b.gate(GateKind::Not, "z", &["a"]);
        b.gate(GateKind::Not, "dead", &["a"]);
        let report = lint_netlist(&b.finish().unwrap());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics()[0].code, codes::UNREACHABLE);
        assert_eq!(report.diagnostics()[0].line.as_deref(), Some("dead"));
    }

    #[test]
    fn dff_only_cone_is_a_width0_warning() {
        // z is fed only through the flip-flop: no primary input in its cone.
        let mut b = NetlistBuilder::new("w");
        b.input("a").output("z");
        b.gate(GateKind::Not, "z", &["q"]);
        b.gate(GateKind::Buf, "d", &["a"]);
        b.dff("q", "d");
        let report = lint_netlist(&b.finish().unwrap());
        assert!(!report.has_errors());
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.diagnostics()[0].code, codes::EMPTY_CONE);
        assert_eq!(report.diagnostics()[0].line.as_deref(), Some("z"));
    }

    #[test]
    fn duplicate_line_names_warn() {
        let mut b = CircuitBuilder::new("dup");
        let x = b.input("n");
        let y = b.input("n");
        let g = b.gate("g", GateKind::And, &[x, y]);
        b.mark_output(g);
        let report = lint_circuit(&b.finish().unwrap());
        assert!(!report.has_errors());
        assert_eq!(report.diagnostics()[0].code, codes::DUPLICATE);
        assert_eq!(report.diagnostics()[0].line.as_deref(), Some("n"));
    }

    #[test]
    fn single_branch_stem_warns() {
        let mut b = CircuitBuilder::new("sb");
        let x = b.input("x");
        let x1 = b.branch("x1", x);
        let g = b.gate("g", GateKind::Not, &[x1]);
        b.mark_output(g);
        let report = lint_circuit(&b.finish().unwrap());
        assert!(!report.has_errors());
        assert_eq!(report.diagnostics()[0].code, codes::BRANCH);
        assert_eq!(report.diagnostics()[0].line.as_deref(), Some("x"));
    }

    #[test]
    fn lint_mode_default_is_deny() {
        // No env manipulation (tests run in parallel): just the default.
        assert_eq!(LintMode::default(), LintMode::Deny);
    }
}
