//! Static path-sensitizability analysis.
//!
//! For every stored path (and each of its two path delay faults) the pass
//! collects the fault's necessary assignment set `A(p)` and decides,
//! without enumerating tests, where the fault sits in a three-way
//! lattice:
//!
//! * **false** ([`PathClass::False`]) — `A(p)` is unsatisfiable: the
//!   requirements conflict outright (rule 1), their implication closure
//!   conflicts (rule 2, sharpened by the learned table when one is
//!   attached), or a depth-1 case split over the cone's primary inputs
//!   refutes both values of some input. Every test of the circuit
//!   assigns each primary input a fully specified value pair, so a
//!   refutation of both slot-2 values is a proof of unsatisfiability —
//!   the verdict is sound, and the exact-search audit re-proves it.
//! * **robust** ([`PathClass::Robust`]) — every line `A(p)` constrains
//!   is a primary input (or a fanout branch of one), so the required
//!   waveforms can be applied directly: a robust two-pattern test exists
//!   by construction.
//! * **unknown** ([`PathClass::Unknown`]) — neither proof applies.
//!
//! False verdicts feed the [`FaultList`](pdf_faults::FaultList)
//! pre-elimination hook ([`SensitizeAnalysis::is_false`]); the same
//! machinery powers the semantic lints ([`lint_semantic`]: statically
//! constant lines, never-sensitizable fanin edges, reconvergence
//! masking) and the `pdfatpg analyze` report.

use pdf_faults::{
    assignments as fault_assignments, trie_order, walk_subtrees, Assignments, FaultKey, Implicator,
    LearnedImplications, PathDelayFault, Polarity, Sensitization,
};
use pdf_logic::{Triple, Value};
use pdf_netlist::{Circuit, LineId, LineKind};
use pdf_paths::{ClassCounts, PathClass, PathStore};

use crate::diagnostic::{codes, Diagnostic};
use crate::lint::LintReport;

/// The number of cone inputs the depth-1 case split tries per fault.
/// Splitting is the expensive part of classification; eight inputs keeps
/// the pass linear in practice while catching the reconvergent conflicts
/// plain implication misses.
const SPLIT_CAP: usize = 8;

/// Counters from one classification pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SensitizeStats {
    /// Paths classified (= store length).
    pub paths: usize,
    /// Paths proven false (both polarities unsensitizable).
    pub false_paths: usize,
    /// Paths proven robustly sensitizable (some polarity).
    pub robust_paths: usize,
    /// Paths with neither proof.
    pub unknown_paths: usize,
    /// Individual faults (path × polarity) proven false.
    pub false_faults: usize,
    /// Faults proven false only by the depth-1 case split — the
    /// elimination power this pass adds beyond rules 1/2 + learning.
    pub split_refuted: usize,
}

/// The result of classifying one path store against one circuit.
#[derive(Clone, Debug)]
pub struct SensitizeAnalysis {
    /// Per-path combined verdict, indexed like the store.
    path_class: Vec<PathClass>,
    /// Per-fault false proofs, indexed by [`FaultKey::slot`].
    fault_false: Vec<bool>,
    /// Pass counters.
    pub stats: SensitizeStats,
}

/// Classifies every path of `store` on one thread: [`classify_threaded`]
/// with `threads = 1`.
#[must_use]
pub fn classify_store(
    circuit: &Circuit,
    store: &PathStore,
    kind: Sensitization,
    learned: Option<&LearnedImplications>,
) -> SensitizeAnalysis {
    classify_threaded(circuit, store, kind, learned, 1)
}

/// Classifies every path of `store`: false / robust / unknown, per the
/// module docs. `learned` sharpens the implication closure exactly as in
/// fault-list elimination.
///
/// Runs on elimination's pooled trie walk ([`walk_subtrees`] over
/// [`trie_order`]), which decides rules 1 and 2, with the robust check
/// and the depth-1 split as the visitor, on up to `threads` workers. The
/// verdicts are the same at every thread count.
///
/// # Panics
///
/// See [`FaultList::build`](pdf_faults::FaultList::build).
#[must_use]
pub fn classify_threaded(
    circuit: &Circuit,
    store: &PathStore,
    kind: Sensitization,
    learned: Option<&LearnedImplications>,
    threads: usize,
) -> SensitizeAnalysis {
    let _phase = pdf_telemetry::Span::enter("sensitize");
    let keys = trie_order(store);
    let (walked, _) = walk_subtrees(
        circuit,
        store,
        kind,
        learned,
        &keys,
        threads,
        |key, closure| {
            // No closure: rule 2 (+ learned closure) conflicts.
            closure.map_or(FaultVerdict::False, |base| {
                classify_closure(circuit, store, key, kind, base)
            })
        },
    );
    let mut verdicts = vec![FaultVerdict::False; 2 * store.len()];
    for (key, verdict) in keys.iter().zip(walked) {
        // No verdict: rule 1 conflicts.
        verdicts[key.slot()] = verdict.unwrap_or(FaultVerdict::False);
    }
    let fault_false: Vec<bool> = verdicts.iter().map(|v| v.is_false()).collect();
    let path_class: Vec<PathClass> = verdicts.chunks_exact(2).map(combine).collect();
    let paths_in = |class| path_class.iter().filter(|&&c| c == class).count();
    let stats = SensitizeStats {
        paths: store.len(),
        false_paths: paths_in(PathClass::False),
        robust_paths: paths_in(PathClass::Robust),
        unknown_paths: paths_in(PathClass::Unknown),
        false_faults: fault_false.iter().filter(|&&f| f).count(),
        split_refuted: verdicts
            .iter()
            .filter(|&&v| v == FaultVerdict::SplitFalse)
            .count(),
    };
    pdf_telemetry::count(
        pdf_telemetry::counters::PATHS_CLASSIFIED,
        stats.paths as u64,
    );
    SensitizeAnalysis {
        path_class,
        fault_false,
        stats,
    }
}

impl SensitizeAnalysis {
    /// The combined verdict for the path at store `index`.
    #[must_use]
    pub fn path_class(&self, index: usize) -> PathClass {
        self.path_class.get(index).copied().unwrap_or_default()
    }

    /// `true` when the fault of the path at `index` with `polarity` is
    /// proven unsensitizable — the predicate
    /// [`FaultList::build_with_filter`](pdf_faults::FaultList::build_with_filter)
    /// consumes.
    #[must_use]
    pub fn is_false(&self, index: usize, polarity: Polarity) -> bool {
        let key = FaultKey { index, polarity };
        self.fault_false.get(key.slot()) == Some(&true)
    }

    /// Writes the per-path verdicts into the store's classification tags.
    pub fn tag_store(&self, store: &mut PathStore) {
        for (index, &class) in self.path_class.iter().enumerate() {
            store.set_class(index, class);
        }
    }

    /// Per-class totals; always sums to the number of classified paths.
    #[must_use]
    pub fn class_counts(&self) -> ClassCounts {
        ClassCounts {
            false_paths: self.stats.false_paths,
            robust: self.stats.robust_paths,
            unknown: self.stats.unknown_paths,
        }
    }
}

/// Per-fault verdict, before combining the two polarities of one path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultVerdict {
    /// Refuted by rule 1 or by the implication closure.
    False,
    /// Refuted only by the depth-1 case split.
    SplitFalse,
    Robust,
    Unknown,
}

impl FaultVerdict {
    fn is_false(self) -> bool {
        matches!(self, FaultVerdict::False | FaultVerdict::SplitFalse)
    }
}

/// Path verdict from the two fault verdicts: a path is false when *no*
/// transition can propagate, robust when *some* polarity provably can.
fn combine(verdicts: &[FaultVerdict]) -> PathClass {
    if verdicts.iter().all(|v| v.is_false()) {
        PathClass::False
    } else if verdicts.iter().any(|v| matches!(v, FaultVerdict::Robust)) {
        PathClass::Robust
    } else {
        PathClass::Unknown
    }
}

/// The verdict of a fault whose `A(p)` passed rules 1 and 2; `base` holds
/// the implication closure of `A(p)` on entry and on return.
fn classify_closure(
    circuit: &Circuit,
    store: &PathStore,
    key: FaultKey,
    kind: Sensitization,
    base: &mut Implicator<'_>,
) -> FaultVerdict {
    let fault = PathDelayFault::new(store.entries()[key.index].path.clone(), key.polarity);
    let a = fault_assignments(circuit, &fault, kind).expect("rule 1 already passed this fault");
    // Robust proof: every constrained line is directly drivable from a
    // primary input, so the requirement waveforms can simply be applied.
    if a.lines().all(|l| input_realizable(circuit, l)) {
        return FaultVerdict::Robust;
    }
    // Depth-1 case split: a cone input that conflicts under both
    // second-pattern values refutes every completion of A(p).
    if split_refutes(circuit, base, &a) {
        return FaultVerdict::SplitFalse;
    }
    FaultVerdict::Unknown
}

/// `true` when `line` is a primary input or a fanout branch of one.
fn input_realizable(circuit: &Circuit, line: LineId) -> bool {
    match circuit.kind(line) {
        LineKind::Input => true,
        LineKind::Branch { stem } => circuit.kind(*stem).is_input(),
        LineKind::Gate(_) => false,
    }
}

/// Tries the depth-1 case split: over up to [`SPLIT_CAP`] primary inputs
/// of the assignment set's fanin cone (in line-id order, skipping inputs
/// whose second-pattern value the base fixpoint already decided), assert
/// 0 and then 1 under the second pattern. If both assertions conflict for
/// some input, no test satisfies `A(p)`.
fn split_refutes(circuit: &Circuit, base: &mut Implicator<'_>, a: &Assignments) -> bool {
    let cone = circuit.fanin_cone(a.lines());
    let mut tried = 0usize;
    for &pi in circuit.inputs().iter().filter(|pi| cone[pi.index()]) {
        if base.value(pi).last().is_specified() {
            continue;
        }
        if tried >= SPLIT_CAP {
            break;
        }
        tried += 1;
        let refuted = [Value::Zero, Value::One].into_iter().all(|v| {
            let mark = base.mark();
            let conflict = base.assign(pi, Triple::new(Value::X, Value::X, v)).is_err()
                || base.propagate().is_err();
            base.undo_to(mark);
            conflict
        });
        if refuted {
            return true;
        }
    }
    false
}

/// A line whose steady-state (second-pattern) value is provably fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstantLine {
    /// The constant line.
    pub line: LineId,
    /// The only value it can settle to.
    pub value: Value,
}

/// Finds every statically constant line: a line whose second-pattern
/// value `v` is implication-refutable is constant at `!v`. Runs one
/// single-assertion implication fixpoint per line and value, so it is
/// linear in practice.
#[must_use]
pub fn constant_lines(circuit: &Circuit) -> Vec<ConstantLine> {
    let mut constants = Vec::new();
    let mut imp = Implicator::new(circuit);
    let unconstrained = imp.mark();
    for &id in circuit.topo_order() {
        // Inputs are free by definition; branches mirror their stems.
        if !matches!(circuit.kind(id), LineKind::Gate(_)) {
            continue;
        }
        for value in [Value::Zero, Value::One] {
            let infeasible = imp
                .assign(id, Triple::new(Value::X, Value::X, value))
                .is_err()
                || imp.propagate().is_err();
            imp.undo_to(unconstrained);
            if infeasible {
                constants.push(ConstantLine {
                    line: id,
                    value: value.negate(),
                });
                break;
            }
        }
    }
    constants
}

/// Semantic lints over a circuit's value behaviour, complementing the
/// structural passes of [`lint_circuit`](crate::lint_circuit), given the
/// circuit's [`constant_lines`]. All findings are warnings — the circuit
/// stays analyzable, but paths through the flagged structure waste
/// generation budget:
///
/// * `PDL008` — statically constant line (one per entry of `constants`);
/// * `PDL009` — never-sensitizable fanin edge: a sibling input is
///   constant at the gate's controlling value, so no transition on this
///   edge ever reaches the gate output;
/// * `PDL010` — reconvergence masking: a gate joins two fanout branches
///   of one stem, so its side inputs can never be set independently.
#[must_use]
pub fn lint_semantic(circuit: &Circuit, constants: &[ConstantLine]) -> LintReport {
    let mut report = LintReport::new();
    let source = circuit.name().to_owned();
    let mut constant_at = vec![None; circuit.line_count()];
    for c in constants {
        constant_at[c.line.index()] = Some(c.value);
        let name = circuit.line(c.line).name().to_owned();
        report.push(Diagnostic::warning(
            codes::CONSTANT,
            &source,
            Some(&name),
            format!(
                "line `{name}` is statically constant at {}; no path through it is testable",
                c.value
            ),
        ));
    }
    for &id in circuit.topo_order() {
        let line = circuit.line(id);
        let LineKind::Gate(kind) = circuit.kind(id) else {
            continue;
        };
        // PDL009: a sibling constant at the controlling value masks every
        // other fanin edge of this gate.
        if let Some(control) = kind.controlling_value() {
            for &f in circuit.fanin(id) {
                let constant = match circuit.kind(f) {
                    LineKind::Branch { stem } => {
                        constant_at[f.index()].or(constant_at[stem.index()])
                    }
                    _ => constant_at[f.index()],
                };
                if constant == Some(control) {
                    let gate = line.name().to_owned();
                    let culprit = circuit.line(f).name().to_owned();
                    report.push(Diagnostic::warning(
                        codes::UNSENSITIZABLE_EDGE,
                        &source,
                        Some(&gate),
                        format!(
                            "no fanin edge of `{gate}` is sensitizable: input `{culprit}` is \
                             constant at the controlling value {control}"
                        ),
                    ));
                    break;
                }
            }
        }
        // PDL010: two direct branches of one stem reconverge here.
        let mut stems: Vec<LineId> = circuit
            .fanin(id)
            .iter()
            .filter_map(|&f| match circuit.kind(f) {
                LineKind::Branch { stem } => Some(*stem),
                _ => None,
            })
            .collect();
        stems.sort_unstable();
        for pair in stems.windows(2) {
            if pair[0] == pair[1] {
                let gate = line.name().to_owned();
                let stem = circuit.line(pair[0]).name().to_owned();
                report.push(Diagnostic::warning(
                    codes::RECONVERGENCE,
                    &source,
                    Some(&gate),
                    format!(
                        "`{gate}` joins two fanout branches of `{stem}`: its side inputs \
                         reconverge and may mask transitions"
                    ),
                ));
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_logic::GateKind;
    use pdf_netlist::iscas::s27;
    use pdf_netlist::CircuitBuilder;
    use pdf_paths::PathEnumerator;

    /// g = AND(a, NOT(a)) is constant 0; h = OR(y, g) keeps the circuit
    /// legal and gives g observable fanout.
    fn constant_gadget() -> Circuit {
        let mut b = CircuitBuilder::new("gadget");
        let a = b.input("a");
        let y = b.input("y");
        let a1 = b.branch("a1", a);
        let a2 = b.branch("a2", a);
        let n = b.gate("n", GateKind::Not, &[a2]);
        let g = b.gate("g", GateKind::And, &[a1, n]);
        let h = b.gate("h", GateKind::Or, &[y, g]);
        b.mark_output(h);
        b.finish().unwrap()
    }

    #[test]
    fn constant_line_is_found() {
        let c = constant_gadget();
        let constants = constant_lines(&c);
        let g = c.find_line("g").unwrap();
        assert!(
            constants
                .iter()
                .any(|cl| cl.line == g && cl.value == Value::Zero),
            "{constants:?}"
        );
    }

    #[test]
    fn semantic_lints_fire_on_the_gadget() {
        let c = constant_gadget();
        let report = lint_semantic(&c, &constant_lines(&c));
        assert!(!report.has_errors(), "semantic findings are warnings");
        let codes_found: Vec<&str> = report.iter().map(|d| d.code).collect();
        assert!(codes_found.contains(&codes::CONSTANT), "{codes_found:?}");
    }

    #[test]
    fn reconvergence_lint_fires_on_direct_branch_join() {
        // g = AND(a1, a2) with both fanins branches of stem a.
        let mut b = CircuitBuilder::new("reconv");
        let a = b.input("a");
        let a1 = b.branch("a1", a);
        let a2 = b.branch("a2", a);
        let g = b.gate("g", GateKind::And, &[a1, a2]);
        b.mark_output(g);
        let c = b.finish().unwrap();
        let report = lint_semantic(&c, &constant_lines(&c));
        assert!(report.iter().any(|d| d.code == codes::RECONVERGENCE));
    }

    #[test]
    fn unsensitizable_edge_lint_fires() {
        // k = AND(x, g) where g is constant 0 (controlling for AND).
        let mut b = CircuitBuilder::new("mask");
        let a = b.input("a");
        let x = b.input("x");
        let a1 = b.branch("a1", a);
        let a2 = b.branch("a2", a);
        let n = b.gate("n", GateKind::Not, &[a2]);
        let g = b.gate("g", GateKind::And, &[a1, n]);
        let k = b.gate("k", GateKind::And, &[x, g]);
        b.mark_output(k);
        let c = b.finish().unwrap();
        let report = lint_semantic(&c, &constant_lines(&c));
        assert!(report.iter().any(|d| d.code == codes::UNSENSITIZABLE_EDGE));
    }

    #[test]
    fn s27_is_semantically_clean_and_classifies_fully() {
        let c = s27();
        assert!(lint_semantic(&c, &constant_lines(&c)).is_clean());
        let store = PathEnumerator::new(&c).with_cap(10_000).enumerate().store;
        let analysis = classify_store(&c, &store, Sensitization::Robust, None);
        assert_eq!(analysis.stats.paths, store.len());
        assert_eq!(analysis.class_counts().total(), store.len());
        // s27 has no false paths: the fault list keeps every candidate
        // that rules 1/2 keep, and classification must agree.
        let (plain, stats) = pdf_faults::FaultList::build_with(&c, &store, Sensitization::Robust);
        let (filtered, fstats) = pdf_faults::FaultList::build_with_filter(
            &c,
            &store,
            Sensitization::Robust,
            None,
            Some(&|i, p| analysis.is_false(i, p)),
        );
        assert_eq!(
            fstats.sensitize_eliminated,
            stats.rule1_conflicts + stats.rule2_conflicts,
            "on s27 the false faults are exactly the rule-eliminated ones"
        );
        assert_eq!(plain.len(), filtered.len());
    }

    #[test]
    fn constant_cone_paths_classify_false() {
        let c = constant_gadget();
        let store = PathEnumerator::new(&c).with_cap(10_000).enumerate().store;
        let analysis = classify_store(&c, &store, Sensitization::Robust, None);
        // Paths through the constant gate g can never launch or
        // propagate a transition: they must be classified false.
        let g = c.find_line("g").unwrap();
        for (i, stored) in store.iter().enumerate() {
            if stored.path.lines().contains(&g) {
                assert_eq!(analysis.path_class(i), PathClass::False, "{}", stored.path);
            }
        }
        let mut store = store;
        analysis.tag_store(&mut store);
        assert_eq!(store.class_counts().false_paths, analysis.stats.false_paths);
    }

    #[test]
    fn single_gate_paths_classify_robust() {
        // z = AND(x, y): both paths constrain only primary inputs, so
        // classification proves them robustly sensitizable.
        let mut b = CircuitBuilder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate("z", GateKind::And, &[x, y]);
        b.mark_output(z);
        let c = b.finish().unwrap();
        let store = PathEnumerator::new(&c).with_cap(100).enumerate().store;
        let analysis = classify_store(&c, &store, Sensitization::Robust, None);
        assert_eq!(analysis.stats.robust_paths, store.len());
        assert_eq!(analysis.stats.false_paths, 0);
    }
}
