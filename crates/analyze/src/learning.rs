//! Static implication learning, run once per circuit.
//!
//! Every outer literal is an antecedent, learned in two rounds:
//!
//! 1. **Direct contrapositives** (SOCRATES-style). For every line `l`,
//!    outer slot `s ∈ {α1, α3}` and value `v ∈ {0, 1}`, assert the single
//!    requirement `l.s = v` on the pass's [`Implicator`], propagate to the
//!    fixpoint, and for every implied literal `m.s' = w` on another line
//!    store the contrapositive `m.s' = ¬w ⇒ l.s = ¬v` in the
//!    [`LearnedImplications`] closure table. The forward direction is not
//!    stored — the implicator rederives it structurally — so round 1
//!    holds exactly the indirect implications the engine's local rules
//!    miss.
//! 2. **Depth-1 branch-and-intersect** (recursive learning, depth one).
//!    Direct propagation is blind to implications that hold for *every*
//!    value of some undecided line but follow from neither value alone —
//!    the signature of reconvergent redundancy. For each unspecified
//!    *frontier* line `f` (a fanin slot of a gate the round-1 fixpoint
//!    already touched), assert `f.s = 0` and `f.s = 1` in turn on top of
//!    the fixpoint, propagate, and undo back to it. Outer literals specified identically
//!    in both branch fixpoints (or in the single consistent branch, when
//!    the other conflicts) hold under the antecedent unconditionally,
//!    because outer components are binary in every completed test. Each
//!    such literal `m.s' = w` that round 1 did not already derive is
//!    stored in *both* directions: `l.s = v ⇒ m.s' = w` and the
//!    contrapositive `m.s' = ¬w ⇒ l.s = ¬v`.
//!
//! The table is keyed by stem at both ends (DESIGN §12). A fanout branch
//! shares its stem's value in the [`Implicator`], so the engine fires the
//! stem's rows whenever a branch is decided, and a fixpoint lists stems
//! only: no row names a fanout branch. Only `α1 = 0` and `α1 = 1` on
//! non-branch lines run the rounds: from the all-`x` engine the `α3` run
//! is the `α1` run with the slot swapped.
//!
//! Soundness rests on two facts:
//!
//! * outer components are binary in every completed two-pattern test, so
//!   `≠ v` really is `= ¬v` and a case split on `f.s` is exhaustive —
//!   which is why mid (`α2`) components, which may legitimately stay `x`
//!   (*may glitch*), are never learned from, into, or split on (see
//!   [`pdf_faults::Literal`]);
//! * the propagation behind every recorded literal is itself sound: every
//!   test satisfying the antecedent satisfies the consequent.
//!
//! When asserting `l.s = v` *conflicts* outright, the literal is
//! unsatisfiable and nothing is learned from it — rule-1/rule-2
//! elimination already kills any fault requiring it.

use pdf_faults::{Implicator, LearnedImplications, Literal};
use pdf_logic::{Triple, Value};
use pdf_netlist::{Circuit, LineId};

/// The cap on depth-1 case splits tried per asserted literal.
///
/// Each split propagates both values, so learning costs at most
/// `2 · (lines − branches) · (1 + 2 · cap)` propagations; this cap keeps
/// the pass around a second on the largest stand-ins while still reaching
/// the frontier lines that guard reconvergent redundancy.
const SPLIT_CAP: usize = 24;

/// Runs the one-off static learning pass, with up to 24 case splits per
/// literal.
///
/// The learned count is reported on the `learned_implications` telemetry
/// counter.
///
/// # Example
///
/// ```
/// use pdf_analyze::learn_implications;
/// use pdf_netlist::iscas::s27;
///
/// let circuit = s27();
/// let table = learn_implications(&circuit);
/// // s27's reconvergent fanout yields indirect implications.
/// assert!(!table.is_empty());
/// ```
#[must_use]
pub fn learn_implications(circuit: &Circuit) -> LearnedImplications {
    learn_implications_with_cap(circuit, SPLIT_CAP)
}

/// Runs the learning pass with an explicit per-literal split cap.
///
/// `split_cap = 0` disables round 2 and yields pure contrapositive
/// learning; only the tests use any cap but [`SPLIT_CAP`].
fn learn_implications_with_cap(circuit: &Circuit, split_cap: usize) -> LearnedImplications {
    let _span = pdf_telemetry::Span::enter("static_learning");
    let mut table = LearnedImplications::new(circuit.line_count());
    let mut imp = Implicator::new(circuit);
    for (id, _) in circuit.iter() {
        if circuit.kind(id).is_branch() {
            continue; // its stem's rows cover it
        }
        for value in [Value::Zero, Value::One] {
            let Some(lessons) = lessons(circuit, &mut imp, Literal::new(id, 0, value), split_cap)
            else {
                continue;
            };
            for slot in [0, 2] {
                lessons.record(Literal::new(id, slot, value), &mut table);
            }
        }
    }
    pdf_telemetry::count(
        pdf_telemetry::counters::LEARNED_IMPLICATIONS,
        table.len() as u64,
    );
    table
}

/// What the fixpoint of asserting one literal on `slot` teaches: its
/// specified outer literals (round 1), and the open ones both case splits
/// of a frontier line agree on (round 2).
struct Lessons {
    slot: usize,
    direct: Vec<Literal>,
    split: Vec<Literal>,
}

impl Lessons {
    /// Stores the pairs of `antecedent`, whose assertion reaches this
    /// fixpoint, mirrored when it sits on the other outer slot.
    /// [`LearnedImplications::add`] drops consequents on its own line.
    fn record(&self, antecedent: Literal, table: &mut LearnedImplications) {
        // Outer slots are 0 and 2, so `^ 2` swaps them.
        let mirror =
            |c: &Literal| Literal::new(c.line, c.slot ^ antecedent.slot ^ self.slot, c.value);
        for c in self.direct.iter().map(mirror) {
            // (l.s = v) ⇒ (m.s' = w), so (m.s' = ¬w) ⇒ (l.s = ¬v).
            table.add(c.negated(), antecedent.negated());
        }
        for c in self.split.iter().map(mirror) {
            // Split-derived implications are invisible to the engine's
            // structural rules, so store both directions.
            table.add(antecedent, c);
            table.add(c.negated(), antecedent.negated());
        }
    }
}

/// Asserts `antecedent` on the pass's engine, propagates, and runs both
/// rounds on the fixpoint. The engine is unconstrained on entry, and
/// again on return.
fn lessons(
    circuit: &Circuit,
    imp: &mut Implicator<'_>,
    antecedent: Literal,
    split_cap: usize,
) -> Option<Lessons> {
    let mark = imp.mark();
    let req = single_component(antecedent.slot, antecedent.value);
    if imp.assign(antecedent.line, req).is_err() || imp.propagate().is_err() {
        // The literal itself is unsatisfiable; nothing to learn — any
        // fault requiring it already dies under rule 2.
        imp.undo_to(mark);
        return None;
    }
    // The fixpoint is specified exactly on the lines changed since the
    // unconstrained mark: only they can carry a consequent.
    let implied = changed_lines(imp, mark);

    // Round 2: depth-1 branch-and-intersect over the frontier. A branch
    // fixpoint differs from the base fixpoint only on the lines the
    // branch changed, so only those are compared.
    let mut split = Vec::new();
    for (line, split_slot) in frontier_splits(circuit, imp, &implied, split_cap) {
        let mut branch = |v: Value| -> Option<Vec<(LineId, Triple)>> {
            let mark = imp.mark();
            let changed = (imp.assign(line, single_component(split_slot, v)).is_ok()
                && imp.propagate().is_ok())
            .then(|| changed_lines(imp, mark));
            imp.undo_to(mark);
            changed
        };
        let merged: Vec<(LineId, Triple)> = match (branch(Value::Zero), branch(Value::One)) {
            // Both values consistent: keep what the branches agree on. A
            // line only one branch changed agrees with the base fixpoint
            // wherever the base is specified, so it adds nothing.
            (Some(f0), Some(f1)) => {
                let mut f1 = f1.into_iter().peekable();
                f0.into_iter()
                    .filter_map(|(m, a)| {
                        while f1.next_if(|&(l, _)| l < m).is_some() {}
                        let (_, b) = f1.next_if(|&(l, _)| l == m)?;
                        let agree = |x: Value, y: Value| if x == y { x } else { Value::X };
                        Some((
                            m,
                            Triple::new(
                                agree(a.first(), b.first()),
                                Value::X,
                                agree(a.last(), b.last()),
                            ),
                        ))
                    })
                    .collect()
            }
            // One value conflicts: the other is forced, its fixpoint holds.
            (Some(f), None) | (None, Some(f)) => f,
            // Both conflict: the antecedent is unsatisfiable after all —
            // leave that to rule-2; record nothing.
            (None, None) => continue,
        };
        // Only record what round 1 could not already see.
        split.extend(
            outer_literals(&merged)
                .filter(|c| !component(imp.value(c.line), c.slot).is_specified()),
        );
    }
    imp.undo_to(mark);
    Some(Lessons {
        slot: antecedent.slot,
        direct: outer_literals(&implied).collect(),
        split,
    })
}

/// The stems changed since `mark`, each once, in id order, with their
/// current values.
fn changed_lines(imp: &Implicator<'_>, mark: usize) -> Vec<(LineId, Triple)> {
    let mut lines: Vec<LineId> = imp.changed_since(mark).collect();
    lines.sort_unstable();
    lines.dedup();
    lines.into_iter().map(|l| (l, imp.value(l))).collect()
}

/// The specified outer components of `lines`, as literals.
fn outer_literals(lines: &[(LineId, Triple)]) -> impl Iterator<Item = Literal> + '_ {
    lines.iter().flat_map(|&(m, t)| {
        [(0usize, t.first()), (2, t.last())]
            .into_iter()
            .filter(|(_, w)| w.is_specified())
            .map(move |(slot, w)| Literal::new(m, slot, w))
    })
}

/// Split candidates: unspecified outer slots of fanins of gates the
/// fixpoint already touched (output or some sibling fanin specified in
/// that slot), in gate-id order. Only gates that are, or read, an
/// `implied` stem can be touched; a stem's readers include the gates it
/// feeds through its fanout branches. Branch lines resolve to their stems
/// so the candidate list is not inflated by equivalent splits.
fn frontier_splits(
    circuit: &Circuit,
    imp: &Implicator<'_>,
    implied: &[(LineId, Triple)],
    cap: usize,
) -> Vec<(LineId, usize)> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    if cap == 0 {
        return out;
    }
    let mut touched: Vec<LineId> = implied
        .iter()
        .flat_map(|&(l, _)| std::iter::once(l).chain(circuit.readers(l).iter().copied()))
        .filter(|&g| circuit.kind(g).is_gate())
        .collect();
    touched.sort_unstable();
    touched.dedup();
    for id in touched {
        for slot in [0usize, 2] {
            let out_spec = component(imp.value(id), slot).is_specified();
            let any_in_spec = circuit
                .fanin(id)
                .iter()
                .any(|&f| component(imp.value(f), slot).is_specified());
            if !out_spec && !any_in_spec {
                continue;
            }
            for &f in circuit.fanin(id) {
                if component(imp.value(f), slot).is_specified() {
                    continue;
                }
                let stem = circuit.stem_of(f);
                if seen.insert((stem, slot)) {
                    out.push((stem, slot));
                    if out.len() >= cap {
                        return out;
                    }
                }
            }
        }
    }
    out
}

/// Reads one outer component of a triple.
fn component(t: Triple, slot: usize) -> Value {
    match slot {
        0 => t.first(),
        2 => t.last(),
        other => unreachable!("learning never reads slot {other}"),
    }
}

/// Builds a triple that is `value` in `slot` and unconstrained elsewhere.
fn single_component(slot: usize, value: Value) -> Triple {
    match slot {
        0 => Triple::new(value, Value::X, Value::X),
        2 => Triple::new(Value::X, Value::X, value),
        other => unreachable!("learning never asserts slot {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_logic::GateKind;
    use pdf_netlist::{CircuitBuilder, SynthProfile};
    use proptest::prelude::*;

    /// The per-literal learner the pass replaces: every non-branch line,
    /// both outer slots and both values run their own fixpoint. The pass
    /// must store exactly its table.
    fn learn_per_literal(circuit: &Circuit, split_cap: usize) -> LearnedImplications {
        let mut table = LearnedImplications::new(circuit.line_count());
        let mut imp = Implicator::new(circuit);
        for (id, _) in circuit.iter() {
            if circuit.kind(id).is_branch() {
                continue;
            }
            for slot in [0usize, 2] {
                for value in [Value::Zero, Value::One] {
                    let antecedent = Literal::new(id, slot, value);
                    if let Some(lessons) = lessons(circuit, &mut imp, antecedent, split_cap) {
                        lessons.record(antecedent, &mut table);
                    }
                }
            }
        }
        table
    }

    fn assert_matches_oracle(circuit: &Circuit) {
        let oracle = learn_per_literal(circuit, SPLIT_CAP);
        let table = learn_implications(circuit);
        assert_eq!(table.len(), oracle.len(), "{}", circuit.name());
        assert!(
            table.iter().eq(oracle.iter()),
            "{}: learned table differs from the per-literal oracle",
            circuit.name()
        );
    }

    /// The reconvergent redundancy the gadget of
    /// `SynthProfile::with_redundant_gadgets` builds: `z ≡ a` through a
    /// select `s` that direct propagation cannot resolve. Returns the
    /// circuit with `a` and `z`.
    fn mux_buffer() -> (Circuit, LineId, LineId) {
        let mut b = CircuitBuilder::new("mux-buffer");
        let s = b.input("s");
        let a = b.input("a");
        let s1 = b.branch("s1", s);
        let s2 = b.branch("s2", s);
        let s3 = b.branch("s3", s);
        let a1 = b.branch("a1", a);
        let a2 = b.branch("a2", a);
        let ns = b.gate("ns", GateKind::Not, &[s2]);
        let ns1 = b.branch("ns1", ns);
        let ns2 = b.branch("ns2", ns);
        let u = b.gate("u", GateKind::And, &[s3, ns1]);
        let u1 = b.branch("u1", u);
        let u2 = b.branch("u2", u);
        let o1 = b.gate("o1", GateKind::Or, &[s1, u1, a1]);
        let o2 = b.gate("o2", GateKind::Or, &[ns2, u2, a2]);
        let z = b.gate("z", GateKind::And, &[o1, o2]);
        b.mark_output(z);
        (b.finish().unwrap(), a, z)
    }

    /// z = AND(x, y): x.α1 = 0 forces z.α1 = 0, so the table must hold
    /// the contrapositive z.α1 = 1 ⇒ x.α1 = 1 (and the y twin).
    #[test]
    fn and_gate_learns_contrapositives() {
        let mut b = CircuitBuilder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate("z", GateKind::And, &[x, y]);
        b.mark_output(z);
        let c = b.finish().unwrap();

        let table = learn_implications(&c);
        let from_z1: Vec<Literal> = table.consequents(Literal::new(z, 0, Value::One)).collect();
        assert!(from_z1.contains(&Literal::new(x, 0, Value::One)));
        assert!(from_z1.contains(&Literal::new(y, 0, Value::One)));
    }

    /// Only the branch-and-intersect round learns the gadget's
    /// `a = 0 ⇒ z = 0`.
    #[test]
    fn branch_and_intersect_sees_through_reconvergence() {
        let (c, a, z) = mux_buffer();

        // Direct propagation stalls: {a = 0, z = 1} reaches a fixpoint.
        let mut plain = Implicator::new(&c);
        plain.assign(a, single_component(0, Value::Zero)).unwrap();
        plain.assign(z, single_component(0, Value::One)).unwrap();
        assert!(plain.propagate().is_ok(), "plain propagation must stall");

        // Pure contrapositive learning is equally blind.
        let shallow = learn_implications_with_cap(&c, 0);
        let mut imp = Implicator::new(&c).with_learned(&shallow);
        imp.assign(a, single_component(0, Value::Zero)).unwrap();
        imp.assign(z, single_component(0, Value::One)).unwrap();
        assert!(imp.propagate().is_ok());

        // Depth-1 branch-and-intersect proves z ≡ a.
        let table = learn_implications(&c);
        let learned: Vec<Literal> = table.consequents(Literal::new(a, 0, Value::Zero)).collect();
        assert!(learned.contains(&Literal::new(z, 0, Value::Zero)));
        let mut imp = Implicator::new(&c).with_learned(&table);
        imp.assign(a, single_component(0, Value::Zero)).unwrap();
        let conflicted = imp
            .assign(z, single_component(0, Value::One))
            .and_then(|()| imp.propagate());
        assert!(
            conflicted.is_err(),
            "learned table must expose the conflict"
        );
    }

    /// The slot mirror copies lessons instead of re-deriving them, so the
    /// table equals the per-literal learner's pair for pair, with and
    /// without round 2.
    #[test]
    fn table_matches_the_per_literal_oracle() {
        let b03r = pdf_netlist::circuit_by_name("b03+r").expect("stand-in");
        for c in [
            pdf_netlist::iscas::s27(),
            pdf_netlist::iscas::c17(),
            mux_buffer().0,
            b03r,
        ] {
            assert_matches_oracle(&c);
        }
        let c = pdf_netlist::iscas::s27();
        assert!(learn_implications_with_cap(&c, 0)
            .iter()
            .eq(learn_per_literal(&c, 0).iter()));
    }

    /// Asserts that no row of `circuit`'s table names a fanout branch, at
    /// either end.
    fn assert_stems_only(circuit: &Circuit, table: &LearnedImplications) {
        let branch = |l: Literal| circuit.kind(l.line).is_branch();
        assert!(
            !table.iter().any(|(a, c)| branch(a) || branch(c)),
            "{}: a learned row names a fanout branch",
            circuit.name()
        );
    }

    /// The table sizes. A round-2 frontier that misses the gates reading
    /// a stem through its fanout branches learns fewer rows, and the
    /// per-literal oracle shares that frontier, so only a pin catches it.
    #[test]
    fn table_sizes_are_pinned() {
        for (name, pinned) in [("s27", 124), ("b03+r", 8_844), ("b09", 12_028)] {
            let circuit = pdf_netlist::circuit_by_name(name).expect("known circuit");
            let table = learn_implications(&circuit);
            assert_eq!(table.len(), pinned, "{name}");
            assert_stems_only(&circuit, &table);
        }
        let (c, ..) = mux_buffer();
        assert_stems_only(&c, &learn_implications(&c));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The oracle equality on random circuits with redundancy gadgets
        /// and decomposed parity, the shapes where round 2 fires.
        #[test]
        fn table_matches_the_oracle_on_random_circuits(
            seed in 0u64..1_000_000,
            inputs in 3usize..=8,
            gates in 6usize..=32,
            levels in 2usize..=5,
            gadgets in 0usize..=2,
        ) {
            let netlist = SynthProfile::new("prop", seed)
                .with_inputs(inputs)
                .with_gates(gates)
                .with_levels(levels)
                .with_redundant_gadgets(gadgets)
                .generate()
                .combinational_core()
                .decompose_parity();
            let Ok(circuit) = netlist.to_circuit() else {
                prop_assume!(false);
                unreachable!()
            };
            let table = learn_implications(&circuit);
            let oracle = learn_per_literal(&circuit, SPLIT_CAP);
            prop_assert!(table.iter().eq(oracle.iter()));
        }
    }

    /// Every learned implication must be consistent with the plain
    /// implicator: assume the antecedent, propagate, and the consequent
    /// may not be refutable. Pairs come grouped by antecedent, so one
    /// engine holds each antecedent's fixpoint under a mark.
    fn assert_pairs_consistent(c: &Circuit) {
        let table = learn_implications(c);
        assert!(!table.is_empty());
        let mut imp = Implicator::new(c);
        let unconstrained = imp.mark();
        let mut current = None;
        let mut satisfiable = false;
        for (ante, cons) in table.iter() {
            if current != Some(ante) {
                imp.undo_to(unconstrained);
                current = Some(ante);
                satisfiable = imp
                    .assign(ante.line, single_component(ante.slot, ante.value))
                    .and_then(|()| imp.propagate())
                    .is_ok();
            }
            if !satisfiable {
                continue; // antecedent unsatisfiable: implication vacuous
            }
            // Adding the consequent on top must not conflict.
            let mark = imp.mark();
            let ok = imp
                .assign(cons.line, single_component(cons.slot, cons.value))
                .and_then(|()| imp.propagate());
            assert!(
                ok.is_ok(),
                "{}: learned {ante:?} => {cons:?} contradicts direct propagation",
                c.name()
            );
            imp.undo_to(mark);
        }
    }

    #[test]
    fn learned_pairs_are_consistent_with_propagation() {
        assert_pairs_consistent(&pdf_netlist::iscas::s27());
        assert_pairs_consistent(&pdf_netlist::circuit_by_name("b03+r").expect("stand-in"));
    }

    /// Attaching the table may only tighten: anything provable without it
    /// stays provable, and the implicator with the table finds at least
    /// as many conflicts.
    fn assert_table_strengthens(c: &Circuit) {
        let table = learn_implications(c);
        let mut plain = Implicator::new(c);
        let mut learned = Implicator::new(c).with_learned(&table);
        let (plain_mark, learned_mark) = (plain.mark(), learned.mark());
        for (id, _) in c.iter() {
            for slot in [0usize, 2] {
                for value in [Value::Zero, Value::One] {
                    let req = single_component(slot, value);
                    let plain_ok = plain
                        .assign(id, req)
                        .and_then(|()| plain.propagate())
                        .is_ok();
                    plain.undo_to(plain_mark);
                    let learned_ok = learned
                        .assign(id, req)
                        .and_then(|()| learned.propagate())
                        .is_ok();
                    learned.undo_to(learned_mark);
                    // learned may fail where plain succeeds, never the
                    // reverse.
                    assert!(plain_ok || !learned_ok, "{}: {id:?} = {req}", c.name());
                }
            }
        }
    }

    #[test]
    fn table_strengthens_the_implicator() {
        assert_table_strengthens(&pdf_netlist::iscas::s27());
        assert_table_strengthens(&pdf_netlist::circuit_by_name("b03+r").expect("stand-in"));
    }

    #[test]
    fn single_component_shapes() {
        assert_eq!(single_component(0, Value::Zero).to_string(), "0xx");
        assert_eq!(single_component(2, Value::One).to_string(), "xx1");
    }
}
