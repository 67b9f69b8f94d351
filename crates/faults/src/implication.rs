//! Three-valued implication over two-pattern waveforms.
//!
//! Given a set of line requirements, the [`Implicator`] derives every value
//! they force elsewhere in the circuit — forwards through gate evaluation,
//! backwards through controlling-value reasoning, and across fanout
//! branches in both directions. A contradiction proves the requirements
//! unsatisfiable; this is the paper's rule 2 for eliminating undetectable
//! faults from `P` ("we find the implications of the values in `A(p)`; if
//! the implication process assigns conflicting values to a line `g`, `p`
//! is undetectable").
//!
//! The three components of a waveform triple propagate almost
//! independently (gate evaluation is component-wise); the engine adds two
//! cross-component rules that hold for every waveform reachable from a
//! two-pattern input pair:
//!
//! * a specified intermediate value implies the line is stable:
//!   `α2 = v ⇒ α1 = v ∧ α3 = v`;
//! * a primary input that holds one specified value under both patterns
//!   cannot glitch: `α1 = α3 = v ⇒ α2 = v` (at primary inputs only).
//!
//! The engine is incremental: every value change is recorded on a trail,
//! so a caller can [`mark`](Implicator::mark) a state, assert more
//! requirements, and [`undo_to`](Implicator::undo_to) the mark instead of
//! rebuilding the engine. The rules are monotone narrowing operators, so
//! asserting `b` on top of the fixpoint of `a` conflicts exactly when
//! asserting `a ∪ b` from scratch does.

use core::fmt;

use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{Circuit, LineId, LineKind};

use crate::learned::Literal;
use crate::{Assignments, LearnedImplications};

/// Error: the implications assigned two different values to one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImplicationConflict {
    /// The line on which the contradiction surfaced.
    pub line: LineId,
}

impl fmt::Display for ImplicationConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "implications conflict on line {}", self.line)
    }
}

impl std::error::Error for ImplicationConflict {}

/// The implication engine.
///
/// # Example
///
/// ```
/// use pdf_faults::Implicator;
/// use pdf_logic::Triple;
/// use pdf_netlist::{CircuitBuilder, LineId};
/// use pdf_logic::GateKind;
///
/// let mut b = CircuitBuilder::new("and2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let g = b.gate("g", GateKind::And, &[x, y]);
/// b.mark_output(g);
/// let circuit = b.finish()?;
///
/// let mut imp = Implicator::new(&circuit);
/// // Demanding a stable 1 at an AND output forces both inputs to 1.
/// imp.assign(g, Triple::STABLE1)?;
/// imp.propagate()?;
/// assert_eq!(imp.value(x), Triple::STABLE1);
/// assert_eq!(imp.value(y), Triple::STABLE1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Implicator<'c> {
    circuit: &'c Circuit,
    values: Vec<Triple>,
    queue: std::collections::VecDeque<LineId>,
    queued: Vec<bool>,
    learned: Option<&'c LearnedImplications>,
    /// Every value change as `(line, value before the change)`, oldest
    /// first: [`Implicator::undo_to`] replays it backwards.
    trail: Vec<(LineId, Triple)>,
}

impl<'c> Implicator<'c> {
    /// Creates an engine with every line unconstrained.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> Implicator<'c> {
        Implicator {
            circuit,
            values: vec![Triple::UNKNOWN; circuit.line_count()],
            queue: std::collections::VecDeque::new(),
            queued: vec![false; circuit.line_count()],
            learned: None,
            trail: Vec::new(),
        }
    }

    /// Attaches a statically learned closure table: whenever a line's
    /// outer component becomes specified, the table's consequents are
    /// applied as an extra implication rule.
    #[must_use]
    pub fn with_learned(mut self, learned: &'c LearnedImplications) -> Implicator<'c> {
        self.learned = Some(learned);
        self
    }

    /// Creates an engine seeded with a requirement set and runs the
    /// implications.
    ///
    /// # Errors
    ///
    /// Returns [`ImplicationConflict`] if the requirements are
    /// contradictory — i.e. the corresponding fault is undetectable.
    pub fn from_assignments(
        circuit: &'c Circuit,
        assignments: &Assignments,
    ) -> Result<Implicator<'c>, ImplicationConflict> {
        Implicator::from_assignments_with(circuit, assignments, None)
    }

    /// Like [`Implicator::from_assignments`], additionally consulting a
    /// learned closure table when one is supplied.
    ///
    /// # Errors
    ///
    /// Returns [`ImplicationConflict`] if the requirements are
    /// contradictory.
    pub fn from_assignments_with(
        circuit: &'c Circuit,
        assignments: &Assignments,
        learned: Option<&'c LearnedImplications>,
    ) -> Result<Implicator<'c>, ImplicationConflict> {
        let mut imp = Implicator::new(circuit);
        imp.learned = learned;
        imp.assert_all(assignments)?;
        Ok(imp)
    }

    /// Asserts every requirement of `assignments` and runs the
    /// implications to the fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ImplicationConflict`] if the requirements contradict each
    /// other or the current state; [`Implicator::undo_to`] a mark taken
    /// before the call restores the engine.
    pub fn assert_all(&mut self, assignments: &Assignments) -> Result<(), ImplicationConflict> {
        for (line, req) in assignments.iter() {
            self.assign(line, req)?;
        }
        self.propagate()
    }

    /// The current trail position, to hand back to
    /// [`Implicator::undo_to`].
    #[inline]
    #[must_use]
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// The lines whose value changed since `mark` was taken, oldest
    /// change first. A line narrowed more than once appears once per
    /// change.
    pub fn changed_since(&self, mark: usize) -> impl Iterator<Item = LineId> + '_ {
        self.trail[mark..].iter().map(|&(line, _)| line)
    }

    /// Restores every line value to what it was when `mark` was taken and
    /// empties the propagation queue. Valid after a conflict, and after a
    /// panic caught mid-assert or mid-propagation: the trail records each
    /// change before the next can happen.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the current trail: a stale mark, taken
    /// before an undo to an earlier one.
    pub fn undo_to(&mut self, mark: usize) {
        for (line, old) in self.trail.drain(mark..).rev() {
            self.values[line.index()] = old;
        }
        for line in self.queue.drain(..) {
            self.queued[line.index()] = false;
        }
    }

    /// The current value of a line (`x` components where nothing is
    /// implied yet).
    #[inline]
    #[must_use]
    pub fn value(&self, line: LineId) -> Triple {
        self.values[line.index()]
    }

    /// All line values, indexed by [`LineId::index`].
    #[inline]
    #[must_use]
    pub fn values(&self) -> &[Triple] {
        &self.values
    }

    /// Constrains `line` to `req` (intersected with its current value) and
    /// queues the affected neighbourhood. Call [`Implicator::propagate`]
    /// to reach the fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ImplicationConflict`] if `req` contradicts the line's
    /// current value.
    pub fn assign(&mut self, line: LineId, req: Triple) -> Result<(), ImplicationConflict> {
        let current = self.values[line.index()];
        let Some(merged) = current.intersect(req) else {
            return Err(ImplicationConflict { line });
        };
        if merged != current {
            self.set(line, merged);
        }
        Ok(())
    }

    /// Writes a changed value through the trail and queues its
    /// neighbourhood.
    fn set(&mut self, line: LineId, value: Triple) {
        self.trail.push((line, self.values[line.index()]));
        self.values[line.index()] = value;
        self.touch(line);
    }

    fn touch(&mut self, line: LineId) {
        // The line's own node (for backward rules and the stability rule),
        // plus every sink node (forward rules).
        self.enqueue(line);
        for &f in self.circuit.fanout(line) {
            self.enqueue(f);
        }
        for &f in self.circuit.fanin(line) {
            self.enqueue(f);
        }
    }

    fn enqueue(&mut self, line: LineId) {
        if !self.queued[line.index()] {
            self.queued[line.index()] = true;
            self.queue.push_back(line);
        }
    }

    /// Runs implications to the fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ImplicationConflict`] on contradiction. The state is then
    /// partially updated; [`Implicator::undo_to`] a mark taken before the
    /// contradicting assertions restores it, and the engine is reusable.
    pub fn propagate(&mut self) -> Result<(), ImplicationConflict> {
        while let Some(line) = self.queue.pop_front() {
            self.queued[line.index()] = false;
            self.process(line)?;
        }
        Ok(())
    }

    /// Applies all rules centred on `line`.
    fn process(&mut self, line: LineId) -> Result<(), ImplicationConflict> {
        self.stability_rules(line)?;
        self.learned_rules(line)?;
        match self.circuit.kind(line) {
            LineKind::Input => Ok(()),
            LineKind::Branch { stem } => {
                // Identity in both directions.
                let stem = *stem;
                let merged = self.values[line.index()]
                    .intersect(self.values[stem.index()])
                    .ok_or(ImplicationConflict { line })?;
                self.update(line, merged)?;
                self.update(stem, merged)
            }
            LineKind::Gate(kind) => {
                let kind = *kind;
                self.forward(line, kind)?;
                self.backward(line, kind)
            }
        }
    }

    /// `α2 = v ⇒ α1 = α3 = v` everywhere; `α1 = α3 = v ⇒ α2 = v` at
    /// primary inputs.
    fn stability_rules(&mut self, line: LineId) -> Result<(), ImplicationConflict> {
        let v = self.values[line.index()];
        if v.mid().is_specified() {
            let stable = Triple::new(v.mid(), v.mid(), v.mid());
            let merged = v.intersect(stable).ok_or(ImplicationConflict { line })?;
            self.update(line, merged)?;
        }
        if self.circuit.kind(line).is_input() {
            let v = self.values[line.index()];
            if v.first().is_specified() && v.first() == v.last() {
                let stable = Triple::new(v.first(), v.first(), v.first());
                self.update(line, stable)?;
            }
        }
        Ok(())
    }

    /// Learned-table rule: a specified outer component fires the closure
    /// table's consequents for that literal. Runs inside the ordinary
    /// fixpoint — `update_component` re-enqueues any line it changes, so
    /// chains of learned implications resolve without extra bookkeeping.
    fn learned_rules(&mut self, line: LineId) -> Result<(), ImplicationConflict> {
        let Some(table) = self.learned else {
            return Ok(());
        };
        for slot in [0usize, 2] {
            let v = component(self.values[line.index()], slot);
            if !v.is_specified() {
                continue;
            }
            for cons in table.consequents(Literal::new(line, slot, v)) {
                self.update_component(cons.line, cons.slot, cons.value)?;
            }
        }
        Ok(())
    }

    fn update(&mut self, line: LineId, new: Triple) -> Result<(), ImplicationConflict> {
        let current = self.values[line.index()];
        let merged = current.intersect(new).ok_or(ImplicationConflict { line })?;
        if merged != current {
            self.set(line, merged);
        }
        Ok(())
    }

    /// Forward rule: a gate output is at least as specified as the
    /// component-wise evaluation of its inputs.
    fn forward(&mut self, line: LineId, kind: GateKind) -> Result<(), ImplicationConflict> {
        let out = kind.eval_triples(
            self.circuit
                .fanin(line)
                .iter()
                .map(|f| self.values[f.index()]),
        );
        self.update(line, out)
    }

    /// Backward rules from a gate's output onto its inputs, per component.
    fn backward(&mut self, line: LineId, kind: GateKind) -> Result<(), ImplicationConflict> {
        // The circuit outlives the engine borrow: no copy of the fanin.
        let circuit = self.circuit;
        let fanin = circuit.fanin(line);
        let out = self.values[line.index()];

        for slot in 0..3 {
            let w = component(out, slot);
            if !w.is_specified() {
                continue;
            }
            // Undo the gate's inversion to get the pre-inversion value.
            let w = if kind.inverts() { !w } else { w };
            match kind {
                GateKind::Not | GateKind::Buf => {
                    self.update_component(fanin[0], slot, w)?;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let c = kind.controlling_value().expect("unate gate");
                    let nc = !c;
                    if w == nc {
                        // Non-controlled result: every input is nc.
                        for &f in fanin {
                            self.update_component(f, slot, nc)?;
                        }
                    } else {
                        // Controlled result: if all inputs but one are nc,
                        // the remaining one must be c.
                        let mut candidate = None;
                        let mut undecided = 0usize;
                        for &f in fanin {
                            let v = component(self.values[f.index()], slot);
                            if v != nc {
                                undecided += 1;
                                candidate = Some(f);
                            }
                        }
                        match (undecided, candidate) {
                            (0, _) => return Err(ImplicationConflict { line }),
                            (1, Some(f)) => self.update_component(f, slot, c)?,
                            _ => {}
                        }
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // If all inputs but one are specified, the last is the
                    // parity completion.
                    let mut acc = w;
                    let mut candidate = None;
                    let mut unknown = 0usize;
                    for &f in fanin {
                        let v = component(self.values[f.index()], slot);
                        if v.is_specified() {
                            acc = acc ^ v;
                        } else {
                            unknown += 1;
                            candidate = Some(f);
                        }
                    }
                    if unknown == 1 {
                        self.update_component(candidate.expect("counted"), slot, acc)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn update_component(
        &mut self,
        line: LineId,
        slot: usize,
        value: Value,
    ) -> Result<(), ImplicationConflict> {
        let v = self.values[line.index()];
        let mut parts = [v.first(), v.mid(), v.last()];
        match parts[slot].intersect(value) {
            Some(merged) => {
                parts[slot] = merged;
                self.update(line, Triple::new(parts[0], parts[1], parts[2]))
            }
            None => Err(ImplicationConflict { line }),
        }
    }
}

fn component(t: Triple, slot: usize) -> Value {
    match slot {
        0 => t.first(),
        1 => t.mid(),
        _ => t.last(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_logic::GateKind;
    use pdf_netlist::CircuitBuilder;

    fn t(s: &str) -> Triple {
        s.parse().unwrap()
    }

    /// z = NAND(x, y)
    fn nand2() -> (Circuit, LineId, LineId, LineId) {
        let mut b = CircuitBuilder::new("nand2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate("z", GateKind::Nand, &[x, y]);
        b.mark_output(z);
        (b.finish().unwrap(), x, y, z)
    }

    #[test]
    fn forward_implication() {
        let (c, x, y, z) = nand2();
        let mut imp = Implicator::new(&c);
        imp.assign(x, Triple::STABLE0).unwrap();
        imp.propagate().unwrap();
        assert_eq!(imp.value(z), Triple::STABLE1);
        assert_eq!(imp.value(y), Triple::UNKNOWN);
    }

    #[test]
    fn backward_all_noncontrolling() {
        let (c, x, y, z) = nand2();
        let mut imp = Implicator::new(&c);
        // NAND out 0 => both inputs 1.
        imp.assign(z, Triple::STABLE0).unwrap();
        imp.propagate().unwrap();
        assert_eq!(imp.value(x), Triple::STABLE1);
        assert_eq!(imp.value(y), Triple::STABLE1);
    }

    #[test]
    fn backward_last_candidate() {
        let (c, x, y, z) = nand2();
        let mut imp = Implicator::new(&c);
        // NAND out 1 with x known 1 => y must be 0.
        imp.assign(z, Triple::STABLE1).unwrap();
        imp.assign(x, Triple::STABLE1).unwrap();
        imp.propagate().unwrap();
        assert_eq!(imp.value(y), Triple::STABLE0);
    }

    #[test]
    fn conflict_detected() {
        let (c, x, y, z) = nand2();
        let mut imp = Implicator::new(&c);
        imp.assign(x, Triple::STABLE0).unwrap();
        // x = 0 forces z = 1; demanding z = 0 must fail during propagation.
        imp.assign(z, Triple::STABLE0).unwrap();
        let _ = imp.assign(y, Triple::STABLE1);
        assert!(imp.propagate().is_err());
    }

    #[test]
    fn branch_identity_both_directions() {
        let mut b = CircuitBuilder::new("branches");
        let x = b.input("x");
        let s = b.input("s");
        let s1 = b.branch("s1", s);
        let s2 = b.branch("s2", s);
        let g1 = b.gate("g1", GateKind::And, &[x, s1]);
        let g2 = b.gate("g2", GateKind::Not, &[s2]);
        b.mark_output(g1);
        b.mark_output(g2);
        let c = b.finish().unwrap();
        let mut imp = Implicator::new(&c);
        imp.assign(s1, Triple::STABLE1).unwrap();
        imp.propagate().unwrap();
        // Branch -> stem -> sibling branch -> inverter output.
        assert_eq!(imp.value(s), Triple::STABLE1);
        assert_eq!(imp.value(s2), Triple::STABLE1);
        assert_eq!(imp.value(g2), Triple::STABLE0);
    }

    #[test]
    fn stability_rule_expands_mid_values() {
        let (c, x, _y, _z) = nand2();
        let mut imp = Implicator::new(&c);
        imp.assign(x, t("xx0")).unwrap();
        imp.propagate().unwrap();
        assert_eq!(imp.value(x), t("xx0"));
        let mut imp = Implicator::new(&c);
        imp.assign(x, t("x0x")).unwrap();
        imp.propagate().unwrap();
        // mid 0 implies stable 0.
        assert_eq!(imp.value(x), Triple::STABLE0);
    }

    #[test]
    fn half_specified_input_implies_nothing_extra() {
        let (c, x, _y, z) = nand2();
        let mut imp = Implicator::new(&c);
        imp.assign(x, t("0xx")).unwrap();
        imp.propagate().unwrap();
        // Only the first pattern is pinned: no stability can be inferred,
        // and the NAND output is only known under the first pattern.
        assert_eq!(imp.value(x), t("0xx"));
        assert_eq!(imp.value(z), t("1xx"));
    }

    #[test]
    fn input_stability_rule() {
        let (c, x, _y, z) = nand2();
        let mut imp = Implicator::new(&c);
        // x constrained to 0 under both patterns: a primary input cannot
        // glitch, so the intermediate value is 0 too, and z is stable 1.
        imp.assign(x, t("0x0")).unwrap();
        imp.propagate().unwrap();
        assert_eq!(imp.value(x), Triple::STABLE0);
        assert_eq!(imp.value(z), Triple::STABLE1);
    }

    #[test]
    fn from_assignments_detects_undetectable() {
        // g = AND(a, b); h = OR(g, b2) with b fanning out to both.
        // Requiring b stable 1 (for g) and b final 0 (for h) conflicts.
        let mut bld = CircuitBuilder::new("u");
        let a = bld.input("a");
        let b = bld.input("b");
        let b1 = bld.branch("b1", b);
        let b2 = bld.branch("b2", b);
        let g = bld.gate("g", GateKind::And, &[a, b1]);
        let h = bld.gate("h", GateKind::Or, &[g, b2]);
        bld.mark_output(h);
        let c = bld.finish().unwrap();

        let mut req = Assignments::new();
        req.require(b1, Triple::STABLE1).unwrap();
        req.require(b2, t("xx0")).unwrap();
        assert!(Implicator::from_assignments(&c, &req).is_err());
    }

    #[test]
    fn xor_backward_completion() {
        let mut b = CircuitBuilder::new("xor");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate("z", GateKind::Xor, &[x, y]);
        b.mark_output(z);
        let c = b.finish().unwrap();
        let mut imp = Implicator::new(&c);
        imp.assign(z, t("1xx")).unwrap();
        imp.assign(x, t("0xx")).unwrap();
        imp.propagate().unwrap();
        assert_eq!(imp.value(y).first(), Value::One);
    }
}
