//! Three-valued implication over two-pattern waveforms.
//!
//! Given a set of line requirements, the [`Implicator`] derives every value
//! they force elsewhere in the circuit — forwards through gate evaluation
//! and backwards through controlling-value reasoning. A contradiction
//! proves the requirements unsatisfiable; this is the paper's rule 2 for
//! eliminating undetectable faults from `P` ("we find the implications of
//! the values in `A(p)`; if the implication process assigns conflicting
//! values to a line `g`, `p` is undetectable").
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
//! Each stem's triple is one byte in the two-rail Kleene encoding of the
//! packed simulator (DESIGN §8): bit `k` is a proven `0` in component `k`
//! (`α1`, `α2`, `α3` for `k = 0, 1, 2`), bit `4 + k` a proven `1`, and
//! `x` is neither. Narrowing is an `OR`, and a conflict is a component
//! with both bits set.
//!
//! A fanout branch carries its stem's value, so it shares its stem's
//! byte: every read and write of a line goes through
//! [`Circuit::stem_of`], a change queues the stem and the gates reading
//! it ([`Circuit::readers`]), and no rule is ever centred on a branch.
//! At the fixpoint of an engine that kept a byte per branch, every branch
//! equals its stem, so sharing the byte reaches the same closure and the
//! same verdict with about half the propagation steps on branch-heavy
//! circuits.
//!
//! The engine is incremental: every value change is recorded on a trail,
//! so a caller can [`mark`](Implicator::mark) a state, assert more
//! requirements, and [`undo_to`](Implicator::undo_to) the mark instead of
//! rebuilding the engine. The rules are monotone narrowing operators, so
//! asserting `b` on top of the fixpoint of `a` conflicts exactly when
//! asserting `a ∪ b` from scratch does.

use core::fmt;
use std::collections::VecDeque;

use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{Circuit, LineId, LineKind};

use crate::learned::Literal;
use crate::{Assignments, LearnedImplications};

/// Error: the implications assigned two different values to one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImplicationConflict {
    /// The line on which the contradiction surfaced, in propagation
    /// order: a stem (never a fanout branch, whose value is its stem's)
    /// or a gate whose inputs cannot produce its output. Which line of a
    /// contradiction surfaces first depends on the order the rules ran
    /// in, so it is not a canonical line.
    pub line: LineId,
}

impl fmt::Display for ImplicationConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "implications conflict on line {}", self.line)
    }
}

impl std::error::Error for ImplicationConflict {}

/// The zero rail of a line's byte: one bit per component.
const ZERO: u8 = 0b0000_0111;
/// The one rail of a line's byte.
const ONE: u8 = 0b0111_0000;
/// The outer components (`α1`, `α3`) on both rails: the learned literals.
const OUTER: u8 = 0b0101_0101;

/// Encodes a triple as its two-rail byte.
pub(crate) fn encode(t: Triple) -> u8 {
    t.components()
        .into_iter()
        .enumerate()
        .fold(0, |rails, (k, v)| match v {
            Value::Zero => rails | 1 << k,
            Value::One => rails | 0x10 << k,
            Value::X => rails,
        })
}

/// Decodes a conflict-free two-rail byte.
fn decode(rails: u8) -> Triple {
    let component = |k: usize| {
        if rails & 1 << k != 0 {
            Value::Zero
        } else if rails & 0x10 << k != 0 {
            Value::One
        } else {
            Value::X
        }
    };
    Triple::new(component(0), component(1), component(2))
}

/// Some component is proven both `0` and `1`.
pub(crate) fn conflicts(rails: u8) -> bool {
    rails & (rails >> 4) != 0
}

/// Negation: swaps the rails.
fn swap(rails: u8) -> u8 {
    rails.rotate_left(4)
}

/// Two-input Kleene XOR on two-rail bytes.
fn xor(a: u8, b: u8) -> u8 {
    let (a0, a1, b0, b1) = (a & ZERO, a >> 4, b & ZERO, b >> 4);
    (a0 & b0 | a1 & b1) | (a0 & b1 | a1 & b0) << 4
}

/// Evaluates a gate on its fanin bytes, all three components at once
/// (DESIGN §8: AND `one = ∧one`, `zero = ∨zero`; NOT swaps the rails).
fn eval(kind: GateKind, mut fanin: impl Iterator<Item = u8>) -> u8 {
    let folded = match kind {
        GateKind::And | GateKind::Nand => {
            let (all, any) = all_any(fanin);
            all & ONE | any & ZERO
        }
        GateKind::Or | GateKind::Nor => {
            let (all, any) = all_any(fanin);
            any & ONE | all & ZERO
        }
        GateKind::Xor | GateKind::Xnor => fanin.reduce(xor).expect("gate has a fanin"),
        GateKind::Not | GateKind::Buf => fanin.next().expect("gate has a fanin"),
    };
    if kind.inverts() {
        swap(folded)
    } else {
        folded
    }
}

/// The bits set on every input byte, and on any.
fn all_any(fanin: impl Iterator<Item = u8>) -> (u8, u8) {
    fanin.fold((u8::MAX, 0), |(all, any), r| (all & r, any | r))
}

/// The stability rules on one byte: `α2 = v ⇒ α1 = α3 = v` everywhere;
/// `α1 = α3 = v ⇒ α2 = v` at primary inputs.
fn stability(rails: u8, input: bool) -> u8 {
    // One rail, in the low three bits: all three components, or as is.
    let fill = |rail: u8| {
        let mid = rail & 0b010 != 0;
        let stable = input && rail & 0b101 == 0b101;
        if mid || stable {
            0b111
        } else {
            rail
        }
    };
    rails | fill(rails & ZERO) | fill(rails >> 4) << 4
}

/// The rail bit of an outer literal.
fn literal_bit(literal: Literal) -> u8 {
    match literal.value {
        Value::One => 0x10 << literal.slot,
        _ => 1 << literal.slot,
    }
}

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
    /// One two-rail byte per stem, indexed by [`LineId::index`]; a fanout
    /// branch's entry is never read or written.
    rails: Vec<u8>,
    queue: VecDeque<LineId>,
    queued: Vec<bool>,
    learned: Option<&'c LearnedImplications>,
    /// Outer literals decided since their learned rows last fired. Each
    /// literal is decided once between undos, so each row fires once.
    pending: Vec<Literal>,
    /// Every value change as `(stem, byte before the change)`, oldest
    /// first: [`Implicator::undo_to`] replays it backwards.
    trail: Vec<(LineId, u8)>,
}

impl<'c> Implicator<'c> {
    /// Creates an engine with every line unconstrained.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> Implicator<'c> {
        Implicator {
            circuit,
            rails: vec![0; circuit.line_count()],
            queue: VecDeque::new(),
            queued: vec![false; circuit.line_count()],
            learned: None,
            pending: Vec::new(),
            trail: Vec::new(),
        }
    }

    /// Attaches a statically learned closure table: whenever a stem's
    /// outer component becomes specified, the table's consequents are
    /// applied as an extra implication rule. Rows are looked up by stem
    /// only, so a row keyed by a fanout branch never fires; a row keyed by
    /// the stem fires when any of its branches is decided. Attach it
    /// before asserting anything: literals already decided do not fire.
    #[must_use]
    pub fn with_learned(mut self, learned: &'c LearnedImplications) -> Implicator<'c> {
        debug_assert!(self.trail.is_empty(), "table attached to a narrowed engine");
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

    /// The stems whose value changed since `mark` was taken, oldest
    /// change first; a fanout branch is never listed, it carries its
    /// stem's value. A stem narrowed more than once appears once per
    /// change.
    pub fn changed_since(&self, mark: usize) -> impl Iterator<Item = LineId> + '_ {
        self.trail[mark..].iter().map(|&(stem, _)| stem)
    }

    /// Restores every line value to what it was when `mark` was taken and
    /// empties the propagation queue and the pending learned literals.
    /// Valid after a conflict, and after a panic caught mid-assert or
    /// mid-propagation: the trail records each change before the next can
    /// happen.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the current trail: a stale mark, taken
    /// before an undo to an earlier one.
    pub fn undo_to(&mut self, mark: usize) {
        for (line, old) in self.trail.drain(mark..).rev() {
            self.rails[line.index()] = old;
        }
        for line in self.queue.drain(..) {
            self.queued[line.index()] = false;
        }
        self.pending.clear();
    }

    /// The current value of a line (`x` components where nothing is
    /// implied yet); a fanout branch reads its stem's.
    #[inline]
    #[must_use]
    pub fn value(&self, line: LineId) -> Triple {
        decode(self.rails_of(line))
    }

    /// The byte of the stem `line` carries.
    #[inline]
    fn rails_of(&self, line: LineId) -> u8 {
        self.rails[self.circuit.stem_of(line).index()]
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
        self.narrow(line, encode(req))
    }

    /// Adds the proven bits `bits` to `line`'s stem.
    #[inline]
    fn narrow(&mut self, line: LineId, bits: u8) -> Result<(), ImplicationConflict> {
        self.narrow_stem(self.circuit.stem_of(line), bits)
    }

    /// Adds the proven bits `bits` to the stem `stem`.
    #[inline]
    fn narrow_stem(&mut self, stem: LineId, bits: u8) -> Result<(), ImplicationConflict> {
        let old = self.rails[stem.index()];
        let new = old | bits;
        if new != old {
            if conflicts(new) {
                return Err(ImplicationConflict { line: stem });
            }
            self.set(stem, old, new);
        }
        Ok(())
    }

    /// Writes a stem's changed value through the trail, records the outer
    /// literals it decides, and queues the stem and its readers: no rule
    /// centred on a line reads that line's readers, so its fanins have
    /// nothing new to derive.
    fn set(&mut self, stem: LineId, old: u8, new: u8) {
        // The circuit outlives the engine borrow.
        let circuit = self.circuit;
        self.trail.push((stem, old));
        self.rails[stem.index()] = new;
        if self.learned.is_some() {
            let mut decided = new & !old & OUTER;
            while decided != 0 {
                // Bit 0 or 2 (`α1`, `α3`) of the zero rail, or 4 or 6 of
                // the one rail.
                let bit = decided.trailing_zeros() as usize;
                let value = if bit & 4 == 0 {
                    Value::Zero
                } else {
                    Value::One
                };
                self.pending.push(Literal::new(stem, bit & 3, value));
                decided &= decided - 1;
            }
        }
        self.enqueue(stem);
        for &g in circuit.readers(stem) {
            self.enqueue(g);
        }
    }

    fn enqueue(&mut self, line: LineId) {
        if !self.queued[line.index()] {
            self.queued[line.index()] = true;
            self.queue.push_back(line);
        }
    }

    /// Runs implications to the fixpoint. The lines processed are added
    /// to the `implication_steps` telemetry counter once per call.
    ///
    /// # Errors
    ///
    /// Returns [`ImplicationConflict`] on contradiction. The state is then
    /// partially updated; [`Implicator::undo_to`] a mark taken before the
    /// contradicting assertions restores it, and the engine is reusable.
    pub fn propagate(&mut self) -> Result<(), ImplicationConflict> {
        let mut steps = 0u64;
        let result = loop {
            if let Some(literal) = self.pending.pop() {
                if let Err(conflict) = self.fire(literal) {
                    break Err(conflict);
                }
            } else if let Some(line) = self.queue.pop_front() {
                self.queued[line.index()] = false;
                steps += 1;
                if let Err(conflict) = self.process(line) {
                    break Err(conflict);
                }
            } else {
                break Ok(());
            }
        };
        if steps > 0 {
            pdf_telemetry::count(pdf_telemetry::counters::IMPLICATION_STEPS, steps);
        }
        result
    }

    /// Learned-table rule: applies the consequents of one newly decided
    /// outer literal. They are constants, so one application is all the
    /// literal ever contributes until it is undone.
    fn fire(&mut self, literal: Literal) -> Result<(), ImplicationConflict> {
        let Some(table) = self.learned else {
            return Ok(());
        };
        for cons in table.consequents(literal) {
            self.narrow(cons.line, literal_bit(cons))?;
        }
        Ok(())
    }

    /// Applies all structural rules centred on the stem `line`.
    fn process(&mut self, line: LineId) -> Result<(), ImplicationConflict> {
        // The circuit outlives the engine borrow.
        let circuit = self.circuit;
        let kind = circuit.kind(line);
        self.narrow_stem(line, stability(self.rails[line.index()], kind.is_input()))?;
        match *kind {
            LineKind::Input => Ok(()),
            LineKind::Gate(kind) => {
                let fanin = circuit.fanin(line).iter();
                let out = eval(kind, fanin.map(|&f| self.rails_of(f)));
                self.narrow_stem(line, out)?;
                self.backward(line, kind)
            }
            LineKind::Branch { .. } => unreachable!("a branch is never queued"),
        }
    }

    /// Backward rules from a gate's output onto its inputs, all three
    /// components at once.
    fn backward(&mut self, line: LineId, kind: GateKind) -> Result<(), ImplicationConflict> {
        // The circuit outlives the engine borrow: no copy of the fanin.
        let circuit = self.circuit;
        let fanin = circuit.fanin(line);
        // Undo the gate's inversion to get the pre-inversion value.
        let out = self.rails[line.index()];
        let pre = if kind.inverts() { swap(out) } else { out };
        if pre == 0 {
            // An open output implies nothing about the inputs.
            return Ok(());
        }
        match kind {
            GateKind::Not | GateKind::Buf => self.narrow(fanin[0], pre),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // Work in AND polarity: the controlling value on the zero
                // rail. OR-family bytes are swapped in and out.
                let or_family = matches!(kind, GateKind::Or | GateKind::Nor);
                let dual = |r: u8| if or_family { swap(r) } else { r };
                let pre = dual(pre);
                // Non-controlled result: every input is non-controlling.
                let nc = pre & ONE;
                // Controlled result: the components where some input must
                // be controlling; count the inputs that still can be.
                let controlled = pre & ZERO;
                let open = |r: u8| controlled & !(dual(r) >> 4);
                let (mut once, mut twice) = (0u8, 0u8);
                for &f in fanin {
                    let o = open(self.rails_of(f));
                    twice |= once & o;
                    once |= o;
                }
                if controlled & !once != 0 {
                    return Err(ImplicationConflict { line });
                }
                // If all inputs but one are non-controlling, the remaining
                // one is controlling.
                let lone = once & !twice;
                if nc | lone == 0 {
                    return Ok(());
                }
                for &f in fanin {
                    let bits = nc | open(self.rails_of(f)) & lone;
                    self.narrow(f, dual(bits))?;
                }
                Ok(())
            }
            GateKind::Xor | GateKind::Xnor => {
                // If all inputs but one are specified, the last is the
                // parity completion.
                let specified = (pre | pre >> 4) & ZERO;
                let unknown = |r: u8| specified & !(r | r >> 4);
                let mut parity = pre >> 4;
                let (mut once, mut twice) = (0u8, 0u8);
                for &f in fanin {
                    let r = self.rails_of(f);
                    parity ^= r >> 4;
                    let u = unknown(r);
                    twice |= once & u;
                    once |= u;
                }
                let lone = once & !twice;
                if lone == 0 {
                    return Ok(());
                }
                for &f in fanin {
                    let m = unknown(self.rails_of(f)) & lone;
                    if m != 0 {
                        self.narrow(f, (parity & m) << 4 | !parity & m)?;
                    }
                }
                Ok(())
            }
        }
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

    fn all_triples() -> impl Iterator<Item = Triple> {
        Value::ALL.into_iter().flat_map(|a| {
            Value::ALL
                .into_iter()
                .flat_map(move |b| Value::ALL.into_iter().map(move |c| Triple::new(a, b, c)))
        })
    }

    /// The two-rail byte against the `Triple` algebra, exhaustively over
    /// all 27 triples: round trips, merge conflicts, and gate evaluation
    /// up to three inputs (one for NOT/BUF).
    #[test]
    fn two_rail_encoding_matches_the_triple_algebra() {
        for a in all_triples() {
            assert_eq!(decode(encode(a)), a, "{a}");
            for b in all_triples() {
                let merged = encode(a) | encode(b);
                assert_eq!(conflicts(merged), a.intersect(b).is_none(), "{a} ∩ {b}");
                if let Some(both) = a.intersect(b) {
                    assert_eq!(decode(merged), both, "{a} ∩ {b}");
                }
            }
        }
        // Every input row up to arity 3, one base-27 digit per input.
        let triples: Vec<Triple> = all_triples().collect();
        let rows = (1..=3u32).flat_map(|arity| {
            let triples = &triples;
            (0..27usize.pow(arity)).map(move |code| {
                (0..arity)
                    .scan(code, |rest, _| {
                        let t = triples[*rest % 27];
                        *rest /= 27;
                        Some(t)
                    })
                    .collect::<Vec<_>>()
            })
        });
        let rows: Vec<Vec<Triple>> = rows.collect();
        assert_eq!(rows.len(), 27 + 27 * 27 + 27 * 27 * 27);
        for kind in GateKind::ALL {
            for row in rows
                .iter()
                .filter(|row| !kind.is_single_input() || row.len() == 1)
            {
                let rails = eval(kind, row.iter().map(|&t| encode(t)));
                assert_eq!(
                    decode(rails),
                    kind.eval_triples(row.iter().copied()),
                    "{kind} {row:?}"
                );
                assert!(!conflicts(rails), "{kind} {row:?}");
            }
        }
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

    /// `x`, `s` inputs; `s` fans out to `s1` and `s2`; `g1 = AND(x, s1)`,
    /// `g2 = NOT(s2)`.
    fn branches() -> (Circuit, [LineId; 6]) {
        let mut b = CircuitBuilder::new("branches");
        let x = b.input("x");
        let s = b.input("s");
        let s1 = b.branch("s1", s);
        let s2 = b.branch("s2", s);
        let g1 = b.gate("g1", GateKind::And, &[x, s1]);
        let g2 = b.gate("g2", GateKind::Not, &[s2]);
        b.mark_output(g1);
        b.mark_output(g2);
        (b.finish().unwrap(), [x, s, s1, s2, g1, g2])
    }

    #[test]
    fn changed_since_lists_stems_only() {
        let (c, [_x, s, s1, _s2, _g1, g2]) = branches();
        let mut imp = Implicator::new(&c);
        let mark = imp.mark();
        imp.assign(s1, Triple::STABLE1).unwrap();
        assert_eq!(imp.changed_since(mark).collect::<Vec<_>>(), [s]);
        imp.propagate().unwrap();
        assert_eq!(imp.changed_since(mark).collect::<Vec<_>>(), [s, g2]);
    }

    #[test]
    fn a_stem_row_fires_when_a_branch_is_asserted() {
        let (c, [x, s, _s1, s2, ..]) = branches();
        let mut table = LearnedImplications::new(c.line_count());
        table.add(
            Literal::new(s, 0, Value::One),
            Literal::new(x, 0, Value::Zero),
        );
        let mut imp = Implicator::new(&c).with_learned(&table);
        imp.assign(s2, t("1xx")).unwrap();
        imp.propagate().unwrap();
        assert_eq!(imp.value(x), t("0xx"));
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
