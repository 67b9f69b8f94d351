//! Sensitization conditions: computing `A(p)` for a path delay fault.
//!
//! To detect a path delay fault robustly, a two-pattern test must (paper
//! Sec. 2.1):
//!
//! * launch the fault's transition at the path's source
//!   (`0x1` for slow-to-rise, `1x0` for slow-to-fall), and
//! * hold every *off-path* input of every gate along the path at the value
//!   the classical robust propagation rules demand:
//!
//!   | on-path transition at the gate | off-path requirement |
//!   |--------------------------------|----------------------|
//!   | towards the controlling value  | stable non-controlling (`000`/`111`) |
//!   | away from the controlling value| non-controlling under the second pattern only (`xx0`/`xx1`) |
//!
//! The resulting necessary assignment set `A(p)` is *necessary and
//! sufficient*: any fully specified two-pattern test whose simulated
//! waveforms satisfy `A(p)` detects the fault robustly.
//!
//! The weaker *non-robust* conditions (off-path inputs only need the
//! non-controlling value under the second pattern, regardless of
//! transition direction) are also provided; they are the paper's "future
//! work" comparison axis.

use core::fmt;

use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{Circuit, LineId, LineKind};

use crate::{Assignments, PathDelayFault, Polarity};

/// Which sensitization criterion to apply when building `A(p)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Sensitization {
    /// Robust propagation: detection is independent of delays elsewhere in
    /// the circuit. The paper considers only robust tests.
    #[default]
    Robust,
    /// Non-robust propagation: off-path inputs are only constrained under
    /// the second pattern; detection may be invalidated by other delays.
    NonRobust,
}

/// Error produced while computing sensitization conditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConditionError {
    /// The path is not structurally valid in this circuit.
    InvalidPath(pdf_paths::PathError),
    /// The path runs through a gate without a controlling value
    /// (`XOR`/`XNOR`); decompose parity gates before path analysis.
    ParityGate {
        /// The offending gate line.
        line: LineId,
    },
    /// The fault is trivially undetectable: its own conditions conflict
    /// (paper Sec. 3.1, elimination rule 1 — e.g. two branches of one stem
    /// demand opposite stable values).
    Conflict {
        /// The line on which the conflict arose (stem lines for branch
        /// back-projection conflicts).
        line: LineId,
    },
}

impl fmt::Display for ConditionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConditionError::InvalidPath(e) => write!(f, "invalid path: {e}"),
            ConditionError::ParityGate { line } => {
                write!(f, "path crosses parity gate at line {line}")
            }
            ConditionError::Conflict { line } => {
                write!(
                    f,
                    "conditions conflict on line {line}; fault is undetectable"
                )
            }
        }
    }
}

impl std::error::Error for ConditionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConditionError::InvalidPath(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pdf_paths::PathError> for ConditionError {
    fn from(e: pdf_paths::PathError) -> Self {
        ConditionError::InvalidPath(e)
    }
}

/// Computes the necessary assignment set `A(p)` of a fault.
///
/// The returned [`Assignments`] constrain the path's source and every
/// off-path input. Requirements on fanout *branches* are additionally
/// back-projected onto their stems (a branch carries its stem's waveform),
/// which lets rule-1 conflicts between sibling branches surface here.
///
/// # Errors
///
/// See [`ConditionError`].
///
/// # Example: the paper's `s27` example fault
///
/// ```
/// use pdf_faults::{robust_assignments, PathDelayFault, Polarity};
/// use pdf_netlist::{iscas::s27, LineId};
/// use pdf_paths::Path;
///
/// let circuit = s27();
/// let line = |k: usize| LineId::new(k - 1);
/// let path: Path = [2usize, 9, 10, 15].iter().map(|&k| line(k)).collect();
/// let fault = PathDelayFault::new(path, Polarity::SlowToRise);
/// let a = robust_assignments(&circuit, &fault)?;
/// // "A(p) consists of the off-path values 000 on line 7 and xx0 on
/// //  line 3, and of the source value 0x1 on line 2."
/// assert_eq!(a.get(line(7)), Some("000".parse().unwrap()));
/// assert_eq!(a.get(line(3)), Some("xx0".parse().unwrap()));
/// assert_eq!(a.get(line(2)), Some("0x1".parse().unwrap()));
/// # Ok::<(), pdf_faults::ConditionError>(())
/// ```
pub fn robust_assignments(
    circuit: &Circuit,
    fault: &PathDelayFault,
) -> Result<Assignments, ConditionError> {
    assignments(circuit, fault, Sensitization::Robust)
}

/// Computes `A(p)` under the chosen sensitization criterion. See
/// [`robust_assignments`].
///
/// # Errors
///
/// See [`ConditionError`].
pub fn assignments(
    circuit: &Circuit,
    fault: &PathDelayFault,
    kind: Sensitization,
) -> Result<Assignments, ConditionError> {
    fault.path().validate(circuit)?;
    let mut a = Assignments::new();
    let lines = fault.path().lines();
    let mut transition = launch(fault.polarity());
    for k in 0..lines.len() {
        transition = step(circuit, lines, k, transition, kind, &mut |line, req| {
            a.require(line, req)
                .map_err(|c| ConditionError::Conflict { line: c.line })
        })?;
    }
    Ok(a)
}

/// The transition a fault of `polarity` launches at its path's source.
pub(crate) fn launch(polarity: Polarity) -> Triple {
    match polarity {
        Polarity::SlowToRise => Triple::RISING,
        Polarity::SlowToFall => Triple::FALLING,
    }
}

/// The share of `A(p)` that path position `k` adds, handed to `require`
/// one requirement at a time: the launch transition at the source
/// (`k = 0`), the off-path requirements of the gate `lines[k]` otherwise.
/// `transition` is the one arriving at `lines[k]` ([`launch`] at the
/// source); the one leaving it is returned. Requirements on fanout
/// branches are back-projected onto their stems (a branch carries its
/// stem's waveform), which lets rule-1 conflicts between sibling branches
/// surface.
///
/// `A(p)` is the fold of these steps over the whole path, so the steps of
/// a path's prefix give exactly the requirements of that prefix.
pub(crate) fn step(
    circuit: &Circuit,
    lines: &[LineId],
    k: usize,
    transition: Triple,
    kind: Sensitization,
    require: &mut impl FnMut(LineId, Triple) -> Result<(), ConditionError>,
) -> Result<Triple, ConditionError> {
    let mut require_projected = |line: LineId, req: Triple| {
        require(line, req)?;
        if let LineKind::Branch { stem } = circuit.kind(line) {
            require(*stem, req)?;
        }
        Ok(())
    };
    if k == 0 {
        require_projected(lines[0], transition)?;
        return Ok(transition);
    }
    let through = lines[k];
    match circuit.kind(through) {
        LineKind::Input => unreachable!("inputs have no fanin"),
        // Branches are transparent: the waveform passes unchanged.
        LineKind::Branch { .. } => Ok(transition),
        LineKind::Gate(gate) => propagate_through(
            circuit,
            *gate,
            through,
            lines[k - 1],
            transition,
            kind,
            &mut require_projected,
        ),
    }
}

fn propagate_through(
    circuit: &Circuit,
    gate: GateKind,
    gate_line: LineId,
    on_path: LineId,
    transition: Triple,
    kind: Sensitization,
    require_projected: &mut impl FnMut(LineId, Triple) -> Result<(), ConditionError>,
) -> Result<Triple, ConditionError> {
    let out_transition = if gate.inverts() {
        transition.negate()
    } else {
        transition
    };
    if gate.is_single_input() {
        return Ok(out_transition);
    }
    let Some(controlling) = gate.controlling_value() else {
        return Err(ConditionError::ParityGate { line: gate_line });
    };
    let noncontrolling = !controlling;
    // Requirement on each off-path input.
    let toward_controlling = transition.last() == controlling;
    let off_req = match (kind, toward_controlling) {
        // Robust, transition ends on the controlling value: the off-path
        // inputs must hold the non-controlling value hazard-free.
        (Sensitization::Robust, true) => match noncontrolling {
            Value::Zero => Triple::STABLE0,
            Value::One => Triple::STABLE1,
            Value::X => unreachable!("controlling values are specified"),
        },
        // Robust, transition ends on the non-controlling value — or any
        // non-robust case: the off-path inputs only need the
        // non-controlling value under the second pattern.
        (Sensitization::Robust, false) | (Sensitization::NonRobust, _) => {
            Triple::new(Value::X, Value::X, noncontrolling)
        }
    };
    for &input in circuit.fanin(gate_line) {
        if input != on_path {
            require_projected(input, off_req)?;
        }
    }
    Ok(out_transition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::iscas::s27;
    use pdf_netlist::CircuitBuilder;
    use pdf_paths::Path;

    fn line(k: usize) -> LineId {
        LineId::new(k - 1)
    }

    fn s27_path(ids: &[usize]) -> Path {
        ids.iter().map(|&k| line(k)).collect()
    }

    fn t(s: &str) -> Triple {
        s.parse().unwrap()
    }

    #[test]
    fn paper_example_slow_to_rise() {
        let c = s27();
        let f = PathDelayFault::new(s27_path(&[2, 9, 10, 15]), Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        assert_eq!(a.get(line(2)), Some(t("0x1")));
        assert_eq!(a.get(line(7)), Some(t("000")));
        assert_eq!(a.get(line(3)), Some(t("xx0")));
        // Source and two off-path inputs; the stem back-projection of
        // branch 10's requirement does not apply (3 and 7 are inputs, the
        // on-path branch 10 itself carries no off-path requirement).
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn paper_example_opposite_polarity() {
        let c = s27();
        let f = PathDelayFault::new(s27_path(&[2, 9, 10, 15]), Polarity::SlowToFall);
        let a = robust_assignments(&c, &f).unwrap();
        // Falling at 2 (nc -> away from controlling 1 of NOR): off-path 7
        // needs xx0 only; at gate 15 the on-path input 10 rises (toward
        // controlling 1 of NOR), so off-path 3 needs stable 000.
        assert_eq!(a.get(line(2)), Some(t("1x0")));
        assert_eq!(a.get(line(7)), Some(t("xx0")));
        assert_eq!(a.get(line(3)), Some(t("000")));
    }

    #[test]
    fn longest_path_conditions() {
        let c = s27();
        // (1,8,13,14,16,19,20,21,22,25): NOT, AND, OR, NAND, NOR, NOR.
        let f = PathDelayFault::new(
            s27_path(&[1, 8, 13, 14, 16, 19, 20, 21, 22, 25]),
            Polarity::SlowToRise,
        );
        let a = robust_assignments(&c, &f).unwrap();
        assert_eq!(a.get(line(1)), Some(t("0x1")));
        // Transitions: 1 rises -> 8 falls (NOT) -> 13, 14 fall (AND: toward
        // controlling 0 => off-path 6 stable 1) -> 16 falls -> 19 falls
        // (OR: toward controlling... 1 is controlling for OR; falling goes
        // AWAY from it => off-path 4 only needs xx0) -> 20 rises (NAND:
        // falling input goes toward controlling 0 => off-path 18 stable 1)
        // -> 21 falls (NOR: rising input toward controlling 1 => off-path
        // 5 stable 0) -> 22 falls -> 25 rises (NOR: falling input away
        // from controlling => off-path 12 needs xx0).
        assert_eq!(a.get(line(6)), Some(t("111")));
        assert_eq!(a.get(line(4)), Some(t("xx0")));
        assert_eq!(a.get(line(18)), Some(t("111")));
        assert_eq!(a.get(line(5)), Some(t("000")));
        assert_eq!(a.get(line(12)), Some(t("xx0")));
        // A(p) constrains only the source and off-path inputs: on-path
        // lines carry no explicit requirement. Off-path line 12 is a
        // branch of stem 8, so its xx0 back-projects onto the stem.
        assert_eq!(a.get(line(8)), Some(t("xx0")));
        assert_eq!(a.get(line(13)), None);
        assert_eq!(a.get(line(14)), None);
    }

    #[test]
    fn branch_requirement_back_projects_to_stem() {
        // A stem s with branches b1 (on a path) ... build: two AND gates
        // sharing a stem; path through g1 has off-path branch of s.
        let mut b = CircuitBuilder::new("proj");
        let x = b.input("x");
        let s = b.input("s");
        let s1 = b.branch("s1", s);
        let s2 = b.branch("s2", s);
        let g1 = b.gate("g1", pdf_logic::GateKind::And, &[x, s1]);
        let g2 = b.gate("g2", pdf_logic::GateKind::Not, &[s2]);
        b.mark_output(g1);
        b.mark_output(g2);
        let c = b.finish().unwrap();
        let path = Path::new(vec![x, g1]);
        // Falling at x heads toward AND's controlling 0, so the off-path
        // branch s1 must hold a hazard-free non-controlling 1.
        let f = PathDelayFault::new(path, Polarity::SlowToFall);
        let a = robust_assignments(&c, &f).unwrap();
        // The requirement back-projects onto the stem s as well.
        assert_eq!(a.get(s1), Some(t("111")));
        assert_eq!(a.get(s), Some(t("111")));
        // The rising fault only needs the final value.
        let path = Path::new(vec![x, g1]);
        let f = PathDelayFault::new(path, Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        assert_eq!(a.get(s1), Some(t("xx1")));
        assert_eq!(a.get(s), Some(t("xx1")));
    }

    #[test]
    fn sibling_branch_conflict_detected_as_rule_1() {
        // Path through two gates fed by opposite-polarity requirements on
        // sibling branches of one stem: g1 = AND(x1, s1) wants s stable 1,
        // g2 = OR(g1, s2) with on-path transition toward controlling
        // wants s stable 0 -> conflict on the stem.
        let mut b = CircuitBuilder::new("conflict");
        let x = b.input("x");
        let s = b.input("s");
        let s1 = b.branch("s1", s);
        let s2 = b.branch("s2", s);
        let g1 = b.gate("g1", pdf_logic::GateKind::And, &[x, s1]);
        let g2 = b.gate("g2", pdf_logic::GateKind::Or, &[g1, s2]);
        b.mark_output(g2);
        let c = b.finish().unwrap();
        let path = Path::new(vec![x, g1, g2]);
        // Rising at x -> rising at g1 (AND, toward nc? rising ends at 1 =
        // nc of AND -> off-path s1 needs xx1... wait, rising ends at 1
        // which is NON-controlling for AND => away from controlling =>
        // s1 needs xx1). Use falling to force stable demands:
        // Falling at x -> g1 falls (toward controlling 0 of AND: s1 stable
        // 1) -> at g2 falling input is away from controlling 1 of OR:
        // s2 needs xx0 only. Compatible. Use SlowToRise instead:
        // rising x -> g1 rises (away from c of AND: s1 xx1) -> rising at
        // g2 toward controlling 1 of OR: s2 stable 000. Stem gets xx1 and
        // 000 -> conflict.
        let f = PathDelayFault::new(path, Polarity::SlowToRise);
        let err = assignments(&c, &f, Sensitization::Robust).unwrap_err();
        assert!(matches!(err, ConditionError::Conflict { .. }));
    }

    #[test]
    fn non_robust_conditions_are_weaker() {
        let c = s27();
        let f = PathDelayFault::new(s27_path(&[2, 9, 10, 15]), Polarity::SlowToRise);
        let robust = assignments(&c, &f, Sensitization::Robust).unwrap();
        let nonrobust = assignments(&c, &f, Sensitization::NonRobust).unwrap();
        // Non-robust only demands final values on off-path inputs.
        assert_eq!(nonrobust.get(line(7)), Some(t("xx0")));
        assert_eq!(nonrobust.get(line(3)), Some(t("xx0")));
        assert!(nonrobust.specified_components() < robust.specified_components());
    }

    #[test]
    fn invalid_path_rejected() {
        let c = s27();
        let f = PathDelayFault::new(s27_path(&[2, 9, 15]), Polarity::SlowToRise);
        assert!(matches!(
            robust_assignments(&c, &f),
            Err(ConditionError::InvalidPath(_))
        ));
    }

    #[test]
    fn parity_gate_reported() {
        let mut b = CircuitBuilder::new("xor");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", pdf_logic::GateKind::Xor, &[x, y]);
        b.mark_output(g);
        let c = b.finish().unwrap();
        let f = PathDelayFault::new(Path::new(vec![x, g]), Polarity::SlowToRise);
        assert!(matches!(
            robust_assignments(&c, &f),
            Err(ConditionError::ParityGate { .. })
        ));
    }
}
