//! Exact (branch-and-bound) justification.
//!
//! The paper attributes the small run-to-run variations of its results to
//! the random choices of the simulation-based justification procedure and
//! notes they "can be eliminated by using a branch-and-bound procedure".
//! This module provides that alternative: a complete search over the
//! pattern values of the cone's primary inputs, pruned by the
//! [`Implicator`](pdf_faults::Implicator)'s three-valued implications.
//!
//! Unlike [`Justifier`](crate::Justifier), the outcome is definitive:
//! satisfiable (with a witness test), unsatisfiable, or — since robust
//! justification is NP-hard in general — a node-limit abort.

use pdf_faults::{Assignments, Implicator};
use pdf_logic::{Triple, Value};
use pdf_netlist::{Circuit, LineId, TwoPattern};

/// The definitive result of an exact justification.
#[derive(Clone, Debug)]
pub enum ExactOutcome {
    /// A witness test exists; inputs outside the requirement cone are
    /// filled with 0.
    Satisfiable(TwoPattern),
    /// No two-pattern test satisfies the requirements.
    Unsatisfiable,
    /// The search exceeded its node limit before deciding.
    LimitExceeded,
}

impl ExactOutcome {
    /// Returns the witness test, if satisfiable.
    #[must_use]
    pub fn test(&self) -> Option<&TwoPattern> {
        match self {
            ExactOutcome::Satisfiable(t) => Some(t),
            _ => None,
        }
    }

    /// Returns `true` for [`ExactOutcome::Satisfiable`].
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, ExactOutcome::Satisfiable(_))
    }
}

/// A complete, deterministic justification engine.
///
/// # Example
///
/// ```
/// use pdf_atpg::ExactJustifier;
/// use pdf_faults::{robust_assignments, PathDelayFault, Polarity};
/// use pdf_netlist::{iscas::s27, LineId};
/// use pdf_paths::Path;
///
/// let circuit = s27();
/// let path: Path = [2usize, 9, 10, 15].iter().map(|&k| LineId::new(k - 1)).collect();
/// let fault = PathDelayFault::new(path, Polarity::SlowToRise);
/// let a = robust_assignments(&circuit, &fault)?;
/// let outcome = ExactJustifier::new(&circuit).justify(&a);
/// assert!(outcome.is_satisfiable());
/// # Ok::<(), pdf_faults::ConditionError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ExactJustifier<'c> {
    circuit: &'c Circuit,
    node_limit: usize,
}

impl<'c> ExactJustifier<'c> {
    /// Creates an engine with a 100 000-node default limit.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> ExactJustifier<'c> {
        ExactJustifier {
            circuit,
            node_limit: 100_000,
        }
    }

    /// Sets the node (decision) limit.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> ExactJustifier<'c> {
        self.node_limit = limit.max(1);
        self
    }

    /// Decides whether a two-pattern test satisfying `req` exists.
    #[must_use]
    pub fn justify(&self, req: &Assignments) -> ExactOutcome {
        // Cone primary inputs: only they influence the constrained lines.
        let cone_pis = cone_inputs(self.circuit, req);
        let Ok(mut imp) = Implicator::from_assignments(self.circuit, req) else {
            return ExactOutcome::Unsatisfiable;
        };
        let mut nodes = 0usize;
        match self.search(req, &cone_pis, &mut imp, &mut nodes) {
            Search::Found(test) => ExactOutcome::Satisfiable(test),
            Search::Exhausted => ExactOutcome::Unsatisfiable,
            Search::Limit => ExactOutcome::LimitExceeded,
        }
    }

    fn search(
        &self,
        req: &Assignments,
        cone_pis: &[LineId],
        imp: &mut Implicator<'c>,
        nodes: &mut usize,
    ) -> Search {
        // Find the next undecided (input, pattern) slot.
        let next = cone_pis.iter().find_map(|&pi| {
            let v = imp.value(pi);
            if !v.first().is_specified() {
                Some((pi, 0))
            } else if !v.last().is_specified() {
                Some((pi, 2))
            } else {
                None
            }
        });
        let Some((pi, slot)) = next else {
            // Fully decided. The implication state asserts the
            // requirements rather than deriving them, so the leaf must be
            // validated by an actual hazard-conservative simulation of the
            // candidate test.
            let test = self.witness(cone_pis, imp);
            let waves = pdf_sim::waveforms(self.circuit, &test);
            if req.satisfied_by(&waves) {
                return Search::Found(test);
            }
            return Search::Exhausted;
        };
        *nodes += 1;
        if *nodes > self.node_limit {
            return Search::Limit;
        }
        for value in [Value::Zero, Value::One] {
            let v = imp.value(pi);
            let triple = if slot == 0 {
                Triple::new(value, v.mid(), v.last())
            } else {
                Triple::new(v.first(), v.mid(), value)
            };
            let mark = imp.mark();
            if imp.assign(pi, triple).is_ok() && imp.propagate().is_ok() {
                match self.search(req, cone_pis, imp, nodes) {
                    Search::Exhausted => {}
                    other => return other,
                }
            }
            imp.undo_to(mark);
        }
        Search::Exhausted
    }

    fn witness(&self, cone_pis: &[LineId], imp: &Implicator<'c>) -> TwoPattern {
        let inputs = self.circuit.inputs();
        let mut v1 = vec![Value::Zero; inputs.len()];
        let mut v2 = vec![Value::Zero; inputs.len()];
        for (slot, &input) in inputs.iter().enumerate() {
            if cone_pis.contains(&input) {
                let v = imp.value(input);
                v1[slot] = v.first();
                v2[slot] = v.last();
            }
        }
        TwoPattern::new(v1, v2)
    }
}

enum Search {
    Found(TwoPattern),
    Exhausted,
    Limit,
}

fn cone_inputs(circuit: &Circuit, req: &Assignments) -> Vec<LineId> {
    let member = circuit.fanin_cone(req.lines());
    circuit
        .inputs()
        .iter()
        .copied()
        .filter(|l| member[l.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Justifier;
    use pdf_faults::FaultList;
    use pdf_netlist::iscas::s27;
    use pdf_netlist::simulate_triples;
    use pdf_paths::PathEnumerator;

    #[test]
    fn exact_agrees_with_witness_simulation() {
        let c = s27();
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        for e in faults.iter() {
            let outcome = ExactJustifier::new(&c).justify(&e.assignments);
            if let ExactOutcome::Satisfiable(test) = &outcome {
                let waves = simulate_triples(&c, &test.to_triples());
                assert!(
                    e.assignments.satisfied_by(&waves),
                    "witness for {} must detect it",
                    e.fault
                );
            }
        }
    }

    #[test]
    fn exact_dominates_randomized_engine() {
        // Whatever the randomized engine justifies, the exact engine must
        // agree is satisfiable.
        let c = s27();
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        let mut j = Justifier::new(&c, 13).with_attempts(2);
        for e in faults.iter() {
            if j.justify(&e.assignments).is_some() {
                assert!(
                    ExactJustifier::new(&c)
                        .justify(&e.assignments)
                        .is_satisfiable(),
                    "{}",
                    e.fault
                );
            }
        }
    }

    #[test]
    fn unsatisfiable_requirements_proven() {
        let c = s27();
        let mut req = Assignments::new();
        // Line 8 = NOT(line 1): both stable 1 is impossible.
        req.require(LineId::new(0), Triple::STABLE1).unwrap();
        req.require(LineId::new(7), Triple::STABLE1).unwrap();
        assert!(matches!(
            ExactJustifier::new(&c).justify(&req),
            ExactOutcome::Unsatisfiable
        ));
    }

    #[test]
    fn node_limit_reported() {
        let c = s27();
        // An empty requirement is instantly satisfiable even at limit 1.
        let req = Assignments::new();
        let out = ExactJustifier::new(&c).with_node_limit(1).justify(&req);
        assert!(out.is_satisfiable());
    }
}
