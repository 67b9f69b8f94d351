//! SCOAP-style testability analysis.
//!
//! One forward topological sweep computes the combinational
//! controllabilities `CC0`/`CC1` (the classic Goldstein measures: the
//! minimum number of line assignments needed to set a line to 0/1), and
//! one backward sweep computes the observability `CO` (assignments needed
//! to propagate the line to a primary output). All arithmetic saturates
//! at `u32::MAX` so reconvergent blow-ups stay ordered instead of
//! wrapping.
//!
//! The measures feed two consumers:
//!
//! * the justifier's guided completion phase, where they replace the
//!   random branch pick with a deterministic hardest-line-first,
//!   easiest-value decision (via `pdf_atpg`'s guide hook), and
//! * the generation session's primary fault ordering, where a fault's
//!   difficulty is the summed controllability cost of its necessary
//!   assignment set.

use pdf_logic::{GateKind, Value};
use pdf_netlist::{Circuit, LineId, LineKind};

/// Per-line SCOAP measures of one circuit.
///
/// # Example
///
/// ```
/// use pdf_analyze::Testability;
/// use pdf_netlist::iscas::s27;
///
/// let circuit = s27();
/// let t = Testability::of(&circuit);
/// let input = circuit.inputs()[0];
/// assert_eq!(t.cc0(input), 1);
/// assert_eq!(t.cc1(input), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Testability {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

impl Testability {
    /// Computes the measures in one forward and one backward topological
    /// pass over `circuit`.
    #[must_use]
    pub fn of(circuit: &Circuit) -> Testability {
        let n = circuit.line_count();
        let mut cc0 = vec![0u32; n];
        let mut cc1 = vec![0u32; n];
        for &id in circuit.topo_order() {
            let (c0, c1) = match circuit.kind(id) {
                LineKind::Input => (1, 1),
                LineKind::Branch { stem } => (cc0[stem.index()], cc1[stem.index()]),
                LineKind::Gate(kind) => gate_controllability(*kind, circuit.fanin(id), &cc0, &cc1),
            };
            cc0[id.index()] = c0;
            cc1[id.index()] = c1;
        }

        let mut co = vec![u32::MAX; n];
        for &id in circuit.topo_order().iter().rev() {
            if circuit.line(id).is_output() {
                co[id.index()] = 0;
                continue;
            }
            // Every sink is topologically later, so its CO is already
            // final in this reverse sweep: a gate input pays the sink's
            // CO plus its siblings' non-controlling costs, a stem
            // observes through its cheapest branch for free.
            co[id.index()] = circuit
                .fanout(id)
                .iter()
                .map(|&f| sink_observability(circuit, f, id, &cc0, &cc1, &co))
                .min()
                .unwrap_or(u32::MAX);
        }
        Testability { cc0, cc1, co }
    }

    /// `CC0`: cost of setting `line` to 0.
    #[inline]
    #[must_use]
    pub fn cc0(&self, line: LineId) -> u32 {
        self.cc0[line.index()]
    }

    /// `CC1`: cost of setting `line` to 1.
    #[inline]
    #[must_use]
    pub fn cc1(&self, line: LineId) -> u32 {
        self.cc1[line.index()]
    }

    /// `CO`: cost of observing `line` at a primary output (`u32::MAX`
    /// for unobservable lines).
    #[inline]
    #[must_use]
    pub fn co(&self, line: LineId) -> u32 {
        self.co[line.index()]
    }

    /// A line's overall difficulty: the harder controllability plus the
    /// observability, saturating. Orders lines for guided search and
    /// faults (via their assignment sets) for generation.
    #[must_use]
    pub fn difficulty(&self, line: LineId) -> u32 {
        let cc = self.cc0(line).max(self.cc1(line));
        cc.saturating_add(self.co(line))
    }

    /// The raw `CC0` table, indexed by [`LineId::index`] — the shape the
    /// justifier's guide hook consumes.
    #[must_use]
    pub fn cc0_table(&self) -> &[u32] {
        &self.cc0
    }

    /// The raw `CC1` table, indexed by [`LineId::index`].
    #[must_use]
    pub fn cc1_table(&self) -> &[u32] {
        &self.cc1
    }
}

/// SCOAP controllabilities of a gate output from its input tables.
fn gate_controllability(kind: GateKind, fanin: &[LineId], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let sum = |table: &[u32]| {
        fanin
            .iter()
            .fold(0u32, |a, f| a.saturating_add(table[f.index()]))
            .saturating_add(1)
    };
    let min = |table: &[u32]| {
        fanin
            .iter()
            .map(|f| table[f.index()])
            .min()
            .unwrap_or(0)
            .saturating_add(1)
    };
    match kind {
        GateKind::Buf => (min(cc0), min(cc1)),
        GateKind::Not => (min(cc1), min(cc0)),
        GateKind::And => (min(cc0), sum(cc1)),
        GateKind::Nand => (sum(cc1), min(cc0)),
        GateKind::Or => (sum(cc0), min(cc1)),
        GateKind::Nor => (min(cc1), sum(cc0)),
        GateKind::Xor | GateKind::Xnor => {
            // Fold the classic two-input parity rule across the fanin.
            let mut acc: Option<(u32, u32)> = None;
            for f in fanin {
                let (b0, b1) = (cc0[f.index()], cc1[f.index()]);
                acc = Some(match acc {
                    None => (b0, b1),
                    Some((a0, a1)) => (
                        a0.saturating_add(b0).min(a1.saturating_add(b1)),
                        a0.saturating_add(b1).min(a1.saturating_add(b0)),
                    ),
                });
            }
            let (even, odd) = acc.unwrap_or((0, 0));
            let (c0, c1) = if matches!(kind, GateKind::Xor) {
                (even, odd)
            } else {
                (odd, even)
            };
            (c0.saturating_add(1), c1.saturating_add(1))
        }
    }
}

/// The cost of observing `through` (a fanin of gate-or-branch `sink`) at
/// a primary output: the sink's own observability plus the cost of
/// holding every sibling input at the sink gate's non-controlling value.
fn sink_observability(
    circuit: &Circuit,
    sink: LineId,
    through: LineId,
    cc0: &[u32],
    cc1: &[u32],
    co: &[u32],
) -> u32 {
    let base = co[sink.index()];
    let LineKind::Gate(kind) = circuit.kind(sink) else {
        // Branch sink: identity, no sibling cost.
        return base;
    };
    let siblings = circuit.fanin(sink).iter().filter(|&&f| f != through);
    let sibling_cost = match kind.noncontrolling_value() {
        Some(Value::Zero) => siblings.fold(0u32, |a, f| a.saturating_add(cc0[f.index()])),
        Some(Value::One) => siblings.fold(0u32, |a, f| a.saturating_add(cc1[f.index()])),
        // Parity or single-input gate: a sibling passes the transition
        // whichever value it holds; charge its cheaper side.
        _ => siblings.fold(0u32, |a, f| {
            a.saturating_add(cc0[f.index()].min(cc1[f.index()]))
        }),
    };
    base.saturating_add(sibling_cost).saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::CircuitBuilder;

    #[test]
    fn and2_controllabilities() {
        let mut b = CircuitBuilder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]);
        b.mark_output(g);
        let c = b.finish().unwrap();
        let t = Testability::of(&c);
        // AND: CC0 = min(1,1)+1 = 2; CC1 = 1+1+1 = 3.
        assert_eq!(t.cc0(g), 2);
        assert_eq!(t.cc1(g), 3);
        assert_eq!(t.co(g), 0);
        // Observing x needs y at non-controlling 1: CO = 0 + CC1(y) + 1.
        assert_eq!(t.co(x), 2);
        assert_eq!(t.difficulty(x), 3);
    }

    #[test]
    fn inverter_swaps_controllabilities() {
        let mut b = CircuitBuilder::new("inv");
        let x = b.input("x");
        let g = b.gate("g", GateKind::Not, &[x]);
        b.mark_output(g);
        let c = b.finish().unwrap();
        let t = Testability::of(&c);
        assert_eq!(t.cc0(g), 2); // needs x = 1
        assert_eq!(t.cc1(g), 2); // needs x = 0
        assert_eq!(t.co(x), 1);
    }

    #[test]
    fn stem_observes_through_cheapest_branch() {
        // s fans out to an AND (expensive sibling chain) and a NOT
        // (free): the stem must take the NOT's cost.
        let mut b = CircuitBuilder::new("fan");
        let s = b.input("s");
        let x = b.input("x");
        let y = b.input("y");
        let s1 = b.branch("s1", s);
        let s2 = b.branch("s2", s);
        let big = b.gate("big", GateKind::And, &[x, y]);
        let g1 = b.gate("g1", GateKind::And, &[s1, big]);
        let g2 = b.gate("g2", GateKind::Not, &[s2]);
        b.mark_output(g1);
        b.mark_output(g2);
        let c = b.finish().unwrap();
        let t = Testability::of(&c);
        // Branch controllabilities mirror the stem's.
        assert_eq!(t.cc0(s1), t.cc0(s));
        // Through g2: CO = 0 + 1 = 1. Through g1: 0 + CC1(big) + 1 = 4.
        assert_eq!(t.co(s2), 1);
        assert_eq!(t.co(s1), 4);
        assert_eq!(t.co(s), 1);
    }

    #[test]
    fn scoap_sweeps_cover_s27() {
        let c = pdf_netlist::iscas::s27();
        let t = Testability::of(&c);
        for &id in c.topo_order() {
            assert!(t.cc0(id) >= 1, "line {id} CC0");
            assert!(t.cc1(id) >= 1, "line {id} CC1");
            assert!(t.co(id) < u32::MAX, "line {id} CO unobservable");
        }
    }
}
