//! Scalar and two-pattern simulation over the line-level [`Circuit`].

use pdf_logic::{GateKind, Triple, Value};

use crate::{Circuit, LineKind};

/// A two-pattern test: the pair of input vectors `⟨v1, v2⟩` applied in
/// consecutive cycles. Values are indexed by position in
/// [`Circuit::inputs`].
///
/// # Example
///
/// ```
/// use pdf_netlist::{CircuitBuilder, TwoPattern};
/// use pdf_logic::{GateKind, Triple, Value};
///
/// let mut b = CircuitBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.gate("g", GateKind::And, &[a, c]);
/// b.mark_output(g);
/// let circuit = b.finish()?;
///
/// // a rises while c holds 1: the AND output rises.
/// let t = TwoPattern::new(
///     vec![Value::Zero, Value::One],
///     vec![Value::One, Value::One],
/// );
/// let waves = pdf_netlist::simulate_triples(&circuit, &t.to_triples());
/// assert_eq!(waves[g.index()], Triple::RISING);
/// # Ok::<(), pdf_netlist::CircuitError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TwoPattern {
    v1: Vec<Value>,
    v2: Vec<Value>,
}

impl TwoPattern {
    /// Creates a two-pattern test from the first and second input vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    #[must_use]
    pub fn new(v1: Vec<Value>, v2: Vec<Value>) -> TwoPattern {
        assert_eq!(v1.len(), v2.len(), "pattern vectors must have equal length");
        TwoPattern { v1, v2 }
    }

    /// Creates a fully-unspecified test over `n` inputs.
    #[must_use]
    pub fn unspecified(n: usize) -> TwoPattern {
        TwoPattern {
            v1: vec![Value::X; n],
            v2: vec![Value::X; n],
        }
    }

    /// Creates a test directly from per-input triples (the intermediate
    /// components are discarded — they are derived for primary inputs).
    #[must_use]
    pub fn from_triples(triples: &[Triple]) -> TwoPattern {
        TwoPattern {
            v1: triples.iter().map(|t| t.first()).collect(),
            v2: triples.iter().map(|t| t.last()).collect(),
        }
    }

    /// The first input vector.
    #[inline]
    #[must_use]
    pub fn first(&self) -> &[Value] {
        &self.v1
    }

    /// The second input vector.
    #[inline]
    #[must_use]
    pub fn second(&self) -> &[Value] {
        &self.v2
    }

    /// Number of inputs covered by the test.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.v1.len()
    }

    /// Returns `true` if the test covers zero inputs.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.v1.is_empty()
    }

    /// Returns `true` if every input value of both patterns is specified.
    #[must_use]
    pub fn is_fully_specified(&self) -> bool {
        self.v1.iter().chain(&self.v2).all(|v| v.is_specified())
    }

    /// The per-input waveform triples (intermediate values derived as for
    /// primary inputs: stable iff both patterns agree on a specified value).
    #[must_use]
    pub fn to_triples(&self) -> Vec<Triple> {
        self.v1
            .iter()
            .zip(&self.v2)
            .map(|(&a, &b)| Triple::from_patterns(a, b))
            .collect()
    }

    /// Randomly specifies every remaining `x` using `rng_bit` (a closure
    /// returning random booleans), producing a fully-specified test.
    pub fn specify_remaining<F>(&mut self, mut rng_bit: F)
    where
        F: FnMut() -> bool,
    {
        for v in self.v1.iter_mut().chain(self.v2.iter_mut()) {
            if !v.is_specified() {
                *v = Value::from(rng_bit());
            }
        }
    }
}

impl core::fmt::Display for TwoPattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for v in &self.v1 {
            write!(f, "{v}")?;
        }
        f.write_str(" -> ")?;
        for v in &self.v2 {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Simulates one pattern over the circuit in three-valued logic.
///
/// `inputs[i]` is the value of `circuit.inputs()[i]`. Returns the value of
/// every line, indexed by [`LineId::index`](crate::LineId::index).
///
/// # Panics
///
/// Panics if `inputs.len() != circuit.inputs().len()`.
#[must_use]
pub fn simulate_values(circuit: &Circuit, inputs: &[Value]) -> Vec<Value> {
    assert_eq!(
        inputs.len(),
        circuit.inputs().len(),
        "one value per primary input required"
    );
    let mut values = vec![Value::X; circuit.line_count()];
    for (pos, &id) in circuit.inputs().iter().enumerate() {
        values[id.index()] = inputs[pos];
    }
    for &id in circuit.topo_order() {
        match circuit.kind(id) {
            LineKind::Input => {}
            LineKind::Branch { stem } => values[id.index()] = values[stem.index()],
            LineKind::Gate(kind) => {
                values[id.index()] = eval_gate_values(*kind, circuit.fanin(id), &values);
            }
        }
    }
    values
}

/// Simulates a two-pattern waveform over the circuit in the conservative
/// hazard algebra.
///
/// `inputs[i]` is the waveform triple of `circuit.inputs()[i]` (see
/// [`TwoPattern::to_triples`]). Returns the waveform of every line.
///
/// A returned stable triple (`000`/`111`) guarantees the line is
/// hazard-free under the test; an intermediate `x` means a glitch cannot be
/// ruled out. This is precisely the soundness direction robust path delay
/// fault detection requires.
///
/// # Panics
///
/// Panics if `inputs.len() != circuit.inputs().len()`.
#[must_use]
pub fn simulate_triples(circuit: &Circuit, inputs: &[Triple]) -> Vec<Triple> {
    assert_eq!(
        inputs.len(),
        circuit.inputs().len(),
        "one triple per primary input required"
    );
    let mut values = vec![Triple::UNKNOWN; circuit.line_count()];
    for (pos, &id) in circuit.inputs().iter().enumerate() {
        values[id.index()] = inputs[pos];
    }
    for &id in circuit.topo_order() {
        match circuit.kind(id) {
            LineKind::Input => {}
            LineKind::Branch { stem } => values[id.index()] = values[stem.index()],
            LineKind::Gate(kind) => {
                values[id.index()] =
                    kind.eval_triples(circuit.fanin(id).iter().map(|f| values[f.index()]));
            }
        }
    }
    values
}

fn eval_gate_values(kind: GateKind, fanin: &[crate::LineId], values: &[Value]) -> Value {
    kind.eval(fanin.iter().map(|f| values[f.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, NetlistBuilder};
    use pdf_logic::GateKind;

    fn xor_via_nands() -> Circuit {
        // Classic 4-NAND XOR with explicit branches.
        let mut b = CircuitBuilder::new("xor4nand");
        let a = b.input("a");
        let c = b.input("c");
        let a1 = b.branch("a1", a);
        let a2 = b.branch("a2", a);
        let c1 = b.branch("c1", c);
        let c2 = b.branch("c2", c);
        let m = b.gate("m", GateKind::Nand, &[a1, c1]);
        let m1 = b.branch("m1", m);
        let m2 = b.branch("m2", m);
        let p = b.gate("p", GateKind::Nand, &[a2, m1]);
        let q = b.gate("q", GateKind::Nand, &[m2, c2]);
        let z = b.gate("z", GateKind::Nand, &[p, q]);
        b.mark_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn scalar_simulation_computes_xor() {
        let c = xor_via_nands();
        let z = c.find_line("z").unwrap();
        for a in [false, true] {
            for b in [false, true] {
                let vals = simulate_values(&c, &[a.into(), b.into()]);
                assert_eq!(vals[z.index()], Value::from(a ^ b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn scalar_simulation_propagates_x_precisely() {
        let c = xor_via_nands();
        let z = c.find_line("z").unwrap();
        let vals = simulate_values(&c, &[Value::X, Value::Zero]);
        // XOR(x, 0) cannot be resolved.
        assert_eq!(vals[z.index()], Value::X);
    }

    #[test]
    fn triple_simulation_flags_static_hazard() {
        // The 4-NAND XOR has a static hazard when one input transitions:
        // the conservative algebra must keep mid = x on the output.
        let c = xor_via_nands();
        let z = c.find_line("z").unwrap();
        let waves = simulate_triples(&c, &[Triple::RISING, Triple::STABLE1]);
        assert_eq!(waves[z.index()].first(), Value::One);
        assert_eq!(waves[z.index()].last(), Value::Zero);
        assert_eq!(waves[z.index()].mid(), Value::X);
    }

    #[test]
    fn triple_simulation_proves_stability_through_controlling_side() {
        let mut b = CircuitBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.gate("g", GateKind::And, &[a, c]);
        b.mark_output(g);
        let circuit = b.finish().unwrap();
        // c stable 0 pins the output regardless of a's transition.
        let waves = simulate_triples(&circuit, &[Triple::RISING, Triple::STABLE0]);
        assert_eq!(waves[g.index()], Triple::STABLE0);
    }

    #[test]
    fn two_pattern_roundtrip() {
        let t = TwoPattern::new(
            vec![Value::Zero, Value::One, Value::X],
            vec![Value::One, Value::One, Value::Zero],
        );
        let triples = t.to_triples();
        assert_eq!(triples[0], Triple::RISING);
        assert_eq!(triples[1], Triple::STABLE1);
        assert_eq!(triples[2].to_string(), "xx0");
        assert_eq!(TwoPattern::from_triples(&triples), t);
        assert!(!t.is_fully_specified());
    }

    #[test]
    fn specify_remaining_fills_every_x() {
        let mut t = TwoPattern::unspecified(4);
        let mut flip = false;
        t.specify_remaining(|| {
            flip = !flip;
            flip
        });
        assert!(t.is_fully_specified());
    }

    #[test]
    fn parity_decomposition_is_logic_equivalent() {
        for (kind, fanin) in [
            (GateKind::Xor, &["a", "b", "c"][..]),
            (GateKind::Xor, &["a"][..]),
            (GateKind::Xnor, &["a"][..]),
        ] {
            let mut b = NetlistBuilder::new("par");
            b.input("a").input("b").input("c").output("z");
            b.gate(kind, "z", fanin);
            // Keep the inputs a one-input gate leaves unread observable.
            b.gate(GateKind::And, "u", &["b", "c"]).output("u");
            let n = b.finish().unwrap();
            let keep = n.to_circuit_with(true).unwrap();
            let deco = n.decompose_parity().to_circuit().unwrap();
            let zk = keep.find_line("z").unwrap();
            let zd = deco.find_line("z").unwrap();
            for bits in 0..8u8 {
                let inputs: Vec<Value> = (0..3).map(|i| Value::from(bits >> i & 1 == 1)).collect();
                let vk = simulate_values(&keep, &inputs);
                let vd = simulate_values(&deco, &inputs);
                assert_eq!(vk[zk.index()], vd[zd.index()], "{kind:?} bits={bits:03b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one value per primary input")]
    fn wrong_input_arity_panics() {
        let c = xor_via_nands();
        let _ = simulate_values(&c, &[Value::Zero]);
    }
}
