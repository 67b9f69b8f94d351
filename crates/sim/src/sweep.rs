//! The one-byte waveform sweep: one test's waveforms on every line.
//!
//! A justified test's witness and `pdfatpg sim` need the triple of every
//! line under a single test. That is the packed kernel's rail algebra at
//! one lane, so the sweep reuses it on bytes: each line is one byte holding
//! its six rails in plane order (`α1⁰ α1¹ α2⁰ α2¹ α3⁰ α3¹`, bit 0 first),
//! one walk in topological order folds each gate's fanin bytes, a branch
//! copies its stem's byte, and a 64-entry table decodes the bytes into
//! triples at the end. [`pdf_netlist::simulate_triples`] computes the same
//! waveforms and stays as the test oracle.

use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{Circuit, LineKind, TwoPattern};

/// The zero rails of a byte: bits 0, 2 and 4.
const ZERO_RAILS: u8 = 0b01_0101;
/// The one rails of a byte: bits 1, 3 and 5.
const ONE_RAILS: u8 = 0b10_1010;

#[inline]
fn and(a: u8, b: u8) -> u8 {
    ((a | b) & ZERO_RAILS) | (a & b & ONE_RAILS)
}

#[inline]
fn or(a: u8, b: u8) -> u8 {
    (a & b & ZERO_RAILS) | ((a | b) & ONE_RAILS)
}

/// Swaps every component's zero and one rail.
#[inline]
fn not(a: u8) -> u8 {
    ((a & ZERO_RAILS) << 1) | ((a & ONE_RAILS) >> 1)
}

#[inline]
fn xor(a: u8, b: u8) -> u8 {
    // `same` pairs equal rails (0∧0 on the zero bit, 1∧1 on the one bit),
    // `cross` opposite ones (1∧0 on the zero bit, 0∧1 on the one bit).
    let same = a & b;
    let cross = not(a) & b;
    (same & ZERO_RAILS)
        | ((same & ONE_RAILS) >> 1)
        | ((cross & ZERO_RAILS) << 1)
        | (cross & ONE_RAILS)
}

/// The rail byte of a primary input under the pattern pair `(first,
/// last)`: the intermediate component is specified exactly where both
/// pattern values agree, as [`Triple::from_patterns`] derives it.
#[inline]
fn input_byte(first: Value, last: Value) -> u8 {
    let f0 = u8::from(first == Value::Zero);
    let f1 = u8::from(first == Value::One);
    let l0 = u8::from(last == Value::Zero);
    let l1 = u8::from(last == Value::One);
    f0 | f1 << 1 | (f0 & l0) << 2 | (f1 & l1) << 3 | l0 << 4 | l1 << 5
}

/// Every rail byte's triple. A zero rail wins over a one rail, as in
/// [`crate::PackedBlock::triple`]; the sweep never sets both.
const DECODE: [Triple; 64] = {
    let mut table = [Triple::UNKNOWN; 64];
    let mut byte = 0;
    while byte < 64 {
        let mut comps = [Value::X; 3];
        let mut c = 0;
        while c < 3 {
            comps[c] = if byte >> (2 * c) & 1 == 1 {
                Value::Zero
            } else if byte >> (2 * c + 1) & 1 == 1 {
                Value::One
            } else {
                Value::X
            };
            c += 1;
        }
        table[byte] = Triple::new(comps[0], comps[1], comps[2]);
        byte += 1;
    }
    table
};

/// The waveform of every line of `circuit` under `test`, indexed by
/// [`LineId::index`](pdf_netlist::LineId::index) — the same triples as
/// `simulate_triples(circuit, &test.to_triples())`, from one byte per
/// line.
///
/// # Panics
///
/// Panics if `test` does not hold one value per primary input.
///
/// # Example
///
/// ```
/// use pdf_logic::Value;
/// use pdf_netlist::{iscas, simulate_triples, TwoPattern};
///
/// let circuit = iscas::c17();
/// let n = circuit.inputs().len();
/// let test = TwoPattern::new(vec![Value::Zero; n], vec![Value::One; n]);
/// assert_eq!(
///     pdf_sim::waveforms(&circuit, &test),
///     simulate_triples(&circuit, &test.to_triples()),
/// );
/// ```
#[must_use]
pub fn waveforms(circuit: &Circuit, test: &TwoPattern) -> Vec<Triple> {
    assert_eq!(
        test.len(),
        circuit.inputs().len(),
        "one value per primary input required"
    );
    let mut bytes = vec![0u8; circuit.line_count()];
    for ((&id, &first), &last) in circuit.inputs().iter().zip(test.first()).zip(test.second()) {
        bytes[id.index()] = input_byte(first, last);
    }
    for &id in circuit.topo_order() {
        bytes[id.index()] = match circuit.kind(id) {
            LineKind::Input => continue,
            LineKind::Branch { stem } => bytes[stem.index()],
            LineKind::Gate(kind) => {
                let fanin = circuit.fanin(id);
                let first = bytes[fanin[0].index()];
                let rest = fanin[1..].iter().map(|f| bytes[f.index()]);
                let folded = match kind {
                    GateKind::And | GateKind::Nand => rest.fold(first, and),
                    GateKind::Or | GateKind::Nor => rest.fold(first, or),
                    GateKind::Xor | GateKind::Xnor => rest.fold(first, xor),
                    GateKind::Not | GateKind::Buf => first,
                };
                if kind.inverts() {
                    not(folded)
                } else {
                    folded
                }
            }
        };
    }
    bytes.into_iter().map(|b| DECODE[usize::from(b)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::{iscas, simulate_triples};

    /// The byte of a triple, built component by component.
    fn byte_of(t: Triple) -> u8 {
        t.components()
            .into_iter()
            .enumerate()
            .map(|(c, v)| match v {
                Value::Zero => 1 << (2 * c),
                Value::One => 2 << (2 * c),
                Value::X => 0,
            })
            .sum()
    }

    fn all_triples() -> Vec<Triple> {
        let mut out = Vec::new();
        for a in Value::ALL {
            for b in Value::ALL {
                for c in Value::ALL {
                    out.push(Triple::new(a, b, c));
                }
            }
        }
        out
    }

    #[test]
    fn rail_ops_match_the_triple_algebra() {
        for a in all_triples() {
            assert_eq!(DECODE[usize::from(byte_of(a))], a);
            assert_eq!(DECODE[usize::from(not(byte_of(a)))], a.negate(), "{a}");
            for b in all_triples() {
                let (x, y) = (byte_of(a), byte_of(b));
                assert_eq!(DECODE[usize::from(and(x, y))], a.and(b), "{a} and {b}");
                assert_eq!(DECODE[usize::from(or(x, y))], a.or(b), "{a} or {b}");
                assert_eq!(DECODE[usize::from(xor(x, y))], a.xor(b), "{a} xor {b}");
            }
        }
    }

    #[test]
    fn input_bytes_match_from_patterns() {
        for first in Value::ALL {
            for last in Value::ALL {
                assert_eq!(
                    DECODE[usize::from(input_byte(first, last))],
                    Triple::from_patterns(first, last)
                );
            }
        }
    }

    #[test]
    fn matches_the_scalar_oracle_on_s27_with_x_inputs() {
        let c = iscas::s27();
        let n = c.inputs().len();
        for k in 0..3usize.pow(6) {
            let v = |salt: usize| -> Vec<Value> {
                (0..n)
                    .map(|i| Value::ALL[(k / 3usize.pow((i + salt) as u32 % 6)) % 3])
                    .collect()
            };
            let test = TwoPattern::new(v(0), v(2));
            assert_eq!(
                waveforms(&c, &test),
                simulate_triples(&c, &test.to_triples()),
                "{test}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one value per primary input")]
    fn wrong_width_panics() {
        let _ = waveforms(&iscas::c17(), &TwoPattern::unspecified(2));
    }
}
