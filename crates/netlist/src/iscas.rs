//! Reference benchmark circuits.
//!
//! [`s27`] reproduces, line for line, the combinational logic of ISCAS-89
//! `s27` exactly as numbered in Figure 1 of Pomeranz & Reddy (DATE 2002):
//! lines 1–7 are the (pseudo) primary inputs, lines 8–26 the gate stems and
//! fanout branches, and lines 15, 24, 25 and 26 the (pseudo) primary
//! outputs. Because [`LineId`](crate::LineId) displays 1-based, paths print
//! with the paper's numbers — e.g. the slow-to-rise example path
//! `(2,9,10,15)`.
//!
//! The mapping to the original gate names is:
//!
//! | paper line | signal | function |
//! |-----------:|--------|----------|
//! | 1–4        | G0–G3  | primary inputs |
//! | 5–7        | G5–G7  | flip-flop outputs (pseudo inputs) |
//! | 8          | G14    | `NOT(1)` |
//! | 9          | G12    | `NOR(2,7)` |
//! | 10, 11     | —      | branches of 9 (to 15, to 18) |
//! | 12, 13     | —      | branches of 8 (to 25, to 14) |
//! | 14         | G8     | `AND(13,6)` |
//! | 15         | G13    | `NOR(3,10)` — pseudo output |
//! | 16, 17     | —      | branches of 14 (to 19, to 18) |
//! | 18         | G15    | `OR(11,17)` |
//! | 19         | G16    | `OR(4,16)` |
//! | 20         | G9     | `NAND(19,18)` |
//! | 21         | G11    | `NOR(5,20)` |
//! | 22, 23, 24 | —      | branches of 21 (to 25, to 26, pseudo output) |
//! | 25         | G10    | `NOR(12,22)` — pseudo output |
//! | 26         | G17    | `NOT(23)` — primary output |

use pdf_logic::GateKind;

use crate::{parse_bench_named, Circuit, CircuitBuilder, Netlist};

/// The original sequential `s27` in `.bench` form.
pub const S27_BENCH: &str = "\
# s27 (ISCAS-89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

/// The sequential gate-level `s27` netlist (4 inputs, 1 output, 3
/// flip-flops, 10 gates).
///
/// # Panics
///
/// Never — the embedded text is valid by construction (covered by tests).
#[must_use]
pub fn s27_netlist() -> Netlist {
    parse_bench_named(S27_BENCH, "s27", "embedded:s27").expect("embedded s27 is valid")
}

/// The combinational logic of `s27` at the line level, with lines numbered
/// exactly as in the paper's Figure 1 (paper line *k* is
/// `LineId::new(k - 1)`).
///
/// ```
/// use pdf_netlist::{iscas::s27, LineId};
///
/// let c = s27();
/// assert_eq!(c.line_count(), 26);
/// // Line 9 is the NOR(2,7) stem (signal G12).
/// assert_eq!(c.line(LineId::new(8)).name(), "G12");
/// // The longest path of s27 has 10 lines.
/// assert_eq!(c.critical_delay(), 10);
/// ```
#[must_use]
pub fn s27() -> Circuit {
    let mut b = CircuitBuilder::new("s27");
    // Lines 1-7: inputs G0-G3 (primary) and G5-G7 (flip-flop outputs).
    let l1 = b.input("G0");
    let l2 = b.input("G1");
    let l3 = b.input("G2");
    let l4 = b.input("G3");
    let l5 = b.input("G5");
    let l6 = b.input("G6");
    let l7 = b.input("G7");
    // Line 8: G14 = NOT(G0).
    let l8 = b.gate("G14", GateKind::Not, &[l1]);
    // Line 9: G12 = NOR(G1, G7).
    let l9 = b.gate("G12", GateKind::Nor, &[l2, l7]);
    // Lines 10, 11: branches of 9 into G13 (line 15) and G15 (line 18).
    let l10 = b.branch("G12->G13", l9);
    let l11 = b.branch("G12->G15", l9);
    // Lines 12, 13: branches of 8 into G10 (line 25) and G8 (line 14).
    let l12 = b.branch("G14->G10", l8);
    let l13 = b.branch("G14->G8", l8);
    // Line 14: G8 = AND(G14, G6).
    let l14 = b.gate("G8", GateKind::And, &[l13, l6]);
    // Line 15: G13 = NOR(G2, G12) — flip-flop data input, pseudo output.
    let l15 = b.gate("G13", GateKind::Nor, &[l3, l10]);
    // Lines 16, 17: branches of 14 into G16 (line 19) and G15 (line 18).
    let l16 = b.branch("G8->G16", l14);
    let l17 = b.branch("G8->G15", l14);
    // Line 18: G15 = OR(G12, G8).
    let l18 = b.gate("G15", GateKind::Or, &[l11, l17]);
    // Line 19: G16 = OR(G3, G8).
    let l19 = b.gate("G16", GateKind::Or, &[l4, l16]);
    // Line 20: G9 = NAND(G16, G15).
    let l20 = b.gate("G9", GateKind::Nand, &[l19, l18]);
    // Line 21: G11 = NOR(G5, G9).
    let l21 = b.gate("G11", GateKind::Nor, &[l5, l20]);
    // Lines 22, 23, 24: branches of 21 into G10 (line 25), G17 (line 26),
    // and the flip-flop data sink (pseudo output).
    let l22 = b.branch("G11->G10", l21);
    let l23 = b.branch("G11->G17", l21);
    let l24 = b.branch("G11->out", l21);
    // Line 25: G10 = NOR(G14, G11) — pseudo output.
    let l25 = b.gate("G10", GateKind::Nor, &[l12, l22]);
    // Line 26: G17 = NOT(G11) — the primary output.
    let l26 = b.gate("G17", GateKind::Not, &[l23]);

    b.mark_output(l15);
    b.mark_output(l24);
    b.mark_output(l25);
    b.mark_output(l26);
    b.finish().expect("hand-built s27 is valid")
}

/// The ISCAS-85 `c17` circuit in `.bench` form (the classic 6-NAND
/// example), useful as a tiny purely combinational playground.
pub const C17_BENCH: &str = "\
# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

/// The `c17` circuit at the line level.
///
/// # Panics
///
/// Never — the embedded text is valid by construction (covered by tests).
#[must_use]
pub fn c17() -> Circuit {
    parse_bench_named(C17_BENCH, "c17", "embedded:c17")
        .expect("embedded c17 is valid")
        .to_circuit()
        .expect("c17 is purely combinational")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_values, LineId};
    use pdf_logic::Value;

    /// Paper line number -> LineId.
    fn line(k: usize) -> LineId {
        LineId::new(k - 1)
    }

    #[test]
    fn s27_has_paper_structure() {
        let c = s27();
        assert_eq!(c.line_count(), 26);
        assert_eq!(c.inputs().len(), 7);
        assert_eq!(c.outputs(), &[line(15), line(24), line(25), line(26)]);
        assert_eq!(c.gate_count(), 10);
        assert_eq!(c.branch_count(), 9);
        assert_eq!(c.critical_delay(), 10);
    }

    #[test]
    fn s27_longest_path_is_the_papers() {
        // (1,8,13,14,16,19,20,21,22,25) has 10 lines; verify connectivity.
        let c = s27();
        let seq = [1usize, 8, 13, 14, 16, 19, 20, 21, 22, 25];
        for w in seq.windows(2) {
            let from = line(w[0]);
            let to = line(w[1]);
            assert!(
                c.fanin(to).contains(&from),
                "line {} must feed line {}",
                w[0],
                w[1]
            );
        }
        assert!(c.line(line(25)).is_output());
    }

    #[test]
    fn s27_matches_bench_parsed_version_structurally() {
        let hand = s27();
        let parsed = s27_netlist().combinational_core().to_circuit().unwrap();
        assert_eq!(hand.line_count(), parsed.line_count());
        assert_eq!(hand.gate_count(), parsed.gate_count());
        assert_eq!(hand.branch_count(), parsed.branch_count());
        assert_eq!(hand.path_count(), parsed.path_count());
        assert_eq!(hand.critical_delay(), parsed.critical_delay());
    }

    #[test]
    fn s27_hand_built_is_logic_equivalent_to_parsed() {
        let hand = s27();
        let parsed = s27_netlist().combinational_core().to_circuit().unwrap();
        // Hand-built input order: G0 G1 G2 G3 G5 G6 G7.
        // Parsed core input order: G0 G1 G2 G3 then dff outputs G5 G6 G7.
        let out_hand: Vec<_> = ["G13", "G11->out", "G10", "G17"]
            .iter()
            .map(|n| hand.find_line(n).unwrap())
            .collect();
        let out_parsed: Vec<_> = ["G13", "G11->out", "G10", "G17"]
            .iter()
            .map(|n| parsed.find_line(n).unwrap())
            .collect();
        for bits in 0..128u32 {
            let inputs: Vec<Value> = (0..7).map(|i| Value::from(bits >> i & 1 == 1)).collect();
            let vh = simulate_values(&hand, &inputs);
            let vp = simulate_values(&parsed, &inputs);
            for (h, p) in out_hand.iter().zip(&out_parsed) {
                assert_eq!(vh[h.index()], vp[p.index()], "bits={bits:07b}");
            }
        }
    }

    #[test]
    fn s27_fanout_branches_follow_paper_numbering() {
        let c = s27();
        // 10, 11 branch from 9; 12, 13 from 8; 16, 17 from 14; 22-24 from 21.
        for (br, stem) in [
            (10, 9),
            (11, 9),
            (12, 8),
            (13, 8),
            (16, 14),
            (17, 14),
            (22, 21),
            (23, 21),
            (24, 21),
        ] {
            assert_eq!(c.fanin(line(br)), &[line(stem)], "branch {br}");
        }
    }

    #[test]
    fn c17_parses_and_evaluates() {
        let c = c17();
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        let o22 = c.find_line("22").unwrap();
        // 22 = NAND(10, 16); with all inputs 0: 10 = NAND(0,0) = 1,
        // 11 = 1, 16 = NAND(0,1) = 1, so 22 = NAND(1,1) = 0.
        let vals = simulate_values(&c, &[Value::Zero; 5]);
        assert_eq!(vals[o22.index()], Value::Zero);
    }

    #[test]
    fn c17_has_eleven_paths() {
        // Known: c17 has 11 physical paths.
        assert_eq!(c17().path_count(), 11);
    }
}
