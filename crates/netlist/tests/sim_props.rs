//! Circuit-level property tests: simulation monotonicity (refining the
//! inputs never flips a specified line value) and structural invariants
//! of the branch expansion.

use proptest::prelude::*;

use pdf_logic::Value;
use pdf_netlist::{simulate_triples, simulate_values, Circuit, LineKind, SynthProfile, TwoPattern};

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..8, 10usize..50, 3usize..7, any::<u64>()).prop_map(|(inputs, gates, levels, seed)| {
        SynthProfile::new("sim", seed)
            .with_inputs(inputs)
            .with_gates(gates)
            .with_levels(levels)
            .generate()
            .to_circuit()
            .expect("generated netlists are valid")
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Zero), Just(Value::One), Just(Value::X)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulation_is_monotone_in_input_specification(
        (c, partial, fill) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (
                Just(c),
                proptest::collection::vec((arb_value(), arb_value()), n),
                proptest::collection::vec((any::<bool>(), any::<bool>()), n),
            )
        })
    ) {
        // Build a partial test and a full refinement of it.
        let coarse = TwoPattern::new(
            partial.iter().map(|p| p.0).collect(),
            partial.iter().map(|p| p.1).collect(),
        );
        let refine = |v: Value, b: bool| if v.is_specified() { v } else { Value::from(b) };
        let fine = TwoPattern::new(
            partial.iter().zip(&fill).map(|(p, f)| refine(p.0, f.0)).collect(),
            partial.iter().zip(&fill).map(|(p, f)| refine(p.1, f.1)).collect(),
        );
        let coarse_waves = simulate_triples(&c, &coarse.to_triples());
        let fine_waves = simulate_triples(&c, &fine.to_triples());
        for i in 0..c.line_count() {
            let a = coarse_waves[i];
            let b = fine_waves[i];
            for (x, y) in a.components().iter().zip(b.components().iter()) {
                prop_assert!(
                    !x.is_specified() || x == y,
                    "line {i}: {a} not refined by {b}"
                );
            }
        }
    }

    #[test]
    fn branches_always_mirror_their_stems(
        (c, test) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            let t = proptest::collection::vec((any::<bool>(), any::<bool>()), n)
                .prop_map(|bits| TwoPattern::new(
                    bits.iter().map(|b| Value::from(b.0)).collect(),
                    bits.iter().map(|b| Value::from(b.1)).collect(),
                ));
            (Just(c), t)
        })
    ) {
        let waves = simulate_triples(&c, &test.to_triples());
        for (id, _) in c.iter() {
            if let LineKind::Branch { stem } = c.kind(id) {
                prop_assert_eq!(waves[id.index()], waves[stem.index()]);
            }
        }
    }

    #[test]
    fn fully_specified_inputs_fully_specify_first_and_last(
        (c, test) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            let t = proptest::collection::vec((any::<bool>(), any::<bool>()), n)
                .prop_map(|bits| TwoPattern::new(
                    bits.iter().map(|b| Value::from(b.0)).collect(),
                    bits.iter().map(|b| Value::from(b.1)).collect(),
                ));
            (Just(c), t)
        })
    ) {
        let waves = simulate_triples(&c, &test.to_triples());
        let v1 = simulate_values(&c, test.first());
        let v2 = simulate_values(&c, test.second());
        for i in 0..c.line_count() {
            prop_assert!(waves[i].first().is_specified());
            prop_assert!(waves[i].last().is_specified());
            prop_assert_eq!(waves[i].first(), v1[i]);
            prop_assert_eq!(waves[i].last(), v2[i]);
        }
    }

    #[test]
    fn stable_equal_patterns_make_every_line_stable(
        (c, bits) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), proptest::collection::vec(any::<bool>(), n))
        })
    ) {
        // Applying the same vector twice: nothing can glitch anywhere.
        let v: Vec<Value> = bits.iter().map(|&b| Value::from(b)).collect();
        let test = TwoPattern::new(v.clone(), v);
        let waves = simulate_triples(&c, &test.to_triples());
        for (i, w) in waves.iter().enumerate() {
            prop_assert!(w.is_stable(), "line {i}: {w}");
        }
    }

    #[test]
    fn structural_counts_are_conserved(c in arb_circuit()) {
        // inputs + gates + branches = lines; every sink of a multi-sink
        // stem is a branch.
        prop_assert_eq!(
            c.inputs().len() + c.gate_count() + c.branch_count(),
            c.line_count()
        );
        for (id, _) in c.iter() {
            let branch_outs = c
                .fanout(id)
                .iter()
                .filter(|&&f| c.kind(f).is_branch())
                .count();
            if c.fanout(id).len() > 1 && !c.kind(id).is_branch() {
                prop_assert_eq!(branch_outs, c.fanout(id).len());
            }
        }
    }
}
