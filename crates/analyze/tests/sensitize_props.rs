//! Differential properties of the static sensitizability pass.
//!
//! On random small synthesized circuits (few enough inputs that all
//! `4^n` two-pattern tests can be simulated exhaustively):
//!
//! * every fault the pass classifies *false* is untestable under the
//!   exhaustive two-pattern sweep — the pre-elimination filter never
//!   drops a detectable fault;
//! * every path the pass classifies *robust* has a fault some exhaustive
//!   test detects — the positive verdict is never vacuous;
//! * filtering is contractive: the filtered fault list is a subset of
//!   the unfiltered one, and the bookkeeping reconciles exactly;
//! * the filter is final: every fault the unfiltered build eliminates
//!   (rule 1 or rule 2) is classified false, so a filtered build need not
//!   run the rules again.

use std::collections::HashSet;

use pdf_analyze::classify_store;
use pdf_faults::{assignments, ConditionError, FaultList, PathDelayFault, Polarity, Sensitization};
use pdf_logic::{Triple, Value};
use pdf_netlist::{simulate_triples, Circuit, SynthProfile, TwoPattern};
use pdf_paths::{PathClass, PathEnumerator};
use proptest::prelude::*;

/// Simulates every fully-specified two-pattern test over `n` inputs.
fn all_waves(circuit: &Circuit) -> Vec<Vec<Triple>> {
    let n = circuit.inputs().len();
    (0..4usize.pow(n as u32))
        .map(|k| {
            let v1 = (0..n).map(|j| Value::from(k >> (2 * j) & 1 == 1)).collect();
            let v2 = (0..n)
                .map(|j| Value::from(k >> (2 * j + 1) & 1 == 1))
                .collect();
            simulate_triples(circuit, &TwoPattern::new(v1, v2).to_triples())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sensitizability_verdicts_are_sound_on_random_small_circuits(
        seed in 0u64..1_000_000,
        inputs in 3usize..=5,
        gates in 6usize..=18,
        levels in 2usize..=4,
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
        prop_assume!(circuit.inputs().len() <= 5);

        let waves = all_waves(&circuit);
        let store = PathEnumerator::new(&circuit).with_cap(2_000).enumerate().store;

        for kind in [Sensitization::Robust, Sensitization::NonRobust] {
            let analysis = classify_store(&circuit, &store, kind, None);
            prop_assert_eq!(analysis.stats.paths, store.len());
            prop_assert_eq!(analysis.class_counts().total(), store.len());

            // Per-fault verdict soundness against the exhaustive sweep.
            for (i, stored) in store.iter().enumerate() {
                let mut any_detected = false;
                for polarity in Polarity::BOTH {
                    let fault = PathDelayFault::new(stored.path.clone(), polarity);
                    let a = match assignments(&circuit, &fault, kind) {
                        Ok(a) => a,
                        Err(ConditionError::Conflict { .. }) => continue,
                        Err(_) => continue,
                    };
                    let testable = waves.iter().any(|w| a.satisfied_by(w));
                    any_detected |= testable;
                    if analysis.is_false(i, polarity) {
                        prop_assert!(
                            !testable,
                            "false-classified fault {fault} is testable"
                        );
                    }
                }
                if analysis.path_class(i) == PathClass::Robust {
                    prop_assert!(
                        any_detected,
                        "robust-classified path {} has no detecting test",
                        stored.path
                    );
                }
            }

            // The filter is contractive and the ledger reconciles.
            let (off, off_stats) = FaultList::build_with(&circuit, &store, kind);
            let (on, on_stats) = FaultList::build_with_filter(
                &circuit,
                &store,
                kind,
                None,
                Some(&|i, p| analysis.is_false(i, p)),
            );
            prop_assert_eq!(on_stats.sensitize_eliminated, analysis.stats.false_faults);
            prop_assert_eq!(
                on_stats.candidates,
                on.len()
                    + on_stats.sensitize_eliminated
                    + on_stats.rule1_conflicts
                    + on_stats.rule2_conflicts
            );
            prop_assert_eq!(off_stats.candidates, on_stats.candidates);
            let off_keys: HashSet<String> = off.iter().map(|e| format!("{}", e.fault)).collect();
            for (i, stored) in store.iter().enumerate() {
                for polarity in Polarity::BOTH {
                    let fault = PathDelayFault::new(stored.path.clone(), polarity);
                    prop_assert!(
                        off_keys.contains(&format!("{fault}")) || analysis.is_false(i, polarity),
                        "eliminated fault {fault} is not classified false"
                    );
                }
            }
            for entry in on.iter() {
                prop_assert!(
                    off_keys.contains(&format!("{}", entry.fault)),
                    "filtered list grew a fault: {}",
                    entry.fault
                );
            }
            prop_assert!(on.len() <= off.len());
        }
    }
}
