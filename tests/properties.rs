//! Property-based tests over randomly generated circuits: structural
//! invariants of the line graph, consistency of the waveform algebra with
//! scalar simulation, tightness of the `len(p)` bound, and soundness of
//! detection claims.

use proptest::prelude::*;

use path_delay_atpg::prelude::{
    FaultList, Implicator, Justifier, PathEnumerator, Polarity, SynthProfile, TestSet, TwoPattern,
};
use pdf_logic::Value;
use pdf_netlist::{simulate_triples, simulate_values, Circuit};
use pdf_paths::Strategy as EnumStrategy;

/// A small random circuit, always valid by construction.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..10, 8usize..60, 2usize..8, any::<u64>()).prop_map(|(inputs, gates, levels, seed)| {
        SynthProfile::new("prop", seed)
            .with_inputs(inputs)
            .with_gates(gates)
            .with_levels(levels)
            .generate()
            .to_circuit()
            .expect("generated netlists are valid")
    })
}

/// A random fully-specified two-pattern test for `n` inputs.
fn arb_test(n: usize) -> impl Strategy<Value = TwoPattern> {
    (
        proptest::collection::vec(any::<bool>(), n),
        proptest::collection::vec(any::<bool>(), n),
    )
        .prop_map(|(v1, v2)| {
            TwoPattern::new(
                v1.into_iter().map(Value::from).collect(),
                v2.into_iter().map(Value::from).collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topological_order_and_levels_are_consistent(c in arb_circuit()) {
        let mut pos = vec![usize::MAX; c.line_count()];
        for (i, &id) in c.topo_order().iter().enumerate() {
            pos[id.index()] = i;
        }
        for (id, line) in c.iter() {
            for &f in c.fanin(id) {
                prop_assert!(pos[f.index()] < pos[id.index()]);
                prop_assert!(c.line(f).level() < line.level());
            }
        }
    }

    #[test]
    fn distances_satisfy_the_bellman_recurrence(c in arb_circuit()) {
        for (id, line) in c.iter() {
            let expect = c
                .fanout(id)
                .iter()
                .map(|&f| c.line(f).delay() + c.distance_to_output(f))
                .max()
                .unwrap_or(0);
            prop_assert_eq!(c.distance_to_output(id), expect);
            if line.is_output() {
                prop_assert_eq!(c.distance_to_output(id), 0);
            }
        }
    }

    #[test]
    fn waveform_simulation_projects_onto_scalar_simulation(
        (c, test) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_test(n))
        })
    ) {
        // The first and last components of every waveform must equal the
        // scalar simulation of the first and second pattern respectively.
        let waves = simulate_triples(&c, &test.to_triples());
        let first = simulate_values(&c, test.first());
        let second = simulate_values(&c, test.second());
        for i in 0..c.line_count() {
            prop_assert_eq!(waves[i].first(), first[i]);
            prop_assert_eq!(waves[i].last(), second[i]);
            // A specified intermediate value certifies a stable line.
            if waves[i].mid().is_specified() {
                prop_assert_eq!(waves[i].first(), waves[i].mid());
                prop_assert_eq!(waves[i].last(), waves[i].mid());
            }
        }
    }

    #[test]
    fn enumeration_is_exhaustive_and_valid_when_uncapped(c in arb_circuit()) {
        let result = PathEnumerator::new(&c).with_cap(2_000_000).enumerate();
        prop_assume!(!result.stats.overflowed && result.stats.truncated_partials == 0);
        prop_assert_eq!(result.store.len() as u64, c.path_count());
        for entry in result.store.iter() {
            prop_assert!(entry.path.validate(&c).is_ok());
            prop_assert!(entry.path.is_complete(&c));
            prop_assert_eq!(entry.delay, entry.path.delay(&c));
            // len(p) equals delay for complete paths.
            prop_assert_eq!(entry.path.max_extension_delay(&c), entry.delay);
        }
    }

    #[test]
    fn capped_enumeration_keeps_a_longest_path(c in arb_circuit()) {
        let capped = PathEnumerator::new(&c).with_cap(12).with_units_per_path(1).enumerate();
        prop_assert!(!capped.store.is_empty());
        prop_assert_eq!(capped.store.max_delay().unwrap(), c.critical_delay());
        // The moderate strategy agrees whenever its weaker removal rule
        // does not overflow (it may: it cannot prune partial paths).
        let moderate = PathEnumerator::new(&c)
            .with_cap(12)
            .with_units_per_path(1)
            .with_strategy(EnumStrategy::Moderate)
            .enumerate();
        if !moderate.stats.overflowed {
            prop_assert_eq!(moderate.store.max_delay().unwrap(), c.critical_delay());
        }
    }

    #[test]
    fn detected_faults_show_the_transition_at_the_sink(c in arb_circuit()) {
        // Build the fault population; for every fault detected by a random
        // but *justified* test, the path sink must carry a clean
        // transition whose direction is the source polarity xor the path's
        // inversion parity.
        let paths = PathEnumerator::new(&c).with_cap(60).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());
        let mut justifier = Justifier::new(&c, 17);
        let mut checked = 0usize;
        for entry in faults.iter().take(12) {
            let Some(justified) = justifier.justify(&entry.assignments) else {
                continue;
            };
            let sink = entry.fault.path().last();
            let wave = justified.waves[sink.index()];
            prop_assert!(wave.is_transition(), "{}: sink wave {wave}", entry.fault);
            checked += 1;
        }
        prop_assume!(checked > 0);
    }

    #[test]
    fn fault_list_requirements_are_internally_consistent(c in arb_circuit()) {
        let paths = PathEnumerator::new(&c).with_cap(60).enumerate();
        let (faults, stats) = FaultList::build(&c, &paths.store);
        prop_assert_eq!(
            faults.len() + stats.rule1_conflicts + stats.rule2_conflicts,
            stats.candidates
        );
        for entry in faults.iter() {
            // Rule 2 passed at construction; re-derive.
            prop_assert!(Implicator::from_assignments(&c, &entry.assignments).is_ok());
            // The source requirement is the polarity's transition.
            let src = entry.assignments.get(entry.fault.path().source()).unwrap();
            match entry.fault.polarity() {
                Polarity::SlowToRise => prop_assert_eq!(src.to_string(), "0x1"),
                Polarity::SlowToFall => prop_assert_eq!(src.to_string(), "1x0"),
            }
        }
    }

    #[test]
    fn exact_justifier_validates_randomized_successes(c in arb_circuit()) {
        let paths = PathEnumerator::new(&c).with_cap(30).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        let mut justifier = Justifier::new(&c, 23);
        let exact = pdf_atpg::ExactJustifier::new(&c).with_node_limit(20_000);
        for entry in faults.iter().take(8) {
            if justifier.justify(&entry.assignments).is_some() {
                let outcome = exact.justify(&entry.assignments);
                // The exact engine may hit its node limit, but it must
                // never prove UNSAT where a witness exists.
                prop_assert!(
                    !matches!(outcome, pdf_atpg::ExactOutcome::Unsatisfiable),
                    "{}",
                    entry.fault
                );
            }
        }
    }

    #[test]
    fn coverage_is_monotone_under_test_addition(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), proptest::collection::vec(arb_test(n), 1..6))
        })
    ) {
        let paths = PathEnumerator::new(&c).with_cap(40).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());
        let mut last = 0usize;
        for k in 1..=tests.len() {
            let set = TestSet::from_tests(tests[..k].to_vec());
            let count = set.coverage(&c, &faults).detected_count();
            prop_assert!(count >= last);
            last = count;
        }
    }
}

#[test]
fn bench_text_round_trip_on_generated_netlists() {
    // (Plain test: proptest adds no value over a seeded loop here.)
    for seed in 0..20u64 {
        let netlist = SynthProfile::new("rt", seed)
            .with_inputs(6)
            .with_gates(30)
            .with_levels(5)
            .generate();
        let text = pdf_netlist::to_bench_string(&netlist);
        let parsed = pdf_netlist::parse_bench(&text, "rt").unwrap();
        assert_eq!(parsed.gate_count(), netlist.gate_count());
        let a = netlist.to_circuit().unwrap();
        let b = parsed.to_circuit().unwrap();
        assert_eq!(a.line_count(), b.line_count());
        assert_eq!(a.path_count(), b.path_count());
        assert_eq!(a.critical_delay(), b.critical_delay());
    }
}
