//! Differential oracle: the packed bit-plane kernel must be bit-for-bit
//! equivalent to the scalar triple simulator on random circuits — same
//! waveforms, same satisfied requirements, same coverage flags — on the
//! production [`Tile`] (and on a one-word tile, which crosses many more
//! block boundaries per test batch).

use proptest::prelude::*;

use pdf_faults::FaultList;
use pdf_logic::Value;
use pdf_netlist::{simulate_triples, Circuit, SynthProfile, TwoPattern};
use pdf_paths::PathEnumerator;
use pdf_sim::{PackedBlock, SimWord, Tile};

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    // `redundant` injects the `+r` stand-in redundancy gadgets: untestable
    // stuck-structures that real benchmarks contain and that exercise the
    // kernel's never-satisfied requirement paths.
    (3usize..8, 10usize..60, 3usize..8, 0usize..3, any::<u64>()).prop_map(
        |(inputs, gates, levels, redundant, seed)| {
            SynthProfile::new("diff", seed)
                .with_inputs(inputs)
                .with_gates(gates)
                .with_levels(levels)
                .with_redundant_gadgets(redundant)
                .generate()
                .to_circuit()
                .expect("generated netlists are valid")
        },
    )
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Zero), Just(Value::One), Just(Value::X)]
}

fn arb_tests(inputs: usize) -> impl Strategy<Value = Vec<TwoPattern>> {
    proptest::collection::vec(
        proptest::collection::vec((arb_value(), arb_value()), inputs),
        1..(Tile::LANES + 80),
    )
    .prop_map(|tests| {
        tests
            .into_iter()
            .map(|pairs| {
                TwoPattern::new(
                    pairs.iter().map(|p| p.0).collect(),
                    pairs.iter().map(|p| p.1).collect(),
                )
            })
            .collect()
    })
}

/// Loads `tests` into a `W`-tile block (chunked) and checks every lane's
/// waveforms against the scalar simulator.
fn check_waveforms<W: SimWord>(c: &Circuit, tests: &[TwoPattern]) -> Result<(), TestCaseError> {
    let mut block: PackedBlock<W> = PackedBlock::new();
    for chunk in tests.chunks(W::LANES) {
        block.load(c, chunk);
        for (lane, t) in chunk.iter().enumerate() {
            let waves = simulate_triples(c, &t.to_triples());
            for (id, _) in c.iter() {
                prop_assert_eq!(
                    block.triple(id, lane),
                    waves[id.index()],
                    "line {} lane {} width {}",
                    id,
                    lane,
                    W::LANES
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_waveforms_equal_scalar_waveforms(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        check_waveforms::<Tile>(&c, &tests)?;
        check_waveforms::<[u64; 1]>(&c, &tests)?;
    }

    #[test]
    fn packed_coverage_equals_scalar_coverage(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        // Real robust fault populations of the random circuit.
        let paths = PathEnumerator::new(&c).with_cap(200).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());

        // The scalar oracle: one `simulate_triples` per test.
        let scalar_per: Vec<Vec<usize>> = tests
            .iter()
            .map(|t| {
                let waves = simulate_triples(&c, &t.to_triples());
                (0..faults.len())
                    .filter(|&i| faults.entries()[i].assignments.satisfied_by(&waves))
                    .collect()
            })
            .collect();
        let mut scalar = vec![false; faults.len()];
        for &i in scalar_per.iter().flatten() {
            scalar[i] = true;
        }

        let packed = pdf_sim::coverage_flags(&c, &tests, faults.entries());
        prop_assert_eq!(&scalar, &packed, "coverage");
        let packed_per = pdf_sim::per_test_detections(&c, &tests, faults.entries());
        prop_assert_eq!(&scalar_per, &packed_per, "per-test detections");
    }

    #[test]
    fn satisfied_lanes_agrees_with_scalar_requirement_check(
        (c, tests) in arb_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        let paths = PathEnumerator::new(&c).with_cap(64).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        prop_assume!(!faults.is_empty());

        let mut block: PackedBlock = PackedBlock::new();
        let chunk = &tests[..tests.len().min(Tile::LANES)];
        block.load(&c, chunk);
        for entry in faults.iter() {
            let lanes = block.satisfied_lanes(&entry.assignments);
            for (lane, t) in chunk.iter().enumerate() {
                let waves = simulate_triples(&c, &t.to_triples());
                prop_assert_eq!(
                    lanes.lane(lane),
                    entry.assignments.satisfied_by(&waves),
                    "lane {}", lane
                );
            }
        }
    }
}
