//! Differential oracle: the packed bit-plane kernel and the one-byte
//! waveform sweep must be bit-for-bit equivalent to the scalar triple
//! simulator on random circuits — same waveforms, same satisfied and
//! violated requirements, same coverage flags — on the production
//! [`Tile`] (and on a one-word tile, which crosses many more block
//! boundaries per test batch).

use proptest::prelude::*;

use pdf_faults::{Assignments, FaultList};
use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{simulate_triples, Circuit, LineKind, NetlistBuilder, SynthProfile, TwoPattern};
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

const KINDS: [GateKind; 8] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
];

/// A random netlist with gates of every kind, parity gates kept: each gate
/// reads one to three earlier signals (inputs included, so inputs fan out
/// through branches), and every signal nothing reads is an output.
fn arb_every_kind_circuit() -> impl Strategy<Value = Circuit> {
    let gate = (
        0usize..KINDS.len(),
        proptest::collection::vec(any::<u32>(), 3),
    );
    (2usize..6, proptest::collection::vec(gate, 4..40)).prop_map(|(inputs, gates)| {
        let mut b = NetlistBuilder::new("kinds");
        let mut names: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
        let mut read = vec![false; names.len()];
        for name in &names {
            b.input(name);
        }
        for (k, (kind, picks)) in gates.into_iter().enumerate() {
            let kind = KINDS[kind];
            let arity = if kind.is_single_input() {
                1
            } else {
                2 + picks[0] as usize % 2
            };
            let mut fanin: Vec<usize> = picks
                .iter()
                .take(arity)
                .map(|&p| p as usize % names.len())
                .collect();
            fanin.sort_unstable();
            fanin.dedup();
            for &f in &fanin {
                read[f] = true;
            }
            let fanin: Vec<&str> = fanin.iter().map(|&f| names[f].as_str()).collect();
            let name = format!("g{k}");
            b.gate(kind, &name, &fanin);
            names.push(name);
            read.push(false);
        }
        for (name, _) in names.iter().zip(&read).filter(|(_, &r)| !r) {
            b.output(name);
        }
        b.finish()
            .expect("every signal is driven")
            .to_circuit_with(true)
            .expect("random netlists are valid")
    })
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
                    block.triple(c, id, lane),
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
            let lanes = block.satisfied_lanes(&c, &entry.assignments);
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

/// Random requirement sets over `c`'s lines — fanout branches, of primary
/// inputs too, among them — with every component specified or not.
fn requirements(c: &Circuit, seed: u64) -> Vec<Assignments> {
    let mut rng = pdf_netlist::SplitMix64::new(seed);
    let mut branches: Vec<_> = c
        .iter()
        .map(|(id, _)| id)
        .filter(|&id| matches!(c.kind(id), LineKind::Branch { .. }))
        .collect();
    // Branches of primary inputs first (a branch's one fanin is its
    // stem), so the first sets meet them.
    branches.sort_by_key(|&id| !matches!(c.kind(c.fanin(id)[0]), LineKind::Input));
    (0..32)
        .map(|k| {
            let mut req = Assignments::new();
            let mut lines = vec![pdf_netlist::LineId::new(rng.next_below(c.line_count()))];
            if !branches.is_empty() {
                lines.push(branches[k % branches.len()]);
            }
            for line in lines {
                let v = |r: &mut pdf_netlist::SplitMix64| Value::ALL[r.next_below(3)];
                let t = Triple::new(v(&mut rng), v(&mut rng), v(&mut rng));
                let _ = req.require(line, t);
            }
            req
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn byte_sweep_equals_scalar_waveforms(
        (c, tests) in prop_oneof![arb_circuit(), arb_every_kind_circuit()].prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n))
        })
    ) {
        for t in &tests {
            prop_assert_eq!(
                pdf_sim::waveforms(&c, t),
                simulate_triples(&c, &t.to_triples()),
                "test {}", t
            );
        }
    }

    #[test]
    fn branch_lines_read_their_stems(
        (c, tests, seed) in arb_every_kind_circuit().prop_flat_map(|c| {
            let n = c.inputs().len();
            (Just(c), arb_tests(n), any::<u64>())
        })
    ) {
        prop_assume!(c.branch_count() > 0);
        check_waveforms::<Tile>(&c, &tests)?;
        let chunk = &tests[..tests.len().min(Tile::LANES)];
        let mut block: PackedBlock = PackedBlock::new();
        block.load(&c, chunk);
        let waves: Vec<Vec<Triple>> =
            chunk.iter().map(|t| simulate_triples(&c, &t.to_triples())).collect();
        for req in requirements(&c, seed) {
            let satisfied = block.satisfied_lanes(&c, &req);
            let violated = block.violated_lanes(&c, &req);
            for (lane, w) in waves.iter().enumerate() {
                prop_assert_eq!(satisfied.lane(lane), req.satisfied_by(w), "{} lane {}", req, lane);
                prop_assert_eq!(violated.lane(lane), req.violated_by(w), "{} lane {}", req, lane);
            }
        }
    }
}
