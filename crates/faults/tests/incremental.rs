//! Differential tests of the incremental implication engine.
//!
//! * Random `assign` / `propagate` / `mark` / `undo_to` sequences agree,
//!   at every propagated state, with a fresh engine fed the same
//!   requirements from scratch — on synthesized circuits with and without
//!   redundancy gadgets, with and without a learned table.
//! * The engine's fixpoint (or its conflict) equals a naive reference
//!   closure that sweeps every rule over every line, and every learned row
//!   of every decided literal, until nothing changes — so neither firing
//!   each learned row once nor queueing only a changed line's fanouts
//!   loses an implication.
//! * The engine's closure with the stem-keyed learned table equals the
//!   reference closure with that table copied onto every fanout branch,
//!   so keying rows by stem loses no implication.
//! * Random `assign` / `propagate` / `mark` / `undo_to` sequences agree,
//!   at every state, with that reference closure, which keeps a value per
//!   fanout branch and applies branch identity as a rule: the engine,
//!   whose branches share their stem's byte, reads the same value on
//!   every line and gives the same conflict verdict.
//! * `undo_to` after a conflict or after a panic caught mid-assert
//!   restores the marked state exactly, and the engine stays usable.
//! * [`FaultList::build_threaded`] (three passes, rule 2 over the
//!   path-prefix trie, on 1, 2, 4 and 8 threads) equals the per-fault
//!   from-scratch loop it replaced, entry for entry and counter for
//!   counter.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use pdf_analyze::{classify_store, learn_implications};
use pdf_faults::{
    assignments, Assignments, ConditionError, FaultEntry, FaultKey, FaultList, FaultListStats,
    Implicator, LearnedImplications, Literal, PathDelayFault, Polarity, Sensitization,
};
use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{circuit_by_name, Circuit, LineId, LineKind, SplitMix64, SynthProfile};
use pdf_paths::{Path, PathEnumerator, PathStore};
use proptest::prelude::*;

fn synth(seed: u64, gadgets: usize) -> Option<Circuit> {
    SynthProfile::new("incremental", seed)
        .with_inputs(6)
        .with_gates(40)
        .with_levels(5)
        .with_redundant_gadgets(gadgets)
        .generate()
        .combinational_core()
        .decompose_parity()
        .to_circuit()
        .ok()
}

/// A random circuit over all eight gate kinds, XOR and XNOR kept: the
/// synthesizer's circuits have no parity gates. Every input feeds the
/// first gates, and every gate nothing reads is an output.
fn parity_synth(seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut names: Vec<String> = (0..5).map(|i| format!("i{i}")).collect();
    let mut read = vec![false; names.len()];
    let mut gates = String::new();
    for g in 0..24 {
        let kind = GateKind::ALL[rng.next_below(GateKind::ALL.len())];
        let arity = if kind.is_single_input() {
            1
        } else {
            2 + rng.next_below(2)
        };
        let mut fanin: Vec<usize> = Vec::new();
        while fanin.len() < arity {
            let f = if g < 5 && fanin.is_empty() {
                g
            } else {
                rng.next_below(names.len())
            };
            if !fanin.contains(&f) {
                fanin.push(f);
                read[f] = true;
            }
        }
        let fanin: Vec<&str> = fanin.iter().map(|&f| names[f].as_str()).collect();
        gates += &format!("g{g} = {kind}({})\n", fanin.join(", "));
        names.push(format!("g{g}"));
        read.push(false);
    }
    let mut text: String = (0..5).map(|i| format!("INPUT(i{i})\n")).collect();
    for (name, _) in names.iter().zip(&read).filter(|(_, &r)| !r) {
        text += &format!("OUTPUT({name})\n");
    }
    text += &gates;
    pdf_netlist::parse_bench(&text, "parity")
        .expect("well-formed bench text")
        .to_circuit_with(true)
        .expect("every line is read or an output")
}

fn engine<'c>(circuit: &'c Circuit, learned: Option<&'c LearnedImplications>) -> Implicator<'c> {
    let imp = Implicator::new(circuit);
    match learned {
        Some(table) => imp.with_learned(table),
        None => imp,
    }
}

/// Every line value of `imp`, decoded, indexed by [`LineId::index`].
fn values(circuit: &Circuit, imp: &Implicator<'_>) -> Vec<Triple> {
    (0..circuit.line_count())
        .map(|i| imp.value(LineId::new(i)))
        .collect()
}

/// The from-scratch reference: every requirement asserted on a fresh
/// engine, then one fixpoint.
fn fresh(
    circuit: &Circuit,
    learned: Option<&LearnedImplications>,
    asserted: &[(LineId, Triple)],
) -> Option<Vec<Triple>> {
    let mut imp = engine(circuit, learned);
    for &(line, req) in asserted {
        imp.assign(line, req).ok()?;
    }
    imp.propagate().ok()?;
    Some(values(circuit, &imp))
}

fn random_value(rng: &mut SplitMix64) -> Value {
    [Value::Zero, Value::One, Value::X][rng.next_below(3)]
}

/// A random requirement: mostly outer-slot literals, as rule 2 and the
/// learning pass assert them, sometimes a full waveform.
fn random_requirement(rng: &mut SplitMix64, circuit: &Circuit) -> (LineId, Triple) {
    let line = LineId::new(rng.next_below(circuit.line_count()));
    let req = if rng.next_below(4) == 0 {
        Triple::new(random_value(rng), random_value(rng), random_value(rng))
    } else {
        let v = [Value::Zero, Value::One][rng.next_below(2)];
        if rng.next_below(2) == 0 {
            Triple::new(v, Value::X, Value::X)
        } else {
            Triple::new(Value::X, Value::X, v)
        }
    };
    (line, req)
}

/// Drives one random operation sequence and checks every propagated state
/// against [`fresh`].
fn check_random_sequence(
    circuit: &Circuit,
    learned: Option<&LearnedImplications>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let mut imp = engine(circuit, learned);
    // Marks with the requirement count asserted when each was taken.
    let mut marks: Vec<(usize, usize)> = vec![(imp.mark(), 0)];
    let mut asserted: Vec<(LineId, Triple)> = Vec::new();
    let mut conflicted = false;
    for _ in 0..40 {
        match rng.next_below(4) {
            0 if !conflicted => marks.push((imp.mark(), asserted.len())),
            1 | 2 if !conflicted => {
                let mut ok = true;
                for _ in 0..=rng.next_below(3) {
                    let (line, req) = random_requirement(&mut rng, circuit);
                    asserted.push((line, req));
                    if imp.assign(line, req).is_err() {
                        ok = false;
                        break;
                    }
                }
                ok = ok && imp.propagate().is_ok();
                let reference = fresh(circuit, learned, &asserted);
                prop_assert_eq!(ok, reference.is_some());
                if let Some(reference) = reference {
                    prop_assert_eq!(values(circuit, &imp), reference);
                }
                conflicted = !ok;
            }
            _ => {
                let keep = rng.next_below(marks.len());
                marks.truncate(keep + 1);
                let (mark, len) = marks[keep];
                imp.undo_to(mark);
                asserted.truncate(len);
                conflicted = false;
                let reference =
                    fresh(circuit, learned, &asserted).expect("marked states are consistent");
                prop_assert_eq!(values(circuit, &imp), reference.clone());
                // Nothing stale is left queued: a fixpoint run is a no-op.
                prop_assert!(imp.propagate().is_ok());
                prop_assert_eq!(values(circuit, &imp), reference);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_engine_matches_a_fresh_engine_per_state(
        seed in 0u64..1_000_000,
        gadgets in 0usize..=2,
    ) {
        let Some(circuit) = synth(seed, gadgets) else {
            prop_assume!(false);
            unreachable!()
        };
        let table = learn_implications(&circuit);
        for learned in [None, Some(&table)] {
            for run in 0..4 {
                check_random_sequence(&circuit, learned, seed ^ (run << 32))?;
            }
        }
    }
}

#[test]
fn incremental_engine_matches_a_fresh_engine_on_a_redundant_stand_in() {
    let circuit = circuit_by_name("b03+r").expect("stand-in");
    let table = learn_implications(&circuit);
    for learned in [None, Some(&table)] {
        for seed in 0..8 {
            check_random_sequence(&circuit, learned, seed).unwrap();
        }
    }
}

/// Narrows one component of `line` to `value`; `None` on a conflict.
fn narrow(values: &mut [Triple], line: LineId, slot: usize, value: Value) -> Option<()> {
    let mut parts = values[line.index()].components();
    parts[slot] = parts[slot].intersect(value)?;
    values[line.index()] = Triple::new(parts[0], parts[1], parts[2]);
    Some(())
}

/// Narrows every component of `line` to `req`; `None` on a conflict.
fn narrow_all(values: &mut [Triple], line: LineId, req: Triple) -> Option<()> {
    values[line.index()] = values[line.index()].intersect(req)?;
    Some(())
}

/// The test-only reference closure: sweeps every line, applies every rule
/// centred on it and re-reads the learned row of each of its decided outer
/// literals, and repeats until a sweep changes nothing. `None` when the
/// requirements conflict.
fn reference_closure(
    circuit: &Circuit,
    learned: Option<&LearnedImplications>,
    asserted: &[(LineId, Triple)],
) -> Option<Vec<Triple>> {
    let mut values = vec![Triple::UNKNOWN; circuit.line_count()];
    for &(line, req) in asserted {
        narrow_all(&mut values, line, req)?;
    }
    loop {
        let before = values.clone();
        for i in 0..circuit.line_count() {
            let line = LineId::new(i);
            let [first, mid, last] = values[i].components();
            if mid.is_specified() {
                narrow_all(&mut values, line, Triple::new(mid, mid, mid))?;
            }
            if circuit.kind(line).is_input() && first.is_specified() && first == last {
                narrow_all(&mut values, line, Triple::new(first, first, first))?;
            }
            match *circuit.kind(line) {
                LineKind::Input => {}
                LineKind::Branch { stem } => {
                    let merged = values[i].intersect(values[stem.index()])?;
                    values[i] = merged;
                    values[stem.index()] = merged;
                }
                LineKind::Gate(kind) => {
                    let fanin = circuit.fanin(line);
                    let out = kind.eval_triples(fanin.iter().map(|f| values[f.index()]));
                    narrow_all(&mut values, line, out)?;
                    for slot in 0..3 {
                        let w = values[i].components()[slot];
                        if w.is_specified() {
                            backward_component(&mut values, kind, fanin, slot, w)?;
                        }
                    }
                }
            }
            for (slot, w) in [(0, values[i].first()), (2, values[i].last())] {
                if !w.is_specified() {
                    continue;
                }
                for cons in learned
                    .iter()
                    .flat_map(|t| t.consequents(Literal::new(line, slot, w)))
                {
                    narrow(&mut values, cons.line, cons.slot, cons.value)?;
                }
            }
        }
        if values == before {
            return Some(values);
        }
    }
}

/// The backward rules of a gate whose output is `w` in component `slot`.
fn backward_component(
    values: &mut [Triple],
    kind: GateKind,
    fanin: &[LineId],
    slot: usize,
    w: Value,
) -> Option<()> {
    let at = |values: &[Triple], f: LineId| values[f.index()].components()[slot];
    let w = if kind.inverts() { !w } else { w };
    match kind.controlling_value() {
        None if kind.is_single_input() => narrow(values, fanin[0], slot, w),
        None => {
            // Parity: all inputs but one specified fix the last.
            let unknown: Vec<LineId> = fanin
                .iter()
                .copied()
                .filter(|&f| !at(values, f).is_specified())
                .collect();
            if let [f] = unknown[..] {
                let parity = fanin
                    .iter()
                    .filter(|&&g| g != f)
                    .fold(w, |acc, &g| acc ^ at(values, g));
                narrow(values, f, slot, parity)?;
            }
            Some(())
        }
        Some(c) if w == !c => {
            for &f in fanin {
                narrow(values, f, slot, !c)?;
            }
            Some(())
        }
        Some(c) => {
            let open: Vec<LineId> = fanin
                .iter()
                .copied()
                .filter(|&f| at(values, f) != !c)
                .collect();
            match open[..] {
                [] => None,
                [f] => narrow(values, f, slot, c),
                _ => Some(()),
            }
        }
    }
}

/// The engine's closure with `learned` against [`reference_closure`]
/// with `oracle_table`, on random requirement sets: every line value and
/// the conflict verdict.
fn check_closures(
    circuit: &Circuit,
    learned: Option<&LearnedImplications>,
    oracle_table: Option<&LearnedImplications>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..16 {
        let asserted: Vec<(LineId, Triple)> = (0..=rng.next_below(5))
            .map(|_| random_requirement(&mut rng, circuit))
            .collect();
        prop_assert_eq!(
            fresh(circuit, learned, &asserted),
            reference_closure(circuit, oracle_table, &asserted),
            "requirements {:?}",
            asserted
        );
    }
    Ok(())
}

/// `table` with every row copied onto every pair of lines that carry
/// the row's two stems: the stem and each of its fanout branches, at
/// either end. Self-pairs are dropped, as [`LearnedImplications::add`]
/// drops them.
fn expand_to_branch_classes(circuit: &Circuit, table: &LearnedImplications) -> LearnedImplications {
    let mut class: Vec<Vec<LineId>> = vec![Vec::new(); circuit.line_count()];
    for (id, _) in circuit.iter() {
        class[circuit.stem_of(id).index()].push(id);
    }
    let mut expanded = LearnedImplications::new(circuit.line_count());
    for (a, c) in table.iter() {
        for &x in &class[a.line.index()] {
            for &y in &class[c.line.index()] {
                expanded.add(
                    Literal::new(x, a.slot, a.value),
                    Literal::new(y, c.slot, c.value),
                );
            }
        }
    }
    expanded
}

/// The stem-keyed table loses nothing against its copy on every branch:
/// the engine's closure with the stem table equals the reference closure
/// with the expanded table.
fn check_stem_table_closure(circuit: &Circuit, seed: u64) -> Result<(), TestCaseError> {
    let table = learn_implications(circuit);
    let expanded = expand_to_branch_classes(circuit, &table);
    check_closures(circuit, Some(&table), Some(&expanded), seed)
}

#[test]
fn the_stem_table_closes_like_its_branch_class_expansion_on_a_redundant_stand_in() {
    let circuit = circuit_by_name("b03+r").expect("stand-in");
    for seed in 0..4 {
        check_stem_table_closure(&circuit, seed).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_matches_the_reference_closure(
        seed in 0u64..1_000_000,
        gadgets in 0usize..=2,
    ) {
        let Some(circuit) = synth(seed, gadgets) else {
            prop_assume!(false);
            unreachable!()
        };
        let table = learn_implications(&circuit);
        for learned in [None, Some(&table)] {
            check_closures(&circuit, learned, learned, seed)?;
        }
    }

    #[test]
    fn the_stem_table_closes_like_its_branch_class_expansion(
        seed in 0u64..1_000_000,
        gadgets in 0usize..=2,
    ) {
        let Some(circuit) = synth(seed, gadgets) else {
            prop_assume!(false);
            unreachable!()
        };
        check_stem_table_closure(&circuit, seed)?;
    }

    #[test]
    fn engine_matches_the_reference_closure_with_parity_gates(seed in 0u64..1_000_000) {
        let circuit = parity_synth(seed);
        let table = learn_implications(&circuit);
        for learned in [None, Some(&table)] {
            check_closures(&circuit, learned, learned, seed)?;
        }
    }
}

/// Drives one random `assign` / `propagate` / `mark` / `undo_to`
/// sequence and checks every state against [`reference_closure`], which
/// keeps a value per line and applies branch identity as a rule of its
/// own: the engine's value of every line, fanout branches included, and
/// its conflict verdict.
fn check_sequence_against_the_oracle(
    circuit: &Circuit,
    learned: Option<&LearnedImplications>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let mut imp = engine(circuit, learned);
    let mut marks: Vec<(usize, usize)> = vec![(imp.mark(), 0)];
    let mut asserted: Vec<(LineId, Triple)> = Vec::new();
    let mut conflicted = false;
    for _ in 0..24 {
        if !conflicted && rng.next_below(4) != 0 {
            if rng.next_below(3) == 0 {
                marks.push((imp.mark(), asserted.len()));
            }
            let (line, req) = random_requirement(&mut rng, circuit);
            asserted.push((line, req));
            let ok = imp.assign(line, req).is_ok() && imp.propagate().is_ok();
            let oracle = reference_closure(circuit, learned, &asserted);
            prop_assert_eq!(ok, oracle.is_some(), "requirements {:?}", &asserted);
            if let Some(oracle) = oracle {
                prop_assert_eq!(values(circuit, &imp), oracle);
            }
            conflicted = !ok;
        } else {
            let keep = rng.next_below(marks.len());
            marks.truncate(keep + 1);
            let (mark, len) = marks[keep];
            imp.undo_to(mark);
            asserted.truncate(len);
            conflicted = false;
            let oracle = reference_closure(circuit, learned, &asserted);
            prop_assert_eq!(Some(values(circuit, &imp)), oracle);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_sequences_match_the_branch_identity_oracle(
        seed in 0u64..1_000_000,
        gadgets in 0usize..=2,
    ) {
        let Some(circuit) = synth(seed, gadgets) else {
            prop_assume!(false);
            unreachable!()
        };
        let table = learn_implications(&circuit);
        for learned in [None, Some(&table)] {
            for run in 0..2 {
                check_sequence_against_the_oracle(&circuit, learned, seed ^ (run << 32))?;
            }
        }
    }
}

#[test]
fn engine_sequences_match_the_branch_identity_oracle_on_a_redundant_stand_in() {
    let circuit = circuit_by_name("b03+r").expect("stand-in");
    let table = learn_implications(&circuit);
    for learned in [None, Some(&table)] {
        for seed in 0..2 {
            check_sequence_against_the_oracle(&circuit, learned, seed).unwrap();
        }
    }
}

/// The `A(p)` of every fault of `store` whose implications conflict.
fn refuted_requirements(circuit: &Circuit, store: &PathStore) -> Vec<Assignments> {
    let mut out = Vec::new();
    for stored in store.iter() {
        for polarity in Polarity::BOTH {
            let fault = PathDelayFault::new(stored.path.clone(), polarity);
            if let Ok(a) = assignments(circuit, &fault, Sensitization::Robust) {
                if Implicator::from_assignments(circuit, &a).is_err() {
                    out.push(a);
                }
            }
        }
    }
    out
}

#[test]
fn undo_after_a_conflict_leaves_nothing_queued() {
    let circuit = circuit_by_name("b03+r").expect("stand-in");
    let store = PathEnumerator::new(&circuit)
        .with_cap(400)
        .enumerate()
        .store;
    let conflicting = refuted_requirements(&circuit, &store);
    assert!(!conflicting.is_empty(), "b03+r has rule-2 conflicts");
    let mut rng = SplitMix64::new(17);
    let mut imp = Implicator::new(&circuit);
    for bad in &conflicting {
        let mark = imp.mark();
        assert!(imp.assert_all(bad).is_err());
        imp.undo_to(mark);
        assert!(values(&circuit, &imp).iter().all(|&v| v == Triple::UNKNOWN));
        // Re-propagating a consistent set equals a fresh run: a stale
        // `queued` flag would have swallowed one of its enqueues.
        let good: Vec<(LineId, Triple)> = (0..3)
            .map(|_| random_requirement(&mut rng, &circuit))
            .collect();
        let reference = fresh(&circuit, None, &good);
        let ok = good.iter().all(|&(l, r)| imp.assign(l, r).is_ok()) && imp.propagate().is_ok();
        assert_eq!(ok, reference.is_some());
        if let Some(reference) = reference {
            assert_eq!(values(&circuit, &imp), reference);
        }
        imp.undo_to(mark);
    }
}

#[test]
fn undo_after_a_panic_mid_assert_restores_the_mark() {
    let circuit = pdf_netlist::iscas::s27();
    let store = PathEnumerator::new(&circuit).enumerate().store;
    let base = {
        let fault = PathDelayFault::new(store.entries()[0].path.clone(), Polarity::SlowToRise);
        assignments(&circuit, &fault, Sensitization::Robust).unwrap()
    };
    let mut imp = Implicator::from_assignments(&circuit, &base).unwrap();
    let before = values(&circuit, &imp);
    let mark = imp.mark();
    // Requirements on lines the closure left open first (ids sort before
    // the poison), then a line the circuit does not have: the assert
    // changes those lines, then panics.
    let mut poisoned = Assignments::new();
    for (index, _) in before
        .iter()
        .enumerate()
        .filter(|(_, &v)| v == Triple::UNKNOWN)
        .take(3)
    {
        poisoned
            .require(LineId::new(index), Triple::STABLE1)
            .unwrap();
    }
    poisoned
        .require(LineId::new(9_999), Triple::RISING)
        .unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| imp.assert_all(&poisoned)));
    assert!(caught.is_err(), "the poison line must panic");
    assert_ne!(imp.mark(), mark, "the valid prefix changed the state");
    imp.undo_to(mark);
    assert_eq!(values(&circuit, &imp), before);
    // The engine is as good as new: the same follow-up as a fresh one.
    let follow_up = store.entries()[1].path.clone();
    let extra = assignments(
        &circuit,
        &PathDelayFault::new(follow_up, Polarity::SlowToFall),
        Sensitization::Robust,
    )
    .unwrap();
    let merged = base.merged(&extra);
    let incremental = imp.assert_all(&extra).map(|()| values(&circuit, &imp));
    let scratch = merged
        .and_then(|m| Implicator::from_assignments(&circuit, &m).ok())
        .map(|fresh| values(&circuit, &fresh));
    assert_eq!(incremental.ok(), scratch);
}

/// How the per-fault oracle decides one fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    /// Dropped by the filter.
    Filtered,
    /// `A(p)` conflicts directly.
    Rule1,
    /// The implications of `A(p)` conflict.
    Rule2,
    /// Only the learned closure conflicts.
    Learned,
    Kept,
}

/// The per-fault loop `build_with_filter` ran before the prefix trie:
/// every fault's `A(p)`, then rule 2 and the learned re-check, each from
/// scratch on a new engine. Also returns each fault's fate, indexed by
/// [`FaultKey::slot`].
fn oracle(
    circuit: &Circuit,
    store: &PathStore,
    learned: Option<&LearnedImplications>,
    filter: Option<&dyn Fn(usize, Polarity) -> bool>,
) -> (Vec<FaultEntry>, FaultListStats, Vec<Fate>) {
    let mut stats = FaultListStats::default();
    let mut entries = Vec::new();
    let mut fates = Vec::new();
    for (index, stored) in store.iter().enumerate() {
        for polarity in Polarity::BOTH {
            stats.candidates += 1;
            if filter.is_some_and(|drop| drop(index, polarity)) {
                stats.sensitize_eliminated += 1;
                fates.push(Fate::Filtered);
                continue;
            }
            let fault = PathDelayFault::new(stored.path.clone(), polarity);
            let a = match assignments(circuit, &fault, Sensitization::Robust) {
                Ok(a) => a,
                Err(ConditionError::Conflict { .. }) => {
                    stats.rule1_conflicts += 1;
                    fates.push(Fate::Rule1);
                    continue;
                }
                Err(e) => panic!("fault {fault}: {e}"),
            };
            if Implicator::from_assignments(circuit, &a).is_err() {
                stats.rule2_conflicts += 1;
                fates.push(Fate::Rule2);
                continue;
            }
            if learned.is_some() && Implicator::from_assignments_with(circuit, &a, learned).is_err()
            {
                stats.statically_eliminated += 1;
                fates.push(Fate::Learned);
                continue;
            }
            fates.push(Fate::Kept);
            entries.push(FaultEntry {
                fault,
                delay: stored.delay,
                assignments: a,
            });
        }
    }
    (entries, stats, fates)
}

/// Every fault of `store` sorted into trie order here, independently of
/// the library: by `(polarity, path lines)`, then store index.
fn sorted_keys(store: &PathStore) -> Vec<FaultKey> {
    let lines = |key: &FaultKey| store.entries()[key.index].path.lines();
    let mut keys: Vec<FaultKey> = (0..store.len())
        .flat_map(|index| Polarity::BOTH.map(|polarity| FaultKey { index, polarity }))
        .collect();
    keys.sort_by(|a, b| (a.polarity, lines(a), a.index).cmp(&(b.polarity, lines(b), b.index)));
    keys
}

/// The number of path lines two faults share from the source (none
/// across polarities).
fn shared(store: &PathStore, a: FaultKey, b: FaultKey) -> usize {
    let lines = |key: FaultKey| store.entries()[key.index].path.lines();
    if a.polarity != b.polarity {
        return 0;
    }
    lines(a)
        .iter()
        .zip(lines(b))
        .take_while(|(x, y)| x == y)
        .count()
}

/// The fewest path lines of `key`'s path whose requirements' closure
/// conflicts, each prefix's `A()` closed from scratch on a new engine.
/// Only called for a fault whose own closure conflicts.
fn shallowest_conflict(
    circuit: &Circuit,
    store: &PathStore,
    key: FaultKey,
    learned: Option<&LearnedImplications>,
) -> usize {
    let lines = store.entries()[key.index].path.lines();
    (1..=lines.len())
        .find(|&n| {
            let prefix: Path = lines[..n].iter().copied().collect();
            let a = assignments(
                circuit,
                &PathDelayFault::new(prefix, key.polarity),
                Sensitization::Robust,
            )
            .expect("the prefixes of a rule-1 survivor pass rule 1");
            Implicator::from_assignments_with(circuit, &a, learned).is_err()
        })
        .expect("the whole path conflicts")
}

/// `rule2_prefix_refuted` of one trie walk over `walked` (the faults it
/// asserts, in trie order), from first principles: a fault counts when
/// its shallowest conflicting prefix lies within the prefix it shares
/// with the previous walked fault. `refuted` tells which faults the walk
/// refutes; `A(prefix) ⊆ A(p)`, so no other fault has a conflicting
/// prefix.
fn oracle_prefix_refuted(
    circuit: &Circuit,
    store: &PathStore,
    walked: &[FaultKey],
    learned: Option<&LearnedImplications>,
    refuted: impl Fn(FaultKey) -> bool,
) -> u64 {
    let counted = walked.windows(2).filter(|pair| {
        let (prev, key) = (pair[0], pair[1]);
        refuted(key)
            && shallowest_conflict(circuit, store, key, learned) <= shared(store, prev, key)
    });
    counted.count() as u64
}

/// The `rule2_prefix_refuted` total of a build from its oracle fates:
/// the rule-2 walk over the rule-1 survivors, plus with a table the
/// learned walk over the rule-2 survivors. A filtered build walks
/// nothing.
fn expected_prefix_refuted(
    circuit: &Circuit,
    store: &PathStore,
    learned: Option<&LearnedImplications>,
    fates: &[Fate],
) -> u64 {
    if fates.contains(&Fate::Filtered) {
        return 0;
    }
    let keys = sorted_keys(store);
    let fate = |key: &FaultKey| fates[key.slot()];
    let plain: Vec<FaultKey> = keys
        .iter()
        .copied()
        .filter(|k| fate(k) != Fate::Rule1)
        .collect();
    let mut total =
        oracle_prefix_refuted(circuit, store, &plain, None, |k| fate(&k) == Fate::Rule2);
    if learned.is_some() {
        let second: Vec<FaultKey> = plain
            .into_iter()
            .filter(|k| fate(k) != Fate::Rule2)
            .collect();
        total += oracle_prefix_refuted(circuit, store, &second, learned, |k| {
            fate(&k) == Fate::Learned
        });
    }
    total
}

/// Telemetry is process-global: builds that read a counter total
/// serialize here, and only they build fault lists, so no other test of
/// this binary adds to `rule2_prefix_refuted` meanwhile.
static RECORDING: Mutex<()> = Mutex::new(());

/// [`FaultList::build_threaded`] with its `rule2_prefix_refuted` total.
fn build_recorded(
    circuit: &Circuit,
    store: &PathStore,
    learned: Option<&LearnedImplications>,
    filter: Option<&dyn Fn(usize, Polarity) -> bool>,
    threads: usize,
) -> (FaultList, FaultListStats, u64) {
    let _guard = RECORDING.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = pdf_telemetry::begin_recording();
    let (list, stats) = FaultList::build_threaded(
        circuit,
        store,
        Sensitization::Robust,
        learned,
        filter,
        threads,
    );
    let refuted = pdf_telemetry::report().counter(pdf_telemetry::counters::RULE2_PREFIX_REFUTED);
    pdf_telemetry::disable();
    pdf_telemetry::reset();
    (list, stats, refuted.unwrap_or(0))
}

/// Every case at 1, 2, 4 and 8 threads matches the oracle: the list,
/// every counter, and the `rule2_prefix_refuted` total.
fn assert_matches_oracle(name: &str, circuit: &Circuit, store: &PathStore) {
    let table = learn_implications(circuit);
    for learned in [None, Some(&table)] {
        // The one filter the contract admits: the classifier's verdict
        // for the same table.
        let analysis = classify_store(circuit, store, Sensitization::Robust, learned);
        let sensitize = |index: usize, polarity: Polarity| analysis.is_false(index, polarity);
        let filters: [Option<&dyn Fn(usize, Polarity) -> bool>; 2] = [None, Some(&sensitize)];
        for filter in filters {
            let (entries, expected, fates) = oracle(circuit, store, learned, filter);
            let refuted = expected_prefix_refuted(circuit, store, learned, &fates);
            for threads in [1, 2, 4, 8] {
                let case = format!(
                    "{name} learned={} filter={} threads={threads}",
                    learned.is_some(),
                    filter.is_some()
                );
                let (list, stats, by_prefix) =
                    build_recorded(circuit, store, learned, filter, threads);
                assert_eq!(stats, expected, "{case}");
                assert_eq!(by_prefix, refuted, "{case}: rule2_prefix_refuted");
                assert_eq!(list.len(), entries.len(), "{case}");
                for (got, want) in list.iter().zip(&entries) {
                    assert_eq!(got.fault, want.fault, "{case}");
                    assert_eq!(got.delay, want.delay, "{case}");
                    assert_eq!(got.assignments, want.assignments, "{case}");
                }
            }
        }
    }
}

fn assert_stand_in_matches_oracle(name: &str, cap: usize) {
    let circuit = circuit_by_name(name).expect("known circuit");
    let store = PathEnumerator::new(&circuit)
        .with_cap(cap)
        .enumerate()
        .store;
    assert_matches_oracle(name, &circuit, &store);
}

#[test]
fn build_with_filter_matches_the_per_fault_oracle_on_s27() {
    assert_stand_in_matches_oracle("s27", 10_000);
}

#[test]
fn build_with_filter_matches_the_per_fault_oracle_on_b03r() {
    assert_stand_in_matches_oracle("b03+r", 1_500);
}

#[test]
fn build_with_filter_matches_the_per_fault_oracle_on_a_stand_in() {
    assert_stand_in_matches_oracle("b09", 600);
}

/// Where a rule-1 fault `q` sits between two consecutive rule-1
/// survivors `p` and `s` of the rule-2 walk, and `p`'s implications
/// conflict: how many such `s` are prefix-refuted (they share `p`'s
/// refuted prefix), and how many are not although they share that
/// prefix with the key just before them. The second kind tells a walk
/// that shares the engine with the previous survivor from one that
/// shares it with the previous key.
fn interleavings(circuit: &Circuit, store: &PathStore, fates: &[Fate]) -> (usize, usize) {
    let keys = sorted_keys(store);
    let (mut refuted, mut apart) = (0, 0);
    let mut survivor: Option<FaultKey> = None;
    for (i, &key) in keys.iter().enumerate() {
        if fates[key.slot()] == Fate::Rule1 {
            continue;
        }
        if let Some(p) = survivor.filter(|&p| keys[i - 1] != p) {
            if fates[p.slot()] == Fate::Rule2 {
                let depth = shallowest_conflict(circuit, store, p, None);
                if depth <= shared(store, p, key) {
                    refuted += 1;
                } else if depth <= shared(store, keys[i - 1], key) {
                    apart += 1;
                }
            }
        }
        survivor = Some(key);
    }
    (refuted, apart)
}

/// Synthesizer seeds (one redundancy gadget) whose full path stores
/// interleave rule-1 faults with refuted rule-2 survivors both ways
/// [`interleavings`] counts.
const INTERLEAVED: [u64; 3] = [2, 7, 9];

/// Synthesized circuits where rule-1 faults interleave with refuted
/// rule-2 survivors in trie order.
#[test]
fn build_matches_the_oracle_where_rule1_faults_interleave() {
    let (mut refuted, mut apart) = (0, 0);
    for seed in INTERLEAVED {
        let circuit = synth(seed, 1).expect("synthesizable");
        let store = PathEnumerator::new(&circuit).enumerate().store;
        let (_, _, fates) = oracle(&circuit, &store, None, None);
        let (r, a) = interleavings(&circuit, &store, &fates);
        refuted += r;
        apart += a;
        assert_matches_oracle(&format!("synth {seed}"), &circuit, &store);
    }
    assert!(refuted > 0 && apart > 0, "{refuted} {apart}");
}

/// Elimination's counters on five stand-ins: rule-1 conflicts, rule-2
/// conflicts and `rule2_prefix_refuted`, as the two-pass elimination
/// (rule 1 per fault, then the rule-2 trie walk) counted them, at one
/// and at four threads.
#[test]
fn elimination_counters_are_pinned() {
    for (name, cap, pinned) in [
        ("b04", 2_000, (297, 1_544, 1_390)),
        ("b09", 10_000, (325, 537, 196)),
        ("b03+r", 10_000, (376, 789, 374)),
        ("s5378*", 10_000, (1_398, 4_492, 3_506)),
        ("s9234*", 4_000, (850, 1_898, 1_407)),
    ] {
        let circuit = circuit_by_name(name).expect("stand-in");
        let store = PathEnumerator::new(&circuit)
            .with_cap(cap)
            .enumerate()
            .store;
        for threads in [1, 4] {
            let (_, stats, refuted) = build_recorded(&circuit, &store, None, None, threads);
            assert_eq!(
                (stats.rule1_conflicts, stats.rule2_conflicts, refuted),
                pinned,
                "{name} --cap {cap} threads={threads}"
            );
        }
    }
}
