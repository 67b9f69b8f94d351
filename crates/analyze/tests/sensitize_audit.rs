//! Soundness audits for false-path pre-elimination.
//!
//! The static sensitizability pass may only eliminate faults it can
//! *prove* unsensitizable. These tests re-prove the eliminations by
//! complete search ([`ExactJustifier`]):
//!
//! * a hand-built reconvergent gadget whose straight-through path is
//!   false in a way only the depth-1 case split can see (rules 1/2 and
//!   learning all pass) — the elimination is audited exhaustively;
//! * the `b03+r` ISCAS stand-in: the filtered list is a subset of the
//!   unfiltered one and every difference is exact-search-unsatisfiable
//!   (the release-mode nightly leg runs the full audit).

use std::collections::HashSet;

use pdf_analyze::{classify_store, learn_implications};
use pdf_atpg::{ExactJustifier, ExactOutcome};
use pdf_faults::{FaultList, Sensitization};
use pdf_logic::GateKind;
use pdf_netlist::{circuit_by_name, Circuit, CircuitBuilder};
use pdf_paths::{PathClass, PathEnumerator, PathStore};

/// A circuit whose `i → t` path is a false path invisible to plain
/// implication: the side requirements `w = 1` and `d = 1` are
/// individually free, but `w` forces `a = b` while `d` forces `a ≠ b` —
/// a conflict only a case split on `a` (or `b`) exposes.
///
/// `w = OR(AND(a, b), AND(!a, !b))` (a XNOR), `d` the matching XOR,
/// `t = AND(i, w, d)`.
fn split_false_gadget() -> Circuit {
    let mut bld = CircuitBuilder::new("split-false");
    let i = bld.input("i");
    let a = bld.input("a");
    let b = bld.input("b");
    let a1 = bld.branch("a1", a);
    let a2 = bld.branch("a2", a);
    let a3 = bld.branch("a3", a);
    let a4 = bld.branch("a4", a);
    let b1 = bld.branch("b1", b);
    let b2 = bld.branch("b2", b);
    let b3 = bld.branch("b3", b);
    let b4 = bld.branch("b4", b);
    let na = bld.gate("na", GateKind::Not, &[a2]);
    let nb = bld.gate("nb", GateKind::Not, &[b2]);
    let na2 = bld.gate("na2", GateKind::Not, &[a4]);
    let nb2 = bld.gate("nb2", GateKind::Not, &[b4]);
    let p = bld.gate("p", GateKind::And, &[a1, b1]);
    let q = bld.gate("q", GateKind::And, &[na, nb]);
    let w = bld.gate("w", GateKind::Or, &[p, q]);
    let e1 = bld.gate("e1", GateKind::And, &[a3, nb2]);
    let e2 = bld.gate("e2", GateKind::And, &[na2, b3]);
    let d = bld.gate("d", GateKind::Or, &[e1, e2]);
    let t = bld.gate("t", GateKind::And, &[i, w, d]);
    bld.mark_output(t);
    bld.finish().unwrap()
}

/// Builds both lists and returns the entries of `off` the filter dropped.
fn eliminated_entries<'a>(
    circuit: &Circuit,
    store: &PathStore,
    off: &'a FaultList,
    on: &FaultList,
) -> Vec<&'a pdf_faults::FaultEntry> {
    let _ = (circuit, store);
    let kept: HashSet<String> = on.iter().map(|e| format!("{}", e.fault)).collect();
    off.iter()
        .filter(|e| !kept.contains(&format!("{}", e.fault)))
        .collect()
}

#[test]
fn case_split_eliminates_the_gadget_false_path_and_exact_search_agrees() {
    let circuit = split_false_gadget();
    let store = PathEnumerator::new(&circuit)
        .with_cap(10_000)
        .enumerate()
        .store;
    let analysis = classify_store(&circuit, &store, Sensitization::Robust, None);
    assert!(
        analysis.stats.split_refuted > 0,
        "the gadget's false path must be caught by the case split, not the plain rules"
    );
    let t = circuit.find_line("t").unwrap();
    let i = circuit.find_line("i").unwrap();
    let direct = store
        .iter()
        .position(|s| s.path.lines() == [i, t])
        .expect("the i → t path is enumerated");
    assert_eq!(analysis.path_class(direct), PathClass::False);

    let (off, _) = FaultList::build_with(&circuit, &store, Sensitization::Robust);
    let (on, on_stats) = FaultList::build_with_filter(
        &circuit,
        &store,
        Sensitization::Robust,
        None,
        Some(&|k, p| analysis.is_false(k, p)),
    );
    assert!(on.len() < off.len(), "the filter must drop the false path");
    assert_eq!(on_stats.sensitize_eliminated, analysis.stats.false_faults);

    // Three inputs: complete search is exhaustive and must prove every
    // dropped fault unsatisfiable, with no node-limit escape hatch.
    let exact = ExactJustifier::new(&circuit).with_node_limit(1_000_000);
    let dropped = eliminated_entries(&circuit, &store, &off, &on);
    assert!(!dropped.is_empty());
    for entry in dropped {
        match exact.justify(&entry.assignments) {
            ExactOutcome::Unsatisfiable => {}
            ExactOutcome::Satisfiable(_) => {
                panic!("eliminated fault {} is testable", entry.fault)
            }
            ExactOutcome::LimitExceeded => {
                panic!("exact search must terminate on a 3-input circuit")
            }
        }
    }
}

fn b03r() -> (Circuit, PathStore) {
    let circuit = circuit_by_name("b03+r").expect("b03+r stand-in");
    let store = PathEnumerator::new(&circuit)
        .with_cap(10_000)
        .enumerate()
        .store;
    (circuit, store)
}

/// Fast pinned acceptance for tier-1: on `b03+r` the filter is
/// contractive, the ledger reconciles, and classification tags cover the
/// store.
#[test]
fn sensitize_filter_is_contractive_on_b03r() {
    let (circuit, mut store) = b03r();
    let learned = learn_implications(&circuit);
    let analysis = classify_store(&circuit, &store, Sensitization::Robust, Some(&learned));
    assert_eq!(analysis.stats.paths, store.len());
    analysis.tag_store(&mut store);
    assert_eq!(store.class_counts().total(), store.len());

    let (off, _) =
        FaultList::build_with_learned(&circuit, &store, Sensitization::Robust, Some(&learned));
    let (on, on_stats) = FaultList::build_with_filter(
        &circuit,
        &store,
        Sensitization::Robust,
        Some(&learned),
        Some(&|k, p| analysis.is_false(k, p)),
    );
    assert_eq!(on_stats.sensitize_eliminated, analysis.stats.false_faults);
    assert_eq!(
        on_stats.candidates,
        on.len()
            + on_stats.sensitize_eliminated
            + on_stats.rule1_conflicts
            + on_stats.rule2_conflicts
            + on_stats.statically_eliminated
    );
    let off_keys: HashSet<String> = off.iter().map(|e| format!("{}", e.fault)).collect();
    for entry in on.iter() {
        assert!(
            off_keys.contains(&format!("{}", entry.fault)),
            "filtered list grew a fault: {}",
            entry.fault
        );
    }
    // Everything the rules already eliminate is classified false too, so
    // the filtered build's rule counters can only shrink.
    assert!(on.len() <= off.len());
}

/// Nightly soundness audit: every fault the full static layer
/// eliminates *beyond* rules 1/2 — present in the plain rules-only
/// list, absent from the filtered list built with learning and the
/// sensitizability filter — is re-proven untestable by complete search,
/// on the gadget and on `b03+r`. The baseline is deliberately the
/// rules-only list: the learned baseline already absorbs everything the
/// classifier proves false on these circuits, which would leave nothing
/// to audit. Deep `b03+r` cones may exhaust the node limit (tolerated);
/// a satisfiable eliminated fault fails immediately. Runs minutes in
/// release, so tier-1 ignores it.
#[test]
#[ignore = "slow exact-search audit; run explicitly or via the nightly CI leg"]
fn sensitize_eliminated_faults_are_unsatisfiable_under_exact_search() {
    let (b03r_circuit, b03r_store) = b03r();
    let gadget = split_false_gadget();
    let gadget_store = PathEnumerator::new(&gadget)
        .with_cap(10_000)
        .enumerate()
        .store;
    let (mut unsat, mut inconclusive) = (0usize, 0usize);
    for (circuit, store) in [(&gadget, &gadget_store), (&b03r_circuit, &b03r_store)] {
        let learned = learn_implications(circuit);
        let analysis = classify_store(circuit, store, Sensitization::Robust, Some(&learned));
        let (off, _) = FaultList::build_with(circuit, store, Sensitization::Robust);
        let (on, _) = FaultList::build_with_filter(
            circuit,
            store,
            Sensitization::Robust,
            Some(&learned),
            Some(&|k, p| analysis.is_false(k, p)),
        );
        let exact = ExactJustifier::new(circuit).with_node_limit(2_000_000);
        for entry in eliminated_entries(circuit, store, &off, &on) {
            match exact.justify(&entry.assignments) {
                ExactOutcome::Unsatisfiable => unsat += 1,
                ExactOutcome::Satisfiable(_) => {
                    panic!("eliminated fault {} is testable", entry.fault)
                }
                ExactOutcome::LimitExceeded => inconclusive += 1,
            }
        }
    }
    assert!(
        unsat > 0,
        "no eliminated fault was conclusively proven untestable ({inconclusive} inconclusive)"
    );
}
