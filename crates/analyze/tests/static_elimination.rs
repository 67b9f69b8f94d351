//! Pinned acceptance: static learning eliminates provably-untestable
//! faults on an ISCAS stand-in benchmark.
//!
//! The `+r` stand-in variants carry function-preserving redundancy
//! gadgets (see `pdf_netlist::synth`), restoring the untestable-fault
//! character of the real ISCAS benchmarks that clean random DAGs lack.
//! Plain per-slot implication cannot see through the gadgets'
//! reconvergence, so every fault they kill is credited to the learned
//! closure table.

use std::collections::HashSet;

use pdf_analyze::learn_implications;
use pdf_atpg::{ExactJustifier, ExactOutcome};
use pdf_faults::{FaultList, FaultListStats, LearnedImplications, Sensitization};
use pdf_netlist::{circuit_by_name, Circuit};
use pdf_paths::{PathEnumerator, PathStore};

fn b03r() -> (Circuit, PathStore, LearnedImplications) {
    let circuit = circuit_by_name("b03+r").expect("b03+r stand-in");
    let paths = PathEnumerator::new(&circuit).with_cap(10_000).enumerate();
    let table = learn_implications(&circuit);
    (circuit, paths.store, table)
}

fn build_both(
    circuit: &Circuit,
    store: &PathStore,
    table: &LearnedImplications,
) -> (FaultListStats, Vec<String>) {
    let (with_table, stats) =
        FaultList::build_with_learned(circuit, store, Sensitization::Robust, Some(table));
    let (without, plain_stats) = FaultList::build_with(circuit, store, Sensitization::Robust);

    // The table only ever removes faults; the plain rules are untouched.
    assert_eq!(stats.rule1_conflicts, plain_stats.rule1_conflicts);
    assert_eq!(stats.rule2_conflicts, plain_stats.rule2_conflicts);
    assert_eq!(
        stats.statically_eliminated,
        without.len() - with_table.len(),
        "eliminated count must match the fault-list difference"
    );

    let kept: HashSet<String> = with_table.iter().map(|e| format!("{}", e.fault)).collect();
    let eliminated = without
        .iter()
        .map(|e| format!("{}", e.fault))
        .filter(|k| !kept.contains(k))
        .collect();
    (stats, eliminated)
}

/// Fast pinned acceptance for tier-1: the learned table eliminates a
/// non-empty set of faults on `b03+r` and the bookkeeping is coherent.
#[test]
fn static_learning_eliminates_faults_on_b03r() {
    let (circuit, store, table) = b03r();
    assert!(!table.is_empty(), "learning found no implications");
    let (stats, eliminated) = build_both(&circuit, &store, &table);
    assert!(
        stats.statically_eliminated > 0,
        "expected statically eliminated faults on b03+r, got 0"
    );
    assert_eq!(stats.statically_eliminated, eliminated.len());
}

/// Soundness audit: every statically eliminated fault must be genuinely
/// untestable — complete search over its off-path assignments proves
/// unsatisfiability. Deep cones may exhaust the node limit and come back
/// inconclusive (tolerated), but a satisfiable eliminated fault is a
/// soundness bug and fails immediately, and at least one conclusive
/// proof is required. Runs minutes even in release, so it is ignored in
/// tier-1 and exercised by the nightly CI leg.
#[test]
#[ignore = "slow exact-search audit; run explicitly or via the nightly CI leg"]
fn eliminated_faults_are_unsatisfiable_under_exact_search() {
    let (circuit, store, table) = b03r();
    let (with_table, _) =
        FaultList::build_with_learned(&circuit, &store, Sensitization::Robust, Some(&table));
    let (without, _) = FaultList::build_with(&circuit, &store, Sensitization::Robust);
    let kept: HashSet<String> = with_table.iter().map(|e| format!("{}", e.fault)).collect();

    let exact = ExactJustifier::new(&circuit).with_node_limit(2_000_000);
    let (mut unsat, mut inconclusive) = (0usize, 0usize);
    for entry in without.iter() {
        if kept.contains(&format!("{}", entry.fault)) {
            continue;
        }
        match exact.justify(&entry.assignments) {
            ExactOutcome::Unsatisfiable => unsat += 1,
            ExactOutcome::Satisfiable(_) => {
                panic!("eliminated fault {} is testable", entry.fault)
            }
            ExactOutcome::LimitExceeded => inconclusive += 1,
        }
    }
    assert!(
        unsat > 0,
        "no eliminated fault was conclusively proven untestable ({inconclusive} inconclusive)"
    );
}
