//! Cross-crate integration tests: the full enumerate → eliminate → split →
//! generate → simulate pipeline on a benchmark-scale stand-in, with
//! reduced workloads to stay fast.

use path_delay_atpg::prelude::*;
use pdf_atpg::{AtpgConfig, Compaction};
use pdf_experiments::{Prepared, Workload};

fn setup(name: &str, n_p: usize, n_p0: usize) -> Prepared {
    let workload = Workload {
        n_p,
        n_p0,
        ..Workload::default()
    };
    pdf_experiments::prepare(name, &workload).expect("known stand-in")
}

#[test]
fn bookkeeping_matches_post_hoc_simulation_for_every_heuristic() {
    let s = setup("b09", 600, 120);
    for compaction in Compaction::ALL {
        let config = AtpgConfig {
            seed: 11,
            compaction,
            ..AtpgConfig::default()
        };
        let outcome = BasicAtpg::new(&s.circuit)
            .with_config(config)
            .run(s.split.p0());
        let coverage = outcome.tests().coverage(&s.circuit, s.split.p0());
        assert_eq!(
            coverage.detected(),
            outcome.detected(),
            "{}",
            compaction.label()
        );
    }
}

#[test]
fn enrichment_bookkeeping_matches_post_hoc_simulation() {
    let s = setup("b09", 600, 120);
    let outcome = EnrichmentAtpg::new(&s.circuit).with_seed(11).run(&s.split);
    let everything = s.split.all();
    let coverage = outcome.tests().coverage(&s.circuit, &everything);
    assert_eq!(coverage.detected(), outcome.detected());
}

#[test]
fn compaction_reduces_tests_without_losing_detection() {
    let s = setup("b09", 600, 120);
    let mut results = Vec::new();
    for compaction in Compaction::ALL {
        let config = AtpgConfig {
            seed: 5,
            compaction,
            ..AtpgConfig::default()
        };
        let outcome = BasicAtpg::new(&s.circuit)
            .with_config(config)
            .run(s.split.p0());
        results.push((
            compaction,
            outcome.tests().len(),
            outcome.detected_in_set(0),
        ));
    }
    let (_, uncomp_tests, uncomp_detected) = results[0];
    for &(compaction, tests, detected) in &results[1..] {
        assert!(
            tests < uncomp_tests,
            "{}: {tests} should beat uncomp {uncomp_tests}",
            compaction.label()
        );
        // Detection parity within the paper's observed random variation.
        assert!(
            detected + 12 >= uncomp_detected,
            "{}: {detected} vs uncomp {uncomp_detected}",
            compaction.label()
        );
    }
}

#[test]
fn enrichment_is_free_and_strictly_better_on_p1() {
    let s = setup("b09", 600, 120);
    assert!(!s.split.p1().is_empty());
    let config = AtpgConfig::default();

    let basic = BasicAtpg::new(&s.circuit)
        .with_config(config.clone())
        .run(s.split.p0());
    let everything = s.split.all();
    let accidental = basic
        .tests()
        .coverage(&s.circuit, &everything)
        .detected_count();

    let enriched = EnrichmentAtpg::new(&s.circuit)
        .with_config(config)
        .run(&s.split);

    assert!(enriched.detected_total() > accidental);
    let delta = enriched.tests().len().abs_diff(basic.tests().len());
    assert!(
        delta * 20 <= basic.tests().len().max(20),
        "test count should stay essentially equal: {} vs {}",
        enriched.tests().len(),
        basic.tests().len()
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let s = setup("b03", 400, 80);
        let outcome = EnrichmentAtpg::new(&s.circuit).with_seed(99).run(&s.split);
        (
            s.faults.len(),
            outcome.tests().len(),
            outcome.detected_total(),
            outcome
                .tests()
                .tests()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_vary_only_slightly() {
    // The paper: "small variations ... due to the random selection of
    // values during test generation".
    let s = setup("b09", 600, 120);
    let mut tests = Vec::new();
    let mut detected = Vec::new();
    for seed in [1u64, 2, 3] {
        let outcome = BasicAtpg::new(&s.circuit).with_seed(seed).run(s.split.p0());
        tests.push(outcome.tests().len());
        detected.push(outcome.detected_in_set(0));
    }
    let t_spread = tests.iter().max().unwrap() - tests.iter().min().unwrap();
    let d_spread = detected.iter().max().unwrap() - detected.iter().min().unwrap();
    assert!(t_spread * 10 <= *tests.iter().max().unwrap(), "{tests:?}");
    assert!(
        d_spread * 10 <= *detected.iter().max().unwrap(),
        "{detected:?}"
    );
}

#[test]
fn detected_faults_have_robust_witnesses() {
    // Every fault the outcome claims detected must have at least one test
    // in the set whose simulated waveforms satisfy its requirements.
    let s = setup("b09", 400, 80);
    let outcome = BasicAtpg::new(&s.circuit).with_seed(3).run(s.split.p0());
    let waves: Vec<Vec<pdf_logic::Triple>> = outcome
        .tests()
        .tests()
        .iter()
        .map(|t| pdf_netlist::simulate_triples(&s.circuit, &t.to_triples()))
        .collect();
    for (i, entry) in s.split.p0().iter().enumerate() {
        if outcome.detected()[i] {
            assert!(
                waves.iter().any(|w| entry.assignments.satisfied_by(w)),
                "{} claimed detected without witness",
                entry.fault
            );
        }
    }
}

#[test]
fn k_set_generalization_runs_end_to_end() {
    let s = setup("b09", 600, 120);
    let histogram = LengthHistogram::from_lengths(s.faults.delays());
    let classes = histogram.classes();
    if classes.len() < 4 {
        return; // degenerate population; nothing to split
    }
    let t1 = classes[1].length;
    let t2 = classes[classes.len() / 2].length;
    if t1 <= t2 {
        return;
    }
    let split = TargetSplit::by_thresholds(&s.faults, &[t1, t2]);
    assert_eq!(split.sets().len(), 3);
    let outcome = EnrichmentAtpg::new(&s.circuit).with_seed(4).run(&split);
    assert!(outcome.detected_in_set(0) > 0);
    assert_eq!(
        outcome.detected().len(),
        split.total(),
        "all sets participate in detection bookkeeping"
    );
}

#[test]
fn nonrobust_population_is_superset_of_robust() {
    let circuit = pdf_netlist::circuit_by_name("b09").unwrap();
    let paths = PathEnumerator::new(&circuit).with_cap(600).enumerate();
    let (robust, _) = FaultList::build_with(&circuit, &paths.store, Sensitization::Robust);
    let (nonrobust, _) = FaultList::build_with(&circuit, &paths.store, Sensitization::NonRobust);
    assert!(nonrobust.len() >= robust.len());
}
