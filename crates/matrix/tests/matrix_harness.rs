//! End-to-end matrix harness tests: a clean cross-product has no
//! violations, an injected failure is found, auto-minimized into a
//! deterministic smallest repro, and the artifact replays to the same
//! failure.

use std::sync::Arc;

use pdf_matrix::{CellConfig, Invariant, MatrixAxes, MatrixRunner, ReproCase, RunMode};

/// A fast s27-only matrix that still exercises every invariant family:
/// uncompacted + compacted, two k values, learning on/off, direct +
/// checkpoint/resume, budget on/off, serial + pooled generation.
fn s27_axes() -> MatrixAxes {
    MatrixAxes {
        circuits: vec!["s27".to_owned()],
        compactions: vec![
            pdf_atpg::Compaction::Uncompacted,
            pdf_atpg::Compaction::ValueBased,
        ],
        ks: vec![2, 3],
        n_ps: vec![300],
        n_p0s: vec![10],
        learnings: vec![false, true],
        sensitizes: vec![false],
        run_modes: vec![
            RunMode::Direct,
            RunMode::CheckpointResume {
                cancel_after_polls: 5,
            },
        ],
        threads: vec![1, 2],
        seeds: vec![2002],
        budgets: vec![None, Some(10)],
        faults: vec![None],
    }
}

#[test]
fn clean_s27_matrix_passes_all_invariants() {
    let outcome = MatrixRunner::new(s27_axes()).run();
    assert_eq!(outcome.observations.len(), 2 * 2 * 2 * 2 * 2 * 2);
    let details: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| v.detail.clone())
        .collect();
    assert!(outcome.passed(), "violations: {details:#?}");
    let report = outcome.to_report_json();
    assert_eq!(
        report.get("schema").and_then(pdf_telemetry::Json::as_str),
        Some("pdf-matrix-report")
    );
    // The report must parse back through the shared JSON parser.
    let parsed = pdf_telemetry::Json::parse(&report.to_pretty()).unwrap();
    assert_eq!(
        parsed.get("cells").and_then(pdf_telemetry::Json::as_num),
        Some(outcome.observations.len() as f64)
    );
}

#[test]
fn clean_b09_slice_passes_all_invariants() {
    let axes = MatrixAxes {
        circuits: vec!["b09".to_owned()],
        compactions: vec![pdf_atpg::Compaction::Uncompacted],
        ks: vec![2, 3],
        n_ps: vec![300],
        n_p0s: vec![60],
        learnings: vec![false, true],
        sensitizes: vec![false],
        run_modes: vec![RunMode::Direct],
        threads: vec![1, 4],
        seeds: vec![2002],
        budgets: vec![None],
        faults: vec![None],
    };
    let outcome = MatrixRunner::new(axes).run();
    let details: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| v.detail.clone())
        .collect();
    assert!(outcome.passed(), "violations: {details:#?}");
}

/// The injected-failure runner of the minimizer tests: corrupts the test
/// text of every two-thread cell, which breaks the identity invariant
/// between the serial and pooled members of each throughput group. Keyed
/// on the threads axis alone so the failure survives both circuit
/// shrinking and the reset of every *other* config axis.
fn corrupted_runner() -> MatrixRunner {
    let axes = MatrixAxes {
        circuits: vec!["s27".to_owned()],
        compactions: vec![pdf_atpg::Compaction::ValueBased],
        ks: vec![2],
        n_ps: vec![300],
        n_p0s: vec![10],
        learnings: vec![false],
        sensitizes: vec![false],
        run_modes: vec![RunMode::Direct],
        threads: vec![1, 2],
        seeds: vec![2002],
        budgets: vec![None, Some(10)],
        faults: vec![None],
    };
    MatrixRunner::new(axes).with_injection(Arc::new(|config: &CellConfig, observation| {
        if config.threads == 2 {
            observation.tests_text.push_str("INJECTED-CORRUPTION\n");
        }
    }))
}

#[test]
fn injected_failure_minimizes_to_a_deterministic_smallest_repro() {
    let run = || {
        let outcome = corrupted_runner().run();
        assert!(!outcome.passed(), "the injection must be caught");
        assert!(outcome
            .violations
            .iter()
            .all(|v| v.invariant == Invariant::Ident));
        assert_eq!(outcome.violations.len(), outcome.repros.len());
        outcome
    };

    let artifacts = |outcome: &pdf_matrix::MatrixOutcome| -> Vec<String> {
        outcome
            .repros
            .iter()
            .map(|r| r.to_json().to_pretty())
            .collect()
    };
    // The same seeded corruption shrinks to the byte-identical smallest
    // repro on every run.
    let first = run();
    assert_eq!(artifacts(&first), artifacts(&run()));

    let repro = &first.repros[0];
    // Config axes reset toward defaults wherever the failure survives:
    // the corruption only needs one serial and one pooled cell, so the
    // budget lands on its default.
    for cell in &repro.cells {
        assert_eq!(cell.budget_minutes, None, "{}", cell.label());
    }
    assert!(repro.cells.iter().any(|c| c.threads == 2));
    // The circuit shrank: the s27 combinational core has 10 gates and 4
    // outputs; a threads-keyed corruption needs almost none of them.
    let bench = repro.bench.as_deref().expect("circuit must be shrinkable");
    let shrunk = pdf_netlist::parse_bench(bench, "shrunk").unwrap();
    let core = pdf_netlist::iscas::s27_netlist().combinational_core();
    assert!(
        shrunk.gate_count() < core.gate_count(),
        "{} vs {} gates:\n{bench}",
        shrunk.gate_count(),
        core.gate_count()
    );
    assert_eq!(shrunk.output_count(), 1, "{bench}");

    // The artifact round-trips and replays (with the injection applied)
    // to the same invariant failure.
    let text = repro.to_json().to_pretty();
    let parsed = ReproCase::parse(&text).unwrap();
    let circuit = parsed.resolve_circuit().unwrap();
    let detail = corrupted_runner().probe(&circuit, &parsed.cells, parsed.invariant);
    assert!(
        detail.is_some(),
        "the minimized artifact must replay to the same failure"
    );

    // Without the injection the artifact is clean — the probe measures
    // the bug, not the harness.
    let clean = pdf_matrix::replay(&parsed).unwrap();
    assert!(clean.is_none());
}

/// A minimal chaos slice: checkpointed s27 cells under injected torn
/// writes and transient read errors, next to their clean twins.
fn chaos_axes() -> MatrixAxes {
    MatrixAxes {
        circuits: vec!["s27".to_owned()],
        compactions: vec![pdf_atpg::Compaction::Uncompacted],
        ks: vec![2],
        n_ps: vec![300],
        n_p0s: vec![10],
        learnings: vec![false],
        sensitizes: vec![false],
        run_modes: vec![
            RunMode::Direct,
            RunMode::CheckpointResume {
                cancel_after_polls: 5,
            },
        ],
        threads: vec![1],
        seeds: vec![2002],
        budgets: vec![None],
        faults: vec![
            None,
            Some("checkpoint.write:torn@2".to_owned()),
            Some("checkpoint.read:io@1".to_owned()),
        ],
    }
}

#[test]
fn chaos_cells_heal_and_match_their_clean_twin() {
    let outcome = MatrixRunner::new(chaos_axes()).run();
    assert_eq!(outcome.observations.len(), 6);
    assert!(
        outcome
            .observations
            .iter()
            .any(|o| o.config.faults.is_some()),
        "the faults axis must produce chaos cells"
    );
    let details: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| v.detail.clone())
        .collect();
    assert!(outcome.passed(), "violations: {details:#?}");
}

#[test]
fn a_malformed_faults_spec_is_a_chaos_violation_not_a_panic() {
    let mut axes = chaos_axes();
    axes.run_modes = vec![RunMode::Direct];
    axes.faults = vec![None, Some("checkpoint.write:bogus@0".to_owned())];
    let outcome = MatrixRunner::new(axes).run();
    assert!(!outcome.passed());
    assert!(outcome
        .violations
        .iter()
        .any(|v| v.invariant == Invariant::Chaos && v.detail.contains("invalid faults axis")));
}

#[test]
fn sampled_chaos_cells_get_their_clean_twin_injected() {
    let mut axes = chaos_axes();
    // Order the axis so the first sampled cell is a chaos cell whose
    // clean twin is outside the sample.
    axes.faults = vec![Some("checkpoint.write:torn@2".to_owned()), None];
    let runner = MatrixRunner::new(axes).with_max_cells(1);
    let cells = runner.cells();
    assert_eq!(cells.len(), 2, "the missing clean twin must be appended");
    assert!(cells[0].faults.is_some());
    assert_eq!(cells[1], cells[0].clean_twin());
}

/// A minimal sensitize slice: one on/off twin pair on s27 so the
/// soundness family has a subset + detection + exact-audit check.
fn sensitize_axes() -> MatrixAxes {
    MatrixAxes {
        circuits: vec!["s27".to_owned()],
        compactions: vec![pdf_atpg::Compaction::Uncompacted],
        ks: vec![2],
        n_ps: vec![300],
        n_p0s: vec![10],
        learnings: vec![false],
        sensitizes: vec![false, true],
        run_modes: vec![RunMode::Direct],
        threads: vec![1],
        seeds: vec![2002],
        budgets: vec![None],
        faults: vec![None],
    }
}

#[test]
fn sensitize_pair_passes_the_soundness_invariant() {
    let outcome = MatrixRunner::new(sensitize_axes()).run();
    assert_eq!(outcome.observations.len(), 2);
    let on = outcome
        .observations
        .iter()
        .find(|o| o.config.sensitize)
        .expect("the sensitize axis must produce an on cell");
    assert!(
        on.sensitize_testable.is_empty(),
        "exact audit refuted eliminations: {:?}",
        on.sensitize_testable
    );
    let details: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| v.detail.clone())
        .collect();
    assert!(outcome.passed(), "violations: {details:#?}");
}

#[test]
fn sampled_sensitize_cells_get_their_off_twin_injected() {
    let mut axes = sensitize_axes();
    // Sample down to a single sensitize-on cell; its off reference must
    // be appended the way chaos cells get their clean twin.
    axes.sensitizes = vec![true];
    let runner = MatrixRunner::new(axes).with_max_cells(1);
    let cells = runner.cells();
    assert_eq!(cells.len(), 2, "the missing off twin must be appended");
    assert!(cells[0].sensitize);
    assert_eq!(cells[1], cells[0].sensitize_twin());
}

#[test]
fn stride_sampling_keeps_identity_groups_checkable() {
    // A sampled run still executes and passes: sampling the smoke
    // matrix down must not fabricate violations from orphaned groups.
    let outcome = MatrixRunner::new(s27_axes()).with_max_cells(24).run();
    assert_eq!(outcome.observations.len(), 24);
    let details: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| v.detail.clone())
        .collect();
    assert!(outcome.passed(), "violations: {details:#?}");
}
