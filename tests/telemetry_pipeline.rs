//! End-to-end telemetry: a small-circuit pipeline run must emit a span
//! for every phase — enumerate, eliminate, generate, enrich, compact,
//! simulate — with nonzero durations, plus the standard counters, and the
//! resulting report must survive a JSON round trip. The run is repeated
//! on a two-worker pool, whose builds must report under `generate` too,
//! with the same `implication_steps` count.
//!
//! This file holds exactly one test: telemetry state is process-global,
//! and a dedicated integration-test binary is its own process.

use pdf_atpg::{AtpgConfig, EnrichmentAtpg, TargetSplit};
use pdf_faults::FaultList;
use pdf_netlist::iscas::s27;
use pdf_paths::PathEnumerator;
use pdf_telemetry::{counters, RunReport};

#[test]
fn pipeline_run_emits_every_phase_span_and_counter() {
    let steps: Vec<u64> = [1, 2].into_iter().map(check_pipeline_report).collect();
    assert_eq!(steps[0], steps[1], "implication_steps depends on the pool");
}

/// Checks one run's report and returns its `implication_steps` count.
fn check_pipeline_report(threads: usize) -> u64 {
    let _ = pdf_telemetry::begin_recording();

    let circuit = s27();
    let enumeration = PathEnumerator::new(&circuit).with_cap(10_000).enumerate();
    let (faults, _) = FaultList::build(&circuit, &enumeration.store);
    // N_P0 = 10 leaves a nonempty P1 on s27, so enrichment demonstrably
    // fires (the pdf-atpg tests pin that property).
    let split = TargetSplit::by_cumulative_length(&faults, 10);
    let outcome = EnrichmentAtpg::new(&circuit)
        .with_config(AtpgConfig {
            seed: 2002,
            threads,
            ..AtpgConfig::default()
        })
        .run(&split);
    let minimized = outcome.tests().clone().into_minimized(&circuit, &faults);
    let coverage = minimized.coverage(&circuit, &faults);
    assert!(coverage.detected_count() > 0);

    pdf_telemetry::disable();
    let report = pdf_telemetry::report();
    let context = format!("{threads} threads: {report:?}");

    for phase in [
        "enumerate",
        "eliminate",
        "generate",
        "enrich",
        "compact",
        "simulate",
    ] {
        let span = report
            .span(phase)
            .unwrap_or_else(|| panic!("missing span `{phase}` at {context}"));
        assert!(span.calls >= 1, "span `{phase}` never entered");
        assert!(span.seconds > 0.0, "span `{phase}` has zero duration");
    }
    // The generate phase nests inside enrich; simulation shows up under
    // both the generator's drop loop and the compaction sweep.
    let enrich = report.span("enrich").unwrap();
    assert!(enrich.children.iter().any(|c| c.name == "generate"));
    // Every justification call runs inside a `justify` span nested under
    // the generator, on whichever thread the build ran.
    let generate = enrich
        .children
        .iter()
        .find(|c| c.name == "generate")
        .unwrap();
    let justify = generate
        .children
        .iter()
        .find(|c| c.name == "justify")
        .unwrap_or_else(|| panic!("missing `justify` span under generate at {context}"));
    assert!(justify.calls >= 1);
    // The necessary-value fixpoint runs inside every call that gets past
    // the budget poll, as packed trial passes.
    assert!(
        justify
            .children
            .iter()
            .any(|c| c.name == "justify.fixpoint"),
        "missing `justify.fixpoint` span under justify at {context}"
    );

    // Secondary-target screening runs once per build under `screen`, with
    // one `screen.rank` entry per value-based ranking round.
    let screen = generate
        .children
        .iter()
        .find(|c| c.name == "screen")
        .unwrap_or_else(|| panic!("missing `screen` span under generate at {context}"));
    assert!(screen.calls >= 1);
    let rank = screen
        .children
        .iter()
        .find(|c| c.name == "screen.rank")
        .unwrap_or_else(|| panic!("missing `screen.rank` span under screen at {context}"));
    assert!(rank.calls >= screen.calls);

    assert!(report.counter(counters::FAULTS_TARGETED).unwrap() > 0);
    assert!(
        report.counter(counters::SECONDARY_DETECTED).unwrap() > 0,
        "enrichment on s27 with N_P0 = 10 must fold in secondary targets"
    );
    assert!(report.counter(counters::SIM_PASSES).unwrap() > 0);
    assert!(report.counter(counters::PACKED_BLOCKS).unwrap() > 0);
    // The packed justifier: every generation session simulates completion
    // blocks and resolves most s27 calls by a random-completion lane.
    assert!(report.counter(counters::JUSTIFY_PACKED_BLOCKS).unwrap() > 0);
    assert!(report.counter(counters::JUSTIFY_LANE_HITS).unwrap() > 0);
    assert!(report.counter(counters::JUSTIFY_FIXPOINT_PASSES).unwrap() > 0);
    // s27 under the default cap has no evictions and the enrichment set
    // may already be minimal, so those counters only need to exist when
    // their events happened; tests_dropped is recorded even when zero.
    assert!(report.counter(counters::TESTS_DROPPED).is_some());
    // Rule 2 and the screening pre-filter run on the implication engine.
    let steps = report.counter(counters::IMPLICATION_STEPS).unwrap();
    assert!(steps > 0);

    // Pool workers report only through their builds' buffers.
    let roots: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        !roots.contains(&"justify") && !roots.contains(&"screen"),
        "build spans leaked to the top level at {context}"
    );

    let text = report.to_json();
    let parsed = RunReport::from_json(&text).expect("report JSON must parse back");
    assert_eq!(parsed, report);
    steps
}
