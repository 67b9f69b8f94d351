//! Measures *justification* throughput on the largest bundled stand-in
//! and writes the result to `BENCH_justify.json`.
//!
//! The figure of merit is *attempts per second*: one attempt is one fully
//! specified random completion of the necessary-value fixpoint, evaluated
//! through the requirement cone. The packed kernel evaluates up to 256
//! of them (four 64-candidate groups) per cone simulation. The report
//! gives the min/median/max of repeated samples for both the whole run
//! and its completion phase; rates use the median.
//!
//! Event-driven propagation re-evaluates only the gates whose input rails
//! actually changed between completion passes; the `events` block reports
//! how small that slice of the circuit is (gate evaluations per pass, and
//! their share of the circuit's gates, `lines_fraction`). The `fixpoint` block gives the
//! necessary-value fixpoint's packed trial passes and its median seconds;
//! its propagation events are not part of the `events` block.
//!
//! Run with `--release`; circuit and workload can be overridden via
//! `PDF_BENCH_CIRCUIT`, `PDF_BENCH_TESTS` (justification calls here).

use pdf_atpg::{Justifier, SimWidth};
use pdf_bench::{bench_budget, knob_number, measure, publish, setup, start, Spread};
use pdf_knobs::BENCH_TESTS;
use pdf_telemetry::Json;

/// Timed samples per measurement.
const SAMPLES: usize = 5;

fn main() {
    let (_telemetry, circuit_name) = start();
    let n_calls: usize = knob_number(&BENCH_TESTS, 256);

    // Abort on structural defects before the sampling loops spend any
    // budget (PDF_LINT=off skips, =warn reports without aborting).
    pdf_experiments::preflight_lint(&[circuit_name.as_str()]);
    let s = setup(&circuit_name, 2_000, 200);
    let entries: Vec<_> = s.faults.iter().collect();
    assert!(!entries.is_empty(), "no faults on {circuit_name}");

    // Completion- and fixpoint-phase seconds of every call of the closure
    // below, the warm-up first.
    let mut completion_seconds = Vec::new();
    let mut fixpoint_seconds = Vec::new();
    let (total, (found, stats)) = measure(&bench_budget(), SAMPLES, || {
        let mut justifier = Justifier::new(&s.circuit, 3).with_attempts(4);
        let mut found = 0usize;
        for call in 0..n_calls {
            // Every requirement set is visited twice in a row; the call
            // sequence is fixed so the figures stay comparable across
            // revisions.
            let entry = entries[call / 2 % entries.len()];
            found += usize::from(justifier.justify(&entry.assignments).is_some());
        }
        completion_seconds.push(justifier.completion_seconds());
        fixpoint_seconds.push(justifier.fixpoint_seconds());
        (found, justifier.stats())
    });
    let completion = Spread::of(&completion_seconds[1..]);
    let fixpoint = Spread::of(&fixpoint_seconds[1..]);

    // Attempts/sec of the completion engine itself; the phases around it
    // (necessary-value fixpoint, guided fallback) would only dilute it.
    let rate = stats.completion_attempts as f64 / completion.median;
    // Event economy: gates actually evaluated per completion pass, as an
    // absolute count and as a fraction of the circuit's gates (branches
    // and inputs are never evaluated). Narrow-cone calls with most pins
    // frozen should keep the fraction well under one even though passes
    // repeat over the same cone.
    let blocks = stats.packed_blocks.max(1) as f64;
    let events_per_block = stats.events_propagated as f64 / blocks;
    let lines_fraction = events_per_block / s.circuit.gate_count() as f64;
    let width = SimWidth::auto().lanes();
    let summary = format!(
        "justify_throughput {circuit_name}: {n_calls} calls, {found} justified; \
         {rate:.3e} attempts/s @ width {width}, {events_per_block:.0} gates/block \
         ({:.1}% of the gates), end-to-end {:.2}s (completion {:.3}s, fixpoint {:.3}s \
         over {} passes)\n",
        lines_fraction * 100.0,
        total.median,
        completion.median,
        fixpoint.median,
        stats.fixpoint_passes,
    );

    let report = Json::object()
        .field("circuit", circuit_name.as_str())
        .field("lines", s.circuit.line_count())
        .field("gates", s.circuit.gate_count())
        .field("calls", n_calls)
        .field("justified", found)
        .field(
            "packed",
            Json::object()
                .field("seconds", completion.median)
                .field("total_seconds", total.median)
                .field("attempts", stats.completion_attempts)
                .field("attempts_per_sec", rate)
                .field("blocks", stats.packed_blocks)
                .field("completion_spread", completion.to_json())
                .field("total_spread", total.to_json()),
        )
        .field(
            "fixpoint",
            Json::object()
                .field("passes", stats.fixpoint_passes)
                .field("seconds", fixpoint.median),
        )
        .field("width", width)
        .field(
            "events",
            Json::object()
                .field("events_propagated", stats.events_propagated)
                .field("lines_skipped", stats.lines_skipped)
                .field("events_per_block", events_per_block)
                .field("lines_fraction", lines_fraction),
        );
    publish("BENCH_justify.json", &report, &summary);
}
