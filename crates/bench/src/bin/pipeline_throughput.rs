//! Measures parallel test-generation wall-clock scaling on the largest
//! bundled stand-in and writes the result to `BENCH_pipeline.json`.
//!
//! The figure of merit is the end-to-end enrichment-generation time at
//! 1/2/4/8 worker threads over the same fault population, as the
//! min/median/max of repeated samples. Every pooled run is asserted
//! byte-identical to the single-threaded reference (test text, detection
//! counts, justification counters) — a scaling number from a run that
//! diverged would be meaningless. A thread count above the machine's
//! `cores` still runs once for that check, but its curve point is
//! published as `"measured": false`: it would time oversubscription, not
//! scaling. The `learning` spread times `learn_implications`, the
//! `--static-learning` layer, on the same circuit, and the `elimination`
//! spreads time the one-thread fault-list build over its enumerated
//! paths without (`rules`: rules 1 and 2) and with the learned table
//! (`learned`: the learned re-check on top). Run with `--release`;
//! circuit and workload can be overridden via `PDF_BENCH_CIRCUIT`,
//! `PDF_BENCH_NP`, `PDF_BENCH_NP0`.

use std::fmt::Write;

use pdf_atpg::{AtpgConfig, EnrichmentAtpg, JustifyStats};
use pdf_bench::{bench_budget, knob_number, measure, publish, setup, start};
use pdf_faults::{FaultList, Sensitization};
use pdf_knobs::{BENCH_NP, BENCH_NP0};
use pdf_paths::PathEnumerator;
use pdf_telemetry::Json;

/// Timed samples per measured thread count.
const SAMPLES: usize = 3;

fn main() {
    let (_telemetry, circuit_name) = start();
    let n_p: usize = knob_number(&BENCH_NP, 2_000);
    let n_p0: usize = knob_number(&BENCH_NP0, 200);

    pdf_experiments::preflight_lint(&[circuit_name.as_str()]);
    let s = setup(&circuit_name, n_p, n_p0);
    let budget = bench_budget();
    // Scaling is bounded by the machine: a 1-core runner records ~1x at
    // every count, so only counts up to `cores` are timed.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (learning, learned) = measure(&budget, SAMPLES, || {
        pdf_analyze::learn_implications(&s.circuit).len()
    });
    let table = pdf_analyze::learn_implications(&s.circuit);
    let store = PathEnumerator::new(&s.circuit)
        .with_cap(n_p)
        .enumerate()
        .store;
    let eliminate = |learned| {
        FaultList::build_with_learned(&s.circuit, &store, Sensitization::Robust, learned)
            .0
            .len()
    };
    let (rules, kept) = measure(&budget, SAMPLES, || eliminate(None));
    let (rechecked, kept_learned) = measure(&budget, SAMPLES, || eliminate(Some(&table)));

    // What a run must reproduce: test text and count, detections,
    // justification counters.
    let generate = |threads: usize| -> (String, usize, usize, JustifyStats) {
        let config = AtpgConfig {
            threads,
            ..AtpgConfig::default()
        };
        let outcome = EnrichmentAtpg::new(&s.circuit)
            .with_config(config)
            .run(&s.split);
        (
            outcome.tests().to_text(),
            outcome.tests().len(),
            outcome.detected_total(),
            outcome.stats().justify,
        )
    };

    let (serial, reference) = measure(&budget, SAMPLES, || generate(1));
    let mut curve = Json::object();
    let mut speedup_at_4 = Json::Null;
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "pipeline_throughput {circuit_name}: {} faults, {} tests, {cores} core(s)",
        s.faults.len(),
        reference.1,
    );
    let _ = writeln!(
        summary,
        "  learning: {:.3}s median, {learned} implications",
        learning.median
    );
    let _ = writeln!(
        summary,
        "  elimination: {:.3}s median ({kept} faults kept), {:.3}s with the learned table \
         ({kept_learned} kept)",
        rules.median, rechecked.median
    );
    for threads in [1_usize, 2, 4, 8] {
        let point = if threads > cores {
            assert_eq!(
                generate(threads),
                reference,
                "{threads}-thread run diverged from the serial reference"
            );
            let _ = writeln!(
                summary,
                "  threads {threads}: not measured (more threads than cores)"
            );
            Json::object().field("measured", false)
        } else {
            let (spread, outcome) = if threads == 1 {
                (serial, reference.clone())
            } else {
                measure(&budget, SAMPLES, || generate(threads))
            };
            assert_eq!(
                outcome, reference,
                "{threads}-thread run diverged from the serial reference"
            );
            let speedup = serial.median / spread.median;
            if threads == 4 {
                speedup_at_4 = Json::Num(speedup);
            }
            let _ = writeln!(
                summary,
                "  threads {threads}: {:.3}s median ({speedup:.2}x)",
                spread.median
            );
            Json::object()
                .field("measured", true)
                .field("seconds", spread.median)
                .field("spread", spread.to_json())
                .field("speedup_vs_single", speedup)
        };
        curve = curve.field(&threads.to_string(), point);
    }

    let report = Json::object()
        .field("schema", "pdf-bench-pipeline")
        .field("circuit", circuit_name.as_str())
        .field("cores", cores)
        .field(
            "learning",
            learning.to_json().field("implications", learned),
        )
        .field(
            "elimination",
            Json::object()
                .field("rules", rules.to_json().field("faults", kept))
                .field("learned", rechecked.to_json().field("faults", kept_learned)),
        )
        .field("lines", s.circuit.line_count())
        .field("faults", s.faults.len())
        .field("tests", reference.1)
        .field("detected", reference.2)
        .field("threads_curve", curve)
        .field("speedup_at_4", speedup_at_4);
    publish("BENCH_pipeline.json", &report, &summary);
}
