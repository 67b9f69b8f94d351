//! Measures scalar vs packed fault-simulation throughput on the largest
//! bundled stand-in and writes the result to `BENCH_sim.json`.
//!
//! The figure of merit is *checks per second*: one check is one
//! (test, fault) requirement evaluation, so a full coverage pass performs
//! `tests × faults` of them. The scalar row is the reference oracle (one
//! waveform simulation per test); the packed row is the production
//! kernel on its 256-lane tile, run on one thread. Every row reports the
//! min/median/max of repeated samples; rates use the median. Run with `--release`; circuit and workload can be overridden
//! via `PDF_BENCH_CIRCUIT`, `PDF_BENCH_TESTS`.

use pdf_atpg::{Justifier, SimWidth, TestSet};
use pdf_bench::{bench_budget, knob_number, measure, publish, setup, start, Spread};
use pdf_knobs::BENCH_TESTS;
use pdf_netlist::simulate_triples;
use pdf_telemetry::Json;

/// Timed samples per measurement.
const SAMPLES: usize = 7;

fn main() {
    let (_telemetry, circuit_name) = start();
    // Default workload: eight full 256-lane tiles.
    let n_tests: usize = knob_number(&BENCH_TESTS, 2048);

    // Abort on structural defects before the sampling loops spend any
    // budget (PDF_LINT=off skips, =warn reports without aborting).
    pdf_experiments::preflight_lint(&[circuit_name.as_str()]);
    let s = setup(&circuit_name, 2_000, 200);
    let mut justifier = Justifier::new(&s.circuit, 3).with_attempts(2);
    let base: Vec<_> = s
        .faults
        .iter()
        .filter_map(|e| justifier.justify(&e.assignments))
        .map(|j| j.test)
        .collect();
    assert!(!base.is_empty(), "no justifiable faults on {circuit_name}");
    let tests: TestSet = (0..n_tests).map(|i| base[i % base.len()].clone()).collect();

    let checks = (tests.len() * s.faults.len()) as f64;
    let budget = bench_budget();
    let packed = || tests.coverage(&s.circuit, &s.faults).detected_count();
    let scalar = || {
        let mut detected = vec![false; s.faults.len()];
        for t in tests.tests() {
            let waves = simulate_triples(&s.circuit, &t.to_triples());
            for (d, e) in detected.iter_mut().zip(s.faults.iter()) {
                *d |= e.assignments.satisfied_by(&waves);
            }
        }
        detected.iter().filter(|&&d| d).count()
    };
    let (scalar_s, scalar_det) = measure(&budget, SAMPLES, scalar);
    let (packed_s, packed_det) = measure(&budget, SAMPLES, packed);
    assert_eq!(scalar_det, packed_det, "kernel disagrees with the oracle");
    let row = |spread: &Spread| {
        Json::object()
            .field("seconds", spread.median)
            .field("checks_per_sec", checks / spread.median)
            .field("spread", spread.to_json())
    };

    let speedup = scalar_s.median / packed_s.median;
    let width = SimWidth::auto().lanes();
    let summary = format!(
        "sim_throughput {circuit_name}: {} tests x {} faults; scalar {:.3e} checks/s, \
         packed {:.3e} checks/s @ width {width}, speedup {speedup:.1}x\n",
        tests.len(),
        s.faults.len(),
        checks / scalar_s.median,
        checks / packed_s.median,
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = Json::object()
        .field("circuit", circuit_name.as_str())
        .field("cores", cores)
        .field("lines", s.circuit.line_count())
        .field("tests", tests.len())
        .field("faults", s.faults.len())
        .field("detected", packed_det)
        .field("scalar", row(&scalar_s))
        .field("packed", row(&packed_s))
        .field("width", width)
        .field("speedup", speedup);
    publish("BENCH_sim.json", &report, &summary);
}
