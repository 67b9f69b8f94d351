//! Ablation: the paper's regenerate-per-secondary scheme vs. the classic
//! Goel–Rosales freeze-values scheme (the paper's reference \[8\]).
//!
//! The paper's Sec. 2.2 argues that regenerating the test after every
//! added secondary target detects more faults per test, "since we are not
//! restricted by values specified under t in order to detect faults that
//! were added to P(t) earlier". This experiment measures that claim.

use pdf_atpg::{AtpgConfig, BasicAtpg, Compaction, SecondaryMode};
use pdf_experiments::{filter_circuits, Workload};

fn main() {
    let _telemetry = pdf_telemetry::Guard::from_env().unwrap_or_else(|e| e.exit());
    let workload = Workload::from_env().unwrap_or_else(|e| e.exit());
    println!("secondary-target handling: regenerate (paper) vs freeze-values ([8])");
    println!(
        "{:<8} {:>12} {:>10} {:>9} {:>12} {:>10} {:>9}",
        "circuit", "mode", "detected", "tests", "sec.accepts", "det/test", "seconds"
    );
    let names = filter_circuits(&pdf_netlist::TABLE3_CIRCUITS).unwrap_or_else(|e| e.exit());
    pdf_experiments::preflight_lint(&names);
    for name in names {
        let Some(prepared) = pdf_experiments::prepare(name, &workload) else {
            continue;
        };
        for mode in [SecondaryMode::Regenerate, SecondaryMode::FreezeValues] {
            let config = AtpgConfig {
                secondary_mode: mode,
                ..workload.config(&prepared, Compaction::ValueBased)
            };
            let start = std::time::Instant::now();
            let outcome = BasicAtpg::new(&prepared.circuit)
                .with_config(config)
                .run(prepared.split.p0());
            let seconds = start.elapsed().as_secs_f64();
            let per_test = if outcome.tests().is_empty() {
                0.0
            } else {
                outcome.detected_total() as f64 / outcome.tests().len() as f64
            };
            println!(
                "{:<8} {:>12} {:>10} {:>9} {:>12} {:>10.2} {:>9.2}",
                name,
                mode.label(),
                outcome.detected_total(),
                outcome.tests().len(),
                outcome.stats().secondary_accepts,
                per_test,
                seconds,
            );
        }
    }
    println!(
        "\nExpected shape (paper Sec. 2.2): regeneration accepts more \
         secondaries per test,\nyielding fewer tests for the same detection."
    );
}
