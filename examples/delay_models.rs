//! Non-unit delay models (a paper extension): the paper measures path
//! length as the number of lines, noting "other delay models can be
//! accommodated". This example installs a per-gate-type delay table on
//! `s27`, shows how the critical paths change, and re-runs the split.
//!
//! ```console
//! $ cargo run --example delay_models
//! ```

use path_delay_atpg::prelude::*;
use pdf_netlist::LineKind;

fn report(tag: &str, circuit: &pdf_netlist::Circuit) {
    let paths = PathEnumerator::new(circuit).with_cap(100_000).enumerate();
    let (faults, _) = FaultList::build(circuit, &paths.store);
    let histogram = LengthHistogram::from_lengths(faults.delays());
    println!("{tag}: critical delay {}", circuit.critical_delay());
    println!("  longest path(s):");
    for entry in paths.store.iter().take(3) {
        println!("    {} (delay {})", entry.path, entry.delay);
    }
    println!(
        "  {} detectable faults over {} length classes",
        faults.len(),
        histogram.len(),
    );
}

fn main() {
    // Unit model: every line (gate, branch, input) costs 1.
    let unit = s27();
    report("unit delay model", &unit);

    // Technology-flavoured model: inverters are fast, NAND/NOR medium,
    // AND/OR (compound cells) slow; branches model interconnect.
    let mut weighted = s27();
    weighted.set_delays(|_, kind| match kind {
        LineKind::Input => 1,
        LineKind::Branch { .. } => 2,
        LineKind::Gate(g) => match g {
            pdf_logic::GateKind::Not | pdf_logic::GateKind::Buf => 1,
            pdf_logic::GateKind::Nand | pdf_logic::GateKind::Nor => 3,
            pdf_logic::GateKind::And | pdf_logic::GateKind::Or => 4,
            pdf_logic::GateKind::Xor | pdf_logic::GateKind::Xnor => 6,
        },
    });
    println!();
    report("per-gate-type delay model", &weighted);

    // The ranking of paths changes: enumeration, splits and the whole
    // enrichment pipeline follow the installed model transparently.
    let paths = PathEnumerator::new(&weighted).with_cap(100_000).enumerate();
    let (faults, _) = FaultList::build(&weighted, &paths.store);
    let split = TargetSplit::by_cumulative_length(&faults, 10);
    let outcome = EnrichmentAtpg::new(&weighted).with_seed(1).run(&split);
    println!(
        "\nenrichment under the weighted model: {} tests, {}/{} faults",
        outcome.tests().len(),
        outcome.detected_total(),
        split.total(),
    );
}
