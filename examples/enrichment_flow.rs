//! The paper's headline experiment on one benchmark-scale circuit: how
//! many next-to-longest-path faults does a compact test set miss, and how
//! many does enrichment recover without adding tests?
//!
//! ```console
//! $ cargo run --release --example enrichment_flow [circuit]
//! ```
//!
//! `circuit` is one of the synthetic stand-ins (`s641`, `s953`, `s1196`,
//! `s1423`, `s1488`, `b03`, `b04`, `b09`, `s1423*`, `s5378*`, `s9234*`);
//! default `b09`.

use path_delay_atpg::prelude::*;
use pdf_atpg::AtpgConfig;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "b09".to_owned());
    let Some(circuit) = pdf_netlist::circuit_by_name(&name) else {
        eprintln!("unknown circuit `{name}`");
        std::process::exit(1);
    };
    println!(
        "{name}: {} lines, {} inputs, {} paths, critical length {}",
        circuit.line_count(),
        circuit.inputs().len(),
        circuit.path_count(),
        circuit.critical_delay(),
    );

    // The paper's workload: N_P = 10000 fault cap, N_P0 = 1000.
    let paths = PathEnumerator::new(&circuit).with_cap(10_000).enumerate();
    let (faults, _) = FaultList::build(&circuit, &paths.store);
    let split = TargetSplit::by_cumulative_length(&faults, 1_000);
    println!(
        "P = {} detectable faults; P0 = {} (lengths >= {}), P1 = {}",
        faults.len(),
        split.p0().len(),
        split.cutoffs()[0],
        split.p1().len(),
    );

    // The length spectrum around the cut (Table 2's shape).
    let histogram = LengthHistogram::from_lengths(faults.delays());
    println!("\nlength classes (top 10):");
    println!("{:>4} {:>8} {:>10}", "i", "L_i", "N_p(L_i)");
    for (i, class) in histogram.classes().iter().take(10).enumerate() {
        println!("{i:>4} {:>8} {:>10}", class.length, class.cumulative);
    }

    let config = AtpgConfig::default();

    println!("\nbasic (value-based compaction), targets = P0 only:");
    let basic = BasicAtpg::new(&circuit)
        .with_config(config.clone())
        .run(split.p0());
    let everything: FaultList = split
        .p0()
        .iter()
        .chain(split.p1().iter())
        .cloned()
        .collect();
    let accidental = basic.tests().coverage(&circuit, &everything);
    println!(
        "  {} tests; P0: {}/{}; accidental P0∪P1: {}/{}",
        basic.tests().len(),
        basic.detected_in_set(0),
        split.p0().len(),
        accidental.detected_count(),
        everything.len(),
    );

    println!("\nenrichment, targets = P0 then P1:");
    let enriched = EnrichmentAtpg::new(&circuit)
        .with_config(config)
        .run(&split);
    println!(
        "  {} tests; P0: {}/{}; P0∪P1: {}/{}",
        enriched.tests().len(),
        enriched.detected_in_set(0),
        split.p0().len(),
        enriched.detected_total(),
        split.total(),
    );

    let p1_accidental = accidental.detected_count() - basic.detected_in_set(0);
    let p1_enriched = enriched.detected_total() - enriched.detected_in_set(0);
    println!(
        "\nP1 faults detected: {} accidentally vs {} enriched — {} extra \
         faults at {} extra tests",
        p1_accidental,
        p1_enriched,
        p1_enriched.saturating_sub(p1_accidental),
        enriched.tests().len() as i64 - basic.tests().len() as i64,
    );
}
