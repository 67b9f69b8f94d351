//! Extension experiment: the paper's alternative `P_0` criterion — the
//! line-coverage path selection of its reference \[3\] (Li, Reddy & Sahni,
//! TCAD 1989) — compared against the longest-path criterion.

use pdf_atpg::BasicAtpg;
use pdf_experiments::Workload;
use pdf_faults::FaultList;
use pdf_paths::{select_line_cover, PathEnumerator};

fn main() {
    let _telemetry = pdf_telemetry::Guard::from_env().unwrap_or_else(|e| e.exit());
    let name = std::env::args().nth(1).unwrap_or_else(|| "b09".to_owned());
    let workload = Workload::from_env().unwrap_or_else(|e| e.exit());
    pdf_experiments::preflight_lint(&[name.as_str()]);
    let Some(circuit) = pdf_netlist::circuit_by_name(&name) else {
        eprintln!("unknown circuit `{name}`");
        std::process::exit(1);
    };

    // Criterion A: the paper's default — longest paths, capped at N_P.
    let longest = PathEnumerator::new(&circuit)
        .with_cap(workload.n_p)
        .enumerate();
    let (faults_longest, _) = FaultList::build(&circuit, &longest.store);

    // Criterion B: one longest path through every line ([3]).
    let selection = select_line_cover(&circuit);
    let (faults_cover, _) = FaultList::build(&circuit, &selection.store);

    println!("{name}: {} lines", circuit.line_count());
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>8}",
        "criterion", "paths", "faults", "detected", "tests"
    );
    for (label, store_len, faults) in [
        ("longest paths (N_P)", longest.store.len(), &faults_longest),
        ("line cover [3]", selection.store.len(), &faults_cover),
    ] {
        let outcome = BasicAtpg::new(&circuit)
            .with_seed(workload.seed)
            .run(faults);
        println!(
            "{label:<22} {:>8} {:>10} {:>10} {:>8}",
            store_len,
            faults.len(),
            outcome.detected_total(),
            outcome.tests().len(),
        );
    }
    println!(
        "\nThe line-cover criterion guarantees every line is exercised by a \n\
         longest path through it, with far fewer paths; the longest-path \n\
         criterion concentrates on the critical region. The paper's \n\
         enrichment applies on top of either (both produce a P0)."
    );
}
