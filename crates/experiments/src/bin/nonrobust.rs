//! Extension experiment: robust vs. non-robust sensitization — how much
//! fault population and coverage does the robustness requirement cost?
//! (The paper restricts itself to robust tests; this quantifies the gap.)

use pdf_experiments::{filter_circuits, Workload};
use pdf_faults::{FaultList, Sensitization};
use pdf_paths::PathEnumerator;

fn main() {
    let _telemetry = pdf_telemetry::Guard::from_env().unwrap_or_else(|e| e.exit());
    let workload = Workload::from_env().unwrap_or_else(|e| e.exit());
    println!(
        "robust vs non-robust fault populations (N_P = {})",
        workload.n_p
    );
    println!(
        "{:<8} {:>10} {:>12} {:>14} {:>16}",
        "circuit", "paths", "robust |P|", "nonrobust |P|", "robust share"
    );
    let names = filter_circuits(&pdf_netlist::TABLE3_CIRCUITS).unwrap_or_else(|e| e.exit());
    pdf_experiments::preflight_lint(&names);
    for name in names {
        let Some(circuit) = pdf_netlist::circuit_by_name(name) else {
            continue;
        };
        let enumeration = PathEnumerator::new(&circuit)
            .with_cap(workload.n_p)
            .enumerate();
        let (robust, _) =
            FaultList::build_with(&circuit, &enumeration.store, Sensitization::Robust);
        let (nonrobust, _) =
            FaultList::build_with(&circuit, &enumeration.store, Sensitization::NonRobust);
        let share = if nonrobust.is_empty() {
            0.0
        } else {
            robust.len() as f64 / nonrobust.len() as f64 * 100.0
        };
        println!(
            "{:<8} {:>10} {:>12} {:>14} {:>15.1}%",
            name,
            enumeration.store.len(),
            robust.len(),
            nonrobust.len(),
            share,
        );
    }
    println!(
        "\nEvery robustly detectable fault is non-robustly detectable, so the\n\
         robust share bounds how much coverage the robustness guarantee costs."
    );
}
