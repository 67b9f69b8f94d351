//! Runs the complete reproduction: every table, side by side with the
//! paper, plus a JSON dump and (with `PDF_WRITE_MD=<path>`) the
//! `EXPERIMENTS.md` report.

use pdf_experiments::{filter_circuits, prepare, report, run_basic_on, run_enrich_on, Workload};

fn main() {
    let _telemetry = pdf_telemetry::Guard::from_env().unwrap_or_else(|e| e.exit());
    let workload = Workload::from_env().unwrap_or_else(|e| e.exit());
    eprintln!("workload: {workload:?}");

    let table1 = pdf_experiments::table1_text();
    println!("{table1}");
    let table2 = pdf_experiments::table2_text(&workload);
    println!("{table2}");

    // Prepare each circuit once (enumeration + fault-list construction is
    // shared between the basic and enrichment experiments). Filter the
    // Table 6 superset only: a selection of enrichment-only circuits
    // (e.g. `s9234*`) legitimately leaves the Table 3 subset empty, so
    // intersect manually instead of filtering TABLE3_CIRCUITS again.
    let selected = filter_circuits(&pdf_netlist::TABLE6_CIRCUITS).unwrap_or_else(|e| e.exit());
    pdf_experiments::preflight_lint(&selected);
    let basic_names: Vec<&str> = pdf_netlist::TABLE3_CIRCUITS
        .iter()
        .copied()
        .filter(|n| selected.contains(n))
        .collect();
    let mut basic = Vec::new();
    let mut enrich = Vec::new();
    for name in selected {
        eprintln!("preparing {name}...");
        let Some(prepared) = prepare(name, &workload) else {
            continue;
        };
        if basic_names.contains(&name) {
            eprintln!("basic: {name}...");
            basic.push(run_basic_on(&prepared, &workload));
        }
        eprintln!("enrich: {name}...");
        enrich.push(run_enrich_on(&prepared, &workload));
    }
    println!("{}", report::render_table3(&basic));
    println!("{}", report::render_table4(&basic));
    println!("{}", report::render_table5(&basic));
    println!("{}", report::render_table6(&enrich));
    println!("{}", report::render_table7(&enrich));

    // Archive the raw numbers.
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("results.json");
        match report::save_json(&path, &workload, &basic, &enrich) {
            Ok(()) => eprintln!("raw results saved to {}", path.display()),
            Err(e) => eprintln!("could not save {}: {e}", path.display()),
        }
    }

    if let Some(md_path) = pdf_knobs::WRITE_MD.text().unwrap_or_else(|e| e.exit()) {
        let md = report::render_experiments_md(&workload, &basic, &enrich, &table1, &table2);
        match std::fs::write(&md_path, md) {
            Ok(()) => eprintln!("EXPERIMENTS report written to {md_path}"),
            Err(e) => eprintln!("could not write {md_path}: {e}"),
        }
    }
}
