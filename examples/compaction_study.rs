//! Compares the paper's four compaction strategies (Sec. 2.2) on one
//! circuit: test count, fault coverage, and the work the justifier did.
//!
//! ```console
//! $ cargo run --release --example compaction_study [circuit]
//! ```

use path_delay_atpg::prelude::*;
use pdf_atpg::{AtpgConfig, Compaction};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "b03".to_owned());
    let Some(circuit) = pdf_netlist::circuit_by_name(&name) else {
        eprintln!("unknown circuit `{name}`");
        std::process::exit(1);
    };

    let paths = PathEnumerator::new(&circuit).with_cap(10_000).enumerate();
    let (faults, _) = FaultList::build(&circuit, &paths.store);
    let split = TargetSplit::by_cumulative_length(&faults, 1_000);
    println!(
        "{name}: targeting |P0| = {} faults (of {} detectable)",
        split.p0().len(),
        faults.len(),
    );
    println!(
        "\n{:<10} {:>7} {:>10} {:>9} {:>12} {:>12} {:>10}",
        "heuristic", "tests", "detected", "aborted", "sec.accepts", "free accepts", "seconds"
    );

    for compaction in Compaction::ALL {
        let config = AtpgConfig {
            compaction,
            ..AtpgConfig::default()
        };
        let start = std::time::Instant::now();
        let outcome = BasicAtpg::new(&circuit).with_config(config).run(split.p0());
        let seconds = start.elapsed().as_secs_f64();
        println!(
            "{:<10} {:>7} {:>10} {:>9} {:>12} {:>12} {:>10.2}",
            compaction.label(),
            outcome.tests().len(),
            outcome.detected_in_set(0),
            outcome.stats().aborted_primaries,
            outcome.stats().secondary_accepts,
            outcome.stats().free_accepts,
            seconds,
        );
    }

    println!(
        "\nExpected shape (paper Tables 3-4): all heuristics detect nearly \
         the same faults; every compaction heuristic needs far fewer tests \
         than `uncomp`."
    );
}
