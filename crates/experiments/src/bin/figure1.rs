//! Prints the paper's Figure 1: the combinational logic of s27 with the
//! paper's line numbering, plus a Graphviz rendering.

use pdf_netlist::{iscas::s27, LineKind};

fn main() {
    let _telemetry = pdf_telemetry::Guard::from_env().unwrap_or_else(|e| e.exit());
    pdf_experiments::preflight_lint(&["s27"]);
    let c = s27();
    println!("Figure 1: ISCAS-89 benchmark circuit s27 (combinational core)");
    println!("line  signal      kind      fanin (paper numbering)");
    for (id, line) in c.iter() {
        let kind = match c.kind(id) {
            LineKind::Input => "input".to_owned(),
            LineKind::Gate(g) => g.to_string().to_lowercase(),
            LineKind::Branch { .. } => "branch".to_owned(),
        };
        let fanin: Vec<String> = c.fanin(id).iter().map(|f| f.to_string()).collect();
        let out = if line.is_output() { "  [output]" } else { "" };
        println!(
            "{:>4}  {:<10}  {:<8}  ({}){out}",
            id.to_string(),
            line.name(),
            kind,
            fanin.join(","),
        );
    }
    println!();
    println!("Graphviz (pipe into `dot -Tsvg`):\n");
    print!("{}", pdf_netlist::to_dot(&c));
}
