//! Graphviz DOT export for line-level circuits.

use std::fmt::Write as _;

use crate::{Circuit, LineKind};

/// Renders the circuit as a Graphviz `digraph`.
///
/// Inputs are drawn as triangles, gates as boxes labelled with their
/// function, branches as small points, and output lines with a double
/// border. Useful for eyeballing small circuits (`dot -Tsvg`).
///
/// # Example
///
/// ```
/// use pdf_netlist::iscas::s27;
///
/// let dot = pdf_netlist::to_dot(&s27());
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("G12"));
/// ```
#[must_use]
pub fn to_dot(circuit: &Circuit) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", circuit.name());
    let _ = writeln!(s, "  rankdir=LR;");
    for (id, line) in circuit.iter() {
        let label = format!("{} ({})", line.name(), id);
        let attrs = match circuit.kind(id) {
            LineKind::Input => format!("shape=triangle, label=\"{label}\""),
            LineKind::Gate(kind) => {
                let peripheries = if line.is_output() { 2 } else { 1 };
                format!("shape=box, peripheries={peripheries}, label=\"{kind}\\n{label}\"")
            }
            LineKind::Branch { .. } => {
                let peripheries = if line.is_output() { 2 } else { 1 };
                format!("shape=point, peripheries={peripheries}, xlabel=\"{label}\"")
            }
        };
        let _ = writeln!(s, "  n{} [{}];", id.index(), attrs);
    }
    for (id, _) in circuit.iter() {
        for &f in circuit.fanin(id) {
            let _ = writeln!(s, "  n{} -> n{};", f.index(), id.index());
        }
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iscas::s27;

    #[test]
    fn s27_dot_mentions_every_line_and_edge() {
        let c = s27();
        let dot = to_dot(&c);
        for (id, _) in c.iter() {
            assert!(dot.contains(&format!("n{} [", id.index())));
        }
        // 26 nodes, edge count = sum of fanin sizes.
        let edges: usize = c.iter().map(|(id, _)| c.fanin(id).len()).sum();
        assert_eq!(dot.matches(" -> ").count(), edges);
    }

    #[test]
    fn output_gates_are_double_bordered() {
        let dot = to_dot(&s27());
        assert!(dot.contains("peripheries=2"));
    }
}
