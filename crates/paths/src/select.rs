//! Line-coverage path selection (the paper's alternative `P_0` criterion).
//!
//! Besides taking the globally longest paths, the paper notes that the
//! first target set may hold "faults selected based on the criterion of
//! \[3\]" — W.-N. Li, S. M. Reddy and S. K. Sahni, *On Path Selection in
//! Combinational Logic Circuits* (IEEE TCAD, 1989): select paths such that
//! **every line of the circuit lies on at least one selected path, and
//! that path is one of the longest paths through the line**.
//!
//! The selection runs in `O(lines)` after two dynamic-programming passes:
//! the longest-prefix delay into every line and the longest-suffix delay
//! out of it. For each line, one maximal path through it is reconstructed
//! greedily (deterministic tie-breaking by line id); duplicates collapse.

use pdf_netlist::{Circuit, LineId};

use crate::{Path, PathStore};

/// The result of line-coverage path selection.
#[derive(Clone, Debug)]
pub struct LineCoverSelection {
    /// The selected paths (each is a longest path through at least one
    /// line it covers), with delays.
    pub store: PathStore,
    /// For each line, the index into `store` of the selected path
    /// covering it.
    pub cover: Vec<usize>,
}

/// Selects one longest path through every line (Li–Reddy–Sahni style).
///
/// Every circuit line is covered; the number of selected paths is at most
/// the number of lines and usually far smaller.
///
/// # Example
///
/// ```
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::select_line_cover;
///
/// let circuit = s27();
/// let selection = select_line_cover(&circuit);
/// // s27's 26 lines are covered by a handful of paths.
/// assert!(selection.store.len() <= 26);
/// assert_eq!(selection.cover.len(), 26);
/// ```
#[must_use]
pub fn select_line_cover(circuit: &Circuit) -> LineCoverSelection {
    let n = circuit.line_count();
    // prefix[l]: the maximum delay of a path from an input up to and
    // including l; best_pred[l]: the fanin achieving it.
    let mut prefix = vec![0u32; n];
    let mut best_pred: Vec<Option<LineId>> = vec![None; n];
    for &id in circuit.topo_order() {
        let line = circuit.line(id);
        let mut best = 0u32;
        let mut pred = None;
        for &f in circuit.fanin(id) {
            let candidate = prefix[f.index()];
            if candidate > best || (candidate == best && pred.is_none()) {
                best = candidate;
                pred = Some(f);
            }
        }
        prefix[id.index()] = best + line.delay();
        best_pred[id.index()] = pred;
    }
    // suffix[l]: maximum delay strictly after l (the circuit's distance);
    // best_succ[l]: the fanout achieving it.
    let mut best_succ: Vec<Option<LineId>> = vec![None; n];
    for &id in circuit.topo_order().iter().rev() {
        let mut best = None::<(u32, LineId)>;
        for &f in circuit.fanout(id) {
            let candidate = circuit.line(f).delay() + circuit.distance_to_output(f);
            if best.is_none_or(|(b, _)| candidate > b) {
                best = Some((candidate, f));
            }
        }
        best_succ[id.index()] = best.map(|(_, f)| f);
        debug_assert_eq!(circuit.distance_to_output(id), best.map_or(0, |(b, _)| b),);
    }

    // Reconstruct, for every line, one maximal path *through that line*
    // (longest prefix into it + longest suffix out of it); dedup shared
    // reconstructions. A path maximal through one line is generally not
    // maximal through the other lines it crosses, so each line keeps the
    // path built from its own walk.
    let mut store = PathStore::new();
    let mut index_of: std::collections::HashMap<Vec<LineId>, usize> =
        std::collections::HashMap::new();
    let mut cover = vec![usize::MAX; n];
    for (idx, _) in circuit.iter() {
        // Walk back to an input...
        let mut lines = Vec::new();
        let mut cursor = idx;
        loop {
            lines.push(cursor);
            match best_pred[cursor.index()] {
                Some(p) => cursor = p,
                None => break,
            }
        }
        lines.reverse();
        // ...and forward to an output.
        let mut cursor = idx;
        while let Some(sux) = best_succ[cursor.index()] {
            lines.push(sux);
            cursor = sux;
        }
        let slot = *index_of.entry(lines.clone()).or_insert_with(|| {
            let path = Path::new(lines.clone());
            let delay = path.delay(circuit);
            store.push(path, delay);
            store.len() - 1
        });
        cover[idx.index()] = slot;
    }
    debug_assert!(cover.iter().all(|&c| c != usize::MAX));
    LineCoverSelection { store, cover }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::iscas::{c17, s27};
    use pdf_netlist::SynthProfile;

    fn check(circuit: &Circuit) {
        let selection = select_line_cover(circuit);
        // Every line covered by a valid complete path that contains it.
        for (id, _) in circuit.iter() {
            let slot = selection.cover[id.index()];
            let entry = &selection.store.entries()[slot];
            entry.path.validate(circuit).unwrap();
            assert!(entry.path.is_complete(circuit));
            assert!(
                entry.path.lines().contains(&id),
                "line {id} not on its path"
            );
        }
        // Each selected path is a longest path through each line it covers
        // in the "through" sense: delay = prefix + suffix at that line.
        for (id, _) in circuit.iter() {
            let slot = selection.cover[id.index()];
            let entry = &selection.store.entries()[slot];
            let through_max = longest_through(circuit, id);
            assert_eq!(
                entry.delay, through_max,
                "line {id}: path {} is not maximal",
                entry.path
            );
        }
    }

    /// Brute-force longest complete path delay through `line`.
    fn longest_through(circuit: &Circuit, line: LineId) -> u32 {
        let full = crate::PathEnumerator::new(circuit)
            .with_cap(10_000_000)
            .enumerate();
        full.store
            .iter()
            .filter(|e| e.path.lines().contains(&line))
            .map(|e| e.delay)
            .max()
            .expect("every line lies on some path")
    }

    #[test]
    fn covers_s27() {
        check(&s27());
    }

    #[test]
    fn covers_c17() {
        check(&c17());
    }

    #[test]
    fn covers_random_circuits() {
        for seed in 0..5u64 {
            let c = SynthProfile::new("cov", seed)
                .with_inputs(6)
                .with_gates(30)
                .with_levels(5)
                .generate()
                .to_circuit()
                .unwrap();
            check(&c);
        }
    }

    #[test]
    fn selection_is_much_smaller_than_enumeration() {
        let c = s27();
        let selection = select_line_cover(&c);
        assert!(selection.store.len() < c.line_count());
        // The critical path is always selected (it is the longest path
        // through each of its lines).
        assert_eq!(selection.store.max_delay(), Some(c.critical_delay()));
    }
}
