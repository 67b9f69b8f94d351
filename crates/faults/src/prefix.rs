//! Rules 1 and 2 over the path-prefix trie.
//!
//! For a fixed launch transition, the requirements of a path's prefix are
//! a subset of the path's own: `A(prefix) ⊆ A(path)`. Paths that start the
//! same way therefore share the requirements and the implications of
//! their common prefix, and a conflict on a prefix refutes every path
//! extending it. [`walk_sorted`] visits faults depth-first over the trie
//! of their paths and decides both rules in the one walk: each trie
//! node's increment of `A(p)` is computed once, checked for a direct
//! conflict (rule 1), and asserted on one [`Implicator`] (rule 2);
//! [`walk_subtrees`](crate::walk_subtrees) runs it on the pool.

use std::ops::Range;

use pdf_logic::Triple;
use pdf_netlist::{Circuit, LineId};
use pdf_paths::{Path, PathStore};

use crate::conditions::{launch, step};
use crate::implication::{conflicts, encode};
use crate::{ConditionError, Implicator, PathDelayFault, Polarity, Sensitization};

/// One fault of a path store: the store index of its path and its
/// polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultKey {
    /// Index of the fault's path in the store.
    pub index: usize,
    /// The fault's polarity.
    pub polarity: Polarity,
}

impl FaultKey {
    /// The position of this fault in store order (rise before fall of the
    /// same path): `2 · index + polarity`.
    #[inline]
    #[must_use]
    pub fn slot(self) -> usize {
        2 * self.index + usize::from(self.polarity == Polarity::SlowToFall)
    }
}

/// Every fault of `store` in trie order: by `(polarity, path lines)`,
/// ties (the same path listed twice) by store index. The paths are
/// sorted once and listed for each polarity, rise first.
#[must_use]
pub fn trie_order(store: &PathStore) -> Vec<FaultKey> {
    let paths = store.entries();
    let mut order: Vec<usize> = (0..paths.len()).collect();
    order.sort_unstable_by(|&a, &b| (paths[a].path.lines(), a).cmp(&(paths[b].path.lines(), b)));
    Polarity::BOTH
        .into_iter()
        .flat_map(|polarity| order.iter().map(move |&index| FaultKey { index, polarity }))
        .collect()
}

/// Splits trie-sorted `keys` into at most `jobs` contiguous ranges
/// that [`walk_sorted`] can walk independently, each on its own engine.
///
/// A range only ever ends where `(polarity, first path line)` changes.
/// There the shared prefix of neighbouring keys is empty, so a walk over
/// the whole slice rewinds to its entry state at exactly that point, and
/// neither a verdict nor a prefix refutation can depend on the split.
/// Whole top-level subtrees are packed into ranges of at least
/// `keys.len() / jobs` keys.
pub(crate) fn subtree_ranges(
    store: &PathStore,
    keys: &[FaultKey],
    jobs: usize,
) -> Vec<Range<usize>> {
    let paths = store.entries();
    let root = |key: &FaultKey| (key.polarity, paths[key.index].path.lines().first());
    let target = keys.len().div_ceil(jobs.max(1));
    let mut ranges = Vec::new();
    let mut start = 0;
    for end in 1..=keys.len() {
        if end == keys.len() || (end - start >= target && root(&keys[end - 1]) != root(&keys[end]))
        {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// `A(p)` of the current path, one depth at a time, as rule 1 builds it:
/// a requirement byte per line in the [`Implicator`]'s two-rail encoding,
/// so narrowing is an `OR` and a conflict is a component with both rails
/// set. Each depth's requirements are kept in `step` order for rule 2 to
/// assert.
struct Requirements {
    rails: Vec<u8>,
    /// Every byte change as `(line, byte before)`, oldest first.
    trail: Vec<(LineId, u8)>,
    /// Per depth: the trail length and the `increments` length before it.
    depths: Vec<(usize, usize)>,
    /// The requirements each depth adds, depth after depth.
    increments: Vec<(LineId, Triple)>,
    /// Per depth: the transition leaving that path line.
    leaving: Vec<Triple>,
    /// The depth whose increment conflicted on the current path.
    conflict: Option<usize>,
}

impl Requirements {
    fn new(circuit: &Circuit) -> Requirements {
        Requirements {
            rails: vec![0; circuit.line_count()],
            trail: Vec::new(),
            depths: Vec::new(),
            increments: Vec::new(),
            leaving: Vec::new(),
            conflict: None,
        }
    }

    /// Keeps the first `depth` depths.
    fn rewind(&mut self, depth: usize) {
        if let Some(&(trail, increments)) = self.depths.get(depth) {
            for (line, old) in self.trail.drain(trail..).rev() {
                self.rails[line.index()] = old;
            }
            self.increments.truncate(increments);
            self.depths.truncate(depth);
            self.leaving.truncate(depth);
            self.conflict = None;
        }
    }

    /// Extends the kept depths to the whole of `path`, as `assignments()`
    /// folds it. A direct conflict is recorded at its depth.
    fn extend(
        &mut self,
        circuit: &Circuit,
        path: &Path,
        polarity: Polarity,
        kind: Sensitization,
    ) -> Result<(), ConditionError> {
        let lines = path.lines();
        for k in self.depths.len()..lines.len() {
            let line = lines[k];
            let linked = line.index() < circuit.line_count()
                && match k {
                    0 => circuit.kind(line).is_input(),
                    _ => circuit.fanin(line).contains(&lines[k - 1]),
                };
            if !linked {
                path.validate(circuit)?;
            }
            let arriving = match k {
                0 => launch(polarity),
                _ => self.leaving[k - 1],
            };
            self.depths.push((self.trail.len(), self.increments.len()));
            let stepped = step(circuit, lines, k, arriving, kind, &mut |line, req| {
                self.increments.push((line, req));
                let old = self.rails[line.index()];
                let new = old | encode(req);
                if conflicts(new) {
                    return Err(ConditionError::Conflict { line });
                }
                if new != old {
                    self.trail.push((line, old));
                    self.rails[line.index()] = new;
                }
                Ok(())
            });
            match stepped {
                Ok(out) => self.leaving.push(out),
                Err(e) => {
                    self.conflict = Some(k);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The requirements depth `depth` adds.
    fn increment(&self, depth: usize) -> &[(LineId, Triple)] {
        let end = self
            .depths
            .get(depth + 1)
            .map_or(self.increments.len(), |d| d.1);
        &self.increments[self.depths[depth].1..end]
    }
}

/// The serial walk behind [`walk_subtrees`](crate::walk_subtrees) over
/// `keys` in trie order ([`trie_order`], or a subsequence of it) on
/// `imp`. Pushes one result per key onto `results`: `None` when `A(p)`
/// conflicts directly (rule 1), else `visit(key, closure)` as described
/// there. On return, `imp` is back in its entry state. Returns the number
/// of keys refuted by a prefix conflict, which cost no propagation of
/// their own.
///
/// Rule 1 extends `A(p)` from the depth the key shares with the previous
/// key, and a conflict at depth `d` refutes every following key sharing
/// more than `d` lines. Rule 2 sees only the rule-1 survivors, each
/// extending the engine from the depth it shares with the previous
/// survivor: exactly the assertions a walk over the survivors alone
/// makes. It asserts a run of depths at once and propagates at the end
/// of the run; runs end only where a later key's shared prefix ends, so
/// every depth any later key rewinds to is a propagated fixpoint. The
/// rules are monotone, so the fixpoint and the verdict do not depend on
/// the runs, and a conflict is recorded at its run's first depth: no
/// later key shares a prefix ending inside the run, so the same keys are
/// prefix-refuted as when each depth propagates.
///
/// # Panics
///
/// Panics, naming the fault, when a path is invalid or crosses a parity
/// gate.
pub(crate) fn walk_sorted<'c, R>(
    imp: &mut Implicator<'c>,
    circuit: &Circuit,
    store: &PathStore,
    kind: Sensitization,
    keys: &[FaultKey],
    mut visit: impl FnMut(FaultKey, Option<&mut Implicator<'c>>) -> R,
    results: &mut Vec<Option<R>>,
) -> usize {
    let paths = store.entries();
    let lines_of = |key: &FaultKey| paths[key.index].path.lines();
    // `shared[i]`: the depth key `i` shares with key `i - 1`;
    // `smaller[i]`: the next key sharing less than that.
    let shared: Vec<usize> = (0..keys.len())
        .map(|i| match i.checked_sub(1) {
            Some(h) if keys[h].polarity == keys[i].polarity => lines_of(&keys[h])
                .iter()
                .zip(lines_of(&keys[i]))
                .take_while(|(a, b)| a == b)
                .count(),
            _ => 0,
        })
        .collect();
    let mut smaller = vec![keys.len(); keys.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, &depth) in shared.iter().enumerate() {
        while open.last().is_some_and(|&top| shared[top] > depth) {
            smaller[open.pop().expect("checked")] = i;
        }
        open.push(i);
    }
    let mut reqs = Requirements::new(circuit);
    let entry = imp.mark();
    // `marks[d]`: the engine's trail before depth `d`'s increment.
    let mut marks: Vec<usize> = Vec::new();
    // The first depth of the run that conflicted on the engine's prefix.
    let mut refuted_at: Option<usize> = None;
    // The depth shared with the previous rule-1 survivor.
    let mut from_survivor = 0;
    // The depths after the current survivor's first where runs start.
    let mut starts: Vec<usize> = Vec::new();
    let mut prefix_refuted = 0usize;
    for (i, &key) in keys.iter().enumerate() {
        let path = &paths[key.index].path;
        from_survivor = from_survivor.min(shared[i]);
        if reqs.conflict.is_some_and(|depth| depth < shared[i]) {
            results.push(None);
            continue;
        }
        reqs.rewind(shared[i]);
        match reqs.extend(circuit, path, key.polarity, kind) {
            Ok(()) => {}
            Err(ConditionError::Conflict { .. }) => {
                results.push(None);
                continue;
            }
            Err(e) => panic!(
                "fault {}: {e}",
                PathDelayFault::new(path.clone(), key.polarity)
            ),
        }
        let from = std::mem::replace(&mut from_survivor, usize::MAX);
        if let Some(depth) = refuted_at {
            if depth < from {
                prefix_refuted += 1;
                results.push(Some(visit(key, None)));
                continue;
            }
            refuted_at = None;
        }
        if marks.len() > from {
            imp.undo_to(marks[from]);
            marks.truncate(from);
        }
        // The running minimum of the following keys' shared depths steps
        // down through exactly the depths they rewind to.
        let len = path.lines().len();
        starts.clear();
        let mut j = i + 1;
        while j < keys.len() && shared[j] > from {
            if shared[j] < len {
                starts.push(shared[j]);
            }
            j = smaller[j];
        }
        let mut start = from;
        for end in starts.iter().rev().copied().chain([len]) {
            let conflict = (start..end).any(|depth| {
                marks.push(imp.mark());
                reqs.increment(depth)
                    .iter()
                    .any(|&(line, req)| imp.assign(line, req).is_err())
            }) || imp.propagate().is_err();
            if conflict {
                refuted_at = Some(start);
                break;
            }
            start = end;
        }
        let closure = if refuted_at.is_some() {
            None
        } else {
            Some(&mut *imp)
        };
        results.push(Some(visit(key, closure)));
    }
    imp.undo_to(entry);
    prefix_refuted
}
