//! Rule 2 over the path-prefix trie.
//!
//! For a fixed launch transition, the requirements of a path's prefix are
//! a subset of the path's own: `A(prefix) ⊆ A(path)`. Paths that start the
//! same way therefore share the implications of their common prefix, and a
//! conflict on a prefix refutes every path extending it. [`walk_sorted`]
//! visits a set of faults depth-first over the trie of their paths on one
//! [`Implicator`], asserting each trie node's increment of `A(p)` once;
//! [`walk_subtrees`](crate::walk_subtrees) runs it on the pool.

use std::ops::Range;

use pdf_logic::Triple;
use pdf_netlist::{Circuit, LineId};
use pdf_paths::PathStore;

use crate::conditions::{launch, step};
use crate::{ConditionError, Implicator, Polarity, Sensitization};

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

/// Sorts `keys` into trie order: by `(polarity, path lines)`, ties (the
/// same path listed twice) by store index.
pub(crate) fn sort_keys(store: &PathStore, keys: &mut [FaultKey]) {
    let paths = store.entries();
    let lines_of = |key: &FaultKey| paths[key.index].path.lines();
    keys.sort_unstable_by(|a, b| {
        (a.polarity, lines_of(a), a.index).cmp(&(b.polarity, lines_of(b), b.index))
    });
}

/// Splits trie-sorted `keys` into at most `jobs` contiguous ranges
/// that [`walk_sorted`] can walk independently, each on its own engine.
///
/// A range only ever ends where `(polarity, first path line)` changes.
/// There the shared prefix of neighbouring keys is empty, so a walk over
/// the whole slice rewinds to its entry mark at exactly that point, and
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

/// The serial walk behind [`walk_subtrees`](crate::walk_subtrees) over
/// `keys` in trie order ([`sort_keys`]) on `imp`, calling `visit` as
/// described there: each prefix's increment of `A(p)` is asserted and
/// propagated once, with a trail mark per depth to rewind to. On return,
/// `imp` is back in its entry state. Returns the number of keys refuted
/// by a prefix conflict, which cost no propagation of their own.
pub(crate) fn walk_sorted<'c>(
    imp: &mut Implicator<'c>,
    circuit: &Circuit,
    store: &PathStore,
    kind: Sensitization,
    keys: &[FaultKey],
    mut visit: impl FnMut(FaultKey, Option<&mut Implicator<'c>>),
) -> usize {
    let paths = store.entries();
    let lines_of = |key: &FaultKey| paths[key.index].path.lines();
    let entry = imp.mark();
    // `marks[d]`: the trail before depth `d`'s increment; `leaving[d]`:
    // the transition leaving the path line at depth `d`.
    let mut marks: Vec<usize> = Vec::new();
    let mut leaving: Vec<Triple> = Vec::new();
    // The depth whose increment conflicted on the current prefix.
    let mut refuted_at: Option<usize> = None;
    let mut previous: Option<(Polarity, &[LineId])> = None;
    let mut prefix_refuted = 0usize;
    for &key in keys.iter() {
        let lines = lines_of(&key);
        let shared = match previous {
            Some((polarity, prev)) if polarity == key.polarity => {
                prev.iter().zip(lines).take_while(|(a, b)| a == b).count()
            }
            _ => 0,
        };
        previous = Some((key.polarity, lines));
        if let Some(depth) = refuted_at {
            if depth < shared {
                prefix_refuted += 1;
                visit(key, None);
                continue;
            }
            refuted_at = None;
        }
        if marks.len() > shared {
            imp.undo_to(marks[shared]);
            marks.truncate(shared);
            leaving.truncate(shared);
        }
        for k in shared..lines.len() {
            let arriving = if k == 0 {
                launch(key.polarity)
            } else {
                leaving[k - 1]
            };
            marks.push(imp.mark());
            let stepped = step(circuit, lines, k, arriving, kind, &mut |line, req| {
                imp.assign(line, req)
                    .map_err(|c| ConditionError::Conflict { line: c.line })
            })
            .and_then(|out| {
                imp.propagate()
                    .map_err(|c| ConditionError::Conflict { line: c.line })?;
                Ok(out)
            });
            match stepped {
                Ok(out) => leaving.push(out),
                Err(ConditionError::Conflict { .. }) => {
                    refuted_at = Some(k);
                    break;
                }
                Err(e) => panic!("fault {key:?} did not pass rule 1: {e}"),
            }
        }
        if refuted_at.is_some() {
            visit(key, None);
        } else {
            visit(key, Some(&mut *imp));
        }
    }
    imp.undo_to(entry);
    prefix_refuted
}
