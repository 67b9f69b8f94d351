//! Path delay fault model, robust sensitization conditions, implications,
//! and undetectability analysis.
//!
//! This crate implements the fault-analysis layer of the test-enrichment
//! reproduction (Pomeranz & Reddy, DATE 2002):
//!
//! * [`PathDelayFault`] — a physical path plus a [`Polarity`];
//! * [`robust_assignments`] — the necessary assignment set `A(p)` a
//!   two-pattern test must satisfy to detect the fault robustly
//!   (off-path robust conditions + source transition, Sec. 2.1);
//! * [`Assignments`] — requirement sets with merging, Δ-counting (for the
//!   value-based compaction heuristic) and satisfaction/violation checks
//!   against simulated waveforms;
//! * [`Implicator`] — incremental three-valued implication over two-pattern
//!   waveforms (a trail with `mark`/`undo_to`), used to eliminate
//!   undetectable faults (Sec. 3.1, rules 1 and 2), to screen secondary
//!   targets and by the optional exact justification engine;
//! * [`trie_order`] and [`walk_subtrees`] — rules 1 and 2 in one walk
//!   over the path-prefix trie (faults whose paths share a prefix share
//!   its requirements and implications), as one in-order round on the
//!   pool;
//! * [`FaultList`] — the target population `P` built from an enumerated
//!   path store with undetectable faults removed.
//!
//! # Example
//!
//! ```
//! use pdf_faults::{robust_assignments, FaultList, PathDelayFault, Polarity};
//! use pdf_netlist::iscas::s27;
//! use pdf_paths::{Path, PathEnumerator};
//! use pdf_netlist::LineId;
//!
//! let circuit = s27();
//!
//! // The paper's worked example: A(p) of the slow-to-rise fault on
//! // (2,9,10,15) is {2 ↦ 0x1, 7 ↦ 000, 3 ↦ xx0}.
//! let path: Path = [1usize, 8, 9, 14].into_iter().map(LineId::new).collect();
//! let fault = PathDelayFault::new(path, Polarity::SlowToRise);
//! let a = robust_assignments(&circuit, &fault)?;
//! assert_eq!(a.len(), 3);
//!
//! // The full fault population of the longest paths:
//! let paths = PathEnumerator::new(&circuit).enumerate();
//! let (faults, stats) = FaultList::build(&circuit, &paths.store);
//! assert_eq!(stats.candidates, 2 * paths.store.len());
//! # let _ = faults;
//! # Ok::<(), pdf_faults::ConditionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignments;
mod conditions;
mod fault;
mod implication;
mod learned;
mod list;
mod prefix;

pub use assignments::{Assignments, RequirementConflict};
pub use conditions::{assignments, robust_assignments, ConditionError, Sensitization};
pub use fault::{PathDelayFault, Polarity};
pub use implication::{ImplicationConflict, Implicator};
pub use learned::{LearnedImplications, Literal};
pub use list::{walk_subtrees, FaultEntry, FaultList, FaultListStats};
pub use prefix::{trie_order, FaultKey};

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use crate::{
        robust_assignments, Assignments, FaultList, Implicator, PathDelayFault, Polarity,
        Sensitization,
    };
}
