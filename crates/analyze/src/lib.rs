//! Static analysis for path-delay ATPG: netlist linting and static
//! implication learning.
//!
//! Two cooperating front-door passes run before any budgeted analysis:
//!
//! * **Structural linting** ([`lint_netlist`], [`lint_circuit`]) finds
//!   defects that parsing and builder validation let through — dead
//!   gates, unused inputs, width-0 output cones, duplicate line names,
//!   redundant branches — and reports them as typed [`Diagnostic`]s with
//!   `source:line-name` context and stable `PDLxxx` codes. The `PDF_LINT`
//!   variable ([`LintMode`]) decides whether errors abort (`deny`,
//!   default), print (`warn`), or are skipped (`off`).
//! * **Static learning** ([`learn_implications`]) runs SOCRATES-style
//!   contrapositive learning plus depth-1 branch-and-intersect
//!   (recursive learning) once per circuit and returns a
//!   [`pdf_faults::LearnedImplications`] closure table that the
//!   implication engine and the fault-list elimination pass consult to
//!   kill more provably-untestable faults before enumeration and
//!   justification spend any budget. Toggled by `PDF_STATIC_LEARNING`;
//!   off by default, and byte-identical outputs are guaranteed when off.
//! * **Path sensitizability** ([`classify_store`]) statically sorts every
//!   candidate path delay fault into *false* / *robust* / *unknown*
//!   without enumerating tests; the false verdicts pre-eliminate faults
//!   through [`FaultList::build_with_filter`](pdf_faults::FaultList::build_with_filter)
//!   and power the semantic lints `PDL008`–`PDL010` ([`lint_semantic`]).
//!   Toggled by `PDF_SENSITIZE`.
//! * **SCOAP testability** ([`Testability`]) computes `CC0`/`CC1`/`CO` in
//!   two topological sweeps to order guided-search branching and fault
//!   selection. Toggled by `PDF_SCOAP`.
//!
//! [`Preparation::run`] is the one place the fault population is built:
//! learning, enumeration, sensitizability classification and elimination,
//! in that order, for the CLI, the experiments, the matrix and the
//! benches alike.
//!
//! # Example
//!
//! ```
//! use pdf_analyze::{learn_implications, lint_circuit};
//! use pdf_faults::{FaultList, Sensitization};
//! use pdf_netlist::iscas::s27;
//! use pdf_paths::PathEnumerator;
//!
//! let circuit = s27();
//! assert!(!lint_circuit(&circuit).has_errors());
//!
//! let table = learn_implications(&circuit);
//! let paths = PathEnumerator::new(&circuit).enumerate();
//! let (_faults, stats) =
//!     FaultList::build_with_learned(&circuit, &paths.store, Sensitization::Robust, Some(&table));
//! // The table only ever removes faults the plain rules would keep.
//! assert_eq!(
//!     stats.candidates,
//!     _faults.len() + stats.rule1_conflicts + stats.rule2_conflicts + stats.statically_eliminated
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diagnostic;
mod learning;
mod lint;
mod prepare;
mod sensitize;
mod testability;

pub use diagnostic::{codes, Diagnostic, Severity};
pub use learning::learn_implications;
pub use lint::{lint_circuit, lint_netlist, LintMode, LintReport};
pub use prepare::{Preparation, Prepared};
pub use sensitize::{
    classify_store, classify_threaded, constant_lines, lint_semantic, ConstantLine,
    SensitizeAnalysis, SensitizeStats,
};
pub use testability::Testability;
