//! Test enrichment ATPG for path delay faults using multiple sets of
//! target faults — a reproduction of Pomeranz & Reddy, DATE 2002.
//!
//! Test sets for path delay faults normally target only the faults on the
//! *longest* circuit paths (`P_0`). This crate implements the paper's
//! observation and remedy: tests generated for `P_0` rarely detect the
//! next-to-longest-path faults (`P_1`) by accident, yet those faults
//! matter because path-length estimation is inexact — and they can be
//! detected **for free**, without increasing the number of tests, by
//! giving the generator two sets of target faults.
//!
//! The pipeline:
//!
//! 1. enumerate the longest-path fault population `P` with
//!    [`pdf_paths::PathEnumerator`] and eliminate undetectable faults with
//!    [`pdf_faults::FaultList`];
//! 2. split `P` into `P_0`/`P_1` with [`TargetSplit`];
//! 3. run [`BasicAtpg`] (single set, four compaction heuristics) or
//!    [`EnrichmentAtpg`] (multi-set, the paper's contribution);
//! 4. measure with [`TestSet::coverage`].
//!
//! # Example
//!
//! ```
//! use pdf_atpg::{BasicAtpg, EnrichmentAtpg, TargetSplit};
//! use pdf_faults::FaultList;
//! use pdf_netlist::iscas::s27;
//! use pdf_paths::PathEnumerator;
//!
//! let circuit = s27();
//! let paths = PathEnumerator::new(&circuit).with_cap(10_000).enumerate();
//! let (faults, _) = FaultList::build(&circuit, &paths.store);
//! let split = TargetSplit::by_cumulative_length(&faults, 10);
//!
//! let basic = BasicAtpg::new(&circuit).with_seed(2002).run(split.p0());
//! let enriched = EnrichmentAtpg::new(&circuit).with_seed(2002).run(&split);
//!
//! // Enrichment detects extra P1 faults at essentially the same test count.
//! assert!(enriched.detected_total() >= basic.detected_in_set(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod generator;
mod justify;
mod target;
mod testset;

pub use exact::{ExactJustifier, ExactOutcome};
pub use generator::{
    config_fingerprint, AtpgConfig, AtpgOutcome, AtpgStats, BasicAtpg, Compaction, EnrichmentAtpg,
    ResumeError, SecondaryMode,
};
pub use justify::{BranchGuide, Justified, Justifier, JustifyStats, DEFAULT_CONE_CACHE};
pub use target::TargetSplit;
pub use testset::{Coverage, ParseTestSetError, TestSet};
// The simulation option block is part of this crate's public API:
// `AtpgConfig::sim`, `TestSet::coverage_with`,
// `TestSet::minimized_within` and `Justifier::with_options` take it.
pub use pdf_sim::{SimOptions, SimWidth};
// Run control is part of the public generation API: `AtpgConfig` carries
// a budget and a checkpoint policy, `run_resumed` consumes a checkpoint.
pub use pdf_runctl::{
    previous_generation_path, BudgetSpec, CancelToken, Checkpoint, CheckpointError,
    CheckpointPolicy, Deadline, ParseBudgetError, RunBudget, DEFAULT_CHECKPOINT_EVERY,
};

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use crate::{
        AtpgConfig, BasicAtpg, Compaction, EnrichmentAtpg, Justifier, TargetSplit, TestSet,
    };
}
