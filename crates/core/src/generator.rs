//! The test generation procedures: the basic single-set generator with its
//! compaction heuristics (paper Sec. 2.2) and the multi-set enrichment
//! procedure (paper Sec. 3.2).
//!
//! Both share one engine. A test is built around a **primary target
//! fault** taken from `P_0`; **secondary target faults** are then folded
//! into the same test one at a time — a secondary candidate is accepted if
//! the justification procedure finds a test satisfying the union of the
//! necessary assignments of everything accepted so far. Under enrichment,
//! candidates are drawn from `P_0` first and only then from `P_1` (or the
//! further sets of a k-set split), so the number of tests stays determined
//! by `P_0` alone while `P_1` detections come for free.
//!
//! # Round-based parallel generation
//!
//! The fault loop is organized in **rounds**. Each round selects up to
//! eight eligible primaries (`BATCH`) from the committed state,
//! builds a candidate test for every one of them speculatively — each
//! build is a pure function of `(committed state, primary)` — and then
//! commits the results strictly in selection order. The builds run on a
//! persistent [`pdf_pool`] worker pool: workers claim them in selection
//! order from one queue, and a sequence-number reorder buffer delivers
//! the results back in that order, so the committed outcome (test set,
//! flags, counters, checkpoints) is byte-identical for any
//! [`AtpgConfig::threads`] value. A build whose primary was meanwhile
//! detected by an earlier commit of the same round is discarded whole
//! (counted in [`AtpgStats::builds_discarded`]); everything else lands
//! exactly as a single-threaded round would have landed it.
//!
//! Discarded builds are also skipped where possible: after every commit
//! the commit thread raises the *moot flag* of each later build of the
//! round whose primary is now detected or quarantined. A build checks
//! its flag before it starts and, with the run's wall-clock deadline,
//! between secondary candidates and at every justifier poll; it stops
//! with a moot outcome that commits as the same discard. Builds never
//! poll the counted budget. Each build records its telemetry into a
//! private buffer that is merged under the `generate` span when the
//! build commits and dropped when it is discarded, so counters and spans
//! count committed work only — the same at every thread count, however
//! many duplicates actually ran.
//!
//! Checkpoints are built on the commit thread at round boundaries and
//! written on a writer thread while the next round runs, one write in
//! flight: the run's first write creates the checkpoint journal, and
//! every later one appends a record. The write's outcome is applied when
//! the next write or the run's return joins it (`DESIGN.md` §11).

use std::cmp::Reverse;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use pdf_faults::{Assignments, FaultEntry, FaultList, Implicator};
use pdf_netlist::{Circuit, SplitMix64};
use pdf_pool::Control;
use pdf_runctl::{
    CancelToken, Checkpoint, CheckpointError, CheckpointPolicy, Deadline, Journal, RunBudget,
};

use pdf_sim::SimOptions;

use crate::justify::PROBE_EVERY;
use crate::ranking::{DeltaRanking, LineIndex};
use crate::testset::{parse_test_line, ParseTestSetError};
use crate::{
    BranchGuide, Justified, Justifier, JustifyStats, TargetSplit, TestSet, DEFAULT_ATTEMPTS,
    DEFAULT_CONE_CACHE,
};

/// The compaction heuristic used to order primary and secondary targets
/// (paper Sec. 2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Compaction {
    /// No secondary targets at all: one primary per test (the paper's
    /// `uncomp` baseline).
    Uncompacted,
    /// Primary and secondary targets in fault-list order. Our fault lists
    /// are sorted longest-first by construction, so to keep this order
    /// genuinely arbitrary it is a deterministic seeded shuffle (the
    /// paper's lists carry enumeration order, which is likewise
    /// uncorrelated by intent).
    Arbitrary,
    /// Longest path first, for both primary and secondary targets.
    LengthBased,
    /// Longest path first for the primary; secondaries minimize the number
    /// of new value components `n_Δ(p_i)` the test must additionally
    /// satisfy. The paper's choice, and the default.
    #[default]
    ValueBased,
}

impl Compaction {
    /// All heuristics, in the paper's table order.
    pub const ALL: [Compaction; 4] = [
        Compaction::Uncompacted,
        Compaction::Arbitrary,
        Compaction::LengthBased,
        Compaction::ValueBased,
    ];

    /// The short name used in the paper's tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Compaction::Uncompacted => "uncomp",
            Compaction::Arbitrary => "arbit",
            Compaction::LengthBased => "length",
            Compaction::ValueBased => "values",
        }
    }

    /// The heuristic whose [`Compaction::label`] is `label`.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Compaction> {
        Compaction::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// Configuration shared by the basic and enrichment generators.
#[derive(Clone, Debug)]
pub struct AtpgConfig {
    /// Seed for every random choice (justification decisions, the
    /// arbitrary order, leftover input filling). Equal seeds give
    /// bit-identical outcomes.
    pub seed: u64,
    /// The compaction heuristic.
    pub compaction: Compaction,
    /// Randomized 64-candidate completion groups per justification call
    /// (default [`DEFAULT_ATTEMPTS`], the paper's one attempt; more
    /// groups trade run time for fewer random misses, and up to four
    /// share one 256-lane pass).
    pub justify_attempts: u32,
    /// The simulation option block. Simulation has one configuration —
    /// the event-driven packed kernel on a 256-lane tile — so the block
    /// carries no settings ([`SimOptions`]).
    pub sim: SimOptions,
    /// Inert and ignored: the justifier keeps no cone cache. Kept only
    /// because the repository benchmark still sets it.
    pub cone_cache: usize,
    /// Cooperative time/cancellation budget. An exhausted budget makes the
    /// run stop targeting new faults, roll the round in flight back to the
    /// last committed boundary, and finalize the partial test set with
    /// [`AtpgOutcome::budget_exhausted`] set. Counted exhaustion polls
    /// happen at round-selection granularity on the commit thread only;
    /// builds and their justifiers read only its wall-clock
    /// [`RunBudget::deadline`], so the poll sequence — and with it the
    /// output — is identical for every thread count.
    pub budget: RunBudget,
    /// Crash-safe checkpointing: when set, run state is persisted
    /// atomically to the policy's file after every round that brings the
    /// completed-test count at least `every` past the last write (plus
    /// once when the run ends). Feed the file back through a
    /// `run_resumed` call to continue an interrupted run.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Statically learned implications consulted by the secondary-target
    /// conflict pre-filter. Learned conflicts are real conflicts, so
    /// attaching a table only rejects merge candidates whose justification
    /// was doomed anyway — coverage is never lost, the doomed candidates
    /// just skip the randomized justification attempt (which can shift
    /// later random draws, so equal seeds with and without a table need
    /// not produce identical sets). The checkpoint fingerprint records
    /// the table size when one is set.
    pub learned: Option<std::sync::Arc<pdf_faults::LearnedImplications>>,
    /// SCOAP testability guide. When set, every build's justifier runs
    /// its guided decision search deterministically (hardest line first,
    /// easier value — see [`BranchGuide`]), and the session orders primary
    /// targets hardest-first by summed assignment cost (a stable sort, so
    /// it composes with the compaction heuristics). Changes the random
    /// stream, so the checkpoint fingerprint records the guide's presence.
    pub guide: Option<std::sync::Arc<BranchGuide>>,
    /// Worker threads for the per-round speculative builds. `0` and `1`
    /// both run builds inline on the caller's thread; a round never has
    /// more than eight builds (`BATCH`), so no more workers than that
    /// are started. The value is deliberately **not** part of the
    /// checkpoint fingerprint: the test set, flags, counters and
    /// checkpoints are byte-identical for every thread count, so a run
    /// may be interrupted at one count and resumed at another.
    pub threads: usize,
}

/// Primaries speculatively built per round. Outputs *do* depend on this
/// value (a larger batch speculates further past each commit), so the
/// checkpoint fingerprint pins it.
const BATCH: usize = 8;

impl Default for AtpgConfig {
    fn default() -> AtpgConfig {
        AtpgConfig {
            seed: 2002,
            compaction: Compaction::ValueBased,
            justify_attempts: DEFAULT_ATTEMPTS,
            sim: SimOptions::default(),
            cone_cache: DEFAULT_CONE_CACHE,
            budget: RunBudget::unlimited(),
            checkpoint: None,
            learned: None,
            guide: None,
            threads: 1,
        }
    }
}

/// The configuration facets a checkpoint pins: resuming under a different
/// compaction heuristic or attempt count would silently diverge from the
/// interrupted run, so resume refuses them (an attempt count of 0 is
/// pinned as the 1 the justifier runs). The thread count is deliberately
/// *not* pinned: output is byte-identical across it, so resuming on a
/// machine with a different core count is safe. The literal `regenerate`,
/// `packed` and `batch` segments name the one secondary-target mode, the
/// one simulation engine and the fixed round size. The `probe` segment
/// names the guided search's completion-probe interval: checkpoints
/// written before the probe existed lack it, so resume refuses them
/// instead of mixing the two search schemes in one test set.
#[must_use]
pub fn config_fingerprint(config: &AtpgConfig) -> String {
    let mut fp = format!(
        "{}:regenerate:{}:packed:batch={BATCH}:probe={PROBE_EVERY}",
        config.compaction.label(),
        config.justify_attempts.max(1),
    );
    if let Some(table) = &config.learned {
        // A learned table changes which secondaries reach justification
        // (and therefore the random stream); resuming without the same
        // table would diverge. Plain configs keep the historical shape.
        fp.push_str(&format!(":learned={}", table.len()));
    }
    if config.guide.is_some() {
        // The guide reorders primaries and replaces random guided-search
        // decisions; resuming without it would diverge.
        fp.push_str(":scoap");
    }
    fp
}

/// Counters describing a generation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AtpgStats {
    /// Primary targets that failed justification (not retried).
    pub aborted_primaries: usize,
    /// Secondary candidates accepted via a justification run.
    pub secondary_accepts: usize,
    /// Secondary candidates accepted for free (already satisfied by the
    /// test built so far).
    pub free_accepts: usize,
    /// Secondary candidates rejected by a failed justification.
    pub secondary_rejects: usize,
    /// Secondary candidates rejected because their requirements conflict
    /// with the accumulated union (no justification attempted).
    pub conflict_rejects: usize,
    /// Faults quarantined after panicking mid-processing.
    pub faults_quarantined: usize,
    /// Checkpoint files written (including the final one).
    pub checkpoints_written: usize,
    /// Speculative round builds dropped whole because an earlier commit
    /// of the same round already detected (or quarantined) their primary,
    /// whether they ran to the end or stopped on their moot flag. Their
    /// work never enters the other counters.
    pub builds_discarded: usize,
    /// Justifier counters.
    pub justify: JustifyStats,
}

impl AtpgStats {
    /// Merges the delta counters a committed build accumulated. The
    /// session-owned counters (`faults_quarantined`,
    /// `checkpoints_written`, `builds_discarded`) are never merged from
    /// builds — quarantine transitions are counted at commit and the
    /// other two only ever happen on the commit thread.
    fn absorb_build(&mut self, build: &AtpgStats) {
        self.aborted_primaries += build.aborted_primaries;
        self.secondary_accepts += build.secondary_accepts;
        self.free_accepts += build.free_accepts;
        self.secondary_rejects += build.secondary_rejects;
        self.conflict_rejects += build.conflict_rejects;
        self.justify.absorb(&build.justify);
    }
}

/// A checkpoint refused by a `run_resumed` call: the file does not match
/// the run it is being fed into, or one of its carried tests does not
/// parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// A pinned facet of the checkpoint disagrees with the current run.
    Mismatch {
        /// Which facet ("circuit", "seed", "fingerprint", ...).
        field: &'static str,
        /// The checkpoint's value.
        expected: String,
        /// The current run's value.
        found: String,
    },
    /// Entry `index` (0-based) of the checkpoint's `tests` array does not
    /// parse as one test line (`error` reports it as line 1).
    BadTest {
        /// The entry's position in the array.
        index: usize,
        /// Why the entry does not parse.
        error: ParseTestSetError,
    },
    /// Entry `index` (0-based) of the checkpoint's `tests` array holds a
    /// line break, so it is not exactly one test line.
    LineBreak {
        /// The entry's position in the array.
        index: usize,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this run: {field} is `{expected}` in the checkpoint \
                 but `{found}` here"
            ),
            ResumeError::BadTest { index, error } => {
                write!(
                    f,
                    "checkpoint `tests` entry {index} is not a test line: {error}"
                )
            }
            ResumeError::LineBreak { index } => {
                write!(f, "checkpoint `tests` entry {index} holds a line break")
            }
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::BadTest { error, .. } => Some(error),
            ResumeError::Mismatch { .. } | ResumeError::LineBreak { .. } => None,
        }
    }
}

/// The result of a generation run over one or more target sets.
#[derive(Clone, Debug)]
pub struct AtpgOutcome {
    test_set: TestSet,
    detected: Vec<bool>,
    aborted: Vec<bool>,
    quarantined: Vec<bool>,
    set_sizes: Vec<usize>,
    stats: AtpgStats,
    budget_exhausted: bool,
}

impl AtpgOutcome {
    /// The generated tests.
    #[must_use]
    pub fn tests(&self) -> &TestSet {
        &self.test_set
    }

    /// Per-fault detection flags over the concatenation of the target
    /// sets (set 0 first).
    #[must_use]
    pub fn detected(&self) -> &[bool] {
        &self.detected
    }

    /// Per-fault abort flags (only primaries can abort).
    #[must_use]
    pub fn aborted(&self) -> &[bool] {
        &self.aborted
    }

    /// Per-fault quarantine flags: faults skipped after panicking
    /// mid-processing (the reported skip-list).
    #[must_use]
    pub fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    /// Whether the run stopped because its time budget or cancellation
    /// token fired. The test set is then a valid partial result: every
    /// test in it is complete and its detections are real, but undetected
    /// faults were simply never reached.
    #[must_use]
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// The sizes of the target sets, in order.
    #[must_use]
    pub fn set_sizes(&self) -> &[usize] {
        &self.set_sizes
    }

    /// Number of faults detected within target set `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn detected_in_set(&self, set: usize) -> usize {
        let (lo, hi) = self.set_range(set);
        self.detected[lo..hi].iter().filter(|&&d| d).count()
    }

    /// Total detected faults across all sets.
    #[must_use]
    pub fn detected_total(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Run counters.
    #[must_use]
    pub fn stats(&self) -> &AtpgStats {
        &self.stats
    }

    fn set_range(&self, set: usize) -> (usize, usize) {
        let lo: usize = self.set_sizes[..set].iter().sum();
        (lo, lo + self.set_sizes[set])
    }
}

/// The basic test generation procedure over a single target set
/// (paper Sec. 2).
///
/// # Example
///
/// ```
/// use pdf_atpg::{AtpgConfig, BasicAtpg, Compaction};
/// use pdf_faults::FaultList;
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathEnumerator;
///
/// let circuit = s27();
/// let paths = PathEnumerator::new(&circuit).enumerate();
/// let (faults, _) = FaultList::build(&circuit, &paths.store);
///
/// let outcome = BasicAtpg::new(&circuit)
///     .with_config(AtpgConfig { compaction: Compaction::ValueBased, ..Default::default() })
///     .run(&faults);
/// assert!(outcome.detected_in_set(0) > 0);
/// assert!(outcome.tests().len() <= faults.len());
/// ```
#[derive(Clone, Debug)]
pub struct BasicAtpg<'c> {
    circuit: &'c Circuit,
    config: AtpgConfig,
}

impl<'c> BasicAtpg<'c> {
    /// Creates a generator with the default configuration.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> BasicAtpg<'c> {
        BasicAtpg {
            circuit,
            config: AtpgConfig::default(),
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: AtpgConfig) -> BasicAtpg<'c> {
        self.config = config;
        self
    }

    /// Convenience: replaces just the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> BasicAtpg<'c> {
        self.config.seed = seed;
        self
    }

    /// Runs test generation for `targets`.
    #[must_use]
    pub fn run(&self, targets: &FaultList) -> AtpgOutcome {
        Session::new(self.circuit, self.config.clone(), &[targets])
            .run(None)
            .expect("a fresh run cannot fail on resume validation")
    }

    /// Runs test generation for `targets`, continuing from `checkpoint` —
    /// the crash-recovery entry point. For a fixed seed the resumed run
    /// produces the identical test set an uninterrupted run would have.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] when the checkpoint does not belong to this
    /// circuit/configuration/target-set combination.
    pub fn run_resumed(
        &self,
        targets: &FaultList,
        checkpoint: &Checkpoint,
    ) -> Result<AtpgOutcome, ResumeError> {
        Session::new(self.circuit, self.config.clone(), &[targets]).run(Some(checkpoint))
    }
}

/// The proposed test enrichment procedure over a multi-set target split
/// (paper Sec. 3): primaries come from `P_0` only, secondaries from `P_0`
/// first and then from the following sets, so the test count stays
/// determined by `P_0`.
///
/// The compaction heuristic of the underlying generation is the value-based
/// one by default, as selected in the paper.
///
/// # Example
///
/// ```
/// use pdf_atpg::{EnrichmentAtpg, TargetSplit};
/// use pdf_faults::FaultList;
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathEnumerator;
///
/// let circuit = s27();
/// let paths = PathEnumerator::new(&circuit).enumerate();
/// let (faults, _) = FaultList::build(&circuit, &paths.store);
/// let split = TargetSplit::by_cumulative_length(&faults, 10);
///
/// let outcome = EnrichmentAtpg::new(&circuit).with_seed(2002).run(&split);
/// // P1 detections come on top of P0's, with tests driven by P0 alone.
/// assert!(outcome.detected_total() >= outcome.detected_in_set(0));
/// ```
#[derive(Clone, Debug)]
pub struct EnrichmentAtpg<'c> {
    circuit: &'c Circuit,
    config: AtpgConfig,
}

impl<'c> EnrichmentAtpg<'c> {
    /// Creates an enrichment generator with the default configuration.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> EnrichmentAtpg<'c> {
        EnrichmentAtpg {
            circuit,
            config: AtpgConfig::default(),
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: AtpgConfig) -> EnrichmentAtpg<'c> {
        self.config = config;
        self
    }

    /// Convenience: replaces just the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> EnrichmentAtpg<'c> {
        self.config.seed = seed;
        self
    }

    /// Runs enrichment over the split's sets.
    #[must_use]
    pub fn run(&self, split: &TargetSplit) -> AtpgOutcome {
        let _phase = pdf_telemetry::Span::enter("enrich");
        let sets: Vec<&FaultList> = split.sets().iter().collect();
        Session::new(self.circuit, self.config.clone(), &sets)
            .run(None)
            .expect("a fresh run cannot fail on resume validation")
    }

    /// Runs enrichment over the split's sets, continuing from
    /// `checkpoint` — the crash-recovery entry point. For a fixed seed the
    /// resumed run produces the identical test set an uninterrupted run
    /// would have.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] when the checkpoint does not belong to this
    /// circuit/configuration/target-split combination.
    pub fn run_resumed(
        &self,
        split: &TargetSplit,
        checkpoint: &Checkpoint,
    ) -> Result<AtpgOutcome, ResumeError> {
        let _phase = pdf_telemetry::Span::enter("enrich");
        let sets: Vec<&FaultList> = split.sets().iter().collect();
        Session::new(self.circuit, self.config.clone(), &sets).run(Some(checkpoint))
    }
}

/// The read-only run context every worker shares: circuit, configuration
/// and the fault population. Nothing in here changes after construction,
/// which is what lets builds run concurrently without locks.
struct SessionCtx<'c, 'f> {
    circuit: &'c Circuit,
    config: AtpgConfig,
    /// All faults, set 0 first.
    faults: Vec<&'f FaultEntry>,
    /// First index of each set in `faults` (plus a final sentinel).
    set_starts: Vec<usize>,
    /// Primary (and arbit/length secondary) order over set-0 indices.
    primary_order: Vec<usize>,
    /// Line → fault index for the value-based Δ ranking; built only under
    /// [`Compaction::ValueBased`].
    line_index: Option<LineIndex>,
}

impl SessionCtx<'_, '_> {
    fn set_sizes(&self) -> Vec<usize> {
        self.set_starts.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// The committed run state. Mutated only on the commit thread, only
/// between rounds or while applying one build result; round boundaries
/// are the sole checkpointable (and rollback) points.
struct SessionState {
    detected: Vec<bool>,
    aborted: Vec<bool>,
    quarantined: Vec<bool>,
    stats: AtpgStats,
    /// Tests pushed so far (checkpoint interval anchor).
    completed: usize,
    /// `completed` as of the last checkpoint write.
    last_checkpoint_at: usize,
    /// A checkpoint write already failed and was reported (warn once).
    checkpoint_warned: bool,
    /// Generation of the last checkpoint written (or resumed from); the
    /// next save stamps `generation + 1`. Save counts are deterministic
    /// per configuration, so checkpoint bytes stay schedule-independent.
    /// Like `stats.checkpoints_written`, it advances only when a write is
    /// joined.
    checkpoint_generation: u64,
    /// The rendered line of each test as of the last checkpoint write, so
    /// a write renders only the tests committed since. Empty while a
    /// write is in flight: the lines travel with it and come back at the
    /// join.
    test_lines: Vec<String>,
    /// The checkpoint journal, created by the run's first write. `None`
    /// before it and while a write is in flight: the journal travels with
    /// the write and comes back at the join.
    journal: Option<Journal>,
    /// The checkpoint write in flight on its writer thread, if any.
    checkpoint_write: PendingWrite,
}

/// The checkpoint write in flight, if any. Joined explicitly on every
/// normal path; dropping it (the commit thread unwinding) still waits for
/// the writer, so no write outlives the run.
struct PendingWrite(Option<JoinHandle<WriteResult>>);

impl Drop for PendingWrite {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            // Already unwinding or discarding: the outcome has no reader.
            let _ = handle.join();
        }
    }
}

/// What a writer thread hands back at the join: the write's result (or
/// its panic), the checkpoint it wrote (whose test lines the next write
/// reuses), the journal it wrote to and the write's captured telemetry.
type WriteResult = (
    std::thread::Result<Result<(), CheckpointError>>,
    Checkpoint,
    Journal,
    pdf_telemetry::Captured,
);

/// Internal engine shared by both public procedures.
struct Session<'c, 'f> {
    ctx: SessionCtx<'c, 'f>,
    state: SessionState,
}

/// The committed flags a round's builds all read. Frozen at round start;
/// rolling a cut round back restores exactly this.
struct RoundSnapshot {
    detected: Vec<bool>,
    aborted: Vec<bool>,
    quarantined: Vec<bool>,
}

/// One unit of pool work: build a candidate test around `primary`
/// against the round's committed snapshot.
struct BuildJob {
    primary: usize,
    snapshot: Arc<RoundSnapshot>,
    /// Raised by the commit thread once an earlier commit of the round
    /// detects or quarantines `primary`: the build is a known duplicate.
    moot: CancelToken,
}

/// What one speculative build produced.
enum BuildOutcome {
    /// A finished candidate test (to be swept and pushed at commit).
    Test(Justified),
    /// The primary failed justification: abort it.
    Aborted,
    /// The primary panicked mid-justification and quarantined itself;
    /// the detail is in the build's quarantine log.
    PrimaryQuarantined,
    /// The build saw the run's deadline pass and stopped early. The
    /// whole round is rolled back: a truncated build says nothing
    /// reproducible about its primary.
    Cut,
    /// The build saw its moot flag and stopped (or never started): an
    /// earlier commit of the round settled its primary, so commit
    /// discards it as a duplicate.
    Moot,
}

/// A build's result as delivered through the reorder buffer.
struct BuildResult {
    primary: usize,
    outcome: BuildOutcome,
    /// Delta counters this build accumulated (merged only if committed).
    stats: AtpgStats,
    /// Faults this build saw panic, with the context string the commit
    /// thread reports on the first (committing) observation.
    quarantined: Vec<(usize, String)>,
    /// The build's spans and counters (merged only if committed).
    telemetry: pdf_telemetry::Captured,
}

/// Decorrelated per-primary justifier seed: every build draws from its
/// own stream, so a build's randomness depends only on the run seed and
/// its primary — never on which builds ran before it or where.
fn build_seed(seed: u64, primary: usize) -> u64 {
    seed ^ (primary as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One speculative build: the per-fault pipeline (primary justification,
/// secondary folding) evaluated against a frozen snapshot. Local flag
/// copies keep the bookkeeping identical to the historical inline code;
/// nothing here touches shared mutable state.
struct Build<'a, 'c, 'f> {
    ctx: &'a SessionCtx<'c, 'f>,
    /// Abort flags from the snapshot (builds never abort other faults).
    aborted: &'a [bool],
    detected: Vec<bool>,
    quarantined: Vec<bool>,
    justifier: Justifier<'c>,
    /// The run's wall-clock deadline: polling it consumes no budget poll.
    deadline: Deadline,
    /// The job's moot flag, polled with the deadline here and in the
    /// justifier: a build whose primary an earlier commit settled stops
    /// at its next poll.
    moot: CancelToken,
    stats: AtpgStats,
    /// Locally observed fault panics, in observation order.
    quarantine_log: Vec<(usize, String)>,
}

/// Executes one build job. Pure in the functional sense: unless its moot
/// flag or the deadline stops it, the result depends only on
/// `(ctx, job.primary, job.snapshot)`. Its telemetry is captured for the
/// commit to merge or drop.
fn run_build(ctx: &SessionCtx<'_, '_>, job: BuildJob) -> BuildResult {
    let primary = job.primary;
    let ((outcome, stats, quarantined), telemetry) =
        pdf_telemetry::capture(|| build_uncaptured(ctx, job));
    BuildResult {
        primary,
        outcome,
        stats,
        quarantined,
        telemetry,
    }
}

/// The body of [`run_build`]: the outcome, the delta counters and the
/// quarantine log of one build.
fn build_uncaptured(
    ctx: &SessionCtx<'_, '_>,
    job: BuildJob,
) -> (BuildOutcome, AtpgStats, Vec<(usize, String)>) {
    let BuildJob {
        primary,
        snapshot,
        moot,
    } = job;
    if moot.is_cancelled() {
        return (BuildOutcome::Moot, AtpgStats::default(), Vec::new());
    }
    let deadline = ctx.config.budget.deadline();
    // A fresh justifier per build: its RNG stream is a function of the
    // primary alone.
    let mut justifier = Justifier::new(ctx.circuit, build_seed(ctx.config.seed, primary))
        .with_attempts(ctx.config.justify_attempts)
        .with_deadline(deadline)
        .with_cancel(moot.clone());
    if let Some(guide) = &ctx.config.guide {
        justifier = justifier.with_guide(guide.clone());
    }
    let mut build = Build {
        ctx,
        aborted: &snapshot.aborted,
        detected: snapshot.detected.clone(),
        quarantined: snapshot.quarantined.clone(),
        justifier,
        deadline,
        moot,
        stats: AtpgStats::default(),
        quarantine_log: Vec::new(),
    };
    let outcome = build.run(primary);
    let mut stats = build.stats;
    stats.justify = build.justifier.stats();
    (outcome, stats, build.quarantine_log)
}

impl<'a, 'c> Build<'a, 'c, '_> {
    fn run(&mut self, primary: usize) -> BuildOutcome {
        let req = self.ctx.faults[primary].assignments.clone();
        let Some(justified) = self.justify_guarded(primary, &req) else {
            if self.moot.is_cancelled() {
                return BuildOutcome::Moot;
            }
            if self.quarantined[primary] {
                return BuildOutcome::PrimaryQuarantined;
            }
            if self.deadline.expired() {
                // A deadline-truncated search says nothing about the
                // fault: the round is rolled back and the fault stays
                // unaborted for the resumed run.
                return BuildOutcome::Cut;
            }
            self.stats.aborted_primaries += 1;
            return BuildOutcome::Aborted;
        };
        let mut current = justified;

        if !matches!(self.ctx.config.compaction, Compaction::Uncompacted) {
            let _screen = pdf_telemetry::Span::enter("screen");
            let mut union = Union::new(self.ctx, req);
            self.extend_with_secondaries(primary, &mut union, &mut current);
        }
        // A pass stops only on a raised flag or a passed deadline, and
        // neither ever drops. A moot build is discarded; otherwise the
        // whole round is rolled back.
        if self.moot.is_cancelled() {
            return BuildOutcome::Moot;
        }
        if self.deadline.expired() {
            return BuildOutcome::Cut;
        }
        BuildOutcome::Test(current)
    }

    /// Whether a secondary pass must stop: the deadline passed or the
    /// build went moot.
    fn stopped(&self) -> bool {
        self.deadline.expired() || self.moot.is_cancelled()
    }

    /// Marks fault `i` quarantined for the rest of this build and logs it
    /// for the commit thread, which owns the transition (counter, warning
    /// line) on first observation.
    fn quarantine_fault(&mut self, i: usize, context: &str) {
        if self.quarantined[i] {
            return;
        }
        self.quarantined[i] = true;
        self.quarantine_log.push((i, context.to_owned()));
    }

    /// A justification call attributable to fault `i`: a panic inside the
    /// justifier quarantines the fault and reads as a failed call.
    fn justify_guarded(&mut self, i: usize, req: &Assignments) -> Option<Justified> {
        let justifier = &mut self.justifier;
        match catch_unwind(AssertUnwindSafe(|| {
            // The `pool.build` failpoint, keyed by fault index: firing
            // depends only on the key, never on the worker schedule, so
            // an injected panic quarantines the same fault at every
            // thread count. Feeds the regular quarantine path below.
            if pdf_chaos::evaluate_keyed(pdf_chaos::sites::POOL_BUILD, i as u64).is_some() {
                pdf_telemetry::count(pdf_telemetry::counters::FAILPOINTS_HIT, 1);
                panic!("injected failpoint {}@{i}", pdf_chaos::sites::POOL_BUILD);
            }
            justifier.justify(req)
        })) {
            Ok(result) => result,
            Err(payload) => {
                let message = panic_message(payload.as_ref()).to_owned();
                self.quarantine_fault(i, &format!("justification ({message})"));
                None
            }
        }
    }

    /// Folds secondary targets into the current test, set by set.
    fn extend_with_secondaries(
        &mut self,
        primary: usize,
        union: &mut Union<'a>,
        current: &mut Justified,
    ) {
        let set_count = self.ctx.set_starts.len() - 1;
        for set in 0..set_count {
            // Per the paper, faults of a later set are considered only
            // after all faults of the earlier sets.
            match self.ctx.config.compaction {
                Compaction::Uncompacted => unreachable!("checked by caller"),
                Compaction::Arbitrary | Compaction::LengthBased => {
                    self.ordered_pass(set, primary, union, current);
                }
                Compaction::ValueBased => {
                    self.value_based_pass(set, primary, union, current);
                }
            }
        }
    }

    /// Secondary candidates in a fixed order (fault-list order for the
    /// length-based heuristic, the shuffled order for the arbitrary one).
    fn ordered_pass(
        &mut self,
        set: usize,
        primary: usize,
        union: &mut Union<'a>,
        current: &mut Justified,
    ) {
        let (lo, hi) = (self.ctx.set_starts[set], self.ctx.set_starts[set + 1]);
        let order: Vec<usize> = if set == 0 {
            self.ctx.primary_order.clone()
        } else {
            (lo..hi).collect()
        };
        for i in order {
            if self.stopped() {
                return;
            }
            if self.eligible_secondary(i, primary) {
                self.try_candidate(i, union, current);
            }
        }
    }

    /// The value-based heuristic: repeatedly take the compatible candidate
    /// with the fewest new value components `n_Δ`. Δ-sets stay valid
    /// between accepts because the union only changes on accept, and an
    /// accept re-ranks only the candidates on the lines it changed.
    fn value_based_pass(
        &mut self,
        set: usize,
        primary: usize,
        union: &mut Union<'a>,
        current: &mut Justified,
    ) {
        let ctx = self.ctx;
        let index = ctx.line_index.as_ref().expect("built for value-based runs");
        let range = ctx.set_starts[set]..ctx.set_starts[set + 1];
        let mut ranking = DeltaRanking::new(ctx.circuit.line_count(), &union.requirements, range);
        loop {
            // Conflicting candidates are rejected outright.
            let conflicts = {
                let _rank = pdf_telemetry::Span::enter("screen.rank");
                ranking.rank(
                    index,
                    |i| &ctx.faults[i].assignments,
                    |i| self.eligible_secondary(i, primary),
                )
            };
            self.stats.conflict_rejects += conflicts;
            let mut accepted = None;
            while let Some(i) = ranking.pop() {
                if self.stopped() {
                    return;
                }
                // Eligibility only ever ends. Only the candidate being
                // tried loses it today; a candidate that lost it while
                // off the changed lines is skipped here, as the full
                // rescan would have left it out of the ranking.
                if !self.eligible_secondary(i, primary) {
                    continue;
                }
                if self.try_candidate(i, union, current) {
                    accepted = Some(i);
                    break; // union changed: update the Δ ranking
                }
            }
            let Some(i) = accepted else {
                break;
            };
            ranking.accept(&ctx.faults[i].assignments);
        }
    }

    fn eligible_secondary(&self, i: usize, primary: usize) -> bool {
        i != primary && !self.detected[i] && !self.aborted[i] && !self.quarantined[i]
    }

    /// Attempts to add fault `i` to the current test. Returns `true` when
    /// the union of requirements changed (the test was regenerated).
    fn try_candidate(&mut self, i: usize, union: &mut Union<'a>, current: &mut Justified) -> bool {
        let entry = self.ctx.faults[i];
        let a = &entry.assignments;
        // Free acceptance: the test built so far already detects it. Its
        // requirements still join the union so that later regenerations
        // keep detecting it; if that grows the union, the caller must
        // recompute its Δ ranking (the paper recomputes Δ per selection).
        let waves = &current.waves;
        let satisfied = match catch_unwind(AssertUnwindSafe(|| a.satisfied_by(waves))) {
            Ok(satisfied) => satisfied,
            Err(payload) => {
                let message = panic_message(payload.as_ref()).to_owned();
                self.quarantine_fault(i, &format!("the free-acceptance check ({message})"));
                return false;
            }
        };
        if satisfied {
            let mut grew = false;
            if let Some(merged) = union.requirements.merged(a) {
                grew = merged != union.requirements;
                union.requirements = merged;
                if grew {
                    union.assert_accepted(a);
                }
            }
            self.detected[i] = true;
            self.stats.free_accepts += 1;
            pdf_telemetry::count(pdf_telemetry::counters::SECONDARY_DETECTED, 1);
            return grew;
        }
        // Implication pre-filter: a contradiction proves no test exists
        // for the merged requirements, so the (much costlier) randomized
        // justification is skipped. Sound — it only rejects candidates
        // justification could never accept. Only `A(p)` is asserted, on
        // top of the closure of the union. The closure narrows every line
        // of the union, so a direct union/`A(p)` conflict conflicts here
        // too, and the merged union is built only for survivors.
        let Some(closure) = union.closure.as_mut() else {
            self.stats.conflict_rejects += 1;
            return false;
        };
        let mark = closure.mark();
        let conflicting = match catch_unwind(AssertUnwindSafe(|| closure.assert_all(a).is_err())) {
            Ok(conflicting) => conflicting,
            Err(payload) => {
                closure.undo_to(mark);
                let message = panic_message(payload.as_ref()).to_owned();
                self.quarantine_fault(i, &format!("the implication pre-filter ({message})"));
                return false;
            }
        };
        if conflicting {
            closure.undo_to(mark);
            self.stats.conflict_rejects += 1;
            return false;
        }
        let merged = union
            .requirements
            .merged(a)
            .expect("the closure refutes every direct conflict");
        // The paper's choice (Sec. 2.2): the test is regenerated from
        // scratch for the grown union, so values committed for earlier
        // targets may change if others suit the new one better.
        match self.justify_guarded(i, &merged) {
            Some(justified) => {
                // The closure now holds the closure of the merged union.
                union.requirements = merged;
                *current = justified;
                self.detected[i] = true;
                self.stats.secondary_accepts += 1;
                pdf_telemetry::count(pdf_telemetry::counters::SECONDARY_DETECTED, 1);
                true
            }
            None => {
                closure.undo_to(mark);
                // A quarantine mid-call is not a justification verdict.
                if !self.quarantined[i] {
                    self.stats.secondary_rejects += 1;
                }
                false
            }
        }
    }
}

/// The requirement union of the test under construction, with its
/// implication closure kept incrementally on one engine for the whole
/// build: a candidate asserts only its own `A(p)` on top and is undone on
/// reject. The rules are monotone, so this conflicts exactly when the
/// merged union propagated from scratch would.
struct Union<'a> {
    requirements: Assignments,
    /// The closure of `requirements` (with the learned table, if any), or
    /// `None` once it conflicts: no candidate can join after that.
    closure: Option<Implicator<'a>>,
}

impl<'a> Union<'a> {
    fn new(ctx: &'a SessionCtx<'_, '_>, requirements: Assignments) -> Union<'a> {
        let mut closure = Implicator::new(ctx.circuit);
        if let Some(table) = ctx.config.learned.as_deref() {
            closure = closure.with_learned(table);
        }
        let closure = closure.assert_all(&requirements).is_ok().then_some(closure);
        Union {
            requirements,
            closure,
        }
    }

    /// Adds a freely accepted candidate's `A(p)` to the closure.
    fn assert_accepted(&mut self, a: &Assignments) {
        if let Some(closure) = &mut self.closure {
            if closure.assert_all(a).is_err() {
                self.closure = None;
            }
        }
    }
}

impl<'c, 'f> Session<'c, 'f> {
    fn new(circuit: &'c Circuit, config: AtpgConfig, sets: &[&'f FaultList]) -> Session<'c, 'f> {
        let mut faults = Vec::new();
        let mut set_starts = vec![0usize];
        for set in sets {
            faults.extend(set.iter());
            set_starts.push(faults.len());
        }
        // Decorrelate the shuffle stream from the justifier's streams.
        let mut rng = SplitMix64::new(config.seed ^ 0x0A1B_2C3D_4E5F_6071);
        let mut primary_order: Vec<usize> = (0..set_starts[1]).collect();
        if matches!(config.compaction, Compaction::Arbitrary) {
            // Fisher-Yates with the deterministic generator.
            for i in (1..primary_order.len()).rev() {
                let j = rng.next_below(i + 1);
                primary_order.swap(i, j);
            }
        }
        if let Some(guide) = &config.guide {
            // SCOAP selection: hardest primaries first (largest summed
            // assignment cost). The sort is stable, so within equal
            // difficulty the compaction heuristic's order survives — the
            // shuffle above still draws the same RNG either way.
            primary_order
                .sort_by_cached_key(|&i| Reverse(guide.assignment_cost(&faults[i].assignments)));
        }
        let line_index = matches!(config.compaction, Compaction::ValueBased)
            .then(|| LineIndex::new(circuit.line_count(), faults.iter().map(|e| &e.assignments)));
        let n = faults.len();
        Session {
            ctx: SessionCtx {
                circuit,
                config,
                faults,
                set_starts,
                primary_order,
                line_index,
            },
            state: SessionState {
                detected: vec![false; n],
                aborted: vec![false; n],
                quarantined: vec![false; n],
                stats: AtpgStats::default(),
                completed: 0,
                last_checkpoint_at: 0,
                checkpoint_warned: false,
                checkpoint_generation: 0,
                test_lines: Vec::new(),
                journal: None,
                checkpoint_write: PendingWrite(None),
            },
        }
    }

    fn run(self, resume: Option<&Checkpoint>) -> Result<AtpgOutcome, ResumeError> {
        let _phase = pdf_telemetry::Span::enter("generate");
        let Session { ctx, mut state } = self;
        let mut test_set = match resume {
            Some(checkpoint) => apply_resume(&ctx, &mut state, checkpoint)?,
            None => TestSet::new(),
        };
        state.last_checkpoint_at = state.completed;

        // A round holds at most `BATCH` builds: more workers would idle.
        let threads = ctx.config.threads.min(BATCH);
        let ctx_ref = &ctx;
        let state_ref = &mut state;
        let tests_ref = &mut test_set;
        let stopped_early = pdf_pool::with_pool(
            threads,
            |job: BuildJob| run_build(ctx_ref, job),
            move |pool| {
                let mut stopped = false;
                'rounds: loop {
                    // Round selection: up to `BATCH` eligible primaries
                    // from the committed state, one counted budget poll
                    // per selection attempt. This is the only place the
                    // run consumes budget polls, so the poll sequence is
                    // independent of the thread count.
                    let mut primaries: Vec<usize> = Vec::new();
                    while primaries.len() < BATCH {
                        if ctx_ref.config.budget.exhausted() {
                            stopped = true;
                            break 'rounds;
                        }
                        let Some(p) = next_primary(ctx_ref, state_ref, &primaries) else {
                            break;
                        };
                        pdf_telemetry::count(pdf_telemetry::counters::FAULTS_TARGETED, 1);
                        primaries.push(p);
                    }
                    if primaries.is_empty() {
                        break; // natural end: nothing left to target
                    }
                    pdf_telemetry::count(pdf_telemetry::counters::POOL_ROUNDS, 1);
                    let snapshot = Arc::new(RoundSnapshot {
                        detected: state_ref.detected.clone(),
                        aborted: state_ref.aborted.clone(),
                        quarantined: state_ref.quarantined.clone(),
                    });
                    let round_stats = state_ref.stats;
                    let round_completed = state_ref.completed;
                    let round_tests = tests_ref.len();
                    let moot: Vec<CancelToken> =
                        primaries.iter().map(|_| CancelToken::new()).collect();
                    let jobs: Vec<BuildJob> = primaries
                        .iter()
                        .zip(&moot)
                        .map(|(&primary, moot)| BuildJob {
                            primary,
                            snapshot: Arc::clone(&snapshot),
                            moot: moot.clone(),
                        })
                        .collect();
                    let mut round_cut = false;
                    pool.run_round(jobs, |seq, result| {
                        if matches!(result.outcome, BuildOutcome::Cut) {
                            round_cut = true;
                            return Control::Stop;
                        }
                        commit_result(ctx_ref, state_ref, tests_ref, result);
                        // Every later build whose primary this commit
                        // settled is now a known duplicate: stop it.
                        for (&later, moot) in primaries.iter().zip(&moot).skip(seq + 1) {
                            if state_ref.detected[later] || state_ref.quarantined[later] {
                                moot.cancel();
                            }
                        }
                        Control::Continue
                    });
                    if round_cut {
                        // A build hit the budget: the round's commits are
                        // unwound to the boundary the snapshot describes,
                        // so the finalized prefix is exactly what an
                        // uninterrupted run would have committed by then.
                        state_ref.detected.clone_from(&snapshot.detected);
                        state_ref.aborted.clone_from(&snapshot.aborted);
                        state_ref.quarantined.clone_from(&snapshot.quarantined);
                        state_ref.stats = round_stats;
                        state_ref.completed = round_completed;
                        tests_ref.truncate(round_tests);
                        stopped = true;
                        break;
                    }
                    if let Some(policy) = &ctx_ref.config.checkpoint {
                        if state_ref.completed - state_ref.last_checkpoint_at >= policy.every {
                            write_checkpoint(ctx_ref, state_ref, tests_ref, false);
                            state_ref.last_checkpoint_at = state_ref.completed;
                        }
                    }
                }
                stopped
            },
        );

        if stopped_early && !ctx.config.budget.already_exhausted() {
            // A build saw the deadline pass mid-round, which latches
            // nothing; consume one counted poll so the outcome and final
            // checkpoint record the exhaustion.
            let _ = ctx.config.budget.exhausted();
        }
        let budget_exhausted = ctx.config.budget.already_exhausted();
        if ctx.config.checkpoint.is_some() {
            write_checkpoint(&ctx, &mut state, &test_set, !budget_exhausted);
            join_checkpoint_write(&mut state);
        }
        let set_sizes = ctx.set_sizes();
        Ok(AtpgOutcome {
            test_set,
            detected: state.detected,
            aborted: state.aborted,
            quarantined: state.quarantined,
            set_sizes,
            stats: state.stats,
            budget_exhausted,
        })
    }
}

/// The next set-0 fault to build a test around: undetected, not yet
/// tried as a primary, not quarantined, not already in this round's
/// batch; longest-first except under the arbitrary order.
fn next_primary(
    ctx: &SessionCtx<'_, '_>,
    state: &SessionState,
    pending: &[usize],
) -> Option<usize> {
    ctx.primary_order.iter().copied().find(|&i| {
        !state.detected[i] && !state.aborted[i] && !state.quarantined[i] && !pending.contains(&i)
    })
}

/// Applies one build result to the committed state, in sequence order.
fn commit_result(
    ctx: &SessionCtx<'_, '_>,
    state: &mut SessionState,
    test_set: &mut TestSet,
    result: BuildResult,
) {
    let BuildResult {
        primary,
        outcome,
        stats,
        quarantined,
        telemetry,
    } = result;
    // Read the duplicate verdict before this build's quarantine log
    // lands: a build that quarantined its own primary is the primary's
    // own committed attempt, not a duplicate.
    if state.detected[primary] || state.quarantined[primary] {
        // An earlier commit of this round already detected (or
        // quarantined) the primary. The speculative build is dropped
        // whole — counters, telemetry and quarantine log alike. Merging
        // its counters would break the `tests + aborted primaries =
        // justification calls` ledger the committed outcome maintains,
        // and which duplicates ran (or how far) depends on the schedule.
        state.stats.builds_discarded += 1;
        pdf_telemetry::count(pdf_telemetry::counters::POOL_BUILDS_DISCARDED, 1);
        return;
    }
    // Moot flags are raised only for primaries already settled, and they
    // never drop within a round, so a moot build is always a duplicate.
    assert!(
        !matches!(outcome, BuildOutcome::Moot),
        "a moot build must commit as a duplicate"
    );
    telemetry.merge();
    for (i, context) in &quarantined {
        commit_quarantine(ctx, state, *i, context);
    }
    state.stats.absorb_build(&stats);
    match outcome {
        BuildOutcome::Cut => unreachable!("cut results stop the round before commit"),
        BuildOutcome::Moot => unreachable!("checked above"),
        BuildOutcome::Aborted => state.aborted[primary] = true,
        BuildOutcome::PrimaryQuarantined => {}
        BuildOutcome::Test(current) => {
            // Drop every fault the finished test detects (the paper's
            // per-test fault simulation).
            commit_sweep(ctx, state, &current.waves);
            debug_assert!(state.detected[primary], "primary must be detected");
            test_set.push(current.test);
            state.completed += 1;
        }
    }
}

/// Marks fault `i` quarantined in the committed state: it panicked
/// mid-processing and is skipped (never targeted, never offered as a
/// secondary, never swept) for the rest of the run. Only the first
/// observation counts and warns — later builds of the same round may
/// rediscover the same panic.
fn commit_quarantine(ctx: &SessionCtx<'_, '_>, state: &mut SessionState, i: usize, context: &str) {
    if state.quarantined[i] {
        return;
    }
    state.quarantined[i] = true;
    state.stats.faults_quarantined += 1;
    pdf_telemetry::count(pdf_telemetry::counters::FAULTS_QUARANTINED, 1);
    eprintln!(
        "warning: quarantined fault {} after a panic during {context}",
        ctx.faults[i].fault
    );
}

/// Best-effort text of a panic payload for quarantine warnings: the
/// carried message for the common `&str` / `String` payloads, a
/// placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The per-test fault simulation sweep at commit, fault panics
/// quarantined.
fn commit_sweep(ctx: &SessionCtx<'_, '_>, state: &mut SessionState, waves: &[pdf_logic::Triple]) {
    let swept =
        pdf_sim::newly_satisfied_guarded(waves, &ctx.faults, &state.detected, &state.quarantined);
    for i in swept.satisfied {
        state.detected[i] = true;
    }
    for i in swept.panicked {
        commit_quarantine(ctx, state, i, "fault simulation");
    }
}

/// Validates `checkpoint` against this run and installs its state: flags,
/// counters and the completed-test count. Returns the carried test set.
/// No RNG position is carried: every build's stream is re-derived from
/// `(seed, primary)`, so the committed flags alone determine the
/// continuation.
fn apply_resume(
    ctx: &SessionCtx<'_, '_>,
    state: &mut SessionState,
    checkpoint: &Checkpoint,
) -> Result<TestSet, ResumeError> {
    let mismatch = |field: &'static str, expected: String, found: String| {
        Err(ResumeError::Mismatch {
            field,
            expected,
            found,
        })
    };
    if checkpoint.circuit != ctx.circuit.name() {
        return mismatch(
            "circuit",
            checkpoint.circuit.clone(),
            ctx.circuit.name().to_owned(),
        );
    }
    if checkpoint.seed != ctx.config.seed {
        return mismatch(
            "seed",
            format!("{:#018x}", checkpoint.seed),
            format!("{:#018x}", ctx.config.seed),
        );
    }
    let fingerprint = config_fingerprint(&ctx.config);
    if checkpoint.fingerprint != fingerprint {
        return mismatch("fingerprint", checkpoint.fingerprint.clone(), fingerprint);
    }
    let set_sizes = ctx.set_sizes();
    if checkpoint.set_sizes != set_sizes {
        return mismatch(
            "set_sizes",
            format!("{:?}", checkpoint.set_sizes),
            format!("{set_sizes:?}"),
        );
    }
    let n = ctx.faults.len();
    for (field, indices) in [
        ("detected", &checkpoint.detected),
        ("aborted", &checkpoint.aborted),
        ("quarantined", &checkpoint.quarantined),
    ] {
        if let Some(&index) = indices.iter().find(|&&i| i >= n) {
            return mismatch(field, format!("fault index {index}"), format!("{n} faults"));
        }
    }
    let test_set = checkpoint
        .tests
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            // `parse_test_line` splits on any whitespace, so it would read
            // a line break as a separator.
            if entry.contains(['\n', '\r']) {
                return Err(ResumeError::LineBreak { index });
            }
            parse_test_line(entry, 1).map_err(|error| ResumeError::BadTest { index, error })
        })
        .collect::<Result<TestSet, _>>()?;
    let width = ctx.circuit.inputs().len();
    if let Some(t) = test_set.tests().iter().find(|t| t.len() != width) {
        return mismatch(
            "test width",
            t.len().to_string(),
            format!("{width} circuit inputs"),
        );
    }
    if test_set.len() != checkpoint.completed {
        return mismatch(
            "completed",
            checkpoint.completed.to_string(),
            format!("{} carried tests", test_set.len()),
        );
    }
    for (flags, indices) in [
        (&mut state.detected, &checkpoint.detected),
        (&mut state.aborted, &checkpoint.aborted),
        (&mut state.quarantined, &checkpoint.quarantined),
    ] {
        for &index in indices {
            flags[index] = true;
        }
    }
    state.completed = checkpoint.completed;
    state.checkpoint_generation = checkpoint.generation;
    for (name, counter) in resumable_counters(&mut state.stats) {
        *counter = checkpoint.counter(name) as usize;
    }
    Ok(test_set)
}

/// The [`AtpgStats`] counters a checkpoint carries across a resume, in
/// file order.
fn resumable_counters(stats: &mut AtpgStats) -> [(&'static str, &mut usize); 8] {
    [
        ("aborted_primaries", &mut stats.aborted_primaries),
        ("secondary_accepts", &mut stats.secondary_accepts),
        ("free_accepts", &mut stats.free_accepts),
        ("secondary_rejects", &mut stats.secondary_rejects),
        ("conflict_rejects", &mut stats.conflict_rejects),
        ("faults_quarantined", &mut stats.faults_quarantined),
        ("checkpoints_written", &mut stats.checkpoints_written),
        ("builds_discarded", &mut stats.builds_discarded),
    ]
}

/// Starts a round-boundary checkpoint write through the configured
/// policy, after joining the previous one: at most one write is in
/// flight. The commit thread builds the [`Checkpoint`] value, rendering
/// only the tests committed since the last write, and a writer thread
/// writes it to the run's journal while the next round runs: the first
/// write creates the journal, every later one appends a record. The
/// write is joined by the next write, or by the run's return after the
/// final write.
fn write_checkpoint(
    ctx: &SessionCtx<'_, '_>,
    state: &mut SessionState,
    test_set: &TestSet,
    complete: bool,
) {
    let Some(policy) = &ctx.config.checkpoint else {
        return;
    };
    join_checkpoint_write(state);
    // The saved count includes this write.
    let mut saved = state.stats;
    saved.checkpoints_written += 1;
    let mut tests = std::mem::take(&mut state.test_lines);
    // A cut round drops the tests it committed. Those came after the
    // last write, so the lines are a prefix of the set; the truncation
    // keeps a line from outliving its test should that ever change.
    tests.truncate(test_set.len());
    let rendered = tests.len();
    tests.extend(
        test_set.tests()[rendered..]
            .iter()
            .map(crate::testset::test_line),
    );
    let checkpoint = Checkpoint {
        generation: state.checkpoint_generation + 1,
        circuit: ctx.circuit.name().to_owned(),
        seed: ctx.config.seed,
        fingerprint: config_fingerprint(&ctx.config),
        set_sizes: ctx.set_sizes(),
        completed: state.completed,
        detected: set_indices(&state.detected),
        aborted: set_indices(&state.aborted),
        quarantined: set_indices(&state.quarantined),
        tests,
        counters: resumable_counters(&mut saved)
            .into_iter()
            .map(|(name, &mut value)| (name.to_owned(), value as u64))
            .collect(),
        complete,
    };
    let mut journal = state
        .journal
        .take()
        .unwrap_or_else(|| Journal::new(&policy.path));
    // The writer carries the commit thread's name, so a panicking write
    // reads on stderr as it did when the commit thread wrote.
    let mut writer = std::thread::Builder::new();
    if let Some(name) = std::thread::current().name() {
        writer = writer.name(name.to_owned());
    }
    let handle = writer
        .spawn(move || {
            let (result, telemetry) = pdf_telemetry::capture(|| {
                catch_unwind(AssertUnwindSafe(|| journal.write(&checkpoint)))
            });
            (result, checkpoint, journal, telemetry)
        })
        .expect("spawn the checkpoint writer thread");
    state.checkpoint_write.0 = Some(handle);
}

/// The indices of the set flags, ascending.
fn set_indices(flags: &[bool]) -> Vec<usize> {
    (0..flags.len()).filter(|&i| flags[i]).collect()
}

/// Joins the checkpoint write in flight, if any, and applies its outcome
/// on the commit thread: its telemetry is filed under the active span
/// (`generate`), a success advances `checkpoints_written` and the
/// generation, and a refused write is reported once — the run continues,
/// since losing crash-recoverability must not fail the run itself. A
/// panic on the writer is re-raised here.
fn join_checkpoint_write(state: &mut SessionState) {
    let Some(handle) = state.checkpoint_write.0.take() else {
        return;
    };
    let (result, checkpoint, journal, telemetry) = handle
        .join()
        .unwrap_or_else(|payload| resume_unwind(payload));
    telemetry.merge();
    state.test_lines = checkpoint.tests;
    state.journal = Some(journal);
    match result.unwrap_or_else(|payload| resume_unwind(payload)) {
        Ok(()) => {
            state.stats.checkpoints_written += 1;
            state.checkpoint_generation += 1;
        }
        Err(e) => {
            if !state.checkpoint_warned {
                eprintln!("warning: checkpoint write failed, continuing without: {e}");
                state.checkpoint_warned = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::iscas::s27;
    use pdf_netlist::LineId;
    use pdf_paths::PathEnumerator;

    fn s27_faults() -> (Circuit, FaultList) {
        let c = s27();
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        (c, faults)
    }

    fn config(compaction: Compaction) -> AtpgConfig {
        AtpgConfig {
            compaction,
            sim: SimOptions::default(),
            ..AtpgConfig::default()
        }
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static text");
        assert_eq!(panic_message(s.as_ref()), "static text");
        let s: Box<dyn std::any::Any + Send> = Box::new("owned text".to_owned());
        assert_eq!(panic_message(s.as_ref()), "owned text");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn default_fingerprint_keeps_the_legacy_packed_segment() {
        // Resume compares this exact string verbatim. The `packed`,
        // `regenerate` and `batch` literals name fixed choices; `probe`
        // refuses checkpoints written before the completion probe.
        assert_eq!(
            config_fingerprint(&AtpgConfig::default()),
            "values:regenerate:1:packed:batch=8:probe=4"
        );
    }

    #[test]
    fn all_heuristics_complete_and_agree_on_coverage_frontier() {
        let (c, faults) = s27_faults();
        let mut counts = Vec::new();
        for h in Compaction::ALL {
            let outcome = BasicAtpg::new(&c).with_config(config(h)).run(&faults);
            // Every reported detection must be real: re-simulate.
            let cov = outcome.tests().coverage(&c, &faults);
            assert_eq!(
                cov.detected(),
                outcome.detected(),
                "{}: fault simulation must agree with bookkeeping",
                h.label()
            );
            counts.push((h, outcome.tests().len(), outcome.detected_total()));
        }
        // Compaction reduces the number of tests vs uncompacted.
        let uncomp_tests = counts[0].1;
        for &(h, tests, _) in &counts[1..] {
            assert!(
                tests <= uncomp_tests,
                "{}: {tests} tests vs uncomp {uncomp_tests}",
                h.label()
            );
        }
    }

    #[test]
    fn uncompacted_builds_one_test_per_undetected_primary() {
        let (c, faults) = s27_faults();
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::Uncompacted))
            .run(&faults);
        // Each test corresponds to exactly one successful primary attempt
        // (duplicate speculative builds are dropped whole, so they do not
        // disturb the ledger).
        assert_eq!(
            outcome.tests().len() + outcome.stats().aborted_primaries,
            outcome.stats().justify.calls
        );
        assert_eq!(outcome.stats().secondary_accepts, 0);
        assert_eq!(outcome.stats().secondary_rejects, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (c, faults) = s27_faults();
        let a = BasicAtpg::new(&c).with_seed(7).run(&faults);
        let b = BasicAtpg::new(&c).with_seed(7).run(&faults);
        assert_eq!(a.tests().len(), b.tests().len());
        assert_eq!(a.detected(), b.detected());
        for (ta, tb) in a.tests().tests().iter().zip(b.tests().tests()) {
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn scoap_guide_pins_fingerprint_and_stays_deterministic() {
        let (c, faults) = s27_faults();
        let mut cfg = config(Compaction::ValueBased);
        assert!(!config_fingerprint(&cfg).contains(":scoap"));
        cfg.guide = Some(Arc::new(BranchGuide::new(
            vec![1; c.line_count()],
            vec![1; c.line_count()],
        )));
        assert!(config_fingerprint(&cfg).ends_with(":scoap"));

        let a = BasicAtpg::new(&c).with_config(cfg.clone()).run(&faults);
        let b = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        assert_eq!(a.tests().to_text(), b.tests().to_text());
        assert_eq!(a.detected(), b.detected());
        // Guided detections are real: re-simulation agrees.
        let cov = a.tests().coverage(&c, &faults);
        assert_eq!(cov.detected(), a.detected());
    }

    #[test]
    fn scoap_guide_orders_primaries_hardest_first() {
        let (c, faults) = s27_faults();
        // A guide with genuinely uneven costs: line index as its own cost
        // (arbitrary but fixed), so assignment costs differ across faults.
        let costs: Vec<u32> = (0..c.line_count() as u32).collect();
        let guide = BranchGuide::new(costs.clone(), costs);
        let mut cfg = config(Compaction::ValueBased);
        cfg.guide = Some(Arc::new(guide.clone()));
        let session = Session::new(&c, cfg, &[&faults]);
        let order = &session.ctx.primary_order;
        assert_eq!(order.len(), faults.len());
        for pair in order.windows(2) {
            let hard = guide.assignment_cost(&session.ctx.faults[pair[0]].assignments);
            let easy = guide.assignment_cost(&session.ctx.faults[pair[1]].assignments);
            assert!(hard >= easy, "primaries must be ordered hardest-first");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (c, faults) = s27_faults();
        let reference = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        for threads in [2usize, 4] {
            let mut cfg = config(Compaction::ValueBased);
            cfg.threads = threads;
            let outcome = BasicAtpg::new(&c).with_config(cfg).run(&faults);
            assert_eq!(
                outcome.tests().to_text(),
                reference.tests().to_text(),
                "threads={threads}"
            );
            assert_eq!(outcome.detected(), reference.detected());
            assert_eq!(outcome.aborted(), reference.aborted());
            assert_eq!(outcome.quarantined(), reference.quarantined());
            assert_eq!(
                outcome.stats().aborted_primaries,
                reference.stats().aborted_primaries
            );
            assert_eq!(
                outcome.stats().builds_discarded,
                reference.stats().builds_discarded
            );
            assert_eq!(outcome.stats().justify, reference.stats().justify);
        }
    }

    #[test]
    fn enrichment_detects_p1_without_more_tests_than_basic_scale() {
        let (c, faults) = s27_faults();
        let split = TargetSplit::by_cumulative_length(&faults, 10);
        assert!(!split.p1().is_empty());

        let basic = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(split.p0());
        let enriched = EnrichmentAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&split);

        // Test counts are close (identical targets drive both).
        let delta = enriched.tests().len().abs_diff(basic.tests().len());
        assert!(
            delta <= 2,
            "basic {} vs enriched {}",
            basic.tests().len(),
            enriched.tests().len()
        );

        // Enrichment must detect at least one P1 fault on this circuit.
        let p1_detected = enriched.detected_total() - enriched.detected_in_set(0);
        assert!(p1_detected > 0);
    }

    #[test]
    fn enrichment_p0_detection_not_sacrificed() {
        let (c, faults) = s27_faults();
        let split = TargetSplit::by_cumulative_length(&faults, 10);
        let basic = BasicAtpg::new(&c).run(split.p0());
        let enriched = EnrichmentAtpg::new(&c).run(&split);
        let basic_p0 = basic.detected_in_set(0);
        let enriched_p0 = enriched.detected_in_set(0);
        // Small random variation allowed (the paper observes the same).
        assert!(
            enriched_p0 + 2 >= basic_p0,
            "enriched {enriched_p0} vs basic {basic_p0}"
        );
    }

    #[test]
    fn aborted_primaries_are_not_retried() {
        let (c, faults) = s27_faults();
        let outcome = BasicAtpg::new(&c).run(&faults);
        // Aborted flags only on undetected faults.
        for (i, &a) in outcome.aborted().iter().enumerate() {
            if a {
                assert!(!outcome.detected()[i]);
            }
        }
        assert_eq!(
            outcome.stats().aborted_primaries,
            outcome.aborted().iter().filter(|&&a| a).count()
        );
    }

    #[test]
    fn free_accepts_happen() {
        let (c, faults) = s27_faults();
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        // On s27, tests routinely detect several faults at once.
        assert!(outcome.stats().free_accepts + outcome.stats().secondary_accepts > 0);
    }

    /// Replaces the entry at `slot` with one whose assignments constrain
    /// a line the circuit does not have: simulation lookups, cone
    /// construction and implication all panic on it.
    fn poison(faults: &FaultList, slot: usize) -> FaultList {
        let mut entries: Vec<FaultEntry> = faults.iter().cloned().collect();
        let mut bad = pdf_faults::Assignments::new();
        bad.require(LineId::new(9_999), pdf_logic::Triple::RISING)
            .unwrap();
        entries[slot].assignments = bad;
        entries.into_iter().collect()
    }

    #[test]
    fn poisoned_secondary_is_quarantined_and_the_run_continues() {
        let (c, faults) = s27_faults();
        let slot = faults.len() / 2;
        let poisoned = poison(&faults, slot);
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&poisoned);
        assert_eq!(outcome.stats().faults_quarantined, 1);
        assert!(outcome.quarantined()[slot]);
        assert_eq!(outcome.quarantined().iter().filter(|&&q| q).count(), 1);
        assert!(!outcome.detected()[slot]);
        assert!(!outcome.aborted()[slot], "quarantine is not an abort");
        // The rest of the population is unaffected.
        assert!(!outcome.tests().is_empty());
        assert!(outcome.detected_total() > 0);
    }

    #[test]
    fn poisoned_primary_is_quarantined_at_justification() {
        let (c, faults) = s27_faults();
        // Slot 0 is the first primary under the length-based order.
        let poisoned = poison(&faults, 0);
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&poisoned);
        assert!(outcome.quarantined()[0]);
        assert_eq!(outcome.stats().faults_quarantined, 1);
        assert!(!outcome.tests().is_empty());
    }

    #[test]
    fn poisoned_fault_is_quarantined_by_the_sweep_without_compaction() {
        let (c, faults) = s27_faults();
        let slot = faults.len() / 2;
        let poisoned = poison(&faults, slot);
        // Uncompacted: no secondary pass, so the guarded per-test fault
        // simulation sweep is what trips over the poison.
        let outcome = BasicAtpg::new(&c)
            .with_config(config(Compaction::Uncompacted))
            .run(&poisoned);
        assert!(outcome.quarantined()[slot]);
        assert_eq!(outcome.stats().faults_quarantined, 1);
    }

    #[test]
    fn budget_exhaustion_finalizes_a_partial_prefix() {
        let (c, faults) = s27_faults();
        let full = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        assert!(!full.budget_exhausted());
        let mut cfg = config(Compaction::ValueBased);
        cfg.budget =
            RunBudget::unlimited().and_cancel(pdf_runctl::CancelToken::cancel_after_polls(5));
        let partial = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        assert!(partial.budget_exhausted());
        assert!(partial.tests().len() < full.tests().len());
        // Every finalized test is real and a prefix of the full run's.
        let cov = partial.tests().coverage(&c, &faults);
        assert_eq!(cov.detected(), partial.detected());
        for (a, b) in partial.tests().tests().iter().zip(full.tests().tests()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn interrupted_resumed_run_reproduces_the_uninterrupted_set() {
        let (c, faults) = s27_faults();
        let full = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        let path =
            std::env::temp_dir().join(format!("pdf_generator_resume_{}.json", std::process::id()));
        for polls in [1u64, 3, 17, 61, 301] {
            let mut cfg = config(Compaction::ValueBased);
            cfg.budget = RunBudget::unlimited()
                .and_cancel(pdf_runctl::CancelToken::cancel_after_polls(polls));
            cfg.checkpoint = Some(pdf_runctl::CheckpointPolicy::new(&path, 1));
            let partial = BasicAtpg::new(&c).with_config(cfg).run(&faults);
            let checkpoint = pdf_runctl::Checkpoint::load(&path).unwrap();
            assert_eq!(checkpoint.complete, !partial.budget_exhausted());
            let resumed = BasicAtpg::new(&c)
                .with_config(config(Compaction::ValueBased))
                .run_resumed(&faults, &checkpoint)
                .unwrap();
            assert_eq!(
                resumed.tests().to_text(),
                full.tests().to_text(),
                "polls={polls}"
            );
            assert_eq!(resumed.detected(), full.detected(), "polls={polls}");
            assert_eq!(resumed.aborted(), full.aborted(), "polls={polls}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_accepts_a_checkpoint_taken_at_a_different_thread_count() {
        let (c, faults) = s27_faults();
        let full = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run(&faults);
        let path = std::env::temp_dir().join(format!(
            "pdf_generator_thread_resume_{}.json",
            std::process::id()
        ));
        let mut cfg = config(Compaction::ValueBased);
        cfg.threads = 4;
        cfg.budget =
            RunBudget::unlimited().and_cancel(pdf_runctl::CancelToken::cancel_after_polls(17));
        cfg.checkpoint = Some(pdf_runctl::CheckpointPolicy::new(&path, 1));
        let _ = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        let checkpoint = pdf_runctl::Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // A 4-thread run's checkpoint resumes on a single thread and
        // still lands the uninterrupted single-thread set: the thread
        // count is not a pinned facet.
        let resumed = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .run_resumed(&faults, &checkpoint)
            .unwrap();
        assert_eq!(resumed.tests().to_text(), full.tests().to_text());
        assert_eq!(resumed.detected(), full.detected());
    }

    #[test]
    fn resume_rejects_a_foreign_checkpoint() {
        let (c, faults) = s27_faults();
        let path =
            std::env::temp_dir().join(format!("pdf_generator_reject_{}.json", std::process::id()));
        let mut cfg = config(Compaction::ValueBased);
        cfg.checkpoint = Some(pdf_runctl::CheckpointPolicy::new(&path, 4));
        let _ = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        let checkpoint = pdf_runctl::Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let err = BasicAtpg::new(&c)
            .with_config(config(Compaction::ValueBased))
            .with_seed(999)
            .run_resumed(&faults, &checkpoint)
            .unwrap_err();
        assert!(matches!(err, ResumeError::Mismatch { field: "seed", .. }));

        let err = BasicAtpg::new(&c)
            .with_config(config(Compaction::Arbitrary))
            .run_resumed(&faults, &checkpoint)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ResumeError::Mismatch {
                    field: "fingerprint",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn resume_reads_exactly_one_test_per_entry() {
        let (c, faults) = s27_faults();
        let path =
            std::env::temp_dir().join(format!("pdf_generator_entries_{}.json", std::process::id()));
        let mut cfg = config(Compaction::ValueBased);
        cfg.checkpoint = Some(pdf_runctl::CheckpointPolicy::new(&path, 4));
        let full = BasicAtpg::new(&c).with_config(cfg).run(&faults);
        let checkpoint = pdf_runctl::Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let resume = |tests: Vec<String>| {
            let mut edited = checkpoint.clone();
            edited.tests = tests;
            BasicAtpg::new(&c)
                .with_config(config(Compaction::ValueBased))
                .run_resumed(&faults, &edited)
        };
        let resumed = resume(checkpoint.tests.clone()).unwrap();
        assert_eq!(resumed.tests().to_text(), full.tests().to_text());

        let [t1, t2, t3] = [0, 1, 2].map(|k| checkpoint.tests[k].clone());
        let rest = checkpoint.tests[3..].to_vec();
        let line_break = |index| ResumeError::LineBreak { index };
        let bad = |index, error| ResumeError::BadTest { index, error };
        let malformed = ParseTestSetError::Malformed { line: 1 };
        // The first four keep as many parsed lines as `completed`, so
        // only the per-entry parse refuses them.
        let cases = [
            (
                vec![
                    format!("{t1}\n{t2} # two tests in one string"),
                    t3.clone(),
                    String::new(),
                ],
                line_break(0),
            ),
            (
                vec![t1.clone(), format!("{t2} # note"), t3.clone()],
                bad(1, malformed),
            ),
            (
                vec![t1.clone(), t2.clone(), format!("{t3}\r")],
                line_break(2),
            ),
            (
                vec![t1.clone(), "  ".to_owned(), t2.clone(), t3.clone()],
                bad(1, malformed),
            ),
            (
                vec![t1.clone(), t2.replacen(' ', "", 1), t3.clone()],
                bad(1, malformed),
            ),
            (
                vec![t1.clone(), t2.clone(), t3.replacen('0', "2", 1)],
                bad(2, ParseTestSetError::BadValue { line: 1, ch: '2' }),
            ),
            (
                vec![format!("{t1}0"), t2.clone(), t3.clone()],
                bad(0, ParseTestSetError::WidthMismatch { line: 1 }),
            ),
        ];
        for (head, expected) in cases {
            let err = resume([head, rest.clone()].concat()).unwrap_err();
            assert_eq!(err, expected, "{err}");
            assert_eq!(
                std::error::Error::source(&err).is_some(),
                matches!(err, ResumeError::BadTest { .. })
            );
        }
    }
}
