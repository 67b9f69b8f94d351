//! Run control: cooperative cancellation, wall-clock budgets, and
//! crash-safe checkpointing for deadline-bounded ATPG runs.
//!
//! The paper's enrichment procedure is explicitly a budget game — the
//! `N_P` store cap and the bounded justification attempts exist because
//! full path enumeration is intractable — and a production run inherits
//! the same economics at the wall-clock level: partial results delivered
//! on deadline beat perfect results delivered never. This crate supplies
//! the three pieces the pipeline threads through every phase:
//!
//! * [`RunBudget`] — a cooperative exhaustion test combining a
//!   [`Deadline`] (wall clock) and a [`CancelToken`] (operator request or
//!   deterministic poll countdown for tests). Polls are cheap: an
//!   unlimited budget answers with a single branch, and once a budget
//!   fires it stays fired (observable without a fresh poll through
//!   [`RunBudget::already_exhausted`]). Budget state is shared across
//!   clones. Speculative work that must not consume polls reads only the
//!   wall-clock half, [`RunBudget::deadline`].
//! * [`BudgetSpec`] — the strictly parsed form of `PDF_TIME_BUDGET` /
//!   `--time-budget`: a global duration (`250ms`), or per-phase entries
//!   (`generate=2s,compact=500ms`), or both (`2s,compact=500ms`).
//! * [`Checkpoint`] / [`Journal`] / [`CheckpointPolicy`] — crash-safe
//!   incremental run state in an append-only journal: a header line,
//!   then one JSON-lines record per write, each holding only what changed
//!   and a CRC64 chained over every line before it. A journal is created
//!   atomically (temp file + rename) and then grows by one `fdatasync`ed
//!   append per write. A checkpoint always describes a *boundary* state —
//!   after a completed test, never mid-construction — which is what makes
//!   interrupted-plus-resumed runs reproduce the uninterrupted test set
//!   bit for bit (see `DESIGN.md` §11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdf_knobs::{Kind, KnobError, Program, KNOBS};
use pdf_telemetry::{counters, Json};

/// Default checkpoint interval when `--checkpoint-every` is not given.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 16;
/// Version tag written into checkpoint journal headers. Version 4 is the
/// append-only journal; versions 3 and earlier were single JSON
/// documents, rewritten whole at every save, and are refused with
/// [`CheckpointError::Version`].
pub const CHECKPOINT_VERSION: u32 = 4;

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

/// A wall-clock deadline: either unset (never expires) or a fixed
/// [`Instant`] after which [`Deadline::expired`] answers `true`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    #[must_use]
    pub const fn none() -> Deadline {
        Deadline { at: None }
    }

    /// A deadline `budget` from now. A budget past the clock's range
    /// never expires.
    #[must_use]
    pub fn after(budget: Duration) -> Deadline {
        Deadline::offset(Instant::now(), budget)
    }

    /// A deadline `budget` after `start`, unset when that instant lies
    /// past the clock's range.
    fn offset(start: Instant, budget: Duration) -> Deadline {
        start
            .checked_add(budget)
            .map_or(Deadline::none(), Deadline::at)
    }

    /// A deadline at a fixed instant.
    #[must_use]
    pub const fn at(instant: Instant) -> Deadline {
        Deadline { at: Some(instant) }
    }

    /// Whether a deadline is set at all.
    #[must_use]
    pub const fn is_set(&self) -> bool {
        self.at.is_some()
    }

    /// Whether the deadline has passed. An unset deadline never expires.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left before expiry (`None` when unset, zero when already
    /// expired).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The earlier of two deadlines (unset counts as latest).
    #[must_use]
    pub fn earlier(self, other: Deadline) -> Deadline {
        match (self.at, other.at) {
            (Some(a), Some(b)) => Deadline::at(a.min(b)),
            (Some(a), None) => Deadline::at(a),
            (None, b) => Deadline { at: b },
        }
    }
}

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct TokenState {
    cancelled: AtomicBool,
    /// Remaining polls before self-cancellation; `0` means disarmed.
    countdown: AtomicU64,
}

/// A cooperative cancellation flag, shared by cloning.
///
/// Two ways to fire: [`CancelToken::cancel`] (an operator request, a
/// signal handler, a supervising thread), or a deterministic poll
/// countdown armed by [`CancelToken::cancel_after_polls`] — the
/// instrument the resume-identity tests use to interrupt a run at an
/// exact, reproducible point with no wall clock involved.
///
/// Only counted [`RunBudget::exhausted`] polls read a budget's token. The
/// generator makes those at round selection alone, so a token cancelled
/// from outside stops generation at the next round selection, not in the
/// middle of a build.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that cancels itself on its `n`-th poll (`n >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (the token would never fire — pass a cancelled
    /// token instead).
    #[must_use]
    pub fn cancel_after_polls(n: u64) -> CancelToken {
        assert!(n > 0, "poll countdown must be at least 1");
        let token = CancelToken::new();
        token.inner.countdown.store(n, Ordering::Relaxed);
        token
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (does not consume a poll).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// One cooperative poll: decrements an armed countdown and reports
    /// whether cancellation is requested.
    pub fn poll(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.countdown.load(Ordering::Relaxed) {
            0 => false,
            1 => {
                self.inner.countdown.store(0, Ordering::Relaxed);
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            n => {
                self.inner.countdown.store(n - 1, Ordering::Relaxed);
                false
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RunBudget
// ---------------------------------------------------------------------------

/// A cooperative run budget: a [`Deadline`], an optional [`CancelToken`],
/// and a latch that stays set once either fires.
///
/// Clones share the latch (and the token). The default budget is
/// unlimited and costs one branch per poll. Work that must not consume
/// polls observes only the clock, through [`RunBudget::deadline`].
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    deadline: Deadline,
    cancel: Option<CancelToken>,
    fired: Arc<AtomicBool>,
}

impl RunBudget {
    /// A budget that never exhausts.
    #[must_use]
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// A budget bounded by `deadline` only.
    #[must_use]
    pub fn with_deadline(deadline: Deadline) -> RunBudget {
        RunBudget {
            deadline,
            ..RunBudget::default()
        }
    }

    /// Adds a cancellation token to this budget.
    #[must_use]
    pub fn and_cancel(mut self, token: CancelToken) -> RunBudget {
        self.cancel = Some(token);
        self
    }

    /// Whether any limit (deadline or token) is attached.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.deadline.is_set() || self.cancel.is_some()
    }

    /// One cooperative poll: checks the token and the deadline, latches
    /// on the first hit, and counts `cancel_polls` / `deadline_hits`
    /// telemetry. Unlimited budgets return `false` after a single branch.
    pub fn exhausted(&self) -> bool {
        if !self.is_limited() {
            return false;
        }
        pdf_telemetry::count(counters::CANCEL_POLLS, 1);
        if self.fired.load(Ordering::Relaxed) {
            return true;
        }
        let cancelled = self.cancel.as_ref().is_some_and(CancelToken::poll);
        let deadline_hit = self.deadline.expired();
        if deadline_hit {
            pdf_telemetry::count(counters::DEADLINE_HITS, 1);
        }
        if cancelled || deadline_hit {
            self.fired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Whether a previous poll latched exhaustion. Never consumes a poll
    /// and never advances a countdown — use it to distinguish "the budget
    /// fired" from "the work genuinely failed" after the fact.
    #[must_use]
    pub fn already_exhausted(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// The wall-clock half of this budget. Polling it consumes no poll,
    /// advances no countdown, latches nothing and counts nothing, so
    /// speculative work — the generator's builds and their justifiers —
    /// polls it while only the commit thread makes counted polls.
    #[must_use]
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }
}

// ---------------------------------------------------------------------------
// BudgetSpec
// ---------------------------------------------------------------------------

/// A strictly parsed time-budget specification.
///
/// Grammar: a comma-separated list of entries, each either a bare
/// duration or `global=duration` (the **global** budget for the whole
/// run), or `phase=duration` for `generate`, `compact` or `bench` (a
/// budget for that phase, anchored at its start; `pdfatpg atpg` and the
/// experiments read the first two, the bench binaries the third). A duration is a non-negative
/// integer with a mandatory unit: `us`, `ms`, `s`, or `m`
/// ([`pdf_knobs::parse_duration`]). A budget reaching past the clock's
/// range never expires. Examples: `250ms`, `global=2s,compact=500ms`,
/// `generate=1s,compact=250ms`.
///
/// Parsing follows the workspace's strict-knob convention: anything
/// malformed — missing unit, unknown unit, unknown or duplicate phase,
/// empty entry — is an error, never a silent default.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    global: Option<Duration>,
    phases: Vec<(String, Duration)>,
}

/// The phases a [`BudgetSpec`] entry may name besides `global`.
const BUDGET_PHASES: &[&str] = &["generate", "compact", "bench"];

impl BudgetSpec {
    /// Parses a specification (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// A message describing the first malformed entry.
    pub fn parse(text: &str) -> Result<BudgetSpec, String> {
        let mut spec = BudgetSpec::default();
        if text.trim().is_empty() {
            return Err("empty specification".to_owned());
        }
        for entry in text.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err("empty entry in list".to_owned());
            }
            let (phase, duration_text) = match entry.split_once('=') {
                Some((name, d)) => (Some(name.trim()), d.trim()),
                None => (None, entry),
            };
            let duration = pdf_knobs::parse_duration(duration_text)?;
            match phase {
                None | Some("global") => {
                    if spec.global.is_some() {
                        return Err("more than one global duration".to_owned());
                    }
                    spec.global = Some(duration);
                }
                Some(name) => {
                    if name.is_empty() {
                        return Err("empty phase name".to_owned());
                    }
                    if !BUDGET_PHASES.contains(&name) {
                        return Err(format!(
                            "unknown budget phase `{name}` (global, {})",
                            BUDGET_PHASES.join(", ")
                        ));
                    }
                    if spec.phases.iter().any(|(n, _)| n == name) {
                        return Err(format!("duplicate budget for phase `{name}`"));
                    }
                    spec.phases.push((name.to_owned(), duration));
                }
            }
        }
        Ok(spec)
    }

    /// The global (whole-run) budget, when one was given.
    #[must_use]
    pub fn global(&self) -> Option<Duration> {
        self.global
    }

    /// The budget for a named phase, when one was given.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }

    /// The deadline governing `phase`: the earlier of the global budget
    /// anchored at `run_start` and the phase budget anchored at
    /// `phase_start`.
    #[must_use]
    pub fn deadline_for(&self, phase: &str, run_start: Instant, phase_start: Instant) -> Deadline {
        let global = self
            .global
            .map_or(Deadline::none(), |d| Deadline::offset(run_start, d));
        let phase = self
            .phase(phase)
            .map_or(Deadline::none(), |d| Deadline::offset(phase_start, d));
        global.earlier(phase)
    }
}

/// Checks every `PDF_*` knob `program` reads, each against its kind
/// ([`pdf_knobs::validate`]) and each [`Kind::Spec`] knob through its
/// owner's parser. This is the one definition of a valid environment;
/// every program calls it before any work.
///
/// # Errors
///
/// The first malformed knob's [`KnobError`].
///
/// # Panics
///
/// Panics on a spec knob with no parser here, so the table cannot gain
/// one unchecked.
pub fn validate_env(program: Program) -> Result<(), KnobError> {
    pdf_knobs::validate(program)?;
    let specs = KNOBS.iter().filter(|k| k.kind == Kind::Spec);
    for knob in specs.filter(|k| k.read_by.contains(&program)) {
        match knob.env {
            "PDF_TIME_BUDGET" => knob.read(None, BudgetSpec::parse).map(drop),
            "PDF_FAILPOINTS" => knob.read(None, pdf_chaos::FailpointSpec::parse).map(drop),
            other => unreachable!("no parser for the spec knob {other}"),
        }?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

/// Writes `contents` to `path` atomically *and durably*: the bytes land
/// in a sibling temp file first, the temp file is `fsync`ed, the rename
/// moves it into place, and the parent directory is `fsync`ed so the
/// rename itself survives a crash. A crash at any point leaves either
/// the old file or the new file at `path`, never a half-written one.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, contents)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Flushes the directory entry of `path` so a completed rename is
/// durable. Platforms that refuse to open or sync directories (Windows)
/// are forgiven: the rename is still atomic, just not yet durable.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    match fs::File::open(parent) {
        Ok(dir) => match dir.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        },
        Err(_) => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// When and where to write checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint journal path (always the same file).
    pub path: PathBuf,
    /// Completed primary targets between writes (at least 1). A final
    /// checkpoint is always written when the run ends, regardless.
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every `every` completed primary
    /// targets (`every` is clamped up to 1).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, every: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            path: path.into(),
            every: every.max(1),
        }
    }
}

/// A checkpoint could not be written, read, or understood.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A journal line is torn, truncated, or bit-rotted: it breaks off
    /// before its newline or its checksum, it does not parse, or its
    /// stored CRC64 does not match the recomputed chain. A bad *last*
    /// record is a torn write, which [`Checkpoint::load_with_recovery`]
    /// drops; anywhere else the journal is unusable.
    Corrupt {
        /// Byte offset of the damaged line.
        offset: usize,
        /// The recomputed CRC64 chain (0 when the line has no checksum).
        expected: u64,
        /// The CRC64 found in the line (0 when the line has no checksum).
        found: u64,
    },
    /// The journal verifies but does not describe a valid run history.
    Schema(String),
    /// The checkpoint was written by an incompatible format version.
    Version {
        /// The version found in the file.
        found: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            CheckpointError::Corrupt {
                offset,
                expected,
                found,
            } => {
                if *expected == 0 && *found == 0 {
                    write!(
                        f,
                        "checkpoint is corrupt: the line at byte {offset} is torn or unreadable"
                    )
                } else {
                    write!(
                        f,
                        "checkpoint is corrupt: checksum mismatch in the line at byte {offset} \
                         (expected {expected:016x}, found {found:016x})"
                    )
                }
            }
            CheckpointError::Schema(m) => write!(f, "checkpoint schema: {m}"),
            CheckpointError::Version { found } => write!(
                f,
                "checkpoint format version {found} is not supported (expected {CHECKPOINT_VERSION})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A crash-safe snapshot of generation state at a *boundary* — taken
/// only after a primary target is fully processed (test pushed and
/// swept, genuinely aborted, or quarantined), never mid-construction.
///
/// Resuming from a checkpoint replays the remaining primaries exactly as
/// the uninterrupted run would have: detection flags are the boundary
/// flags, and the tests written so far are carried over verbatim. On disk
/// a checkpoint is the replay of a journal: a [`Journal`] appends one
/// record per write, holding only what changed since the record before.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonic save counter of the producing run: each write appends
    /// the record of generation `g+1`, so recovery can drop exactly one
    /// generation, a torn last record.
    pub generation: u64,
    /// Circuit name the run targeted.
    pub circuit: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Configuration fingerprint (`pdf_atpg::config_fingerprint`);
    /// resume refuses a mismatch.
    pub fingerprint: String,
    /// Per-set fault counts of the target split (`P0`, `P1`, ...).
    pub set_sizes: Vec<usize>,
    /// Completed primary targets (tests pushed) so far.
    pub completed: usize,
    /// Indices of the faults detected at the boundary, ascending.
    pub detected: Vec<usize>,
    /// Indices of the faults aborted at the boundary, ascending.
    pub aborted: Vec<usize>,
    /// Indices of the faults quarantined at the boundary, ascending.
    pub quarantined: Vec<usize>,
    /// Tests generated so far, one `v1 v2` text line each (the
    /// `TestSet::to_text` line format).
    pub tests: Vec<String>,
    /// Generation statistics counters carried across the resume.
    pub counters: Vec<(String, u64)>,
    /// Whether the run finished naturally (nothing left to resume).
    pub complete: bool,
}

/// The journal keys of the three flag sets, in [`Checkpoint::flags`]
/// order.
const FLAG_NAMES: [&str; 3] = ["detected", "aborted", "quarantined"];

impl Checkpoint {
    /// The value of a named statistics counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The detected, aborted and quarantined index lists.
    fn flags(&self) -> [&Vec<usize>; 3] {
        [&self.detected, &self.aborted, &self.quarantined]
    }

    fn flags_mut(&mut self) -> [&mut Vec<usize>; 3] {
        [&mut self.detected, &mut self.aborted, &mut self.quarantined]
    }

    /// The one-record journal of this checkpoint: the bytes
    /// [`Checkpoint::save`] writes.
    #[must_use]
    pub fn to_journal(&self) -> String {
        self.fresh_journal().0
    }

    /// The one-record journal of this checkpoint, the length of its
    /// header line, and the CRC64 chain through its record.
    fn fresh_journal(&self) -> (String, usize, u64) {
        let (mut text, chain) = stamp(&self.header(), 0);
        let header_len = text.len();
        let record = self
            .record(0, &Default::default())
            .expect("every state extends the empty one");
        let (line, chain) = stamp(&record, chain);
        text.push_str(&line);
        (text, header_len, chain)
    }

    /// The journal's header: the run identity every record belongs to.
    fn header(&self) -> Json {
        Json::object()
            .field("format", FORMAT)
            .field("version", CHECKPOINT_VERSION)
            .field("circuit", self.circuit.as_str())
            .field("seed", hex(self.seed).as_str())
            .field("fingerprint", self.fingerprint.as_str())
            .field(
                "set_sizes",
                self.set_sizes
                    .iter()
                    .map(|&n| Json::from(n))
                    .collect::<Vec<_>>(),
            )
    }

    /// The record taking a journal from a state with `tests` tests and
    /// the flag sets `before` to this checkpoint: the newly set indices,
    /// the new test lines, and the counters and `complete` flag whole.
    /// `None` when this checkpoint does not extend that state (fewer
    /// tests, or a flag that was set is not).
    fn record(&self, tests: usize, before: &[Vec<usize>; 3]) -> Option<Json> {
        let new_tests = self.tests.get(tests..)?;
        let mut record = Json::object()
            .field("generation", self.generation)
            .field("completed", self.completed);
        for ((name, now), before) in FLAG_NAMES.iter().zip(self.flags()).zip(before) {
            let set = newly_set(before, now)?;
            record = record.field(name, set.into_iter().map(Json::from).collect::<Vec<_>>());
        }
        let counters = self
            .counters
            .iter()
            .fold(Json::object(), |obj, (name, value)| obj.field(name, *value));
        Some(
            record
                .field(
                    "tests",
                    new_tests
                        .iter()
                        .map(|t| Json::from(t.as_str()))
                        .collect::<Vec<_>>(),
                )
                .field("counters", counters)
                .field("complete", self.complete),
        )
    }

    /// Replays a journal strictly: every line must verify, the last one
    /// included.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for a torn, truncated or bit-rotted
    /// line (a torn last record included), [`CheckpointError::Version`]
    /// for another format version (the single-document checkpoints of
    /// version 3 and earlier among them), and [`CheckpointError::Schema`]
    /// for a journal that verifies but is not a valid run history.
    pub fn from_journal(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let Replay { checkpoint, torn } = replay(bytes)?;
        match torn {
            Some(error) => Err(error),
            None => Ok(checkpoint),
        }
    }

    /// Writes this checkpoint to `path` as a fresh one-record journal,
    /// atomically and durably ([`Journal::write`] on a new journal).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the filesystem refuses.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        Journal::new(path).write(self)
    }

    /// Reads and strictly replays a checkpoint journal
    /// ([`Checkpoint::from_journal`]) under a `runctl` telemetry span,
    /// retrying transient read errors under the default
    /// [`pdf_chaos::RetryPolicy`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read, otherwise
    /// the [`Checkpoint::from_journal`] errors.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let _span = pdf_telemetry::Span::enter("runctl");
        Checkpoint::from_journal(&read_journal(path)?)
    }

    /// Loads `path`, dropping a torn last record: a write that tore (or a
    /// crash in the middle of an append) leaves the record before it as
    /// the newest good state. Returns the checkpoint and whether the last
    /// record was dropped (counted as `checkpoint_recoveries`).
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`], except that a bad last record is an error
    /// only when no record before it verifies.
    pub fn load_with_recovery(path: &Path) -> Result<(Checkpoint, bool), CheckpointError> {
        let _span = pdf_telemetry::Span::enter("runctl");
        let Replay { checkpoint, torn } = replay(&read_journal(path)?)?;
        let Some(torn) = torn else {
            return Ok((checkpoint, false));
        };
        pdf_telemetry::count(counters::CHECKPOINT_RECOVERIES, 1);
        eprintln!(
            "warning: checkpoint {} ends in a torn record ({torn}); \
             recovered generation {} from the record before it",
            path.display(),
            checkpoint.generation
        );
        Ok((checkpoint, true))
    }
}

/// The `format` tag of a journal header.
const FORMAT: &str = "path-delay-atpg checkpoint journal";

/// The indices of `now` that `before` lacks, or `None` when `before`
/// holds one that `now` does not. Both are ascending.
fn newly_set(before: &[usize], now: &[usize]) -> Option<Vec<usize>> {
    let mut before = before.iter().peekable();
    let mut set = Vec::new();
    for &index in now {
        match before.peek() {
            Some(&&old) if old == index => {
                before.next();
            }
            Some(&&old) if old < index => return None,
            _ => set.push(index),
        }
    }
    before.next().is_none().then_some(set)
}

/// The writing side of a checkpoint journal: one file, a header line,
/// then one record per write.
///
/// A journal's first write creates the file with [`write_atomic`], as a
/// header and one record holding the whole state. Every later write
/// appends one record — the newly set flag indices, the new test lines,
/// the counters — and `fdatasync`s it. Each line ends in a CRC64 that
/// chains over every line before it, so records cannot be reordered or
/// spliced between journals. Before it appends, a write checks that the
/// file still ends where its last record did; a torn write that reported
/// success, or any other change, makes it create a fresh journal instead.
/// So does a checkpoint that does not extend the last one (another run,
/// a flag unset, fewer tests).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// What the file holds through its last record, once a write
    /// succeeded.
    tail: Option<Tail>,
}

/// The last record a [`Journal`] wrote, and where it ends.
#[derive(Debug)]
struct Tail {
    /// Byte length of the file through the last record.
    end: u64,
    /// The CRC64 chain through the last record.
    chain: u64,
    /// The header line the records belong to.
    header: String,
    generation: u64,
    complete: bool,
    /// The test count and flag sets the next record extends.
    tests: usize,
    flags: [Vec<usize>; 3],
}

impl Journal {
    /// A journal at `path` that has written nothing yet: its first write
    /// replaces whatever the file holds.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        Journal {
            path: path.into(),
            tail: None,
        }
    }

    /// Writes `checkpoint` under a `runctl` telemetry span, counting
    /// `checkpoints_written`: as one appended record when it extends the
    /// last record this journal wrote and the file still ends there,
    /// otherwise as a fresh journal. Transient write errors are retried
    /// under the default [`pdf_chaos::RetryPolicy`]; a failed write leaves
    /// the journal where it was.
    ///
    /// The call reads nothing but `self` and `checkpoint`, so the
    /// generator runs it on a writer thread while the next round
    /// proceeds, and `checkpoint.write` failpoints fire on that thread
    /// (see `DESIGN.md` §11).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the filesystem refuses.
    pub fn write(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let _span = pdf_telemetry::Span::enter("runctl");
        let appended = match &mut self.tail {
            Some(tail) => tail.append(&self.path, checkpoint)?,
            None => false,
        };
        if !appended {
            self.create(checkpoint)?;
        }
        pdf_telemetry::count(counters::CHECKPOINTS_WRITTEN, 1);
        Ok(())
    }

    /// Replaces the file with the one-record journal of `checkpoint`.
    fn create(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        self.tail = None;
        let (text, header_len, chain) = checkpoint.fresh_journal();
        // A torn write reports success: the next write's length check
        // or the loader's CRC catches it.
        pdf_telemetry::guarded_io(pdf_chaos::sites::CHECKPOINT_WRITE, |keep| {
            write_atomic(&self.path, &text.as_bytes()[..keep(text.len())])
        })
        .map_err(|source| io_error(&self.path, source))?;
        let header = text[..header_len].to_owned();
        self.tail = Some(Tail::after(text.len() as u64, chain, header, checkpoint));
        Ok(())
    }
}

impl Tail {
    /// The tail of a journal whose last record, `checkpoint`'s, ends at
    /// byte `end` with the chain `chain`.
    fn after(end: u64, chain: u64, header: String, checkpoint: &Checkpoint) -> Tail {
        Tail {
            end,
            chain,
            header,
            generation: checkpoint.generation,
            complete: checkpoint.complete,
            tests: checkpoint.tests.len(),
            flags: checkpoint.flags().map(Vec::clone),
        }
    }

    /// Appends the record taking this tail to `checkpoint` to the journal
    /// at `path`, `fdatasync`ed. `Ok(false)` when it cannot: `checkpoint`
    /// does not extend the tail (another header, not the next
    /// generation, a flag unset, fewer tests, or a final record already
    /// written), or the file no longer ends where the tail does.
    fn append(&mut self, path: &Path, checkpoint: &Checkpoint) -> Result<bool, CheckpointError> {
        let extends = !self.complete
            && self.generation.checked_add(1) == Some(checkpoint.generation)
            && stamp(&checkpoint.header(), 0).0 == self.header;
        let Some(record) = extends
            .then(|| checkpoint.record(self.tests, &self.flags))
            .flatten()
        else {
            return Ok(false);
        };
        let end = self.end;
        let file = fs::OpenOptions::new().write(true).open(path).ok();
        let Some(file) = file.filter(|f| f.metadata().is_ok_and(|m| m.len() == end)) else {
            return Ok(false);
        };
        let (line, chain) = stamp(&record, self.chain);
        pdf_telemetry::guarded_io(pdf_chaos::sites::CHECKPOINT_WRITE, |keep| {
            // Positioned at the tail on every attempt, so a retry after a
            // partial write overwrites it.
            let mut out = &file;
            out.seek(SeekFrom::Start(end))?;
            out.write_all(&line.as_bytes()[..keep(line.len())])?;
            file.sync_data()
        })
        .map_err(|source| io_error(path, source))?;
        let header = std::mem::take(&mut self.header);
        *self = Tail::after(end + line.len() as u64, chain, header, checkpoint);
        Ok(true)
    }
}

fn io_error(path: &Path, source: io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_owned(),
        source,
    }
}

/// The key of the checksum field that ends every journal line.
const CRC_FIELD: &str = ",\"crc64\":\"";
/// The bytes after a line's checksummed body: the checksum field, its 16
/// hex digits, and the closing quote and brace.
const CRC_SUFFIX_LEN: usize = CRC_FIELD.len() + 16 + 2;

/// Renders `body` (an object with at least one field) as one journal
/// line. The CRC64 chain `chain` is extended over the compact rendering
/// up to its closing brace, and the result is appended as the last
/// field, `crc64`. Returns the line, newline included, and the new
/// chain.
fn stamp(body: &Json, chain: u64) -> (String, u64) {
    let mut line = body.to_line();
    line.pop(); // the closing brace: the checksum field goes before it
    let chain = crc64_extend(chain, line.as_bytes());
    line.push_str(CRC_FIELD);
    line.push_str(&hex(chain));
    line.push_str("\"}\n");
    (line, chain)
}

/// Checks the checksum of one journal `line` (newline stripped) at byte
/// `offset` against `chain`; returns the extended chain.
fn check_crc(line: &[u8], chain: u64, offset: usize) -> Result<u64, CheckpointError> {
    let torn = CheckpointError::Corrupt {
        offset,
        expected: 0,
        found: 0,
    };
    let Some(body_len) = line.len().checked_sub(CRC_SUFFIX_LEN) else {
        return Err(torn);
    };
    let (body, suffix) = line.split_at(body_len);
    let found = suffix
        .strip_prefix(CRC_FIELD.as_bytes())
        .and_then(|s| s.strip_suffix(b"\"}"))
        .filter(|digits| digits.iter().all(u8::is_ascii_hexdigit))
        .and_then(|digits| std::str::from_utf8(digits).ok())
        .and_then(|digits| u64::from_str_radix(digits, 16).ok());
    let Some(found) = found else {
        return Err(torn);
    };
    let expected = crc64_extend(chain, body);
    if expected != found {
        return Err(CheckpointError::Corrupt {
            offset,
            expected,
            found,
        });
    }
    Ok(expected)
}

/// Parses one journal `line` (newline stripped) at byte `offset` as a
/// JSON object.
fn parse_line(line: &[u8], offset: usize) -> Result<Json, CheckpointError> {
    let json = std::str::from_utf8(line)
        .ok()
        .and_then(|text| Json::parse(text).ok());
    match json {
        Some(json @ Json::Obj(_)) => Ok(json),
        _ => Err(CheckpointError::Corrupt {
            offset,
            expected: 0,
            found: 0,
        }),
    }
}

/// What a journal replays to.
struct Replay {
    /// The state through the last record that verifies.
    checkpoint: Checkpoint,
    /// Why the last record was dropped, when it did not verify.
    torn: Option<CheckpointError>,
}

/// Replays a journal: the header, then every record in order. A last
/// line that does not verify is the torn tail and is dropped; a bad line
/// before it is corruption. Every record must continue the one before
/// it, and nothing is allocated but what the bytes hold.
fn replay(bytes: &[u8]) -> Result<Replay, CheckpointError> {
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let header_line = lines.next().unwrap_or_default();
    let Some(header) = header_line.strip_suffix(b"\n") else {
        return Err(not_a_journal(bytes));
    };
    let (mut state, faults, mut chain) = read_header(header, bytes)?;
    let mut offset = header_line.len();
    let mut records = 0usize;
    let mut torn = None;
    for piece in lines {
        let verified = piece
            .strip_suffix(b"\n")
            .ok_or(CheckpointError::Corrupt {
                offset,
                expected: 0,
                found: 0,
            })
            .and_then(|line| Ok((check_crc(line, chain, offset)?, parse_line(line, offset)?)));
        match verified {
            Ok((next, record)) => {
                chain = next;
                apply_record(&mut state, &record, records == 0, faults, offset)?;
                records += 1;
            }
            Err(error) if offset + piece.len() == bytes.len() => {
                torn = Some(error);
                break;
            }
            Err(error) => return Err(error),
        }
        offset += piece.len();
    }
    if records == 0 {
        return Err(torn.unwrap_or(CheckpointError::Corrupt {
            offset,
            expected: 0,
            found: 0,
        }));
    }
    for (name, flags) in FLAG_NAMES.iter().zip(state.flags_mut()) {
        flags.sort_unstable();
        if let Some(pair) = flags.windows(2).find(|pair| pair[0] == pair[1]) {
            // Flags only go from unset to set, so a record never names a
            // set one: read as a toggle, it would unset it.
            return Err(CheckpointError::Schema(format!(
                "fault {} is set twice in `{name}`",
                pair[0]
            )));
        }
    }
    Ok(Replay {
        checkpoint: state,
        torn,
    })
}

/// The error for a file whose first line is not a journal header. A file
/// that is one JSON document with a `version` is a single-document
/// checkpoint (version 3 and earlier), refused by its version; anything
/// else is corrupt.
fn not_a_journal(bytes: &[u8]) -> CheckpointError {
    let version = std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|json| json.get("version").and_then(Json::as_count::<u32>));
    match version {
        Some(found) if found != CHECKPOINT_VERSION => CheckpointError::Version { found },
        _ => CheckpointError::Corrupt {
            offset: 0,
            expected: 0,
            found: 0,
        },
    }
}

/// Reads the header `line` of the journal `bytes`: the run identity (as
/// an otherwise empty checkpoint), the fault count the flag indices must
/// stay below, and the CRC64 chain the first record extends. The version
/// is read before the checksum is checked, so another format is refused
/// by its version.
fn read_header(line: &[u8], bytes: &[u8]) -> Result<(Checkpoint, usize, u64), CheckpointError> {
    let Ok(json) = parse_line(line, 0) else {
        return Err(not_a_journal(bytes));
    };
    let version = count(json.get("version"), "`version`")?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version { found: version });
    }
    let chain = check_crc(line, 0, 0)?;
    if json.get("format").and_then(Json::as_str) != Some(FORMAT) {
        return Err(CheckpointError::Schema(format!(
            "the header is not a `{FORMAT}`"
        )));
    }
    let set_sizes = get_arr(&json, "set_sizes")?
        .iter()
        .map(|v| count(Some(v), "a `set_sizes` entry"))
        .collect::<Result<Vec<usize>, _>>()?;
    let faults = set_sizes
        .iter()
        .try_fold(0usize, |sum, &n| sum.checked_add(n))
        .ok_or_else(|| CheckpointError::Schema("`set_sizes` overflows".into()))?;
    let identity = Checkpoint {
        circuit: get_str(&json, "circuit")?.to_owned(),
        seed: parse_hex(get_str(&json, "seed")?, "seed")?,
        fingerprint: get_str(&json, "fingerprint")?.to_owned(),
        set_sizes,
        ..Checkpoint::default()
    };
    Ok((identity, faults, chain))
}

/// Applies one verified record at byte `offset` to `state`: its flag
/// indices (each below `faults`, ascending) and test lines are added, and
/// its generation (the next one, unless it is the `first` record),
/// `completed` count (the tests so far), counters and `complete` flag
/// replace the state's.
fn apply_record(
    state: &mut Checkpoint,
    record: &Json,
    first: bool,
    faults: usize,
    offset: usize,
) -> Result<(), CheckpointError> {
    let schema =
        |message: String| CheckpointError::Schema(format!("record at byte {offset}: {message}"));
    let generation: u64 = count(record.get("generation"), "`generation`")?;
    if !first && state.complete {
        return Err(schema("it follows the final record".into()));
    }
    if !first && Some(generation) != state.generation.checked_add(1) {
        return Err(schema(format!(
            "generation {generation} follows generation {}",
            state.generation
        )));
    }
    for (name, flags) in FLAG_NAMES.iter().zip(state.flags_mut()) {
        let mut last = None;
        for value in get_arr(record, name)? {
            let index: usize = count(Some(value), &format!("a `{name}` index"))?;
            if index >= faults {
                return Err(schema(format!(
                    "`{name}` index {index} is out of range ({faults} faults)"
                )));
            }
            if last.is_some_and(|last| last >= index) {
                return Err(schema(format!("`{name}` indices are not ascending")));
            }
            last = Some(index);
            flags.push(index);
        }
    }
    for test in get_arr(record, "tests")? {
        let line = test
            .as_str()
            .ok_or_else(|| schema("`tests` must hold strings".into()))?;
        state.tests.push(line.to_owned());
    }
    let completed: usize = count(record.get("completed"), "`completed`")?;
    if completed != state.tests.len() {
        return Err(schema(format!(
            "`completed` is {completed} but the journal holds {} tests",
            state.tests.len()
        )));
    }
    state.counters = match record.get("counters") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, value)| Ok((name.clone(), count(Some(value), name)?)))
            .collect::<Result<Vec<_>, CheckpointError>>()?,
        _ => return Err(schema("missing `counters` object".into())),
    };
    state.complete = match record.get("complete") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(schema("missing `complete` flag".into())),
    };
    state.generation = generation;
    state.completed = completed;
    Ok(())
}

/// Reads a journal's bytes through the `checkpoint.read` failpoint site.
fn read_journal(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    pdf_telemetry::guarded_io(pdf_chaos::sites::CHECKPOINT_READ, |keep| {
        let mut bytes = fs::read(path)?;
        bytes.truncate(keep(bytes.len()));
        Ok(bytes)
    })
    .map_err(|source| io_error(path, source))
}

/// The reflected ECMA-182 polynomial.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 tables: `CRC64_TABLES[0][b]` is one byte's CRC64 step,
/// and `CRC64_TABLES[k][b]` is that step followed by `k` zero bytes, so
/// eight lookups advance the CRC by eight bytes.
const CRC64_TABLES: [[u64; 256]; 8] = {
    let mut tables = [[0u64; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-64 (ECMA-182 polynomial, reflected; CRC-64/XZ), table-driven,
/// eight bytes per step.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_extend(0, bytes)
}

/// Extends `crc`, the [`crc64`] of some bytes, to the CRC64 of those bytes
/// followed by `bytes`. A journal line's checksum extends the one before
/// it, so it covers every line up to and including its own.
#[must_use]
pub fn crc64_extend(crc: u64, bytes: &[u8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC64_TABLES;
    let mut words = bytes.chunks_exact(8);
    let crc = (&mut words).fold(!crc, |crc, word| {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let [b0, b1, b2, b3, b4, b5, b6, b7] = x.to_le_bytes().map(usize::from);
        t7[b0] ^ t6[b1] ^ t5[b2] ^ t4[b3] ^ t3[b4] ^ t2[b5] ^ t1[b6] ^ t0[b7]
    });
    let crc = words.remainder().iter().fold(crc, |crc, &byte| {
        t0[usize::from(crc as u8 ^ byte)] ^ (crc >> 8)
    });
    !crc
}

/// `u64` values (the seed) travel as hex strings: the JSON number
/// type is an `f64`, which cannot hold all 64-bit states exactly.
fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex(text: &str, field: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(text, 16)
        .map_err(|_| CheckpointError::Schema(format!("`{field}` is not a hex u64: `{text}`")))
}

/// A count field ([`Json::as_count`]); anything else is a schema error.
fn count<T: TryFrom<u64>>(value: Option<&Json>, what: &str) -> Result<T, CheckpointError> {
    value
        .and_then(Json::as_count)
        .ok_or_else(|| CheckpointError::Schema(format!("{what} is not an integer in 0..=2^53")))
}

fn get_str<'j>(json: &'j Json, key: &str) -> Result<&'j str, CheckpointError> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::Schema(format!("missing string field `{key}`")))
}

fn get_arr<'j>(json: &'j Json, key: &str) -> Result<&'j [Json], CheckpointError> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CheckpointError::Schema(format!("missing array field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, Just, Strategy};

    #[test]
    fn unset_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_set());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn elapsed_deadline_expires() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert_eq!(far.earlier(d), d);
        assert_eq!(Deadline::none().earlier(d), d);
        assert_eq!(d.earlier(Deadline::none()), d);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.poll());
        b.cancel();
        assert!(a.poll());
        assert!(a.is_cancelled());
    }

    #[test]
    fn poll_countdown_fires_on_the_nth_poll() {
        let t = CancelToken::cancel_after_polls(3);
        assert!(!t.poll());
        assert!(!t.poll());
        assert!(!t.is_cancelled(), "is_cancelled must not consume polls");
        assert!(t.poll());
        assert!(t.poll(), "stays cancelled");
    }

    #[test]
    #[should_panic(expected = "poll countdown must be at least 1")]
    fn zero_countdown_is_rejected() {
        let _ = CancelToken::cancel_after_polls(0);
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = RunBudget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..100 {
            assert!(!b.exhausted());
        }
        assert!(!b.already_exhausted());
    }

    #[test]
    fn budget_latch_is_shared_across_clones() {
        let b = RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(2));
        let handed_out = b.clone();
        assert!(!b.exhausted());
        assert!(!handed_out.already_exhausted());
        assert!(b.exhausted());
        assert!(handed_out.already_exhausted(), "clones share the latch");
        assert!(handed_out.exhausted());
    }

    #[test]
    fn expired_deadline_latches() {
        let b = RunBudget::with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
        assert!(b.is_limited());
        assert!(b.deadline().expired());
        assert!(
            !b.already_exhausted(),
            "reading the deadline latches nothing"
        );
        assert!(b.exhausted());
        assert!(b.already_exhausted());
    }

    #[test]
    fn budget_spec_parses_globals_and_phases() {
        let spec = BudgetSpec::parse("2s,compact=500ms,generate=3m").unwrap();
        assert_eq!(spec.global(), Some(Duration::from_secs(2)));
        assert_eq!(spec.phase("compact"), Some(Duration::from_millis(500)));
        assert_eq!(spec.phase("generate"), Some(Duration::from_secs(180)));
        assert_eq!(spec.phase("nope"), None);
        assert_eq!(
            BudgetSpec::parse("250us").unwrap().global(),
            Some(Duration::from_micros(250))
        );
        // `global=` spells the bare duration; `bench` is a phase too.
        assert_eq!(
            BudgetSpec::parse("global=2s,compact=500ms,generate=3m").unwrap(),
            spec
        );
        assert_eq!(
            BudgetSpec::parse("bench=1s").unwrap().phase("bench"),
            Some(Duration::from_secs(1))
        );
    }

    #[test]
    fn budget_spec_rejects_garbage() {
        for bad in [
            "",
            "1",
            "ms",
            "1h",
            "1.5s",
            "=1s",
            "a=b",
            "1s,,2s",
            "1s,2s",
            "a=1s,a=2s",
            "compact=1s,compact=2s",
        ] {
            assert!(BudgetSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
        for (bad, message) in [
            ("global=1s,2s", "more than one global duration"),
            ("1s,global=2s", "more than one global duration"),
            ("global=1s,global=2s", "more than one global duration"),
            (
                "genrate=1us",
                "unknown budget phase `genrate` (global, generate, compact, bench)",
            ),
        ] {
            assert_eq!(BudgetSpec::parse(bad).unwrap_err(), message, "`{bad}`");
        }
    }

    #[test]
    fn deadline_for_takes_the_earlier_bound() {
        let spec = BudgetSpec::parse("10s,compact=1ms").unwrap();
        let now = Instant::now();
        let d = spec.deadline_for("compact", now, now);
        assert_eq!(d, Deadline::at(now + Duration::from_millis(1)));
        let d = spec.deadline_for("generate", now, now);
        assert_eq!(d, Deadline::at(now + Duration::from_secs(10)));
        assert!(!BudgetSpec::parse("compact=1ms")
            .unwrap()
            .deadline_for("generate", now, now)
            .is_set());
    }

    #[test]
    fn a_budget_past_the_clock_never_expires() {
        let huge = format!("{}s,compact={}s", u64::MAX, u64::MAX);
        let spec = BudgetSpec::parse(&huge).unwrap();
        let now = Instant::now();
        assert_eq!(spec.deadline_for("compact", now, now), Deadline::none());
        assert_eq!(spec.deadline_for("generate", now, now), Deadline::none());
        // A finite phase budget still binds under an unbounded global one.
        let spec = BudgetSpec::parse(&format!("{}s,compact=1ms", u64::MAX)).unwrap();
        assert_eq!(
            spec.deadline_for("compact", now, now),
            Deadline::at(now + Duration::from_millis(1))
        );
        assert_eq!(Deadline::after(Duration::MAX), Deadline::none());
        assert!(!Deadline::after(Duration::MAX).expired());
    }

    #[test]
    fn budget_spec_durations_use_the_shared_grammar() {
        assert_eq!(
            BudgetSpec::parse("1m,compact=7us").unwrap(),
            BudgetSpec::parse("60s,compact=7us").unwrap()
        );
        for (bad, message) in [
            ("5", "duration `5` is missing a unit (us, ms, s, m)"),
            ("5h", "unknown duration unit `h` (us, ms, s, m)"),
            ("compact=s", "duration `s` must start with digits"),
            (
                "99999999999999999999s",
                "duration value `99999999999999999999` out of range",
            ),
        ] {
            assert_eq!(BudgetSpec::parse(bad).unwrap_err(), message, "`{bad}`");
        }
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            generation: 4,
            circuit: "s27".to_owned(),
            seed: u64::MAX - 12,
            fingerprint: "arbit:regen:1:packed".to_owned(),
            set_sizes: vec![5, 3],
            completed: 2,
            detected: vec![0, 2, 5],
            aborted: Vec::new(),
            quarantined: vec![4],
            tests: vec!["0101 1100".to_owned(), "1111 0000".to_owned()],
            counters: vec![("aborted_primaries".to_owned(), 1)],
            complete: false,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pdf_runctl_{tag}_{}.json", std::process::id()))
    }

    /// Recomputes every line's checksum in order, so an edited journal
    /// fails only on what the edit did to its content.
    fn restamp(text: &str) -> String {
        let mut chain = 0;
        let mut out = String::new();
        for line in text.split_inclusive('\n') {
            let body = &line[..line.len() - 1 - CRC_SUFFIX_LEN];
            chain = crc64_extend(chain, body.as_bytes());
            out.push_str(&format!("{body}{CRC_FIELD}{}\"}}\n", hex(chain)));
        }
        out
    }

    fn from_text(text: &str) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_journal(text.as_bytes())
    }

    #[test]
    fn checkpoint_round_trips_through_a_one_record_journal() {
        let cp = sample();
        let text = cp.to_journal();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.ends_with("\"}\n"), "{text}");
        assert_eq!(restamp(&text), text);
        let back = from_text(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.counter("aborted_primaries"), 1);
        assert_eq!(back.counter("missing"), 0);
    }

    #[test]
    fn checkpoint_rejects_bad_inputs() {
        assert!(matches!(
            from_text("not json\n"),
            Err(CheckpointError::Corrupt {
                expected: 0,
                found: 0,
                ..
            })
        ));
        assert!(matches!(
            from_text("{\"version\": 99}"),
            Err(CheckpointError::Version { found: 99 })
        ));
        // A single-document checkpoint of an older version.
        assert!(matches!(
            from_text("{\n  \"version\": 3,\n  \"crc64\": \"0\"\n}\n"),
            Err(CheckpointError::Version { found: 3 })
        ));
        // A schema error each, with every checksum re-stamped: an index
        // out of range, unordered or repeated, a generation gap, and
        // count fields that are not exact non-negative integers up to
        // 2^53.
        let text = sample().to_journal();
        for (from, to) in [
            ("\"detected\":[0,2,5]", "\"detected\":[0,2,8]"),
            ("\"detected\":[0,2,5]", "\"detected\":[0,5,2]"),
            ("\"detected\":[0,2,5]", "\"detected\":[0,2,2]"),
            ("\"completed\":2", "\"completed\":3"),
            ("\"completed\":2", "\"completed\":2.5"),
            ("\"completed\":2", "\"completed\":-1"),
            ("\"generation\":4", "\"generation\":1e300"),
            ("\"aborted_primaries\":1", "\"aborted_primaries\":-0.5"),
            ("\"set_sizes\":[5,3]", "\"set_sizes\":[5.25,3]"),
            ("\"format\":\"", "\"format\":\"x"),
        ] {
            let edited = restamp(&text.replace(from, to));
            assert_ne!(edited, text, "{to}");
            assert!(is_schema(&edited), "{to}: {:?}", from_text(&edited));
        }
    }

    fn is_schema(text: &str) -> bool {
        matches!(from_text(text), Err(CheckpointError::Schema(_)))
    }

    #[test]
    fn a_fractional_version_is_a_schema_error() {
        // The version is read before the checksum, so no re-stamp.
        let text = sample().to_journal();
        let edited = text.replace("\"version\":4,", "\"version\":3.9,");
        assert_ne!(edited, text);
        assert!(is_schema(&edited), "{:?}", from_text(&edited));
    }

    #[test]
    fn a_generation_past_2_pow_53_is_a_schema_error() {
        // A resume from it would overflow the next generation number.
        let huge = Checkpoint {
            generation: u64::MAX,
            ..sample()
        };
        let text = huge.to_journal();
        assert!(is_schema(&text), "{:?}", from_text(&text));
        let edge = Checkpoint {
            generation: 1 << 53,
            ..sample()
        };
        assert_eq!(from_text(&edge.to_journal()).unwrap(), edge);
    }

    #[test]
    fn checksum_mismatch_is_a_typed_corruption() {
        // Edit one payload byte without breaking the JSON text: the parse
        // would succeed, the CRC verdict must not.
        let text = sample().to_journal();
        let edited = text.replace("\"completed\":2", "\"completed\":3");
        match from_text(&edited) {
            Err(CheckpointError::Corrupt {
                offset,
                expected,
                found,
            }) => {
                assert_ne!(expected, found);
                assert_ne!(expected, 0);
                assert_eq!(offset, text.find('\n').unwrap() + 1, "the record's line");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// `sample()` advanced by one boundary: one more test, one more
    /// detection.
    fn next(cp: &Checkpoint) -> Checkpoint {
        let mut next = cp.clone();
        next.generation += 1;
        next.tests
            .push(format!("{:04b} 0000", next.tests.len() % 16));
        next.completed = next.tests.len();
        let free = (0..8).find(|i| !next.detected.contains(i)).unwrap();
        next.detected.push(free);
        next.detected.sort_unstable();
        next
    }

    #[test]
    fn a_journal_appends_one_record_per_write_and_replays_each() {
        let path = scratch("append");
        let mut journal = Journal::new(&path);
        let mut cp = sample();
        let mut before = Vec::new();
        for _ in 0..3 {
            journal.write(&cp).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert!(bytes.starts_with(&before), "a write only appends");
            assert_eq!(Checkpoint::load(&path).unwrap(), cp);
            before = bytes;
            cp = next(&cp);
        }
        let text = String::from_utf8(before).unwrap();
        assert_eq!(text.lines().count(), 4, "a header and three records");
        assert_eq!(restamp(&text), text, "each checksum extends the chain");
        // Appended records carry only the new test.
        assert_eq!(text.lines().last().unwrap().matches(" 0000").count(), 1);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "temp file must be renamed away");
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn a_file_that_no_longer_ends_at_the_last_record_is_rewritten() {
        let path = scratch("heal");
        let mut journal = Journal::new(&path);
        let first = sample();
        let second = next(&first);
        journal.write(&first).unwrap();
        journal.write(&second).unwrap();
        // Tear the last record, as a torn write that reported success.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (recovered, dropped) = Checkpoint::load_with_recovery(&path).unwrap();
        assert_eq!((recovered, dropped), (first.clone(), true));
        let third = next(&second);
        journal.write(&third).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), third.to_journal());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_checkpoint_that_does_not_extend_the_last_record_starts_a_fresh_journal() {
        let path = scratch("fresh");
        let first = sample();
        let unset = Checkpoint {
            generation: first.generation + 1,
            detected: vec![0, 5],
            ..first.clone()
        };
        let fewer_tests = Checkpoint {
            generation: first.generation + 1,
            tests: Vec::new(),
            completed: 0,
            ..first.clone()
        };
        let skipped = Checkpoint {
            generation: first.generation + 2,
            ..first.clone()
        };
        let other_run = Checkpoint {
            generation: first.generation + 1,
            seed: 7,
            ..first.clone()
        };
        for later in [unset, fewer_tests, skipped, other_run] {
            let mut journal = Journal::new(&path);
            journal.write(&first).unwrap();
            journal.write(&later).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), later.to_journal());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The bitwise CRC64 the table kernel replaced, kept as its oracle.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &byte in bytes {
            crc ^= u64::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC64_POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Text over an alphabet that includes JSON escapes, line breaks,
    /// non-ASCII and the checksum key itself; empty one time in
    /// `max_len + 1`.
    fn text(max_len: usize) -> impl Strategy<Value = String> {
        const PIECES: [&str; 9] = ["s", "0", "1", "x", " ", "\"", "\\\n", "é", ",\"crc64\":\""];
        proptest::collection::vec(0..PIECES.len(), 0..max_len + 1)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
    }

    /// The indices of a random subset of `0..n`.
    fn indices(n: usize) -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(any::<bool>(), n)
            .prop_map(|flags| (0..flags.len()).filter(|&i| flags[i]).collect())
    }

    /// Random checkpoints: any field may be empty, including `tests` and
    /// the circuit name.
    fn checkpoint() -> impl Strategy<Value = Checkpoint> {
        let head = (0..1u64 << 53, text(6), any::<u64>(), text(12));
        let tests = proptest::collection::vec(text(9), 0..6);
        let counters = proptest::collection::vec((text(4), 0..1u64 << 53), 0..4);
        let body = (0usize..40).prop_flat_map(|n| (Just(n), indices(n), indices(n), indices(n)));
        let tail = (tests, counters, any::<bool>());
        (head, body, tail).prop_map(
            |(
                (generation, circuit, seed, fingerprint),
                (n, detected, aborted, quarantined),
                (tests, counters, complete),
            )| Checkpoint {
                generation,
                circuit,
                seed,
                fingerprint,
                set_sizes: vec![n],
                completed: tests.len(),
                detected,
                aborted,
                quarantined,
                tests,
                counters,
                complete,
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn table_crc64_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            split in any::<usize>(),
        ) {
            proptest::prop_assert_eq!(crc64(&bytes), crc64_bitwise(&bytes));
            let (a, b) = bytes.split_at(split % (bytes.len() + 1));
            proptest::prop_assert_eq!(crc64_extend(crc64(a), b), crc64(&bytes));
        }

        #[test]
        fn a_checkpoint_round_trips_through_its_journal(cp in checkpoint()) {
            proptest::prop_assert_eq!(from_text(&cp.to_journal()).unwrap(), cp);
        }
    }

    #[test]
    fn empty_tests_and_circuit_name_round_trip() {
        // The empty corner the strategy rarely draws: no tests, no name.
        let empty = Checkpoint {
            circuit: String::new(),
            tests: Vec::new(),
            completed: 0,
            ..sample()
        };
        for cp in [sample(), empty] {
            assert_eq!(from_text(&cp.to_journal()).unwrap(), cp);
        }
    }

    #[test]
    fn checkpoint_policy_clamps_interval() {
        let p = CheckpointPolicy::new("ck.json", 0);
        assert_eq!(p.every, 1);
    }
}
