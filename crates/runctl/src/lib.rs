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
//!   clones, so a generator and the justifier it owns always agree.
//! * [`BudgetSpec`] — the strictly parsed form of `PDF_TIME_BUDGET` /
//!   `--time-budget`: a global duration (`250ms`), or per-phase entries
//!   (`generate=2s,compact=500ms`), or both (`2s,compact=500ms`).
//! * [`Checkpoint`] / [`CheckpointPolicy`] — crash-safe incremental run
//!   state, written atomically (temp file + rename) as JSON via the
//!   workspace's dependency-free writer. A checkpoint always describes a
//!   *boundary* state — after a completed test, never mid-construction —
//!   which is what makes interrupted-plus-resumed runs reproduce the
//!   uninterrupted test set bit for bit (see `DESIGN.md` §11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdf_knobs::{Kind, KnobError, Program, KNOBS};
use pdf_telemetry::{counters, Json};

/// Default checkpoint interval when `--checkpoint-every` is not given.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 16;
/// Version tag written into checkpoint files. Version 2 checkpoints are
/// written by the round-based (batched) generator: their `rng_state`
/// field is vestigial (per-build RNG streams are derived from the master
/// seed and the fault index, so a boundary carries no RNG position) and
/// resume ignores it.
pub const CHECKPOINT_VERSION: u32 = 3;

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
/// Clones share the latch (and the token), so handing a clone to a
/// sub-component — the generator gives one to its justifier — keeps every
/// holder's view of exhaustion consistent. The default budget is
/// unlimited and costs one branch per poll.
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    deadline: Deadline,
    cancel: Option<CancelToken>,
    fired: Arc<AtomicBool>,
    /// A peek view observes exhaustion without consuming polls, advancing
    /// countdowns, latching, or counting telemetry (see
    /// [`RunBudget::peek_view`]).
    peek: bool,
    /// A peek view's extra stop signal ([`RunBudget::peek_view_with`]).
    watch: Option<CancelToken>,
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
        self.deadline.is_set() || self.cancel.is_some() || self.watch.is_some()
    }

    /// One cooperative poll: checks the token and the deadline, latches
    /// on the first hit, and counts `cancel_polls` / `deadline_hits`
    /// telemetry. Unlimited budgets return `false` after a single branch.
    pub fn exhausted(&self) -> bool {
        if !self.is_limited() {
            return false;
        }
        if self.peek {
            // A peek view only *observes*: the shared latch, the token's
            // non-consuming flag, and the wall clock. No countdown is
            // advanced, nothing is latched, no poll is counted — so any
            // number of peeks leaves the counting holders' state intact.
            return self.fired.load(Ordering::Relaxed)
                || self.watch.as_ref().is_some_and(CancelToken::is_cancelled)
                || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
                || self.deadline.expired();
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

    /// A non-counting view of this budget for speculative workers: its
    /// [`RunBudget::exhausted`] reports the shared latch, the token's
    /// cancellation flag, and the deadline, but never advances a poll
    /// countdown, never latches, and never counts `cancel_polls`
    /// telemetry. Deterministic-countdown budgets therefore fire at
    /// exactly the same counted poll no matter how many workers peek —
    /// the property the parallel generator's schedule-independence rests
    /// on.
    #[must_use]
    pub fn peek_view(&self) -> RunBudget {
        RunBudget {
            peek: true,
            ..self.clone()
        }
    }

    /// A [`RunBudget::peek_view`] that also reads as exhausted once
    /// `watch` is cancelled. The generator hands each speculative build
    /// one, watching the build's moot flag, so every budget poll inside
    /// the build also stops work whose result is already known to be
    /// discarded. Tell the two causes apart by asking `watch` after the
    /// view reports exhaustion: a cancelled token stays cancelled.
    #[must_use]
    pub fn peek_view_with(&self, watch: CancelToken) -> RunBudget {
        RunBudget {
            watch: Some(watch),
            ..self.peek_view()
        }
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
            "PDF_IO_RETRY" => knob.read(None, pdf_chaos::RetryPolicy::parse).map(drop),
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
    /// Checkpoint file path (written atomically, always the same file).
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
    /// The file is torn, truncated, or bit-rotted: either the JSON text
    /// breaks off mid-document or the stored CRC64 does not match the
    /// recomputed one. Recovery falls back one generation (see
    /// [`Checkpoint::load_with_recovery`]).
    Corrupt {
        /// Byte offset of the damage: where the JSON text became
        /// unparseable, or the position of the stored checksum field.
        offset: usize,
        /// The recomputed CRC64 (0 when the text never parsed).
        expected: u64,
        /// The CRC64 found in the file (0 when the text never parsed).
        found: u64,
    },
    /// The JSON is well-formed but not a valid checkpoint.
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
                    write!(f, "checkpoint is corrupt: truncated at byte {offset}")
                } else {
                    write!(
                        f,
                        "checkpoint is corrupt: checksum mismatch at byte {offset} \
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
/// the uninterrupted run would have: the RNG state is the boundary
/// state, detection flags are the boundary flags, and the tests written
/// so far are carried over verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Monotonic save counter of the producing run: each save writes
    /// generation `g+1` and rotates generation `g` to the `.prev`
    /// sibling, so recovery can fall back exactly one generation.
    pub generation: u64,
    /// Circuit name the run targeted.
    pub circuit: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Configuration fingerprint (compaction/secondary-mode/attempts/
    /// backend); resume refuses a mismatch.
    pub fingerprint: String,
    /// Per-set fault counts of the target split (`P0`, `P1`, ...).
    pub set_sizes: Vec<usize>,
    /// Completed primary targets (tests pushed) so far.
    pub completed: usize,
    /// Justifier RNG state at the boundary.
    pub rng_state: u64,
    /// Per-fault detection flags at the boundary.
    pub detected: Vec<bool>,
    /// Per-fault abort flags at the boundary.
    pub aborted: Vec<bool>,
    /// Per-fault quarantine flags at the boundary.
    pub quarantined: Vec<bool>,
    /// Tests generated so far, one `v1 v2` text line each (the
    /// `TestSet::to_text` line format).
    pub tests: Vec<String>,
    /// Generation statistics counters carried across the resume.
    pub counters: Vec<(String, u64)>,
    /// Whether the run finished naturally (nothing left to resume).
    pub complete: bool,
}

impl Checkpoint {
    /// The value of a named statistics counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Serializes to pretty-printed JSON with an embedded CRC64: the
    /// document is rendered once with the checksum field zeroed, the
    /// CRC64 of that text becomes the field value, and the document is
    /// rendered again. Verification re-zeroes and recomputes, which
    /// works because the JSON writer is print/parse byte-stable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let zeroed = self.render(CRC_PLACEHOLDER);
        self.render(&hex(crc64(zeroed.as_bytes())))
    }

    fn render(&self, crc_text: &str) -> String {
        let counters = self
            .counters
            .iter()
            .fold(Json::object(), |obj, (name, value)| obj.field(name, *value));
        Json::object()
            .field("format", "path-delay-atpg checkpoint")
            .field("version", self.version)
            .field("generation", self.generation)
            .field("crc64", crc_text)
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
            .field("completed", self.completed)
            .field("rng_state", hex(self.rng_state).as_str())
            .field("detected", flags_to_text(&self.detected).as_str())
            .field("aborted", flags_to_text(&self.aborted).as_str())
            .field("quarantined", flags_to_text(&self.quarantined).as_str())
            .field(
                "tests",
                self.tests
                    .iter()
                    .map(|t| Json::from(t.as_str()))
                    .collect::<Vec<_>>(),
            )
            .field("counters", counters)
            .field("complete", self.complete)
            .to_pretty()
    }

    /// Parses and verifies a checkpoint from JSON text.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for torn/truncated text or a CRC64
    /// mismatch, [`CheckpointError::Version`] for an unsupported format
    /// version, and [`CheckpointError::Schema`] for everything else that
    /// does not look like a checkpoint.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let json = Json::parse(text).map_err(|e| CheckpointError::Corrupt {
            offset: e.offset,
            expected: 0,
            found: 0,
        })?;
        let version = count(json.get("version"), "`version`")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        let found_crc = parse_hex(get_str(&json, "crc64")?, "crc64")?;
        let counters = match json.get("counters") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, value)| Ok((name.clone(), count(Some(value), name)?)))
                .collect::<Result<Vec<_>, CheckpointError>>()?,
            _ => return Err(CheckpointError::Schema("missing `counters` object".into())),
        };
        let complete = match json.get("complete") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(CheckpointError::Schema("missing `complete` flag".into())),
        };
        let checkpoint = Checkpoint {
            version,
            generation: count(json.get("generation"), "`generation`")?,
            circuit: get_str(&json, "circuit")?.to_owned(),
            seed: parse_hex(get_str(&json, "seed")?, "seed")?,
            fingerprint: get_str(&json, "fingerprint")?.to_owned(),
            set_sizes: get_arr(&json, "set_sizes")?
                .iter()
                .map(|v| count(Some(v), "a `set_sizes` entry"))
                .collect::<Result<Vec<_>, _>>()?,
            completed: count(json.get("completed"), "`completed`")?,
            rng_state: parse_hex(get_str(&json, "rng_state")?, "rng_state")?,
            detected: flags_from_text(get_str(&json, "detected")?, "detected")?,
            aborted: flags_from_text(get_str(&json, "aborted")?, "aborted")?,
            quarantined: flags_from_text(get_str(&json, "quarantined")?, "quarantined")?,
            tests: get_arr(&json, "tests")?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| CheckpointError::Schema("`tests` must hold strings".into()))
                })
                .collect::<Result<Vec<_>, _>>()?,
            counters,
            complete,
        };
        let expected = crc64(checkpoint.render(CRC_PLACEHOLDER).as_bytes());
        if expected != found_crc {
            return Err(CheckpointError::Corrupt {
                offset: text.find("\"crc64\"").unwrap_or(0),
                expected,
                found: found_crc,
            });
        }
        Ok(checkpoint)
    }

    /// Writes the checkpoint to `path` atomically and durably, under a
    /// `runctl` telemetry span, counting `checkpoints_written`. An
    /// existing file at `path` is first rotated to the `.prev` sibling
    /// (the previous-good generation recovery falls back to), and
    /// transient write errors are retried under the `PDF_IO_RETRY`
    /// policy.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the filesystem refuses.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let _span = pdf_telemetry::Span::enter("runctl");
        let io_error = |source| CheckpointError::Io {
            path: path.to_owned(),
            source,
        };
        if path.exists() {
            fs::rename(path, previous_generation_path(path)).map_err(io_error)?;
        }
        // A torn write reports success: the corruption the CRC catches.
        let text = self.to_json();
        pdf_telemetry::guarded_io(pdf_chaos::sites::CHECKPOINT_WRITE, |keep| {
            write_atomic(path, &text.as_bytes()[..keep(text.len())])
        })
        .map_err(io_error)?;
        pdf_telemetry::count(counters::CHECKPOINTS_WRITTEN, 1);
        Ok(())
    }

    /// Reads, parses, and CRC-verifies a checkpoint file, retrying
    /// transient read errors under the `PDF_IO_RETRY` policy.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read, otherwise
    /// the [`Checkpoint::from_json`] errors.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let _span = pdf_telemetry::Span::enter("runctl");
        let result = pdf_telemetry::guarded_read(pdf_chaos::sites::CHECKPOINT_READ, path);
        let text = result.map_err(|source| CheckpointError::Io {
            path: path.to_owned(),
            source,
        })?;
        Checkpoint::from_json(&text)
    }

    /// Loads `path`, falling back one generation when the current file
    /// is corrupt or missing: a torn write (or a crash in the rotate →
    /// write window) leaves the `.prev` sibling as the newest good
    /// snapshot. Returns the checkpoint and whether the fallback was
    /// taken (counted as `checkpoint_recoveries`).
    ///
    /// # Errors
    ///
    /// The *primary* load error when the fallback also fails — the
    /// current file's diagnosis is the one worth reporting.
    pub fn load_with_recovery(path: &Path) -> Result<(Checkpoint, bool), CheckpointError> {
        let primary = match Checkpoint::load(path) {
            Ok(checkpoint) => return Ok((checkpoint, false)),
            Err(error) => error,
        };
        let recoverable = match &primary {
            CheckpointError::Corrupt { .. } => true,
            // The crash window between the rotate and the write leaves
            // no current file at all — `.prev` is the newest good state.
            CheckpointError::Io { source, .. } => source.kind() == io::ErrorKind::NotFound,
            _ => false,
        };
        if !recoverable {
            return Err(primary);
        }
        match Checkpoint::load(&previous_generation_path(path)) {
            Ok(checkpoint) => {
                pdf_telemetry::count(counters::CHECKPOINT_RECOVERIES, 1);
                eprintln!(
                    "warning: checkpoint {} unusable ({primary}); \
                     recovered generation {} from the previous-good snapshot",
                    path.display(),
                    checkpoint.generation
                );
                Ok((checkpoint, true))
            }
            Err(_) => Err(primary),
        }
    }
}

/// The `.prev` sibling holding the previous-good checkpoint generation.
#[must_use]
pub fn previous_generation_path(path: &Path) -> PathBuf {
    let mut prev = path.as_os_str().to_owned();
    prev.push(".prev");
    PathBuf::from(prev)
}

/// Zero-value checksum text the CRC64 is computed over.
const CRC_PLACEHOLDER: &str = "0000000000000000";

/// CRC-64 (ECMA-182 polynomial, reflected, bitwise). Checkpoints are a
/// few kilobytes at most; a table-driven kernel would be noise.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut crc = !0u64;
    for &byte in bytes {
        crc ^= u64::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `u64` values (seed, RNG state) travel as hex strings: the JSON number
/// type is an `f64`, which cannot hold all 64-bit states exactly.
fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex(text: &str, field: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(text, 16)
        .map_err(|_| CheckpointError::Schema(format!("`{field}` is not a hex u64: `{text}`")))
}

fn flags_to_text(flags: &[bool]) -> String {
    flags.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn flags_from_text(text: &str, field: &str) -> Result<Vec<bool>, CheckpointError> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(CheckpointError::Schema(format!(
                "`{field}` holds `{other}` (expected only 0/1)"
            ))),
        })
        .collect()
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
    fn peek_view_never_consumes_polls_or_latches() {
        let b = RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(2));
        let peek = b.peek_view();
        for _ in 0..10 {
            assert!(!peek.exhausted(), "peeks must not advance the countdown");
        }
        assert!(!b.exhausted(), "first counted poll");
        assert!(!peek.exhausted(), "no latch, no cancellation yet");
        assert!(b.exhausted(), "second counted poll fires");
        assert!(peek.exhausted(), "the peek view sees the shared latch");
        assert!(b.already_exhausted());
    }

    #[test]
    fn a_watched_peek_view_stops_without_touching_the_budget() {
        let b = RunBudget::unlimited();
        let watch = CancelToken::new();
        let view = b.peek_view_with(watch.clone());
        assert!(!view.exhausted());
        watch.cancel();
        assert!(view.exhausted(), "the watched token stops the view");
        assert!(!b.exhausted(), "the run budget itself is untouched");
        assert!(!b.already_exhausted());
        assert!(!b.peek_view().exhausted(), "other views are untouched");
    }

    #[test]
    fn peek_view_sees_an_expired_deadline_without_latching() {
        let b = RunBudget::with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
        let peek = b.peek_view();
        assert!(peek.exhausted());
        assert!(!b.already_exhausted(), "peeks must not latch");
        assert!(b.exhausted());
        assert!(b.already_exhausted());
    }

    #[test]
    fn expired_deadline_latches() {
        let b = RunBudget::with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
        assert!(b.is_limited());
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
            version: CHECKPOINT_VERSION,
            generation: 4,
            circuit: "s27".to_owned(),
            seed: u64::MAX - 12,
            fingerprint: "arbit:regen:1:packed".to_owned(),
            set_sizes: vec![5, 3],
            completed: 2,
            rng_state: 0xDEAD_BEEF_0BAD_F00D,
            detected: vec![true, false, true, false, false, true, false, false],
            aborted: vec![false; 8],
            quarantined: {
                let mut q = vec![false; 8];
                q[4] = true;
                q
            },
            tests: vec!["0101 1100".to_owned(), "1111 0000".to_owned()],
            counters: vec![("aborted_primaries".to_owned(), 1)],
            complete: false,
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let cp = sample();
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.counter("aborted_primaries"), 1);
        assert_eq!(back.counter("missing"), 0);
    }

    #[test]
    fn checkpoint_rejects_bad_inputs() {
        assert!(matches!(
            Checkpoint::from_json("not json"),
            Err(CheckpointError::Corrupt {
                expected: 0,
                found: 0,
                ..
            })
        ));
        assert!(matches!(
            Checkpoint::from_json("{\"version\": 99}"),
            Err(CheckpointError::Version { found: 99 })
        ));
        // A schema error each: a non-0/1 flag, and count fields that are
        // not exact non-negative integers up to 2^53.
        let text = sample().to_json();
        for (from, to) in [
            ("\"detected\": \"", "\"detected\": \"x"),
            ("\"completed\": 2", "\"completed\": 2.5"),
            ("\"completed\": 2", "\"completed\": -1"),
            ("\"generation\": 4", "\"generation\": 1e300"),
            ("\"aborted_primaries\": 1", "\"aborted_primaries\": -0.5"),
            ("\n    5,\n", "\n    5.25,\n"), // `set_sizes: [5, 3]`
        ] {
            let edited = text.replace(from, to);
            assert_ne!(edited, text, "{to}");
            assert!(
                is_schema(&edited),
                "{to}: {:?}",
                Checkpoint::from_json(&edited)
            );
        }
    }

    fn is_schema(text: &str) -> bool {
        matches!(Checkpoint::from_json(text), Err(CheckpointError::Schema(_)))
    }

    #[test]
    fn a_fractional_version_is_a_schema_error() {
        // The CRC covers the re-rendered struct, so a cast that truncated
        // 3.9 to 3 used to load this file as a valid version 3.
        let text = sample().to_json();
        let edited = text.replace("\"version\": 3,", "\"version\": 3.9,");
        assert_ne!(edited, text);
        assert!(is_schema(&edited), "{:?}", Checkpoint::from_json(&edited));
    }

    #[test]
    fn a_generation_past_2_pow_53_is_a_schema_error() {
        // CRC-valid: the file is written by `to_json` itself. It used to
        // load, and a resume then overflowed the next generation number.
        let huge = Checkpoint {
            generation: u64::MAX,
            ..sample()
        };
        let text = huge.to_json();
        assert!(is_schema(&text), "{:?}", Checkpoint::from_json(&text));
        let edge = Checkpoint {
            generation: 1 << 53,
            ..sample()
        };
        assert_eq!(Checkpoint::from_json(&edge.to_json()).unwrap(), edge);
    }

    #[test]
    fn checksum_mismatch_is_a_typed_corruption() {
        // Flip one payload bit without breaking the JSON text: the parse
        // succeeds, the CRC verdict must not.
        let text = sample()
            .to_json()
            .replace("\"completed\": 2", "\"completed\": 3");
        match Checkpoint::from_json(&text) {
            Err(CheckpointError::Corrupt {
                offset,
                expected,
                found,
            }) => {
                assert_ne!(expected, found);
                assert_ne!(expected, 0);
                assert_eq!(offset, text.find("\"crc64\"").unwrap());
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pdf_runctl_ck_{}.json", std::process::id()));
        let cp = sample();
        cp.save(&path).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "temp file must be renamed away");
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(previous_generation_path(&path));
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn save_rotates_the_previous_generation() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pdf_runctl_rot_{}.json", std::process::id()));
        let prev = previous_generation_path(&path);
        let mut first = sample();
        first.generation = 1;
        let mut second = sample();
        second.generation = 2;
        first.save(&path).unwrap();
        assert!(!prev.exists(), "first save has nothing to rotate");
        second.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        assert_eq!(Checkpoint::load(&prev).unwrap(), first);
        let (recovered, fell_back) = Checkpoint::load_with_recovery(&path).unwrap();
        assert_eq!((recovered, fell_back), (second.clone(), false));
        // Crash window: rotate happened, write did not.
        std::fs::remove_file(&path).unwrap();
        let (recovered, fell_back) = Checkpoint::load_with_recovery(&path).unwrap();
        assert_eq!((recovered, fell_back), (first, true));
        std::fs::remove_file(&prev).unwrap();
        assert!(Checkpoint::load_with_recovery(&path).is_err());
    }

    #[test]
    fn checkpoint_policy_clamps_interval() {
        let p = CheckpointPolicy::new("ck.json", 0);
        assert_eq!(p.every, 1);
    }
}
