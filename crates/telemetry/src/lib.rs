//! Phase-scoped span timers, monotonic counters and JSON run reports.
//!
//! The pipeline crates (`pdf-paths`, `pdf-faults`, `pdf-atpg`, `pdf-sim`)
//! instrument their phase boundaries with this crate so that a full run
//! through enumeration → untestable elimination → generation → compaction
//! → enrichment can report where time goes and how many faults each phase
//! handled — the per-phase counters Pomeranz & Reddy's evaluation tables
//! are built on — without any ad-hoc printing.
//!
//! Three pieces:
//!
//! * [`Span`] — an RAII phase timer on the monotonic clock. Spans nest:
//!   a span entered while another is active on the same thread becomes
//!   its child in the report tree. Re-entering the same name under the
//!   same parent accumulates into one node (`calls` counts entries), so
//!   a span in a per-test loop stays O(1) in memory.
//! * [`count`] — named monotonic counters ([`counters`] lists the
//!   well-known names).
//! * [`RunReport`] — a snapshot of the span tree and counters that
//!   serializes to JSON ([`RunReport::to_json`]) and parses back
//!   ([`RunReport::from_json`]).
//! * [`capture`] — records one closure's spans and counters into a
//!   private [`Captured`] buffer instead of the process report; the
//!   caller later [merges](Captured::merge) it under its own active span
//!   or drops it. Speculative work whose result may be thrown away
//!   reports through this, so the report counts only the work kept.
//!
//! # The no-op sink
//!
//! Telemetry is **off by default**: every instrumented call first reads
//! one relaxed atomic flag and returns immediately when recording is
//! disabled, so instrumentation on hot paths costs a single branch. Turn
//! recording on with [`enable`], or let a [`Guard`] do it — [`Guard::from_env`]
//! honours the `PDF_TELEMETRY=<path>` environment variable and writes the
//! report when dropped.
//!
//! # Example
//!
//! ```
//! let _ = pdf_telemetry::begin_recording();
//! {
//!     let _phase = pdf_telemetry::Span::enter("enumerate");
//!     pdf_telemetry::count("store_evictions", 3);
//! }
//! let report = pdf_telemetry::report();
//! pdf_telemetry::disable();
//! assert_eq!(report.counter("store_evictions"), Some(3));
//! assert!(report.span("enumerate").unwrap().seconds > 0.0);
//! ```
//!
//! Global state is process-wide; concurrent tests that enable recording
//! must serialize (see the crate tests for the pattern).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

pub use json::{Json, ParseJsonError};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Well-known counter names used across the workspace.
///
/// Counters are open-ended — any `&'static str` works — but the pipeline
/// crates stick to these so reports stay comparable across runs.
pub mod counters {
    /// Primary target faults a generation session attempted.
    pub const FAULTS_TARGETED: &str = "faults_targeted";
    /// Secondary target faults detected (accepted or for free).
    pub const SECONDARY_DETECTED: &str = "secondary_detected";
    /// Tests removed by static compaction sweeps.
    pub const TESTS_DROPPED: &str = "tests_dropped";
    /// Whole-sweep simulation passes (coverage, per-test detection, and
    /// the generator's drop loop).
    pub const SIM_PASSES: &str = "sim_passes";
    /// 64-lane blocks simulated by the packed kernel.
    pub const PACKED_BLOCKS: &str = "packed_blocks";
    /// Paths evicted from the capped enumeration store.
    pub const STORE_EVICTIONS: &str = "store_evictions";
    /// Randomized justification attempts beyond the first per call.
    pub const JUSTIFY_RETRIES: &str = "justify_retries";
    /// 64-lane random-completion blocks evaluated by the packed justifier.
    pub const JUSTIFY_PACKED_BLOCKS: &str = "justify_packed_blocks";
    /// Justification calls resolved by a random-completion lane (either
    /// backend; the lane index is the witness).
    pub const JUSTIFY_LANE_HITS: &str = "justify_lane_hits";
    /// Packed passes of the justifier's necessary-value fixpoint: one
    /// per 63 open cone inputs per round, plus a pass that only checks
    /// the committed values when a round has no open input left.
    pub const JUSTIFY_FIXPOINT_PASSES: &str = "justify_fixpoint_passes";
    /// Fault candidates eliminated as undetectable (rules 1 and 2).
    pub const UNDETECTABLE_DROPPED: &str = "undetectable_dropped";
    /// Cooperative run-budget polls performed by run control.
    pub const CANCEL_POLLS: &str = "cancel_polls";
    /// Budget polls that observed an expired deadline (counted once per
    /// budget, when the deadline is first seen).
    pub const DEADLINE_HITS: &str = "deadline_hits";
    /// Checkpoint files written atomically by run control.
    pub const CHECKPOINTS_WRITTEN: &str = "checkpoints_written";
    /// Faults quarantined after a caught per-fault panic.
    pub const FAULTS_QUARANTINED: &str = "faults_quarantined";
    /// Contrapositive implications recorded by the static learning pass.
    pub const LEARNED_IMPLICATIONS: &str = "learned_implications";
    /// Faults eliminated only by the learned closure table (beyond the
    /// plain rule-2 implication check).
    pub const STATICALLY_ELIMINATED: &str = "statically_eliminated";
    /// Faults eliminated by rule 2 (or the learned re-check) through a
    /// conflict on a path prefix shared with an earlier fault, without an
    /// implication fixpoint of their own.
    pub const RULE2_PREFIX_REFUTED: &str = "rule2_prefix_refuted";
    /// Error-severity diagnostics reported by the structural linter.
    pub const LINT_ERRORS: &str = "lint_errors";
    /// Lines actually (re-)evaluated by event-driven propagation passes.
    pub const EVENTS_PROPAGATED: &str = "events_propagated";
    /// Lines visited but skipped by event-driven propagation because no
    /// fanin had changed.
    pub const LINES_SKIPPED: &str = "lines_skipped";
    /// Generation rounds the session selected and ran, inline or on the
    /// in-order worker pool.
    pub const POOL_ROUNDS: &str = "pool_rounds";
    /// Speculative builds discarded at commit because an earlier test in
    /// the same round already detected (or quarantined) their primary.
    pub const POOL_BUILDS_DISCARDED: &str = "pool_builds_discarded";
    /// Failpoint evaluations that fired an injected fault (pdf-chaos).
    pub const FAILPOINTS_HIT: &str = "failpoints_hit";
    /// Transient I/O errors healed by the bounded retry loop.
    pub const IO_RETRIES: &str = "io_retries";
    /// Checkpoint loads that fell back to the previous-good generation.
    pub const CHECKPOINT_RECOVERIES: &str = "checkpoint_recoveries";
    /// Paths classified by the static sensitizability pass (one count per
    /// stored path, regardless of verdict).
    pub const PATHS_CLASSIFIED: &str = "paths_classified";
    /// Fault candidates dropped by the sensitizability pre-filter because
    /// their path is statically proven false.
    pub const FALSE_PATHS_ELIMINATED: &str = "false_paths_eliminated";
    /// Guided-search branch decisions taken deterministically by the
    /// SCOAP testability guide instead of the justifier's RNG.
    pub const SCOAP_GUIDED_BRANCHES: &str = "scoap_guided_branches";
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is on. One relaxed load — this is the only cost
/// instrumented hot paths pay while telemetry is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on. Prefer [`begin_recording`] (which also clears
/// previously recorded data) or a [`Guard`].
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-recorded spans and counters are kept
/// until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all recorded spans and counters.
///
/// Call only while no [`Span`] is active; an active span from before the
/// reset is dropped silently (its timing is discarded, never misfiled).
pub fn reset() {
    let mut s = lock();
    s.generation += 1;
    s.tree = Tree::default();
    s.counters.clear();
}

/// Clears recorded data and turns recording on: the usual way to start an
/// instrumented run. Returns the [`RunReport`] state discarded, which is
/// almost always ignored.
pub fn begin_recording() -> RunReport {
    let before = report();
    reset();
    enable();
    before
}

struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total: Duration,
}

/// A span tree: nodes by id, with the root ids in first-entry order.
#[derive(Default)]
struct Tree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
}

impl Tree {
    /// The node `name` under `parent` (a root for `None`), created on
    /// first entry.
    fn child(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(id) = siblings
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name)
        {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            calls: 0,
            total: Duration::ZERO,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Adds the subtrees `ids` of `other` under `parent`, summing calls
    /// and time into same-named nodes.
    fn merge(&mut self, parent: Option<usize>, other: &Tree, ids: &[usize]) {
        for &id in ids {
            let node = &other.nodes[id];
            let into = self.child(parent, node.name);
            self.nodes[into].calls += node.calls;
            self.nodes[into].total += node.total;
            self.merge(Some(into), other, &node.children);
        }
    }
}

fn add_counter(counters: &mut Vec<(&'static str, u64)>, name: &'static str, n: u64) {
    match counters.iter_mut().find(|(k, _)| *k == name) {
        Some((_, v)) => *v = v.saturating_add(n),
        None => counters.push((name, n)),
    }
}

#[derive(Default)]
struct Store {
    /// Bumped by [`reset`] so stale span guards cannot misfile timings.
    generation: u64,
    tree: Tree,
    counters: Vec<(&'static str, u64)>,
}

fn lock() -> MutexGuard<'static, Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One [`capture`]'s recording: a private span tree with its own active
/// stack, plus the counters it summed.
#[derive(Default)]
struct Buffer {
    /// Distinguishes this capture's span guards from a later capture's.
    epoch: u64,
    tree: Tree,
    active: Vec<usize>,
    counters: Vec<(&'static str, u64)>,
}

/// Source of capture epochs; starts at 1 so no buffer shares an epoch.
static CAPTURE_EPOCH: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The stack of active span node ids on this thread, tagged with the
    /// store generation they belong to.
    static ACTIVE: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
    /// The capture in progress on this thread, if any.
    static CAPTURE: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// The innermost span of store generation `generation` active on this
/// thread.
fn active_span(generation: u64) -> Option<usize> {
    ACTIVE.with(|a| {
        a.borrow()
            .iter()
            .rev()
            .find(|&&(g, _)| g == generation)
            .map(|&(_, id)| id)
    })
}

/// Runs `f` against this thread's capture buffer, if one is active.
fn with_capture<R>(f: impl FnOnce(&mut Buffer) -> R) -> Option<R> {
    CAPTURE.with(|c| c.borrow_mut().as_mut().map(f))
}

/// A finished [`capture`]: the spans and counters one closure recorded,
/// held back from the process report. [`Captured::merge`] files them
/// under the merging thread's active span; dropping discards them.
#[must_use = "a capture is discarded unless merged"]
pub struct Captured(Option<Buffer>);

impl Captured {
    /// Adds the captured spans under the span active on this thread (as
    /// roots when none is), summing calls and time into same-named
    /// nodes, and adds the captured counters to the totals.
    pub fn merge(self) {
        let Some(buffer) = self.0 else {
            return;
        };
        let mut s = lock();
        let parent = active_span(s.generation);
        s.tree.merge(parent, &buffer.tree, &buffer.tree.roots);
        for &(name, n) in &buffer.counters {
            add_counter(&mut s.counters, name, n);
        }
    }
}

/// Runs `f` with this thread's spans and counters recorded into a
/// private buffer, returned beside `f`'s result. Spans entered inside
/// `f` nest under the capture's own root, not under the caller's active
/// span; the caller files them where they belong with
/// [`Captured::merge`], or drops the buffer to discard them. With
/// recording off, `f` just runs and the capture is empty (nothing is
/// allocated). Captures do not nest.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Captured) {
    if !enabled() {
        return (f(), Captured(None));
    }
    /// Ends the capture when `f` returns or unwinds.
    struct End;
    impl Drop for End {
        fn drop(&mut self) {
            CAPTURE.with(|c| c.take());
        }
    }
    let buffer = Buffer {
        epoch: CAPTURE_EPOCH.fetch_add(1, Ordering::Relaxed),
        ..Buffer::default()
    };
    let previous = CAPTURE.with(|c| c.replace(Some(buffer)));
    debug_assert!(previous.is_none(), "captures do not nest");
    let _end = End;
    let result = f();
    (result, Captured(CAPTURE.with(|c| c.take())))
}

/// An RAII phase timer. See the crate docs.
#[must_use = "a span measures the scope it is bound to; binding it to `_` drops it immediately"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    /// The store generation, or the capture epoch for a captured span.
    generation: u64,
    captured: bool,
    id: usize,
    start: Instant,
}

impl Span {
    /// Starts (or re-enters) the span `name` under the span currently
    /// active on this thread — inside a [`capture`], under the capture's
    /// active span. A no-op single branch when recording is off.
    pub fn enter(name: &'static str) -> Span {
        if !enabled() {
            return Span(None);
        }
        let captured = with_capture(|b| {
            let id = b.tree.child(b.active.last().copied(), name);
            b.tree.nodes[id].calls += 1;
            b.active.push(id);
            (b.epoch, id)
        });
        let (generation, id) = match captured {
            Some(entry) => entry,
            None => {
                let mut s = lock();
                let generation = s.generation;
                let id = s.tree.child(active_span(generation), name);
                s.tree.nodes[id].calls += 1;
                drop(s);
                ACTIVE.with(|a| a.borrow_mut().push((generation, id)));
                (generation, id)
            }
        };
        Span(Some(SpanInner {
            generation,
            captured: captured.is_some(),
            id,
            start: Instant::now(),
        }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        // Guarantee nonzero durations even on coarse clocks.
        let elapsed = inner.start.elapsed().max(Duration::from_nanos(1));
        if inner.captured {
            // A guard that outlived its capture is dropped silently.
            with_capture(|b| {
                if b.epoch == inner.generation {
                    if let Some(pos) = b.active.iter().rposition(|&id| id == inner.id) {
                        b.active.truncate(pos);
                    }
                    b.tree.nodes[inner.id].total += elapsed;
                }
            });
            return;
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if let Some(pos) = a
                .iter()
                .rposition(|&(g, id)| g == inner.generation && id == inner.id)
            {
                a.truncate(pos);
            }
        });
        let mut s = lock();
        if s.generation == inner.generation {
            s.tree.nodes[inner.id].total += elapsed;
        }
    }
}

/// Adds `n` to the named monotonic counter (inside a [`capture`], to the
/// capture's copy). A no-op single branch when recording is off.
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    if with_capture(|b| add_counter(&mut b.counters, name, n)).is_none() {
        add_counter(&mut lock().counters, name, n);
    }
}

/// One file operation behind the failpoint `site`, transient errors
/// retried under `PDF_IO_RETRY`. An armed `io`/`full` entry fails the
/// attempt, `panic` panics; else `op` runs, told how many of its `n`
/// bytes survive (a `torn` entry keeps a deterministic prefix). Counts
/// `failpoints_hit` and `io_retries`.
///
/// # Errors
///
/// The last attempt's error, or an `InvalidInput` error when
/// `PDF_IO_RETRY` is malformed.
pub fn guarded_io<T>(
    site: &'static str,
    op: impl Fn(&dyn Fn(usize) -> usize) -> std::io::Result<T>,
) -> std::io::Result<T> {
    let policy = pdf_chaos::RetryPolicy::from_env()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let (result, retries) = pdf_chaos::with_retry(&policy, || {
        let Some(injection) = pdf_chaos::evaluate(site) else {
            return op(&|n| n);
        };
        count(counters::FAILPOINTS_HIT, 1);
        if injection == pdf_chaos::Injection::Panic {
            panic!("injected failpoint {site}");
        }
        match injection.error() {
            Some(error) => Err(error),
            None => op(&|n| injection.torn_len(n)),
        }
    });
    if retries > 0 {
        count(counters::IO_RETRIES, u64::from(retries));
    }
    result
}

/// [`guarded_io`] reading `path` as text. A `torn` entry keeps a prefix
/// that ends on a character boundary.
///
/// # Errors
///
/// See [`guarded_io`].
pub fn guarded_read(site: &'static str, path: &std::path::Path) -> std::io::Result<String> {
    guarded_io(site, |keep| {
        let mut text = std::fs::read_to_string(path)?;
        let torn = keep(text.len());
        text.truncate(
            (0..=torn)
                .rev()
                .find(|&n| text.is_char_boundary(n))
                .unwrap_or(0),
        );
        Ok(text)
    })
}

/// One aggregated span of a [`RunReport`]: total wall-clock time and entry
/// count for a name at one position of the phase tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanReport {
    /// The span name.
    pub name: String,
    /// How many times the span was entered.
    pub calls: u64,
    /// Total wall-clock seconds across all entries (monotonic clock).
    pub seconds: f64,
    /// Child spans, in first-entry order.
    pub children: Vec<SpanReport>,
}

impl SpanReport {
    fn find(&self, name: &str) -> Option<&SpanReport> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn to_json(&self) -> Json {
        Json::object()
            .field("name", self.name.as_str())
            .field("calls", self.calls)
            .field("seconds", self.seconds)
            .field(
                "children",
                Json::Arr(self.children.iter().map(SpanReport::to_json).collect()),
            )
    }

    fn from_json(j: &Json) -> Result<SpanReport, ParseJsonError> {
        let bad = |key: &str| ParseJsonError::schema(format!("span without a valid `{key}`"));
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("name"))?;
        let calls = j
            .get("calls")
            .and_then(Json::as_count)
            .ok_or_else(|| bad("calls"))?;
        let seconds = j
            .get("seconds")
            .and_then(Json::as_num)
            .ok_or_else(|| bad("seconds"))?;
        let children = j
            .get("children")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(SpanReport::from_json)
            .collect::<Result<Vec<SpanReport>, ParseJsonError>>()?;
        Ok(SpanReport {
            name: name.to_owned(),
            calls,
            seconds,
            children,
        })
    }
}

/// A snapshot of the recorded span tree and counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Root spans, in first-entry order.
    pub spans: Vec<SpanReport>,
    /// Counters, in first-increment order.
    pub counters: Vec<(String, u64)>,
}

impl RunReport {
    /// Finds a span by name anywhere in the tree (depth-first).
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanReport> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// The value of a counter, if it was ever incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the report as pretty-printed JSON.
    ///
    /// Schema: `{"telemetry": 1, "spans": [{"name", "calls", "seconds",
    /// "children"}...], "counters": {name: value, ...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::object()
            .field("telemetry", 1u64)
            .field(
                "spans",
                Json::Arr(self.spans.iter().map(SpanReport::to_json).collect()),
            )
            .field(
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            )
            .to_pretty()
    }

    /// Parses a report previously written by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseJsonError`] on malformed JSON or a document that
    /// does not follow the report schema.
    pub fn from_json(text: &str) -> Result<RunReport, ParseJsonError> {
        let j = Json::parse(text)?;
        let version = j.get("telemetry").and_then(Json::as_count::<u64>);
        if version != Some(1) {
            return Err(ParseJsonError::schema(
                "not a telemetry report (missing `\"telemetry\": 1`)",
            ));
        }
        let spans = j
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or_else(|| ParseJsonError::schema("missing `spans` array"))?
            .iter()
            .map(SpanReport::from_json)
            .collect::<Result<Vec<SpanReport>, ParseJsonError>>()?;
        let Some(Json::Obj(counter_fields)) = j.get("counters") else {
            return Err(ParseJsonError::schema("missing `counters` object"));
        };
        let counters = counter_fields
            .iter()
            .map(|(k, v)| {
                v.as_count()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| ParseJsonError::schema(format!("counter `{k}` is not a count")))
            })
            .collect::<Result<Vec<(String, u64)>, ParseJsonError>>()?;
        Ok(RunReport { spans, counters })
    }

    /// Writes the JSON report to `path` through the `telemetry.flush`
    /// failpoint site, retrying transient errors under the `PDF_IO_RETRY`
    /// policy. The retry count lands in the `io_retries` counter — the
    /// *next* report, since this one is already snapshotted.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error on failure (after retries).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let text = self.to_json();
        guarded_io(pdf_chaos::sites::TELEMETRY_FLUSH, |keep| {
            std::fs::write(path, &text.as_bytes()[..keep(text.len())])
        })
    }
}

/// Snapshots the currently recorded spans and counters. Spans still
/// active contribute the time of their completed entries only.
#[must_use]
pub fn report() -> RunReport {
    let s = lock();
    fn build(s: &Store, id: usize) -> SpanReport {
        let node = &s.tree.nodes[id];
        SpanReport {
            name: node.name.to_owned(),
            calls: node.calls,
            seconds: node.total.as_secs_f64(),
            children: node.children.iter().map(|&c| build(s, c)).collect(),
        }
    }
    // Counters are stored in first-touch order, which worker threads make
    // schedule-dependent; reports sort by name so equal runs serialize to
    // equal documents regardless of thread interleaving.
    let mut counters: Vec<(String, u64)> =
        s.counters.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    RunReport {
        spans: s.tree.roots.iter().map(|&r| build(&s, r)).collect(),
        counters,
    }
}

/// Scoped telemetry for a driver run: enables recording on creation and
/// writes the JSON report to its path when dropped.
///
/// Drivers create one at startup — from an explicit `--telemetry <path>`
/// flag via [`Guard::to_path`], or from the `PDF_TELEMETRY` environment
/// variable via [`Guard::from_env`] — and let it fall out of scope at
/// exit. Dropping the guard turns recording back off if this guard turned
/// it on; write failures are reported on stderr (a failed report must not
/// fail the run it measured).
#[must_use = "dropping the guard immediately would end telemetry before the run starts"]
#[derive(Debug)]
pub struct Guard {
    path: Option<String>,
    owns_enable: bool,
}

impl Guard {
    /// Enables recording and arranges for the report to be written to
    /// `path` when the guard drops.
    pub fn to_path(path: impl Into<String>) -> Guard {
        let owns_enable = !enabled();
        enable();
        Guard {
            path: Some(path.into()),
            owns_enable,
        }
    }

    /// Reads `PDF_TELEMETRY`. Set to a path, it behaves like
    /// [`Guard::to_path`]; unset (or empty, or `0`), the guard is inert
    /// and recording stays as it was.
    ///
    /// # Errors
    ///
    /// A [`pdf_knobs::KnobError`] when the variable is not valid UTF-8.
    pub fn from_env() -> Result<Guard, pdf_knobs::KnobError> {
        Ok(match pdf_knobs::TELEMETRY.text()? {
            Some(path) if path != "0" => Guard::to_path(path),
            _ => Guard {
                path: None,
                owns_enable: false,
            },
        })
    }

    /// The report destination, if this guard has one.
    #[must_use]
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            match report().write(path) {
                Ok(()) => eprintln!("telemetry: run report written to {path}"),
                Err(e) => eprintln!("telemetry: cannot write {path}: {e}"),
            }
        }
        if self.owns_enable {
            disable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// Telemetry state is process-global: every test that records takes
    /// this lock first.
    static SERIAL: TestMutex<()> = TestMutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = serialized();
        reset();
        disable();
        {
            let _s = Span::enter("ignored");
            count("ignored", 5);
        }
        let r = report();
        assert!(r.spans.is_empty());
        assert!(r.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate_by_name() {
        let _guard = serialized();
        let _ = begin_recording();
        {
            let _outer = Span::enter("generate");
            for _ in 0..3 {
                let _inner = Span::enter("simulate");
            }
            {
                let _inner = Span::enter("compact");
                let _deeper = Span::enter("simulate");
            }
        }
        disable();
        let r = report();
        let generate = r.span("generate").unwrap();
        assert_eq!(generate.calls, 1);
        assert_eq!(generate.children.len(), 2, "{generate:?}");
        let simulate = &generate.children[0];
        assert_eq!((simulate.name.as_str(), simulate.calls), ("simulate", 3));
        let compact = &generate.children[1];
        assert_eq!(compact.children[0].calls, 1);
        // Parent time covers child time; everything is nonzero.
        assert!(generate.seconds >= simulate.seconds);
        assert!(simulate.seconds > 0.0);
        // Lookup descends the tree.
        assert_eq!(r.span("compact").unwrap().name, "compact");
        assert!(r.span("missing").is_none());
    }

    #[test]
    fn sibling_spans_on_worker_threads_become_roots() {
        let _guard = serialized();
        let _ = begin_recording();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _s = Span::enter("worker");
                });
            }
        });
        disable();
        let r = report();
        assert_eq!(r.span("worker").unwrap().calls, 2);
    }

    #[test]
    fn counters_are_monotone_and_saturating() {
        let _guard = serialized();
        let _ = begin_recording();
        count("checks", 2);
        count("checks", 3);
        let mid = report().counter("checks").unwrap();
        count("checks", 5);
        count("checks", u64::MAX);
        disable();
        let r = report();
        assert_eq!(mid, 5);
        assert_eq!(r.counter("checks"), Some(u64::MAX));
        assert!(
            r.counter("checks").unwrap() >= mid,
            "counters never regress"
        );
        assert_eq!(r.counter("never"), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let _guard = serialized();
        let _ = begin_recording();
        {
            let _outer = Span::enter("enumerate");
            let _inner = Span::enter("evict");
        }
        count(counters::STORE_EVICTIONS, 41);
        count(counters::SIM_PASSES, 7);
        disable();
        let r = report();
        let text = r.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        // The document is also plain valid JSON.
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn from_json_rejects_non_reports() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("[1, 2]").is_err());
        assert!(RunReport::from_json("{\"telemetry\": 1}").is_err());
        assert!(RunReport::from_json(
            "{\"telemetry\": 1, \"spans\": [{\"calls\": 1}], \"counters\": {}}"
        )
        .is_err());
        assert!(RunReport::from_json(
            "{\"telemetry\": 1, \"spans\": [], \"counters\": {\"a\": \"b\"}}"
        )
        .is_err());
    }

    #[test]
    fn guard_writes_report_and_restores_disabled_state() {
        let _guard = serialized();
        reset();
        disable();
        let path =
            std::env::temp_dir().join(format!("pdf-telemetry-test-{}.json", std::process::id()));
        let path_str = path.to_str().unwrap().to_owned();
        {
            let guard = Guard::to_path(path_str.clone());
            assert_eq!(guard.path(), Some(path_str.as_str()));
            assert!(enabled());
            let _s = Span::enter("phase");
            count("c", 1);
        }
        assert!(!enabled(), "guard restores the disabled state");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let r = RunReport::from_json(&text).unwrap();
        assert!(r.span("phase").is_some());
        assert_eq!(r.counter("c"), Some(1));
    }

    #[test]
    fn a_merged_capture_nests_under_the_active_span() {
        let _guard = serialized();
        let _ = begin_recording();
        {
            let _outer = Span::enter("generate");
            let captured: Vec<Captured> = (0..2)
                .map(|_| {
                    std::thread::scope(|scope| {
                        scope
                            .spawn(|| {
                                capture(|| {
                                    let _s = Span::enter("justify");
                                    let _inner = Span::enter("justify.guided");
                                    count("calls", 2);
                                })
                                .1
                            })
                            .join()
                            .unwrap()
                    })
                })
                .collect();
            // A capture on this thread leaves the outer span alone.
            let ((), dropped) = capture(|| {
                let _s = Span::enter("discarded");
                count("calls", 100);
            });
            drop(dropped);
            for c in captured {
                c.merge();
            }
        }
        disable();
        let r = report();
        assert_eq!(r.spans.len(), 1, "{r:?}");
        let generate = r.span("generate").unwrap();
        assert_eq!(generate.children.len(), 1, "{generate:?}");
        let justify = &generate.children[0];
        assert_eq!((justify.name.as_str(), justify.calls), ("justify", 2));
        assert_eq!(justify.children[0].calls, 2);
        assert!(justify.seconds > 0.0);
        assert!(r.span("discarded").is_none());
        assert_eq!(r.counter("calls"), Some(4));
    }

    #[test]
    fn a_panic_inside_a_capture_ends_it() {
        let _guard = serialized();
        let _ = begin_recording();
        let unwound = std::panic::catch_unwind(|| {
            capture(|| {
                count("lost", 1);
                panic!("unwinds through the capture");
            })
        });
        assert!(unwound.is_err());
        count("after", 1);
        disable();
        let r = report();
        assert_eq!(r.counter("after"), Some(1), "the capture ended");
        assert_eq!(r.counter("lost"), None);
    }

    #[test]
    fn a_disabled_capture_is_empty() {
        let _guard = serialized();
        reset();
        disable();
        let (value, captured) = capture(|| {
            count("ignored", 1);
            7
        });
        assert_eq!(value, 7);
        assert!(captured.0.is_none());
        captured.merge();
        assert!(report().counters.is_empty());
    }

    #[test]
    fn reset_discards_stale_span_guards_safely() {
        let _guard = serialized();
        let _ = begin_recording();
        let stale = Span::enter("stale");
        reset();
        enable();
        drop(stale); // generation mismatch: must not misfile or panic
        {
            let _fresh = Span::enter("fresh");
        }
        disable();
        let r = report();
        assert!(r.span("stale").is_none());
        assert_eq!(r.span("fresh").unwrap().calls, 1);
    }
}
