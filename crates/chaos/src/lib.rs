//! Deterministic failpoint injection for the ATPG pipeline.
//!
//! A failpoint is a named site in the codebase (a checkpoint write, a
//! netlist read, a worker build) where a fault can be injected on demand:
//! a transient I/O error, a persistent I/O error, a torn (truncated)
//! write, or a panic. The active set of failpoints is a [`FailpointSpec`]
//! parsed from `PDF_FAILPOINTS` (or the `--failpoints` flag), e.g.
//!
//! ```text
//! PDF_FAILPOINTS=checkpoint.write:io@3,telemetry.flush:torn@7
//! ```
//!
//! Every entry is `site:kind@N`. Injection is *deterministic*: an ordinal
//! entry fires on exactly the `N`th evaluation of its site (`full` fires
//! on every evaluation from the `N`th onward), and a keyed entry fires
//! whenever the caller-supplied key equals `N` — no randomness, no clocks,
//! so an injected run is reproducible bit for bit. Torn-write prefix
//! lengths are derived from a SplitMix64 hash of the site and ordinal,
//! again deterministic.
//!
//! The crate depends only on the dependency-free `pdf-knobs`, so every
//! other crate in the workspace — including `pdf-telemetry` — can depend
//! on it without cycles. It deliberately does *not* count telemetry itself; call sites
//! bump `failpoints_hit` / `io_retries` when an evaluation fires.
//!
//! The second half of the crate is [`with_retry`]: a bounded
//! retry-with-exponential-backoff helper for transient I/O errors under
//! a [`RetryPolicy`] (the file sites use its default, 3 attempts from a
//! 1 ms backoff).

#![forbid(unsafe_code)]

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use pdf_knobs::KnobError;

/// Every registered failpoint site. Specs naming any other site are
/// rejected at parse time so a typo'd site fails fast instead of
/// silently never firing.
pub mod sites {
    /// Checkpoint file writes (`pdf-runctl`'s atomic write path).
    pub const CHECKPOINT_WRITE: &str = "checkpoint.write";
    /// Checkpoint file reads.
    pub const CHECKPOINT_READ: &str = "checkpoint.read";
    /// Telemetry report writes (`RunReport::write` / guard drop).
    pub const TELEMETRY_FLUSH: &str = "telemetry.flush";
    /// Netlist file reads in the CLI.
    pub const NETLIST_READ: &str = "netlist.read";
    /// Worker-side test-cube builds (keyed by fault index; a firing
    /// entry panics the build, feeding the quarantine path).
    pub const POOL_BUILD: &str = "pool.build";
    /// All known sites, for validation and docs.
    pub const ALL: [&str; 5] = [
        CHECKPOINT_WRITE,
        CHECKPOINT_READ,
        TELEMETRY_FLUSH,
        NETLIST_READ,
        POOL_BUILD,
    ];
}

/// What a firing failpoint injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient `io::Error` (`ErrorKind::Interrupted`) — retryable.
    Io,
    /// A persistent `io::Error` that fires on every evaluation from the
    /// `N`th onward — models a full disk or revoked permissions.
    Full,
    /// A torn write/read: only a deterministic strict prefix of the
    /// payload goes through, and the operation reports success.
    Torn,
    /// A panic at the site.
    Panic,
}

impl FaultKind {
    /// The grammar keyword for this kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Io => "io",
            FaultKind::Full => "full",
            FaultKind::Torn => "torn",
            FaultKind::Panic => "panic",
        }
    }

    fn parse(text: &str) -> Option<FaultKind> {
        match text {
            "io" => Some(FaultKind::Io),
            "full" => Some(FaultKind::Full),
            "torn" => Some(FaultKind::Torn),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// One `site:kind@N` entry of a failpoint spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailpointEntry {
    /// The site this entry arms (one of [`sites::ALL`]).
    pub site: String,
    /// What to inject when it fires.
    pub kind: FaultKind,
    /// The 1-based ordinal (or key value) on which it fires.
    pub n: u64,
}

impl fmt::Display for FailpointEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}@{}", self.site, self.kind.label(), self.n)
    }
}

/// A parsed, validated failpoint specification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailpointSpec {
    /// The entries in spec order; the first firing entry for a site wins.
    pub entries: Vec<FailpointEntry>,
}

impl fmt::Display for FailpointSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{entry}")?;
        }
        Ok(())
    }
}

impl FailpointSpec {
    /// Parses a comma-separated `site:kind@N` list. The parse is strict:
    /// unknown sites or kinds, missing separators, and zero or
    /// non-numeric ordinals are all errors.
    pub fn parse(text: &str) -> Result<FailpointSpec, String> {
        let text = text.trim();
        if text.is_empty() {
            return Err("failpoints: empty spec".to_owned());
        }
        let mut entries = Vec::new();
        for raw in text.split(',') {
            let raw = raw.trim();
            let (head, ordinal) = raw
                .rsplit_once('@')
                .ok_or_else(|| format!("failpoints: `{raw}` is missing `@N`"))?;
            let (site, kind_text) = head
                .rsplit_once(':')
                .ok_or_else(|| format!("failpoints: `{raw}` is missing `:kind`"))?;
            if !sites::ALL.contains(&site) {
                return Err(format!(
                    "failpoints: unknown site `{site}` (known: {})",
                    sites::ALL.join(", ")
                ));
            }
            let kind = FaultKind::parse(kind_text)
                .ok_or_else(|| format!("failpoints: unknown kind `{kind_text}` in `{raw}`"))?;
            let n: u64 = ordinal
                .parse()
                .map_err(|_| format!("failpoints: `{ordinal}` is not an ordinal in `{raw}`"))?;
            if n == 0 {
                return Err(format!("failpoints: ordinal must be >= 1 in `{raw}`"));
            }
            entries.push(FailpointEntry {
                site: site.to_owned(),
                kind,
                n,
            });
        }
        Ok(FailpointSpec { entries })
    }
}

/// One armed entry with its evaluation counter.
#[derive(Clone, Debug)]
struct ArmedEntry {
    site: String,
    kind: FaultKind,
    n: u64,
    evals: u64,
}

/// Process-global registry. The `ACTIVE` flag is a lock-free fast path
/// so un-armed hot sites (worker builds) pay one relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<ArmedEntry>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<ArmedEntry>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `spec`, replacing any previous installation and resetting
/// all evaluation counters (each installation is an isolated scenario).
pub fn install(spec: &FailpointSpec) {
    let mut armed = registry();
    armed.clear();
    armed.extend(spec.entries.iter().map(|e| ArmedEntry {
        site: e.site.clone(),
        kind: e.kind,
        n: e.n,
        evals: 0,
    }));
    ACTIVE.store(!armed.is_empty(), Ordering::Release);
}

/// Installs the `PDF_FAILPOINTS` spec if set. Returns whether a spec was
/// installed.
///
/// # Errors
///
/// A [`KnobError`] when the variable is set but malformed.
pub fn install_from_env() -> Result<bool, KnobError> {
    match pdf_knobs::FAILPOINTS.read(None, FailpointSpec::parse)? {
        Some(spec) => {
            install(&spec);
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Disarms every failpoint.
pub fn clear() {
    let mut armed = registry();
    armed.clear();
    ACTIVE.store(false, Ordering::Release);
}

/// Whether any failpoint is currently armed.
#[must_use]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// A fault to inject, returned by a firing evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Fail with a transient (retryable) error.
    Transient,
    /// Fail with a persistent error.
    Persistent,
    /// Write/read only a strict prefix and report success; `seed` drives
    /// the deterministic prefix length via [`Injection::torn_len`].
    Torn {
        /// Deterministic per-firing seed.
        seed: u64,
    },
    /// Panic at the site.
    Panic,
}

impl Injection {
    /// The `io::Error` this injection stands for, or `None` for
    /// torn/panic injections.
    #[must_use]
    pub fn error(&self) -> Option<io::Error> {
        match self {
            Injection::Transient => Some(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient failure (pdf-chaos)",
            )),
            Injection::Persistent => {
                Some(io::Error::other("injected persistent failure (pdf-chaos)"))
            }
            Injection::Torn { .. } | Injection::Panic => None,
        }
    }

    /// The deterministic torn-prefix length for a payload of `full`
    /// bytes: always a strict prefix (`< full` whenever `full > 0`).
    #[must_use]
    pub fn torn_len(&self, full: usize) -> usize {
        match self {
            Injection::Torn { seed } if full > 0 => {
                usize::try_from(seed % full as u64).unwrap_or(0)
            }
            _ => 0,
        }
    }
}

/// SplitMix64 — the same finalizer the generator uses for build seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    site.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn injection_for(entry: &ArmedEntry, ordinal: u64) -> Injection {
    match entry.kind {
        FaultKind::Io => Injection::Transient,
        FaultKind::Full => Injection::Persistent,
        FaultKind::Torn => Injection::Torn {
            seed: splitmix64(site_hash(&entry.site) ^ entry.n ^ ordinal.rotate_left(17)),
        },
        FaultKind::Panic => Injection::Panic,
    }
}

/// Ordinal evaluation: the `N`th call for a site fires its entry
/// (`full` entries fire on every call from the `N`th onward). Intended
/// for serially-evaluated sites — checkpoint and report I/O happen on
/// the driver thread, so their ordinals are schedule-independent.
pub fn evaluate(site: &str) -> Option<Injection> {
    if !is_active() {
        return None;
    }
    let mut armed = registry();
    let mut fired = None;
    for entry in armed.iter_mut().filter(|e| e.site == site) {
        entry.evals += 1;
        let fires = match entry.kind {
            FaultKind::Full => entry.evals >= entry.n,
            _ => entry.evals == entry.n,
        };
        if fires && fired.is_none() {
            fired = Some(injection_for(entry, entry.evals));
        }
    }
    fired
}

/// Keyed evaluation: fires when `key` equals the entry's `N` (`full`
/// fires for every `key >= N`). Keyed evaluation never touches the
/// ordinal counters, so it is safe from worker threads: firing depends
/// only on the caller-supplied key (e.g. a fault index), never on the
/// schedule.
pub fn evaluate_keyed(site: &str, key: u64) -> Option<Injection> {
    if !is_active() {
        return None;
    }
    let armed = registry();
    for entry in armed.iter().filter(|e| e.site == site) {
        let fires = match entry.kind {
            FaultKind::Full => key >= entry.n,
            _ => key == entry.n,
        };
        if fires {
            return Some(injection_for(entry, key));
        }
    }
    None
}

/// Bounded retry policy for transient I/O errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1); 1 means no retries.
    pub attempts: u32,
    /// Base backoff, doubled after every failed attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

/// Whether an error is worth retrying under [`with_retry`].
#[must_use]
pub fn is_transient(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op` up to `policy.attempts` times, sleeping an exponentially
/// doubled backoff between attempts; only transient errors are retried.
/// Returns the final result plus the number of retries performed, so
/// call sites can count `io_retries` telemetry.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> io::Result<T>,
) -> (io::Result<T>, u32) {
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(value) => return (Ok(value), retries),
            Err(error) => {
                if retries + 1 >= policy.attempts || !is_transient(&error) {
                    return (Err(error), retries);
                }
                let pause = policy.backoff.saturating_mul(1 << retries.min(16));
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and env are process-global; tests serialize here.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn spec_parse_round_trips_and_validates() {
        let spec =
            FailpointSpec::parse("checkpoint.write:io@3, telemetry.flush:torn@7").expect("valid");
        assert_eq!(spec.entries.len(), 2);
        assert_eq!(spec.entries[0].kind, FaultKind::Io);
        assert_eq!(spec.entries[1].n, 7);
        assert_eq!(
            spec.to_string(),
            "checkpoint.write:io@3,telemetry.flush:torn@7"
        );
        let reparsed = FailpointSpec::parse(&spec.to_string()).expect("round trip");
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn spec_parse_rejects_malformed_entries() {
        for bad in [
            "",
            "checkpoint.write:io",
            "checkpoint.write@3",
            "nosuch.site:io@1",
            "checkpoint.write:explode@1",
            "checkpoint.write:io@0",
            "checkpoint.write:io@x",
        ] {
            assert!(FailpointSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn ordinal_evaluation_fires_exactly_once_except_full() {
        let _serial = lock();
        install(&FailpointSpec::parse("checkpoint.write:io@2").expect("valid"));
        assert_eq!(evaluate(sites::CHECKPOINT_WRITE), None);
        assert_eq!(
            evaluate(sites::CHECKPOINT_WRITE),
            Some(Injection::Transient)
        );
        assert_eq!(evaluate(sites::CHECKPOINT_WRITE), None);
        assert_eq!(evaluate(sites::CHECKPOINT_READ), None, "other site inert");

        install(&FailpointSpec::parse("checkpoint.write:full@2").expect("valid"));
        assert_eq!(evaluate(sites::CHECKPOINT_WRITE), None);
        for _ in 0..3 {
            assert_eq!(
                evaluate(sites::CHECKPOINT_WRITE),
                Some(Injection::Persistent),
                "full is persistent"
            );
        }
        clear();
        assert!(!is_active());
        assert_eq!(evaluate(sites::CHECKPOINT_WRITE), None);
    }

    #[test]
    fn install_resets_ordinal_counters() {
        let _serial = lock();
        let spec = FailpointSpec::parse("netlist.read:io@1").expect("valid");
        install(&spec);
        assert!(evaluate(sites::NETLIST_READ).is_some());
        install(&spec);
        assert!(
            evaluate(sites::NETLIST_READ).is_some(),
            "reinstall must reset counters"
        );
        clear();
    }

    #[test]
    fn keyed_evaluation_depends_only_on_the_key() {
        let _serial = lock();
        install(&FailpointSpec::parse("pool.build:panic@5").expect("valid"));
        for _ in 0..4 {
            assert_eq!(evaluate_keyed(sites::POOL_BUILD, 3), None);
            assert_eq!(
                evaluate_keyed(sites::POOL_BUILD, 5),
                Some(Injection::Panic),
                "keyed firing is idempotent"
            );
        }
        clear();
    }

    #[test]
    fn torn_seed_is_deterministic_and_prefix_is_strict() {
        let _serial = lock();
        let spec = FailpointSpec::parse("checkpoint.write:torn@1").expect("valid");
        install(&spec);
        let first = evaluate(sites::CHECKPOINT_WRITE).expect("fires");
        install(&spec);
        let second = evaluate(sites::CHECKPOINT_WRITE).expect("fires");
        assert_eq!(first, second, "same site/ordinal, same seed");
        for len in [1usize, 2, 100, 4096] {
            let torn = first.torn_len(len);
            assert!(torn < len, "torn prefix must be strict for len={len}");
        }
        assert_eq!(first.torn_len(0), 0);
        clear();
    }

    #[test]
    fn with_retry_retries_only_transient_errors() {
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let (result, retries) = with_retry(&policy, || {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.expect("heals"), 3);
        assert_eq!(retries, 2);

        let mut calls = 0;
        let (result, retries) = with_retry(&policy, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::other("persistent"))
        });
        assert!(result.is_err());
        assert_eq!((calls, retries), (1, 0), "persistent errors never retry");

        let mut calls = 0;
        let (result, retries) = with_retry(&policy, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
        });
        assert!(result.is_err());
        assert_eq!((calls, retries), (3, 2), "attempts bound the loop");
    }

    // Malformed and unset values are covered by the knob-table suite;
    // this pins that a valid value takes effect, and that the retired
    // retry variable is refused as unknown rather than ignored.
    #[test]
    fn env_installation_is_strict() {
        let failpoints = pdf_knobs::FAILPOINTS.env;
        let _serial = lock();
        std::env::set_var(failpoints, "checkpoint.read:io@1");
        assert_eq!(install_from_env(), Ok(true));
        assert!(is_active());
        std::env::remove_var(failpoints);
        clear();

        // Every program reports a refused environment through
        // `KnobError::exit`, which exits with status 2.
        std::env::set_var("PDF_IO_RETRY", "4@2ms");
        let refused = pdf_knobs::validate(pdf_knobs::Program::Pdfatpg);
        std::env::remove_var("PDF_IO_RETRY");
        let error = refused.expect_err("PDF_IO_RETRY is not a knob");
        assert_eq!(error.name, "PDF_IO_RETRY");
        assert_eq!(error.value, "4@2ms");
        assert!(
            error.expected.starts_with("no such PDF_* variable"),
            "{error}"
        );
    }
}
