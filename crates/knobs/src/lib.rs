//! The `PDF_*` environment knobs: one table, one reader.
//!
//! Every knob the workspace reads is declared once in [`KNOBS`] — its
//! variable, flag twin, [`Kind`], default, the programs that read it and
//! a line of help — and read through [`Knob::read`] or the typed helpers
//! built on it. One rule applies to every knob:
//!
//! * the value is trimmed, and an empty variable means unset;
//! * a value that is not UTF-8 is an error;
//! * a value that does not fit the knob's kind is an error, and every
//!   error reads ``invalid PDF_X=`v`: <expected>`` ([`KnobError`]);
//! * a flag beats its environment twin, but a set twin is still
//!   validated;
//! * a set `PDF_*` variable that is not in [`KNOBS`] is an error.
//!
//! [`Kind::check`] is the one value check: `pdfatpg` runs its value flags
//! through it too, so a bad `--x` reads ``invalid --x=`v`: <expected>``.
//! A [`Kind::Spec`] knob holds text in a grammar the owning crate parses
//! (a time budget, a failpoint list, a retry policy): the owner passes its
//! parser to [`Knob::read`], and its errors keep the same shape. Programs
//! check their knobs at startup with `pdf_runctl::validate_env`, which
//! runs [`validate`] plus the spec parsers, so a malformed knob aborts
//! before any work. The crate is dependency-free so that every crate can
//! read its knobs through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// A program that reads knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    /// The `pdfatpg` command-line tool.
    Pdfatpg,
    /// The paper-reproduction binaries of `pdf-experiments`.
    Experiments,
    /// The `*_throughput` binaries of `pdf-bench`.
    Bench,
}

impl Program {
    /// The name the README's "read by" column uses.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Program::Pdfatpg => "pdfatpg",
            Program::Experiments => "experiments",
            Program::Bench => "bench",
        }
    }
}

/// The shape of a knob's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `1`/`on`/`true` or `0`/`off`/`false`, in any case.
    Switch,
    /// A positive integer.
    Count,
    /// A non-negative integer.
    Number,
    /// One of the listed words, in any case.
    Choice(&'static [&'static str]),
    /// A comma-separated list of at least one name.
    Names,
    /// A comma-separated list of at least one non-negative integer.
    Numbers,
    /// Free text: a path or a name.
    Text,
    /// Text in a grammar the owning crate parses.
    Spec,
}

impl Kind {
    /// The error for a `raw` value of `name` that does not fit the kind.
    fn error(self, name: &str, raw: &str) -> KnobError {
        let expected = match self {
            Kind::Switch => "expected on/off (or 1/0, true/false)".to_owned(),
            Kind::Count => "expected a positive integer".to_owned(),
            Kind::Number => "expected a non-negative integer".to_owned(),
            Kind::Choice(words) => format!("expected one of {}", words.join("|")),
            Kind::Names => "expected a comma-separated list of names".to_owned(),
            Kind::Numbers => "expected a comma-separated list of integers".to_owned(),
            Kind::Text | Kind::Spec => "expected text".to_owned(),
        };
        KnobError {
            name: name.to_owned(),
            value: raw.to_owned(),
            expected,
        }
    }

    /// Whether a trimmed, non-empty `text` fits this kind.
    fn accepts(self, text: &str) -> bool {
        match self {
            Kind::Switch => switch_value(text).is_some(),
            Kind::Count => text.parse::<usize>().is_ok_and(|n| n > 0),
            Kind::Number => text.parse::<u64>().is_ok(),
            Kind::Choice(words) => words.iter().any(|w| w.eq_ignore_ascii_case(text)),
            Kind::Names => list_items(text).next().is_some(),
            Kind::Numbers => {
                list_items(text).next().is_some()
                    && list_items(text).all(|s| s.parse::<u64>().is_ok())
            }
            Kind::Text | Kind::Spec => true,
        }
    }

    /// The one value check, for a variable (`PDF_X`) or a flag (`--x`)
    /// called `name`: `raw`, trimmed, must fit the kind. Returns the
    /// trimmed text.
    ///
    /// # Errors
    ///
    /// A [`KnobError`] displaying ``invalid <name>=`<raw>`: <expected>``.
    pub fn check<'a>(self, name: &str, raw: &'a str) -> Result<&'a str, KnobError> {
        let text = raw.trim();
        let fits = self.accepts(text);
        fits.then_some(text).ok_or_else(|| self.error(name, raw))
    }

    /// A [`Kind::Count`] or [`Kind::Number`] value as `T`.
    ///
    /// # Errors
    ///
    /// See [`Kind::check`]; also when the value does not fit `T`.
    pub fn number<T: FromStr>(self, name: &str, raw: &str) -> Result<T, KnobError> {
        (self.check(name, raw)?.parse()).map_err(|_| self.error(name, raw))
    }

    /// A [`Kind::Names`] or [`Kind::Numbers`] list, its items as `T`.
    ///
    /// # Errors
    ///
    /// See [`Kind::check`]; also when an item does not fit `T`.
    pub fn list<T: FromStr>(self, name: &str, raw: &str) -> Result<Vec<T>, KnobError> {
        list_items(self.check(name, raw)?)
            .map(|item| item.parse().map_err(|_| self.error(name, raw)))
            .collect()
    }
}

fn switch_value(text: &str) -> Option<bool> {
    match text.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

fn list_items(text: &str) -> impl Iterator<Item = &str> {
    text.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Parses a duration of the [`Kind::Spec`] grammars (a time budget, a
/// retry backoff): a non-negative integer with a mandatory unit, `us`,
/// `ms`, `s` or `m`.
///
/// # Errors
///
/// A message naming what is malformed: an empty text, a missing number,
/// a value past `u64`, a missing or unknown unit.
pub fn parse_duration(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    if text.is_empty() {
        return Err("empty duration".to_owned());
    }
    let digits = text.chars().take_while(char::is_ascii_digit).count();
    if digits == 0 {
        return Err(format!("duration `{text}` must start with digits"));
    }
    let (number, unit) = text.split_at(digits);
    let n: u64 = number
        .parse()
        .map_err(|_| format!("duration value `{number}` out of range"))?;
    match unit {
        "us" => Ok(Duration::from_micros(n)),
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        "m" => Ok(Duration::from_secs(n.saturating_mul(60))),
        "" => Err(format!(
            "duration `{text}` is missing a unit (us, ms, s, m)"
        )),
        other => Err(format!("unknown duration unit `{other}` (us, ms, s, m)")),
    }
}

/// A knob value that does not fit: displays as
/// ``invalid PDF_X=`v`: <expected>`` (or ``invalid --x=`v`: …`` for a
/// flag).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobError {
    /// The variable (`PDF_X`) or flag (`--x`) that holds the value.
    pub name: String,
    /// The offending value, as given.
    pub value: String,
    /// What the value should have been.
    pub expected: String,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}=`{}`: {}",
            self.name, self.value, self.expected
        )
    }
}

impl std::error::Error for KnobError {}

impl KnobError {
    /// Prints `error: <self>` and exits with status 2, the workspace's
    /// operational-error status.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2)
    }
}

/// One declared knob.
#[derive(Debug)]
pub struct Knob {
    /// The environment variable.
    pub env: &'static str,
    /// The `pdfatpg` flag twin, without the leading `--`.
    pub flag: Option<&'static str>,
    /// The shape of the value.
    pub kind: Kind,
    /// The default, as documented.
    pub default: &'static str,
    /// The programs that read the knob.
    pub read_by: &'static [Program],
    /// One line of help.
    pub help: &'static str,
}

impl Knob {
    /// The one reader. Returns the value of `flag` when given, else of
    /// the environment variable (`None` when unset or empty). Each source
    /// goes through [`Kind::check`] and then `parse`, whose error message
    /// becomes the [`KnobError`]'s expectation. The variable is read and
    /// validated even when the flag wins.
    ///
    /// # Errors
    ///
    /// A [`KnobError`] naming the source and its value.
    pub fn read<T>(
        &self,
        flag: Option<&str>,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, KnobError> {
        let env = match std::env::var_os(self.env).map(std::ffi::OsString::into_string) {
            None => None,
            Some(Ok(text)) if text.trim().is_empty() => None,
            Some(Ok(text)) => Some(self.parse(self.env, &text, &parse)?),
            Some(Err(raw)) => {
                return Err(KnobError {
                    name: self.env.to_owned(),
                    value: raw.to_string_lossy().into_owned(),
                    expected: "not valid UTF-8".to_owned(),
                })
            }
        };
        match flag {
            Some(text) => {
                let name = format!("--{}", self.flag.unwrap_or(self.env));
                self.parse(&name, text, &parse).map(Some)
            }
            None => Ok(env),
        }
    }

    fn parse<T>(
        &self,
        name: &str,
        raw: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, KnobError> {
        let text = self.kind.check(name, raw)?;
        parse(text).map_err(|expected| KnobError {
            name: name.to_owned(),
            value: raw.to_owned(),
            expected,
        })
    }

    /// The variable as text: a [`Kind::Text`] path or name, or any knob's
    /// checked value.
    ///
    /// # Errors
    ///
    /// See [`Knob::read`].
    pub fn text(&self) -> Result<Option<String>, KnobError> {
        self.read(None, |text| Ok(text.to_owned()))
    }

    /// A [`Kind::Switch`]: on when the bare flag was given or the
    /// variable is on.
    ///
    /// # Errors
    ///
    /// See [`Knob::read`].
    pub fn switch(&self, flag: bool) -> Result<bool, KnobError> {
        let env = self.read(None, |text| Ok(switch_value(text) == Some(true)))?;
        Ok(flag || env.unwrap_or(false))
    }

    /// The variable as a [`Kind::Count`] or [`Kind::Number`] of type `T`.
    ///
    /// # Errors
    ///
    /// See [`Kind::number`].
    pub fn number<T: FromStr>(&self) -> Result<Option<T>, KnobError> {
        self.read(None, |text| {
            self.kind.number(self.env, text).map_err(|e| e.expected)
        })
    }

    /// The variable as a [`Kind::Names`] or [`Kind::Numbers`] list.
    ///
    /// # Errors
    ///
    /// See [`Kind::list`].
    pub fn list<T: FromStr>(&self) -> Result<Option<Vec<T>>, KnobError> {
        self.read(None, |text| {
            self.kind.list(self.env, text).map_err(|e| e.expected)
        })
    }
}

/// Refuses any set `PDF_*` variable not in [`KNOBS`], so a misspelt one
/// is never silently ignored, then checks every knob `program` reads
/// against its kind (a [`Kind::Spec`] only for UTF-8: its owner parses).
///
/// # Errors
///
/// The first unknown variable by name, else the first [`KnobError`].
pub fn validate(program: Program) -> Result<(), KnobError> {
    let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
    let unknown = std::env::vars_os()
        .map(|(name, value)| (lossy(name), lossy(value)))
        .filter(|(name, _)| name.starts_with("PDF_") && KNOBS.iter().all(|k| k.env != name))
        .min();
    if let Some((name, value)) = unknown {
        let expected = "no such PDF_* variable (the README lists them; other settings are flags)";
        return Err(KnobError {
            name,
            value,
            expected: expected.to_owned(),
        });
    }
    KNOBS
        .iter()
        .filter(|knob| knob.read_by.contains(&program))
        .try_for_each(|knob| knob.text().map(drop))
}

/// The `ENVIRONMENT:` help section for `program`, in table order.
#[must_use]
pub fn help_section(program: Program) -> String {
    const INDENT: usize = 26;
    const WIDTH: usize = 76;
    let mut out = String::from("ENVIRONMENT:\n");
    for knob in KNOBS.iter().filter(|k| k.read_by.contains(&program)) {
        let overrides = knob
            .flag
            .map_or(String::new(), |f| format!("; --{f} overrides"));
        let text = format!("{} (default: {}{overrides})", knob.help, knob.default);
        let mut line = format!("    {:<width$}", knob.env, width = INDENT - 4);
        for word in text.split_whitespace() {
            if line.len() + word.len() >= WIDTH && line.len() > INDENT {
                out.push_str(line.trim_end());
                out.push('\n');
                line = " ".repeat(INDENT);
            }
            line.push_str(word);
            line.push(' ');
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Declares each knob as a `pub static` and lists them all in [`KNOBS`].
macro_rules! knobs {
    ($($name:ident: $env:literal, $flag:expr, $kind:expr, $default:literal,
       [$($program:ident),+], $help:literal;)+) => {
        $(
            #[doc = concat!("`", $env, "`: ", $help, ".")]
            pub static $name: Knob = Knob {
                env: $env,
                flag: $flag,
                kind: $kind,
                default: $default,
                read_by: &[$(Program::$program),+],
                help: $help,
            };
        )+

        /// Every knob, in documentation order.
        pub static KNOBS: &[&Knob] = &[$(&$name),+];
    };
}

knobs! {
    NP: "PDF_NP", None, Kind::Number, "10000", [Experiments],
        "enumeration cap N_P, in fault units";
    NP0: "PDF_NP0", None, Kind::Number, "1000", [Experiments],
        "P0 sizing threshold N_P0";
    SEED: "PDF_SEED", None, Kind::Number, "2002", [Experiments],
        "master seed for all randomized decisions";
    ATTEMPTS: "PDF_ATTEMPTS", None, Kind::Number, "1", [Experiments],
        "justification completion groups per call";
    CIRCUITS: "PDF_CIRCUITS", None, Kind::Names, "all", [Experiments],
        "comma-separated circuit allow-list";
    LINT: "PDF_LINT", None, Kind::Choice(&["deny", "warn", "off"]), "deny",
        [Pdfatpg, Experiments, Bench],
        "`deny`, `warn` or `off`: whether the automatic structural lint after circuit \
         loading aborts on errors, prints them, or is skipped";
    STATIC_LEARNING: "PDF_STATIC_LEARNING", Some("static-learning"), Kind::Switch, "off",
        [Pdfatpg, Experiments],
        "static implication learning for fault elimination; off is byte-identical to \
         runs without it";
    SENSITIZE: "PDF_SENSITIZE", Some("sensitize"), Kind::Switch, "off", [Pdfatpg, Experiments],
        "static sensitizability pass: provably false path faults are pre-eliminated and \
         the semantic lints (PDL008+) join the automatic preflight; off is byte-identical \
         to runs without it";
    TELEMETRY: "PDF_TELEMETRY", Some("telemetry"), Kind::Text, "off",
        [Pdfatpg, Experiments, Bench],
        "path of a JSON run report written at exit; `0` = off";
    TIME_BUDGET: "PDF_TIME_BUDGET", Some("time-budget"), Kind::Spec, "off",
        [Pdfatpg, Experiments, Bench],
        "wall-clock budget, e.g. `30s` or `global=60s,compact=5s`; on exhaustion the \
         partial test set is finalized";
    FAILPOINTS: "PDF_FAILPOINTS", Some("failpoints"), Kind::Spec, "off", [Pdfatpg, Bench],
        "deterministic fault injection, a comma-separated `site:kind@N` list; sites \
         checkpoint.write, checkpoint.read, telemetry.flush, netlist.read, pool.build; \
         kinds io, full, torn, panic";
    BENCH_CIRCUIT: "PDF_BENCH_CIRCUIT", None, Kind::Text, "s9234*", [Bench],
        "circuit the throughput binaries measure";
    BENCH_TESTS: "PDF_BENCH_TESTS", None, Kind::Number, "2048 / 256", [Bench],
        "tests for sim_throughput / justification calls for justify_throughput";
    BENCH_NP: "PDF_BENCH_NP", None, Kind::Number, "2000", [Bench],
        "enumeration cap for pipeline_throughput";
    BENCH_NP0: "PDF_BENCH_NP0", None, Kind::Number, "200", [Bench],
        "split threshold for pipeline_throughput";
    WRITE_MD: "PDF_WRITE_MD", None, Kind::Text, "off", [Experiments],
        "path of the all_tables markdown report";
}
