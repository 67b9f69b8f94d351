//! One end-to-end sample: a fresh child process that runs the real user
//! surface, `pdf_cli::run(["atpg", …])`, and reports its own wall time,
//! CPU time and peak resident memory.
//!
//! The benchmark binary re-executes itself for every sample, one child at
//! a time, so the child is the only process generating load.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use pdf_telemetry::Json;

use crate::flow::Tracer;
use crate::workload::Plan;

/// Hidden first argument selecting the sample child.
pub const CHILD_ATPG: &str = "--child-atpg";
/// Hidden first argument selecting the set-up child.
pub const CHILD_SETUP: &str = "--child-setup";
/// Hidden first argument selecting the traced child.
pub const CHILD_TRACE: &str = "--child-trace";

/// What one sample child measured.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Wall seconds of the `pdf_cli::run` call (load, lint and atpg).
    pub atpg_s: f64,
    /// User plus system CPU seconds over the same call, all threads.
    pub cpu_s: f64,
    /// The child's peak resident set (`VmHWM`), in MiB.
    pub peak_rss_mb: f64,
    /// The text the CLI returned for stdout.
    pub stdout: String,
}

/// Runs `exe <mode> <args…>` with every `PDF_*` variable removed, waits
/// for it, and parses the JSON document it prints.
///
/// # Errors
///
/// A message when the child cannot start, exits non-zero, or prints no
/// JSON.
pub fn spawn(exe: &Path, mode: &str, args: &[String]) -> Result<Json, String> {
    let mut command = Command::new(exe);
    command.arg(mode).args(args);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PDF_") {
            command.env_remove(key);
        }
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!("child {mode} failed ({}): {stderr}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(&stdout).map_err(|e| format!("child {mode} printed no JSON ({e}): {stderr}"))
}

/// Runs one sample child for the `pdfatpg` command line `args`.
///
/// # Errors
///
/// A message when the child fails or the CLI returned an error.
pub fn run_sample(exe: &Path, args: &[String]) -> Result<Sample, String> {
    let doc = spawn(exe, CHILD_ATPG, args)?;
    if let Some(error) = doc.get("error").and_then(Json::as_str) {
        return Err(format!("pdfatpg failed: {error}"));
    }
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("sample report lacks `{key}`"))
    };
    Ok(Sample {
        atpg_s: num("atpg_s")?,
        cpu_s: num("cpu_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        stdout: doc
            .get("stdout")
            .and_then(Json::as_str)
            .ok_or("sample report lacks `stdout`")?
            .to_owned(),
    })
}

/// The sample child's body: times `pdf_cli::run(args)` and returns the
/// report [`run_sample`] parses.
///
/// # Errors
///
/// A message when `/proc` cannot be read.
pub fn child_atpg(args: &[String]) -> Result<Json, String> {
    let cpu_before = cpu_seconds()?;
    let start = Instant::now();
    let result = pdf_cli::run(args);
    let atpg_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu_before;
    let report = Json::object()
        .field("atpg_s", atpg_s)
        .field("cpu_s", cpu_s)
        .field("peak_rss_mb", peak_rss_mb()?);
    Ok(match result {
        Ok(stdout) => report.field("stdout", stdout),
        Err(e) => report.field("error", format!("exit {}: {}", e.code, e.message)),
    })
}

/// The set-up child's body: everything the `atpg` command line `args`
/// does before generation starts, in a fresh process — the first
/// (process-wide, cached) tile-width selection, loading and linting the
/// circuit, the static analyses it asks for, enumeration, elimination and
/// the target split ([`crate::flow::prepare`]).
///
/// # Errors
///
/// A message when the command line or the circuit is refused.
pub fn child_setup(args: &[String]) -> Result<Json, String> {
    let plan = Plan::parse(args)?;
    let start = Instant::now();
    let targets = crate::flow::prepare(&plan, &mut Tracer::new("setup"))?;
    let setup_s = start.elapsed().as_secs_f64();
    std::hint::black_box(targets);
    Ok(Json::object()
        .field("setup_s", setup_s)
        .field("width", pdf_atpg::SimWidth::auto().lanes()))
}

/// User plus system CPU time of this process and all its threads, dead or
/// alive, from `/proc/self/stat` (in clock ticks of 1/100 s, the fixed
/// `USER_HZ` of Linux's `/proc` interface).
///
/// # Errors
///
/// A message when the file is missing or malformed.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name may contain spaces; fields resume after its `)`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // Fields 14 (utime) and 15 (stime), counted from 1 at the pid; the
    // first field after `)` is field 3.
    let tick = |field: usize| -> Result<f64, String> {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| format!("/proc/self/stat: no field {field}"))
    };
    Ok(tick(14)? + tick(15)?)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// A message when `/proc/self/status` lacks the field.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_owned())
}
