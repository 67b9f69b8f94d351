//! Checkpoint writes run on a writer thread, one in flight, joined by
//! the next write or by the run's return. Seen from outside, `pdfatpg`
//! must behave as if the commit thread wrote each checkpoint itself: the
//! same test file, the same files on disk, the same warnings, exit
//! status and panic message under each `checkpoint.write` failpoint, and
//! the same telemetry at every thread count.
//!
//! The expected values are what the synchronous writer produced on the
//! same command lines: `b09 --np0 60 --seed 7 --checkpoint-every 2`
//! writes 8 generations, one journal record each.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pdf_atpg::Checkpoint;
use pdf_telemetry::{RunReport, SpanReport};

/// The b09 line; every run appends its checkpoint and output paths.
const B09: &[&str] = &[
    "atpg",
    "b09",
    "--np0",
    "60",
    "--seed",
    "7",
    "--checkpoint-every",
    "2",
];
/// Checkpoint generations the clean b09 line writes.
const B09_WRITES: u64 = 8;
const WARNING: &str = "warning: checkpoint write failed";

/// A fresh directory for one run's files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pdf_checkpoint_writes_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// Runs `pdfatpg args… --checkpoint dir/ck.json --output dir/t.txt
/// --telemetry dir/report.json` with no `PDF_*` variable set.
fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdfatpg"))
        .env_clear()
        .envs(std::env::vars_os().filter(|(name, _)| !name.to_string_lossy().starts_with("PDF_")))
        .args(args)
        .arg("--checkpoint")
        .arg(dir.join("ck.json"))
        .arg("--output")
        .arg(dir.join("t.txt"))
        .arg("--telemetry")
        .arg(dir.join("report.json"))
        .output()
        .expect("spawn pdfatpg")
}

fn with_failpoint<'a>(args: &[&'a str], spec: &'a str) -> Vec<&'a str> {
    [args, &["--failpoints", spec]].concat()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn report(dir: &Path) -> RunReport {
    let text = std::fs::read_to_string(dir.join("report.json")).expect("report written");
    RunReport::from_json(&text).expect("report parses")
}

fn counter(report: &RunReport, name: &str) -> Option<u64> {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

fn load(path: &Path) -> Checkpoint {
    Checkpoint::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A clean b09 run: its directory, for the chaos runs to compare against.
fn clean_b09(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let out = run(&dir, B09);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains(WARNING));
    assert_eq!(load(&dir.join("ck.json")).generation, B09_WRITES);
    dir
}

#[test]
fn a_transient_write_error_heals_without_a_warning() {
    let clean = clean_b09("io_clean");
    let dir = scratch("io");
    let out = run(&dir, &with_failpoint(B09, "checkpoint.write:io@3"));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains(WARNING), "{}", stderr(&out));
    for file in ["t.txt", "ck.json"] {
        let read = |d: &Path| std::fs::read(d.join(file)).expect(file);
        assert!(read(&clean) == read(&dir), "{file} differs");
    }
    let report = report(&dir);
    assert_eq!(counter(&report, "checkpoints_written"), Some(B09_WRITES));
    assert_eq!(counter(&report, "io_retries"), Some(1));
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_persistent_write_error_warns_once_and_stops_the_count() {
    let clean = clean_b09("full_clean");
    let dir = scratch("full");
    let out = run(&dir, &with_failpoint(B09, "checkpoint.write:full@3"));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stderr(&out).matches(WARNING).count(), 1, "{}", stderr(&out));
    let tests = |d: &Path| std::fs::read(d.join("t.txt")).expect("test file");
    assert!(tests(&clean) == tests(&dir), "the test file differs");
    // Write 3 failed, and so did every later write: the journal ends at
    // generation 2.
    let saved = load(&dir.join("ck.json"));
    assert_eq!(saved.generation, 2);
    assert_eq!(saved.counter("checkpoints_written"), 2);
    let report = report(&dir);
    assert_eq!(counter(&report, "checkpoints_written"), Some(2));
    assert_eq!(counter(&report, "failpoints_hit"), Some(B09_WRITES - 2));
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_final_write_resumes_from_the_record_before_it() {
    let clean = clean_b09("torn_clean");
    let dir = scratch("torn");
    let spec = format!("checkpoint.write:torn@{B09_WRITES}");
    let out = run(&dir, &with_failpoint(B09, &spec));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let path = dir.join("ck.json");
    assert!(Checkpoint::load(&path).is_err(), "the final write is torn");
    let resume = path.to_str().expect("UTF-8 path").to_owned();
    let resumed = scratch("torn_resumed");
    let out = run(&resumed, &[B09, &["--resume", &resume]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let note = format!("recovered generation {}", B09_WRITES - 1);
    assert!(stderr(&out).contains(&note), "{}", stderr(&out));
    let tests = |d: &Path| std::fs::read(d.join("t.txt")).expect("test file");
    assert!(
        tests(&clean) == tests(&resumed),
        "the resumed test file differs"
    );
    for d in [clean, dir, resumed] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn a_panicking_write_fails_the_run_as_on_the_commit_thread() {
    let dir = scratch("panic");
    let out = run(&dir, &with_failpoint(B09, "checkpoint.write:panic@3"));
    let stderr = stderr(&out);
    assert_eq!(out.status.code(), Some(101), "{stderr}");
    assert!(stderr.contains("thread 'main'"), "{stderr}");
    assert!(
        stderr.contains("panicked at") && stderr.contains("injected failpoint checkpoint.write"),
        "{stderr}"
    );
    // The panic came at write 3, before it wrote anything; nothing was
    // written after it, and no test file either.
    assert_eq!(load(&dir.join("ck.json")).generation, 2);
    assert!(!dir.join("t.txt").exists());
    let report = report(&dir);
    assert_eq!(counter(&report, "checkpoints_written"), Some(2));
    assert_eq!(counter(&report, "failpoints_hit"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The span tree as `(depth, name, calls)` rows, without timings.
fn span_shape(spans: &[SpanReport]) -> Vec<(usize, String, u64)> {
    fn walk(span: &SpanReport, depth: usize, out: &mut Vec<(usize, String, u64)>) {
        out.push((depth, span.name.clone(), span.calls));
        for child in &span.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    for span in spans {
        walk(span, 0, &mut out);
    }
    out
}

#[test]
fn the_checkpointed_s5378_line_is_thread_count_invariant() {
    // The benchmark's s5378-uncomp-ckpt line at seed 7: counters, span
    // tree (`runctl` under `generate`, once per write), test file and
    // the whole checkpoint journal — every generation — match across
    // thread counts.
    let line = |threads| {
        let dir = scratch(&format!("s5378_t{threads}"));
        let args = [
            "atpg",
            "s5378*",
            "--cap",
            "10000",
            "--np0",
            "1000",
            "--heuristic",
            "uncomp",
            "--minimize",
            "--checkpoint-every",
            "8",
            "--seed",
            "7",
            "--threads",
            threads,
        ];
        let out = run(&dir, &args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let report = report(&dir);
        let read = |file: &str| std::fs::read(dir.join(file)).expect(file);
        let files = [read("t.txt"), read("ck.json")];
        let _ = std::fs::remove_dir_all(&dir);
        (report.counters, span_shape(&report.spans), files)
    };
    let (counters, shape, files) = line("1");
    let writes = counters
        .iter()
        .find(|(n, _)| n == "checkpoints_written")
        .map(|&(_, v)| v)
        .expect("checkpoints counted");
    assert!(writes > 1, "{counters:?}");
    let runctl = shape
        .iter()
        .find(|(depth, name, _)| *depth == 1 && name == "runctl");
    assert_eq!(runctl.map(|r| r.2), Some(writes), "{shape:?}");
    let (pooled_counters, pooled_shape, pooled_files) = line("2");
    assert_eq!(counters, pooled_counters);
    assert_eq!(shape, pooled_shape);
    assert!(files == pooled_files, "files differ across thread counts");
}
