//! End-to-end checks of the `matrix` subcommand: a bounded smoke run
//! passes and writes a parseable report, misconfiguration is rejected at
//! parse time with the dedicated error exit (2), and `--replay` verifies
//! repro artifacts (clean artifact exits 0, malformed artifact exits 2).

use std::path::PathBuf;
use std::process::{Command, Output};

use pdf_matrix::{CellConfig, Invariant, ReproCase};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdfatpg-matrix-cli-{}-{name}", std::process::id()))
}

/// Runs `pdfatpg args…` with every `PDF_*` variable removed.
fn run(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdfatpg"));
    cmd.args(args);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PDF_") {
            cmd.env_remove(name);
        }
    }
    cmd.output().expect("spawn pdfatpg")
}

#[test]
fn matrix_smoke_run_passes_and_reports_every_family() {
    let out = run(&["matrix", "--circuits", "s27", "--cells", "8"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matrix: 8 cells"), "stdout: {stdout}");
    for family in ["ident", "kmono", "resume", "learning", "chaos", "sensitize"] {
        assert!(stdout.contains(family), "missing {family}: {stdout}");
    }
}

#[test]
fn matrix_writes_a_parseable_report_file() {
    let report = scratch("report.json");
    let out = run(&[
        "matrix",
        "--circuits",
        "s27",
        "--cells",
        "6",
        "--report",
        report.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    std::fs::remove_file(&report).ok();
    let json = pdf_telemetry::Json::parse(&text).expect("report parses");
    assert_eq!(
        json.get("schema").and_then(pdf_telemetry::Json::as_str),
        Some("pdf-matrix-report")
    );
    // 6 sampled cells land on chaos and sensitize-on cells whose twins
    // (clean / sensitize-off, including twins of appended twins) fall
    // outside the sample; the runner appends all 8 of them.
    assert_eq!(
        json.get("cells").and_then(pdf_telemetry::Json::as_num),
        Some(14.0)
    );
    assert!(matches!(
        json.get("passed"),
        Some(pdf_telemetry::Json::Bool(true))
    ));
}

#[test]
fn matrix_rejects_unknown_circuit() {
    let out = run(&["matrix", "--circuits", "nosuch", "--cells", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nosuch"), "stderr: {stderr}");
}

#[test]
fn matrix_replay_of_a_clean_artifact_exits_zero() {
    // A hand-built artifact whose cells hold no bug: replay must report
    // that it no longer reproduces and exit 0.
    let mut pooled = CellConfig::default_cell();
    pooled.threads = 2;
    let repro = ReproCase {
        invariant: Invariant::Ident,
        detail: "fixed upstream".to_owned(),
        circuit: "s27".to_owned(),
        bench: None,
        cells: vec![CellConfig::default_cell(), pooled],
    };
    let path = scratch("clean-repro.json");
    std::fs::write(&path, repro.to_json().to_pretty()).unwrap();
    let out = run(&["matrix", "--replay", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no longer reproduces"), "stdout: {stdout}");
}

/// An artifact written while the simulation engine, tile width and event
/// propagation were matrix axes: every cell carries the three retired
/// keys.
const LEGACY_ARTIFACT: &str = r#"{
  "schema": "pdf-matrix-repro",
  "version": 1,
  "invariant": "ident",
  "detail": "tests differ between the scalar and packed cells",
  "circuit": "s27",
  "bench": null,
  "cells": [
    {"circuit": "s27", "backend": "scalar", "width": "512", "events": false,
     "compaction": "values", "k": 2, "n_p": 300, "n_p0": 60,
     "learning": false, "sensitize": false, "run_mode": "direct",
     "threads": 1, "seed": 2002, "budget_minutes": null, "faults": null},
    {"circuit": "s27", "backend": "packed", "width": "64", "events": true,
     "compaction": "values", "k": 2, "n_p": 300, "n_p0": 60,
     "learning": false, "sensitize": false, "run_mode": "direct",
     "threads": 2, "seed": 2002, "budget_minutes": null, "faults": null}
  ]
}"#;

#[test]
fn legacy_artifacts_with_simulation_axes_parse_and_replay() {
    let repro = ReproCase::parse(LEGACY_ARTIFACT).expect("legacy artifact parses");
    assert_eq!(repro.cells.len(), 2);
    assert_eq!(repro.cells[0], CellConfig::default_cell());
    assert_eq!(repro.cells[1].threads, 2);

    let path = scratch("legacy-repro.json");
    std::fs::write(&path, LEGACY_ARTIFACT).unwrap();
    let out = run(&["matrix", "--replay", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no longer reproduces"), "stdout: {stdout}");
}

#[test]
fn matrix_replay_rejects_a_malformed_artifact() {
    let path = scratch("bad-repro.json");
    std::fs::write(&path, "{\"schema\": \"wrong\"}").unwrap();
    let out = run(&["matrix", "--replay", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2));
}
