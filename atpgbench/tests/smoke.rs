//! The sample-and-check path on s27: a real sample child, the output
//! checks (which must reject corrupted test files), and the traced flow
//! reproducing the CLI's test text.

use std::path::{Path, PathBuf};

use pdf_atpgbench::check::Reference;
use pdf_atpgbench::sample::run_sample;
use pdf_atpgbench::traced::child_trace;
use pdf_atpgbench::workload::{command_line, Plan, Workload};
use pdf_telemetry::Json;

const S27: Workload = Workload {
    name: "s27-smoke",
    why: "",
    args: &["atpg", "s27", "--cap", "100", "--np0", "10", "--enrich"],
};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_sample_runs_in_a_child_and_passes_the_checks() {
    let tmp = fresh_dir("smoke-sample");
    let args = command_line(&S27, 2002, &tmp);
    let reference = Reference::new(&Plan::parse(&args).unwrap()).unwrap();
    let sample = run_sample(Path::new(env!("CARGO_BIN_EXE_benchmark")), &args).unwrap();
    assert!(sample.atpg_s > 0.0 && sample.cpu_s >= 0.0 && sample.peak_rss_mb > 0.0);
    let text = std::fs::read_to_string(tmp.join("t.txt")).unwrap();
    let counts = reference.check(&sample.stdout, &text).unwrap();
    assert!(counts.tests > 0);
    assert!(counts.p0_detected > 0 && counts.p01_detected >= counts.p0_detected);

    // A dropped test, a character outside {0, 1, x}, and tests without
    // transitions: each must fail the checks.
    let lines: Vec<&str> = text.lines().collect();
    let dropped = lines[..lines.len() - 1].join("\n");
    let bad_char = text.replacen('0', "2", 1);
    let no_transitions: String = text
        .lines()
        .map(|l| match l.split_once(' ') {
            Some((v1, _)) if !l.starts_with('#') => format!("{v1} {v1}\n"),
            _ => format!("{l}\n"),
        })
        .collect();
    for corrupted in [dropped, bad_char, no_transitions] {
        assert!(
            reference.check(&sample.stdout, &corrupted).is_err(),
            "accepted a corrupted file:\n{corrupted}"
        );
    }
    // So must a summary that claims more detections than the file has.
    let inflated = sample.stdout.replacen("; P0 ", "; P0 9", 1);
    assert!(reference.check(&inflated, &text).is_err());
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn the_traced_flow_writes_the_cli_test_text() {
    let cli_tmp = fresh_dir("smoke-cli");
    let args = command_line(&S27, 7, &cli_tmp);
    let sample = run_sample(Path::new(env!("CARGO_BIN_EXE_benchmark")), &args).unwrap();
    assert!(sample.stdout.contains("budget_exhausted: false"));
    let cli_text = std::fs::read_to_string(cli_tmp.join("t.txt")).unwrap();

    let trace_tmp = fresh_dir("smoke-trace");
    let trace_path = trace_tmp.join("trace.json");
    let report = child_trace(&S27, 7, &trace_tmp, &trace_path).unwrap();
    assert_eq!(
        std::fs::read_to_string(trace_tmp.join("t.txt")).unwrap(),
        cli_text
    );
    assert_eq!(
        report
            .get("errors")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "{report:?}"
    );
    let metrics = report.get("metrics").unwrap();
    let unattributed = metrics.get("bench.unattributed_s").and_then(Json::as_num);
    assert!(unattributed.is_some_and(|s| s >= 0.0));
    let trace = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("core.generate")));
    std::fs::remove_dir_all(&cli_tmp).ok();
    std::fs::remove_dir_all(&trace_tmp).ok();
}

#[test]
fn plans_refuse_options_the_traced_flow_does_not_reproduce() {
    for extra in ["--time-budget", "--sim-width", "--resume"] {
        let args: Vec<String> = ["atpg", "s27", extra, "1"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(Plan::parse(&args).is_err(), "{extra} accepted");
    }
}
