//! A malformed grammar knob, or a misspelt `PDF_*` variable, stops every
//! throughput binary at startup: exit status 2, a typed error naming the
//! variable, no measurement. A reader that closes stdout early does not
//! stop a binary from writing its report.

use std::process::{Command, Stdio};

/// A command for `bin` with every inherited `PDF_*` variable removed.
fn clean(bin: &str) -> Command {
    let mut cmd = Command::new(bin);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PDF_") {
            cmd.env_remove(name);
        }
    }
    cmd
}

#[test]
fn a_malformed_grammar_knob_exits_two_before_any_work() {
    let bins = [
        env!("CARGO_BIN_EXE_sim_throughput"),
        env!("CARGO_BIN_EXE_justify_throughput"),
        env!("CARGO_BIN_EXE_pipeline_throughput"),
    ];
    let vars = [
        ("PDF_TIME_BUDGET", "@@"),
        ("PDF_FAILPOINTS", "@@"),
        ("PDF_BENCH_TEST", "32"),
    ];
    for (bin, (var, value)) in bins.iter().flat_map(|b| vars.map(|v| (b, v))) {
        let out = clean(bin)
            .env(var, value)
            .output()
            .expect("spawn bench binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {var}: {stderr}");
        assert!(stderr.starts_with(&format!("error: invalid {var}=`{value}`: ")));
        assert!(out.stdout.is_empty(), "{bin} {var}: work ran first");
    }
}

#[test]
fn a_closed_stdout_still_gets_the_report_written() {
    let dir = std::env::temp_dir().join(format!("pdf_bench_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let mut child = clean(env!("CARGO_BIN_EXE_sim_throughput"))
        .env("PDF_BENCH_CIRCUIT", "s27")
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sim_throughput");
    // Drop the read end before the binary prints anything.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for sim_throughput");
    let report = std::fs::read_to_string(dir.join("BENCH_sim.json"));
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let report = report.expect("BENCH_sim.json written");
    let report = pdf_telemetry::Json::parse(&report).expect("BENCH_sim.json parses");
    assert!(report.get("packed").is_some(), "{report:?}");
}
