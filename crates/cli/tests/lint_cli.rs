//! End-to-end checks of the `lint` subcommand and the auto-lint exit
//! path: malformed `.bench` fixtures must terminate the process with
//! the dedicated lint exit status (3), clean circuits with 0.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXIT_LINT: i32 = 3;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    run_with(args, &[])
}

/// Runs `pdfatpg` with every `PDF_*` variable unset except `env`.
fn run_with(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdfatpg"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PDF_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("spawn pdfatpg")
}

#[test]
fn lint_clean_circuit_exits_zero() {
    let out = run(&["lint", "s27"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "stdout: {stdout}");
}

#[test]
fn lint_fixture_with_cycle_exits_three() {
    let path = fixture("cycle.bench");
    let out = run(&["lint", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(EXIT_LINT));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PDL"), "stderr: {stderr}");
}

#[test]
fn lint_fixture_with_unused_input_exits_three() {
    let path = fixture("undriven.bench");
    let out = run(&["lint", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(EXIT_LINT));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PDL002"), "stderr: {stderr}");
}

#[test]
fn lint_fixture_with_duplicate_driver_exits_three() {
    let path = fixture("dup_driver.bench");
    let out = run(&["lint", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(EXIT_LINT));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PDL005"), "stderr: {stderr}");
}

#[test]
fn lint_fixture_with_dead_gate_exits_three() {
    let path = fixture("dead_gate.bench");
    let out = run(&["lint", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(EXIT_LINT));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PDL004"), "stderr: {stderr}");
}

#[test]
fn auto_lint_blocks_other_commands_on_malformed_input() {
    // Any command on a defective netlist aborts before spending budget.
    let path = fixture("dead_gate.bench");
    let out = run(&["info", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(EXIT_LINT));
}

#[test]
fn lint_warnings_are_reported_without_aborting() {
    // A width-0 output cone is suspicious but analyzable: the finding is
    // reported, the command still succeeds (even under the default deny
    // mode, which only aborts on error severity).
    let path = fixture("ff_cone.bench");
    let out = run(&["info", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let combined = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(combined.contains("PDL006"), "output: {combined}");
}

#[test]
fn lint_reports_semantic_constant_without_aborting() {
    // The semantic pass always runs under the explicit lint command; its
    // findings are warnings, so the command still exits 0.
    let path = fixture("constant.bench");
    let out = run(&["lint", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PDL008"), "stdout: {stdout}");
}

#[test]
fn semantic_preflight_is_off_by_default() {
    // Without PDF_SENSITIZE the automatic preflight must not mention the
    // constant line: stderr stays byte-identical to earlier releases.
    let path = fixture("constant.bench");
    let out = run(&["info", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("PDL008"), "stderr: {stderr}");
}

#[test]
fn semantic_preflight_warns_under_deny_without_aborting() {
    // PDL008+ findings are warning severity: even the default deny mode
    // reports them and proceeds (deny aborts on errors only).
    let path = fixture("constant.bench");
    let out = run_with(
        &["info", path.to_str().unwrap()],
        &[("PDF_SENSITIZE", "on")],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PDL008"), "stderr: {stderr}");
}

#[test]
fn semantic_preflight_warns_under_warn_mode_without_aborting() {
    let path = fixture("constant.bench");
    let out = run_with(
        &["info", path.to_str().unwrap()],
        &[("PDF_LINT", "warn"), ("PDF_SENSITIZE", "on")],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PDL008"), "stderr: {stderr}");
}

#[test]
fn sensitize_flag_runs_the_semantic_preflight_like_the_variable() {
    // `--sensitize` and PDF_SENSITIZE are one switch: the flag alone
    // must put the semantic lints into the preflight too.
    let path = fixture("constant.bench");
    for command in ["atpg", "faults"] {
        let out = run(&[command, path.to_str().unwrap(), "--sensitize"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command}: {stderr}");
        assert!(stderr.contains("PDL008"), "{command}: {stderr}");
    }
}

#[test]
fn deny_mode_still_aborts_on_error_diagnostics_with_sensitize_on() {
    let path = fixture("dead_gate.bench");
    let out = run_with(
        &["info", path.to_str().unwrap()],
        &[("PDF_SENSITIZE", "on")],
    );
    assert_eq!(out.status.code(), Some(EXIT_LINT));
}

#[test]
fn sensitize_eliminates_the_false_path_fixture_end_to_end() {
    // The case-split-only false path survives rules 1/2 and learning,
    // so the elimination is attributable to the sensitizability pass.
    let path = fixture("false_path.bench");
    let out = run(&["faults", path.to_str().unwrap(), "--sensitize"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.contains("sensitizability:"))
        .unwrap_or_else(|| panic!("no sensitizability line in: {stdout}"));
    assert!(
        !line.contains("0 faults pre-eliminated"),
        "expected pre-eliminations: {line}"
    );

    // The split elimination is real: the detectable population shrinks
    // versus a plain (rules-only) run on the same fixture.
    let plain = run(&["faults", path.to_str().unwrap()]);
    let detectable = |text: &str| -> usize {
        let head = text.lines().next().expect("summary line").to_owned();
        head.split(" -> ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparsable summary: {head}"))
    };
    let off_count = detectable(&String::from_utf8_lossy(&plain.stdout));
    let on_count = detectable(&stdout);
    assert!(
        on_count < off_count,
        "expected the filter to shrink the population: {on_count} vs {off_count}"
    );
}

#[test]
fn static_learning_reports_eliminations_on_gadget_stand_in() {
    // The acceptance knob end to end: `faults` with learning enabled on a
    // redundancy-gadget stand-in reports a non-zero elimination count.
    let out = run(&["faults", "b03+r", "--static-learning"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.contains("static learning:"))
        .unwrap_or_else(|| panic!("no static-learning line in: {stdout}"));
    assert!(
        !line.contains("0 faults eliminated"),
        "expected eliminations: {line}"
    );
}

#[test]
fn one_input_parity_gates_decompose_to_driven_lines() {
    for name in ["xor1.bench", "xnor1.bench"] {
        let path = fixture(name);
        let out = run(&["info", path.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{name}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn zero_input_parity_gates_are_an_arity_diagnostic() {
    // `z = XOR()` must fail like `z = AND()`: a typed PDL000 arity error
    // with the lint exit status, never a panic in the parity rewrite.
    for name in ["xor0.bench", "xnor0.bench"] {
        let path = fixture(name);
        for command in ["info", "lint", "paths", "faults", "atpg"] {
            let out = run(&[command, path.to_str().unwrap()]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(EXIT_LINT),
                "{name} {command}: {stderr}"
            );
            assert!(
                stderr.contains("invalid arity 0"),
                "{name} {command}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{name} {command}: {stderr}");
        }
    }
}

#[test]
fn generated_branch_names_never_collide() {
    // `z = AND(a, a)` gives `a` two branches into `z`, and a primary
    // output feeding a gate named `out` gives two `a->out` sinks; the
    // generated names are made unique, so no PDL005 fires.
    for name in ["repeated_fanin.bench", "output_feeds_out.bench"] {
        let path = fixture(name);
        let out = run(&["lint", path.to_str().unwrap()]);
        assert!(out.status.success(), "{name}: {out:?}");
        let combined = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!combined.contains("PDL005"), "{name}: {combined}");
    }
}
