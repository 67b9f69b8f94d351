//! The `PDF_*` knob table, checked knob by knob.
//!
//! One loop over [`KNOBS`] checks the reading contract for every knob:
//! unset gives the documented default, a value that does not fit the
//! knob's kind is a typed error naming the variable and the value, and a
//! flag twin beats a valid variable while a malformed variable still
//! aborts under the flag; and, end to end, a bad value stops `pdfatpg`
//! with exit status 2 and a one-line typed error before any work, never
//! a panic. So does a set `PDF_*` variable that is not in the table. The
//! cases after the loops check behaviour rather than parsing. These
//! tests mutate process-global environment variables, so they live in
//! their own integration-test binary and serialize on a mutex besides.

use std::ffi::OsString;
use std::os::unix::ffi::OsStringExt;
use std::process::{Command, Output};
use std::sync::{Mutex, PoisonError};

use pdf_knobs::{Kind, Knob, Program, KNOBS};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The names of the `PDF_*` variables set in this process.
fn pdf_vars() -> Vec<OsString> {
    std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("PDF_"))
        .collect()
}

/// Runs `body` with every `PDF_*` variable unset except `vars`, which
/// must be knobs, restoring the previous environment afterwards even
/// when `body` panics.
fn with_env<R>(vars: &[(&str, OsString)], body: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let saved: Vec<(OsString, OsString)> = std::env::vars_os()
        .filter(|(name, _)| name.to_string_lossy().starts_with("PDF_"))
        .collect();
    for (name, _) in &saved {
        std::env::remove_var(name);
    }
    for (k, v) in vars {
        assert!(KNOBS.iter().any(|knob| knob.env == *k), "{k} is not a knob");
        std::env::set_var(k, v);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    for name in pdf_vars() {
        std::env::remove_var(name);
    }
    for (k, v) in saved {
        std::env::set_var(k, v);
    }
    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

/// A value the knob must reject: off its kind, or off its owner's grammar.
fn bad_value(knob: &Knob) -> OsString {
    match knob.kind {
        Kind::Switch => "maybe".into(),
        Kind::Count => "0".into(),
        Kind::Number => "lots".into(),
        Kind::Choice(_) => "strict".into(),
        Kind::Names => ",".into(),
        Kind::Numbers => "1,x".into(),
        Kind::Text => OsString::from_vec(b"out\xff.json".to_vec()),
        Kind::Spec => "@@".into(),
    }
}

/// Two distinct values the knob accepts.
fn good_values(knob: &Knob) -> [&'static str; 2] {
    match (knob.kind, knob.env) {
        (Kind::Switch, _) => ["off", "on"],
        (Kind::Count, _) => ["3", "4"],
        (Kind::Number, _) => ["5", "0"],
        (Kind::Choice(words), _) => [words[1], words[2]],
        (Kind::Names, _) => ["s27", "b09, s27"],
        (Kind::Numbers, _) => ["1", "2,3"],
        (Kind::Spec, "PDF_TIME_BUDGET") => ["10m", "20m"],
        (Kind::Spec, "PDF_FAILPOINTS") => ["pool.build:panic@999999", "netlist.read:io@9999"],
        (Kind::Spec, other) => unreachable!("no good values for {other}"),
        (Kind::Text, _) => ["a.json", "b.json"],
    }
}

/// `pdfatpg atpg s27 --np0 10` followed by `extra`.
fn atpg(extra: &[&str]) -> Result<String, pdf_cli::CliError> {
    pdf_cli::run(&args(&[&["atpg", "s27", "--np0", "10"], extra].concat()))
}

/// Runs `pdfatpg atpg` with `knob`'s flag twin set to `value`.
fn run_with_flag(knob: &Knob, value: &str) -> Result<String, pdf_cli::CliError> {
    let flag = format!("--{}", knob.flag.expect("a flag twin"));
    let mut line = vec![flag.as_str()];
    if knob.kind != Kind::Switch {
        line.push(value);
    }
    atpg(&line)
}

#[test]
fn unset_knobs_take_their_documented_defaults() {
    with_env(&[], || {
        for knob in KNOBS {
            assert_eq!(knob.text(), Ok(None), "{}", knob.env);
            if knob.kind == Kind::Switch {
                assert_eq!(knob.default, "off", "{}", knob.env);
                assert_eq!(knob.switch(false), Ok(false), "{}", knob.env);
            }
        }
        let w = pdf_experiments::Workload::from_env().unwrap();
        assert_eq!(w.n_p.to_string(), pdf_knobs::NP.default);
        assert_eq!(w.n_p0.to_string(), pdf_knobs::NP0.default);
        assert_eq!(w.seed.to_string(), pdf_knobs::SEED.default);
        assert_eq!(w.attempts.to_string(), pdf_knobs::ATTEMPTS.default);
        assert_eq!(
            pdf_analyze::LintMode::from_env(),
            Ok(pdf_analyze::LintMode::Deny)
        );
        assert_eq!(pdf_knobs::LINT.default, "deny");
    });
}

#[test]
fn every_attempts_default_is_the_library_default() {
    // The knob's default is a string in `pdf-knobs`, which cannot name
    // the library constant; it must parse to it.
    assert_eq!(
        pdf_knobs::ATTEMPTS.default.parse::<u32>(),
        Ok(pdf_atpg::DEFAULT_ATTEMPTS)
    );
    assert_eq!(
        pdf_experiments::Workload::default().attempts,
        pdf_atpg::DEFAULT_ATTEMPTS
    );
    assert_eq!(
        pdf_atpg::AtpgConfig::default().justify_attempts,
        pdf_atpg::DEFAULT_ATTEMPTS
    );
}

#[test]
fn a_bad_value_is_a_typed_error_naming_the_variable_and_the_value() {
    for knob in KNOBS {
        let bad = bad_value(knob);
        let prefix = format!("invalid {}=`{}`: ", knob.env, bad.to_string_lossy());
        with_env(&[(knob.env, bad.clone())], || {
            for &program in knob.read_by {
                let message = match program {
                    Program::Pdfatpg => {
                        let e = pdf_cli::run(&args(&["info", "s27"])).unwrap_err();
                        assert_eq!(e.code, pdf_cli::EXIT_ERROR, "{e}");
                        e.message
                    }
                    Program::Experiments => pdf_experiments::Workload::from_env()
                        .unwrap_err()
                        .to_string(),
                    // The bench binaries' `start()` runs this check and
                    // exits 2 on its error.
                    Program::Bench => pdf_atpg::validate_env(program)
                        .map(|()| "accepted".to_owned())
                        .unwrap_or_else(|e| e.to_string()),
                };
                assert!(message.starts_with(&prefix), "{}: {message}", knob.env);
            }
        });
    }
}

#[test]
fn a_valid_value_is_read_trimmed_and_an_empty_one_is_unset() {
    for knob in KNOBS {
        let [value, _] = good_values(knob);
        with_env(&[(knob.env, format!(" {value} ").into())], || {
            assert_eq!(knob.text(), Ok(Some(value.to_owned())), "{}", knob.env);
        });
        with_env(&[(knob.env, " ".into())], || {
            assert_eq!(knob.text(), Ok(None), "{}", knob.env);
        });
    }
}

#[test]
fn a_flag_beats_a_valid_variable_and_a_bad_variable_still_aborts() {
    let text = |knob: &Knob, flag| knob.read(flag, |text| Ok(text.to_owned()));
    for knob in KNOBS.iter().filter(|k| k.flag.is_some()) {
        let [env_value, flag_value] = good_values(knob);
        with_env(&[(knob.env, env_value.into())], || {
            if knob.kind == Kind::Switch {
                assert_eq!(knob.switch(true), Ok(true), "{}", knob.env);
            } else {
                let read = text(knob, Some(flag_value));
                assert_eq!(read, Ok(Some(flag_value.to_owned())), "{}", knob.env);
            }
        });
        let bad = bad_value(knob);
        let prefix = format!("invalid {}=`{}`: ", knob.env, bad.to_string_lossy());
        with_env(&[(knob.env, bad.clone())], || {
            let e = run_with_flag(knob, flag_value).unwrap_err();
            assert!(e.message.starts_with(&prefix), "{}: {e}", knob.env);
            if knob.kind != Kind::Spec {
                let e = text(knob, Some(flag_value)).unwrap_err();
                assert!(e.to_string().starts_with(&prefix), "{}: {e}", knob.env);
            }
        });
    }
}

#[test]
fn a_bad_flag_value_is_a_typed_error_naming_the_flag() {
    for knob in KNOBS
        .iter()
        .filter(|k| k.flag.is_some() && k.kind != Kind::Switch)
    {
        let bad = bad_value(knob);
        let Some(bad) = bad.to_str() else {
            continue; // a command-line argument is always UTF-8 here
        };
        with_env(&[], || {
            let e = run_with_flag(knob, bad).unwrap_err();
            assert_eq!(e.code, pdf_cli::EXIT_ERROR, "{e}");
            let flag = knob.flag.unwrap();
            assert!(
                e.message
                    .starts_with(&format!("invalid --{flag}=`{bad}`: ")),
                "{e}"
            );
        });
    }
}

/// `pdfatpg` with no `PDF_*` variable in its environment. The child gets
/// a filtered copy taken now rather than the process environment at
/// spawn time: another test's [`with_env`] may set a knob in between.
fn pdfatpg() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdfatpg"));
    cmd.env_clear()
        .envs(std::env::vars_os().filter(|(name, _)| !name.to_string_lossy().starts_with("PDF_")));
    cmd
}

fn spawn(args: &[&str], env: &str, value: &OsString) -> Output {
    pdfatpg()
        .args(args)
        .env(env, value)
        .output()
        .expect("spawn pdfatpg")
}

fn assert_typed_exit(out: &Output, env: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{env}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: invalid {env}=`")),
        "{env}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{env}: {stderr}");
    assert!(out.stdout.is_empty(), "{env}: work ran before the error");
}

#[test]
fn every_pdfatpg_knob_rejects_a_bad_value_with_exit_two() {
    let knobs: Vec<&Knob> = KNOBS
        .iter()
        .copied()
        .filter(|k| k.read_by.contains(&Program::Pdfatpg))
        .collect();
    assert_eq!(knobs.len(), 6);
    for knob in knobs {
        assert_typed_exit(
            &spawn(&["info", "s27"], knob.env, &bad_value(knob)),
            knob.env,
        );
    }
    // A switch flag does not hide a bad variable.
    let out = spawn(
        &["faults", "s27", "--static-learning"],
        "PDF_STATIC_LEARNING",
        &"bogus".into(),
    );
    assert_typed_exit(&out, "PDF_STATIC_LEARNING");
}

#[test]
fn an_unknown_variable_is_refused_with_exit_two() {
    // The retired twins of pdfatpg's flags, and a misspelt knob: each
    // would otherwise be silently ignored.
    for name in [
        "PDF_THREADS",
        "PDF_SCOAP",
        "PDF_CHECKPOINT",
        "PDF_CHECKPOINT_EVERY",
        "PDF_MATRIX_CELLS",
        "PDF_MATRIX_CIRCUITS",
        "PDF_MATRIX_SEEDS",
        "PDF_MATRIX_FULL",
        "PDF_MATRIX_REPORT",
        "PDF_MATRIX_REPRO_DIR",
        "PDF_SENSITISE",
    ] {
        assert!(KNOBS.iter().all(|k| k.env != name), "{name}");
        let out = spawn(&["info", "s27"], name, &"1".into());
        assert_typed_exit(&out, name);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no such PDF_* variable"), "{stderr}");
    }
}

// --- behaviour beyond parsing -------------------------------------------

fn temp_file(stem: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pdf_knobs_{stem}_{}.json", std::process::id()))
}

#[test]
fn atpg_output_is_thread_count_invariant() {
    // The thread count changes only the schedule, never the output: a
    // 4-thread run must print the exact same report as the
    // single-threaded default.
    let serial = with_env(&[], || atpg(&[]).unwrap());
    let pooled = with_env(&[], || atpg(&["--threads", "4"]).unwrap());
    assert_eq!(serial, pooled, "outputs must be byte-identical");
}

#[test]
fn a_huge_thread_count_runs_and_matches_one_thread() {
    // A round never holds more than `batch` builds, so no more workers
    // than that start: 20 000 requested threads must neither exhaust the
    // process's stacks nor change the test file.
    let dir = std::env::temp_dir();
    let file = |tag: &str| {
        dir.join(format!(
            "pdf_knobs_threads_{tag}_{}.txt",
            std::process::id()
        ))
    };
    let run = |threads: &str, out: &std::path::Path| {
        let out = out.to_str().unwrap();
        pdfatpg()
            .args([
                "atpg",
                "s27",
                "--np0",
                "20",
                "--threads",
                threads,
                "--output",
                out,
            ])
            .output()
            .expect("spawn pdfatpg")
    };
    let (huge, one) = (file("huge"), file("one"));
    let pooled = run("20000", &huge);
    let serial = run("1", &one);
    let stderr = String::from_utf8_lossy(&pooled.stderr);
    assert_eq!(pooled.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(serial.status.code(), Some(0));
    let (a, b) = (std::fs::read(&huge), std::fs::read(&one));
    std::fs::remove_file(&huge).ok();
    std::fs::remove_file(&one).ok();
    assert_eq!(a.expect("test file written"), b.expect("test file written"));
}

/// Runs `pdfatpg args…` with every `PDF_*` variable unset and returns
/// its stdout, failing on a nonzero exit or a panic.
fn pdfatpg_stdout(args: &[&str]) -> Vec<u8> {
    let out = pdfatpg().args(args).output().expect("spawn pdfatpg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    out.stdout
}

#[test]
fn faults_output_is_thread_count_invariant() {
    // Elimination runs its passes on the pool: the fault list, its
    // counters and every printed A(p) match one thread at any count. A
    // pass starts no more workers than it has jobs, so 20 000 requested
    // threads are fine.
    for (circuit, cap) in [("s9234*", "4000"), ("s27", "10000")] {
        let faults = |threads: &str| {
            pdfatpg_stdout(&[
                "faults",
                circuit,
                "--cap",
                cap,
                "--limit",
                "100000",
                "--threads",
                threads,
            ])
        };
        let serial = faults("1");
        for threads in ["4", "20000"] {
            assert!(
                serial == faults(threads),
                "{circuit}: faults output differs at --threads {threads}"
            );
        }
    }
    // A malformed count is refused before any work.
    let bad = with_env(&[], || {
        pdf_cli::run(&args(&["faults", "s27", "--threads", "0"]))
    });
    assert!(bad.is_err_and(|e| e.code == 2 && e.message.starts_with("invalid --threads=`0`")));
}

/// The span tree as `(depth, name, calls)` rows, without timings.
fn span_shape(spans: &[pdf_telemetry::SpanReport]) -> Vec<(usize, String, u64)> {
    fn walk(span: &pdf_telemetry::SpanReport, depth: usize, out: &mut Vec<(usize, String, u64)>) {
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
fn static_pass_telemetry_is_thread_count_invariant() {
    // Learning, sensitize, pooled elimination and pooled generation in
    // one run: every counter total and the span tree (names, nesting,
    // calls) match one thread, and so does the test file. Without
    // sensitize, rule 1, rule 2 and the learned re-check all eliminate.
    let dir = std::env::temp_dir();
    let run = |passes: &[&str], threads: &str| {
        let file = |ext: &str| {
            dir.join(format!(
                "pdf_knobs_static_{}_t{threads}_{}.{ext}",
                passes.len(),
                std::process::id()
            ))
        };
        let (report, tests) = (file("json"), file("txt"));
        let mut args = vec!["atpg", "b03+r", "--cap", "2000", "--np0", "200"];
        args.extend(passes);
        args.extend([
            "--threads",
            threads,
            "--telemetry",
            report.to_str().unwrap(),
            "--output",
            tests.to_str().unwrap(),
        ]);
        pdfatpg_stdout(&args);
        let text = std::fs::read_to_string(&report).expect("report written");
        let tests_text = std::fs::read(&tests).expect("test file written");
        std::fs::remove_file(&report).ok();
        std::fs::remove_file(&tests).ok();
        let report = pdf_telemetry::RunReport::from_json(&text).expect("report parses");
        (report.counters, span_shape(&report.spans), tests_text)
    };
    for passes in [
        &["--static-learning", "--sensitize"][..],
        &["--static-learning"][..],
    ] {
        let (counters, shape, tests) = run(passes, "1");
        let counter = |name: &str| counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let eliminated = counter(pdf_telemetry::counters::UNDETECTABLE_DROPPED);
        assert!(eliminated > Some(0), "{passes:?}: {counters:?}");
        if passes.len() == 1 {
            let learned = counter(pdf_telemetry::counters::STATICALLY_ELIMINATED);
            assert!(learned > Some(0), "{passes:?}: {counters:?}");
        }
        assert!(shape.iter().any(|(_, name, _)| name == "eliminate.learned"));
        let (pooled_counters, pooled_shape, pooled_tests) = run(passes, "4");
        assert_eq!(counters, pooled_counters, "{passes:?}: counter totals");
        assert_eq!(shape, pooled_shape, "{passes:?}: span tree");
        assert!(tests == pooled_tests, "{passes:?}: test files differ");
    }
}

#[test]
fn time_budget_flag_beats_a_valid_env_value() {
    // Env says 1us (instant exhaustion), the flag says 10 minutes: the
    // flag must win, so the run completes without exhausting its budget.
    let out = with_env(&[("PDF_TIME_BUDGET", "1us".into())], || {
        atpg(&["--time-budget", "10m"]).unwrap()
    });
    assert!(out.contains("budget_exhausted: false"), "{out}");
}

#[test]
fn a_misspelt_budget_phase_exits_two() {
    let line = ["atpg", "s27", "--time-budget", "genrate=1us"];
    let out = spawn(&line, "PDF_TIME_BUDGET", &OsString::new());
    assert_typed_exit(&out, "--time-budget");
    let out = spawn(&["atpg", "s27"], "PDF_TIME_BUDGET", &"genrate=1us".into());
    assert_typed_exit(&out, "PDF_TIME_BUDGET");
}

#[test]
fn a_budget_past_the_clock_runs_as_if_unbudgeted() {
    // u64::MAX seconds overflows any `Instant`: such a budget never
    // expires, so each run must match its unbudgeted twin byte for byte.
    let huge = format!("{}s", u64::MAX);
    let compact = format!("compact={huge}");
    let stdout = |line: &[&str], env: &OsString| {
        let out = spawn(line, "PDF_TIME_BUDGET", env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{line:?}: {stderr}");
        out.stdout
    };
    let unset = OsString::new();
    let plain = stdout(&["atpg", "s27", "--np0", "10"], &unset);
    let minimized = stdout(&["atpg", "s27", "--np0", "10", "--minimize"], &unset);
    let flag = stdout(
        &["atpg", "s27", "--np0", "10", "--time-budget", &huge],
        &unset,
    );
    assert_eq!(flag, plain, "--time-budget {huge}");
    let env = stdout(&["atpg", "s27", "--np0", "10"], &huge.clone().into());
    assert_eq!(env, plain, "PDF_TIME_BUDGET={huge}");
    let phase = ["atpg", "s27", "--np0", "10", "--minimize", "--time-budget"];
    let phase = stdout(&[&phase[..], &[compact.as_str()]].concat(), &unset);
    assert_eq!(phase, minimized, "--time-budget {compact}");
}

#[test]
fn telemetry_flag_overrides_the_variable_with_one_report() {
    let from_env = temp_file("telemetry_env");
    let from_flag = temp_file("telemetry_flag");
    with_env(&[("PDF_TELEMETRY", from_env.clone().into())], || {
        atpg(&["--telemetry", from_flag.to_str().unwrap()]).unwrap()
    });
    let written = std::fs::read_to_string(&from_flag);
    let _ = std::fs::remove_file(&from_flag);
    assert!(
        !from_env.exists(),
        "the overridden variable's path was written"
    );
    let report = pdf_telemetry::RunReport::from_json(&written.expect("flag report written"));
    assert!(report.is_ok(), "{report:?}");
}

#[test]
fn experiments_apply_their_knobs() {
    let vars = [
        ("PDF_NP", "500"),
        ("PDF_NP0", "100"),
        ("PDF_SEED", "7"),
        ("PDF_ATTEMPTS", "3"),
        ("PDF_STATIC_LEARNING", "on"),
    ]
    .map(|(k, v)| (k, OsString::from(v)));
    with_env(&vars, || {
        let w = pdf_experiments::Workload::from_env().unwrap();
        assert_eq!((w.n_p, w.n_p0, w.seed, w.attempts), (500, 100, 7, 3));
        assert!(w.static_learning && !w.sensitize);
    });
}

#[test]
fn filter_circuits_warns_on_typos_and_errors_on_an_empty_selection() {
    use pdf_experiments::filter_circuits;
    const NAMES: [&str; 3] = ["s27", "b03", "b09"];
    let filtered =
        |list: &str| with_env(&[("PDF_CIRCUITS", list.into())], || filter_circuits(&NAMES));
    assert_eq!(filtered(""), Ok(NAMES.to_vec()));
    assert_eq!(filtered("b09, s27"), Ok(vec!["s27", "b09"]));
    // A typo alongside a real name warns but keeps the real one.
    assert_eq!(filtered("b09,s1196"), Ok(vec!["b09"]));
    // A selection matching nothing is an error, not an empty experiment.
    let message = filtered("c6288,sqrt32").unwrap_err().to_string();
    assert!(
        message.starts_with("invalid PDF_CIRCUITS=`c6288,sqrt32`: selects none"),
        "{message}"
    );
}
