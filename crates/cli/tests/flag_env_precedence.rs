//! Flag-beats-env precedence for the `pdfatpg` configuration knobs.
//!
//! Every `--flag` with a `PDF_*` environment twin resolves the same way:
//! the flag value wins when given, the env value applies otherwise, and a
//! set-but-unparsable env twin aborts with the variable+value message even
//! when a flag overrides it (the strict parsing contract). These tests
//! mutate process-global environment variables, so they live in their own
//! integration-test binary and serialize on a mutex besides.

use std::sync::{Mutex, PoisonError};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` with `vars` set, restoring the previous state afterwards
/// even when `body` panics.
fn with_env<R>(vars: &[(&str, Option<&str>)], body: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let saved: Vec<(String, Option<String>)> = vars
        .iter()
        .map(|&(k, _)| (k.to_owned(), std::env::var(k).ok()))
        .collect();
    for &(k, v) in vars {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    for (k, v) in saved {
        match v {
            Some(v) => std::env::set_var(&k, v),
            None => std::env::remove_var(&k),
        }
    }
    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn temp_file(stem: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pdf_prec_{stem}_{}.json", std::process::id()))
}

// --- --checkpoint-every / PDF_CHECKPOINT_EVERY --------------------------

#[test]
fn checkpoint_every_zero_flag_is_rejected_at_parse() {
    with_env(
        &[("PDF_CHECKPOINT", None), ("PDF_CHECKPOINT_EVERY", None)],
        || {
            let path = temp_file("every0");
            let e = pdf_cli::run(&args(&[
                "atpg",
                "s27",
                "--np0",
                "10",
                "--checkpoint",
                path.to_str().unwrap(),
                "--checkpoint-every",
                "0",
            ]))
            .unwrap_err();
            assert!(
                e.message.contains("invalid --checkpoint-every=`0`"),
                "fail-fast variable+value message expected, got: {e}"
            );
            assert!(e.message.contains("positive integer"), "{e}");
        },
    );
}

#[test]
fn checkpoint_every_zero_env_is_rejected_at_parse() {
    with_env(
        &[
            ("PDF_CHECKPOINT", Some("unused.json")),
            ("PDF_CHECKPOINT_EVERY", Some("0")),
        ],
        || {
            let e = pdf_cli::run(&args(&["atpg", "s27", "--np0", "10"])).unwrap_err();
            assert!(
                e.message.contains("invalid PDF_CHECKPOINT_EVERY=`0`"),
                "{e}"
            );
        },
    );
}

#[test]
fn garbage_checkpoint_every_env_aborts_even_under_a_flag_override() {
    with_env(
        &[
            ("PDF_CHECKPOINT", None),
            ("PDF_CHECKPOINT_EVERY", Some("sometimes")),
        ],
        || {
            let path = temp_file("garbage_every");
            let e = pdf_cli::run(&args(&[
                "atpg",
                "s27",
                "--np0",
                "10",
                "--checkpoint",
                path.to_str().unwrap(),
                "--checkpoint-every",
                "4",
            ]))
            .unwrap_err();
            assert!(
                e.message
                    .contains("invalid PDF_CHECKPOINT_EVERY=`sometimes`"),
                "{e}"
            );
        },
    );
}

#[test]
fn checkpoint_every_flag_combines_with_env_checkpoint_path() {
    let path = temp_file("combine");
    with_env(
        &[
            ("PDF_CHECKPOINT", Some(path.to_str().unwrap())),
            ("PDF_CHECKPOINT_EVERY", None),
        ],
        || {
            // Before the fix this errored with "--checkpoint-every
            // requires --checkpoint" although PDF_CHECKPOINT was set.
            let out = pdf_cli::run(&args(&[
                "atpg",
                "s27",
                "--np0",
                "10",
                "--checkpoint-every",
                "2",
            ]))
            .unwrap();
            assert!(out.contains("path-delay-atpg test set"), "{out}");
            assert!(path.exists(), "env-named checkpoint file must be written");
        },
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_flag_takes_cadence_from_env_when_flag_absent() {
    let path = temp_file("env_cadence");
    with_env(
        &[
            ("PDF_CHECKPOINT", None),
            ("PDF_CHECKPOINT_EVERY", Some("1")),
        ],
        || {
            let out = pdf_cli::run(&args(&[
                "atpg",
                "s27",
                "--np0",
                "10",
                "--checkpoint",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("path-delay-atpg test set"), "{out}");
            assert!(path.exists());
        },
    );
    let _ = std::fs::remove_file(&path);
}

// --- --cone-cache / PDF_CONE_CACHE --------------------------------------

#[test]
fn cone_cache_env_twin_is_honored_and_validated() {
    // A valid env value applies when the flag is absent.
    with_env(&[("PDF_CONE_CACHE", Some("8"))], || {
        let out = pdf_cli::run(&args(&["atpg", "s27", "--np0", "10"])).unwrap();
        assert!(out.contains("path-delay-atpg test set"), "{out}");
    });
    // A garbage env value aborts, naming variable and value…
    with_env(&[("PDF_CONE_CACHE", Some("lots"))], || {
        let e = pdf_cli::run(&args(&["atpg", "s27", "--np0", "10"])).unwrap_err();
        assert!(e.message.contains("invalid PDF_CONE_CACHE=`lots`"), "{e}");
    });
    // …even when the flag overrides it.
    with_env(&[("PDF_CONE_CACHE", Some("lots"))], || {
        let e =
            pdf_cli::run(&args(&["atpg", "s27", "--np0", "10", "--cone-cache", "4"])).unwrap_err();
        assert!(e.message.contains("invalid PDF_CONE_CACHE=`lots`"), "{e}");
    });
    // The flag wins over a valid env value (observable: both parse, run
    // succeeds; identical outputs at every cache size by design).
    with_env(&[("PDF_CONE_CACHE", Some("8"))], || {
        let out =
            pdf_cli::run(&args(&["atpg", "s27", "--np0", "10", "--cone-cache", "0"])).unwrap();
        assert!(out.contains("path-delay-atpg test set"), "{out}");
    });
}

// --- --threads / PDF_THREADS --------------------------------------------

#[test]
fn threads_zero_flag_is_rejected_at_parse() {
    with_env(&[("PDF_THREADS", None)], || {
        let e = pdf_cli::run(&args(&["atpg", "s27", "--np0", "10", "--threads", "0"])).unwrap_err();
        assert!(
            e.message.contains("invalid --threads=`0`"),
            "fail-fast variable+value message expected, got: {e}"
        );
        assert!(e.message.contains("positive integer"), "{e}");
    });
}

#[test]
fn threads_zero_env_is_rejected_at_parse() {
    with_env(&[("PDF_THREADS", Some("0"))], || {
        let e = pdf_cli::run(&args(&["atpg", "s27", "--np0", "10"])).unwrap_err();
        assert!(e.message.contains("invalid PDF_THREADS=`0`"), "{e}");
        assert!(e.message.contains("positive integer"), "{e}");
    });
}

#[test]
fn garbage_threads_env_aborts_even_under_a_flag_override() {
    with_env(&[("PDF_THREADS", Some("many"))], || {
        let e = pdf_cli::run(&args(&["atpg", "s27", "--np0", "10", "--threads", "4"])).unwrap_err();
        assert!(e.message.contains("invalid PDF_THREADS=`many`"), "{e}");
    });
}

#[test]
fn threads_flag_beats_env_and_output_is_thread_count_invariant() {
    // The resolved thread count changes only the schedule, never the
    // output: a 4-thread run (flag overriding the env twin) must print
    // the exact same report as the single-threaded default.
    let serial = with_env(&[("PDF_THREADS", None)], || {
        pdf_cli::run(&args(&["atpg", "s27", "--np0", "10"])).unwrap()
    });
    let pooled = with_env(&[("PDF_THREADS", Some("2"))], || {
        pdf_cli::run(&args(&["atpg", "s27", "--np0", "10", "--threads", "4"])).unwrap()
    });
    assert_eq!(serial, pooled, "outputs must be byte-identical");
}

// --- --time-budget / PDF_TIME_BUDGET ------------------------------------

#[test]
fn time_budget_env_twin_is_validated_even_under_a_flag_override() {
    with_env(&[("PDF_TIME_BUDGET", Some("soon"))], || {
        let e = pdf_cli::run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--time-budget",
            "30s",
        ]))
        .unwrap_err();
        assert!(e.message.contains("PDF_TIME_BUDGET"), "{e}");
    });
}

#[test]
fn time_budget_flag_beats_a_valid_env_value() {
    // Env says 1us (instant exhaustion), the flag says 10 minutes: the
    // flag must win, so the run completes without exhausting its budget.
    with_env(&[("PDF_TIME_BUDGET", Some("1us"))], || {
        let out = pdf_cli::run(&args(&[
            "atpg",
            "s27",
            "--np0",
            "10",
            "--time-budget",
            "10m",
        ]))
        .unwrap();
        assert!(out.contains("budget_exhausted: false"), "{out}");
    });
}
