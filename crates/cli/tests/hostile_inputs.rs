//! Mutation properties for the parsers that read bytes from disk: every
//! mutant of a `.bench` fixture, and of a checkpoint, a matrix repro
//! artifact and a telemetry run report, must parse or fail with a typed
//! error — never panic. A document that parses must write back to the
//! same value, and a repro cell's `k`, which sizes the split it pads,
//! stays within `pdf_matrix::MAX_K`. The spec grammars read from flags
//! and variables — time budgets and failpoints — are held to the same
//! rule, and an accepted failpoint spec must print back to itself.
//!
//! The test lines inside a checkpoint get their own property: mutated,
//! then re-serialized with a valid CRC, they must be refused with a typed
//! error or resume with exactly one test per entry, in order.
//!
//! A mutant is its seed after one to four edits: bit flips, truncations,
//! splices of another stretch of the same input, and insertions of
//! grammar tokens, oversized numbers or deep nesting. The `#[ignore]`d
//! variants run the same properties over many more cases:
//! `cargo test --release -p pdf-cli --test hostile_inputs -- --ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

use pdf_atpg::{BudgetSpec, Checkpoint, CheckpointError, TestSet};
use pdf_chaos::FailpointSpec;
use pdf_matrix::{CellConfig, Invariant, ReproCase, RunMode};
use pdf_netlist::parse_bench;
use pdf_telemetry::RunReport;
use proptest::collection::vec;
use proptest::prelude::*;

/// One edit: kind, position, a length or token index, and a bit.
type Edit = (u8, usize, usize, u8);

/// Cases of the default variants; the ignored ones run `LONG_CASES`.
const CASES: u32 = 512;
const LONG_CASES: u32 = 1_000_000;

/// What the insertion edit draws from: both formats' punctuation and
/// keywords, numbers past every integer type, and escapes.
const TOKENS: &[&str] = &[
    "INPUT(",
    "OUTPUT(",
    " = ",
    "(",
    ")",
    ",",
    "AND",
    "NAND",
    "XOR",
    "XNOR",
    "DFF",
    "NOT",
    "BUFF",
    "\n",
    "#",
    "{",
    "}",
    "[",
    "]",
    ":",
    "\"",
    "null",
    "true",
    "-1",
    "1e999",
    "18446744073709551616",
    "\\u0000",
    "\"version\": 1,",
    "@",
    "=",
    "0",
    "us",
    "ms",
    "s",
    "m",
    "global=",
    "generate=",
    "checkpoint.write:",
    ":torn",
    ":panic",
];

/// Valid time budget and failpoint specs the spec mutants start from.
const BUDGET_SEEDS: &[&str] = &[
    "250ms",
    "global=2s,compact=500ms",
    "generate=1s,compact=250ms,bench=3m",
];
const FAILPOINT_SEEDS: &[&str] = &[
    "checkpoint.write:torn@2",
    "checkpoint.read:io@1,telemetry.flush:full@3,netlist.read:io@2,pool.build:panic@7",
];

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    vec((0u8..4, any::<usize>(), any::<usize>(), any::<u8>()), 1..5)
}

fn mutate(seed: &[u8], edits: &[Edit]) -> String {
    let mut bytes = seed.to_vec();
    for &(kind, at, arg, bit) in edits {
        let at = at % (bytes.len() + 1);
        match kind {
            0 => {
                if let Some(byte) = bytes.get_mut(at) {
                    *byte ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(at),
            2 => {
                let from = arg % (bytes.len() + 1);
                let len = (arg >> 8) % 64;
                let piece = bytes[from..(from + len).min(bytes.len())].to_vec();
                bytes.splice(at..at, piece);
            }
            _ => {
                // One insertion in sixteen repeats its token: deep nesting
                // and long runs of separators.
                let repeat = if bit < 16 { 256 } else { 1 };
                let token = TOKENS[arg % TOKENS.len()].repeat(repeat);
                bytes.splice(at..at, token.into_bytes());
            }
        }
    }
    // The parsers take text; a file that is not UTF-8 fails its read.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every `.bench` fixture of the CLI tests, in name order.
fn bench_seeds() -> &'static [Vec<u8>] {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("fixture directory")
            .map(|entry| entry.expect("fixture entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "bench"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no .bench fixtures");
        paths
            .iter()
            .map(|path| std::fs::read(path).expect("readable fixture"))
            .collect()
    })
}

/// The checkpoint an `atpg s27` run writes.
fn checkpoint_seed() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| {
        let path = std::env::temp_dir().join(format!(
            "pdf-hostile-inputs-{}.ckpt.json",
            std::process::id()
        ));
        let line = ["atpg", "s27", "--np0", "10", "--checkpoint"];
        let mut args: Vec<String> = line.iter().map(|s| (*s).to_owned()).collect();
        args.push(path.to_str().expect("UTF-8 temp path").to_owned());
        pdf_cli::run(&args).expect("atpg s27 with a checkpoint");
        let text = std::fs::read(&path).expect("checkpoint written");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(pdf_atpg::previous_generation_path(&path));
        text
    })
}

/// A repro artifact with every cell field set: a resume cell with a
/// budget and failpoints beside the default cell.
fn repro_seed() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| {
        let mut busy = CellConfig::default_cell();
        busy.k = 3;
        busy.run_mode = RunMode::CheckpointResume {
            cancel_after_polls: 7,
        };
        busy.threads = 4;
        busy.budget_minutes = Some(10);
        busy.faults = Some("checkpoint.write:torn@2".to_owned());
        let repro = ReproCase {
            invariant: Invariant::Resume,
            detail: "resumed tests differ".to_owned(),
            circuit: "s27".to_owned(),
            bench: None,
            cells: vec![CellConfig::default_cell(), busy],
        };
        repro.to_json().to_pretty().into_bytes()
    })
}

/// The telemetry report an `atpg s27` run writes. The run is a child
/// process, so its recording leaves this process's telemetry alone.
fn report_seed() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| {
        let path = std::env::temp_dir().join(format!(
            "pdf-hostile-inputs-{}.report.json",
            std::process::id()
        ));
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_pdfatpg"));
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("PDF_") {
                cmd.env_remove(name);
            }
        }
        let out = cmd
            .args(["atpg", "s27", "--np0", "10", "--telemetry"])
            .arg(&path)
            .output()
            .expect("spawn pdfatpg");
        assert!(out.status.success(), "atpg s27 with a report");
        let text = std::fs::read(&path).expect("report written");
        let _ = std::fs::remove_file(&path);
        text
    })
}

/// Parses `text`; a document whose only fault is its checksum is
/// re-stamped with the CRC its mutated content needs and parsed again,
/// so mutants that keep the schema load instead of stopping at the CRC.
fn load(text: &str) -> Result<Checkpoint, CheckpointError> {
    match Checkpoint::from_json(text) {
        Err(CheckpointError::Corrupt {
            expected, found, ..
        }) if expected != found => {
            let stamped = text.replacen(&format!("{found:016x}"), &format!("{expected:016x}"), 1);
            Checkpoint::from_json(&stamped)
        }
        other => other,
    }
}

fn check_bench(seed: usize, edits: &[Edit]) -> Result<(), TestCaseError> {
    let seeds = bench_seeds();
    let text = mutate(&seeds[seed % seeds.len()], edits);
    let outcome = catch_unwind(|| {
        if let Err(e) = parse_bench(&text, "mutant") {
            let _ = e.to_string();
        }
    });
    prop_assert!(outcome.is_ok(), "parse_bench panicked on {text:?}");
    Ok(())
}

fn check_checkpoint(edits: &[Edit]) -> Result<(), TestCaseError> {
    let text = mutate(checkpoint_seed(), edits);
    let outcome = catch_unwind(AssertUnwindSafe(|| match load(&text) {
        // A mutant that loads is a checkpoint like any other.
        Ok(checkpoint) => Checkpoint::from_json(&checkpoint.to_json()).ok() == Some(checkpoint),
        Err(e) => !e.to_string().is_empty(),
    }));
    prop_assert!(
        outcome.is_ok(),
        "Checkpoint::from_json panicked on {text:?}"
    );
    prop_assert!(outcome.unwrap(), "no round trip or no message for {text:?}");
    Ok(())
}

/// Mutates the test lines of the seed checkpoint and re-stamps a valid
/// CRC: `--resume` of the result must refuse the checkpoint with a typed
/// error, or print a test set that starts with one test per entry, each
/// the entry's own test. By `mode`:
///
/// * 0: the edits run on the joined lines, so they may merge, split,
///   empty or drop entries;
/// * 1: each edit overwrites one character in place with a value, a
///   separator, a line break or a comment mark, so entry boundaries stay
///   and most mutants keep their shape and resume;
/// * 2: each edit moves an entry into the one before it, after a line
///   break, and appends a blank or comment-only entry, so the lines still
///   hold as many tests as the checkpoint's `completed` count.
fn check_resume_tests(mode: u8, edits: &[Edit]) -> Result<(), TestCaseError> {
    let text = String::from_utf8(checkpoint_seed().to_vec()).expect("UTF-8 checkpoint");
    let mut checkpoint = Checkpoint::from_json(&text).expect("the seed loads");
    if mode == 2 {
        for &(_, at, _, bit) in edits {
            let tests = &mut checkpoint.tests;
            let k = 1 + at % tests.len().saturating_sub(1).max(1);
            if k < tests.len() {
                let moved = tests.remove(k);
                tests[k - 1] = format!("{}\n{moved}", tests[k - 1]);
                tests.push(if bit % 2 == 0 { "" } else { "# moved" }.to_owned());
            }
        }
    } else if mode == 1 {
        let len = checkpoint
            .tests
            .iter()
            .map(String::len)
            .sum::<usize>()
            .max(1);
        for &(_, at, _, bit) in edits {
            let mut at = at % len;
            for entry in &mut checkpoint.tests {
                if at < entry.len() {
                    let mut bytes = std::mem::take(entry).into_bytes();
                    bytes[at] = b"01xX \n#"[usize::from(bit) % 7];
                    *entry = String::from_utf8(bytes).expect("ASCII edits of ASCII lines");
                    break;
                }
                at -= entry.len();
            }
        }
    } else {
        let joined = checkpoint.tests.join("\n");
        let lines = mutate(joined.as_bytes(), edits);
        checkpoint.tests = lines.split('\n').map(str::to_owned).collect();
    }
    // Per thread: the default and the long property may run at once.
    let path = std::env::temp_dir().join(format!(
        "pdf-hostile-inputs-{}-{:?}-resume.ckpt.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, checkpoint.to_json()).expect("write the mutant");
    let line = ["atpg", "s27", "--np0", "10", "--resume"];
    let mut args: Vec<String> = line.iter().map(|s| (*s).to_owned()).collect();
    args.push(path.to_str().expect("UTF-8 temp path").to_owned());
    let outcome = catch_unwind(|| match pdf_cli::run(&args) {
        Ok(out) => carries_each_entry(&out, &checkpoint.tests),
        Err(e) => e.code == pdf_cli::EXIT_ERROR && e.message.starts_with("--resume: "),
    });
    let _ = std::fs::remove_file(&path);
    prop_assert!(
        outcome.is_ok(),
        "--resume panicked on {:?}",
        checkpoint.tests
    );
    prop_assert!(
        outcome.unwrap(),
        "no typed refusal, and no test per entry, for {:?}",
        checkpoint.tests
    );
    Ok(())
}

/// Whether the test set a resumed run printed starts with `entries`,
/// each parsed on its own to exactly one test.
fn carries_each_entry(out: &str, entries: &[String]) -> bool {
    let Some(at) = out.find("# path-delay-atpg test set v1") else {
        return false;
    };
    let Ok(resumed) = TestSet::from_text(&out[at..]) else {
        return false;
    };
    entries.len() <= resumed.len()
        && entries.iter().zip(resumed.tests()).all(|(entry, test)| {
            TestSet::from_text(entry).is_ok_and(|own| own.tests() == std::slice::from_ref(test))
        })
}

fn check_repro(edits: &[Edit]) -> Result<(), TestCaseError> {
    let text = mutate(repro_seed(), edits);
    let outcome = catch_unwind(|| match ReproCase::parse(&text) {
        Ok(repro) => {
            let back = ReproCase::parse(&repro.to_json().to_pretty());
            repro
                .cells
                .iter()
                .all(|c| (2..=pdf_matrix::MAX_K).contains(&c.k))
                && back.is_ok_and(|b| {
                    (&b.invariant, &b.detail, &b.circuit, &b.bench, &b.cells)
                        == (
                            &repro.invariant,
                            &repro.detail,
                            &repro.circuit,
                            &repro.bench,
                            &repro.cells,
                        )
                })
        }
        Err(e) => !e.is_empty(),
    });
    prop_assert!(outcome.is_ok(), "ReproCase::parse panicked on {text:?}");
    prop_assert!(outcome.unwrap(), "no round trip or no message for {text:?}");
    Ok(())
}

fn check_report(edits: &[Edit]) -> Result<(), TestCaseError> {
    let text = mutate(report_seed(), edits);
    let outcome = catch_unwind(|| match RunReport::from_json(&text) {
        Ok(report) => RunReport::from_json(&report.to_json()).ok() == Some(report),
        Err(e) => !e.to_string().is_empty(),
    });
    prop_assert!(outcome.is_ok(), "RunReport::from_json panicked on {text:?}");
    prop_assert!(outcome.unwrap(), "no round trip or no message for {text:?}");
    Ok(())
}

fn check_budget(seed: usize, edits: &[Edit]) -> Result<(), TestCaseError> {
    let text = mutate(BUDGET_SEEDS[seed % BUDGET_SEEDS.len()].as_bytes(), edits);
    let outcome = catch_unwind(|| match BudgetSpec::parse(&text) {
        // An accepted spec yields deadlines for every phase.
        Ok(spec) => {
            let now = std::time::Instant::now();
            for phase in ["generate", "compact", "bench"] {
                let _ = spec.deadline_for(phase, now, now);
            }
            true
        }
        Err(e) => !e.is_empty(),
    });
    prop_assert!(outcome.is_ok(), "BudgetSpec::parse panicked on {text:?}");
    prop_assert!(outcome.unwrap(), "no message for {text:?}");
    Ok(())
}

fn check_failpoints(seed: usize, edits: &[Edit]) -> Result<(), TestCaseError> {
    let text = mutate(
        FAILPOINT_SEEDS[seed % FAILPOINT_SEEDS.len()].as_bytes(),
        edits,
    );
    let outcome = catch_unwind(|| match FailpointSpec::parse(&text) {
        Ok(spec) => FailpointSpec::parse(&spec.to_string()).ok() == Some(spec),
        Err(e) => !e.is_empty(),
    });
    prop_assert!(outcome.is_ok(), "FailpointSpec::parse panicked on {text:?}");
    prop_assert!(outcome.unwrap(), "no round trip or no message for {text:?}");
    Ok(())
}

#[test]
fn the_seeds_parse() {
    for text in BUDGET_SEEDS {
        assert!(BudgetSpec::parse(text).is_ok(), "{text}");
    }
    for text in FAILPOINT_SEEDS {
        assert_eq!(FailpointSpec::parse(text).expect(text).to_string(), *text);
    }
    for seed in bench_seeds() {
        let text = String::from_utf8(seed.clone()).expect("UTF-8 fixture");
        // Some fixtures are malformed on purpose; none may panic.
        let _ = parse_bench(&text, "seed");
    }
    let text = String::from_utf8(checkpoint_seed().to_vec()).expect("UTF-8 checkpoint");
    assert!(Checkpoint::from_json(&text).is_ok());
    let text = String::from_utf8(repro_seed().to_vec()).expect("UTF-8 artifact");
    assert_eq!(ReproCase::parse(&text).expect("artifact").cells.len(), 2);
    let text = String::from_utf8(report_seed().to_vec()).expect("UTF-8 report");
    assert!(!RunReport::from_json(&text)
        .expect("report")
        .spans
        .is_empty());
}

#[test]
fn hostile_repro_fields_are_typed_errors() {
    // Each edit of the seed artifact is refused with a message naming
    // what is wrong; none is replayed, so a huge `k` allocates nothing.
    let seed = String::from_utf8(repro_seed().to_vec()).expect("UTF-8 artifact");
    for (from, to, message) in [
        ("\"version\": 1,", "\"version\": 1.9,", "version"),
        ("\"k\": 3,", "\"k\": 1e15,", "`k`"),
        ("\"k\": 3,", "\"k\": 17,", "`k`"),
        ("\"k\": 3,", "\"k\": 2.5,", "`k`"),
        ("\"resume@7\"", "\"resume@0\"", "`run_mode`"),
        (
            "\"budget_minutes\": 10,",
            "\"budget_minutes\": 1e300,",
            "budget_minutes",
        ),
        ("\"threads\": 4,", "\"threads\": -4,", "threads"),
    ] {
        assert!(seed.contains(from), "{from}");
        let text = seed.replacen(from, to, 1);
        let e = ReproCase::parse(&text).unwrap_err();
        assert!(e.contains(message), "{to}: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mutated_bench_text_parses_or_fails_typed(seed in any::<usize>(), edits in edits()) {
        check_bench(seed, &edits)?;
    }

    #[test]
    fn mutated_checkpoints_load_or_fail_typed(edits in edits()) {
        check_checkpoint(&edits)?;
    }

    #[test]
    fn mutated_checkpoint_tests_resume_or_fail_typed(mode in 0u8..3, edits in edits()) {
        check_resume_tests(mode, &edits)?;
    }

    #[test]
    fn mutated_repro_artifacts_parse_or_fail_typed(edits in edits()) {
        check_repro(&edits)?;
    }

    #[test]
    fn mutated_run_reports_parse_or_fail_typed(edits in edits()) {
        check_report(&edits)?;
    }

    #[test]
    fn mutated_budget_specs_parse_or_fail_typed(seed in any::<usize>(), edits in edits()) {
        check_budget(seed, &edits)?;
    }

    #[test]
    fn mutated_failpoint_specs_parse_or_fail_typed(seed in any::<usize>(), edits in edits()) {
        check_failpoints(seed, &edits)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LONG_CASES))]

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_bench_text_long(seed in any::<usize>(), edits in edits()) {
        check_bench(seed, &edits)?;
    }

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_checkpoints_long(edits in edits()) {
        check_checkpoint(&edits)?;
    }

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_checkpoint_tests_long(mode in 0u8..3, edits in edits()) {
        check_resume_tests(mode, &edits)?;
    }

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_repro_artifacts_long(edits in edits()) {
        check_repro(&edits)?;
    }

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_run_reports_long(edits in edits()) {
        check_report(&edits)?;
    }

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_budget_specs_long(seed in any::<usize>(), edits in edits()) {
        check_budget(seed, &edits)?;
    }

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_failpoint_specs_long(seed in any::<usize>(), edits in edits()) {
        check_failpoints(seed, &edits)?;
    }
}
