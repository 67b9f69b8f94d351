//! Mutation properties for the parsers that read bytes from disk: every
//! mutant of a `.bench` fixture, and of a checkpoint, a matrix repro
//! artifact and a telemetry run report, must parse or fail with a typed
//! error — never panic. A document that parses must write back to the
//! same value, and a repro cell's `k`, which sizes the split it pads,
//! stays within `pdf_matrix::MAX_K`.
//!
//! A mutant is its seed after one to four edits: bit flips, truncations,
//! splices of another stretch of the same input, and insertions of
//! grammar tokens, oversized numbers or deep nesting. The `#[ignore]`d
//! variants run the same properties over many more cases:
//! `cargo test --release -p pdf-cli --test hostile_inputs -- --ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

use pdf_atpg::{Checkpoint, CheckpointError};
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

#[test]
fn the_seeds_parse() {
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
    fn mutated_repro_artifacts_parse_or_fail_typed(edits in edits()) {
        check_repro(&edits)?;
    }

    #[test]
    fn mutated_run_reports_parse_or_fail_typed(edits in edits()) {
        check_report(&edits)?;
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
    fn mutated_repro_artifacts_long(edits in edits()) {
        check_repro(&edits)?;
    }

    #[test]
    #[ignore = "long mutation run; nightly CI passes --ignored"]
    fn mutated_run_reports_long(edits in edits()) {
        check_report(&edits)?;
    }
}
