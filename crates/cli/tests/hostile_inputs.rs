//! Mutation properties for the parsers that read bytes from disk: every
//! mutant of a `.bench` fixture, and of a checkpoint journal, a matrix
//! repro artifact and a telemetry run report, must parse or fail with a
//! typed error — never panic. A document that parses must write back to
//! the same value, and a repro cell's `k`, which sizes the split it pads,
//! stays within `pdf_matrix::MAX_K`. The spec grammars read from flags
//! and variables — time budgets and failpoints — are held to the same
//! rule, and an accepted failpoint spec must print back to itself.
//!
//! The checkpoint journal gets two more properties, both with every
//! line's chained CRC re-stamped after the edit so that the mutant is
//! judged on its content: the test lines inside it, and whole records
//! (duplicated, reordered, spliced from another run's journal, or given
//! out-of-range, repeated or re-set flag indices). `--resume` of each
//! must refuse it with a typed error or print one test per entry, in
//! order.
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

/// The `atpg` line every checkpoint seed is written by (with
/// `--checkpoint-every 1`, which gives its journal three records) and
/// resumed with, before its `--seed`.
const LINE: [&str; 2] = ["atpg", "c17"];
/// The seed of the seed journal's run and of every resume.
const RUN_SEED: &str = "2002";

/// The checkpoint journal of a [`LINE`] run at `seed`.
fn journal_of(seed: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "pdf-hostile-inputs-{}-{seed}.ckpt.json",
        std::process::id()
    ));
    let mut args: Vec<String> = LINE.iter().map(|s| (*s).to_owned()).collect();
    args.extend(["--checkpoint-every", "1", "--seed", seed, "--checkpoint"].map(str::to_owned));
    args.push(path.to_str().expect("UTF-8 temp path").to_owned());
    pdf_cli::run(&args).expect("atpg with a checkpoint");
    let bytes = std::fs::read(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// The checkpoint journal of the [`LINE`] run every resume repeats.
fn checkpoint_seed() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| journal_of(RUN_SEED))
}

/// The journal of the same line at another seed: the records spliced
/// into the seed journal come from it.
fn foreign_journal() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| journal_of("9"))
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

/// The bytes after the checksummed body of a journal line: the
/// `,"crc64":"` key, 16 hex digits, and the closing `"}`.
const CRC_SUFFIX_LEN: usize = 10 + 16 + 2;

/// Re-stamps the chained CRC of every line of `journal` that still ends
/// in a checksum field, so an edit fails only on what it did to the
/// content. Other lines are kept as they are.
fn restamp(journal: &[u8]) -> Vec<u8> {
    let mut chain = 0;
    let mut out = Vec::with_capacity(journal.len());
    for piece in journal.split_inclusive(|&b| b == b'\n') {
        let line = piece.strip_suffix(b"\n").unwrap_or(piece);
        let stamped = line.len() >= CRC_SUFFIX_LEN
            && line[line.len() - CRC_SUFFIX_LEN..].starts_with(b",\"crc64\":\"")
            && line.ends_with(b"\"}");
        if stamped {
            let body = &line[..line.len() - CRC_SUFFIX_LEN];
            chain = pdf_runctl::crc64_extend(chain, body);
            out.extend_from_slice(body);
            out.extend_from_slice(format!(",\"crc64\":\"{chain:016x}\"}}").as_bytes());
            out.extend_from_slice(&piece[line.len()..]);
        } else {
            out.extend_from_slice(piece);
        }
    }
    out
}

/// Replays `journal` as it is and re-stamped: a mutant that keeps its
/// lines' shape then loads, or fails on its content instead of at the
/// CRC.
fn load(journal: &[u8]) -> [Result<Checkpoint, CheckpointError>; 2] {
    [journal.to_vec(), restamp(journal)].map(|bytes| Checkpoint::from_journal(&bytes))
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
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        load(text.as_bytes())
            .into_iter()
            .all(|loaded| match loaded {
                // A mutant that loads is a checkpoint like any other.
                Ok(checkpoint) => {
                    Checkpoint::from_journal(checkpoint.to_journal().as_bytes()).ok()
                        == Some(checkpoint)
                }
                Err(e) => !e.to_string().is_empty(),
            })
    }));
    prop_assert!(
        outcome.is_ok(),
        "Checkpoint::from_journal panicked on {text:?}"
    );
    prop_assert!(outcome.unwrap(), "no round trip or no message for {text:?}");
    Ok(())
}

/// Mutates the test lines of the seed checkpoint and writes it as a fresh
/// journal: `--resume` of the result must refuse the checkpoint with a
/// typed error, or print a test set that starts with one test per entry,
/// each the entry's own test. By `mode`:
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
    let mut checkpoint = Checkpoint::from_journal(checkpoint_seed()).expect("the seed loads");
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
    let outcome = catch_unwind(|| match resume(checkpoint.to_journal().as_bytes()) {
        Ok(out) => carries_each_entry(&out, &checkpoint.tests),
        Err(e) => e.code == pdf_cli::EXIT_ERROR && e.message.starts_with("--resume: "),
    });
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

/// Runs [`LINE`] with `--resume` of a file holding `journal`.
fn resume(journal: &[u8]) -> Result<String, pdf_cli::CliError> {
    resume_and_replay(journal).0
}

/// [`resume`], and what [`Checkpoint::load_with_recovery`] — the load
/// `--resume` makes — replays the file to.
fn resume_and_replay(
    journal: &[u8],
) -> (
    Result<String, pdf_cli::CliError>,
    Result<(Checkpoint, bool), CheckpointError>,
) {
    // Per thread: the default and the long properties may run at once.
    let path = std::env::temp_dir().join(format!(
        "pdf-hostile-inputs-{}-{:?}-resume.ckpt.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, journal).expect("write the mutant");
    let mut args: Vec<String> = LINE.iter().map(|s| (*s).to_owned()).collect();
    args.extend(["--seed", RUN_SEED, "--resume"].map(str::to_owned));
    args.push(path.to_str().expect("UTF-8 temp path").to_owned());
    let out = pdf_cli::run(&args);
    let replayed = Checkpoint::load_with_recovery(&path);
    let _ = std::fs::remove_file(&path);
    (out, replayed)
}

/// Edits whole records of the seed journal, re-stamps every checksum,
/// and resumes from it: `--resume` must refuse the journal with a typed
/// error, or print one test per entry of what the journal replays to.
/// Each edit, by kind, on record `at` (the header is line 0):
///
/// * 0: duplicate the record in place;
/// * 1: swap it with the record after it;
/// * 2: replace it with the same line of another run's journal;
/// * 3: add an index past the fault count to its `detected`;
/// * 4: repeat its first `detected` index, or name again an index an
///   earlier record set (read as a toggle, that would unset the flag);
/// * 5: drop it.
fn check_journal_records(edits: &[Edit]) -> Result<(), TestCaseError> {
    let lines = |bytes: &[u8]| -> Vec<String> {
        String::from_utf8(bytes.to_vec())
            .expect("UTF-8 journal")
            .split_inclusive('\n')
            .map(str::to_owned)
            .collect()
    };
    let foreign = lines(foreign_journal());
    let mut journal = lines(checkpoint_seed());
    for &(_, at, _, kind) in edits {
        if journal.len() < 2 {
            break;
        }
        let at = 1 + at % (journal.len() - 1);
        match kind % 6 {
            0 => journal.insert(at, journal[at].clone()),
            1 if at + 1 < journal.len() => journal.swap(at, at + 1),
            2 => {
                if let Some(line) = foreign.get(at) {
                    journal[at].clone_from(line);
                }
            }
            3 => journal[at] = also_detected(&journal[at], 99_999),
            4 => {
                let earlier = journal[1..at]
                    .iter()
                    .find_map(|line| first_detected(line))
                    .or_else(|| first_detected(&journal[at]));
                if let Some(index) = earlier {
                    journal[at] = also_detected(&journal[at], index);
                }
            }
            _ => {
                journal.remove(at);
            }
        }
    }
    let bytes = restamp(journal.concat().as_bytes());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (resumed, replayed) = resume_and_replay(&bytes);
        match resumed {
            Ok(out) => replayed.is_ok_and(|(cp, _)| carries_each_entry(&out, &cp.tests)),
            Err(e) => {
                replayed.is_err()
                    && [pdf_cli::EXIT_ERROR, pdf_cli::EXIT_CORRUPT].contains(&e.code)
                    && e.message.starts_with("--resume: ")
            }
        }
    }));
    prop_assert!(outcome.is_ok(), "--resume panicked on {journal:?}");
    prop_assert!(
        outcome.unwrap(),
        "no typed refusal, and no test per entry, for {journal:?}"
    );
    Ok(())
}

/// A journal record with `index` put first in its `detected` list.
fn also_detected(line: &str, index: usize) -> String {
    let key = "\"detected\":[";
    let separator = if line.contains(&format!("{key}]")) {
        ""
    } else {
        ","
    };
    line.replacen(key, &format!("{key}{index}{separator}"), 1)
}

/// The first index of a journal record's `detected` list, if any.
fn first_detected(line: &str) -> Option<usize> {
    let list = line.split_once("\"detected\":[")?.1;
    list[..list.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
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
    let checkpoint = Checkpoint::from_journal(checkpoint_seed()).expect("the seed loads");
    assert!(
        checkpoint.generation > 1,
        "the seed journal has several records"
    );
    assert!(Checkpoint::from_journal(foreign_journal()).is_ok());
    assert_eq!(restamp(checkpoint_seed()), checkpoint_seed());
    // Unedited, the seed journal resumes: the properties are not vacuous.
    let out = resume(checkpoint_seed()).expect("the seed resumes");
    assert!(carries_each_entry(&out, &checkpoint.tests), "{out}");
    let text = String::from_utf8(repro_seed().to_vec()).expect("UTF-8 artifact");
    assert_eq!(ReproCase::parse(&text).expect("artifact").cells.len(), 2);
    let text = String::from_utf8(report_seed().to_vec()).expect("UTF-8 report");
    assert!(!RunReport::from_json(&text)
        .expect("report")
        .spans
        .is_empty());
}

#[test]
fn a_version_3_checkpoint_is_refused_by_its_version() {
    // `fixtures/checkpoint_v3.json`: the single-document checkpoint the
    // format before the journal wrote for `atpg s27 --np0 10 --seed 9`.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v3.json");
    let bytes = std::fs::read(&path).expect("the fixture");
    assert!(matches!(
        Checkpoint::from_journal(&bytes),
        Err(CheckpointError::Version { found: 3 })
    ));
    let line = ["atpg", "s27", "--np0", "10", "--seed", "9", "--resume"];
    let mut args: Vec<String> = line.iter().map(|s| (*s).to_owned()).collect();
    args.push(path.to_str().expect("UTF-8 path").to_owned());
    let e = pdf_cli::run(&args).unwrap_err();
    assert_eq!(e.code, pdf_cli::EXIT_ERROR, "{e}");
    assert_eq!(
        e.message,
        "--resume: checkpoint format version 3 is not supported (expected 4)"
    );
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
    fn edited_journal_records_resume_or_fail_typed(edits in edits()) {
        check_journal_records(&edits)?;
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
    fn edited_journal_records_long(edits in edits()) {
        check_journal_records(&edits)?;
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
