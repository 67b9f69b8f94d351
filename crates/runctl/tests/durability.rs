//! Crash-consistency oracle for the checkpoint journal: a journal
//! truncated at *every* byte, or with any one byte flipped, must replay to
//! one of the generations it was written with or fail typed — never load
//! a state that was not written. Records duplicated, reordered or spliced
//! from another journal must fail typed even with their checksums
//! re-stamped, and so must flag indices out of range, repeated, or named
//! again after they were set. The `checkpoint.write` / `checkpoint.read`
//! failpoints must either heal through the bounded retry loop or leave the
//! record before a torn one reachable.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use pdf_chaos::FailpointSpec;
use pdf_runctl::{crc64, crc64_extend, Checkpoint, CheckpointError, Journal, CHECKPOINT_VERSION};

/// The failpoint registry and telemetry store are process-global; every
/// test that arms failpoints or records counters serializes here.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Generation `generation` of a run: one more test and one more
/// detection per generation.
fn checkpoint(generation: u64) -> Checkpoint {
    let tests = (0..=generation)
        .map(|k| format!("{:04b} 1100", k % 16))
        .collect::<Vec<_>>();
    Checkpoint {
        generation,
        circuit: "s27".to_owned(),
        seed: 0x0123_4567_89AB_CDEF,
        fingerprint: "arbit:regen:1:packed".to_owned(),
        set_sizes: vec![7, 4, 2],
        completed: tests.len(),
        detected: (0..=generation as usize).map(|k| 2 * k).collect(),
        aborted: vec![1],
        quarantined: Vec::new(),
        tests,
        counters: vec![("aborted_primaries".to_owned(), generation)],
        complete: false,
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pdf_durability_{tag}_{}_{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Writes generations `1..=n` through one journal; returns the file's
/// bytes and where each record ends.
fn journal(path: &Path, n: u64) -> (Vec<u8>, Vec<usize>) {
    let mut journal = Journal::new(path);
    let mut ends = Vec::new();
    for generation in 1..=n {
        journal.write(&checkpoint(generation)).expect("write");
        ends.push(std::fs::metadata(path).expect("journal").len() as usize);
    }
    (std::fs::read(path).expect("journal bytes"), ends)
}

/// The journal's lines, newlines included.
fn lines(bytes: &[u8]) -> Vec<Vec<u8>> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect()
}

/// Re-stamps every line's chained checksum.
fn restamp(lines: &[Vec<u8>]) -> Vec<u8> {
    const SUFFIX: usize = 10 + 16 + 2 + 1;
    let mut chain = 0;
    let mut out = Vec::new();
    for line in lines {
        let body = &line[..line.len() - SUFFIX];
        chain = crc64_extend(chain, body);
        out.extend_from_slice(body);
        out.extend_from_slice(format!(",\"crc64\":\"{chain:016x}\"}}\n").as_bytes());
    }
    out
}

fn schema(bytes: &[u8]) -> String {
    match Checkpoint::from_journal(bytes) {
        Err(CheckpointError::Schema(message)) => message,
        other => panic!("expected a schema error, got {other:?}"),
    }
}

/// Three records on disk, then the file is replaced by every strict
/// prefix of itself. A prefix ending on a record boundary is that
/// generation, intact; one ending inside a record replays to the record
/// before it as a recovery; one ending inside the first record (or the
/// header) has no good state and is corruption.
#[test]
fn truncation_at_every_byte_recovers_the_record_before_the_cut() {
    let _serial = lock();
    pdf_chaos::clear();
    let path = scratch("torn");
    let (full, ends) = journal(&path, 3);
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).expect("plant truncated file");
        let loaded = Checkpoint::load_with_recovery(&path);
        match ends.iter().rposition(|&end| end <= cut) {
            None => assert!(
                matches!(loaded, Err(CheckpointError::Corrupt { .. })),
                "cut at byte {cut}: {loaded:?}"
            ),
            Some(k) => {
                let (cp, recovered) =
                    loaded.unwrap_or_else(|e| panic!("cut at byte {cut}/{}: {e}", full.len()));
                assert_eq!(cp, checkpoint(k as u64 + 1), "cut at byte {cut}");
                assert_eq!(recovered, ends[k] != cut, "cut at byte {cut}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Any one flipped bit anywhere replays to a written generation or
/// fails typed.
#[test]
fn a_flipped_bit_anywhere_never_loads_an_unwritten_state() {
    let _serial = lock();
    let (full, _) = journal(&scratch("flip"), 3);
    let _ = std::fs::remove_file(scratch("flip"));
    let written: Vec<Checkpoint> = (1..=3).map(checkpoint).collect();
    for at in 0..full.len() {
        for bit in 0..8 {
            let mut bytes = full.clone();
            bytes[at] ^= 1 << bit;
            match Checkpoint::from_journal(&bytes) {
                Ok(cp) => assert!(written.contains(&cp), "byte {at} bit {bit}: {cp:?}"),
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }
}

#[test]
fn bit_rot_in_an_earlier_record_is_corruption_and_in_the_last_a_recovery() {
    let _serial = lock();
    pdf_chaos::clear();
    let path = scratch("rot");
    let (full, ends) = journal(&path, 3);
    // Flip a digit JSON cannot see inside the first record's test line.
    let text = String::from_utf8(full).expect("UTF-8");
    let first = text.find("0000 1100").expect("generation 1's first test");
    let rotted = text.replacen("0000 1100", "0001 1100", 1);
    std::fs::write(&path, &rotted).expect("plant rotted file");
    match Checkpoint::load_with_recovery(&path) {
        Err(CheckpointError::Corrupt {
            offset,
            expected,
            found,
        }) => {
            assert_ne!(expected, found);
            assert!(offset < first && first < ends[0], "offset {offset}");
        }
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
    // The same flip in the last record is a torn tail: dropped.
    let last = text.rfind("0011 1100").expect("generation 3's new test");
    assert!(last > ends[1]);
    let mut tail_rot = text.into_bytes();
    tail_rot[last + 3] = b'0';
    std::fs::write(&path, &tail_rot).expect("plant rotted tail");
    let (loaded, recovered) = Checkpoint::load_with_recovery(&path).expect("recovery");
    assert_eq!(loaded, checkpoint(2));
    assert!(recovered);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicated_reordered_and_spliced_records_are_refused() {
    let _serial = lock();
    let path = scratch("splice");
    let (full, _) = journal(&path, 3);
    let lines = lines(&full);
    // As written, the chain stops a record moved anywhere else.
    let swapped = [&lines[0], &lines[2], &lines[1], &lines[3]].map(Vec::clone);
    assert!(matches!(
        Checkpoint::from_journal(&swapped.concat()),
        Err(CheckpointError::Corrupt { .. })
    ));
    // Re-stamped, the history itself refuses it.
    let duplicated = [&lines[0], &lines[1], &lines[2], &lines[2]].map(Vec::clone);
    assert!(schema(&restamp(&duplicated)).contains("generation 2 follows generation 2"));
    // The first record of a journal may start at any generation, but not
    // without the tests before it.
    assert!(schema(&restamp(&swapped)).contains("`completed` is 3 but the journal holds 1 tests"));
    let dropped = [&lines[0], &lines[1], &lines[3]].map(Vec::clone);
    assert!(schema(&restamp(&dropped)).contains("generation 3 follows generation 1"));
    // A record of another run's journal at the same generation: its
    // checksum chains over the other header, and its history does not
    // continue this one's (it sets fault 2, which this one's first
    // record already set).
    let mut other = Journal::new(&path);
    let foreign = |g: u64| Checkpoint {
        seed: 9,
        detected: if g == 1 { vec![1, 3] } else { vec![1, 2, 3] },
        ..checkpoint(g)
    };
    other.write(&foreign(1)).expect("write");
    other.write(&foreign(2)).expect("write");
    let theirs = self::lines(&std::fs::read(&path).expect("journal"));
    let spliced = [&lines[0], &lines[1], &theirs[2]].map(Vec::clone);
    assert!(matches!(
        Checkpoint::from_journal(&spliced.concat()),
        Err(CheckpointError::Corrupt { .. })
    ));
    assert!(schema(&restamp(&spliced)).contains("set twice"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_flag_indices_are_refused_even_re_stamped() {
    let _serial = lock();
    let path = scratch("indices");
    let (full, _) = journal(&path, 2);
    let _ = std::fs::remove_file(&path);
    let text = String::from_utf8(full).expect("UTF-8");
    for (from, to, message) in [
        // 13 faults in all: index 13 is out of range.
        (
            "\"aborted\":[1]",
            "\"aborted\":[13]",
            "index 13 is out of range",
        ),
        ("\"aborted\":[1]", "\"aborted\":[1,1]", "not ascending"),
        ("\"detected\":[0,2]", "\"detected\":[2,0]", "not ascending"),
        // Generation 2 names fault 0 again: read as a toggle, it would
        // go from set back to unset.
        (
            "\"detected\":[4]",
            "\"detected\":[0,4]",
            "fault 0 is set twice",
        ),
    ] {
        assert!(text.contains(from), "{from}");
        let edited = lines(text.replacen(from, to, 1).as_bytes());
        let message_found = schema(&restamp(&edited));
        assert!(message_found.contains(message), "{to}: {message_found}");
    }
}

#[test]
fn a_single_document_checkpoint_is_refused_by_its_version() {
    // The shape of the version 3 files: one pretty-printed document.
    let v3 = "{\n  \"format\": \"path-delay-atpg checkpoint\",\n  \"version\": 3,\n  \
              \"generation\": 2,\n  \"crc64\": \"5c648a80dd6094e9\"\n}\n";
    assert!(matches!(
        Checkpoint::from_journal(v3.as_bytes()),
        Err(CheckpointError::Version { found: 3 })
    ));
    assert_ne!(CHECKPOINT_VERSION, 3);
}

#[test]
fn transient_write_and_read_failures_heal_through_retries() {
    let _serial = lock();
    let path = scratch("transient");
    let _ = pdf_telemetry::begin_recording();
    let mut journal = Journal::new(&path);
    // The first write creates the journal, the second appends.
    // Evaluations 1 and 3: the create's first attempt, then the
    // append's (evaluation 2 is the create's retry).
    let spec = "checkpoint.write:io@1,checkpoint.write:io@3";
    pdf_chaos::install(&FailpointSpec::parse(spec).expect("valid"));
    journal
        .write(&checkpoint(1))
        .expect("transient write error must heal");
    journal
        .write(&checkpoint(2))
        .expect("transient append error must heal");
    pdf_chaos::install(&FailpointSpec::parse("checkpoint.read:io@1").expect("valid"));
    assert_eq!(Checkpoint::load(&path).expect("heals"), checkpoint(2));
    pdf_chaos::clear();
    let report = pdf_telemetry::report();
    pdf_telemetry::disable();
    pdf_telemetry::reset();
    assert_eq!(report.counter("failpoints_hit"), Some(3));
    assert_eq!(report.counter("io_retries"), Some(3));
    let healed = std::fs::read(&path).expect("journal");
    let (clean, _) = journal_clean(&path);
    assert_eq!(healed, clean, "a healed journal is the clean journal");
    let _ = std::fs::remove_file(&path);
}

fn journal_clean(path: &Path) -> (Vec<u8>, Vec<usize>) {
    let _ = std::fs::remove_file(path);
    journal(path, 2)
}

#[test]
fn persistent_write_failure_is_an_error_not_corruption() {
    let _serial = lock();
    let path = scratch("persistent");
    pdf_chaos::install(&FailpointSpec::parse("checkpoint.write:full@1").expect("valid"));
    let result = checkpoint(1).save(&path);
    pdf_chaos::clear();
    assert!(matches!(result, Err(CheckpointError::Io { .. })));
    assert!(!path.exists(), "no file may appear on a failed save");
    // A failed append leaves the journal at the record before it.
    let mut journal = Journal::new(&path);
    journal.write(&checkpoint(1)).expect("write");
    pdf_chaos::install(&FailpointSpec::parse("checkpoint.write:full@1").expect("valid"));
    assert!(journal.write(&checkpoint(2)).is_err());
    pdf_chaos::clear();
    assert_eq!(Checkpoint::load(&path).expect("intact"), checkpoint(1));
    journal
        .write(&checkpoint(2))
        .expect("the next write appends");
    assert_eq!(Checkpoint::load(&path).expect("appended"), checkpoint(2));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_injected_torn_append_is_recovered_and_then_healed() {
    let _serial = lock();
    let path = scratch("injected_torn");
    let mut journal = Journal::new(&path);
    journal.write(&checkpoint(1)).expect("write generation 1");
    pdf_chaos::install(&FailpointSpec::parse("checkpoint.write:torn@1").expect("valid"));
    journal
        .write(&checkpoint(2))
        .expect("torn writes report success");
    pdf_chaos::clear();
    assert!(matches!(
        Checkpoint::load(&path),
        Err(CheckpointError::Corrupt { .. })
    ));
    let (loaded, recovered) = Checkpoint::load_with_recovery(&path).expect("recovery");
    assert_eq!(loaded, checkpoint(1), "the torn record must not load");
    assert!(recovered);
    // The next write finds the file short of its last record and
    // rewrites a fresh journal instead of appending after the tear.
    journal.write(&checkpoint(3)).expect("write generation 3");
    assert_eq!(
        std::fs::read_to_string(&path).expect("journal"),
        checkpoint(3).to_journal()
    );
    let _ = std::fs::remove_file(&path);
}

/// A hostile journal nested far past the JSON parser's limit loads as
/// corruption (never a stack overflow).
#[test]
fn deeply_nested_lines_are_corrupt_not_a_stack_overflow() {
    let _serial = lock();
    let path = scratch("nested");
    let (full, _) = journal(&path, 1);
    let _ = std::fs::remove_file(&path);
    let nested = "[".repeat(100_000);
    assert!(matches!(
        Checkpoint::from_journal(nested.as_bytes()),
        Err(CheckpointError::Corrupt { .. })
    ));
    let mut bytes = full;
    bytes.extend_from_slice(format!("{nested}\n{nested}").as_bytes());
    assert!(matches!(
        Checkpoint::from_journal(&bytes),
        Err(CheckpointError::Corrupt { .. })
    ));
}

#[test]
fn crc64_matches_the_ecma_reference_vector() {
    // ECMA-182 reflected, aka CRC-64/XZ: check value for "123456789".
    assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64(b""), 0);
    assert_eq!(crc64_extend(crc64(b"1234"), b"56789"), crc64(b"123456789"));
}
