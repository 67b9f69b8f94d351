//! Crash-consistency oracle for the checkpoint store: a torn write
//! truncated at *every* byte boundary must recover the previous-good
//! generation (never load corrupt state), bit-rot must surface as a
//! typed CRC mismatch, and the `checkpoint.write`/`checkpoint.read`
//! failpoints must either heal through the bounded retry loop or leave
//! the previous generation reachable.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use pdf_chaos::FailpointSpec;
use pdf_runctl::{
    crc64, previous_generation_path, Checkpoint, CheckpointError, CHECKPOINT_VERSION,
};

/// The failpoint registry and telemetry store are process-global; every
/// test that arms failpoints or records counters serializes here.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn checkpoint(generation: u64) -> Checkpoint {
    Checkpoint {
        version: CHECKPOINT_VERSION,
        generation,
        circuit: "s27".to_owned(),
        seed: 0x0123_4567_89AB_CDEF ^ generation,
        fingerprint: "arbit:regen:1:packed".to_owned(),
        set_sizes: vec![7, 4, 2],
        completed: 3 + generation as usize,
        rng_state: 0,
        detected: vec![true, false, true, false, true, false, false],
        aborted: vec![false; 7],
        quarantined: vec![false; 7],
        tests: vec!["0101 1100".to_owned(), "1111 0000".to_owned()],
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

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(previous_generation_path(path));
}

/// Two generations on disk (current + `.prev`), then the current file is
/// replaced by every possible strict prefix of itself. Every truncation
/// must load as a *valid* checkpoint — generation 1 via recovery, or
/// generation 2 in the one case where the truncation only dropped the
/// trailing newline and the document is still semantically complete.
#[test]
fn truncation_at_every_byte_boundary_recovers_a_good_generation() {
    let _serial = lock();
    pdf_chaos::clear();
    let path = scratch("torn");
    let (first, second) = (checkpoint(1), checkpoint(2));
    first.save(&path).expect("save generation 1");
    second.save(&path).expect("save generation 2");
    let full = std::fs::read(&path).expect("current generation bytes");
    assert!(full.len() > 2, "checkpoint must be non-trivial");
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).expect("plant truncated file");
        let (loaded, recovered) = Checkpoint::load_with_recovery(&path)
            .unwrap_or_else(|e| panic!("cut at byte {cut}/{}: {e}", full.len()));
        if cut == full.len() - 1 {
            // Only the trailing newline is missing: the JSON document is
            // complete and the CRC (computed over the re-rendered full
            // text) still verifies. Not corruption, not a fallback.
            assert_eq!(loaded, second, "cut at byte {cut}");
            assert!(!recovered, "cut at byte {cut}");
        } else {
            assert_eq!(loaded, first, "cut at byte {cut} must fall back");
            assert!(recovered, "cut at byte {cut} must report the fallback");
        }
    }
    cleanup(&path);
}

#[test]
fn bit_rot_is_detected_by_the_checksum_and_recovered() {
    let _serial = lock();
    pdf_chaos::clear();
    let path = scratch("rot");
    let (first, second) = (checkpoint(1), checkpoint(2));
    first.save(&path).expect("save generation 1");
    second.save(&path).expect("save generation 2");
    // Flip a payload character JSON cannot see: '0' -> '1' inside the
    // detected flags string.
    let text = std::fs::read_to_string(&path).expect("read");
    let rotted = text.replace("\"detected\": \"1010100\"", "\"detected\": \"1010101\"");
    assert_ne!(text, rotted, "fixture must actually flip a bit");
    std::fs::write(&path, &rotted).expect("plant rotted file");
    match Checkpoint::load(&path) {
        Err(CheckpointError::Corrupt {
            offset,
            expected,
            found,
        }) => {
            assert_ne!(expected, found);
            assert_eq!(offset, rotted.find("\"crc64\"").expect("field present"));
        }
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
    let (loaded, recovered) = Checkpoint::load_with_recovery(&path).expect("recovery");
    assert_eq!(loaded, first);
    assert!(recovered);
    cleanup(&path);
}

#[test]
fn transient_write_and_read_failures_heal_through_retries() {
    let _serial = lock();
    let path = scratch("transient");
    let cp = checkpoint(1);
    let _ = pdf_telemetry::begin_recording();
    pdf_chaos::install(&FailpointSpec::parse("checkpoint.write:io@1").expect("valid"));
    cp.save(&path).expect("transient write error must heal");
    pdf_chaos::install(&FailpointSpec::parse("checkpoint.read:io@1").expect("valid"));
    assert_eq!(Checkpoint::load(&path).expect("heals"), cp);
    pdf_chaos::clear();
    let report = pdf_telemetry::report();
    pdf_telemetry::disable();
    pdf_telemetry::reset();
    assert_eq!(report.counter("failpoints_hit"), Some(2));
    assert_eq!(report.counter("io_retries"), Some(2));
    cleanup(&path);
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
    cleanup(&path);
}

#[test]
fn injected_torn_write_is_caught_on_load_and_recovered() {
    let _serial = lock();
    let path = scratch("injected_torn");
    let (first, second) = (checkpoint(1), checkpoint(2));
    first.save(&path).expect("save generation 1");
    pdf_chaos::install(&FailpointSpec::parse("checkpoint.write:torn@1").expect("valid"));
    second.save(&path).expect("torn writes report success");
    pdf_chaos::clear();
    let (loaded, recovered) = Checkpoint::load_with_recovery(&path).expect("recovery");
    assert_eq!(loaded, first, "the torn current generation must not load");
    assert!(recovered);
    cleanup(&path);
}

/// A hostile current generation nested far past the JSON parser's limit
/// loads as corruption (never a stack overflow), and recovery falls back
/// to the `.prev` generation.
#[test]
fn deeply_nested_checkpoint_is_corrupt_and_recovers_the_previous_generation() {
    let _serial = lock();
    pdf_chaos::clear();
    let path = scratch("nested");
    let (first, second) = (checkpoint(1), checkpoint(2));
    first.save(&path).expect("save generation 1");
    second.save(&path).expect("save generation 2");
    std::fs::write(&path, "[".repeat(100_000)).expect("plant nested file");
    match Checkpoint::load(&path) {
        Err(CheckpointError::Corrupt { .. }) => {}
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
    let (loaded, recovered) = Checkpoint::load_with_recovery(&path).expect("recovery");
    assert_eq!(loaded, first);
    assert!(recovered);
    cleanup(&path);
}

#[test]
fn crc64_matches_the_ecma_reference_vector() {
    // ECMA-182 reflected, aka CRC-64/XZ: check value for "123456789".
    assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64(b""), 0);
}
