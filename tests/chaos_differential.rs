//! Differential chaos tests — the PR's acceptance harness: every
//! registered failpoint site, exercised end to end, must either
//!
//! * **heal**: complete with results (and artifacts) byte-identical to
//!   the clean run, absorbing transient errors through retries, or
//! * **halt resumable**: stop in a state whose checkpoint recovery and
//!   resume is byte-identical to the uninterrupted run.
//!
//! The failpoint registry and the telemetry store are process-global,
//! so every test serializes on one mutex.

use std::sync::{Mutex, MutexGuard, PoisonError};

use pdf_atpg::{
    AtpgConfig, AtpgOutcome, BasicAtpg, CancelToken, Checkpoint, CheckpointPolicy, Compaction,
    RunBudget,
};
use pdf_faults::FaultList;
use pdf_netlist::Circuit;
use pdf_paths::PathEnumerator;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn s27_population() -> (Circuit, FaultList) {
    let c = pdf_netlist::iscas::s27();
    let paths = PathEnumerator::new(&c).with_cap(400).enumerate();
    let (faults, _) = FaultList::build(&c, &paths.store);
    (c, faults)
}

fn base_config() -> AtpgConfig {
    AtpgConfig {
        seed: 2002,
        compaction: Compaction::ValueBased,
        ..AtpgConfig::default()
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pdf_chaos_diff_{tag}_{}.json", std::process::id()))
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
}

fn counter(report: &pdf_telemetry::RunReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Runs checkpointed generation with `spec` armed (when given) and
/// returns the outcome, the recorded counters, and the final checkpoint
/// bytes (when a checkpoint survived).
fn checkpointed_run(
    path: &std::path::Path,
    spec: Option<&str>,
    cancel_polls: Option<u64>,
) -> (AtpgOutcome, pdf_telemetry::RunReport, Option<Vec<u8>>) {
    cleanup(path);
    let (c, faults) = s27_population();
    let mut config = base_config();
    config.checkpoint = Some(CheckpointPolicy::new(path, 1));
    if let Some(polls) = cancel_polls {
        config.budget = RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(polls));
    }
    if let Some(spec) = spec {
        pdf_chaos::install(&pdf_chaos::FailpointSpec::parse(spec).unwrap());
    }
    let _ = pdf_telemetry::begin_recording();
    let outcome = BasicAtpg::new(&c).with_config(config).run(&faults);
    let report = pdf_telemetry::report();
    pdf_telemetry::disable();
    pdf_telemetry::reset();
    pdf_chaos::clear();
    let bytes = std::fs::read(path).ok();
    (outcome, report, bytes)
}

/// Every site the chaos registry knows is exercised by this file (or,
/// for `pool.build`, by the pool differential suite): adding a site
/// without extending the differential coverage fails here.
#[test]
fn every_registered_site_has_differential_coverage() {
    let covered = [
        pdf_chaos::sites::CHECKPOINT_WRITE,
        pdf_chaos::sites::CHECKPOINT_READ,
        pdf_chaos::sites::TELEMETRY_FLUSH,
        pdf_chaos::sites::NETLIST_READ,
        pdf_chaos::sites::POOL_BUILD,
    ];
    assert_eq!(pdf_chaos::sites::ALL, covered);
}

#[test]
fn transient_checkpoint_write_heals_byte_identically() {
    let _guard = serialize();
    let path = scratch("write_io");
    let (clean, _, clean_bytes) = checkpointed_run(&path, None, None);
    let (chaos, report, chaos_bytes) = checkpointed_run(&path, Some("checkpoint.write:io@1"), None);
    cleanup(&path);
    assert!(
        counter(&report, pdf_telemetry::counters::FAILPOINTS_HIT) >= 1,
        "the failpoint must fire"
    );
    assert!(
        counter(&report, pdf_telemetry::counters::IO_RETRIES) >= 1,
        "the transient error must be retried"
    );
    assert_eq!(clean.tests().to_text(), chaos.tests().to_text());
    assert_eq!(clean.detected(), chaos.detected());
    assert_eq!(
        clean_bytes.expect("clean checkpoint"),
        chaos_bytes.expect("healed checkpoint"),
        "the healed checkpoint must be byte-identical"
    );
}

#[test]
fn persistent_checkpoint_write_degrades_to_an_uncheckpointed_run() {
    let _guard = serialize();
    let path = scratch("write_full");
    let (clean, _, _) = checkpointed_run(&path, None, None);
    cleanup(&path);
    let (chaos, report, chaos_bytes) =
        checkpointed_run(&path, Some("checkpoint.write:full@1"), None);
    cleanup(&path);
    assert!(counter(&report, pdf_telemetry::counters::FAILPOINTS_HIT) >= 1);
    // A persistently failing checkpoint device must not sink the run:
    // the generator warns once and completes with identical results —
    // just without durability.
    assert_eq!(clean.tests().to_text(), chaos.tests().to_text());
    assert_eq!(clean.detected(), chaos.detected());
    assert!(chaos_bytes.is_none(), "no checkpoint can have been written");
}

#[test]
fn torn_final_checkpoint_recovers_and_resumes_byte_identically() {
    let _guard = serialize();
    let path = scratch("write_torn");
    let (c, faults) = s27_population();
    let full = BasicAtpg::new(&c).with_config(base_config()).run(&faults);

    // Dry runs to find a cancellation point that writes at least two
    // checkpoints (so recovery has a previous generation to fall back
    // into) and to learn how many, so the failpoint tears the last one.
    let (polls, saves) = [7u64, 13, 23, 37, 53, 97]
        .into_iter()
        .find_map(|polls| {
            let (dry, _, _) = checkpointed_run(&path, None, Some(polls));
            let saves = dry.stats().checkpoints_written;
            (saves >= 2).then_some((polls, saves))
        })
        .expect("some cancellation point must write two checkpoints");

    let spec = format!("checkpoint.write:torn@{saves}");
    let (_, report, _) = checkpointed_run(&path, Some(&spec), Some(polls));
    assert!(counter(&report, pdf_telemetry::counters::FAILPOINTS_HIT) >= 1);

    // The torn write reported success, so the primary file is silently
    // corrupt: plain load must fail typed, recovery must fall back one
    // generation, and the resumed run must be byte-identical.
    let plain = Checkpoint::load(&path);
    assert!(
        matches!(plain, Err(pdf_atpg::CheckpointError::Corrupt { .. })),
        "the torn checkpoint must fail the checksum: {plain:?}"
    );
    let _ = pdf_telemetry::begin_recording();
    let (checkpoint, recovered) = Checkpoint::load_with_recovery(&path).expect("recoverable");
    let recovery_report = pdf_telemetry::report();
    pdf_telemetry::disable();
    pdf_telemetry::reset();
    cleanup(&path);
    assert!(recovered, "recovery must come from the previous generation");
    assert_eq!(checkpoint.generation, saves as u64 - 1);
    assert_eq!(
        counter(
            &recovery_report,
            pdf_telemetry::counters::CHECKPOINT_RECOVERIES
        ),
        1
    );
    let resumed = BasicAtpg::new(&c)
        .with_config(base_config())
        .run_resumed(&faults, &checkpoint)
        .expect("the recovered checkpoint matches the run");
    assert_eq!(resumed.tests().to_text(), full.tests().to_text());
    assert_eq!(resumed.detected(), full.detected());
}

#[test]
fn transient_checkpoint_read_heals_on_resume() {
    let _guard = serialize();
    let path = scratch("read_io");
    let (c, faults) = s27_population();
    let full = BasicAtpg::new(&c).with_config(base_config()).run(&faults);
    let (_, _, _) = checkpointed_run(&path, None, Some(7));

    pdf_chaos::install(&pdf_chaos::FailpointSpec::parse("checkpoint.read:io@1").unwrap());
    let _ = pdf_telemetry::begin_recording();
    let loaded = Checkpoint::load(&path);
    let report = pdf_telemetry::report();
    pdf_telemetry::disable();
    pdf_telemetry::reset();
    pdf_chaos::clear();
    cleanup(&path);
    let checkpoint = loaded.expect("the transient read error must heal");
    assert!(counter(&report, pdf_telemetry::counters::IO_RETRIES) >= 1);
    let resumed = BasicAtpg::new(&c)
        .with_config(base_config())
        .run_resumed(&faults, &checkpoint)
        .expect("the checkpoint matches the run");
    assert_eq!(resumed.tests().to_text(), full.tests().to_text());
}

#[test]
fn transient_telemetry_flush_heals_and_writes_identical_bytes() {
    let _guard = serialize();
    let _ = pdf_telemetry::begin_recording();
    pdf_telemetry::count("demo", 3);
    let report = pdf_telemetry::report();
    pdf_telemetry::disable();
    pdf_telemetry::reset();

    let clean_path = scratch("flush_clean");
    let chaos_path = scratch("flush_io");
    report
        .write(clean_path.to_str().unwrap())
        .expect("clean write");
    pdf_chaos::install(&pdf_chaos::FailpointSpec::parse("telemetry.flush:io@1").unwrap());
    let result = report.write(chaos_path.to_str().unwrap());
    pdf_chaos::clear();
    let clean_bytes = std::fs::read(&clean_path).unwrap();
    let chaos_bytes = std::fs::read(&chaos_path).unwrap();
    cleanup(&clean_path);
    cleanup(&chaos_path);
    result.expect("the transient flush error must heal");
    assert_eq!(clean_bytes, chaos_bytes);
}

#[test]
fn transient_netlist_read_heals_in_the_cli() {
    let _guard = serialize();
    let args = |a: &[&str]| -> Vec<String> { a.iter().map(|s| (*s).to_owned()).collect() };
    let bench = pdf_cli::run(&args(&["bench", "s27"])).expect("embedded s27");
    let path =
        std::env::temp_dir().join(format!("pdf_chaos_diff_s27_{}.bench", std::process::id()));
    std::fs::write(&path, &bench).unwrap();
    let file = path.to_str().unwrap();

    let clean = pdf_cli::run(&args(&["info", file])).expect("clean info");
    pdf_chaos::install(&pdf_chaos::FailpointSpec::parse("netlist.read:io@1").unwrap());
    let chaos = pdf_cli::run(&args(&["info", file]));
    pdf_chaos::clear();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        chaos.expect("the transient read error must heal"),
        clean,
        "healed CLI output must be byte-identical"
    );
}

/// A torn read keeps a prefix that ends on a character boundary, so a
/// netlist with multi-byte characters fails to parse instead of panicking.
#[test]
fn torn_netlist_read_of_multibyte_text_is_a_typed_error() {
    let _guard = serialize();
    let path =
        std::env::temp_dir().join(format!("pdf_chaos_diff_utf8_{}.bench", std::process::id()));
    let file = path.to_str().unwrap().to_owned();
    // The torn prefix length depends on the file's: some of these lengths
    // cut inside an `é`.
    for n in 1..=24 {
        let text = format!("# {}\n{}", "é".repeat(n), pdf_netlist::iscas::C17_BENCH);
        std::fs::write(&path, text).unwrap();
        pdf_chaos::install(&pdf_chaos::FailpointSpec::parse("netlist.read:torn@1").unwrap());
        let outcome = std::panic::catch_unwind(|| pdf_cli::run(&["info".to_owned(), file.clone()]));
        pdf_chaos::clear();
        assert!(outcome.is_ok(), "{n} × é: the torn read panicked");
    }
    let _ = std::fs::remove_file(&path);
}

/// `pdfatpg bench FILE` reads the file a second time to emit it verbatim.
/// That read goes through the same `netlist.read` site and retry policy
/// as the load before it.
#[test]
fn bench_emission_reads_through_the_netlist_read_site() {
    let _guard = serialize();
    let args = |a: &[&str]| -> Vec<String> { a.iter().map(|s| (*s).to_owned()).collect() };
    let path =
        std::env::temp_dir().join(format!("pdf_chaos_diff_emit_{}.bench", std::process::id()));
    std::fs::write(&path, pdf_netlist::iscas::S27_BENCH).unwrap();
    let file = path.to_str().unwrap();
    pdf_chaos::install(&pdf_chaos::FailpointSpec::parse("netlist.read:io@2").unwrap());
    let healed = pdf_cli::run(&args(&["bench", file]));
    pdf_chaos::install(&pdf_chaos::FailpointSpec::parse("netlist.read:full@2").unwrap());
    let failed = pdf_cli::run(&args(&["bench", file]));
    pdf_chaos::clear();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        healed.expect("the transient read error must heal"),
        pdf_netlist::iscas::S27_BENCH
    );
    let error = failed.expect_err("a persistent error on the emitting read must surface");
    assert!(error.message.contains("cannot read"), "{error}");
}
