//! Differential oracle for the parallel generation pool: at any thread
//! count (2/4/8) a pooled run must be byte-identical to the
//! single-threaded reference — the test set, the per-fault verdict flags,
//! every telemetry counter total and the span tree, and the checkpoint
//! files — including runs cut short by an exhausted budget and runs with
//! quarantined (panicking) faults.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;

use pdf_atpg::{
    AtpgConfig, AtpgOutcome, BasicAtpg, CancelToken, Checkpoint, CheckpointPolicy, Compaction,
    Deadline, EnrichmentAtpg, Justifier, JustifyStats, RunBudget, TargetSplit,
};
use pdf_faults::{FaultEntry, FaultList};
use pdf_netlist::{Circuit, LineId, SynthProfile};
use pdf_paths::PathEnumerator;
use pdf_sim::SimOptions;
use pdf_telemetry::{RunReport, SpanReport};

/// Telemetry counters and armed failpoints are process-global, so every
/// test of this binary serializes here: a neighbor's counts never bleed
/// into a delta, and an injected failpoint never fires in a clean run.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    GLOBAL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pooled thread counts under test.
const POOLED: [usize; 3] = [2, 4, 8];

fn config(threads: usize) -> AtpgConfig {
    AtpgConfig {
        sim: SimOptions::default(),
        threads,
        ..AtpgConfig::default()
    }
}

fn assert_outcomes_identical(reference: &AtpgOutcome, pooled: &AtpgOutcome, label: &str) {
    assert_eq!(
        reference.tests().to_text(),
        pooled.tests().to_text(),
        "{label}: test set diverged"
    );
    assert_eq!(reference.detected(), pooled.detected(), "{label}: detected");
    assert_eq!(reference.aborted(), pooled.aborted(), "{label}: aborted");
    assert_eq!(
        reference.quarantined(),
        pooled.quarantined(),
        "{label}: quarantined"
    );
    assert_eq!(
        reference.budget_exhausted(),
        pooled.budget_exhausted(),
        "{label}: budget_exhausted"
    );
    let (r, p) = (reference.stats(), pooled.stats());
    assert_eq!(r.aborted_primaries, p.aborted_primaries, "{label}");
    assert_eq!(r.secondary_accepts, p.secondary_accepts, "{label}");
    assert_eq!(r.free_accepts, p.free_accepts, "{label}");
    assert_eq!(r.secondary_rejects, p.secondary_rejects, "{label}");
    assert_eq!(r.conflict_rejects, p.conflict_rejects, "{label}");
    assert_eq!(r.faults_quarantined, p.faults_quarantined, "{label}");
    assert_eq!(r.builds_discarded, p.builds_discarded, "{label}");
    assert_eq!(r.justify, p.justify, "{label}: justify counters");
}

/// The span tree without its timings: `(depth, name, calls)` in
/// depth-first order.
fn span_shape(spans: &[SpanReport]) -> Vec<(usize, String, u64)> {
    fn walk(span: &SpanReport, depth: usize, out: &mut Vec<(usize, String, u64)>) {
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

/// Total `calls` of every span named `name`, wherever it sits.
fn span_calls(spans: &[SpanReport], name: &str) -> u64 {
    spans
        .iter()
        .map(|s| u64::from(s.name == name) * s.calls + span_calls(&s.children, name))
        .sum()
}

/// Runs `body` with telemetry recording and returns its result with the
/// counters and the report.
fn recorded<T>(body: impl FnOnce() -> T) -> (T, Vec<(String, u64)>, RunReport) {
    let _ = pdf_telemetry::begin_recording();
    let value = body();
    let report = pdf_telemetry::report();
    pdf_telemetry::disable();
    pdf_telemetry::reset();
    (value, report.counters.clone(), report)
}

fn faults_of(c: &Circuit, cap: usize) -> FaultList {
    let paths = PathEnumerator::new(c).with_cap(cap).enumerate();
    FaultList::build(c, &paths.store).0
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..8, 10usize..50, 3usize..7, 0usize..3, any::<u64>()).prop_map(
        |(inputs, gates, levels, redundant, seed)| {
            SynthProfile::new("pool", seed)
                .with_inputs(inputs)
                .with_gates(gates)
                .with_levels(levels)
                .with_redundant_gadgets(redundant)
                .generate()
                .to_circuit()
                .expect("generated netlists are valid")
        },
    )
}

/// Replaces `slot`'s requirements with an out-of-circuit line so every
/// engine that touches the fault panics (and quarantines it).
fn poison(faults: &FaultList, slot: usize) -> FaultList {
    let mut entries: Vec<FaultEntry> = faults.iter().cloned().collect();
    let mut bad = pdf_faults::Assignments::new();
    bad.require(LineId::new(9_999), pdf_logic::Triple::RISING)
        .unwrap();
    entries[slot].assignments = bad;
    entries.into_iter().collect()
}

#[test]
fn enrichment_runs_are_identical_at_every_thread_count() {
    let _guard = serial();
    let c = pdf_netlist::circuit_by_name("b09").expect("known stand-in");
    let faults = faults_of(&c, 400);
    let split = TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
    let run = |threads| {
        EnrichmentAtpg::new(&c)
            .with_config(config(threads))
            .run(&split)
    };
    let reference = run(1);
    for threads in POOLED {
        let pooled = run(threads);
        assert_outcomes_identical(&reference, &pooled, &format!("{threads} threads"));
    }
}

#[test]
fn checkpoint_files_are_byte_identical_across_thread_counts() {
    let _guard = serial();
    let (c, faults) = {
        let c = pdf_netlist::iscas::s27();
        let faults = faults_of(&c, 300);
        (c, faults)
    };
    let path_for = |tag: &str| {
        std::env::temp_dir().join(format!("pdf_pool_diff_{tag}_{}.json", std::process::id()))
    };
    let run = |threads: usize, tag: &str| {
        let path = path_for(tag);
        let outcome = BasicAtpg::new(&c)
            .with_config(AtpgConfig {
                checkpoint: Some(CheckpointPolicy::new(&path, 1)),
                ..config(threads)
            })
            .run(&faults);
        let bytes = std::fs::read(&path).expect("checkpoint written");
        let _ = std::fs::remove_file(&path);
        (outcome, bytes)
    };
    let (reference, reference_bytes) = run(1, "serial");
    for threads in POOLED {
        let tag = format!("t{threads}");
        let (pooled, bytes) = run(threads, &tag);
        assert_outcomes_identical(&reference, &pooled, &tag);
        assert_eq!(
            reference_bytes, bytes,
            "{tag}: final checkpoint file diverged"
        );
    }
}

#[test]
fn telemetry_counter_totals_are_schedule_independent() {
    let _guard = serial();
    let c = pdf_netlist::iscas::s27();
    let faults = faults_of(&c, 300);
    let run = |threads| recorded(|| BasicAtpg::new(&c).with_config(config(threads)).run(&faults));
    let (reference, reference_counters, reference_report) = run(1);
    let reference_shape = span_shape(&reference_report.spans);
    // Builds run under `generate`, on whichever thread.
    assert_eq!(reference_report.spans.len(), 1, "{reference_shape:?}");
    assert_eq!(reference_report.spans[0].name, "generate");
    for threads in POOLED {
        let label = format!("{threads} threads");
        let (pooled, counters, report) = run(threads);
        assert_outcomes_identical(&reference, &pooled, &label);
        assert_eq!(reference_counters, counters, "{label}: counter totals");
        assert_eq!(
            reference_shape,
            span_shape(&report.spans),
            "{label}: span tree"
        );
    }
}

/// The `justify` spans count committed justification calls only: a
/// discarded duplicate — run to the end, stopped by its moot flag, or
/// never started — leaves no trace in the report.
#[test]
fn justify_spans_reconcile_with_committed_calls() {
    let _guard = serial();
    let c = pdf_netlist::circuit_by_name("b09").expect("known stand-in");
    let faults = faults_of(&c, 400);
    let split = TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
    for threads in [1, 2, 4] {
        let (outcome, counters, report) = recorded(|| {
            EnrichmentAtpg::new(&c)
                .with_config(config(threads))
                .run(&split)
        });
        let stats = outcome.stats();
        assert!(stats.builds_discarded > 0, "the run must discard builds");
        assert_eq!(
            span_calls(&report.spans, "justify"),
            stats.justify.calls as u64,
            "{threads} threads"
        );
        let discarded = counters
            .iter()
            .find(|(name, _)| name == pdf_telemetry::counters::POOL_BUILDS_DISCARDED)
            .map(|&(_, v)| v);
        assert_eq!(discarded, Some(stats.builds_discarded as u64));
    }
}

#[test]
fn budget_exhausted_partial_prefixes_match_serial() {
    let _guard = serial();
    let c = pdf_netlist::iscas::s27();
    let faults = faults_of(&c, 300);
    for polls in [1, 2, 5, 13] {
        let run = |threads| {
            BasicAtpg::new(&c)
                .with_config(AtpgConfig {
                    budget: RunBudget::unlimited()
                        .and_cancel(CancelToken::cancel_after_polls(polls)),
                    ..config(threads)
                })
                .run(&faults)
        };
        let reference = run(1);
        assert!(reference.budget_exhausted(), "polls={polls} must cut");
        for threads in POOLED {
            let pooled = run(threads);
            assert_outcomes_identical(
                &reference,
                &pooled,
                &format!("polls={polls}, {threads} threads"),
            );
        }
    }

    // A value-based enrichment run whose rounds discard builds: moot
    // builds stop mid-round, yet the cut run stays an exact prefix of the
    // uncut one at every thread count.
    let c = pdf_netlist::circuit_by_name("b09").expect("known stand-in");
    let faults = faults_of(&c, 400);
    let split = TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
    let run = |threads, budget| {
        EnrichmentAtpg::new(&c)
            .with_config(AtpgConfig {
                budget,
                ..config(threads)
            })
            .run(&split)
    };
    let full = run(1, RunBudget::unlimited());
    let cut_after = || RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(30));
    let reference = run(1, cut_after());
    assert!(reference.budget_exhausted());
    assert!(
        reference.stats().builds_discarded > 0,
        "the cut run must discard builds"
    );
    let (partial, whole) = (reference.tests().tests(), full.tests().tests());
    assert!(partial.len() < whole.len());
    assert_eq!(partial, &whole[..partial.len()], "the cut run is a prefix");
    for threads in POOLED {
        let pooled = run(threads, cut_after());
        assert_outcomes_identical(
            &reference,
            &pooled,
            &format!("enrich cut, {threads} threads"),
        );
    }
}

/// A wall-clock deadline that passes while builds run cuts the round in
/// flight back to its boundary. Wherever the cut lands, the cut run is a
/// prefix of the uncut one, and resuming its final checkpoint reproduces
/// the uncut run.
#[test]
fn a_deadline_cut_mid_generation_resumes_to_the_uncut_run() {
    /// Where a deadline cut a run, relative to the uncut run's tests.
    #[derive(PartialEq)]
    enum Landed {
        BeforeTheFirstTest,
        AfterATest,
        NotCut,
    }
    let _guard = serial();
    let c = pdf_netlist::circuit_by_name("b09").expect("known stand-in");
    let faults = faults_of(&c, 400);
    let split = TargetSplit::by_cumulative_length(&faults, faults.len() / 4);
    let path = std::env::temp_dir().join(format!(
        "pdf_pool_diff_deadline_{}.json",
        std::process::id()
    ));
    let run = |config: AtpgConfig| EnrichmentAtpg::new(&c).with_config(config).run(&split);
    // The uncut time is the faster of two runs, the first also warming
    // the caches.
    let timed = || {
        let start = std::time::Instant::now();
        (run(config(1)), start.elapsed())
    };
    let ((full, first), (_, second)) = (timed(), timed());
    let uncut = first.min(second);
    let counts = |o: &AtpgOutcome| {
        let s = o.stats();
        [
            s.aborted_primaries,
            s.secondary_accepts,
            s.free_accepts,
            s.secondary_rejects,
            s.conflict_rejects,
            s.builds_discarded,
        ]
    };
    // Cuts one run at `after`, checks the prefix and the resume, and
    // says where the cut landed.
    let check = |after: std::time::Duration, threads: usize| {
        let label = format!("deadline {after:?} (uncut {uncut:?}), {threads} threads");
        let _ = std::fs::remove_file(&path);
        let cut = run(AtpgConfig {
            budget: RunBudget::with_deadline(Deadline::after(after)),
            checkpoint: Some(CheckpointPolicy::new(&path, 1)),
            ..config(threads)
        });
        let (partial, whole) = (cut.tests().tests(), full.tests().tests());
        assert!(partial.len() <= whole.len(), "{label}");
        assert_eq!(partial, &whole[..partial.len()], "{label}: not a prefix");
        let checkpoint = Checkpoint::load(&path).expect("final checkpoint written");
        let resumed = EnrichmentAtpg::new(&c)
            .with_config(config(1))
            .run_resumed(&split, &checkpoint)
            .expect("the checkpoint resumes");
        assert_eq!(
            resumed.tests().to_text(),
            full.tests().to_text(),
            "{label}: resumed tests"
        );
        assert_eq!(resumed.detected(), full.detected(), "{label}: detected");
        assert_eq!(resumed.aborted(), full.aborted(), "{label}: aborted");
        assert_eq!(counts(&resumed), counts(&full), "{label}: carried counters");
        match (cut.budget_exhausted(), partial.is_empty()) {
            (false, _) => Landed::NotCut,
            (true, true) => Landed::BeforeTheFirstTest,
            (true, false) => Landed::AfterATest,
        }
    };
    let mut cut_after_a_test = false;
    for quarters in [1, 2, 3] {
        for threads in [1, 2] {
            cut_after_a_test |= check(uncut * quarters / 4, threads) == Landed::AfterATest;
        }
    }
    // Where a fraction of one timing lands depends on the load, so if no
    // cut above landed after a test, search for such a deadline by where
    // the cuts land: later after an early cut, earlier after no cut.
    let (mut early, mut late) = (std::time::Duration::ZERO, uncut * 4);
    for _ in 0..16 {
        if cut_after_a_test {
            break;
        }
        let after = (early + late) / 2;
        match check(after, 2) {
            Landed::AfterATest => cut_after_a_test = true,
            Landed::BeforeTheFirstTest => early = after,
            Landed::NotCut => late = after,
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        cut_after_a_test,
        "no deadline cut landed after the first test"
    );
}

#[test]
fn quarantined_fault_runs_match_serial() {
    let _guard = serial();
    let c = pdf_netlist::iscas::s27();
    let faults = faults_of(&c, 300);
    // Poison the first primary and a mid-population secondary: both the
    // justification guard and the sweep guard fire under the pool.
    for slot in [0, faults.len() / 2] {
        let poisoned = poison(&faults, slot);
        let run = |threads| {
            BasicAtpg::new(&c)
                .with_config(config(threads))
                .run(&poisoned)
        };
        let reference = run(1);
        assert!(reference.quarantined()[slot], "slot {slot}");
        assert_eq!(reference.stats().faults_quarantined, 1);
        for threads in POOLED {
            let pooled = run(threads);
            assert_outcomes_identical(
                &reference,
                &pooled,
                &format!("slot={slot}, {threads} threads"),
            );
        }
    }
}

/// Satellite: a `pool.build:panic@N` failpoint — keyed by fault index,
/// so the schedule never decides whether it fires — must quarantine the
/// same fault and leave identical counter totals at 1/2/4/8 threads.
#[test]
fn injected_pool_panic_quarantines_the_same_fault_at_every_thread_count() {
    let _guard = serial();
    let c = pdf_netlist::iscas::s27();
    let faults = faults_of(&c, 300);
    // Not every fault reaches justification — many fall to an earlier
    // test's simulation sweep first, and a failpoint on a swept fault
    // never fires. Probe serially for the first index (>= 1, the keyed
    // grammar's floor) whose justification actually runs.
    let slot = (1..faults.len())
        .find(|&s| {
            let spec = pdf_chaos::FailpointSpec::parse(&format!("pool.build:panic@{s}")).unwrap();
            pdf_chaos::install(&spec);
            let outcome = BasicAtpg::new(&c).with_config(config(1)).run(&faults);
            pdf_chaos::clear();
            outcome.quarantined()[s]
        })
        .expect("some fault must reach justification");
    let spec = pdf_chaos::FailpointSpec::parse(&format!("pool.build:panic@{slot}")).unwrap();
    let run_counters = |threads| {
        pdf_chaos::install(&spec);
        let (outcome, counters, _) =
            recorded(|| BasicAtpg::new(&c).with_config(config(threads)).run(&faults));
        pdf_chaos::clear();
        (outcome, counters)
    };
    let (reference, reference_counters) = run_counters(1);
    assert!(reference.quarantined()[slot], "slot {slot}");
    assert_eq!(reference.stats().faults_quarantined, 1);
    let hits = reference_counters
        .iter()
        .find(|(name, _)| name == pdf_telemetry::counters::FAILPOINTS_HIT)
        .map(|(_, v)| *v);
    assert!(
        hits.is_some_and(|v| v >= 1),
        "the failpoint must fire: {reference_counters:?}"
    );
    for threads in POOLED {
        let label = format!("{threads} threads");
        let (pooled, counters) = run_counters(threads);
        assert_outcomes_identical(&reference, &pooled, &label);
        assert_eq!(reference_counters, counters, "{label}: counter totals");
    }
}

/// The witnesses and counters of one justifier seeded `seed` over `reqs`.
fn justify_all(c: &Circuit, faults: &FaultList, seed: u64) -> (Vec<Option<String>>, JustifyStats) {
    let mut justifier = Justifier::new(c, seed);
    let witnesses = faults
        .iter()
        .map(|e| {
            justifier
                .justify(&e.assignments)
                .map(|r| r.test.to_string())
        })
        .collect();
    (witnesses, justifier.stats())
}

/// [`justify_all`] on a new thread, whose justifier gets a new arena.
fn justify_all_fresh(
    c: &Circuit,
    faults: &FaultList,
    seed: u64,
) -> (Vec<Option<String>>, JustifyStats) {
    std::thread::scope(|s| s.spawn(|| justify_all(c, faults, seed)).join().unwrap())
}

/// Each thread keeps one justification arena: a justifier takes the one
/// its thread's previous justifier left. Whatever that arena simulated
/// before — another circuit, a circuit of the same size, a build that
/// panicked — the witnesses and every counter must equal a new arena's.
#[test]
fn kept_arenas_give_the_same_witnesses_and_counters_as_new_ones() {
    let _guard = serial();
    let check = |c: &Circuit, faults: &FaultList, seed: u64, label: &str| {
        let kept = justify_all(c, faults, seed);
        assert!(
            kept.0.iter().any(Option::is_some),
            "{label}: nothing justified"
        );
        assert_eq!(kept, justify_all_fresh(c, faults, seed), "{label}");
    };
    // Two circuits, alternating on this thread.
    let s27 = pdf_netlist::iscas::s27();
    let b04 = pdf_netlist::circuit_by_name("b04").expect("known stand-in");
    let (f27, f04) = (faults_of(&s27, 300), faults_of(&b04, 2000));
    check(&s27, &f27, 7, "s27");
    check(&b04, &f04, 7, "b04 after s27");
    check(&s27, &f27, 11, "s27 after b04");
    check(&s27, &f27, 7, "s27 again");

    // Two circuits of one line count but different epochs, each with
    // faults to justify.
    let mut by_size: std::collections::HashMap<usize, (Circuit, FaultList)> =
        std::collections::HashMap::new();
    let ((a, fa), (b, fb)) = (1..4096)
        .find_map(|seed| {
            let c = SynthProfile::new("same-size", seed)
                .with_inputs(5)
                .with_gates(30)
                .generate()
                .to_circuit()
                .unwrap();
            let faults = faults_of(&c, 200);
            if faults.len() < 10 {
                return None;
            }
            match by_size.remove(&c.line_count()) {
                Some(first) => Some((first, (c, faults))),
                None => {
                    by_size.insert(c.line_count(), (c, faults));
                    None
                }
            }
        })
        .expect("two seeds yield an equal line count");
    assert_ne!(a.epoch(), b.epoch());
    check(&a, &fa, 3, "same-size a");
    check(&b, &fb, 3, "same-size b after a");

    // After a single-threaded run whose builds hit the `pool.build`
    // failpoint on this thread, and after a justifier dropped while its
    // thread unwound.
    // The first fault (>= 1) whose justification runs is the one whose
    // failpoint fires.
    let fired = (1..f27.len()).any(|slot| {
        let spec = pdf_chaos::FailpointSpec::parse(&format!("pool.build:panic@{slot}")).unwrap();
        pdf_chaos::install(&spec);
        let outcome = BasicAtpg::new(&s27).with_config(config(1)).run(&f27);
        pdf_chaos::clear();
        outcome.quarantined()[slot]
    });
    assert!(fired, "some fault must reach justification");
    check(&s27, &f27, 5, "s27 after a panicked build");
    let unwound = std::panic::catch_unwind(|| {
        let mut justifier = Justifier::new(&s27, 9);
        let _ = justifier.justify(&f27.entries()[0].assignments);
        panic!("unwinding with a live justifier");
    });
    assert!(unwound.is_err());
    check(&s27, &f27, 9, "s27 after an unwound justifier");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_generation_matches_serial_on_synth_circuits(
        c in arb_circuit(),
        seed in any::<u64>(),
    ) {
        let _guard = serial();
        let compaction = [
            Compaction::Uncompacted,
            Compaction::ValueBased,
            Compaction::LengthBased,
        ][(seed % 3) as usize];
        let faults = faults_of(&c, 200);
        prop_assume!(!faults.is_empty());
        let run = |threads| {
            BasicAtpg::new(&c)
                .with_config(AtpgConfig {
                    seed,
                    compaction,
                    ..config(threads)
                })
                .run(&faults)
        };
        let reference = run(1);
        for threads in POOLED {
            let pooled = run(threads);
            assert_outcomes_identical(
                &reference,
                &pooled,
                &format!("seed={seed}, {threads} threads"),
            );
        }
    }
}
