//! Run-control integration tests: the crash-safe checkpoint/resume
//! guarantee (an interrupted-and-resumed run is byte-identical to an
//! uninterrupted one), graceful budget exhaustion, and per-fault panic
//! quarantine — exercised through the whole pipeline, on the paper's
//! s27 and on a synthetic benchmark-scale circuit.

use proptest::prelude::*;

use pdf_atpg::{
    AtpgConfig, BasicAtpg, CancelToken, Checkpoint, CheckpointPolicy, Compaction, EnrichmentAtpg,
    RunBudget, TargetSplit,
};
use pdf_faults::{Assignments, FaultEntry, FaultList};
use pdf_logic::Triple;
use pdf_netlist::{Circuit, LineId};
use pdf_paths::PathEnumerator;

fn circuit(name: &str) -> Circuit {
    pdf_netlist::circuit_by_name(name).expect("known circuit")
}

fn population(c: &Circuit, cap: usize, n_p0: usize) -> (FaultList, TargetSplit) {
    let paths = PathEnumerator::new(c).with_cap(cap).enumerate();
    let (faults, _) = FaultList::build(c, &paths.store);
    let split = TargetSplit::by_cumulative_length(&faults, n_p0);
    (faults, split)
}

fn ckpt_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pdf_runctl_{tag}_{}.json", std::process::id()))
}

/// The core guarantee, as one reusable check: kill a run after `polls`
/// budget polls, resume from its last checkpoint, and require the final
/// test set to be byte-identical to the uninterrupted run's.
fn assert_resume_identity(name: &str, polls: u64, every: usize, tag: &str) {
    let c = circuit(name);
    let (faults, _) = population(&c, 400, usize::MAX);
    let base = AtpgConfig {
        seed: 2002,
        compaction: Compaction::ValueBased,
        ..AtpgConfig::default()
    };
    let full = BasicAtpg::new(&c).with_config(base.clone()).run(&faults);

    let path = ckpt_path(tag);
    let mut interrupted = base.clone();
    interrupted.budget = RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(polls));
    interrupted.checkpoint = Some(CheckpointPolicy::new(&path, every));
    let partial = BasicAtpg::new(&c).with_config(interrupted).run(&faults);

    // The interrupted run produced a valid prefix.
    for (a, b) in partial.tests().tests().iter().zip(full.tests().tests()) {
        assert_eq!(a, b, "{name}: partial run must be a prefix (polls={polls})");
    }

    let checkpoint = Checkpoint::load(&path).expect("a checkpoint was written");
    std::fs::remove_file(&path).ok();
    let resumed = BasicAtpg::new(&c)
        .with_config(base)
        .run_resumed(&faults, &checkpoint)
        .expect("the checkpoint matches the run");
    assert_eq!(
        resumed.tests().to_text(),
        full.tests().to_text(),
        "{name}: resumed run must be byte-identical (polls={polls}, every={every})"
    );
    assert_eq!(resumed.detected(), full.detected(), "{name}");
    assert_eq!(resumed.aborted(), full.aborted(), "{name}");
    assert!(!resumed.budget_exhausted(), "{name}");
}

#[test]
fn killed_mid_generate_then_resumed_is_byte_identical_on_s27() {
    assert_resume_identity("s27", 7, 1, "s27_mid");
}

#[test]
fn killed_mid_generate_then_resumed_is_byte_identical_on_a_synth_circuit() {
    assert_resume_identity("b09", 23, 2, "b09_mid");
}

#[test]
fn enrichment_checkpoints_resume_across_target_sets() {
    // The multi-set (enrichment) session checkpoints the same way; an
    // interruption landing inside the P1 pass must also replay exactly.
    let c = circuit("b09");
    let (_, split) = population(&c, 400, 60);
    let base = AtpgConfig {
        seed: 2002,
        compaction: Compaction::ValueBased,
        ..AtpgConfig::default()
    };
    let full = EnrichmentAtpg::new(&c)
        .with_config(base.clone())
        .run(&split);

    let path = ckpt_path("b09_enrich");
    for polls in [5u64, 50, 500] {
        let mut interrupted = base.clone();
        interrupted.budget =
            RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(polls));
        interrupted.checkpoint = Some(CheckpointPolicy::new(&path, 1));
        let _ = EnrichmentAtpg::new(&c).with_config(interrupted).run(&split);
        let checkpoint = Checkpoint::load(&path).expect("a checkpoint was written");
        let resumed = EnrichmentAtpg::new(&c)
            .with_config(base.clone())
            .run_resumed(&split, &checkpoint)
            .expect("the checkpoint matches the run");
        assert_eq!(
            resumed.tests().to_text(),
            full.tests().to_text(),
            "polls={polls}"
        );
        assert_eq!(resumed.detected(), full.detected(), "polls={polls}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_panicking_fault_is_quarantined_and_reported() {
    // Acceptance criterion: a deliberately poisoned fault — its
    // requirement references a line the circuit does not have, so any
    // evaluation panics — is quarantined, counted exactly once, and the
    // rest of the run is unaffected.
    let c = circuit("s27");
    let (faults, _) = population(&c, 400, usize::MAX);
    let mut entries: Vec<FaultEntry> = faults.iter().cloned().collect();
    let slot = entries.len() / 3;
    let mut bad = Assignments::new();
    bad.require(LineId::new(9_999), Triple::RISING).unwrap();
    entries[slot].assignments = bad;
    let poisoned: FaultList = entries.into_iter().collect();

    let outcome = BasicAtpg::new(&c)
        .with_config(AtpgConfig {
            seed: 2002,
            compaction: Compaction::ValueBased,
            ..AtpgConfig::default()
        })
        .run(&poisoned);
    assert_eq!(outcome.stats().faults_quarantined, 1);
    assert!(outcome.quarantined()[slot]);
    assert_eq!(outcome.quarantined().iter().filter(|&&q| q).count(), 1);
    assert!(!outcome.detected()[slot]);
    assert!(!outcome.aborted()[slot], "quarantine is not an abort");
    assert!(outcome.detected_total() > 0, "the rest of the run survived");
    // The skip-list round-trips through the checkpoint schema too.
    assert!(!outcome.budget_exhausted());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The proptest-enforced form of the guarantee: for any interruption
    /// point and checkpoint cadence, interrupted + resumed == uninterrupted.
    #[test]
    fn resume_identity_holds_for_any_interruption_point_on_s27(
        polls in 1u64..200,
        every in 1usize..5,
    ) {
        assert_resume_identity("s27", polls, every, "s27_prop");
    }

    #[test]
    fn resume_identity_holds_for_any_interruption_point_on_a_synth_circuit(
        polls in 1u64..400,
    ) {
        assert_resume_identity("b09", polls, 1, "b09_prop");
    }
}
