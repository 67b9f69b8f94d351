//! Integration tests pinning the reproduction to the paper's own worked
//! examples — the exact values the paper states in its text.

use path_delay_atpg::prelude::*;
use pdf_faults::robust_assignments;
use pdf_netlist::LineId;
use pdf_paths::{Path, Strategy};

/// Paper line number -> LineId (the paper numbers lines from 1).
fn line(k: usize) -> LineId {
    LineId::new(k - 1)
}

fn s27_path(ids: &[usize]) -> Path {
    ids.iter().map(|&k| line(k)).collect()
}

#[test]
fn figure1_s27_structure() {
    let c = s27();
    assert_eq!(c.line_count(), 26);
    assert_eq!(c.inputs().len(), 7);
    assert_eq!(c.outputs().len(), 4);
    // The longest path of the walkthrough, length 10.
    let longest = s27_path(&[1, 8, 13, 14, 16, 19, 20, 21, 22, 25]);
    longest.validate(&c).unwrap();
    assert_eq!(longest.delay(&c), 10);
    assert_eq!(c.critical_delay(), 10);
}

#[test]
fn section_2_1_necessary_assignments_example() {
    // "For the slow-to-rise fault on the path (2,9,10,15), A(p) consists
    //  of the off-path values 000 on line 7 and xx0 on line 3, and of the
    //  source value 0x1 on line 2."
    let c = s27();
    let fault = PathDelayFault::new(s27_path(&[2, 9, 10, 15]), Polarity::SlowToRise);
    let a = robust_assignments(&c, &fault).unwrap();
    assert_eq!(a.get(line(7)).unwrap().to_string(), "000");
    assert_eq!(a.get(line(3)).unwrap().to_string(), "xx0");
    assert_eq!(a.get(line(2)).unwrap().to_string(), "0x1");
    assert_eq!(a.len(), 3);
}

#[test]
fn section_3_1_walkthrough_set_1_is_exact() {
    // Table 1(a): the first cap event under N_P = 20 at path granularity.
    let c = s27();
    let mut first_snapshot = None;
    let _ = PathEnumerator::new(&c)
        .with_cap(20)
        .with_units_per_path(1)
        .with_strategy(Strategy::Moderate)
        .enumerate_observed(|e| {
            let pdf_paths::EnumEvent::CapReached { snapshot } = e;
            if first_snapshot.is_none() {
                first_snapshot = Some(snapshot.clone());
            }
        });
    let snapshot = first_snapshot.expect("cap must be reached");
    assert_eq!(snapshot.len(), 20);
    let rendered: std::collections::BTreeSet<String> = snapshot
        .iter()
        .map(|s| format!("{}{}", s.path, if s.complete { "c" } else { "p" }))
        .collect();
    // All seven complete paths of Table 1(a)...
    for complete in [
        "(1,8,12,25)c",
        "(2,9,10,15)c",
        "(3,15)c",
        "(4,19,20,21,22,25)c",
        "(5,21,22,25)c",
        "(6,14,16,19,20,21,22,25)c",
        "(7,9,10,15)c",
    ] {
        assert!(rendered.contains(complete), "missing {complete}");
    }
    // ...and the longest partial.
    assert!(rendered.contains("(1,8,13,14,16,19,20,21,22)p"));
}

#[test]
fn section_3_1_walkthrough_final_lengths() {
    // "The construction of P ends with a set of 18 paths of lengths
    //  between 7 and 10" — we retain those 18 plus one length-6 path (see
    //  DESIGN.md for the paper-internal inconsistency analysis).
    let c = s27();
    let result = PathEnumerator::new(&c)
        .with_cap(20)
        .with_units_per_path(1)
        .with_strategy(Strategy::Moderate)
        .enumerate();
    let mut delays: Vec<u32> = result.store.iter().map(|e| e.delay).collect();
    delays.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(delays.len(), 19);
    assert!(delays[..18].iter().all(|&d| (7..=10).contains(&d)));
    assert_eq!(delays[0], 10);
}

#[test]
fn both_polarities_of_the_example_path_are_testable() {
    let c = s27();
    let mut justifier = Justifier::new(&c, 2002).with_attempts(4);
    for polarity in Polarity::BOTH {
        let fault = PathDelayFault::new(s27_path(&[2, 9, 10, 15]), polarity);
        let a = robust_assignments(&c, &fault).unwrap();
        let justified = justifier
            .justify(&a)
            .unwrap_or_else(|| panic!("{fault} should be testable"));
        assert!(a.satisfied_by(&justified.waves));
        // The sink (line 15) must carry the propagated transition:
        // two inversions along 9 and 15 keep the source polarity.
        let sink = justified.waves[line(15).index()];
        match polarity {
            Polarity::SlowToRise => assert_eq!(sink.to_string(), "0x1"),
            Polarity::SlowToFall => assert_eq!(sink.to_string(), "1x0"),
        }
    }
}

#[test]
fn paper_claim_enrichment_beats_accidental_detection_on_s27() {
    // The paper's central claim, on the one circuit we have exactly.
    let c = s27();
    let paths = PathEnumerator::new(&c).with_cap(10_000).enumerate();
    let (faults, _) = FaultList::build(&c, &paths.store);
    let split = TargetSplit::by_cumulative_length(&faults, 10);
    assert!(!split.p1().is_empty());

    let everything = split.all();

    let basic = BasicAtpg::new(&c).with_seed(2002).run(split.p0());
    let accidental = basic.tests().coverage(&c, &everything).detected_count();

    let enriched = EnrichmentAtpg::new(&c).with_seed(2002).run(&split);

    assert!(
        enriched.detected_total() > accidental,
        "enrichment {} must beat accidental {accidental}",
        enriched.detected_total(),
    );
    // "without increasing the number of tests" — identical driver, small
    // random variation allowed (the paper observes the same).
    assert!(
        enriched.tests().len() <= basic.tests().len() + 1,
        "{} vs {}",
        enriched.tests().len(),
        basic.tests().len()
    );
}
