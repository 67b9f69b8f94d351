//! The one preparation pipeline: every front end builds its fault
//! population here.
//!
//! The paper prepares a circuit in a fixed order — enumerate the longest
//! paths under the `N_P` cap, then eliminate the faults that are
//! untestable by direct conflict (rule 1) or by implication (rule 2).
//! Two optional static passes sharpen the elimination: static learning
//! runs first (its table feeds both the classifier and rule 2), and the
//! sensitizability classifier runs on the enumerated store. Its verdict,
//! handed to the fault list as the filter, is the elimination: it covers
//! rules 1 and 2 with the same table, so they do not run again.
//! [`Preparation::run`] owns that order and that wiring; the `P0`/`P1`
//! split stays with the callers, which depend on `pdf-atpg`.

use std::fmt::Write as _;
use std::sync::Arc;

use pdf_faults::{FaultList, FaultListStats, LearnedImplications, Polarity, Sensitization};
use pdf_netlist::Circuit;
use pdf_paths::{Enumeration, PathEnumerator};

use crate::{classify_threaded, learn_implications, SensitizeAnalysis};

/// What to prepare: the enumeration cap `N_P` (in fault units), the two
/// optional static passes, and the worker threads classification and
/// elimination may use.
#[derive(Clone, Copy, Debug)]
pub struct Preparation {
    /// The enumeration cap `N_P`.
    pub cap: usize,
    /// Run static implication learning and thread its table through
    /// classification and elimination.
    pub learning: bool,
    /// Classify path sensitizability and pre-eliminate the false paths.
    pub sensitize: bool,
    /// Worker threads for classification ([`classify_threaded`]) and
    /// elimination ([`FaultList::build_threaded`]). A throughput knob:
    /// the prepared population is identical at every count.
    pub threads: usize,
}

/// A circuit's fault population, with everything the passes produced on
/// the way.
#[derive(Debug)]
pub struct Prepared {
    /// The learned implication table, when learning ran. Shared so the
    /// caller can hand it on to test generation.
    pub learned: Option<Arc<LearnedImplications>>,
    /// The sensitizability classification, when it ran.
    pub analysis: Option<SensitizeAnalysis>,
    /// The enumerated path store.
    pub enumeration: Enumeration,
    /// The detectable fault population `P`, in store order.
    pub faults: FaultList,
    /// The elimination counters.
    pub stats: FaultListStats,
}

impl Preparation {
    /// Learns (optionally), enumerates, classifies (optionally) and
    /// eliminates, in that order. Faults are built under robust
    /// sensitization.
    #[must_use]
    pub fn run(&self, circuit: &Circuit) -> Prepared {
        let learned = self.learning.then(|| Arc::new(learn_implications(circuit)));
        let enumeration = PathEnumerator::new(circuit).with_cap(self.cap).enumerate();
        let analysis = self.sensitize.then(|| {
            classify_threaded(
                circuit,
                &enumeration.store,
                Sensitization::Robust,
                learned.as_deref(),
                self.threads,
            )
        });
        let is_false = |index: usize, polarity: Polarity| {
            analysis
                .as_ref()
                .is_some_and(|a| a.is_false(index, polarity))
        };
        let (faults, stats) = FaultList::build_threaded(
            circuit,
            &enumeration.store,
            Sensitization::Robust,
            learned.as_deref(),
            analysis
                .is_some()
                .then_some(&is_false as &dyn Fn(usize, Polarity) -> bool),
            self.threads,
        );
        Prepared {
            learned,
            analysis,
            enumeration,
            faults,
            stats,
        }
    }
}

impl Prepared {
    /// One line per pass that ran: `static learning: …` and
    /// `sensitizability: …`, each newline-terminated. Empty when neither
    /// pass ran.
    #[must_use]
    pub fn notes(&self) -> String {
        let mut s = String::new();
        if let Some(table) = &self.learned {
            let _ = writeln!(
                s,
                "static learning: {} implications learned, {} faults eliminated",
                table.len(),
                self.stats.statically_eliminated,
            );
        }
        if let Some(analysis) = &self.analysis {
            let counts = analysis.class_counts();
            let _ = writeln!(
                s,
                "sensitizability: {} paths ({} false, {} robust, {} unknown); {} faults \
                 pre-eliminated",
                analysis.stats.paths,
                counts.false_paths,
                counts.robust,
                counts.unknown,
                self.stats.sensitize_eliminated,
            );
        }
        s
    }

    /// The population the same store and learned table give without the
    /// sensitizability filter — the reference a soundness audit of the
    /// filter compares against.
    #[must_use]
    pub fn unfiltered_faults(&self, circuit: &Circuit) -> FaultList {
        FaultList::build_with_learned(
            circuit,
            &self.enumeration.store,
            Sensitization::Robust,
            self.learned.as_deref(),
        )
        .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashSet;

    use pdf_faults::PathDelayFault;

    use crate::{classify_store, SensitizeStats};

    /// Everything two classifications are compared on: the counters and
    /// the per-fault false bitmap (`[rise, fall]` per stored path).
    type Classification = (SensitizeStats, Vec<[bool; 2]>);

    /// What two preparations are compared on: fault keys, elimination
    /// counters, learned-table size and the classification.
    type Summary = (
        Vec<String>,
        FaultListStats,
        Option<usize>,
        Option<Classification>,
    );

    fn keys(faults: &FaultList) -> Vec<String> {
        faults.iter().map(|e| e.fault.to_string()).collect()
    }

    fn classification(analysis: &SensitizeAnalysis, paths: usize) -> Classification {
        let bitmap = (0..paths)
            .map(|i| Polarity::BOTH.map(|p| analysis.is_false(i, p)))
            .collect();
        (analysis.stats, bitmap)
    }

    /// The sequence every front end wrote out by hand before the builder
    /// existed, kept as the reference.
    fn reference(circuit: &Circuit, cap: usize, learning: bool, sensitize: bool) -> Summary {
        let learned = learning.then(|| learn_implications(circuit));
        let enumeration = PathEnumerator::new(circuit).with_cap(cap).enumerate();
        let analysis = sensitize.then(|| {
            classify_store(
                circuit,
                &enumeration.store,
                Sensitization::Robust,
                learned.as_ref(),
            )
        });
        let (faults, stats) = match &analysis {
            Some(a) => FaultList::build_with_filter(
                circuit,
                &enumeration.store,
                Sensitization::Robust,
                learned.as_ref(),
                Some(&|i, p| a.is_false(i, p)),
            ),
            None => FaultList::build_with_learned(
                circuit,
                &enumeration.store,
                Sensitization::Robust,
                learned.as_ref(),
            ),
        };
        (
            keys(&faults),
            stats,
            learned.as_ref().map(LearnedImplications::len),
            analysis
                .as_ref()
                .map(|a| classification(a, enumeration.store.len())),
        )
    }

    fn summary(prepared: &Prepared) -> Summary {
        (
            keys(&prepared.faults),
            prepared.stats,
            prepared.learned.as_deref().map(LearnedImplications::len),
            prepared
                .analysis
                .as_ref()
                .map(|a| classification(a, prepared.enumeration.store.len())),
        )
    }

    fn false_path() -> Circuit {
        let text = include_str!("../../cli/tests/fixtures/false_path.bench");
        pdf_netlist::parse_bench(text, "false_path")
            .expect("fixture parses")
            .to_circuit()
            .expect("fixture is combinational")
    }

    #[test]
    fn run_matches_the_hand_written_sequence() {
        let b03r = pdf_netlist::circuit_by_name("b03+r").expect("stand-in");
        let runs = [(false, 1), (true, 1), (true, 2), (true, 4), (true, 8)];
        for circuit in [pdf_netlist::iscas::s27(), b03r, false_path()] {
            for learning in [false, true] {
                let plain = reference(&circuit, 2_000, learning, false);
                let classified = reference(&circuit, 2_000, learning, true);
                for (sensitize, threads) in runs {
                    let label = format!("{} {learning} {sensitize} {threads}", circuit.name());
                    let prepared = Preparation {
                        cap: 2_000,
                        learning,
                        sensitize,
                        threads,
                    }
                    .run(&circuit);
                    let expected = if sensitize { &classified } else { &plain };
                    assert_eq!(&summary(&prepared), expected, "{label}");
                    // The filter audit's reference is the plain population.
                    let unfiltered = prepared.unfiltered_faults(&circuit);
                    assert_eq!(keys(&unfiltered), plain.0, "{label}");
                    // The filter is final: every fault the rules (and the
                    // learned re-check) eliminate, the classifier marks
                    // false under the same table.
                    if let Some(analysis) = &prepared.analysis {
                        let kept: HashSet<String> = plain.0.iter().cloned().collect();
                        for (i, stored) in prepared.enumeration.store.iter().enumerate() {
                            for polarity in Polarity::BOTH {
                                let fault = PathDelayFault::new(stored.path.clone(), polarity);
                                assert!(
                                    kept.contains(&fault.to_string())
                                        || analysis.is_false(i, polarity),
                                    "{label}: {fault} is eliminated but not classified false"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn notes_keep_the_cli_wording() {
        let circuit = false_path();
        let notes = |learning, sensitize| {
            Preparation {
                cap: 10_000,
                learning,
                sensitize,
                threads: 1,
            }
            .run(&circuit)
            .notes()
        };
        assert_eq!(notes(false, false), "");
        // `pdfatpg faults false_path.bench --static-learning --sensitize`.
        assert_eq!(
            notes(true, true),
            "static learning: 220 implications learned, 0 faults eliminated\n\
             sensitizability: 9 paths (9 false, 0 robust, 0 unknown); 18 faults pre-eliminated\n"
        );
    }
}
