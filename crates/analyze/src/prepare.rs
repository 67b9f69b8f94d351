//! The one preparation pipeline: every front end builds its fault
//! population here.
//!
//! The paper prepares a circuit in a fixed order — enumerate the longest
//! paths under the `N_P` cap, then eliminate the faults that are
//! untestable by direct conflict (rule 1) or by implication (rule 2).
//! Two optional static passes sharpen the elimination: static learning
//! runs first (its table feeds both the classifier and rule 2), and the
//! sensitizability classifier runs on the enumerated store and
//! pre-eliminates the provably false paths through the fault list's
//! filter hook. [`Preparation::run`] owns that order and that wiring; the
//! `P0`/`P1` split stays with the callers, which depend on `pdf-atpg`.

use std::fmt::Write as _;
use std::sync::Arc;

use pdf_faults::{FaultList, FaultListStats, LearnedImplications, Polarity, Sensitization};
use pdf_netlist::Circuit;
use pdf_paths::{Enumeration, PathEnumerator};

use crate::{classify_store, learn_implications, SensitizeAnalysis};

/// What to prepare: the enumeration cap `N_P` (in fault units) and the
/// two optional static passes.
#[derive(Clone, Copy, Debug)]
pub struct Preparation {
    /// The enumeration cap `N_P`.
    pub cap: usize,
    /// Run static implication learning and thread its table through
    /// classification and elimination.
    pub learning: bool,
    /// Classify path sensitizability and pre-eliminate the false paths.
    pub sensitize: bool,
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
            classify_store(
                circuit,
                &enumeration.store,
                Sensitization::Robust,
                learned.as_deref(),
            )
        });
        let is_false = |index: usize, polarity: Polarity| {
            analysis
                .as_ref()
                .is_some_and(|a| a.is_false(index, polarity))
        };
        let (faults, stats) = FaultList::build_with_filter(
            circuit,
            &enumeration.store,
            Sensitization::Robust,
            learned.as_deref(),
            analysis
                .is_some()
                .then_some(&is_false as &dyn Fn(usize, Polarity) -> bool),
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

    use pdf_paths::ClassCounts;

    /// What two preparations are compared on: fault keys, elimination
    /// counters, learned-table size and sensitize class counts.
    type Summary = (
        Vec<String>,
        FaultListStats,
        Option<usize>,
        Option<ClassCounts>,
    );

    fn keys(faults: &FaultList) -> Vec<String> {
        faults.iter().map(|e| e.fault.to_string()).collect()
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
            analysis.as_ref().map(SensitizeAnalysis::class_counts),
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
                .map(SensitizeAnalysis::class_counts),
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
        for circuit in [pdf_netlist::iscas::s27(), b03r, false_path()] {
            for learning in [false, true] {
                let plain = reference(&circuit, 2_000, learning, false);
                for sensitize in [false, true] {
                    let label = format!("{} {learning} {sensitize}", circuit.name());
                    let prepared = Preparation {
                        cap: 2_000,
                        learning,
                        sensitize,
                    }
                    .run(&circuit);
                    let expected = match sensitize {
                        true => reference(&circuit, 2_000, learning, true),
                        false => plain.clone(),
                    };
                    assert_eq!(summary(&prepared), expected, "{label}");
                    // The filter audit's reference is the plain population.
                    let unfiltered = prepared.unfiltered_faults(&circuit);
                    assert_eq!(keys(&unfiltered), plain.0, "{label}");
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
            }
            .run(&circuit)
            .notes()
        };
        assert_eq!(notes(false, false), "");
        // `pdfatpg faults false_path.bench --static-learning --sensitize`.
        assert_eq!(
            notes(true, true),
            "static learning: 780 implications learned, 0 faults eliminated\n\
             sensitizability: 9 paths (9 false, 0 robust, 0 unknown); 18 faults pre-eliminated\n"
        );
    }
}
