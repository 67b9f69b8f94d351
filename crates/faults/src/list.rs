//! Fault lists: turning an enumerated path store into the target fault
//! population `P`, with undetectable faults eliminated.

use pdf_netlist::Circuit;
use pdf_paths::PathStore;

use crate::prefix::{walk_prefixes, FaultKey};
use crate::{
    assignments as compute_assignments, Assignments, ConditionError, Implicator,
    LearnedImplications, PathDelayFault, Polarity, Sensitization,
};

/// One fault with its precomputed necessary assignments.
#[derive(Clone, Debug)]
pub struct FaultEntry {
    /// The fault.
    pub fault: PathDelayFault,
    /// The delay of the fault's path (cached from enumeration).
    pub delay: u32,
    /// The fault's necessary assignment set `A(p)`.
    pub assignments: Assignments,
}

/// Counters from building a [`FaultList`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultListStats {
    /// Faults considered (2 × paths).
    pub candidates: usize,
    /// Eliminated by rule 1: `A(p)` itself conflicts.
    pub rule1_conflicts: usize,
    /// Eliminated by rule 2: the implications of `A(p)` conflict.
    pub rule2_conflicts: usize,
    /// Eliminated only by the statically learned closure table: rule 2
    /// alone found no conflict, but re-running the implications with the
    /// table attached did. Always 0 unless a table is supplied.
    pub statically_eliminated: usize,
    /// Eliminated up front by the sensitizability pre-filter (a path
    /// statically classified as false), before any per-fault rule ran.
    /// Always 0 unless a filter is supplied.
    pub sensitize_eliminated: usize,
}

/// The target fault population `P`: every fault of the enumerated paths
/// whose necessary assignments are not self-contradictory.
///
/// Entries keep the store's path order (longest first when the store is
/// sorted), with the slow-to-rise fault preceding the slow-to-fall fault
/// of the same path.
///
/// # Example
///
/// ```
/// use pdf_faults::FaultList;
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathEnumerator;
///
/// let circuit = s27();
/// let paths = PathEnumerator::new(&circuit).with_cap(10_000).enumerate();
/// let (faults, stats) = FaultList::build(&circuit, &paths.store);
/// assert_eq!(stats.candidates, 2 * paths.store.len());
/// assert!(faults.len() <= stats.candidates);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultList {
    entries: Vec<FaultEntry>,
}

impl FaultList {
    /// Builds the robust fault list from a path store, eliminating
    /// undetectable faults by both of the paper's rules.
    ///
    /// # Panics
    ///
    /// Panics if a stored path crosses a parity gate — decompose
    /// `XOR`/`XNOR` before path analysis (see
    /// [`Netlist::decompose_parity`](pdf_netlist::Netlist::decompose_parity)).
    #[must_use]
    pub fn build(circuit: &Circuit, store: &PathStore) -> (FaultList, FaultListStats) {
        FaultList::build_with(circuit, store, Sensitization::Robust)
    }

    /// Builds the fault list under the chosen sensitization criterion.
    ///
    /// # Panics
    ///
    /// See [`FaultList::build`].
    #[must_use]
    pub fn build_with(
        circuit: &Circuit,
        store: &PathStore,
        kind: Sensitization,
    ) -> (FaultList, FaultListStats) {
        FaultList::build_with_learned(circuit, store, kind, None)
    }

    /// Builds the fault list, additionally consulting a statically learned
    /// closure table (see [`LearnedImplications`]) to eliminate faults
    /// whose conflicts only surface through learned contrapositives.
    ///
    /// The plain rule-2 check runs first so `rule2_conflicts` stays
    /// comparable with and without learning; only its survivors are
    /// re-checked with the table, and extra drops are counted in
    /// [`FaultListStats::statically_eliminated`].
    ///
    /// # Panics
    ///
    /// See [`FaultList::build`].
    #[must_use]
    pub fn build_with_learned(
        circuit: &Circuit,
        store: &PathStore,
        kind: Sensitization,
        learned: Option<&LearnedImplications>,
    ) -> (FaultList, FaultListStats) {
        FaultList::build_with_filter(circuit, store, kind, learned, None)
    }

    /// Builds the fault list with an up-front sensitizability pre-filter:
    /// `filter(index, polarity)` returning `true` drops the fault of the
    /// path at store `index` with that polarity before any per-fault rule
    /// runs, counted in [`FaultListStats::sensitize_eliminated`].
    ///
    /// The filter must only drop faults that are provably undetectable
    /// (the static sensitizability analysis's *false* verdicts) — the
    /// soundness audit in `pdf-analyze` re-proves every drop by exact
    /// search.
    ///
    /// Runs in three passes, each under its own span:
    ///
    /// 1. `eliminate.rule1`, in store order: the filter and rule 1. Only
    ///    the surviving faults' keys are kept, not their `A(p)`.
    /// 2. `eliminate.rule2`: rule 2 over the path-prefix trie
    ///    ([`walk_prefixes`]), one engine for the whole pass.
    /// 3. `eliminate.learned`: the learned-table re-check of the rule-2
    ///    survivors (another trie walk, when a table is supplied), then
    ///    emission in store order, recomputing `A(p)` only for kept
    ///    faults.
    ///
    /// Faults refuted by a prefix conflict are counted on the
    /// `rule2_prefix_refuted` telemetry counter.
    ///
    /// # Panics
    ///
    /// See [`FaultList::build`].
    #[must_use]
    pub fn build_with_filter(
        circuit: &Circuit,
        store: &PathStore,
        kind: Sensitization,
        learned: Option<&LearnedImplications>,
        filter: Option<&dyn Fn(usize, Polarity) -> bool>,
    ) -> (FaultList, FaultListStats) {
        let _phase = pdf_telemetry::Span::enter("eliminate");
        let mut stats = FaultListStats::default();
        // `alive[key.slot()]`: the fault has survived every rule so far.
        let mut alive = vec![false; 2 * store.len()];
        let mut keys = Vec::new();
        {
            let _span = pdf_telemetry::Span::enter("eliminate.rule1");
            for (index, stored) in store.iter().enumerate() {
                for polarity in Polarity::BOTH {
                    stats.candidates += 1;
                    if filter.is_some_and(|drop| drop(index, polarity)) {
                        stats.sensitize_eliminated += 1;
                        continue;
                    }
                    let fault = PathDelayFault::new(stored.path.clone(), polarity);
                    match compute_assignments(circuit, &fault, kind) {
                        Ok(_) => {
                            let key = FaultKey { index, polarity };
                            alive[key.slot()] = true;
                            keys.push(key);
                        }
                        Err(ConditionError::Conflict { .. }) => stats.rule1_conflicts += 1,
                        Err(e) => panic!("fault {fault}: {e}"),
                    }
                }
            }
        }
        let mut prefix_refuted = {
            let _span = pdf_telemetry::Span::enter("eliminate.rule2");
            let mut imp = Implicator::new(circuit);
            walk_prefixes(&mut imp, circuit, store, kind, &mut keys, |key, closure| {
                if closure.is_none() {
                    alive[key.slot()] = false;
                    stats.rule2_conflicts += 1;
                }
            })
        };
        let _span = pdf_telemetry::Span::enter("eliminate.learned");
        if let Some(table) = learned {
            // Second chance with the learned closure table attached, on
            // the rule-2 survivors only (still in trie order).
            keys.retain(|key| alive[key.slot()]);
            let mut imp = Implicator::new(circuit).with_learned(table);
            prefix_refuted +=
                walk_prefixes(&mut imp, circuit, store, kind, &mut keys, |key, closure| {
                    if closure.is_none() {
                        alive[key.slot()] = false;
                        stats.statically_eliminated += 1;
                    }
                });
        }
        drop(keys);
        let mut entries = Vec::with_capacity(alive.iter().filter(|&&a| a).count());
        for (index, stored) in store.iter().enumerate() {
            for polarity in Polarity::BOTH {
                if !alive[FaultKey { index, polarity }.slot()] {
                    continue;
                }
                let fault = PathDelayFault::new(stored.path.clone(), polarity);
                let assignments = compute_assignments(circuit, &fault, kind)
                    .expect("rule 1 already passed this fault");
                entries.push(FaultEntry {
                    fault,
                    delay: stored.delay,
                    assignments,
                });
            }
        }
        pdf_telemetry::count(
            pdf_telemetry::counters::UNDETECTABLE_DROPPED,
            (stats.rule1_conflicts
                + stats.rule2_conflicts
                + stats.statically_eliminated
                + stats.sensitize_eliminated) as u64,
        );
        pdf_telemetry::count(
            pdf_telemetry::counters::STATICALLY_ELIMINATED,
            stats.statically_eliminated as u64,
        );
        pdf_telemetry::count(
            pdf_telemetry::counters::FALSE_PATHS_ELIMINATED,
            stats.sensitize_eliminated as u64,
        );
        pdf_telemetry::count(
            pdf_telemetry::counters::RULE2_PREFIX_REFUTED,
            prefix_refuted as u64,
        );
        (FaultList { entries }, stats)
    }

    /// Number of faults in the list.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the list holds no faults.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The fault entries.
    #[inline]
    #[must_use]
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &FaultEntry> {
        self.entries.iter()
    }

    /// The delays of all faults (one value per fault), for histogram
    /// construction.
    pub fn delays(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.delay)
    }
}

impl FromIterator<FaultEntry> for FaultList {
    fn from_iter<T: IntoIterator<Item = FaultEntry>>(iter: T) -> FaultList {
        FaultList {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::iscas::s27;
    use pdf_paths::PathEnumerator;

    fn s27_faults() -> (FaultList, FaultListStats) {
        let c = s27();
        let paths = PathEnumerator::new(&c).with_cap(10_000).enumerate();
        FaultList::build(&c, &paths.store)
    }

    #[test]
    fn s27_all_paths_produce_candidates() {
        let c = s27();
        let (list, stats) = s27_faults();
        assert_eq!(stats.candidates as u64, 2 * c.path_count());
        assert_eq!(
            list.len() + stats.rule1_conflicts + stats.rule2_conflicts,
            stats.candidates
        );
    }

    #[test]
    fn listed_faults_have_consistent_assignments() {
        let c = s27();
        let (list, _) = s27_faults();
        for e in list.iter() {
            assert!(!e.assignments.is_empty());
            assert!(Implicator::from_assignments(&c, &e.assignments).is_ok());
            assert_eq!(e.delay, e.fault.path().delay(&c));
        }
    }

    #[test]
    fn rise_precedes_fall_per_path() {
        let (list, _) = s27_faults();
        let mut seen = std::collections::HashMap::new();
        for (i, e) in list.iter().enumerate() {
            let key = e.fault.path().to_string();
            match e.fault.polarity() {
                Polarity::SlowToRise => {
                    seen.insert(key, i);
                }
                Polarity::SlowToFall => {
                    if let Some(&ri) = seen.get(&key) {
                        assert!(ri < i);
                    }
                }
            }
        }
    }

    #[test]
    fn nonrobust_list_is_at_least_as_large() {
        let c = s27();
        let paths = PathEnumerator::new(&c).with_cap(10_000).enumerate();
        let (robust, _) = FaultList::build_with(&c, &paths.store, Sensitization::Robust);
        let (nonrobust, _) = FaultList::build_with(&c, &paths.store, Sensitization::NonRobust);
        assert!(nonrobust.len() >= robust.len());
    }

    #[test]
    fn histogram_from_delays() {
        let (list, _) = s27_faults();
        let h = pdf_paths::LengthHistogram::from_lengths(list.delays());
        assert_eq!(h.total(), list.len());
        assert_eq!(h.classes()[0].length, 10);
    }
}
