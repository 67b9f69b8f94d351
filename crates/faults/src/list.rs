//! Fault lists: turning an enumerated path store into the target fault
//! population `P`, with undetectable faults eliminated.

use std::ops::Range;

use pdf_netlist::Circuit;
use pdf_paths::PathStore;
use pdf_pool::Control;

use crate::prefix::{subtree_ranges, trie_order, walk_sorted, FaultKey};
use crate::{
    assignments as compute_assignments, Assignments, Implicator, LearnedImplications,
    PathDelayFault, Polarity, Sensitization,
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

    /// Builds the fault list with an up-front sensitizability filter:
    /// `filter(index, polarity)` returning `true` drops the fault of the
    /// path at store `index` with that polarity, counted in
    /// [`FaultListStats::sensitize_eliminated`].
    ///
    /// **The filter is final.** It must be the sensitizability
    /// classifier's verdict (`pdf_analyze::classify_store`) for the same
    /// `kind` and learned table, which already decides rule 1 and, with
    /// the table, rule 2. Implication is monotone, so the rules and the
    /// learned re-check could refute none of the faults it keeps: with a
    /// filter they do not run, and `learned` is unused. Every drop must be
    /// provably undetectable; the soundness audit in `pdf-analyze`
    /// re-proves each by exact search.
    ///
    /// Spans under `eliminate`: `eliminate.rule1`, sorting every fault
    /// into trie order ([`trie_order`]), or evaluating the filter;
    /// `eliminate.rule2`, the one trie walk of [`walk_subtrees`] that
    /// decides rules 1 and 2 (none with a filter); `eliminate.learned`,
    /// the learned re-check of the rule-2 survivors (empty without a
    /// table); `eliminate.emit`, emission in store order, computing
    /// `A(p)` only for kept faults. Faults refuted by a prefix conflict
    /// are counted on the `rule2_prefix_refuted` telemetry counter.
    ///
    /// # Panics
    ///
    /// See [`FaultList::build`]; also when the filter keeps a fault that
    /// fails rule 1, which breaks the filter contract.
    #[must_use]
    pub fn build_with_filter(
        circuit: &Circuit,
        store: &PathStore,
        kind: Sensitization,
        learned: Option<&LearnedImplications>,
        filter: Option<&dyn Fn(usize, Polarity) -> bool>,
    ) -> (FaultList, FaultListStats) {
        FaultList::build_threaded(circuit, store, kind, learned, filter, 1)
    }

    /// [`FaultList::build_with_filter`] with each pass run as one
    /// in-order round of jobs on up to `threads` workers: whole top-level
    /// subtrees of the prefix trie for the rules and the learned
    /// re-check, each subtree job on its own engine, and store ranges
    /// for emission. Results are merged in job order, so the list, its
    /// counters and the telemetry are identical at every thread count.
    /// A pass starts no more workers than it has jobs (at most 64, of
    /// at least 64 paths or faults each); at `threads <= 1` it is one
    /// job run inline. The filter, under the same contract, is evaluated
    /// on the calling thread.
    ///
    /// # Panics
    ///
    /// See [`FaultList::build_with_filter`].
    #[must_use]
    pub fn build_threaded(
        circuit: &Circuit,
        store: &PathStore,
        kind: Sensitization,
        learned: Option<&LearnedImplications>,
        filter: Option<&dyn Fn(usize, Polarity) -> bool>,
        threads: usize,
    ) -> (FaultList, FaultListStats) {
        let _phase = pdf_telemetry::Span::enter("eliminate");
        let mut stats = FaultListStats {
            candidates: 2 * store.len(),
            ..FaultListStats::default()
        };
        // `alive[key.slot()]`: the fault has survived every rule so far.
        let mut alive = vec![false; 2 * store.len()];
        // Every key in trie order, when the rules run.
        let mut keys = {
            let _span = pdf_telemetry::Span::enter("eliminate.rule1");
            if let Some(drop) = filter {
                for key in keys_of(0..store.len()) {
                    alive[key.slot()] = !drop(key.index, key.polarity);
                }
                stats.sensitize_eliminated = alive.iter().filter(|&&a| !a).count();
                None
            } else {
                Some(trie_order(store))
            }
        };
        let mut prefix_refuted = 0;
        // The walk's verdict per key: `None` for rule 1, `Some(false)`
        // when the implications conflict, `Some(true)` for a survivor.
        let mut walk = |table, keys: &[FaultKey]| {
            let (verdicts, by_prefix) =
                walk_subtrees(circuit, store, kind, table, keys, threads, |_, c| {
                    c.is_some()
                });
            prefix_refuted += by_prefix;
            verdicts
        };
        if let Some(keys) = &keys {
            let _span = pdf_telemetry::Span::enter("eliminate.rule2");
            for (key, verdict) in keys.iter().zip(walk(None, keys)) {
                match verdict {
                    None => stats.rule1_conflicts += 1,
                    Some(false) => stats.rule2_conflicts += 1,
                    Some(true) => alive[key.slot()] = true,
                }
            }
        }
        {
            let _span = pdf_telemetry::Span::enter("eliminate.learned");
            if let (Some(keys), Some(table)) = (&mut keys, learned) {
                // Second chance with the learned closure table attached,
                // on the rule-2 survivors only (still in trie order).
                keys.retain(|key| alive[key.slot()]);
                for (key, verdict) in keys.iter().zip(walk(Some(table), keys)) {
                    if verdict != Some(true) {
                        alive[key.slot()] = false;
                        stats.statically_eliminated += 1;
                    }
                }
            }
        }
        drop(keys);
        let _span = pdf_telemetry::Span::enter("eliminate.emit");
        let kept = alive.iter().filter(|&&a| a).count();
        let mut entries = Vec::new();
        in_order(
            threads,
            store_ranges(store.len(), jobs_for(threads, store.len())),
            |range| {
                let kept_in = || keys_of(range.clone()).filter(|key| alive[key.slot()]);
                let mut part = Vec::with_capacity(kept_in().count());
                for key in kept_in() {
                    let fault = fault_of(store, key);
                    // Without a filter, rule 1 already passed this fault.
                    let assignments = compute_assignments(circuit, &fault, kind)
                        .unwrap_or_else(|e| panic!("fault {fault}: {e}; {FILTER_CONTRACT}"));
                    part.push(FaultEntry {
                        fault,
                        delay: store.entries()[key.index].delay,
                        assignments,
                    });
                }
                part
            },
            |part| merge_part(&mut entries, part, kept),
        );
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

/// Rules 1 and 2 over the path-prefix trie for `keys`, which must be in
/// trie order ([`trie_order`], or a subsequence of it). Returns one
/// result per key, in key order: `None` when `A(p)` conflicts directly
/// (rule 1), else `visit(key, closure)`, with `closure` `None` when the
/// implications of `A(p)` conflict and otherwise the engine at the
/// closure of `A(p)`, which a visitor that changes it must
/// [`undo_to`](Implicator::undo_to) its own mark. Also returns the
/// number of keys refuted by a prefix conflict found while walking an
/// earlier key.
///
/// One in-order round on up to `threads` workers, each job a run of
/// whole top-level subtrees on a fresh [`Implicator`] with `learned`
/// attached. Jobs split only where a single walk rewinds to its entry
/// state anyway, so no result depends on `threads`.
///
/// # Panics
///
/// See [`FaultList::build`].
#[must_use]
pub fn walk_subtrees<'c, R: Send>(
    circuit: &'c Circuit,
    store: &PathStore,
    kind: Sensitization,
    learned: Option<&'c LearnedImplications>,
    keys: &[FaultKey],
    threads: usize,
    visit: impl Fn(FaultKey, Option<&mut Implicator<'c>>) -> R + Sync,
) -> (Vec<Option<R>>, usize) {
    let (mut results, mut prefix_refuted) = (Vec::new(), 0);
    in_order(
        threads,
        subtree_ranges(store, keys, jobs_for(threads, keys.len())),
        |range| {
            let mut imp = Implicator::new(circuit);
            if let Some(table) = learned {
                imp = imp.with_learned(table);
            }
            let mut part = Vec::with_capacity(range.len());
            let n = walk_sorted(
                &mut imp,
                circuit,
                store,
                kind,
                &keys[range],
                &visit,
                &mut part,
            );
            (part, n)
        },
        |(part, n)| {
            prefix_refuted += n;
            merge_part(&mut results, part, keys.len());
        },
    );
    (results, prefix_refuted)
}

/// Why a filter may not keep a fault that fails rule 1.
const FILTER_CONTRACT: &str = "the filter kept it, but a filter must be the sensitizability \
                               verdict for the same kind and table, which drops it";

/// The most jobs one elimination pass is split into; it bounds the
/// workers a pass starts.
const JOBS: usize = 64;

/// The fewest paths or faults a job gets: a smaller job costs less than
/// starting a worker for it.
const MIN_JOB: usize = 64;

/// How many jobs a pass over `units` paths or faults on `threads` workers
/// is split into: one at a single thread, where the pass is the serial
/// loop with no per-job engine or buffer, else up to [`JOBS`] of at
/// least [`MIN_JOB`] units. Verdicts never depend on the split.
fn jobs_for(threads: usize, units: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        units.div_ceil(MIN_JOB).clamp(1, JOBS)
    }
}

/// Runs `jobs` as one round on at most `threads` workers, never more
/// than there are jobs and none for `threads <= 1`, and hands each
/// result to `merge` on this thread in job order.
fn in_order<T: Send, R: Send>(
    threads: usize,
    jobs: Vec<T>,
    work: impl Fn(T) -> R + Sync,
    mut merge: impl FnMut(R),
) {
    pdf_pool::with_pool(threads.min(jobs.len()), work, |pool| {
        pool.run_round(jobs, |_, result| {
            merge(result);
            Control::Continue
        })
    });
}

/// Appends a job's `part` to `list`. The first part with any capacity
/// becomes the list, with room for `total` items in all, so the single
/// part of a one-job pass is never copied.
fn merge_part<T>(list: &mut Vec<T>, mut part: Vec<T>, total: usize) {
    if list.capacity() == 0 {
        part.reserve_exact(total.saturating_sub(part.len()));
        *list = part;
    } else {
        list.append(&mut part);
    }
}

/// `0..len` in at most `jobs` contiguous ranges.
fn store_ranges(len: usize, jobs: usize) -> Vec<Range<usize>> {
    let step = len.div_ceil(jobs.max(1)).max(1);
    (0..len)
        .step_by(step)
        .map(|start| start..len.min(start + step))
        .collect()
}

/// The faults of the paths at store indices `range`, in store order.
fn keys_of(range: Range<usize>) -> impl Iterator<Item = FaultKey> {
    range.flat_map(|index| Polarity::BOTH.map(|polarity| FaultKey { index, polarity }))
}

fn fault_of(store: &PathStore, key: FaultKey) -> PathDelayFault {
    PathDelayFault::new(store.entries()[key.index].path.clone(), key.polarity)
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
    fn jobs_cover_every_key_and_split_only_between_subtrees() {
        let c = pdf_netlist::circuit_by_name("b09").expect("stand-in");
        let store = PathEnumerator::new(&c).with_cap(2_000).enumerate().store;
        assert_eq!(jobs_for(1, 1_000_000), 1);
        assert_eq!(jobs_for(8, MIN_JOB), 1);
        assert_eq!(jobs_for(8, MIN_JOB + 1), 2);
        assert_eq!(jobs_for(20_000, 1_000_000), JOBS);
        for len in [0, 1, JOBS - 1, JOBS, JOBS + 1, store.len()] {
            for jobs in [1, JOBS] {
                let ranges = store_ranges(len, jobs);
                assert!(ranges.len() <= jobs, "{len} {jobs}");
                assert!(ranges.into_iter().flatten().eq(0..len), "{len} {jobs}");
            }
        }
        let keys = trie_order(&store);
        let root = |key: &FaultKey| (key.polarity, store.entries()[key.index].path.lines()[0]);
        for jobs in [1, 4, JOBS, 100_000] {
            let ranges = subtree_ranges(&store, &keys, jobs);
            assert!(ranges.len() <= jobs, "{jobs}");
            let mut next = 0;
            for range in ranges {
                assert_eq!(range.start, next, "{jobs}");
                assert!(range.end > range.start, "{jobs}");
                if range.end < keys.len() {
                    assert_ne!(root(&keys[range.end - 1]), root(&keys[range.end]));
                }
                next = range.end;
            }
            assert_eq!(next, keys.len(), "{jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "a filter must be the sensitizability")]
    fn a_filter_that_keeps_a_rule1_fault_breaks_the_contract() {
        let c = s27();
        let paths = PathEnumerator::new(&c).with_cap(10_000).enumerate();
        let keep_all = |_: usize, _: Polarity| false;
        let _ = FaultList::build_with_filter(
            &c,
            &paths.store,
            Sensitization::Robust,
            None,
            Some(&keep_all),
        );
    }

    #[test]
    fn histogram_from_delays() {
        let (list, _) = s27_faults();
        let h = pdf_paths::LengthHistogram::from_lengths(list.delays());
        assert_eq!(h.total(), list.len());
        assert_eq!(h.classes()[0].length, 10);
    }
}
