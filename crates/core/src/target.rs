//! Target fault set selection: splitting `P` into `P_0` (critical) and
//! `P_1` (next-to-longest), with the k-set generalization the paper
//! mentions.

use pdf_faults::{FaultEntry, FaultList};
use pdf_paths::LengthHistogram;

/// The partition of the fault population into target sets.
///
/// Set 0 (`P_0`) holds the faults on the longest paths — the faults the
/// test set *must* detect; the remaining sets hold progressively less
/// critical faults that are detected opportunistically. The paper uses two
/// sets; [`TargetSplit::by_thresholds`] builds any number.
///
/// # Example
///
/// ```
/// use pdf_atpg::TargetSplit;
/// use pdf_faults::FaultList;
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathEnumerator;
///
/// let circuit = s27();
/// let paths = PathEnumerator::new(&circuit).enumerate();
/// let (faults, _) = FaultList::build(&circuit, &paths.store);
/// // Tiny circuit: ask for at least 10 faults in P0.
/// let split = TargetSplit::by_cumulative_length(&faults, 10);
/// assert!(split.p0().len() >= 10);
/// assert_eq!(split.p0().len() + split.p1().len(), faults.len());
/// ```
#[derive(Clone, Debug)]
pub struct TargetSplit {
    sets: Vec<FaultList>,
    cutoffs: Vec<u32>,
    i0: usize,
}

impl TargetSplit {
    /// The paper's rule: `P_0` takes all faults on paths of length
    /// `L_{i0}` or more, where `i0` is the smallest index with
    /// `N_p(L_{i0}) ≥ n_p0` (the paper uses `N_P0 = 1000`); `P_1` takes
    /// the rest. If the whole population is smaller than `n_p0`,
    /// everything lands in `P_0`.
    #[must_use]
    pub fn by_cumulative_length(faults: &FaultList, n_p0: usize) -> TargetSplit {
        let histogram = LengthHistogram::from_lengths(faults.delays());
        let (i0, cutoff) = match histogram.cutoff(n_p0) {
            Some(i0) => (
                i0,
                histogram.length_at(i0).expect("cutoff returns valid index"),
            ),
            None => (
                histogram.len().saturating_sub(1),
                histogram.classes().last().map_or(0, |c| c.length),
            ),
        };
        let mut split = TargetSplit::by_thresholds(faults, &[cutoff]);
        split.i0 = i0;
        split
    }

    /// The k-set generalization of the paper's cumulative rule: set 0 is
    /// the exact `P_0` of [`TargetSplit::by_cumulative_length`], and the
    /// remainder is subdivided by re-applying the same rule (each next
    /// set takes the faults on the longest remaining paths until another
    /// `n_p0` is accumulated) until `k` sets exist or the population runs
    /// out. The last set absorbs whatever is left, so the union of the
    /// sets is always the whole population and `k = 2` reproduces the
    /// paper's two-set scheme exactly.
    ///
    /// Degenerate populations may yield fewer than `k` non-empty sets;
    /// the split still reports `k` sets (trailing ones empty) so callers
    /// can index by set number uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (one set is not a split — run the basic
    /// procedure on the whole population instead).
    #[must_use]
    pub fn by_nested_cumulative(faults: &FaultList, n_p0: usize, k: usize) -> TargetSplit {
        assert!(k >= 2, "a nested split needs at least two sets");
        let first = TargetSplit::by_cumulative_length(faults, n_p0);
        let i0 = first.i0;
        let mut cutoffs = vec![first.cutoffs[0]];
        let mut remaining: Vec<u32> = faults.delays().filter(|&d| d < first.cutoffs[0]).collect();
        while cutoffs.len() < k - 1 && !remaining.is_empty() {
            let histogram = LengthHistogram::from_lengths(remaining.iter().copied());
            let cutoff = match histogram.cutoff(n_p0) {
                Some(i) => histogram.length_at(i).expect("cutoff returns valid index"),
                None => histogram.classes().last().map_or(0, |c| c.length),
            };
            // The rule can swallow the whole remainder (cutoff at the
            // shortest length); the final catch-all set covers that case.
            if cutoff >= *cutoffs.last().expect("at least one cutoff") {
                break;
            }
            remaining.retain(|&d| d < cutoff);
            if remaining.is_empty() && cutoffs.len() + 2 == k {
                // The cutoff drains the remainder exactly: keep it, the
                // final set is legitimately empty.
                cutoffs.push(cutoff);
                break;
            }
            cutoffs.push(cutoff);
        }
        let mut split = TargetSplit::by_thresholds(faults, &cutoffs);
        split.i0 = i0;
        // Pad to k sets so set numbers are stable across populations.
        while split.sets.len() < k {
            split.sets.push(FaultList::from_iter(Vec::new()));
        }
        split
    }

    /// Generalized k-set partition: `thresholds` lists decreasing length
    /// cutoffs; set `j` receives the faults with
    /// `thresholds[j] <= delay` (and `delay < thresholds[j-1]` for
    /// `j > 0`); one final set receives everything shorter. With one
    /// threshold this is the paper's two-set scheme.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` is empty or not strictly decreasing.
    #[must_use]
    pub fn by_thresholds(faults: &FaultList, thresholds: &[u32]) -> TargetSplit {
        assert!(!thresholds.is_empty(), "at least one threshold required");
        assert!(
            thresholds.windows(2).all(|w| w[0] > w[1]),
            "thresholds must be strictly decreasing"
        );
        let mut sets: Vec<Vec<FaultEntry>> = vec![Vec::new(); thresholds.len() + 1];
        for entry in faults.iter() {
            let set = thresholds
                .iter()
                .position(|&t| entry.delay >= t)
                .unwrap_or(thresholds.len());
            sets[set].push(entry.clone());
        }
        TargetSplit {
            sets: sets.into_iter().map(FaultList::from_iter).collect(),
            cutoffs: thresholds.to_vec(),
            i0: 0,
        }
    }

    /// The primary target set `P_0`.
    #[must_use]
    pub fn p0(&self) -> &FaultList {
        &self.sets[0]
    }

    /// The second target set `P_1` (empty list if the split is degenerate).
    #[must_use]
    pub fn p1(&self) -> &FaultList {
        &self.sets[1]
    }

    /// All sets, most critical first.
    #[must_use]
    pub fn sets(&self) -> &[FaultList] {
        &self.sets
    }

    /// Every set's faults concatenated, most critical set first — for the
    /// paper's two-set split, `P_0 ∪ P_1` in that order.
    #[must_use]
    pub fn all(&self) -> FaultList {
        self.sets
            .iter()
            .flat_map(FaultList::iter)
            .cloned()
            .collect()
    }

    /// The index `i0` of the cutoff length class (as reported in the
    /// paper's tables). Only meaningful for splits built by
    /// [`TargetSplit::by_cumulative_length`].
    #[must_use]
    pub fn i0(&self) -> usize {
        self.i0
    }

    /// The length cutoffs used (one per boundary).
    #[must_use]
    pub fn cutoffs(&self) -> &[u32] {
        &self.cutoffs
    }

    /// Total number of faults across all sets.
    #[must_use]
    pub fn total(&self) -> usize {
        self.sets.iter().map(FaultList::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::iscas::s27;
    use pdf_paths::PathEnumerator;

    fn faults() -> FaultList {
        let c = s27();
        let paths = PathEnumerator::new(&c).enumerate();
        FaultList::build(&c, &paths.store).0
    }

    #[test]
    fn cumulative_rule_matches_histogram() {
        let list = faults();
        let h = LengthHistogram::from_lengths(list.delays());
        let split = TargetSplit::by_cumulative_length(&list, 10);
        let i0 = h.cutoff(10).unwrap();
        assert_eq!(split.i0(), i0);
        let cutoff = h.length_at(i0).unwrap();
        assert!(split.p0().iter().all(|e| e.delay >= cutoff));
        assert!(split.p1().iter().all(|e| e.delay < cutoff));
        assert_eq!(split.p0().len(), h.classes()[i0].cumulative);
    }

    #[test]
    fn all_concatenates_the_sets_in_order() {
        let list = faults();
        let key = |e: &FaultEntry| e.fault.to_string();
        let split = TargetSplit::by_cumulative_length(&list, 10);
        let union: Vec<String> = split
            .p0()
            .iter()
            .chain(split.p1().iter())
            .map(key)
            .collect();
        assert_eq!(split.all().iter().map(key).collect::<Vec<_>>(), union);
        let three = TargetSplit::by_thresholds(&list, &[10, 8]);
        assert_eq!(three.all().len(), list.len());
    }

    #[test]
    fn oversized_threshold_puts_everything_in_p0() {
        let list = faults();
        let split = TargetSplit::by_cumulative_length(&list, 1_000_000);
        assert_eq!(split.p0().len(), list.len());
        assert!(split.p1().is_empty());
    }

    #[test]
    fn k_set_partition_covers_and_respects_bounds() {
        let list = faults();
        let split = TargetSplit::by_thresholds(&list, &[10, 8]);
        assert_eq!(split.sets().len(), 3);
        assert_eq!(split.total(), list.len());
        assert!(split.sets()[0].iter().all(|e| e.delay >= 10));
        assert!(split.sets()[1].iter().all(|e| (8..10).contains(&e.delay)));
        assert!(split.sets()[2].iter().all(|e| e.delay < 8));
    }

    #[test]
    fn nested_cumulative_matches_the_two_set_rule_at_k2() {
        let list = faults();
        let nested = TargetSplit::by_nested_cumulative(&list, 10, 2);
        let flat = TargetSplit::by_cumulative_length(&list, 10);
        assert_eq!(nested.i0(), flat.i0());
        assert_eq!(nested.cutoffs(), flat.cutoffs());
        assert_eq!(nested.p0().len(), flat.p0().len());
        assert_eq!(nested.p1().len(), flat.p1().len());
    }

    #[test]
    fn nested_cumulative_builds_k_sets_that_cover_the_population() {
        let list = faults();
        for k in 2..=4 {
            let split = TargetSplit::by_nested_cumulative(&list, 5, k);
            assert_eq!(split.sets().len(), k, "k={k}");
            assert_eq!(split.total(), list.len(), "k={k}");
            // Sets are ordered most-critical first: every fault in set j
            // is on a path at least as long as every fault in set j+1.
            for w in split.sets().windows(2) {
                let min_prev = w[0].iter().map(|e| e.delay).min();
                let max_next = w[1].iter().map(|e| e.delay).max();
                if let (Some(lo), Some(hi)) = (min_prev, max_next) {
                    assert!(lo > hi);
                }
            }
            // Set 0 is the same P_0 regardless of k.
            let flat = TargetSplit::by_cumulative_length(&list, 5);
            assert_eq!(split.p0().len(), flat.p0().len(), "k={k}");
        }
    }

    #[test]
    fn nested_cumulative_pads_exhausted_populations_with_empty_sets() {
        let list = faults();
        // n_p0 larger than the population: everything lands in set 0 and
        // the trailing sets are empty but still present.
        let split = TargetSplit::by_nested_cumulative(&list, 1_000_000, 4);
        assert_eq!(split.sets().len(), 4);
        assert_eq!(split.p0().len(), list.len());
        assert!(split.sets()[1..].iter().all(FaultList::is_empty));
    }

    #[test]
    #[should_panic(expected = "at least two sets")]
    fn nested_cumulative_rejects_k1() {
        let list = faults();
        let _ = TargetSplit::by_nested_cumulative(&list, 10, 1);
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn non_decreasing_thresholds_panic() {
        let list = faults();
        let _ = TargetSplit::by_thresholds(&list, &[8, 8]);
    }

    #[test]
    #[should_panic(expected = "at least one threshold")]
    fn empty_thresholds_panic() {
        let list = faults();
        let _ = TargetSplit::by_thresholds(&list, &[]);
    }
}
