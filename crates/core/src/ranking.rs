//! Incremental `n_Δ` ranking for the value-based secondary-target
//! heuristic (paper Sec. 2.2).
//!
//! The heuristic repeatedly tries the compatible candidate with the fewest
//! new value components `n_Δ(p) = |A(p) − ∪A(P(t))|`. The union only
//! narrows on accept, and both `n_Δ(p)` and the conflict test are sums over
//! the lines of `A(p)`. So after an accept, only the candidates that
//! constrain a line whose union value changed can move or start to
//! conflict: [`LineIndex`] finds them, and [`DeltaRanking`] re-ranks just
//! those. The order and the conflict count match a full rescan of every
//! candidate against the union after each accept, exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use pdf_faults::Assignments;
use pdf_logic::Triple;
use pdf_netlist::LineId;

/// Line → fault index over a whole fault population, as one flat CSR:
/// row `l` lists, in ascending order, the faults whose `A(p)` constrains
/// line `l`.
pub(crate) struct LineIndex {
    /// Row `l` is `faults[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<u32>,
    faults: Vec<u32>,
}

impl LineIndex {
    /// Indexes `population` (fault `i` is its `i`-th item) over `lines`
    /// lines. A requirement on a line `>= lines` (a corrupt entry, which
    /// is quarantined wherever it is tried) is left out: no accepted
    /// candidate can constrain such a line, so it never changes.
    pub(crate) fn new<'a, I>(lines: usize, population: I) -> LineIndex
    where
        I: IntoIterator<Item = &'a Assignments>,
        I::IntoIter: Clone,
    {
        let population = population.into_iter();
        let mut offsets = vec![0u32; lines + 1];
        for a in population.clone() {
            for line in a.lines().filter(|l| l.index() < lines) {
                offsets[line.index() + 1] += 1;
            }
        }
        for l in 0..lines {
            offsets[l + 1] += offsets[l];
        }
        let mut faults = vec![0u32; offsets[lines] as usize];
        let mut cursor = offsets.clone();
        for (i, a) in population.enumerate() {
            for line in a.lines().filter(|l| l.index() < lines) {
                let slot = &mut cursor[line.index()];
                faults[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        LineIndex { offsets, faults }
    }

    /// The faults constraining `line`, ascending.
    fn row(&self, line: LineId) -> &[u32] {
        let l = line.index();
        &self.faults[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// The faults of `row(line)` inside `range`.
    fn row_in(&self, line: LineId, range: &Range<usize>) -> &[u32] {
        let row = self.row(line);
        let from = row.partition_point(|&c| (c as usize) < range.start);
        let to = row.partition_point(|&c| (c as usize) < range.end);
        &row[from..to]
    }
}

/// Where a candidate stands in one pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Compatible with the union, `n_Δ` as given.
    Live(u32),
    /// Handed out by [`DeltaRanking::pop`].
    Tried,
    /// Conflicts with the union.
    Conflicting,
    /// Found ineligible (eligibility never returns within a build).
    Ineligible,
}

/// The ranking of one value-based pass over the candidates `range`.
///
/// The caller alternates [`rank`](DeltaRanking::rank) (which brings the
/// order up to date and reports the candidates that now conflict),
/// [`pop`](DeltaRanking::pop) (the next candidate in ascending
/// `(n_Δ, index)` order), and, when a candidate joins the union,
/// [`accept`](DeltaRanking::accept).
pub(crate) struct DeltaRanking {
    range: Range<usize>,
    /// The union's requirement per line; `UNKNOWN` where unconstrained.
    union: Vec<Triple>,
    /// Per candidate `range.start + k`; filled by the first `rank`.
    slots: Vec<Slot>,
    /// The live candidates by least `(n_Δ, index)`. An update pushes the
    /// new key and leaves the old one behind; `pop` skips keys that no
    /// longer match their candidate's slot. `n_Δ` only falls, so a
    /// candidate's current key always pops before its stale ones.
    order: BinaryHeap<Reverse<(u32, u32)>>,
    /// Whether the first `rank` has run.
    ranked: bool,
    /// Each union narrowing since the last `rank`: line, before, after.
    changed: Vec<(LineId, Triple, Triple)>,
}

impl DeltaRanking {
    /// A pass over `range` against `union`, on a circuit of `lines` lines.
    /// Nothing is ranked until the first [`rank`](DeltaRanking::rank).
    pub(crate) fn new(lines: usize, union: &Assignments, range: Range<usize>) -> DeltaRanking {
        let mut values = vec![Triple::UNKNOWN; lines];
        for (line, req) in union.iter() {
            values[line.index()] = req;
        }
        DeltaRanking {
            slots: Vec::new(),
            range,
            union: values,
            order: BinaryHeap::new(),
            ranked: false,
            changed: Vec::new(),
        }
    }

    /// Brings the order up to date: the first call ranks every eligible
    /// candidate, later calls only the live candidates on lines an accept
    /// changed. Returns how many of them now conflict with the union;
    /// those leave the pass, exactly as a full rescan would drop them.
    pub(crate) fn rank<'a>(
        &mut self,
        index: &LineIndex,
        assignments: impl Fn(usize) -> &'a Assignments,
        eligible: impl Fn(usize) -> bool,
    ) -> usize {
        if !self.ranked {
            self.ranked = true;
            return self.rank_all(assignments, eligible);
        }
        let mut conflicts = 0;
        for &(line, before, after) in &self.changed {
            for &c in index.row_in(line, &self.range) {
                let k = c as usize - self.range.start;
                let Slot::Live(delta) = self.slots[k] else {
                    continue;
                };
                if !eligible(c as usize) {
                    self.slots[k] = Slot::Ineligible;
                    continue;
                }
                // n_Δ is a sum of per-line terms: swap this line's term.
                let req = assignments(c as usize)
                    .get(line)
                    .expect("a row lists only faults constraining its line");
                if !after.is_compatible(req) {
                    conflicts += 1;
                    self.slots[k] = Slot::Conflicting;
                    continue;
                }
                let gone = (before.delta_count(req) - after.delta_count(req)) as u32;
                if gone > 0 {
                    self.slots[k] = Slot::Live(delta - gone);
                    self.order.push(Reverse((delta - gone, c)));
                }
            }
        }
        self.changed.clear();
        conflicts
    }

    /// The first ranking: every eligible candidate against the union.
    fn rank_all<'a>(
        &mut self,
        assignments: impl Fn(usize) -> &'a Assignments,
        eligible: impl Fn(usize) -> bool,
    ) -> usize {
        self.changed.clear();
        let mut conflicts = 0;
        let mut order = Vec::with_capacity(self.range.len());
        let slots = self
            .range
            .clone()
            .map(|c| {
                if !eligible(c) {
                    Slot::Ineligible
                } else if let Some(delta) = self.delta(assignments(c)) {
                    order.push(Reverse((delta, c as u32)));
                    Slot::Live(delta)
                } else {
                    conflicts += 1;
                    Slot::Conflicting
                }
            })
            .collect();
        self.slots = slots;
        self.order = BinaryHeap::from(order);
        conflicts
    }

    /// Takes the live candidate with the least `(n_Δ, index)`. It leaves
    /// the pass whatever the caller's verdict.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        loop {
            let Reverse((delta, c)) = self.order.pop()?;
            let slot = &mut self.slots[c as usize - self.range.start];
            if *slot == Slot::Live(delta) {
                *slot = Slot::Tried;
                return Some(c as usize);
            }
        }
    }

    /// Folds an accepted candidate's `A(p)` into the union and records the
    /// lines whose value changed for the next [`rank`](DeltaRanking::rank).
    ///
    /// # Panics
    ///
    /// If `a` conflicts with the union: only compatible candidates join.
    pub(crate) fn accept(&mut self, a: &Assignments) {
        for (line, req) in a.iter() {
            let value = &mut self.union[line.index()];
            let narrowed = value
                .intersect(req)
                .expect("an accepted candidate is compatible with the union");
            if narrowed != *value {
                self.changed.push((line, *value, narrowed));
                *value = narrowed;
            }
        }
    }

    /// `n_Δ` of `a` against the union, or `None` on a conflict (the
    /// dense-array form of [`Assignments::delta_count`]).
    fn delta(&self, a: &Assignments) -> Option<u32> {
        let mut count = 0;
        for (line, req) in a.iter() {
            let value = self
                .union
                .get(line.index())
                .copied()
                .unwrap_or(Triple::UNKNOWN);
            value.intersect(req)?;
            count += value.delta_count(req) as u32;
        }
        Some(count)
    }

    /// The live candidates in the order `pop` hands them out.
    #[cfg(test)]
    fn live_in_order(&self) -> Vec<(u32, usize)> {
        let mut live: Vec<(u32, usize)> = self
            .order
            .iter()
            .map(|&Reverse((delta, c))| (delta, c as usize))
            .filter(|&(delta, c)| self.slots[c - self.range.start] == Slot::Live(delta))
            .collect();
        live.sort_unstable();
        live
    }

    /// The candidates `rank` has found conflicting so far.
    #[cfg(test)]
    fn conflicting(&self) -> impl Iterator<Item = usize> + '_ {
        (self.slots.iter().enumerate())
            .filter(|&(_, &slot)| slot == Slot::Conflicting)
            .map(|(k, _)| self.range.start + k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_logic::Value;
    use proptest::prelude::*;

    /// The full rescan the incremental ranking replaces: every unconsidered
    /// eligible candidate of `range` against the union, conflicting ones
    /// marked considered. Returns the `(n_Δ, index)` order and the
    /// candidates that conflicted.
    fn full_rescan(
        union: &Assignments,
        population: &[Assignments],
        range: Range<usize>,
        considered: &mut [bool],
        eligible: &[bool],
    ) -> (Vec<(u32, usize)>, Vec<usize>) {
        let mut ranked = Vec::new();
        let mut conflicts = Vec::new();
        for i in range {
            if considered[i] || !eligible[i] {
                continue;
            }
            match union.delta_count(&population[i]) {
                Some(delta) => ranked.push((delta as u32, i)),
                None => {
                    considered[i] = true;
                    conflicts.push(i);
                }
            }
        }
        ranked.sort_unstable();
        (ranked, conflicts)
    }

    const LINES: usize = 12;

    fn requirement() -> impl Strategy<Value = (usize, Triple)> {
        let value = |v: u8| [Value::Zero, Value::One, Value::X][usize::from(v)];
        (0..LINES, 0..3u8, 0..3u8, 0..3u8)
            .prop_map(move |(l, a, b, c)| (l, Triple::new(value(a), value(b), value(c))))
    }

    fn assignments() -> impl Strategy<Value = Assignments> {
        proptest::collection::vec(requirement(), 0..5).prop_map(|reqs| {
            let mut a = Assignments::new();
            for (line, req) in reqs {
                // Drop self-conflicting duplicates, as `A(p)` never has them.
                let _ = a.require(LineId::new(line), req);
            }
            a
        })
    }

    /// One round's script: how many popped candidates fail before the
    /// next is accepted, whether one is (4 in 5), and which candidate turns
    /// ineligible first (none when out of range).
    fn round() -> impl Strategy<Value = (usize, bool, usize)> {
        (0..4usize, 0..5u8, 0..80usize).prop_map(|(fails, a, drop)| (fails, a < 4, drop))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn incremental_ranking_matches_the_full_rescan(
            population in proptest::collection::vec(assignments(), 1..40),
            cut in (0..40usize, 0..40usize),
            start in assignments(),
            rounds in proptest::collection::vec(round(), 1..12),
        ) {
            let n = population.len();
            // The pass ranks one set: a slice of the indexed population.
            let (x, y) = (cut.0 % (n + 1), cut.1 % (n + 1));
            let range = x.min(y)..x.max(y);
            let index = LineIndex::new(LINES, &population);
            let mut ranking = DeltaRanking::new(LINES, &start, range.clone());
            let mut union = start;
            let mut considered = vec![false; n];
            let mut eligible = vec![true; n];
            for (fails, accepts, drop) in rounds {
                if drop < n {
                    eligible[drop] = false;
                }
                let before: Vec<usize> = ranking.conflicting().collect();
                let (ranked, conflicts) =
                    full_rescan(&union, &population, range.clone(), &mut considered, &eligible);
                let counted = ranking.rank(&index, |i| &population[i], |i| eligible[i]);
                prop_assert_eq!(counted, conflicts.len());
                let now: Vec<usize> = ranking
                    .conflicting()
                    .filter(|c| !before.contains(c))
                    .collect();
                prop_assert_eq!(&now, &conflicts);
                // Candidates that turned ineligible off the changed lines
                // stay in the order; the pass skips them when popped.
                let live: Vec<(u32, usize)> = ranking
                    .live_in_order()
                    .into_iter()
                    .filter(|&(_, c)| eligible[c])
                    .collect();
                prop_assert_eq!(&live, &ranked);

                let mut tried = ranked.iter().map(|&(_, c)| c);
                let mut accepted = None;
                for k in 0..=fails {
                    let next = loop {
                        match ranking.pop() {
                            Some(c) if !eligible[c] => continue,
                            other => break other,
                        }
                    };
                    prop_assert_eq!(next, tried.next());
                    let Some(c) = next else { break };
                    considered[c] = true;
                    if k == fails && accepts {
                        accepted = Some(c);
                    }
                }
                let Some(c) = accepted else { break };
                union = union.merged(&population[c]).expect("ranked as compatible");
                ranking.accept(&population[c]);
            }
        }
    }

    #[test]
    fn every_fault_sits_in_exactly_the_rows_of_its_lines() {
        let circuit = pdf_netlist::iscas::s27();
        let paths = pdf_paths::PathEnumerator::new(&circuit).enumerate();
        let (faults, _) = pdf_faults::FaultList::build(&circuit, &paths.store);
        let population: Vec<&Assignments> = faults.iter().map(|e| &e.assignments).collect();
        let lines = circuit.line_count();
        let index = LineIndex::new(lines, population.iter().copied());
        let mut entries = 0;
        for l in 0..lines {
            let row = index.row(LineId::new(l));
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {l} not ascending");
            entries += row.len();
            for (i, a) in population.iter().enumerate() {
                let listed = row.binary_search(&(i as u32)).is_ok();
                assert_eq!(
                    listed,
                    a.get(LineId::new(l)).is_some(),
                    "fault {i}, line {l}"
                );
            }
        }
        let total: usize = population.iter().map(|a| a.len()).sum();
        assert_eq!(entries, total);
    }
}
