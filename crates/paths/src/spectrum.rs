//! Non-enumerative path counting by length.
//!
//! The paper sizes its fault stores by "considering the number of paths of
//! every length" and cites the authors' non-enumerative coverage
//! estimation work (its reference \[2\]). This module provides that
//! substrate: the exact number of complete paths of every delay, computed
//! by dynamic programming over the line graph **without enumerating a
//! single path** — time `O(lines × distinct delays)`, even when the
//! circuit has astronomically many paths.
//!
//! It doubles as a differential oracle for the enumerator: on circuits
//! small enough to enumerate, the per-length counts must match exactly.

use core::fmt;
use std::collections::BTreeMap;

use pdf_netlist::{Circuit, LineId};

/// A path count that saturates at `u64::MAX`, with the clamping made
/// explicit: `saturated` means the true count is *at least* `count`, so
/// callers can distinguish "exactly 2⁶⁴−1" from "too many to represent"
/// instead of silently treating the clamp as exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatCount {
    /// The count, clamped at `u64::MAX`.
    pub count: u64,
    /// `true` when the count is a lower bound because some addition or
    /// multiplication on the way here overflowed `u64`.
    pub saturated: bool,
}

impl SatCount {
    /// An exact (unsaturated) count.
    #[must_use]
    pub const fn exact(count: u64) -> SatCount {
        SatCount {
            count,
            saturated: false,
        }
    }

    /// Adds two counts, saturating and propagating the flag.
    #[must_use]
    pub const fn saturating_add(self, other: SatCount) -> SatCount {
        let (sum, overflow) = self.count.overflowing_add(other.count);
        SatCount {
            count: if overflow { u64::MAX } else { sum },
            saturated: self.saturated || other.saturated || overflow,
        }
    }

    /// Multiplies two counts, saturating and propagating the flag.
    #[must_use]
    pub const fn saturating_mul(self, other: SatCount) -> SatCount {
        let (product, overflow) = self.count.overflowing_mul(other.count);
        SatCount {
            count: if overflow { u64::MAX } else { product },
            saturated: self.saturated || other.saturated || overflow,
        }
    }
}

impl fmt::Display for SatCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.saturated {
            write!(f, ">={}", self.count)
        } else {
            write!(f, "{}", self.count)
        }
    }
}

/// The result of [`PathSpectrum::cutoff_delay`]: the chosen cutoff, with
/// an explicit flag when the cumulative population count saturated on the
/// way down. A saturated cutoff is still sound — the true population is
/// at least the clamped one, so the threshold really is reached — but the
/// caller must not treat intermediate counts as exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cutoff {
    /// The smallest delay whose cumulative population reaches the
    /// threshold.
    pub delay: u32,
    /// `true` when the cumulative count clamped at `u64::MAX` at or
    /// before the cutoff.
    pub saturated: bool,
}

/// The number of complete input-to-output paths per total delay.
///
/// Counts saturate at `u64::MAX` (flagged by [`PathSpectrum::saturated`]).
///
/// # Example
///
/// ```
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathSpectrum;
///
/// let spectrum = PathSpectrum::of(&s27());
/// assert_eq!(spectrum.total(), 28);            // s27 has 28 paths
/// assert_eq!(spectrum.count_at(10), 4);        // four critical paths
/// assert_eq!(spectrum.count_at_least(7).count, 18); // the walkthrough's 18
/// assert!(!spectrum.count_at_least(7).saturated);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSpectrum {
    /// delay -> number of complete paths of exactly that delay.
    counts: BTreeMap<u32, u64>,
    saturated: bool,
}

impl PathSpectrum {
    /// Computes the spectrum of `circuit`.
    #[must_use]
    pub fn of(circuit: &Circuit) -> PathSpectrum {
        // suffix[l] : delay -> number of line sequences from l (inclusive)
        // to an output, where the delay includes l's own delay.
        let mut suffix: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); circuit.line_count()];
        let mut saturated = false;
        for &id in circuit.topo_order().iter().rev() {
            let line = circuit.line(id);
            let mut map = BTreeMap::new();
            if line.is_output() {
                map.insert(line.delay(), 1u64);
            } else {
                for &f in circuit.fanout(id) {
                    // Clone keeps the borrow checker happy; suffix maps are
                    // small (one entry per distinct delay).
                    let child = suffix[f.index()].clone();
                    for (d, n) in child {
                        let entry = map.entry(d + line.delay()).or_insert(0u64);
                        let (sum, overflow) = entry.overflowing_add(n);
                        *entry = if overflow { u64::MAX } else { sum };
                        saturated |= overflow || *entry == u64::MAX && n == u64::MAX;
                    }
                }
            }
            suffix[id.index()] = map;
        }
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for &i in circuit.inputs() {
            for (&d, &n) in &suffix[i.index()] {
                let entry = counts.entry(d).or_insert(0);
                let (sum, overflow) = entry.overflowing_add(n);
                *entry = if overflow { u64::MAX } else { sum };
                saturated |= overflow;
            }
        }
        PathSpectrum { counts, saturated }
    }

    /// The number of complete paths of exactly `delay`.
    #[must_use]
    pub fn count_at(&self, delay: u32) -> u64 {
        self.counts.get(&delay).copied().unwrap_or(0)
    }

    /// The number of complete paths of delay `delay` or more, with the
    /// saturation made explicit: a clamped per-delay bucket or an
    /// overflowing fold sets [`SatCount::saturated`] instead of silently
    /// returning `u64::MAX` as if it were exact.
    #[must_use]
    pub fn count_at_least(&self, delay: u32) -> SatCount {
        self.counts
            .range(delay..)
            .fold(SatCount::exact(0), |acc, (_, &n)| {
                acc.saturating_add(SatCount {
                    count: n,
                    // A bucket pinned at u64::MAX only ever comes from the
                    // saturating DP: treat it as a lower bound.
                    saturated: self.saturated && n == u64::MAX,
                })
            })
    }

    /// Total number of complete paths.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts
            .values()
            .fold(0u64, |acc, &n| acc.saturating_add(n))
    }

    /// The largest path delay (`L_0`), or `None` for a pathless circuit.
    #[must_use]
    pub fn max_delay(&self) -> Option<u32> {
        self.counts.keys().next_back().copied()
    }

    /// The smallest path delay, or `None` for a pathless circuit.
    #[must_use]
    pub fn min_delay(&self) -> Option<u32> {
        self.counts.keys().next().copied()
    }

    /// Iterates `(delay, count)` pairs in decreasing delay order.
    pub fn iter_desc(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().rev().map(|(&d, &n)| (d, n))
    }

    /// `true` if any count saturated at `u64::MAX` (the circuit has more
    /// than 2⁶⁴−1 paths of some length).
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// The smallest delay `L` such that counting `units` faults per path,
    /// the population at delay `L` or longer reaches `threshold` — the
    /// non-enumerative way to choose the `P_0` cutoff, useful to size
    /// `N_P` before enumerating (the paper: "`N_P` can be determined by
    /// considering the number of paths of every length").
    ///
    /// A saturated cumulative count is reported through
    /// [`Cutoff::saturated`]; the returned delay is still sound because
    /// the clamped count is a lower bound on the true population.
    #[must_use]
    pub fn cutoff_delay(&self, units: u64, threshold: u64) -> Option<Cutoff> {
        let mut acc = SatCount::exact(0);
        for (&d, &n) in self.counts.iter().rev() {
            let bucket = SatCount {
                count: n,
                saturated: self.saturated && n == u64::MAX,
            };
            acc = acc.saturating_add(bucket.saturating_mul(SatCount::exact(units)));
            if acc.count >= threshold {
                return Some(Cutoff {
                    delay: d,
                    saturated: acc.saturated,
                });
            }
        }
        None
    }

    /// The number of complete paths running through `line` (any delay),
    /// with explicit saturation. Convenience for one line; use
    /// [`PathTraffic`] to query many lines of one circuit.
    #[must_use]
    pub fn paths_through(circuit: &Circuit, line: LineId) -> SatCount {
        PathTraffic::of(circuit).through(line)
    }
}

/// Per-line path-count DP: for every line, the number of complete
/// input-to-output paths running through it, computed by one forward and
/// one backward sweep with saturating arithmetic and per-line saturation
/// flags.
///
/// # Example
///
/// ```
/// use pdf_netlist::iscas::s27;
/// use pdf_paths::PathTraffic;
///
/// let circuit = s27();
/// let traffic = PathTraffic::of(&circuit);
/// assert_eq!(traffic.total().count, 28);
/// assert!(!traffic.total().saturated);
/// ```
#[derive(Clone, Debug)]
pub struct PathTraffic {
    /// forward[l]: #paths from any input to l (inclusive).
    forward: Vec<SatCount>,
    /// backward[l]: #line sequences from l (inclusive) to any output.
    backward: Vec<SatCount>,
    /// Total complete paths (sum of forward over outputs).
    total: SatCount,
}

impl PathTraffic {
    /// Runs the two sweeps over `circuit`.
    #[must_use]
    pub fn of(circuit: &Circuit) -> PathTraffic {
        let mut forward = vec![SatCount::exact(0); circuit.line_count()];
        let mut backward = vec![SatCount::exact(0); circuit.line_count()];
        for &id in circuit.topo_order() {
            forward[id.index()] = if circuit.kind(id).is_input() {
                SatCount::exact(1)
            } else {
                circuit.fanin(id).iter().fold(SatCount::exact(0), |a, f| {
                    a.saturating_add(forward[f.index()])
                })
            };
        }
        let mut total = SatCount::exact(0);
        for &id in circuit.topo_order().iter().rev() {
            let l = circuit.line(id);
            backward[id.index()] = if l.is_output() {
                total = total.saturating_add(forward[id.index()]);
                SatCount::exact(1)
            } else {
                circuit.fanout(id).iter().fold(SatCount::exact(0), |a, f| {
                    a.saturating_add(backward[f.index()])
                })
            };
        }
        PathTraffic {
            forward,
            backward,
            total,
        }
    }

    /// The number of complete paths through `line`.
    #[must_use]
    pub fn through(&self, line: LineId) -> SatCount {
        self.forward[line.index()].saturating_mul(self.backward[line.index()])
    }

    /// The total number of complete paths of the circuit — by
    /// construction this equals [`PathSpectrum::total`] when neither side
    /// saturated, the reconciliation `pdfatpg analyze` asserts.
    #[must_use]
    pub fn total(&self) -> SatCount {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathEnumerator;
    use pdf_netlist::iscas::{c17, s27};
    use pdf_netlist::SynthProfile;

    #[test]
    fn s27_spectrum_matches_enumeration() {
        let c = s27();
        let spectrum = PathSpectrum::of(&c);
        let full = PathEnumerator::new(&c).with_cap(1_000_000).enumerate();
        assert_eq!(spectrum.total(), full.store.len() as u64);
        for (delay, count) in spectrum.iter_desc() {
            let enumerated = full.store.iter().filter(|e| e.delay == delay).count() as u64;
            assert_eq!(count, enumerated, "delay {delay}");
        }
        assert_eq!(spectrum.max_delay(), Some(10));
        assert_eq!(spectrum.min_delay(), Some(2));
        assert!(!spectrum.saturated());
    }

    #[test]
    fn c17_spectrum() {
        let spectrum = PathSpectrum::of(&c17());
        assert_eq!(spectrum.total(), 11);
    }

    #[test]
    fn random_circuits_match_enumeration() {
        for seed in 0..10u64 {
            let c = SynthProfile::new("spec", seed)
                .with_inputs(6)
                .with_gates(40)
                .with_levels(6)
                .generate()
                .to_circuit()
                .unwrap();
            let spectrum = PathSpectrum::of(&c);
            assert_eq!(spectrum.total(), c.path_count(), "seed {seed}");
            let full = PathEnumerator::new(&c).with_cap(10_000_000).enumerate();
            for (delay, count) in spectrum.iter_desc() {
                let enumerated = full.store.iter().filter(|e| e.delay == delay).count() as u64;
                assert_eq!(count, enumerated, "seed {seed} delay {delay}");
            }
        }
    }

    #[test]
    fn cutoff_delay_mirrors_histogram_cutoff() {
        let c = s27();
        let spectrum = PathSpectrum::of(&c);
        // 2 faults per path; find the cutoff for 10 faults.
        let cutoff = spectrum.cutoff_delay(2, 10).unwrap();
        // Manually: 4 paths at 10 (8 faults), 2 at 9 (12 faults total).
        assert_eq!(cutoff.delay, 9);
        assert!(!cutoff.saturated);
        assert_eq!(spectrum.cutoff_delay(2, 8).map(|c| c.delay), Some(10));
        assert!(spectrum.cutoff_delay(2, 100_000).is_none());
    }

    #[test]
    fn paths_through_lines() {
        let c = s27();
        // Line 21 (id 20) is on 18 of the 28 paths: all paths through the
        // NOR stem G11.
        let through = PathSpectrum::paths_through(&c, pdf_netlist::LineId::new(20));
        let full = PathEnumerator::new(&c).with_cap(1_000_000).enumerate();
        let expected = full
            .store
            .iter()
            .filter(|e| e.path.lines().contains(&pdf_netlist::LineId::new(20)))
            .count() as u64;
        assert_eq!(through, SatCount::exact(expected));
    }

    #[test]
    fn traffic_totals_reconcile_with_spectrum() {
        for (name, c) in [("s27", s27()), ("c17", c17())] {
            let spectrum = PathSpectrum::of(&c);
            let traffic = PathTraffic::of(&c);
            assert_eq!(traffic.total(), SatCount::exact(spectrum.total()), "{name}");
            for &i in c.inputs() {
                assert_eq!(
                    traffic.through(i),
                    PathSpectrum::paths_through(&c, i),
                    "{name} input {i}"
                );
            }
        }
    }

    /// A 70-level branch-and-reconverge chain doubles the path count per
    /// level: 2⁷⁰ complete paths overflow `u64`, and every query must say
    /// so explicitly instead of silently clamping.
    fn overflowing_chain() -> Circuit {
        let mut b = pdf_netlist::CircuitBuilder::new("overflow-chain");
        let mut prev = b.input("x");
        for i in 0..70 {
            let left = b.branch(format!("l{i}"), prev);
            let right = b.branch(format!("r{i}"), prev);
            prev = b.gate(format!("g{i}"), pdf_logic::GateKind::And, &[left, right]);
        }
        b.mark_output(prev);
        b.finish().unwrap()
    }

    #[test]
    fn deep_chain_overflow_is_explicit() {
        let c = overflowing_chain();
        let spectrum = PathSpectrum::of(&c);
        assert!(spectrum.saturated());
        let all = spectrum.count_at_least(0);
        assert!(all.saturated, "count_at_least must flag the clamp");
        assert_eq!(all.count, u64::MAX);
        // The cutoff is reached immediately (the population dwarfs any
        // threshold) and reports the saturation it went through.
        let cutoff = spectrum.cutoff_delay(2, u64::MAX).unwrap();
        assert!(cutoff.saturated);
        // Per-line traffic: the input feeds every path, and its count
        // overflowed on the backward sweep.
        let traffic = PathTraffic::of(&c);
        let through_input = traffic.through(c.inputs()[0]);
        assert!(through_input.saturated);
        assert_eq!(through_input.count, u64::MAX);
        assert!(traffic.total().saturated);
        assert_eq!(format!("{through_input}"), format!(">={}", u64::MAX));
    }

    /// Just below the overflow knee the counts stay exact: 2⁶³ paths fit
    /// in a u64 and nothing may be flagged.
    #[test]
    fn near_overflow_chain_stays_exact() {
        let mut b = pdf_netlist::CircuitBuilder::new("exact-chain");
        let mut prev = b.input("x");
        for i in 0..63 {
            let left = b.branch(format!("l{i}"), prev);
            let right = b.branch(format!("r{i}"), prev);
            prev = b.gate(format!("g{i}"), pdf_logic::GateKind::And, &[left, right]);
        }
        b.mark_output(prev);
        let c = b.finish().unwrap();
        let spectrum = PathSpectrum::of(&c);
        assert!(!spectrum.saturated());
        let all = spectrum.count_at_least(0);
        assert!(!all.saturated);
        assert_eq!(all.count, 1u64 << 63);
        let traffic = PathTraffic::of(&c);
        assert_eq!(traffic.total(), SatCount::exact(1u64 << 63));
    }

    #[test]
    fn deep_circuit_does_not_enumerate() {
        // A circuit with far too many paths to enumerate still gets an
        // exact spectrum instantly.
        let c = SynthProfile::new("deep", 1)
            .with_inputs(12)
            .with_gates(600)
            .with_levels(40)
            .with_adjacent_bias(0.9)
            .with_pi_bias(0.1)
            .generate()
            .to_circuit()
            .unwrap();
        let spectrum = PathSpectrum::of(&c);
        assert_eq!(spectrum.total(), c.path_count());
        assert!(spectrum.total() > 100_000);
    }
}
