//! Bit-parallel packed two-pattern fault simulation.
//!
//! Robust path-delay-fault simulation reduces to one hazard-conservative
//! waveform simulation per two-pattern test plus a requirement check per
//! fault (paper Sec. 2.1). Both halves are embarrassingly data-parallel,
//! and this crate exploits that at the bit level: [`PackedBlock`] packs
//! `SimWidth::auto().lanes()` (= 256) tests into [`Tile`] bit-planes (a
//! zero and a one rail per triple component) and evaluates every gate for
//! all of them with a handful of word operations; requirement checks
//! collapse to one `AND` per specified component across all lanes at once.
//! The sweeps run on the caller's thread: the tile is the only
//! parallelism, and test generation's worker pool is the only thread
//! fan-out in the pipeline.
//!
//! There is one production path for test sets: the event-driven packed
//! kernel on a [`Tile`]. A single test's full-circuit waveforms (a
//! justified witness, `pdfatpg sim`) come from [`waveforms`], the same
//! rail algebra on one byte per line. The scalar engine
//! ([`pdf_netlist::simulate_triples`]) is only the differential-testing
//! oracle: both evaluators are bit-for-bit equivalent to it (the triple
//! algebra is component-wise Kleene logic, which the two-rail encoding
//! implements exactly) and this crate's property tests verify that
//! equivalence on random circuits.
//!
//! # Example
//!
//! ```
//! use pdf_netlist::iscas::s27;
//! use pdf_paths::PathEnumerator;
//! use pdf_faults::FaultList;
//! use pdf_logic::Value;
//! use pdf_netlist::{simulate_triples, TwoPattern};
//!
//! let circuit = s27();
//! let paths = PathEnumerator::new(&circuit).enumerate();
//! let (faults, _) = FaultList::build(&circuit, &paths.store);
//! let n = circuit.inputs().len();
//! let test = TwoPattern::new(vec![Value::Zero; n], vec![Value::One; n]);
//!
//! let packed = pdf_sim::coverage_flags(&circuit, &[test.clone()], faults.entries());
//! let waves = simulate_triples(&circuit, &test.to_triples());
//! let scalar: Vec<bool> = faults.iter().map(|e| e.assignments.satisfied_by(&waves)).collect();
//! assert_eq!(packed, scalar);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod packed;
mod sweep;
mod word;

pub use packed::{KernelStats, PackedBlock, LANES};
pub use sweep::waveforms;
pub use word::{SimWidth, SimWord, Tile};

use pdf_faults::{Assignments, FaultEntry};
use pdf_logic::Triple;
use pdf_netlist::{Circuit, TwoPattern};

/// The simulation option block the drivers thread through generation,
/// justification and coverage. Simulation has one configuration — the
/// event-driven packed kernel on a [`Tile`] — so the block carries no
/// settings; it stays as the stable parameter type of those entry points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SimOptions {}

/// Anything that carries a necessary-assignment set. Lets the drivers run
/// over [`FaultList`](pdf_faults::FaultList) entries, borrowed entries, or
/// plain [`Assignments`] without copying fault lists around.
pub trait HasAssignments {
    /// The fault's necessary assignment set `A(p)`.
    fn assignments(&self) -> &Assignments;
}

impl HasAssignments for Assignments {
    fn assignments(&self) -> &Assignments {
        self
    }
}

impl HasAssignments for FaultEntry {
    fn assignments(&self) -> &Assignments {
        &self.assignments
    }
}

impl<T: HasAssignments + ?Sized> HasAssignments for &T {
    fn assignments(&self) -> &Assignments {
        (**self).assignments()
    }
}

/// Loads `tests` one tile at a time and hands each loaded block to
/// `visit(block, tests_block)`, then flushes the kernel's drained stats
/// into the global telemetry counters (one locked update per sweep, not
/// per line).
fn packed_sweep(
    circuit: &Circuit,
    tests: &[TwoPattern],
    mut visit: impl FnMut(&PackedBlock, &[TwoPattern]),
) {
    let _phase = pdf_telemetry::Span::enter("simulate");
    pdf_telemetry::count(pdf_telemetry::counters::SIM_PASSES, 1);
    let blocks = tests.chunks(Tile::LANES);
    pdf_telemetry::count(pdf_telemetry::counters::PACKED_BLOCKS, blocks.len() as u64);
    let mut block = PackedBlock::new();
    for tests_block in blocks {
        block.load(circuit, tests_block);
        visit(&block, tests_block);
    }
    let stats = block.take_kernel_stats();
    pdf_telemetry::count(
        pdf_telemetry::counters::EVENTS_PROPAGATED,
        stats.events_propagated,
    );
    pdf_telemetry::count(pdf_telemetry::counters::LINES_SKIPPED, stats.lines_skipped);
}

/// Simulates `tests` against `faults` and returns the per-fault detection
/// flags — the kernel behind `TestSet::coverage`.
#[must_use]
pub fn coverage_flags<T: HasAssignments>(
    circuit: &Circuit,
    tests: &[TwoPattern],
    faults: &[T],
) -> Vec<bool> {
    let mut detected = vec![false; faults.len()];
    packed_sweep(circuit, tests, |block, _| {
        for (d, fault) in detected.iter_mut().zip(faults) {
            if !*d
                && !block
                    .satisfied_lanes(circuit, fault.assignments())
                    .is_zero()
            {
                *d = true;
            }
        }
    });
    detected
}

/// For every test, the indices of the faults it detects (in increasing
/// fault order) — the kernel behind static test-set compaction.
#[must_use]
pub fn per_test_detections<T: HasAssignments>(
    circuit: &Circuit,
    tests: &[TwoPattern],
    faults: &[T],
) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); tests.len()];
    let mut base = 0;
    packed_sweep(circuit, tests, |block, tests_block| {
        for (i, fault) in faults.iter().enumerate() {
            let lanes = block.satisfied_lanes(circuit, fault.assignments());
            for k in 0..Tile::WORDS {
                let mut w = lanes.word(k);
                while w != 0 {
                    let lane = k * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    out[base + lane].push(i);
                }
            }
        }
        base += tests_block.len();
    });
    out
}

/// Outcome of the per-test drop-loop sweep ([`newly_satisfied_guarded`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardedSweep {
    /// Indices newly satisfied, in increasing order.
    pub satisfied: Vec<usize>,
    /// Indices whose requirement check panicked, in increasing order —
    /// candidates for quarantine.
    pub panicked: Vec<usize>,
}

/// The per-test drop loop of the generator: the indices of the faults
/// whose requirements `waves` satisfies, skipping every fault already
/// `detected` or `quarantined`. A fault whose requirement check panics (a
/// corrupted assignment set, an out-of-range line id) is reported in
/// [`GuardedSweep::panicked`] instead of killing the sweep, and every
/// healthy fault is still classified.
///
/// The guard costs nothing on the happy path — the faults are scanned
/// under one unwind guard, and only a scan that actually panics is re-run
/// fault by fault to attribute the failure.
///
/// # Panics
///
/// Panics if `detected` or `quarantined` does not hold one flag per fault.
#[must_use]
pub fn newly_satisfied_guarded<T: HasAssignments>(
    waves: &[Triple],
    faults: &[T],
    detected: &[bool],
    quarantined: &[bool],
) -> GuardedSweep {
    assert!(
        faults.len() == detected.len() && faults.len() == quarantined.len(),
        "one detection and one quarantine flag per fault required"
    );
    let _phase = pdf_telemetry::Span::enter("simulate");
    pdf_telemetry::count(pdf_telemetry::counters::SIM_PASSES, 1);
    let live = || (0..faults.len()).filter(|&i| !detected[i] && !quarantined[i]);
    let check = |i: usize| faults[i].assignments().satisfied_by(waves);
    let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        live().filter(|&i| check(i)).collect::<Vec<usize>>()
    }));
    let mut out = GuardedSweep::default();
    match scan {
        Ok(satisfied) => out.satisfied = satisfied,
        Err(_) => {
            for i in live() {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(i))) {
                    Ok(true) => out.satisfied.push(i),
                    Ok(false) => {}
                    Err(_) => out.panicked.push(i),
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_faults::FaultList;
    use pdf_logic::Value;
    use pdf_netlist::iscas::s27;
    use pdf_netlist::simulate_triples;
    use pdf_paths::PathEnumerator;

    fn setup() -> (Circuit, FaultList, Vec<TwoPattern>) {
        let c = s27();
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = FaultList::build(&c, &paths.store);
        let n = c.inputs().len();
        // A deterministic spread of 600 tests (more than two tiles).
        let tests: Vec<TwoPattern> = (0..600u32)
            .map(|k| {
                let v1 = (0..n).map(|i| Value::from(k >> i & 1 == 1)).collect();
                let v2 = (0..n).map(|i| Value::from(k >> (i + 3) & 1 == 0)).collect();
                TwoPattern::new(v1, v2)
            })
            .collect();
        (c, faults, tests)
    }

    /// The scalar oracle: one `simulate_triples` per test, faults in
    /// increasing order.
    fn scalar_per_test(c: &Circuit, tests: &[TwoPattern], faults: &FaultList) -> Vec<Vec<usize>> {
        tests
            .iter()
            .map(|t| {
                let waves = simulate_triples(c, &t.to_triples());
                (0..faults.len())
                    .filter(|&i| faults.entries()[i].assignments.satisfied_by(&waves))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn kernel_matches_the_scalar_oracle() {
        let (c, faults, tests) = setup();
        let oracle = scalar_per_test(&c, &tests, &faults);
        assert_eq!(per_test_detections(&c, &tests, faults.entries()), oracle);
        let mut covered = vec![false; faults.len()];
        for &i in oracle.iter().flatten() {
            covered[i] = true;
        }
        assert_eq!(coverage_flags(&c, &tests, faults.entries()), covered);
        assert!(covered.iter().any(|&d| d), "spread must detect something");
    }

    #[test]
    fn guarded_sweep_matches_serial_scan() {
        let (c, faults, tests) = setup();
        let mut detected = vec![false; faults.len()];
        let mut quarantined = vec![false; faults.len()];
        for i in (0..faults.len()).step_by(3) {
            detected[i] = true;
        }
        for i in (1..faults.len()).step_by(5) {
            quarantined[i] = true;
        }
        let mut swept = 0;
        for test in &tests[..64] {
            let waves = simulate_triples(&c, &test.to_triples());
            let got = newly_satisfied_guarded(&waves, faults.entries(), &detected, &quarantined);
            let want: Vec<usize> = faults
                .iter()
                .enumerate()
                .filter(|(i, e)| {
                    !detected[*i] && !quarantined[*i] && e.assignments.satisfied_by(&waves)
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got.satisfied, want);
            assert!(got.panicked.is_empty());
            swept += want.len();
        }
        assert!(swept > 0, "the spread must detect a live fault");
    }

    #[test]
    fn guarded_sweep_quarantines_a_poisoned_fault() {
        let (c, faults, tests) = setup();
        let waves = simulate_triples(&c, &tests[3].to_triples());
        // A requirement on a line id far past the circuit makes
        // `satisfied_by` index out of bounds — the poison this guard
        // exists to contain.
        let mut poisoned = Assignments::new();
        poisoned
            .require(pdf_netlist::LineId::new(9_999), Triple::RISING)
            .unwrap();
        let mut sets: Vec<Assignments> = faults.iter().map(|e| e.assignments.clone()).collect();
        let bad = sets.len() / 2;
        sets[bad] = poisoned;
        let clear = vec![false; sets.len()];
        let guarded = newly_satisfied_guarded(&waves, &sets, &clear, &clear);
        assert_eq!(guarded.panicked, vec![bad]);
        let want: Vec<usize> = sets
            .iter()
            .enumerate()
            .filter(|(i, a)| *i != bad && a.satisfied_by(&waves))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(guarded.satisfied, want);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let (c, faults, _) = setup();
        let flags = coverage_flags(&c, &[], faults.entries());
        assert!(flags.iter().all(|&d| !d));
        assert!(per_test_detections(&c, &[], faults.entries()).is_empty());
        let no_faults: &[Assignments] = &[];
        let waves = vec![Triple::UNKNOWN; c.line_count()];
        assert_eq!(
            newly_satisfied_guarded(&waves, no_faults, &[], &[]),
            GuardedSweep::default()
        );
    }
}
