//! Bit-parallel packed two-pattern fault simulation.
//!
//! Robust path-delay-fault simulation reduces to one hazard-conservative
//! waveform simulation per two-pattern test plus a requirement check per
//! fault (paper Sec. 2.1). Both halves are embarrassingly data-parallel,
//! and this crate exploits that twice over:
//!
//! * **bit-level** — [`PackedBlock`] packs `SimWidth::auto().lanes()`
//!   (= 256) tests into [`Tile`] bit-planes (a zero and a one rail per
//!   triple component) and evaluates every gate for all of them with a
//!   handful of word operations; requirement checks collapse to one `AND`
//!   per specified component across all lanes at once;
//! * **thread-level** — [`par_chunk_map`] fans test blocks (for
//!   coverage-style sweeps) and fault chunks (for the per-test drop loop
//!   of the generator) out over `std::thread::scope` workers, merging
//!   results in deterministic chunk order.
//!
//! There is one production path: the event-driven packed kernel on a
//! [`Tile`]. The scalar engine ([`pdf_netlist::simulate_triples`]) is the
//! differential-testing oracle; the packed kernel is bit-for-bit
//! equivalent (the triple algebra is component-wise Kleene logic, which
//! the two-rail encoding implements exactly) and this crate's property
//! tests verify that equivalence on random circuits.
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
mod parallel;
mod word;

pub use packed::{KernelStats, PackedBlock, LANES};
pub use parallel::{max_threads, panic_message, par_chunk_map};
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

/// Fault chunks smaller than this are checked inline rather than fanned
/// out to worker threads (a `satisfied_by` call is a few nanoseconds).
const MIN_FAULT_CHUNK: usize = 512;

/// Anything that carries a necessary-assignment set. Lets the drivers run
/// over [`FaultList`](pdf_faults::FaultList) entries, borrowed entries, or
/// plain [`Assignments`] without copying fault lists around.
pub trait HasAssignments: Sync {
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

/// Flushes a packed worker's drained kernel stats into the global
/// telemetry counters (one locked update per sweep, not per line).
fn flush_kernel_stats(parts: impl IntoIterator<Item = KernelStats>) {
    let mut total = KernelStats::default();
    for s in parts {
        total.events_propagated += s.events_propagated;
        total.lines_skipped += s.lines_skipped;
    }
    pdf_telemetry::count(
        pdf_telemetry::counters::EVENTS_PROPAGATED,
        total.events_propagated,
    );
    pdf_telemetry::count(pdf_telemetry::counters::LINES_SKIPPED, total.lines_skipped);
}

/// Loads `tests` one tile at a time, tile-blocks fanned out over worker
/// threads, and folds each loaded block into a per-worker accumulator
/// with `visit(acc, block, tests_block)`. Returns the accumulators in
/// block order.
fn packed_sweep<A: Send>(
    circuit: &Circuit,
    tests: &[TwoPattern],
    init: impl Fn() -> A + Sync,
    visit: impl Fn(&mut A, &PackedBlock, &[TwoPattern]) + Sync,
) -> Vec<A> {
    let _phase = pdf_telemetry::Span::enter("simulate");
    pdf_telemetry::count(pdf_telemetry::counters::SIM_PASSES, 1);
    let blocks: Vec<&[TwoPattern]> = tests.chunks(Tile::LANES).collect();
    pdf_telemetry::count(pdf_telemetry::counters::PACKED_BLOCKS, blocks.len() as u64);
    pdf_telemetry::record_max(pdf_telemetry::counters::SIM_WIDTH, Tile::LANES as u64);
    let parts = par_chunk_map(&blocks, 1, |_, part| {
        let mut block = PackedBlock::new();
        let mut acc = init();
        for tests_block in part {
            block.load(circuit, tests_block);
            visit(&mut acc, &block, tests_block);
        }
        (acc, block.take_kernel_stats())
    });
    let (accs, stats): (Vec<A>, Vec<KernelStats>) = parts.into_iter().unzip();
    flush_kernel_stats(stats);
    accs
}

/// Simulates `tests` against `faults` and returns the per-fault detection
/// flags — the kernel behind `TestSet::coverage`.
#[must_use]
pub fn coverage_flags<T: HasAssignments>(
    circuit: &Circuit,
    tests: &[TwoPattern],
    faults: &[T],
) -> Vec<bool> {
    let partials = packed_sweep(
        circuit,
        tests,
        || vec![false; faults.len()],
        |local, block, _| {
            for (i, fault) in faults.iter().enumerate() {
                if !local[i] && !block.satisfied_lanes(fault.assignments()).is_zero() {
                    local[i] = true;
                }
            }
        },
    );
    let mut detected = vec![false; faults.len()];
    for local in partials {
        for (d, l) in detected.iter_mut().zip(local) {
            *d |= l;
        }
    }
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
    let parts = packed_sweep(
        circuit,
        tests,
        Vec::new,
        |out: &mut Vec<Vec<usize>>, block, tests_block| {
            let base = out.len();
            out.extend(tests_block.iter().map(|_| Vec::new()));
            for (i, fault) in faults.iter().enumerate() {
                let lanes = block.satisfied_lanes(fault.assignments());
                for k in 0..Tile::WORDS {
                    let mut w = lanes.word(k);
                    while w != 0 {
                        let lane = k * 64 + w.trailing_zeros() as usize;
                        w &= w - 1;
                        out[base + lane].push(i);
                    }
                }
            }
        },
    );
    parts.concat()
}

/// The indices of the faults whose requirements `waves` satisfies and
/// that are not already marked in `already` — the per-test drop loop of
/// the generator, fanned out over fault chunks.
///
/// Results are in increasing index order, identical to a serial scan.
///
/// # Panics
///
/// Panics if `already.len() != faults.len()`.
#[must_use]
pub fn newly_satisfied<T: HasAssignments>(
    waves: &[Triple],
    faults: &[T],
    already: &[bool],
) -> Vec<usize> {
    assert_eq!(
        faults.len(),
        already.len(),
        "one detection flag per fault required"
    );
    let _phase = pdf_telemetry::Span::enter("simulate");
    pdf_telemetry::count(pdf_telemetry::counters::SIM_PASSES, 1);
    let parts = par_chunk_map(faults, MIN_FAULT_CHUNK, |offset, chunk| {
        chunk
            .iter()
            .enumerate()
            .filter(|(k, f)| !already[offset + k] && f.assignments().satisfied_by(waves))
            .map(|(k, _)| offset + k)
            .collect::<Vec<usize>>()
    });
    parts.concat()
}

/// Outcome of a panic-guarded sweep ([`newly_satisfied_guarded`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardedSweep {
    /// Indices newly satisfied, in increasing order.
    pub satisfied: Vec<usize>,
    /// Indices whose requirement check panicked, in increasing order —
    /// candidates for quarantine.
    pub panicked: Vec<usize>,
}

/// [`newly_satisfied`] with per-fault panic containment: a fault whose
/// requirement check panics (a corrupted assignment set, an out-of-range
/// line id) is reported in [`GuardedSweep::panicked`] instead of killing
/// the sweep, and every healthy fault is still classified.
///
/// The guard costs nothing on the happy path — each chunk is scanned
/// unguarded first, and only a chunk that actually panics is re-run item
/// by item to attribute the failure.
///
/// # Panics
///
/// Panics if `skip.len() != faults.len()`.
#[must_use]
pub fn newly_satisfied_guarded<T: HasAssignments>(
    waves: &[Triple],
    faults: &[T],
    skip: &[bool],
) -> GuardedSweep {
    assert_eq!(faults.len(), skip.len(), "one skip flag per fault required");
    let _phase = pdf_telemetry::Span::enter("simulate");
    pdf_telemetry::count(pdf_telemetry::counters::SIM_PASSES, 1);
    let parts = par_chunk_map(faults, MIN_FAULT_CHUNK, |offset, chunk| {
        let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chunk
                .iter()
                .enumerate()
                .filter(|(k, f)| !skip[offset + k] && f.assignments().satisfied_by(waves))
                .map(|(k, _)| offset + k)
                .collect::<Vec<usize>>()
        }));
        match scan {
            Ok(satisfied) => (satisfied, Vec::new()),
            Err(_) => {
                let mut satisfied = Vec::new();
                let mut panicked = Vec::new();
                for (k, f) in chunk.iter().enumerate() {
                    if skip[offset + k] {
                        continue;
                    }
                    let one = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f.assignments().satisfied_by(waves)
                    }));
                    match one {
                        Ok(true) => satisfied.push(offset + k),
                        Ok(false) => {}
                        Err(_) => panicked.push(offset + k),
                    }
                }
                (satisfied, panicked)
            }
        }
    });
    let mut out = GuardedSweep::default();
    for (satisfied, panicked) in parts {
        out.satisfied.extend(satisfied);
        out.panicked.extend(panicked);
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
    fn newly_satisfied_matches_serial_scan() {
        let (c, faults, tests) = setup();
        let waves = simulate_triples(&c, &tests[7].to_triples());
        let mut already = vec![false; faults.len()];
        for i in (0..faults.len()).step_by(3) {
            already[i] = true;
        }
        let got = newly_satisfied(&waves, faults.entries(), &already);
        let want: Vec<usize> = faults
            .iter()
            .enumerate()
            .filter(|(i, e)| !already[*i] && e.assignments.satisfied_by(&waves))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn guarded_sweep_matches_unguarded_on_healthy_faults() {
        let (c, faults, tests) = setup();
        let waves = simulate_triples(&c, &tests[7].to_triples());
        let mut skip = vec![false; faults.len()];
        for i in (0..faults.len()).step_by(3) {
            skip[i] = true;
        }
        let guarded = newly_satisfied_guarded(&waves, faults.entries(), &skip);
        assert_eq!(
            guarded.satisfied,
            newly_satisfied(&waves, faults.entries(), &skip)
        );
        assert!(guarded.panicked.is_empty());
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
        let skip = vec![false; sets.len()];
        let guarded = newly_satisfied_guarded(&waves, &sets, &skip);
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
        assert!(newly_satisfied(&waves, no_faults, &[]).is_empty());
    }
}
