//! The bit-plane packed two-pattern simulation kernel.
//!
//! A [`PackedBlock`] simulates up to `W::LANES` two-pattern tests through
//! a circuit in one topological pass. Every line carries six planes of the
//! tile type `W` ([`SimWord`]; [`Tile`] in production) — a *zero
//! rail* and a *one rail* for each of the three triple components
//! `α1 α2 α3` — with lane `j` of a plane describing test lane `j`:
//!
//! * zero-rail bit set → the component is a proven `0` for that test,
//! * one-rail bit set → a proven `1`,
//! * neither set → `x` (the rails are mutually exclusive by construction).
//!
//! Kleene's strong three-valued logic then becomes plain word arithmetic,
//! applied independently per component:
//!
//! ```text
//! AND:  one = a.one & b.one          OR:   one = a.one | b.one
//!       zero = a.zero | b.zero             zero = a.zero & b.zero
//! XOR:  one  = a.zero & b.one  |  a.one & b.zero
//!       zero = a.zero & b.zero |  a.one & b.one
//! NOT:  swap the rails
//! ```
//!
//! Because the scalar triple algebra is exactly component-wise Kleene logic
//! (see `pdf_logic::GateKind::eval_triples`), a packed pass produces
//! bit-identical waveforms to `W::LANES` scalar
//! [`pdf_netlist::simulate_triples`] calls, at any width — the
//! differential property tests of this crate enforce this.
//!
//! # Event-driven propagation
//!
//! Propagation is *event-driven*: every line remembers the
//! stamp of the propagation pass that last changed its planes
//! (`changed`) and the pass that last evaluated it (`checked`), and a
//! pass re-evaluates a line only when some fanin changed more recently
//! than the line was last checked. The two-rail encoding is what makes
//! this cheap — "did this line change for any of the `W::LANES` tests"
//! is a single 6-word plane compare, with no per-lane bookkeeping.
//!
//! The stamps survive across blocks, so a justifier hammering the same
//! fanin cone with mostly-frozen pin rails only pays for the lines its
//! open inputs actually reach, and consecutive cones re-use each other's
//! settled regions. Stamp validity is tied to [`Circuit::epoch`]: an
//! arena handed a structurally different circuit resets itself, so reuse
//! across circuits stays safe even when allocators hand out the same
//! addresses.
//!
//! The plane arena is reused across [`PackedBlock::load`] calls: in
//! steady state a load writes only the input planes (a branchless
//! test-major transpose into raw `u64` rail words) and whatever the dirty
//! sweep re-evaluates — no arena-wide memset at all. Input planes only ever carry bits for
//! loaded lanes, and every rail operation maps all-zero fanin lanes to
//! all-zero output lanes, so partial-lane blocks are masked once at load
//! time by construction rather than per query.

use pdf_faults::Assignments;
use pdf_logic::{GateKind, Triple, Value};
use pdf_netlist::{Circuit, LineId, LineKind, TwoPattern};

use crate::word::{SimWord, Tile};

/// Lanes per 64-bit word of a tile: the size of one candidate group of
/// the justifier's random completion. A [`Tile`] pass covers
/// `Tile::LANES / LANES` such groups.
pub const LANES: usize = 64;

/// Six bit-planes of one line: `[α1⁰, α1¹, α2⁰, α2¹, α3⁰, α3¹]` — a zero
/// and a one rail per triple component.
type Planes<W> = [W; 6];

#[inline]
fn and6<W: SimWord>(a: Planes<W>, b: Planes<W>) -> Planes<W> {
    [
        a[0].or(b[0]),
        a[1].and(b[1]),
        a[2].or(b[2]),
        a[3].and(b[3]),
        a[4].or(b[4]),
        a[5].and(b[5]),
    ]
}

#[inline]
fn or6<W: SimWord>(a: Planes<W>, b: Planes<W>) -> Planes<W> {
    [
        a[0].and(b[0]),
        a[1].or(b[1]),
        a[2].and(b[2]),
        a[3].or(b[3]),
        a[4].and(b[4]),
        a[5].or(b[5]),
    ]
}

#[inline]
fn xor6<W: SimWord>(a: Planes<W>, b: Planes<W>) -> Planes<W> {
    [
        (a[0].and(b[0])).or(a[1].and(b[1])),
        (a[0].and(b[1])).or(a[1].and(b[0])),
        (a[2].and(b[2])).or(a[3].and(b[3])),
        (a[2].and(b[3])).or(a[3].and(b[2])),
        (a[4].and(b[4])).or(a[5].and(b[5])),
        (a[4].and(b[5])).or(a[5].and(b[4])),
    ]
}

#[inline]
fn not6<W: SimWord>(a: Planes<W>) -> Planes<W> {
    [a[1], a[0], a[3], a[2], a[5], a[4]]
}

/// One line of the compiled evaluation plan ([`PackedBlock::bind`]
/// flattens the [`Circuit`] into these): what to do when the line's turn
/// comes in a propagation sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    /// Primary input — planes come from the loader, sweeps skip it.
    Input,
    /// Fanout branch — copy the stem's planes (its single flat fanin).
    Copy,
    /// Logic gate — fold the flat fanin planes with the rail algebra.
    Gate(GateKind),
}

/// Evaluates one gate over the plane arena: the fanin planes are folded
/// with the gate's rail algebra, two-input gates (the overwhelmingly
/// common case) on a branch-free straight-line path.
#[inline]
fn eval_gate<W: SimWord>(planes: &[Planes<W>], kind: GateKind, fanin: &[u32]) -> Planes<W> {
    let first = planes[fanin[0] as usize];
    let folded = match kind {
        GateKind::And | GateKind::Nand => fanin[1..]
            .iter()
            .fold(first, |acc, &f| and6(acc, planes[f as usize])),
        GateKind::Or | GateKind::Nor => fanin[1..]
            .iter()
            .fold(first, |acc, &f| or6(acc, planes[f as usize])),
        GateKind::Xor | GateKind::Xnor => fanin[1..]
            .iter()
            .fold(first, |acc, &f| xor6(acc, planes[f as usize])),
        GateKind::Not | GateKind::Buf => first,
    };
    if kind.inverts() {
        not6(folded)
    } else {
        folded
    }
}

/// Event counters drained by [`PackedBlock::take_kernel_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Lines actually (re-)evaluated by propagation passes.
    pub events_propagated: u64,
    /// Lines a pass visited but skipped because no fanin had changed.
    pub lines_skipped: u64,
}

/// A reusable arena simulating up to `W::LANES` two-pattern tests at once.
///
/// # Example
///
/// ```
/// use pdf_logic::{Triple, Value};
/// use pdf_netlist::{iscas, TwoPattern};
/// use pdf_sim::PackedBlock;
///
/// let circuit = iscas::c17();
/// let n = circuit.inputs().len();
/// let tests = vec![
///     TwoPattern::new(vec![Value::Zero; n], vec![Value::One; n]),
///     TwoPattern::new(vec![Value::One; n], vec![Value::One; n]),
/// ];
/// // The default tile holds 256 tests per pass.
/// let mut block: PackedBlock = PackedBlock::new();
/// block.load(&circuit, &tests);
///
/// // Lane 1 applied stable inputs, so every line is stable.
/// let scalar = pdf_netlist::simulate_triples(&circuit, &tests[1].to_triples());
/// for (id, _) in circuit.iter() {
///     assert_eq!(block.triple(id, 1), scalar[id.index()]);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct PackedBlock<W: SimWord = Tile> {
    planes: Vec<Planes<W>>,
    /// Compiled evaluation plan, one op per line: the hot sweep reads
    /// these three flat arrays instead of chasing [`Circuit`]'s per-line
    /// heap structures (fanin `Vec`s, names) through the cache.
    kinds: Vec<OpKind>,
    /// `fanin_flat[starts[i] as usize..starts[i + 1] as usize]` are the
    /// flat fanin indices of line `i` (the stem for a branch).
    starts: Vec<u32>,
    /// Concatenated fanin line indices, in line order.
    fanin_flat: Vec<u32>,
    /// Stamp of the pass that last changed each line's planes.
    changed: Vec<u64>,
    /// Stamp of the pass that last evaluated each line.
    checked: Vec<u64>,
    /// Monotone propagation-pass counter; input writes stamp `pass + 1`.
    pass: u64,
    /// [`Circuit::epoch`] the arena state belongs to; 0 = unbound.
    epoch: u64,
    events: u64,
    skipped: u64,
    loaded: W,
    count: usize,
}

impl<W: SimWord> Default for PackedBlock<W> {
    fn default() -> PackedBlock<W> {
        PackedBlock {
            planes: Vec::new(),
            kinds: Vec::new(),
            starts: Vec::new(),
            fanin_flat: Vec::new(),
            changed: Vec::new(),
            checked: Vec::new(),
            pass: 0,
            epoch: 0,
            events: 0,
            skipped: 0,
            loaded: W::ZERO,
            count: 0,
        }
    }
}

impl<W: SimWord> PackedBlock<W> {
    /// Creates an empty arena; the first
    /// [`PackedBlock::load`] (or [`PackedBlock::begin_block`]) sizes it.
    #[must_use]
    pub fn new() -> PackedBlock<W> {
        PackedBlock::default()
    }

    /// Number of tests loaded by the last [`PackedBlock::load`].
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if no tests are loaded.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The mask of valid lanes: bit `j` set iff test `j` is loaded.
    #[inline]
    #[must_use]
    pub fn lanes(&self) -> W {
        self.loaded
    }

    /// Drains the event counters accumulated since the last call.
    pub fn take_kernel_stats(&mut self) -> KernelStats {
        let stats = KernelStats {
            events_propagated: self.events,
            lines_skipped: self.skipped,
        };
        self.events = 0;
        self.skipped = 0;
        stats
    }

    /// Binds the arena to `circuit`, resetting planes and stamps only when
    /// the circuit actually differs from the one the arena last simulated
    /// (by [`Circuit::epoch`], so reuse across distinct same-sized
    /// circuits is detected). In steady state this is a two-field compare
    /// and no memory traffic.
    fn bind(&mut self, circuit: &Circuit) {
        if self.epoch == circuit.epoch() && self.planes.len() == circuit.line_count() {
            return;
        }
        self.planes.clear();
        self.planes.resize(circuit.line_count(), [W::ZERO; 6]);
        self.changed.clear();
        self.changed.resize(circuit.line_count(), 0);
        self.checked.clear();
        self.checked.resize(circuit.line_count(), 0);
        self.pass = 0;
        self.epoch = circuit.epoch();

        // Compile the evaluation plan: per line an op kind plus a span of
        // flat fanin indices. Propagation sweeps then run entirely over
        // these contiguous arrays — no heap pointer per gate.
        self.kinds.clear();
        self.starts.clear();
        self.fanin_flat.clear();
        self.starts.push(0);
        for line in circuit.lines() {
            match line.kind() {
                LineKind::Input => self.kinds.push(OpKind::Input),
                LineKind::Branch { stem } => {
                    self.kinds.push(OpKind::Copy);
                    self.fanin_flat.push(stem.index() as u32);
                }
                LineKind::Gate(kind) => {
                    self.kinds.push(OpKind::Gate(*kind));
                    self.fanin_flat
                        .extend(line.fanin().iter().map(|f| f.index() as u32));
                }
            }
            self.starts.push(self.fanin_flat.len() as u32);
        }
    }

    /// Overwrites one line's planes, stamping it changed for the upcoming
    /// pass iff the value actually differs.
    #[inline]
    fn write_line(&mut self, line: LineId, p: Planes<W>) {
        let idx = line.index();
        if self.planes[idx] != p {
            self.planes[idx] = p;
            self.changed[idx] = self.pass + 1;
        }
    }

    /// Loads a block of tests and simulates them through the circuit in
    /// one topological pass. Previously loaded state is replaced; the
    /// plane arena is reused.
    ///
    /// # Panics
    ///
    /// Panics if more than `W::LANES` tests are given, or if a test's
    /// width differs from the circuit's input count.
    pub fn load(&mut self, circuit: &Circuit, tests: &[TwoPattern]) {
        assert!(
            tests.len() <= W::LANES,
            "a packed block holds at most {} tests, got {}",
            W::LANES,
            tests.len()
        );
        for test in tests {
            assert_eq!(
                test.len(),
                circuit.inputs().len(),
                "one value per primary input required"
            );
        }
        self.bind(circuit);
        self.count = tests.len();
        self.loaded = W::low_lanes(tests.len());

        // Input planes are rebuilt from zero per load, so they never carry
        // bits outside the loaded lanes — this is what masks partial
        // blocks (all-zero fanin lanes stay all-zero through every rail
        // op).
        //
        // The rebuild is a transpose: per-test `Value` vectors in, per-
        // input lane bitsets out. It walks tests in the outer loop so each
        // test's two pattern vectors are read once, sequentially, while
        // the per-input accumulator (four raw `u64` rails per input, the
        // current 64-lane group) stays L1-resident; the wide tile is only
        // touched once per finished group, via `set_word`. The
        // intermediate component needs no per-lane work at all — its
        // rails are exactly `first & last` ([`Triple::from_patterns`]
        // specifies it only where both pattern values agree).
        let n_inputs = circuit.inputs().len();
        let mut input_planes: Vec<Planes<W>> = vec![[W::ZERO; 6]; n_inputs];
        let mut rails: Vec<[u64; 4]> = vec![[0u64; 4]; n_inputs];
        for (group, chunk) in tests.chunks(64).enumerate() {
            for r in rails.iter_mut() {
                *r = [0u64; 4];
            }
            for (bit, test) in chunk.iter().enumerate() {
                let first = test.first();
                let last = test.second();
                // Branchless on purpose: justified patterns are a random
                // mix of 0/1/x, so a per-value `match` would mispredict
                // constantly; bool-to-mask compiles to straight-line
                // compare/shift/or.
                for ((fv, lv), r) in first.iter().zip(last).zip(rails.iter_mut()) {
                    r[0] |= u64::from(*fv == Value::Zero) << bit;
                    r[1] |= u64::from(*fv == Value::One) << bit;
                    r[2] |= u64::from(*lv == Value::Zero) << bit;
                    r[3] |= u64::from(*lv == Value::One) << bit;
                }
            }
            for (p, r) in input_planes.iter_mut().zip(&rails) {
                p[0].set_word(group, r[0]);
                p[1].set_word(group, r[1]);
                p[2].set_word(group, r[0] & r[2]);
                p[3].set_word(group, r[1] & r[3]);
                p[4].set_word(group, r[2]);
                p[5].set_word(group, r[3]);
            }
        }
        for (&id, &p) in circuit.inputs().iter().zip(&input_planes) {
            self.write_line(id, p);
        }
        self.propagate(circuit);
    }

    /// Prepares the arena for a full-width block (all `W::LANES` lanes
    /// valid) whose inputs will be supplied as raw rail words via
    /// [`PackedBlock::set_input_rails`] — the entry point of the packed
    /// justifier, which synthesizes `W::LANES` candidate tests per block
    /// instead of loading materialized [`TwoPattern`]s.
    ///
    /// Unlike [`PackedBlock::load`] this does **not** clear the planes:
    /// only lines written afterwards (inputs via `set_input_rails`, gates
    /// via [`PackedBlock::propagate_over`]) are defined, everything else
    /// may hold stale values from a previous block. A fanin-closed cone
    /// order covers every line it can observe, so the justifier's
    /// block-per-cone loop stays O(cone), not O(circuit) — in fact
    /// O(lines whose rails actually changed).
    pub fn begin_block(&mut self, circuit: &Circuit) {
        self.bind(circuit);
        self.count = W::LANES;
        self.loaded = W::ONES;
    }

    /// Sets the two pattern values of input `line` for all `W::LANES`
    /// lanes at once. `first` and `last` are `(zero_rail, one_rail)` word
    /// pairs: bit `j` of a rail proves that value for lane `j`, neither
    /// bit set means `x`. The intermediate triple component is derived
    /// exactly as [`Triple::from_patterns`] does — specified only where
    /// both pattern values agree.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a rail pair overlaps — a lane cannot
    /// prove both `0` and `1`.
    pub fn set_input_rails(&mut self, line: LineId, first: (W, W), last: (W, W)) {
        debug_assert!(
            first.0.and(first.1).is_zero(),
            "overlapping first-pattern rails"
        );
        debug_assert!(
            last.0.and(last.1).is_zero(),
            "overlapping last-pattern rails"
        );
        self.write_line(
            line,
            [
                first.0,
                first.1,
                first.0.and(last.0),
                first.1.and(last.1),
                last.0,
                last.1,
            ],
        );
    }

    /// Evaluates gates along `order` — any topologically sorted,
    /// fanin-closed slice of the circuit, typically a fanin cone — leaving
    /// lines outside `order` untouched (`x` after a fresh
    /// [`PackedBlock::begin_block`]). Input lines in `order` are skipped:
    /// their planes come from [`PackedBlock::set_input_rails`].
    ///
    /// A line is re-evaluated only when some fanin's
    /// planes changed after the line was last checked; untouched regions
    /// of the cone cost one stamp compare per line.
    pub fn propagate_over(&mut self, circuit: &Circuit, order: &[LineId]) {
        debug_assert!(
            self.epoch == circuit.epoch() && self.planes.len() == circuit.line_count(),
            "propagate_over requires a bound arena (load or begin_block first)"
        );
        let _ = circuit;
        // Destructured so the sweep gets disjoint borrows of the plan and
        // the mutable arenas.
        let PackedBlock {
            planes,
            kinds,
            starts,
            fanin_flat,
            changed,
            checked,
            pass,
            events,
            skipped,
            ..
        } = self;
        *pass += 1;
        let pass = *pass;
        for &id in order {
            let idx = id.index();
            let fanin = &fanin_flat[starts[idx] as usize..starts[idx + 1] as usize];
            let kind = match kinds[idx] {
                OpKind::Input => continue,
                OpKind::Copy => None,
                OpKind::Gate(kind) => Some(kind),
            };
            let line_checked = checked[idx];
            if !fanin.iter().any(|&f| changed[f as usize] > line_checked) {
                *skipped += 1;
                continue;
            }
            *events += 1;
            let out = match kind {
                None => planes[fanin[0] as usize],
                Some(kind) => eval_gate(planes, kind, fanin),
            };
            checked[idx] = pass;
            if planes[idx] != out {
                planes[idx] = out;
                changed[idx] = pass;
            }
        }
    }

    fn propagate(&mut self, circuit: &Circuit) {
        self.propagate_over(circuit, circuit.topo_order());
    }

    /// The simulated waveform of `line` in test lane `lane` — the packed
    /// equivalent of `simulate_triples(..)[line.index()]`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a loaded lane or `line` is out of range.
    #[must_use]
    pub fn triple(&self, line: LineId, lane: usize) -> Triple {
        assert!(
            lane < self.count,
            "lane {lane} not loaded ({} tests in block)",
            self.count
        );
        let p = &self.planes[line.index()];
        let comp = |c: usize| {
            if p[2 * c].lane(lane) {
                Value::Zero
            } else if p[2 * c + 1].lane(lane) {
                Value::One
            } else {
                Value::X
            }
        };
        Triple::new(comp(0), comp(1), comp(2))
    }

    /// The lanes whose simulated waveforms satisfy every requirement of
    /// `req` — the packed equivalent of `W::LANES`
    /// `Assignments::satisfied_by` calls, one word operation per specified
    /// requirement component. Plane lanes outside the loaded mask are
    /// all-zero by the load-time masking invariant; the initial `loaded`
    /// term only decides the degenerate empty-requirement case.
    #[must_use]
    pub fn satisfied_lanes(&self, req: &Assignments) -> W {
        let mut lanes = self.loaded;
        for (line, tri) in req.iter() {
            let p = &self.planes[line.index()];
            for (c, v) in tri.components().into_iter().enumerate() {
                match v {
                    Value::Zero => lanes = lanes.and(p[2 * c]),
                    Value::One => lanes = lanes.and(p[2 * c + 1]),
                    Value::X => {}
                }
            }
            if lanes.is_zero() {
                return W::ZERO;
            }
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_netlist::{iscas, simulate_triples};

    const TILE_LANES: usize = <Tile as SimWord>::LANES;

    fn exhaustive_two_patterns(n: usize, limit: usize) -> Vec<TwoPattern> {
        // All fully-specified two-pattern tests over n inputs, capped.
        let total = 1usize << (2 * n);
        (0..total.min(limit))
            .map(|bits| {
                let v1 = (0..n).map(|i| Value::from(bits >> i & 1 == 1)).collect();
                let v2 = (0..n)
                    .map(|i| Value::from(bits >> (n + i) & 1 == 1))
                    .collect();
                TwoPattern::new(v1, v2)
            })
            .collect()
    }

    fn check_matches_scalar_on_s27<W: SimWord>() {
        let c = iscas::s27();
        let mut block = PackedBlock::<W>::new();
        for chunk in exhaustive_two_patterns(c.inputs().len(), 2 * TILE_LANES).chunks(W::LANES) {
            block.load(&c, chunk);
            assert_eq!(block.len(), chunk.len());
            for (lane, t) in chunk.iter().enumerate() {
                let waves = simulate_triples(&c, &t.to_triples());
                for (id, _) in c.iter() {
                    assert_eq!(
                        block.triple(id, lane),
                        waves[id.index()],
                        "line {id} lane {lane} width {}",
                        W::LANES
                    );
                }
            }
        }
    }

    #[test]
    fn matches_scalar_simulation_exhaustively_on_s27() {
        check_matches_scalar_on_s27::<Tile>();
        check_matches_scalar_on_s27::<[u64; 1]>();
    }

    #[test]
    fn partial_tests_with_x_inputs_match_scalar() {
        let c = iscas::c17();
        let n = c.inputs().len();
        // A mix of x, 0, 1 across both patterns.
        let vals = [Value::X, Value::Zero, Value::One];
        let tests: Vec<TwoPattern> = (0..3usize.pow(n as u32))
            .map(|mut k| {
                let mut v1 = Vec::new();
                let mut v2 = Vec::new();
                for _ in 0..n {
                    v1.push(vals[k % 3]);
                    v2.push(vals[(k / 3) % 3]);
                    k /= 2; // deliberately irregular mixing
                }
                TwoPattern::new(v1, v2)
            })
            .collect();
        let mut block: PackedBlock = PackedBlock::new();
        for chunk in tests.chunks(TILE_LANES) {
            block.load(&c, chunk);
            for (lane, t) in chunk.iter().enumerate() {
                let waves = simulate_triples(&c, &t.to_triples());
                for (id, _) in c.iter() {
                    assert_eq!(block.triple(id, lane), waves[id.index()]);
                }
            }
        }
    }

    #[test]
    fn satisfied_lanes_matches_scalar_satisfied_by() {
        use pdf_paths::PathEnumerator;

        let c = iscas::s27();
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = pdf_faults::FaultList::build(&c, &paths.store);
        let tests = exhaustive_two_patterns(c.inputs().len(), TILE_LANES + 64);
        let mut block: PackedBlock = PackedBlock::new();
        for (b, chunk) in tests.chunks(TILE_LANES).enumerate() {
            block.load(&c, chunk);
            for entry in faults.iter() {
                let lanes = block.satisfied_lanes(&entry.assignments);
                for (lane, t) in chunk.iter().enumerate() {
                    let waves = simulate_triples(&c, &t.to_triples());
                    assert_eq!(
                        lanes.lane(lane),
                        entry.assignments.satisfied_by(&waves),
                        "block {b} lane {lane} fault {}",
                        entry.assignments
                    );
                }
            }
        }
    }

    #[test]
    fn unloaded_lanes_never_satisfy() {
        let c = iscas::c17();
        let n = c.inputs().len();
        let tests = vec![TwoPattern::new(vec![Value::One; n], vec![Value::One; n]); 3];
        let mut block: PackedBlock = PackedBlock::new();
        block.load(&c, &tests);
        assert_eq!(block.lanes(), Tile::low_lanes(3));
        // The empty requirement is satisfied by exactly the loaded lanes.
        assert_eq!(
            block.satisfied_lanes(&Assignments::new()),
            Tile::low_lanes(3)
        );
    }

    #[test]
    fn stale_wide_block_does_not_leak_into_partial_reload() {
        // A full block followed by a 2-test block on the same arena: the
        // partial reload must mask every plane down to its two lanes,
        // even though nothing memsets the arena in between.
        let c = iscas::s27();
        let full = exhaustive_two_patterns(c.inputs().len(), TILE_LANES);
        let mut block: PackedBlock = PackedBlock::new();
        block.load(&c, &full);
        let partial = &full[..2];
        block.load(&c, partial);
        assert_eq!(block.lanes(), Tile::low_lanes(2));
        for (id, _) in c.iter() {
            for (lane, t) in partial.iter().enumerate() {
                let waves = simulate_triples(&c, &t.to_triples());
                assert_eq!(block.triple(id, lane), waves[id.index()]);
            }
        }
        // Requirements satisfiable by every lane of the wide block must
        // now report at most the two loaded lanes.
        use pdf_paths::PathEnumerator;
        let paths = PathEnumerator::new(&c).enumerate();
        let (faults, _) = pdf_faults::FaultList::build(&c, &paths.store);
        for entry in faults.iter() {
            assert!(
                block
                    .satisfied_lanes(&entry.assignments)
                    .and(Tile::low_lanes(2).not())
                    .is_zero(),
                "stale lanes leaked for {}",
                entry.assignments
            );
        }
    }

    #[test]
    fn identical_reload_skips_the_whole_circuit() {
        let c = iscas::s27();
        let tests = exhaustive_two_patterns(c.inputs().len(), TILE_LANES);
        let mut block: PackedBlock = PackedBlock::new();
        block.load(&c, &tests);
        let first = block.take_kernel_stats();
        assert!(first.events_propagated > 0);

        block.load(&c, &tests);
        let second = block.take_kernel_stats();
        assert_eq!(
            second.events_propagated, 0,
            "an identical reload must propagate nothing"
        );
        assert!(second.lines_skipped > 0);
        // Waveforms are still queryable and correct after the no-op pass.
        let waves = simulate_triples(&c, &tests[5].to_triples());
        for (id, _) in c.iter() {
            assert_eq!(block.triple(id, 5), waves[id.index()]);
        }
    }

    #[test]
    fn arena_reuse_across_circuits_resizes() {
        let big = iscas::s27();
        let small = iscas::c17();
        let mut block: PackedBlock = PackedBlock::new();
        let t27 = exhaustive_two_patterns(big.inputs().len(), 4);
        let t17 = exhaustive_two_patterns(small.inputs().len(), 4);
        block.load(&big, &t27);
        block.load(&small, &t17);
        let waves = simulate_triples(&small, &t17[2].to_triples());
        for (id, _) in small.iter() {
            assert_eq!(block.triple(id, 2), waves[id.index()]);
        }
    }

    #[test]
    fn arena_reuse_across_same_sized_circuits_is_detected() {
        // Two structurally different circuits of identical line count:
        // stale planes and stamps from the first must not poison the
        // second (the epoch check forces a reset).
        use pdf_netlist::SynthProfile;
        let a = SynthProfile::new("same-size-a", 11)
            .with_inputs(4)
            .with_gates(12)
            .generate()
            .to_circuit()
            .unwrap();
        let mut b = None;
        for seed in 12..4096 {
            let cand = SynthProfile::new("same-size-b", seed)
                .with_inputs(4)
                .with_gates(12)
                .generate()
                .to_circuit()
                .unwrap();
            if cand.line_count() == a.line_count() {
                b = Some(cand);
                break;
            }
        }
        let b = b.expect("some seed yields an equal line count");
        let tests = exhaustive_two_patterns(4, 16);
        let mut block: PackedBlock = PackedBlock::new();
        block.load(&a, &tests);
        block.load(&b, &tests);
        for (lane, t) in tests.iter().enumerate() {
            let waves = simulate_triples(&b, &t.to_triples());
            for (id, _) in b.iter() {
                assert_eq!(block.triple(id, lane), waves[id.index()]);
            }
        }
    }

    #[test]
    fn rail_blocks_match_loaded_two_patterns() {
        // A block assembled from raw rail words (the justifier's path)
        // must equal the same tests loaded as materialized TwoPatterns.
        let c = iscas::s27();
        let n = c.inputs().len();
        let tests = exhaustive_two_patterns(n, TILE_LANES);
        let mut loaded: PackedBlock = PackedBlock::new();
        loaded.load(&c, &tests);

        let mut railed: PackedBlock = PackedBlock::new();
        railed.begin_block(&c);
        for (pos, &id) in c.inputs().iter().enumerate() {
            let mut first = (Tile::ZERO, Tile::ZERO);
            let mut last = (Tile::ZERO, Tile::ZERO);
            for (lane, t) in tests.iter().enumerate() {
                match t.first()[pos] {
                    Value::Zero => first.0.set_lane(lane),
                    Value::One => first.1.set_lane(lane),
                    Value::X => {}
                }
                match t.second()[pos] {
                    Value::Zero => last.0.set_lane(lane),
                    Value::One => last.1.set_lane(lane),
                    Value::X => {}
                }
            }
            railed.set_input_rails(id, first, last);
        }
        railed.propagate_over(&c, c.topo_order());
        assert_eq!(railed.lanes(), Tile::ONES);
        for (id, _) in c.iter() {
            for lane in 0..tests.len() {
                assert_eq!(railed.triple(id, lane), loaded.triple(id, lane));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 tests")]
    fn oversized_block_panics() {
        let c = iscas::c17();
        let n = c.inputs().len();
        let tests = vec![TwoPattern::unspecified(n); TILE_LANES + 1];
        PackedBlock::<Tile>::new().load(&c, &tests);
    }

    #[test]
    #[should_panic(expected = "one value per primary input")]
    fn wrong_width_panics() {
        let c = iscas::c17();
        PackedBlock::<Tile>::new().load(&c, &[TwoPattern::unspecified(1)]);
    }
}
