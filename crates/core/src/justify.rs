//! The simulation-based justification procedure (paper Sec. 2.1).
//!
//! Given a requirement set (the union of the `A(p)` of all faults a test
//! under construction must detect), the justifier searches for a fully
//! specified two-pattern test satisfying it:
//!
//! 1. every primary input starts as `β = xxx`;
//! 2. **necessary values**: for every input and every pattern position,
//!    trial-assign `0` and `1`; if one value makes the simulated waveforms
//!    *violate* a requirement (specified-vs-specified mismatch), the other
//!    value is assigned permanently; if both conflict, justification
//!    fails. The trials run as lanes of packed passes over the cone — two
//!    lanes per open slot, 63 open inputs per 256-lane pass, whose top
//!    lane carries the committed values alone — and every value forced
//!    in a round is committed at once; rounds repeat until nothing is
//!    forced. Triple simulation is monotone, so this reaches the same
//!    closure, and the same conflict verdict, as the test-only scalar
//!    loop that commits one slot at a time;
//! 3. **random completion**: the surviving free positions are filled with
//!    random values in groups of [`pdf_sim::LANES`] (= 64) complete
//!    candidate tests, all groups drawn up front. The packed kernel
//!    simulates up to four groups per 256-lane bit-plane pass. The
//!    lowest-numbered candidate whose waveforms satisfy every requirement
//!    (hazard-freeness included) becomes the witness — the same test the
//!    test-only scalar oracle finds by walking the candidates one cone
//!    simulation each;
//! 4. if no completion block hits, the paper's **guided decision search**
//!    runs as a fallback: an input with exactly one specified pattern
//!    value is stabilized, else a random unspecified position of a random
//!    input is set to a random value — then step 2 repeats until the test
//!    is fully specified or a conflict proves the union unjustifiable.
//!    Every [`PROBE_EVERY`] decisions, a *probe* interleaves step 3: one
//!    full 256-lane completion pass over the slots still open, with fresh
//!    fills from the same RNG stream. A hit ends the call. This departs
//!    from the paper, which completes randomly only once, before the
//!    search (`DESIGN.md` §6).
//!
//! The packed block is the only evaluator of the search: every check of
//! the committed values alone (do they violate a requirement, does a
//! fully specified state satisfy them) reads the committed lane of a
//! fixpoint pass. The witness's full-circuit waveforms come from one
//! [`pdf_sim::waveforms`] byte sweep.
//!
//! Each worker thread keeps one plane arena. A justifier takes it from a
//! thread-local slot and gives it back when dropped, unless the thread is
//! unwinding from a panic. The arena's stamps keep reuse exact (see
//! [`PackedBlock`]), and every completion pass follows a fixpoint pass
//! over the same cone, whose events are not counted, so a build's
//! witnesses and counters do not depend on what the thread simulated
//! before.
//!
//! The implementation restricts simulation to the fanin cone of the
//! constrained lines — a pure optimization: inputs outside the cone cannot
//! produce or resolve conflicts, exactly as in the paper where they end up
//! randomly specified. Each call builds its cone topology (lines in
//! topological order and inputs) once: the requirement sets of one run
//! almost never repeat, so nothing is memoized across calls.

use std::cell::Cell;

use pdf_faults::Assignments;
use pdf_logic::{Triple, Value};
use pdf_netlist::{Circuit, LineId, SplitMix64, TwoPattern};
use pdf_runctl::{CancelToken, Deadline};
use pdf_sim::{PackedBlock, SimOptions, SimWord, Tile, LANES};

/// Inert: the justifier keeps no cone cache. Kept only because the
/// repository benchmark still names it.
pub const DEFAULT_CONE_CACHE: usize = 64;

/// The default number of 64-candidate completion groups per call, the
/// paper's single attempt. [`Justifier::new`], `AtpgConfig::default`,
/// `pdfatpg atpg --attempts` and the experiments' `PDF_ATTEMPTS` all
/// default to it. One group fills one word of a 256-lane pass; raising
/// the default to `Tile::WORDS` waits on the repository benchmark's
/// traced flow, which still hard-codes 1 and must write the tests the
/// CLI writes (`ROADMAP.md`).
pub const DEFAULT_ATTEMPTS: u32 = 1;

/// Guided-search decisions between two completion probes. Probing every
/// 2 and every 4 decisions measured the same on the seed table; 4 runs
/// half the probe passes. Outputs depend on it, so the checkpoint
/// fingerprint pins it.
pub(crate) const PROBE_EVERY: usize = 4;

/// Per-line branching costs guiding the justifier's decision search —
/// plain data, so the core stays independent of how the costs are
/// computed. `pdf-analyze`'s SCOAP pass
/// (`Testability::cc0_table`/`cc1_table`) is the canonical producer;
/// drivers construct the guide with [`BranchGuide::new`] and attach it
/// via [`Justifier::with_guide`] or `AtpgConfig::guide`.
///
/// With a guide attached, the guided search's random decision (paper
/// step 3's fallback) becomes deterministic: the *hardest* open input
/// (largest `max(cost0, cost1)`) is decided first, at its *easier*
/// value — and no RNG is drawn for the decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchGuide {
    cost0: Vec<u32>,
    cost1: Vec<u32>,
}

impl BranchGuide {
    /// Builds a guide from per-line 0/1 controllability costs, indexed by
    /// [`LineId::index`].
    ///
    /// # Panics
    ///
    /// Panics if the tables differ in length.
    #[must_use]
    pub fn new(cost0: Vec<u32>, cost1: Vec<u32>) -> BranchGuide {
        assert_eq!(
            cost0.len(),
            cost1.len(),
            "branch guide cost tables must cover the same lines"
        );
        BranchGuide { cost0, cost1 }
    }

    /// How hard `line` is to control at all: `max(cost0, cost1)`. Lines
    /// beyond the tables cost 0 (never preferred).
    #[must_use]
    pub fn difficulty(&self, line: LineId) -> u32 {
        let i = line.index();
        match (self.cost0.get(i), self.cost1.get(i)) {
            (Some(&c0), Some(&c1)) => c0.max(c1),
            _ => 0,
        }
    }

    /// The cheaper value to set `line` to (ties break to 0, the SCOAP
    /// convention).
    #[must_use]
    pub fn easier_value(&self, line: LineId) -> Value {
        let i = line.index();
        match (self.cost0.get(i), self.cost1.get(i)) {
            (Some(&c0), Some(&c1)) if c1 < c0 => Value::One,
            _ => Value::Zero,
        }
    }

    /// The summed cost of controlling every steady (second-pattern) value
    /// an assignment set requires — a fault-difficulty key for
    /// generation-order heuristics.
    #[must_use]
    pub fn assignment_cost(&self, assignments: &Assignments) -> u32 {
        assignments.iter().fold(0u32, |acc, (line, triple)| {
            let i = line.index();
            let cost = match triple.last() {
                Value::Zero => self.cost0.get(i).copied().unwrap_or(0),
                Value::One => self.cost1.get(i).copied().unwrap_or(0),
                Value::X => 0,
            };
            acc.saturating_add(cost)
        })
    }
}

/// A successful justification: a fully specified two-pattern test plus the
/// full-circuit waveforms it induces.
#[derive(Clone, Debug)]
pub struct Justified {
    /// The fully specified two-pattern test.
    pub test: TwoPattern,
    /// Simulated waveform of every line under `test`, indexed by
    /// [`LineId::index`]. Reusable for fault simulation.
    pub waves: Vec<Triple>,
}

/// Counters accumulated by a [`Justifier`] across calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JustifyStats {
    /// Total justification calls.
    pub calls: usize,
    /// Calls that produced a test.
    pub successes: usize,
    /// Calls that failed on a both-values conflict.
    pub conflicts: usize,
    /// Calls that failed the final hazard/satisfaction check.
    pub unsatisfied: usize,
    /// Random completions evaluated: 64 per candidate group of every
    /// packed pass, whether or not an earlier lane already hit.
    pub completion_attempts: usize,
    /// Bit-plane completion passes simulated. A pass covers up to four
    /// 64-candidate groups.
    pub packed_blocks: usize,
    /// Calls resolved by a random-completion lane before the guided
    /// decision search started.
    pub lane_hits: usize,
    /// Completion probes run inside the guided decision search: one
    /// 256-lane pass every 4 decisions.
    pub probes: usize,
    /// Calls a probe ended with a witness.
    pub probe_hits: usize,
    /// Inert: always 0, since the justifier keeps no cone cache. Kept
    /// only because the repository benchmark still reads it.
    pub cone_hits: usize,
    /// Inert: always 0 (see [`JustifyStats::cone_hits`]).
    pub cone_misses: usize,
    /// Gate lines actually (re-)evaluated by packed completion passes —
    /// far fewer than `cone gates × passes`, because event-driven
    /// propagation lets frozen-pin regions settle once and stay settled.
    /// Inputs and fanout branches are never counted (see
    /// [`pdf_sim::KernelStats`]).
    pub events_propagated: u64,
    /// Gate lines packed completion passes visited but skipped because no
    /// fanin rail changed since the previous pass.
    pub lines_skipped: u64,
    /// Guided-search decisions taken deterministically by an attached
    /// [`BranchGuide`] instead of the random pick. Always 0 without a
    /// guide.
    pub scoap_guided_branches: usize,
    /// Packed passes of the necessary-value fixpoint: one per 63 open
    /// cone inputs per round, plus one that only checks the committed
    /// values when a round has no open input left. Their propagation
    /// events stay out of `events_propagated`/`lines_skipped`.
    pub fixpoint_passes: usize,
}

impl JustifyStats {
    /// Adds another engine's counters into this one. The parallel
    /// generator gives every speculative build its own justifier and
    /// absorbs the per-build deltas at commit, in sequence order, so the
    /// merged totals are schedule-independent.
    pub fn absorb(&mut self, other: &JustifyStats) {
        self.calls += other.calls;
        self.successes += other.successes;
        self.conflicts += other.conflicts;
        self.unsatisfied += other.unsatisfied;
        self.completion_attempts += other.completion_attempts;
        self.packed_blocks += other.packed_blocks;
        self.lane_hits += other.lane_hits;
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.events_propagated += other.events_propagated;
        self.lines_skipped += other.lines_skipped;
        self.scoap_guided_branches += other.scoap_guided_branches;
        self.fixpoint_passes += other.fixpoint_passes;
    }
}

/// The simulation-based justification engine.
///
/// The engine owns a deterministic RNG: two engines created with the same
/// seed and fed the same call sequence produce identical tests. The
/// test-only scalar oracle draws the same completion fill words, so for a
/// fixed seed it agrees with the packed kernel call by call, witness
/// included (see `DESIGN.md` §10).
///
/// # Example
///
/// ```
/// use pdf_atpg::Justifier;
/// use pdf_faults::{robust_assignments, PathDelayFault, Polarity};
/// use pdf_netlist::{iscas::s27, LineId};
/// use pdf_paths::Path;
///
/// let circuit = s27();
/// let path: Path = [2usize, 9, 10, 15].iter().map(|&k| LineId::new(k - 1)).collect();
/// let fault = PathDelayFault::new(path, Polarity::SlowToRise);
/// let a = robust_assignments(&circuit, &fault)?;
///
/// let mut justifier = Justifier::new(&circuit, 2002);
/// let result = justifier.justify(&a).expect("the paper's example fault is testable");
/// assert!(result.test.is_fully_specified());
/// # Ok::<(), pdf_faults::ConditionError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Justifier<'c> {
    circuit: &'c Circuit,
    rng: SplitMix64,
    attempts: u32,
    stats: JustifyStats,
    /// Bit-plane arena for packed fixpoint and completion passes — the
    /// justifier's only evaluator, taken from the thread's [`ARENA`] slot
    /// and given back on drop. Lane [`COMMITTED`] of every fixpoint pass
    /// carries the committed values alone.
    packed: PackedBlock,
    /// Optional SCOAP branch guide for the guided decision search.
    guide: Option<std::sync::Arc<BranchGuide>>,
    /// Wall time spent inside completion blocks (phase 2 and the guided
    /// search's probes).
    completion: std::time::Duration,
    /// Wall time spent in the necessary-value fixpoint, guided-search
    /// rounds included.
    fixpoint: std::time::Duration,
    /// Wall-clock deadline polled at call entry, per completion block and
    /// per guided-search decision.
    deadline: Deadline,
    /// Polled with the deadline; a cancelled token stops calls the same
    /// way.
    cancel: Option<CancelToken>,
    /// Run the fixpoint and the completion groups on the scalar oracle
    /// instead of the packed kernel — the differential tests' reference
    /// engine.
    #[cfg(test)]
    scalar_oracle: bool,
    /// Every fixpoint outcome in call order: the closure state, or `None`
    /// on a conflict.
    #[cfg(test)]
    fixpoints: Vec<Option<Vec<(Value, Value)>>>,
    /// Calls that entered the guided decision search.
    #[cfg(test)]
    guided_calls: usize,
}

thread_local! {
    /// The plane arena a dropped justifier leaves for the thread's next
    /// one, so a worker allocates and clears one arena per circuit, not
    /// one per build.
    static ARENA: Cell<Option<PackedBlock>> = const { Cell::new(None) };
}

impl Drop for Justifier<'_> {
    fn drop(&mut self) {
        // A panic may have stopped a pass half-way; such an arena is not
        // kept.
        if !std::thread::panicking() {
            let arena = std::mem::take(&mut self.packed);
            let _ = ARENA.try_with(|slot| slot.set(Some(arena)));
        }
    }
}

impl<'c> Justifier<'c> {
    /// Creates a justifier with the given RNG seed and
    /// [`DEFAULT_ATTEMPTS`] completion groups per call.
    #[must_use]
    pub fn new(circuit: &'c Circuit, seed: u64) -> Justifier<'c> {
        let packed = ARENA
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        Justifier {
            circuit,
            rng: SplitMix64::new(seed),
            attempts: DEFAULT_ATTEMPTS,
            stats: JustifyStats::default(),
            packed,
            guide: None,
            completion: std::time::Duration::ZERO,
            fixpoint: std::time::Duration::ZERO,
            deadline: Deadline::none(),
            cancel: None,
            #[cfg(test)]
            scalar_oracle: false,
            #[cfg(test)]
            fixpoints: Vec::new(),
            #[cfg(test)]
            guided_calls: 0,
        }
    }

    /// Sets the number of 64-candidate random-completion groups per call
    /// (≥ 1; default [`DEFAULT_ATTEMPTS`]). More groups trade run time
    /// for fewer random misses — the paper notes such misses as the
    /// source of its run-to-run variation. Up to four groups share one
    /// packed pass. The RNG draws every group's fill words up front, so
    /// the witness (and the RNG stream) depends only on this count, never
    /// on how many groups one packed pass evaluates. Guided-search probes
    /// always evaluate one full pass, whatever this count.
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Justifier<'c> {
        self.attempts = attempts.max(1);
        self
    }

    /// Accepts the simulation option block. It has no settings (see
    /// [`SimOptions`]), so the justifier is returned unchanged.
    #[must_use]
    pub fn with_options(self, _opts: SimOptions) -> Justifier<'c> {
        self
    }

    /// Inert: the justifier keeps no cone cache, so it is returned
    /// unchanged. Kept only because the repository benchmark still calls
    /// it.
    #[must_use]
    pub fn with_cone_cache(self, _capacity: usize) -> Justifier<'c> {
        self
    }

    /// Attaches a [`BranchGuide`]: the guided search's random decision is
    /// replaced by a deterministic hardest-line-first, easier-value pick
    /// that draws no RNG. Drivers map `--scoap` here (the guide built
    /// from `pdf-analyze`'s SCOAP controllability tables).
    #[must_use]
    pub fn with_guide(mut self, guide: std::sync::Arc<BranchGuide>) -> Justifier<'c> {
        self.guide = Some(guide);
        self
    }

    /// Attaches a wall-clock deadline. Once it has passed, justification
    /// calls return `None` early — at call entry, between completion
    /// blocks, between guided-search decisions and before a probe —
    /// without consuming further RNG beyond the aborted phase.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Justifier<'c> {
        self.deadline = deadline;
        self
    }

    /// Attaches a token polled wherever the deadline is: once it is
    /// cancelled, calls stop early the same way. The generator passes
    /// each speculative build's moot flag, so a build whose primary an
    /// earlier commit settled stops inside its current call.
    #[must_use]
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> Justifier<'c> {
        self.cancel = Some(cancel);
        self
    }

    /// Whether the deadline has passed or the token was cancelled.
    fn stopped(&self) -> bool {
        stop_requested(&self.deadline, self.cancel.as_ref())
    }

    /// The RNG's current internal state (checkpoints carry none: resume
    /// re-derives every build's stream from the seed). Feeding it back
    /// through [`Justifier::set_rng_state`] on a fresh justifier
    /// resumes the random stream exactly where this one stands.
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restores the RNG to a state previously captured with
    /// [`Justifier::rng_state`].
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = SplitMix64::from_state(state);
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> JustifyStats {
        self.stats
    }

    /// Wall time spent evaluating random-completion blocks, across all
    /// calls, the guided search's probes included.
    /// [`JustifyStats::completion_attempts`] divided by this is the
    /// completion engine's throughput — the phases around it (the
    /// necessary-value fixpoint, the guided decisions) are excluded.
    #[must_use]
    pub fn completion_seconds(&self) -> f64 {
        self.completion.as_secs_f64()
    }

    /// Wall time spent in the necessary-value fixpoint across all calls,
    /// the rounds inside the guided search included;
    /// [`JustifyStats::fixpoint_passes`] counts its packed passes.
    #[must_use]
    pub fn fixpoint_seconds(&self) -> f64 {
        self.fixpoint.as_secs_f64()
    }

    /// Searches for a fully specified two-pattern test satisfying `req`.
    ///
    /// Returns `None` when the (randomized) search fails; the requirements
    /// may or may not be satisfiable in that case.
    pub fn justify(&mut self, req: &Assignments) -> Option<Justified> {
        let _span = pdf_telemetry::Span::enter("justify");
        self.stats.calls += 1;
        if self.stopped() {
            return None;
        }
        let topo = {
            let _span = pdf_telemetry::Span::enter("justify.cone");
            ConeTopo::build(self.circuit, req)
        };
        let n = topo.pis.len();
        // (first, last) value per cone PI.
        let mut state: Vec<(Value, Value)> = vec![(Value::X, Value::X); n];

        // Phase 1 — the necessary-value fixpoint. Purely deterministic.
        if !self.fixpoint(req, &topo, &mut state) {
            self.stats.conflicts += 1;
            return None;
        }
        if fully_specified(&state) {
            return self.settle(req, &topo, &state);
        }

        // Phase 2 — random completion in groups of 64 candidates.
        if self.stopped() {
            return None;
        }
        let groups = self.attempts as usize;
        match self.complete(req, &topo, &state, groups) {
            Completed::Aborted => return None,
            Completed::Hit(full, g) => {
                if g > 0 {
                    pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_RETRIES, g as u64);
                }
                pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_LANE_HITS, 1);
                self.stats.lane_hits += 1;
                self.stats.successes += 1;
                return Some(self.finish(&topo, &full));
            }
            Completed::Miss => {
                if groups > 1 {
                    pdf_telemetry::count(
                        pdf_telemetry::counters::JUSTIFY_RETRIES,
                        (groups - 1) as u64,
                    );
                }
            }
        }

        // Phase 3 — the paper's guided decision search, resumed from the
        // fixpoint state: insurance for requirements whose satisfying set
        // is too sparse for random completion to hit.
        self.guided(req, &topo, state)
    }

    /// Random completion of the slots `state` leaves open, in `groups`
    /// groups of 64 candidates. Every group's fill words are drawn up
    /// front, group-major (group `g`, open slot `k` is draw
    /// `g·|open| + k`; bit `j` of a word is candidate `g·64 + j`'s value
    /// for that slot), so the RNG stream and the first satisfying
    /// candidate — the witness — do not depend on how many groups one
    /// propagation pass evaluates. A hit returns the completed state and
    /// the witness's group.
    fn complete(
        &mut self,
        req: &Assignments,
        topo: &ConeTopo,
        state: &[(Value, Value)],
        groups: usize,
    ) -> Completed {
        let _span = pdf_telemetry::Span::enter("justify.completion");
        let open: Vec<(usize, usize)> = (0..state.len())
            .flat_map(|i| (0..2).map(move |pos| (i, pos)))
            .filter(|&(i, pos)| !pick(&state[i], pos).is_specified())
            .collect();
        let fills: Vec<u64> = (0..groups * open.len())
            .map(|_| self.rng.next_u64())
            .collect();
        let start = std::time::Instant::now();
        let outcome = self.completion_groups(req, topo, state, &open, &fills, groups);
        self.completion += start.elapsed();
        match outcome {
            PassOutcome::Aborted => Completed::Aborted,
            PassOutcome::Miss => Completed::Miss,
            PassOutcome::Hit(candidate) => {
                let g = candidate / LANES;
                let mut full = state.to_vec();
                for (k, &(i, pos)) in open.iter().enumerate() {
                    let bit = fills[g * open.len() + k] >> (candidate % LANES) & 1 == 1;
                    set(&mut full[i], pos, Value::from(bit));
                }
                Completed::Hit(full, g)
            }
        }
    }

    /// Ends a call whose committed values specify every cone input: they
    /// satisfy `req` or the call is unsatisfied. The check reads the
    /// committed lane of the fixpoint's last pass, which simulated
    /// `state`.
    fn settle(
        &mut self,
        req: &Assignments,
        topo: &ConeTopo,
        state: &[(Value, Value)],
    ) -> Option<Justified> {
        #[cfg(test)]
        let satisfied = if self.scalar_oracle {
            req.satisfied_by(&cone_waves(self.circuit, topo, state))
        } else {
            self.packed
                .satisfied_lanes(self.circuit, req)
                .lane(COMMITTED)
        };
        #[cfg(not(test))]
        let satisfied = self
            .packed
            .satisfied_lanes(self.circuit, req)
            .lane(COMMITTED);
        if satisfied {
            self.stats.successes += 1;
            Some(self.finish(topo, state))
        } else {
            self.stats.unsatisfied += 1;
            None
        }
    }

    /// Runs the necessary-value analysis to its fixpoint. Returns `false`
    /// on a conflict (the requirements are unjustifiable), a requirement
    /// the committed values already violate on entry included.
    fn fixpoint(
        &mut self,
        req: &Assignments,
        topo: &ConeTopo,
        state: &mut [(Value, Value)],
    ) -> bool {
        let _span = pdf_telemetry::Span::enter("justify.fixpoint");
        let start = std::time::Instant::now();
        #[cfg(test)]
        let closure = if self.scalar_oracle {
            scalar_fixpoint(self.circuit, req, topo, state)
        } else {
            self.packed_fixpoint(req, topo, state)
        };
        #[cfg(not(test))]
        let closure = self.packed_fixpoint(req, topo, state);
        self.fixpoint += start.elapsed();
        #[cfg(test)]
        self.fixpoints
            .push((closure == Closure::Closed).then(|| state.to_vec()));
        closure == Closure::Closed
    }

    /// The fixpoint as rounds of packed trial passes (see the module doc,
    /// step 2). The first pass of each round also reads the committed
    /// lane, and two rules make the fixpoint agree with the
    /// one-slot-at-a-time scalar loop on every outcome and closure:
    ///
    /// * a committed lane that violates a requirement is a conflict. In a
    ///   later round, values forced together violate jointly — the scalar
    ///   loop, committing them one by one, meets the later one as a
    ///   both-values conflict. On entry, the state already violates, as
    ///   the scalar loop's first check finds. `justify` never enters so:
    ///   phase 1 starts all-`x`, which no gate turns into a specified
    ///   output, and a guided decision sets one slot to a value its
    ///   trial lane in the closing round left harmless;
    /// * a round with no open input left runs one pass with an empty trial
    ///   tile, so the committed lane is always checked and, on
    ///   [`Closure::Closed`], always holds the final `state`.
    fn packed_fixpoint(
        &mut self,
        req: &Assignments,
        topo: &ConeTopo,
        state: &mut [(Value, Value)],
    ) -> Closure {
        // The lane layout: the inputs open on entry, in cone order,
        // `TILE_INPUTS` per pass. Inputs that close keep their lanes as
        // plain broadcast.
        let layout: Vec<usize> = (0..topo.pis.len()).filter(|&i| is_open(state[i])).collect();
        let mut forced: Vec<(usize, usize, Value)> = Vec::new();
        loop {
            let mut tiles = layout
                .chunks(TILE_INPUTS)
                .filter(|tile| tile.iter().any(|&i| is_open(state[i])));
            // The first pass also checks the committed lane; with no open
            // input left it runs on an empty tile for that check alone.
            let first = tiles.next().unwrap_or(&[]);
            for (k, tile) in std::iter::once(first).chain(tiles).enumerate() {
                let bad = self.trial_pass(topo, state, tile, req);
                if k == 0 && bad.lane(COMMITTED) {
                    return Closure::Conflict;
                }
                for (j, &i) in tile.iter().enumerate() {
                    for pos in 0..2 {
                        if pick(&state[i], pos).is_specified() {
                            continue;
                        }
                        let lane = 4 * j + 2 * pos;
                        match (bad.lane(lane), bad.lane(lane + 1)) {
                            (true, true) => return Closure::Conflict,
                            (true, false) => forced.push((i, pos, Value::One)),
                            (false, true) => forced.push((i, pos, Value::Zero)),
                            (false, false) => {}
                        }
                    }
                }
            }
            if forced.is_empty() {
                return Closure::Closed;
            }
            for (i, pos, v) in forced.drain(..) {
                set(&mut state[i], pos, v);
            }
        }
    }

    /// One packed trial pass over the cone: every input carries its
    /// committed value in every lane, except that lane `4j + 2·pos + v`
    /// sets open slot `pos` of input `tile[j]` to `v` (`tile` ascending,
    /// at most [`TILE_INPUTS`] long, so lane [`COMMITTED`] is never a
    /// trial). Returns the lanes that violate a requirement of `req`.
    fn trial_pass(
        &mut self,
        topo: &ConeTopo,
        state: &[(Value, Value)],
        tile: &[usize],
        req: &Assignments,
    ) -> Tile {
        let block = &mut self.packed;
        block.begin_block(self.circuit);
        let mut trials = tile.iter().enumerate().peekable();
        for (k, (&pi, s)) in topo.pis.iter().zip(state).enumerate() {
            let mut first = splat_rails(s.0);
            let mut last = splat_rails(s.1);
            if let Some((j, _)) = trials.next_if(|&(_, &i)| i == k) {
                let lane = 4 * j;
                if !s.0.is_specified() {
                    first.0.set_lane(lane);
                    first.1.set_lane(lane + 1);
                }
                if !s.1.is_specified() {
                    last.0.set_lane(lane + 2);
                    last.1.set_lane(lane + 3);
                }
            }
            block.set_input_rails(pi, first, last);
        }
        block.propagate_over(self.circuit, &topo.order);
        // Fixpoint events stay out of the completion counters.
        let _ = block.take_kernel_stats();
        self.stats.fixpoint_passes += 1;
        pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_FIXPOINT_PASSES, 1);
        block.violated_lanes(self.circuit, req)
    }

    /// Evaluates every random-completion group of the call (free slots
    /// filled from `fills`, group-major: bit `j` of
    /// `fills[g·|open| + k]` is candidate `g·64 + j`'s value for
    /// `open[k]`) on the packed kernel — or, in the differential tests, on
    /// the scalar oracle, which must return the same outcome.
    fn completion_groups(
        &mut self,
        req: &Assignments,
        topo: &ConeTopo,
        state: &[(Value, Value)],
        open: &[(usize, usize)],
        fills: &[u64],
        groups: usize,
    ) -> PassOutcome {
        #[cfg(test)]
        if self.scalar_oracle {
            return self.scalar_groups(req, topo, state, open, fills, groups);
        }
        let Justifier {
            circuit,
            packed,
            stats,
            deadline,
            cancel,
            ..
        } = self;
        let stopped = || stop_requested(deadline, cancel.as_ref());
        packed_passes(
            packed, circuit, req, topo, state, open, fills, groups, stats, &stopped,
        )
    }

    /// The oracle: the same candidates in the same global order, one cone
    /// simulation each, stopping at the first satisfying one.
    #[cfg(test)]
    fn scalar_groups(
        &mut self,
        req: &Assignments,
        topo: &ConeTopo,
        state: &[(Value, Value)],
        open: &[(usize, usize)],
        fills: &[u64],
        groups: usize,
    ) -> PassOutcome {
        let mut lane_state = state.to_vec();
        for g in 0..groups {
            if g > 0 && self.stopped() {
                return PassOutcome::Aborted;
            }
            for bit in 0..LANES {
                for (k, &(i, pos)) in open.iter().enumerate() {
                    set(
                        &mut lane_state[i],
                        pos,
                        Value::from(fills[g * open.len() + k] >> bit & 1 == 1),
                    );
                }
                self.stats.completion_attempts += 1;
                if req.satisfied_by(&cone_waves(self.circuit, topo, &lane_state)) {
                    return PassOutcome::Hit(g * LANES + bit);
                }
            }
        }
        PassOutcome::Miss
    }

    /// The guided decision search (paper steps 2–4), entered with the
    /// necessary-value fixpoint already reached for `state`. Every
    /// [`PROBE_EVERY`] decisions whose fixpoint leaves slots open, a
    /// probe runs one full-tile completion pass over them.
    fn guided(
        &mut self,
        req: &Assignments,
        topo: &ConeTopo,
        mut state: Vec<(Value, Value)>,
    ) -> Option<Justified> {
        let _span = pdf_telemetry::Span::enter("justify.guided");
        #[cfg(test)]
        {
            self.guided_calls += 1;
        }
        let n = topo.pis.len();
        let mut decisions = 0usize;
        loop {
            if self.stopped() {
                return None;
            }
            // Decision: stabilize a half-specified input if one exists...
            if let Some(i) = state
                .iter()
                .position(|s| s.0.is_specified() != s.1.is_specified())
            {
                let v = if state[i].0.is_specified() {
                    state[i].0
                } else {
                    state[i].1
                };
                state[i] = (v, v);
            } else {
                // ...else a random value on a random unspecified position —
                // or, with a guide attached, the hardest open input at its
                // easier value, deterministically and without drawing RNG.
                let open: Vec<(usize, usize)> = (0..n)
                    .flat_map(|i| (0..2).map(move |pos| (i, pos)))
                    .filter(|&(i, pos)| !pick(&state[i], pos).is_specified())
                    .collect();
                debug_assert!(!open.is_empty());
                let (i, pos, v) = if let Some(guide) = &self.guide {
                    // First-wins max keeps ties in slot order, so the pick
                    // is independent of how `open` was discovered.
                    let mut best = open[0];
                    let mut best_cost = guide.difficulty(topo.pis[open[0].0]);
                    for &slot in &open[1..] {
                        let cost = guide.difficulty(topo.pis[slot.0]);
                        if cost > best_cost {
                            best = slot;
                            best_cost = cost;
                        }
                    }
                    self.stats.scoap_guided_branches += 1;
                    pdf_telemetry::count(pdf_telemetry::counters::SCOAP_GUIDED_BRANCHES, 1);
                    (best.0, best.1, guide.easier_value(topo.pis[best.0]))
                } else {
                    let &(i, pos) = self.rng.pick(&open);
                    (i, pos, Value::from(self.rng.next_bool()))
                };
                set(&mut state[i], pos, v);
            }
            if !self.fixpoint(req, topo, &mut state) {
                self.stats.conflicts += 1;
                return None;
            }
            if fully_specified(&state) {
                return self.settle(req, topo, &state);
            }
            decisions += 1;
            if decisions.is_multiple_of(PROBE_EVERY) {
                if self.stopped() {
                    return None;
                }
                self.stats.probes += 1;
                pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_PROBES, 1);
                match self.complete(req, topo, &state, Tile::WORDS) {
                    Completed::Aborted => return None,
                    Completed::Miss => {}
                    Completed::Hit(full, _) => {
                        self.stats.probe_hits += 1;
                        pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_PROBE_HITS, 1);
                        self.stats.successes += 1;
                        return Some(self.finish(topo, &full));
                    }
                }
            }
        }
    }

    /// Builds the final fully specified test and its full-circuit
    /// waveforms (one byte sweep). `topo.pis` lists the cone inputs in
    /// input order, so one merge walk pairs them with their slots; every
    /// other input draws a random first, then second, value.
    fn finish(&mut self, topo: &ConeTopo, state: &[(Value, Value)]) -> Justified {
        let inputs = self.circuit.inputs();
        let mut v1 = Vec::with_capacity(inputs.len());
        let mut v2 = Vec::with_capacity(inputs.len());
        let mut cone = topo.pis.iter().zip(state).peekable();
        for &input in inputs {
            let (first, second) = match cone.next_if(|&(&pi, _)| pi == input) {
                Some((_, &s)) => s,
                None => (
                    Value::from(self.rng.next_bool()),
                    Value::from(self.rng.next_bool()),
                ),
            };
            v1.push(first);
            v2.push(second);
        }
        let test = TwoPattern::new(v1, v2);
        let _span = pdf_telemetry::Span::enter("justify.finish");
        let waves = pdf_sim::waveforms(self.circuit, &test);
        Justified { test, waves }
    }
}

#[inline]
fn pick(s: &(Value, Value), pos: usize) -> Value {
    if pos == 0 {
        s.0
    } else {
        s.1
    }
}

#[inline]
fn set(s: &mut (Value, Value), pos: usize, v: Value) {
    if pos == 0 {
        s.0 = v;
    } else {
        s.1 = v;
    }
}

#[inline]
fn is_open(s: (Value, Value)) -> bool {
    !(s.0.is_specified() && s.1.is_specified())
}

#[inline]
fn fully_specified(state: &[(Value, Value)]) -> bool {
    !state.iter().any(|&s| is_open(s))
}

/// Cone inputs per packed fixpoint pass: four trial lanes each (two
/// pattern positions × two values), with the top four lanes left to the
/// committed values.
const TILE_INPUTS: usize = Tile::LANES / 4 - 1;

/// The lane of every fixpoint pass that carries the committed values
/// alone.
const COMMITTED: usize = Tile::LANES - 1;

/// A committed value as `(zero_rail, one_rail)` tiles broadcast across
/// every lane.
#[inline]
fn splat_rails(v: Value) -> (Tile, Tile) {
    match v {
        Value::Zero => (Tile::ONES, Tile::ZERO),
        Value::One => (Tile::ZERO, Tile::ONES),
        Value::X => (Tile::ZERO, Tile::ZERO),
    }
}

/// How a necessary-value fixpoint call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Closure {
    /// Nothing more is forced; the state is the closure.
    Closed,
    /// Some open slot conflicts on both values, or the committed values
    /// violate a requirement.
    Conflict,
}

/// Result of one random completion ([`Justifier::complete`]).
enum Completed {
    /// The completed state of the witness, and the group it came from.
    Hit(Vec<(Value, Value)>, usize),
    /// No candidate satisfied the requirements.
    Miss,
    /// The deadline passed or the token was cancelled between passes.
    Aborted,
}

/// Result of evaluating a call's completion groups.
enum PassOutcome {
    /// The lowest-numbered satisfying candidate (global index:
    /// `group · 64 + lane`).
    Hit(usize),
    /// No candidate satisfied the requirements.
    Miss,
    /// The deadline passed or the token was cancelled between passes.
    Aborted,
}

/// A justifier's stop signal: its deadline passed or its token was
/// cancelled.
fn stop_requested(deadline: &Deadline, cancel: Option<&CancelToken>) -> bool {
    deadline.expired() || cancel.is_some_and(CancelToken::is_cancelled)
}

/// Evaluates completion groups on the packed kernel, up to `Tile::WORDS`
/// groups per bit-plane pass. Lane numbering within a pass is
/// sub-block-major — lane `g_local · 64 + bit` is global candidate
/// `(pass_start + g_local) · 64 + bit` — matching the scalar oracle's
/// scan order, so the first satisfying lane is the same witness.
#[allow(clippy::too_many_arguments)]
fn packed_passes(
    block: &mut PackedBlock,
    circuit: &Circuit,
    req: &Assignments,
    topo: &ConeTopo,
    state: &[(Value, Value)],
    open: &[(usize, usize)],
    fills: &[u64],
    groups: usize,
    stats: &mut JustifyStats,
    stopped: &dyn Fn() -> bool,
) -> PassOutcome {
    let mut pass_start = 0usize;
    while pass_start < groups {
        if pass_start > 0 && stopped() {
            return PassOutcome::Aborted;
        }
        let here = (groups - pass_start).min(Tile::WORDS);
        stats.packed_blocks += 1;
        stats.completion_attempts += here * LANES;
        pdf_telemetry::count(pdf_telemetry::counters::JUSTIFY_PACKED_BLOCKS, 1);
        // Broadcast the committed values across all lanes, then overwrite
        // the free slots with their per-lane fill rails (one 64-candidate
        // group per 64-bit word of the tile).
        let mut first: Vec<(Tile, Tile)> = state.iter().map(|s| splat_rails(s.0)).collect();
        let mut last: Vec<(Tile, Tile)> = state.iter().map(|s| splat_rails(s.1)).collect();
        for (k, &(i, pos)) in open.iter().enumerate() {
            let mut zero = Tile::ZERO;
            let mut one = Tile::ZERO;
            for g in 0..here {
                let w = fills[(pass_start + g) * open.len() + k];
                zero.set_word(g, !w);
                one.set_word(g, w);
            }
            if pos == 0 {
                first[i] = (zero, one);
            } else {
                last[i] = (zero, one);
            }
        }
        block.begin_block(circuit);
        for (k, &pi) in topo.pis.iter().enumerate() {
            block.set_input_rails(pi, first[k], last[k]);
        }
        block.propagate_over(circuit, &topo.order);
        let kernel = block.take_kernel_stats();
        stats.events_propagated += kernel.events_propagated;
        stats.lines_skipped += kernel.lines_skipped;
        pdf_telemetry::count(
            pdf_telemetry::counters::EVENTS_PROPAGATED,
            kernel.events_propagated,
        );
        pdf_telemetry::count(pdf_telemetry::counters::LINES_SKIPPED, kernel.lines_skipped);
        // Unused tile groups of a partial pass carry broadcast-only lanes
        // that may spuriously satisfy the requirements — mask them off.
        let lanes = block
            .satisfied_lanes(circuit, req)
            .and(Tile::low_lanes(here * LANES));
        if let Some(lane) = lanes.first_lane() {
            return PassOutcome::Hit(pass_start * LANES + lane);
        }
        pass_start += here;
    }
    PassOutcome::Miss
}

/// The fixpoint oracle: the scalar loop that trial-assigns one slot at a
/// time and commits each forced value before the next trial. A trial
/// fails when it violates a requirement its input reaches; any
/// requirement the committed values violate on entry fails the call.
#[cfg(test)]
fn scalar_fixpoint(
    circuit: &Circuit,
    req: &Assignments,
    topo: &ConeTopo,
    state: &mut [(Value, Value)],
) -> Closure {
    if req.violated_by(&cone_waves(circuit, topo, state)) {
        return Closure::Conflict;
    }
    // The requirements in each cone input's fanout cone.
    let mut reached: Vec<Vec<(LineId, Triple)>> = vec![Vec::new(); topo.pis.len()];
    for (line, r) in req.iter() {
        let mut seen = vec![false; circuit.line_count()];
        let mut stack = vec![line];
        seen[line.index()] = true;
        while let Some(l) = stack.pop() {
            for &f in circuit.fanin(l) {
                if !std::mem::replace(&mut seen[f.index()], true) {
                    stack.push(f);
                }
            }
        }
        for (k, &pi) in topo.pis.iter().enumerate() {
            if seen[pi.index()] {
                reached[k].push((line, r));
            }
        }
    }
    let violates = |state: &mut [(Value, Value)], i: usize, pos: usize, v: Value| {
        let saved = state[i];
        set(&mut state[i], pos, v);
        let waves = cone_waves(circuit, topo, state);
        state[i] = saved;
        reached[i]
            .iter()
            .any(|&(line, r)| !waves[line.index()].is_compatible(r))
    };
    loop {
        let mut assigned = false;
        for i in 0..topo.pis.len() {
            for pos in 0..2 {
                if pick(&state[i], pos).is_specified() {
                    continue;
                }
                let zero_bad = violates(state, i, pos, Value::Zero);
                let one_bad = violates(state, i, pos, Value::One);
                match (zero_bad, one_bad) {
                    (true, true) => return Closure::Conflict,
                    (true, false) => set(&mut state[i], pos, Value::One),
                    (false, true) => set(&mut state[i], pos, Value::Zero),
                    (false, false) => continue,
                }
                assigned = true;
            }
        }
        if !assigned {
            return Closure::Closed;
        }
    }
}

/// The scalar oracle's simulation of the cone under `state`, indexed by
/// [`LineId::index`]; lines outside the cone stay unknown.
#[cfg(test)]
fn cone_waves(circuit: &Circuit, topo: &ConeTopo, state: &[(Value, Value)]) -> Vec<Triple> {
    let mut waves = vec![Triple::UNKNOWN; circuit.line_count()];
    for (&pi, s) in topo.pis.iter().zip(state) {
        waves[pi.index()] = Triple::from_patterns(s.0, s.1);
    }
    for &id in &topo.order {
        waves[id.index()] = match circuit.kind(id) {
            pdf_netlist::LineKind::Input => continue,
            pdf_netlist::LineKind::Branch { stem } => waves[stem.index()],
            pdf_netlist::LineKind::Gate(kind) => {
                kind.eval_triples(circuit.fanin(id).iter().map(|f| waves[f.index()]))
            }
        };
    }
    waves
}

/// The topology of a requirement set's fanin cone, built once per call.
#[derive(Debug)]
struct ConeTopo {
    /// Cone lines in circuit topological order (inputs included).
    order: Vec<LineId>,
    /// The cone's primary inputs, in input order.
    pis: Vec<LineId>,
}

impl ConeTopo {
    fn build(circuit: &Circuit, req: &Assignments) -> ConeTopo {
        let member = circuit.fanin_cone(req.lines());
        let order: Vec<LineId> = circuit
            .topo_order()
            .iter()
            .copied()
            .filter(|l| member[l.index()])
            .collect();
        let pis: Vec<LineId> = circuit
            .inputs()
            .iter()
            .copied()
            .filter(|l| member[l.index()])
            .collect();
        ConeTopo { order, pis }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_faults::{robust_assignments, PathDelayFault, Polarity};
    use pdf_netlist::iscas::s27;
    use pdf_paths::Path;

    fn line(k: usize) -> LineId {
        LineId::new(k - 1)
    }

    fn s27_fault(ids: &[usize], pol: Polarity) -> PathDelayFault {
        let path: Path = ids.iter().map(|&k| line(k)).collect();
        PathDelayFault::new(path, pol)
    }

    /// A packed justifier, or its scalar-oracle twin.
    fn engine(c: &Circuit, seed: u64, oracle: bool) -> Justifier<'_> {
        let mut j = Justifier::new(c, seed);
        j.scalar_oracle = oracle;
        j
    }

    #[test]
    fn justifies_paper_example() {
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let mut j = Justifier::new(&c, 42);
        let r = j.justify(&a).expect("testable fault");
        assert!(r.test.is_fully_specified());
        assert!(a.satisfied_by(&r.waves));
        assert_eq!(j.stats().successes, 1);
    }

    #[test]
    fn justified_test_is_deterministic_per_seed() {
        let c = s27();
        let f = s27_fault(
            &[1, 8, 13, 14, 16, 19, 20, 21, 22, 25],
            Polarity::SlowToRise,
        );
        let a = robust_assignments(&c, &f).unwrap();
        for oracle in [false, true] {
            let r1 = engine(&c, 7, oracle).justify(&a).unwrap();
            let r2 = engine(&c, 7, oracle).justify(&a).unwrap();
            assert_eq!(r1.test, r2.test, "oracle {oracle}");
        }
    }

    /// The requirement sets of `c`'s detectable faults over the first
    /// `cap` enumerated paths.
    fn fault_requirements(c: &Circuit, cap: usize) -> Vec<Assignments> {
        let paths = pdf_paths::PathEnumerator::new(c).with_cap(cap).enumerate();
        let (faults, _) = pdf_faults::FaultList::build(c, &paths.store);
        faults.iter().map(|e| e.assignments.clone()).collect()
    }

    /// Justifies `reqs` in order on the packed kernel and on the scalar
    /// oracle with the same seed, and cross-checks outcomes, witnesses,
    /// fixpoint closures and counters. Returns the probes, probe hits and
    /// guided-search entries of the calls.
    fn check_calls_agree(
        c: &Circuit,
        reqs: &[Assignments],
        seed: u64,
        attempts: u32,
    ) -> [usize; 3] {
        let mut oracle = engine(c, seed, true).with_attempts(attempts);
        let mut packed = engine(c, seed, false).with_attempts(attempts);
        for req in reqs {
            let s = oracle.justify(req);
            let p = packed.justify(req);
            assert_eq!(s.is_some(), p.is_some(), "{req} (seed {seed})");
            if let (Some(s), Some(p)) = (s, p) {
                // Byte-identical witnesses, and every packed witness
                // passes the scalar re-check: the full-circuit waveforms
                // neither violate nor miss any requirement.
                assert_eq!(s.test, p.test, "witness of {req} (seed {seed})");
                assert!(!req.violated_by(&p.waves), "{req}");
                assert!(req.satisfied_by(&p.waves), "{req}");
            }
        }
        assert_eq!(oracle.fixpoints, packed.fixpoints, "closures (seed {seed})");
        let (s, p) = (oracle.stats(), packed.stats());
        assert_eq!(s.successes, p.successes);
        assert_eq!(s.conflicts, p.conflicts);
        assert_eq!(s.unsatisfied, p.unsatisfied);
        assert_eq!(s.lane_hits, p.lane_hits);
        assert_eq!(s.probes, p.probes);
        assert_eq!(s.probe_hits, p.probe_hits);
        assert_eq!(oracle.guided_calls, packed.guided_calls);
        assert_eq!(s.packed_blocks, 0);
        assert_eq!(s.fixpoint_passes, 0);
        [p.probes, p.probe_hits, packed.guided_calls]
    }

    /// Justifies every detectable fault of `c` on both engines.
    fn check_engines_agree(c: &Circuit, seed: u64, attempts: u32) {
        let _ = check_calls_agree(c, &fault_requirements(c, 300), seed, attempts);
    }

    #[test]
    fn engines_agree_on_s27_across_seeds() {
        let c = s27();
        for seed in [1, 2, 7, 19, 2002, 0xDEAD_BEEF] {
            check_engines_agree(&c, seed, 2);
        }
        // Five groups span two packed passes, the second one partial.
        check_engines_agree(&c, 3, 5);
    }

    /// Requirement sets the guided search has to work on: each of the
    /// first `cap` faults' sets merged with the next joinable ones, up to
    /// `width` faults.
    fn merged_requirements(c: &Circuit, cap: usize, width: usize) -> Vec<Assignments> {
        let mut reqs = fault_requirements(c, 2000);
        reqs.truncate(cap);
        let mut merged = Vec::new();
        for (k, base) in reqs.iter().enumerate() {
            let mut union = base.clone();
            let mut joined = 1;
            for other in &reqs[k + 1..] {
                if joined == width {
                    break;
                }
                if let Some(grown) = union.merged(other) {
                    union = grown;
                    joined += 1;
                }
            }
            merged.push(union);
        }
        merged
    }

    /// `count` random requirement sets of two to five lines of `c`, each
    /// line held stable or switching: many pass the fixpoint yet admit
    /// no hazard-free test, so random completion misses and the guided
    /// search runs to its end.
    fn random_requirements(c: &Circuit, count: usize) -> Vec<Assignments> {
        let triples = [
            Triple::STABLE0,
            Triple::STABLE1,
            Triple::RISING,
            Triple::FALLING,
        ];
        let mut rng = SplitMix64::new(17);
        (0..count)
            .map(|_| {
                let mut req = Assignments::new();
                for _ in 0..2 + rng.next_below(4) {
                    let line = LineId::new(rng.next_below(c.line_count()));
                    let _ = req.require(line, *rng.pick(&triples));
                }
                req
            })
            .collect()
    }

    #[test]
    fn engines_agree_on_probe_hits_and_full_guided_searches() {
        // Merged fault unions and random requirement sets reach the
        // guided search on s27, c17 and b04. Some calls end on a probe
        // hit; others run the search to its end (a settled state or a
        // conflict), on b04 past missed probes. Both engines run every
        // probe, so the oracle pins the probe witnesses too.
        let b04 = pdf_netlist::circuit_by_name("b04").expect("known stand-in");
        let cases = [
            ("s27", s27(), 50, 6, 1, 0..16),
            ("c17", pdf_netlist::iscas::c17(), 50, 6, 1, 0..16),
            ("b04", b04, 60, 3, Tile::WORDS as u32, 0..2),
        ];
        let mut missed = 0;
        for (name, c, cap, width, attempts, seeds) in cases {
            let mut reqs = merged_requirements(&c, cap, width);
            reqs.extend(random_requirements(&c, 200));
            let [mut probes, mut hits, mut guided] = [0; 3];
            for seed in seeds {
                let [p, h, g] = check_calls_agree(&c, &reqs, seed, attempts);
                (probes, hits, guided) = (probes + p, hits + h, guided + g);
            }
            assert!(hits > 0, "{name}: no probe hit in {probes} probes");
            assert!(guided > hits, "{name}: no guided search ran to its end");
            missed += probes - hits;
        }
        assert!(missed > 0, "every probe hit");
    }

    #[test]
    fn engines_agree_on_a_redundant_stand_in() {
        // A `+r` profile: redundancy gadgets make part of the fault
        // population unjustifiable, exercising the Miss path of both
        // engines.
        let c = pdf_netlist::circuit_by_name("b03+r").expect("known stand-in");
        check_engines_agree(&c, 2002, 1);
    }

    /// Enters the fixpoint of both engines with the cone inputs of each
    /// of `reqs` pinned to the previous requirement set's witness — every
    /// other set to its first pattern only — and cross-checks verdicts
    /// and closures. Returns how many entries already violated a
    /// requirement.
    fn check_pinned_fixpoints_agree(c: &Circuit, reqs: &[Assignments]) -> usize {
        let mut source = engine(c, 2002, false);
        let mut witness = TwoPattern::unspecified(c.inputs().len());
        let mut violated = 0;
        for (call, req) in reqs.iter().enumerate() {
            let topo = ConeTopo::build(c, req);
            let state: Vec<(Value, Value)> = topo
                .pis
                .iter()
                .map(|&pi| {
                    let k = c.inputs().iter().position(|&i| i == pi).unwrap();
                    let last = if call % 2 == 0 {
                        witness.second()[k]
                    } else {
                        Value::X
                    };
                    (witness.first()[k], last)
                })
                .collect();
            violated += usize::from(req.violated_by(&cone_waves(c, &topo, &state)));
            let mut oracle = engine(c, 0, true);
            let mut packed = engine(c, 0, false);
            let (mut s, mut p) = (state.clone(), state);
            let verdict = oracle.fixpoint(req, &topo, &mut s);
            assert_eq!(verdict, packed.fixpoint(req, &topo, &mut p), "{req}");
            assert_eq!(s, p, "closure of {req}");
            assert_eq!(oracle.fixpoints, packed.fixpoints, "log of {req}");
            if let Some(r) = source.justify(req) {
                witness = r.test;
            }
        }
        violated
    }

    #[test]
    fn engines_agree_on_fixpoints_entered_with_violating_pins() {
        // `justify` never enters the fixpoint in a violating state (see
        // `packed_fixpoint`), so the entry case is driven here directly:
        // pins from another fault's witness often violate a requirement
        // before any trial runs, and both engines must then fail.
        let mut violated = 0;
        for name in ["b03+r", "b04"] {
            let c = pdf_netlist::circuit_by_name(name).expect("known stand-in");
            violated += check_pinned_fixpoints_agree(&c, &fault_requirements(&c, 200));
        }
        let c = s27();
        violated += check_pinned_fixpoints_agree(&c, &fault_requirements(&c, 300));
        assert!(violated > 0, "no entry violated a requirement");
    }

    #[test]
    fn engines_agree_on_cones_wider_than_one_pass() {
        // s5378* cones span more than 64 inputs, so each fixpoint round
        // takes several packed passes.
        let c = pdf_netlist::circuit_by_name("s5378*").expect("known stand-in");
        let mut reqs = fault_requirements(&c, 150);
        reqs.sort_by_key(|r| std::cmp::Reverse(ConeTopo::build(&c, r).pis.len()));
        reqs.truncate(24);
        let widest = ConeTopo::build(&c, &reqs[0]).pis.len();
        assert!(widest > TILE_INPUTS, "widest cone has {widest} inputs");
        check_calls_agree(&c, &reqs, 2002, 1);
        check_calls_agree(&c, &reqs, 7, 1);
    }

    #[test]
    fn jointly_violating_forced_values_are_a_conflict() {
        // a = 1 and b = 1 are each forced by their own requirement, but
        // together they drive z = NAND(a, b) to 0 against its requirement.
        // The packed round forces both at once and sees the joint
        // violation on the committed lane of the next round's pass; the
        // scalar loop commits a first and then finds both values of b
        // failing.
        let mut b = pdf_netlist::CircuitBuilder::new("joint");
        let x = b.input("a");
        let y = b.input("b");
        let z = b.gate("z", pdf_logic::GateKind::Nand, &[x, y]);
        b.mark_output(z);
        let c = b.finish().unwrap();
        let ends_high: Triple = "xx1".parse().unwrap();
        let mut req = Assignments::new();
        for line in [x, y, z] {
            req.require(line, ends_high).unwrap();
        }
        for oracle in [false, true] {
            let mut j = engine(&c, 1, oracle);
            assert!(j.justify(&req).is_none(), "oracle {oracle}");
            assert_eq!(j.stats().conflicts, 1, "oracle {oracle}");
            assert_eq!(j.fixpoints, vec![None], "oracle {oracle}");
            // Two rounds of one pass: the second pass's committed lane
            // carries the joint conflict.
            assert_eq!(j.stats().fixpoint_passes, 2 * usize::from(!oracle));
        }
    }

    #[test]
    fn engines_agree_at_the_tile_boundary() {
        // 64 inputs feed z = AND of 32 XOR pairs, all open on entry: one
        // more than a fixpoint pass holds next to its committed lane, so
        // every round takes two passes, the second with one trial input.
        let mut b = pdf_netlist::CircuitBuilder::new("tile64");
        let mut pairs = Vec::new();
        for k in 0..32 {
            let x = b.input(format!("x{k}"));
            let y = b.input(format!("y{k}"));
            pairs.push(b.gate(format!("p{k}"), pdf_logic::GateKind::Xor, &[x, y]));
        }
        let z = b.gate("z", pdf_logic::GateKind::And, &pairs);
        b.mark_output(z);
        let c = b.finish().unwrap();
        assert_eq!(c.inputs().len(), TILE_INPUTS + 1);
        // Stable, rising and falling z, and z plus a pinned input value
        // that the fixpoint must propagate through its XOR partner.
        let mut reqs = Vec::new();
        for t in [Triple::STABLE1, Triple::RISING, Triple::FALLING] {
            let mut req = Assignments::new();
            req.require(z, t).unwrap();
            reqs.push(req.clone());
            req.require(c.inputs()[63], Triple::STABLE0).unwrap();
            reqs.push(req);
        }
        // Every input pinned stable 1 by its own requirement — once alone,
        // once against z = 1, which the pinned XOR pairs drive to 0.
        let mut pinned = Assignments::new();
        for &input in c.inputs() {
            pinned.require(input, Triple::STABLE1).unwrap();
        }
        let mut contradicted = pinned.clone();
        contradicted.require(z, Triple::STABLE1).unwrap();
        reqs.extend([pinned.clone(), contradicted.clone()]);
        check_calls_agree(&c, &reqs, 2002, 1);
        check_calls_agree(&c, &reqs, 1, 1);
        check_pinned_fixpoints_agree(&c, &reqs);
        // Round 1 forces all 128 slots over two passes; round 2 has no
        // open input left and checks the committed lane on an empty tile.
        let mut j = Justifier::new(&c, 7);
        assert!(j.justify(&pinned).is_some());
        assert_eq!(j.stats().fixpoint_passes, 3);
        assert!(j.justify(&contradicted).is_none());
        assert_eq!(j.stats().conflicts, 1);
        assert_eq!(j.stats().fixpoint_passes, 6);
    }

    fn arb_circuit() -> impl proptest::strategy::Strategy<Value = Circuit> {
        use proptest::prelude::*;
        // `redundant` injects the `+r` stand-in redundancy gadgets, giving
        // the justifier a population of unjustifiable requirement sets.
        (3usize..8, 10usize..60, 3usize..8, 0usize..3, any::<u64>()).prop_map(
            |(inputs, gates, levels, redundant, seed)| {
                pdf_netlist::SynthProfile::new("diff", seed)
                    .with_inputs(inputs)
                    .with_gates(gates)
                    .with_levels(levels)
                    .with_redundant_gadgets(redundant)
                    .generate()
                    .to_circuit()
                    .expect("generated netlists are valid")
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn engines_agree_on_synth_circuits(
            c in arb_circuit(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            check_engines_agree(&c, seed, 1);
        }
    }

    #[test]
    fn unsatisfiable_requirements_fail() {
        let c = s27();
        // Two requirements that no test satisfies: line 8 = NOT(1) must be
        // stable 1 while line 1 is stable 1 as well.
        let mut req = pdf_faults::Assignments::new();
        req.require(line(1), Triple::STABLE1).unwrap();
        req.require(line(8), Triple::STABLE1).unwrap();
        let mut j = Justifier::new(&c, 3);
        assert!(j.justify(&req).is_none());
        assert!(j.stats().conflicts > 0);
    }

    #[test]
    fn every_testable_s27_fault_justifies_with_retries() {
        // With a handful of completion blocks, the randomized engine
        // should find a test for every robustly testable fault of this
        // tiny circuit.
        let c = s27();
        let paths = pdf_paths::PathEnumerator::new(&c)
            .with_cap(100_000)
            .enumerate();
        let (faults, _) = pdf_faults::FaultList::build(&c, &paths.store);
        let mut j = Justifier::new(&c, 11).with_attempts(8);
        let mut found = 0usize;
        for e in faults.iter() {
            if let Some(r) = j.justify(&e.assignments) {
                assert!(e.assignments.satisfied_by(&r.waves), "{}", e.fault);
                found += 1;
            }
        }
        // s27's robustly testable fault population is well over half the
        // candidates; exact counts are pinned by integration tests.
        assert!(found > faults.len() / 2, "found {found}/{}", faults.len());
    }

    #[test]
    fn merged_requirements_detect_both_faults() {
        let c = s27();
        let f1 = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let f2 = s27_fault(&[1, 8, 12, 25], Polarity::SlowToRise);
        let a1 = robust_assignments(&c, &f1).unwrap();
        let a2 = robust_assignments(&c, &f2).unwrap();
        if let Some(merged) = a1.merged(&a2) {
            let mut j = Justifier::new(&c, 5).with_attempts(4);
            if let Some(r) = j.justify(&merged) {
                assert!(a1.satisfied_by(&r.waves));
                assert!(a2.satisfied_by(&r.waves));
            }
        }
    }

    #[test]
    fn out_of_cone_inputs_are_randomized_but_test_complete() {
        let c = s27();
        // The fault on (3,15): cone involves inputs 2, 3, 7 only.
        let f = s27_fault(&[3, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let r = Justifier::new(&c, 9).justify(&a).unwrap();
        assert!(r.test.is_fully_specified());
        assert_eq!(r.test.len(), 7);
    }

    #[test]
    fn expired_deadline_fails_justification_without_drawing_rng() {
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let mut j =
            Justifier::new(&c, 42).with_deadline(Deadline::after(std::time::Duration::ZERO));
        let before = j.rng_state();
        assert!(j.justify(&a).is_none());
        assert_eq!(j.stats().calls, 1);
        assert_eq!(
            j.rng_state(),
            before,
            "an entry-poll abort must not draw RNG"
        );
    }

    #[test]
    fn rng_state_round_trips_across_justifiers() {
        let c = s27();
        let f1 = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let f2 = s27_fault(&[1, 8, 12, 25], Polarity::SlowToRise);
        let a1 = robust_assignments(&c, &f1).unwrap();
        let a2 = robust_assignments(&c, &f2).unwrap();
        // One justifier runs both calls; a second is rebuilt mid-stream
        // from the first's snapshot and must produce the same second test.
        let mut full = Justifier::new(&c, 77);
        let _ = full.justify(&a1);
        let snapshot = full.rng_state();
        let t_full = full.justify(&a2).map(|r| r.test);
        let mut resumed = Justifier::new(&c, 0);
        resumed.set_rng_state(snapshot);
        let t_resumed = resumed.justify(&a2).map(|r| r.test);
        assert_eq!(t_full, t_resumed);
    }

    #[test]
    fn stats_accumulate() {
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let mut j = Justifier::new(&c, 1);
        let _ = j.justify(&a);
        let _ = j.justify(&a);
        assert_eq!(j.stats().calls, 2);
        assert!(j.stats().fixpoint_passes > 0);
    }

    #[test]
    fn a_dropped_justifier_leaves_its_arena_to_the_thread() {
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let kept = || ARENA.with(|slot| slot.replace(None)).is_some();
        let mut j = Justifier::new(&c, 1);
        assert!(j.justify(&a).is_some());
        drop(j);
        assert!(kept(), "a justifier gives its arena back on drop");
        let unwound = std::panic::catch_unwind(|| {
            let mut j = Justifier::new(&c, 1);
            let _ = j.justify(&a);
            panic!("unwinding with a live justifier");
        });
        assert!(unwound.is_err());
        assert!(!kept(), "an arena is not kept while its thread unwinds");
    }

    #[test]
    fn branch_guide_costs() {
        let guide = BranchGuide::new(vec![1, 5, 3], vec![2, 4, 3]);
        assert_eq!(guide.difficulty(LineId::new(0)), 2);
        assert_eq!(guide.difficulty(LineId::new(1)), 5);
        assert_eq!(guide.difficulty(LineId::new(9)), 0, "beyond the tables");
        assert_eq!(guide.easier_value(LineId::new(0)), Value::Zero);
        assert_eq!(guide.easier_value(LineId::new(1)), Value::One);
        assert_eq!(guide.easier_value(LineId::new(2)), Value::Zero, "tie → 0");

        let mut a = pdf_faults::Assignments::new();
        a.require(LineId::new(0), Triple::STABLE1).unwrap();
        a.require(LineId::new(1), Triple::RISING).unwrap();
        // STABLE1 on line 0 costs CC1 = 2; RISING's steady value on
        // line 1 costs CC1 = 4.
        assert_eq!(guide.assignment_cost(&a), 6);
    }

    #[test]
    #[should_panic(expected = "same lines")]
    fn branch_guide_rejects_mismatched_tables() {
        let _ = BranchGuide::new(vec![1], vec![1, 2]);
    }

    /// A uniform guide for a circuit (every line cost 1/1) — enough to
    /// flip the justifier onto the deterministic decision path.
    fn flat_guide(c: &Circuit) -> std::sync::Arc<BranchGuide> {
        std::sync::Arc::new(BranchGuide::new(
            vec![1; c.line_count()],
            vec![1; c.line_count()],
        ))
    }

    #[test]
    fn guide_leaves_completion_phase_witnesses_unchanged() {
        // The guide only replaces guided-search decisions; a call resolved
        // by a random-completion lane must return the same witness with
        // and without it.
        let c = s27();
        let f = s27_fault(&[2, 9, 10, 15], Polarity::SlowToRise);
        let a = robust_assignments(&c, &f).unwrap();
        let mut plain = Justifier::new(&c, 42);
        let mut guided = Justifier::new(&c, 42).with_guide(flat_guide(&c));
        let rp = plain.justify(&a).unwrap();
        let rg = guided.justify(&a).unwrap();
        assert_eq!(rp.test, rg.test);
        assert_eq!(guided.stats().scoap_guided_branches, 0, "lane hit");
    }

    /// z = AND of five 2-input XOR pairs: the necessary-value fixpoint
    /// assigns nothing (one XOR input alone never violates), and a
    /// satisfying completion is a ≈(1/4)^5 event per candidate, so a
    /// single 64-lane block almost surely misses and the guided decision
    /// search must run.
    fn sparse_parity_circuit() -> Circuit {
        let mut b = pdf_netlist::CircuitBuilder::new("sparse");
        let mut pairs = Vec::new();
        for k in 0..5 {
            let x = b.input(format!("x{k}"));
            let y = b.input(format!("y{k}"));
            pairs.push(b.gate(format!("p{k}"), pdf_logic::GateKind::Xor, &[x, y]));
        }
        let z = b.gate("z", pdf_logic::GateKind::And, &pairs);
        b.mark_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn guide_drives_the_decision_search_deterministically() {
        let c = sparse_parity_circuit();
        let z = c.find_line("z").unwrap();
        let mut req = pdf_faults::Assignments::new();
        req.require(z, Triple::STABLE1).unwrap();
        let run = || {
            let mut j = Justifier::new(&c, 2002).with_guide(flat_guide(&c));
            let witness = j.justify(&req).map(|r| r.test);
            (witness, j.stats())
        };
        let (w1, s1) = run();
        let (w2, s2) = run();
        assert_eq!(w1, w2, "guided decisions must be deterministic");
        assert_eq!(s1, s2);
        assert!(
            s1.scoap_guided_branches > 0,
            "the sparse requirement must reach the guided decision search"
        );
        if let Some(test) = w1 {
            assert!(test.is_fully_specified());
        }
    }
}
