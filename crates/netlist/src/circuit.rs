//! The line-level circuit model.
//!
//! Path delay faults are defined over *lines*, not gates: every fanout
//! branch is a line of its own, distinct from its stem (Pomeranz & Reddy use
//! this model throughout — in their `s27` example, line 9 is the `NOR`
//! output stem while lines 10 and 11 are its two branches). A physical path
//! is then an alternating sequence of lines from a primary input to a
//! primary output, and the delay of a path is the sum of the delays of its
//! lines (one unit each by default).
//!
//! [`Circuit`] stores this expanded line graph. The invariants are:
//!
//! * a line is exactly one of: primary input, gate output (*stem*), or
//!   fanout *branch* of a stem;
//! * a stem with two or more sinks fans out exclusively through branch
//!   lines, one per sink (a primary-output "sink" counts);
//! * output lines have no fanout; every non-output line has at least one;
//! * the graph is acyclic.

use core::fmt;

use pdf_logic::GateKind;

/// Index of a line within a [`Circuit`].
///
/// `LineId`s are dense (`0..circuit.line_count()`) and stable for the life
/// of the circuit. The [`Display`](fmt::Display) form is 1-based to match
/// the paper's numbering convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub(crate) u32);

impl LineId {
    /// Creates a `LineId` from a dense index.
    #[inline]
    #[must_use]
    pub const fn new(index: usize) -> LineId {
        LineId(index as u32)
    }

    /// The dense index of this line.
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 1-based, matching the paper's line numbering of s27.
        write!(f, "{}", self.0 + 1)
    }
}

/// What a line is: primary input, gate output, or fanout branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineKind {
    /// A primary input (or pseudo primary input: a flip-flop output in the
    /// combinational core of a sequential circuit).
    Input,
    /// The output *stem* of a logic gate; [`Circuit::fanin`] lists the gate
    /// input lines in order.
    Gate(GateKind),
    /// A fanout branch of `stem`. Behaves as an identity (BUF) for
    /// simulation but is a distinct line for path and fault bookkeeping.
    Branch {
        /// The stem line this branch forks from.
        stem: LineId,
    },
}

impl LineKind {
    /// Returns `true` for [`LineKind::Input`].
    #[inline]
    #[must_use]
    pub const fn is_input(&self) -> bool {
        matches!(self, LineKind::Input)
    }

    /// Returns `true` for [`LineKind::Gate`].
    #[inline]
    #[must_use]
    pub const fn is_gate(&self) -> bool {
        matches!(self, LineKind::Gate(_))
    }

    /// Returns `true` for [`LineKind::Branch`].
    #[inline]
    #[must_use]
    pub const fn is_branch(&self) -> bool {
        matches!(self, LineKind::Branch { .. })
    }
}

/// One line of a [`Circuit`]: its per-line attributes. The line's kind and
/// adjacency live in the circuit's dense arrays ([`Circuit::kind`],
/// [`Circuit::fanin`], [`Circuit::fanout`]).
#[derive(Clone, Debug)]
pub struct Line {
    pub(crate) name: String,
    pub(crate) is_output: bool,
    pub(crate) level: u32,
    pub(crate) delay: u32,
}

impl Line {
    fn new(name: String) -> Line {
        Line {
            name,
            is_output: false,
            level: 0,
            delay: 1,
        }
    }

    /// A human-readable name ("9", "G12", "G12->G13", ...).
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether paths may end here (primary or pseudo primary output).
    #[inline]
    #[must_use]
    pub fn is_output(&self) -> bool {
        self.is_output
    }

    /// Topological level: inputs are level 0, every other line is one more
    /// than the maximum level of its fanin.
    #[inline]
    #[must_use]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The delay contributed by this line to any path through it.
    #[inline]
    #[must_use]
    pub fn delay(&self) -> u32 {
        self.delay
    }
}

/// A compressed-sparse-row adjacency: row `i` is
/// `flat[starts[i] as usize..starts[i + 1] as usize]`.
#[derive(Clone, Debug)]
struct Csr {
    starts: Vec<u32>,
    flat: Vec<LineId>,
}

impl Csr {
    #[inline]
    fn row(&self, i: usize) -> &[LineId] {
        &self.flat[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// `rows` rows from `(row, entry)` pairs, each row ascending and
    /// without repeats.
    fn from_pairs(rows: usize, mut pairs: Vec<(LineId, LineId)>) -> Csr {
        pairs.sort_unstable();
        pairs.dedup();
        let mut starts = vec![0u32; rows + 1];
        for (row, _) in &pairs {
            starts[row.index() + 1] += 1;
        }
        for i in 0..rows {
            starts[i + 1] += starts[i];
        }
        let flat = pairs.into_iter().map(|(_, entry)| entry).collect();
        Csr { starts, flat }
    }
}

/// A combinational circuit expanded to the line level.
///
/// Construct one with [`CircuitBuilder`] or convert a gate-level
/// [`Netlist`](crate::Netlist) via [`Netlist::to_circuit`](crate::Netlist::to_circuit).
///
/// Line kinds and both adjacency directions are flat arrays indexed by
/// [`LineId`] (a dense kind array and two CSR tables), so the per-line
/// sweeps of simulation, implication and justification read contiguous
/// memory instead of per-line heap structures. A fanout branch carries its
/// stem's value, so the circuit also keeps two branch tables
/// ([`Circuit::stem_of`], [`Circuit::readers`]) through which the packed
/// simulator and the implication engine store one value per stem.
///
/// # Example
///
/// ```
/// use pdf_netlist::{CircuitBuilder};
/// use pdf_logic::GateKind;
///
/// let mut b = CircuitBuilder::new("demo");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.gate("g", GateKind::And, &[a, c]);
/// b.mark_output(g);
/// let circuit = b.finish()?;
/// assert_eq!(circuit.line_count(), 3);
/// assert_eq!(circuit.outputs(), &[g]);
/// assert_eq!(circuit.fanin(g), &[a, c]);
/// # Ok::<(), pdf_netlist::CircuitError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Circuit {
    name: String,
    lines: Vec<Line>,
    kinds: Vec<LineKind>,
    fanin: Csr,
    /// Every row ascending in sink id, a sink repeated once per use.
    fanout: Csr,
    /// The line whose value each line carries: a branch's root stem, else
    /// the line itself.
    stem_of: Vec<LineId>,
    /// Per stem, the gates reading its value directly or through its
    /// branches; empty rows for branches.
    readers: Csr,
    inputs: Vec<LineId>,
    outputs: Vec<LineId>,
    /// Line ids in topological order (fanins before fanouts).
    topo: Vec<LineId>,
    /// `d(g)`: the maximum total delay of any line sequence from the fanout
    /// of `g` to an output (0 for outputs). `len(p) = delay(p) + d(last)`.
    distance: Vec<u32>,
    /// Process-unique structure id, shared by clones (which are
    /// structurally identical). Lets incremental simulators detect that an
    /// arena holds state from a *different* circuit — address identity
    /// cannot do this, because allocators reuse addresses.
    epoch: u64,
}

impl Circuit {
    /// The circuit's name.
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of lines (inputs + stems + branches).
    #[inline]
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// The line with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    #[must_use]
    pub fn line(&self, id: LineId) -> &Line {
        &self.lines[id.index()]
    }

    /// The kind of line `id`.
    #[inline]
    #[must_use]
    pub fn kind(&self, id: LineId) -> &LineKind {
        &self.kinds[id.index()]
    }

    /// The fanin lines of `id`: gate inputs in order for a stem, `[stem]`
    /// for a branch, empty for a primary input.
    #[inline]
    #[must_use]
    pub fn fanin(&self, id: LineId) -> &[LineId] {
        self.fanin.row(id.index())
    }

    /// The fanout lines of `id` in ascending id, a sink listed once per
    /// fanin slot it uses (empty exactly when the line is an output).
    #[inline]
    #[must_use]
    pub fn fanout(&self, id: LineId) -> &[LineId] {
        self.fanout.row(id.index())
    }

    /// The line whose value `line` carries: a fanout branch's root stem
    /// (through any chain of branches), every other line itself.
    #[inline]
    #[must_use]
    pub fn stem_of(&self, line: LineId) -> LineId {
        self.stem_of[line.index()]
    }

    /// The gates that read `stem`'s value, directly or through its fanout
    /// branches, ascending and each once. Empty for a branch line: its
    /// readers are listed under its stem.
    #[inline]
    #[must_use]
    pub fn readers(&self, stem: LineId) -> &[LineId] {
        self.readers.row(stem.index())
    }

    /// The fanin cone of `roots` as a member mask indexed by
    /// [`LineId::index`]: `true` for every root and every line with a
    /// path to one.
    #[must_use]
    pub fn fanin_cone(&self, roots: impl IntoIterator<Item = LineId>) -> Vec<bool> {
        let mut member = vec![false; self.lines.len()];
        let mut stack: Vec<LineId> = Vec::new();
        for l in roots {
            if !std::mem::replace(&mut member[l.index()], true) {
                stack.push(l);
            }
        }
        while let Some(l) = stack.pop() {
            for &f in self.fanin(l) {
                if !std::mem::replace(&mut member[f.index()], true) {
                    stack.push(f);
                }
            }
        }
        member
    }

    /// Iterates over `(id, line)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LineId, &Line)> {
        self.lines
            .iter()
            .enumerate()
            .map(|(i, l)| (LineId::new(i), l))
    }

    /// Primary (and pseudo primary) input lines, in ascending id.
    #[inline]
    #[must_use]
    pub fn inputs(&self) -> &[LineId] {
        &self.inputs
    }

    /// Primary (and pseudo primary) output lines.
    #[inline]
    #[must_use]
    pub fn outputs(&self) -> &[LineId] {
        &self.outputs
    }

    /// Line ids in topological order: every line appears after its fanins.
    #[inline]
    #[must_use]
    pub fn topo_order(&self) -> &[LineId] {
        &self.topo
    }

    /// A process-unique id of this circuit's structure, assigned at build
    /// time and shared by clones. Two circuits with different epochs may
    /// still be structurally equal, but two with the same epoch are
    /// guaranteed identical — which is the direction incremental
    /// simulators need to decide whether cached per-line state is
    /// trustworthy.
    #[inline]
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The distance `d(g)` of the line to the outputs: the maximum total
    /// delay of any suffix path starting *after* `g` (so `d` of an output
    /// line is 0).
    ///
    /// `len(p) = delay(p) + d(last(p))` bounds the delay of any complete
    /// path extending the partial path `p` (paper, Fig. 2).
    #[inline]
    #[must_use]
    pub fn distance_to_output(&self, id: LineId) -> u32 {
        self.distance[id.index()]
    }

    /// The maximum over all inputs of the longest-path delay through the
    /// circuit; i.e. the critical path delay.
    #[must_use]
    pub fn critical_delay(&self) -> u32 {
        self.inputs
            .iter()
            .map(|&i| self.lines[i.index()].delay + self.distance[i.index()])
            .max()
            .unwrap_or(0)
    }

    /// Number of gate lines.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_gate()).count()
    }

    /// Number of branch lines.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_branch()).count()
    }

    /// Looks a line up by name (linear scan; intended for tests and small
    /// circuits).
    #[must_use]
    pub fn find_line(&self, name: &str) -> Option<LineId> {
        self.lines
            .iter()
            .position(|l| l.name == name)
            .map(LineId::new)
    }

    /// Total number of complete input-to-output paths, computed without
    /// enumeration (path counts multiply along the DAG). Saturates at
    /// `u64::MAX`.
    #[must_use]
    pub fn path_count(&self) -> u64 {
        // counts[l] = number of complete paths from line l to any output.
        let mut counts = vec![0u64; self.lines.len()];
        for &id in self.topo.iter().rev() {
            counts[id.index()] = if self.lines[id.index()].is_output {
                1
            } else {
                self.fanout(id)
                    .iter()
                    .fold(0u64, |acc, f| acc.saturating_add(counts[f.index()]))
            };
        }
        self.inputs
            .iter()
            .fold(0u64, |acc, i| acc.saturating_add(counts[i.index()]))
    }

    /// Rescales every line's delay using `f(id, kind) -> delay`. Distances
    /// are recomputed. Used to install non-unit delay models.
    pub fn set_delays<F>(&mut self, mut f: F)
    where
        F: FnMut(LineId, &LineKind) -> u32,
    {
        for (i, (line, kind)) in self.lines.iter_mut().zip(&self.kinds).enumerate() {
            line.delay = f(LineId::new(i), kind);
        }
        self.distance = compute_distances(&self.lines, &self.fanout, &self.topo);
    }
}

/// Error produced when assembling a [`Circuit`] fails validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitError {
    /// A referenced line id does not exist (yet).
    UnknownLine {
        /// The offending id.
        id: u32,
    },
    /// The line graph contains a cycle (combinational loop).
    Cyclic,
    /// A gate has the wrong number of inputs for its kind.
    BadArity {
        /// The gate line's name.
        line: String,
        /// The gate kind.
        kind: GateKind,
        /// The number of fanins supplied.
        got: usize,
    },
    /// A non-output line has no fanout (dangling).
    Dangling {
        /// The dangling line's name.
        line: String,
    },
    /// An output line has fanout — outputs must be leaves; insert a branch.
    OutputWithFanout {
        /// The offending line's name.
        line: String,
    },
    /// A stem with several sinks is connected directly to a gate instead of
    /// through branch lines, or mixes direct and branch fanout.
    MissingBranch {
        /// The offending stem's name.
        line: String,
    },
    /// The circuit has no inputs or no outputs.
    Empty,
    /// A delay of zero was assigned to a line.
    ZeroDelay {
        /// The offending line's name.
        line: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::UnknownLine { id } => write!(f, "unknown line id {id}"),
            CircuitError::Cyclic => f.write_str("combinational cycle detected"),
            CircuitError::BadArity { line, kind, got } => {
                write!(f, "gate `{line}` of kind {kind} has invalid arity {got}")
            }
            CircuitError::Dangling { line } => {
                write!(f, "non-output line `{line}` has no fanout")
            }
            CircuitError::OutputWithFanout { line } => {
                write!(f, "output line `{line}` has fanout")
            }
            CircuitError::MissingBranch { line } => {
                write!(
                    f,
                    "multi-sink stem `{line}` must fan out through branch lines only"
                )
            }
            CircuitError::Empty => f.write_str("circuit has no inputs or no outputs"),
            CircuitError::ZeroDelay { line } => write!(f, "line `{line}` has zero delay"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// Incremental builder for a line-level [`Circuit`].
///
/// Lines are numbered in creation order, which lets callers reproduce a
/// specific published numbering (as done for the paper's `s27`). Call
/// [`CircuitBuilder::finish`] to validate and obtain the [`Circuit`].
#[derive(Clone, Debug)]
pub struct CircuitBuilder {
    name: String,
    lines: Vec<Line>,
    kinds: Vec<LineKind>,
    /// Fanin rows, appended as lines are created.
    fanin: Csr,
}

impl CircuitBuilder {
    /// Starts a new builder for a circuit called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> CircuitBuilder {
        CircuitBuilder {
            name: name.into(),
            lines: Vec::new(),
            kinds: Vec::new(),
            fanin: Csr {
                starts: vec![0],
                flat: Vec::new(),
            },
        }
    }

    fn push(&mut self, name: String, kind: LineKind, fanin: &[LineId]) -> LineId {
        let id = LineId::new(self.lines.len());
        self.lines.push(Line::new(name));
        self.kinds.push(kind);
        self.fanin.flat.extend_from_slice(fanin);
        self.fanin.starts.push(self.fanin.flat.len() as u32);
        id
    }

    /// Adds a primary input line.
    pub fn input(&mut self, name: impl Into<String>) -> LineId {
        self.push(name.into(), LineKind::Input, &[])
    }

    /// Adds a gate line driven by `fanin`.
    pub fn gate(&mut self, name: impl Into<String>, kind: GateKind, fanin: &[LineId]) -> LineId {
        self.push(name.into(), LineKind::Gate(kind), fanin)
    }

    /// Adds a fanout branch of `stem`.
    pub fn branch(&mut self, name: impl Into<String>, stem: LineId) -> LineId {
        self.push(name.into(), LineKind::Branch { stem }, &[stem])
    }

    /// Marks `line` as a primary (or pseudo primary) output.
    pub fn mark_output(&mut self, line: LineId) -> &mut CircuitBuilder {
        if let Some(l) = self.lines.get_mut(line.index()) {
            l.is_output = true;
        }
        self
    }

    /// Overrides the delay of `line` (default is one unit per line).
    pub fn set_delay(&mut self, line: LineId, delay: u32) -> &mut CircuitBuilder {
        if let Some(l) = self.lines.get_mut(line.index()) {
            l.delay = delay;
        }
        self
    }

    /// Validates the construction and produces the [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when a structural invariant is violated;
    /// see the type's variants for the complete list.
    pub fn finish(self) -> Result<Circuit, CircuitError> {
        let CircuitBuilder {
            name,
            mut lines,
            kinds,
            fanin,
        } = self;
        let n = lines.len();

        // Resolve fanin references, then derive the fanout rows with a
        // counting pass in line order, so every row is ascending.
        if let Some(f) = fanin.flat.iter().find(|f| f.index() >= n) {
            return Err(CircuitError::UnknownLine { id: f.0 });
        }
        let mut starts = vec![0u32; n + 1];
        for f in &fanin.flat {
            starts[f.index() + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut next = starts.clone();
        let mut flat = vec![LineId(0); fanin.flat.len()];
        for i in 0..n {
            for f in fanin.row(i) {
                flat[next[f.index()] as usize] = LineId::new(i);
                next[f.index()] += 1;
            }
        }
        let fanout = Csr { starts, flat };

        // Arity checks (inputs and branches get their fanin from `push`).
        for (i, (line, kind)) in lines.iter().zip(&kinds).enumerate() {
            if let LineKind::Gate(kind) = kind {
                let got = fanin.row(i).len();
                let ok = if kind.is_single_input() {
                    got == 1
                } else {
                    got >= 1
                };
                if !ok {
                    return Err(CircuitError::BadArity {
                        line: line.name.clone(),
                        kind: *kind,
                        got,
                    });
                }
            }
            if line.delay == 0 {
                return Err(CircuitError::ZeroDelay {
                    line: line.name.clone(),
                });
            }
        }

        // Structural invariants around outputs and branches.
        for (i, line) in lines.iter().enumerate() {
            let outs = fanout.row(i);
            if line.is_output && !outs.is_empty() {
                return Err(CircuitError::OutputWithFanout {
                    line: line.name.clone(),
                });
            }
            if !line.is_output && outs.is_empty() {
                return Err(CircuitError::Dangling {
                    line: line.name.clone(),
                });
            }
            // A stem whose fanout contains a branch must fan out through
            // branches exclusively, and then has >= 2 sinks.
            let branch_outs = outs
                .iter()
                .filter(|&&f| kinds[f.index()].is_branch())
                .count();
            if branch_outs > 0 && branch_outs != outs.len() {
                return Err(CircuitError::MissingBranch {
                    line: line.name.clone(),
                });
            }
        }

        let inputs: Vec<LineId> = (0..n)
            .filter(|&i| kinds[i].is_input())
            .map(LineId::new)
            .collect();
        let outputs: Vec<LineId> = (0..n)
            .filter(|&i| lines[i].is_output)
            .map(LineId::new)
            .collect();
        if inputs.is_empty() || outputs.is_empty() {
            return Err(CircuitError::Empty);
        }

        // Kahn topological sort (also detects cycles) + level assignment.
        let mut indeg: Vec<usize> = (0..n).map(|i| fanin.row(i).len()).collect();
        let mut queue: Vec<LineId> = inputs.clone();
        let mut topo: Vec<LineId> = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            topo.push(id);
            let level = lines[id.index()].level;
            for &f in fanout.row(id.index()) {
                let fl = &mut lines[f.index()];
                fl.level = fl.level.max(level + 1);
                indeg[f.index()] -= 1;
                if indeg[f.index()] == 0 {
                    queue.push(f);
                }
            }
        }
        if topo.len() != n {
            return Err(CircuitError::Cyclic);
        }

        let distance = compute_distances(&lines, &fanout, &topo);

        // The branch tables. Topological order resolves a branch of a
        // branch to the root stem too.
        let mut stem_of: Vec<LineId> = (0..n).map(LineId::new).collect();
        for &id in &topo {
            if let LineKind::Branch { stem } = kinds[id.index()] {
                stem_of[id.index()] = stem_of[stem.index()];
            }
        }
        let gates = (0..n).filter(|&i| kinds[i].is_gate());
        let readers = Csr::from_pairs(
            n,
            gates
                .flat_map(|g| fanin.row(g).iter().map(move |f| (f, LineId::new(g))))
                .map(|(f, g)| (stem_of[f.index()], g))
                .collect(),
        );

        // Relaxed is enough: the counter only needs uniqueness, not
        // ordering against any other memory.
        static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let epoch = EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed);

        Ok(Circuit {
            name,
            lines,
            kinds,
            fanin,
            fanout,
            stem_of,
            readers,
            inputs,
            outputs,
            topo,
            distance,
            epoch,
        })
    }
}

fn compute_distances(lines: &[Line], fanout: &Csr, topo: &[LineId]) -> Vec<u32> {
    let mut distance = vec![0u32; lines.len()];
    for &id in topo.iter().rev() {
        distance[id.index()] = fanout
            .row(id.index())
            .iter()
            .map(|&f| lines[f.index()].delay + distance[f.index()])
            .max()
            .unwrap_or(0);
    }
    distance
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = AND(a, b); z = branch-fanout demo:
    ///   s = OR(a2, b2) with stem s feeding branches s->g and s->out.
    fn diamond() -> Circuit {
        let mut b = CircuitBuilder::new("diamond");
        let a = b.input("a");
        let c = b.input("c");
        // a fans out to two sinks -> branches.
        let a1 = b.branch("a1", a);
        let a2 = b.branch("a2", a);
        let g1 = b.gate("g1", GateKind::And, &[a1, c]);
        let g2 = b.gate("g2", GateKind::Not, &[a2]);
        let o = b.gate("o", GateKind::Or, &[g1, g2]);
        b.mark_output(o);
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_reports_structure() {
        let c = diamond();
        assert_eq!(c.line_count(), 7);
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.gate_count(), 3);
        assert_eq!(c.branch_count(), 2);
        let o = c.find_line("o").unwrap();
        assert!(c.line(o).is_output());
        assert!(c.fanout(o).is_empty());
    }

    #[test]
    fn branch_tables_resolve_a_branch_of_a_branch_to_the_root_stem() {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("c");
        let a1 = b.branch("a1", a);
        let a2 = b.branch("a2", a);
        let a21 = b.branch("a21", a2);
        let a22 = b.branch("a22", a2);
        let g = b.gate("g", GateKind::And, &[a1, a21, c]);
        let h = b.gate("h", GateKind::Or, &[a22, g]);
        b.mark_output(h);
        let circuit = b.finish().unwrap();
        for line in [a, a1, a2, a21, a22] {
            assert_eq!(circuit.stem_of(line), a);
        }
        assert_eq!(circuit.stem_of(g), g);
        // `g` reads `a` twice, through two branches, and is listed once.
        assert_eq!(circuit.readers(a), &[g, h]);
        assert_eq!(circuit.readers(c), &[g]);
        assert!(circuit.readers(a2).is_empty());
        assert!(circuit.readers(h).is_empty());
    }

    #[test]
    fn levels_and_distances() {
        let c = diamond();
        let a = c.find_line("a").unwrap();
        let o = c.find_line("o").unwrap();
        let g1 = c.find_line("g1").unwrap();
        assert_eq!(c.line(a).level(), 0);
        assert_eq!(c.line(g1).level(), 2);
        assert_eq!(c.line(o).level(), 3);
        assert_eq!(c.distance_to_output(o), 0);
        // From a: branch (1) + gate (1) + o (1) = 3.
        assert_eq!(c.distance_to_output(a), 3);
        // Critical path: a, a1, g1, o = 4 lines.
        assert_eq!(c.critical_delay(), 4);
    }

    #[test]
    fn path_count_multiplies_along_dag() {
        let c = diamond();
        // Paths: a->a1->g1->o, a->a2->g2->o, c->g1->o.
        assert_eq!(c.path_count(), 3);
    }

    #[test]
    fn topo_order_respects_fanin() {
        let c = diamond();
        let mut pos = vec![0usize; c.line_count()];
        for (i, &id) in c.topo_order().iter().enumerate() {
            pos[id.index()] = i;
        }
        for (id, _) in c.iter() {
            for &f in c.fanin(id) {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn dangling_line_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let g = b.gate("g", GateKind::Not, &[a]);
        // g not marked output, no fanout.
        let _ = g;
        assert!(matches!(b.finish(), Err(CircuitError::Dangling { .. })));
    }

    #[test]
    fn output_with_fanout_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let g = b.gate("g", GateKind::Not, &[a]);
        let h = b.gate("h", GateKind::Not, &[g]);
        b.mark_output(g);
        b.mark_output(h);
        assert!(matches!(
            b.finish(),
            Err(CircuitError::OutputWithFanout { .. })
        ));
    }

    #[test]
    fn mixed_branch_and_direct_fanout_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let br = b.branch("a->g", a);
        let g = b.gate("g", GateKind::Not, &[br]);
        let h = b.gate("h", GateKind::Not, &[a]); // direct use of stem too
        b.mark_output(g);
        b.mark_output(h);
        assert!(matches!(
            b.finish(),
            Err(CircuitError::MissingBranch { .. })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        // Forward-reference a line that closes a loop: g -> h -> g.
        let g = b.gate("g", GateKind::And, &[a, LineId::new(2)]);
        let h = b.gate("h", GateKind::Not, &[g]);
        assert_eq!(h, LineId::new(2));
        b.mark_output(h);
        let err = b.finish();
        // h is used by g, so h has fanout; it cannot be an output then —
        // either error identifies the malformed construction.
        assert!(err.is_err());
    }

    #[test]
    fn real_cycle_detected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let g = b.gate("g", GateKind::And, &[a, LineId::new(2)]);
        let h = b.gate("h", GateKind::Not, &[g]);
        let o = b.gate("o", GateKind::Not, &[h]);
        assert_eq!(h, LineId::new(2));
        let _ = o;
        b.mark_output(o);
        // g <- h <- g is a cycle; h also feeds o.
        assert!(matches!(b.finish(), Err(CircuitError::Cyclic)));
    }

    #[test]
    fn unknown_line_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let g = b.gate("g", GateKind::And, &[a, LineId::new(99)]);
        b.mark_output(g);
        assert!(matches!(
            b.finish(),
            Err(CircuitError::UnknownLine { id: 99 })
        ));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.gate("g", GateKind::Not, &[a, c]);
        b.mark_output(g);
        assert!(matches!(b.finish(), Err(CircuitError::BadArity { .. })));
    }

    #[test]
    fn empty_rejected() {
        let b = CircuitBuilder::new("bad");
        assert!(matches!(b.finish(), Err(CircuitError::Empty)));
    }

    #[test]
    fn zero_delay_rejected() {
        let mut b = CircuitBuilder::new("bad");
        let a = b.input("a");
        let g = b.gate("g", GateKind::Not, &[a]);
        b.mark_output(g);
        b.set_delay(a, 0);
        assert!(matches!(b.finish(), Err(CircuitError::ZeroDelay { .. })));
    }

    #[test]
    fn custom_delays_change_distances() {
        let mut c = diamond();
        let a = c.find_line("a").unwrap();
        assert_eq!(c.distance_to_output(a), 3);
        // Make every gate cost 2 and branches free-ish (1).
        c.set_delays(|_, k| if k.is_gate() { 2 } else { 1 });
        // From a: branch(1) + g1(2) + o(2) = 5.
        assert_eq!(c.distance_to_output(a), 5);
        assert_eq!(c.critical_delay(), 6);
    }

    #[test]
    fn display_of_line_ids_is_one_based() {
        assert_eq!(LineId::new(0).to_string(), "1");
        assert_eq!(LineId::new(25).to_string(), "26");
    }
}
