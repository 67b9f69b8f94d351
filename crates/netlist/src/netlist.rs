//! The gate-level netlist model (named signals, gates, flip-flops).
//!
//! This is the representation `.bench` files parse into. Path delay fault
//! analysis itself runs on the expanded line-level [`Circuit`]; use
//! [`Netlist::combinational_core`] to strip sequential elements (flip-flop
//! outputs become pseudo primary inputs, flip-flop inputs pseudo primary
//! outputs) and [`Netlist::to_circuit`] to expand fanout branches.

use std::collections::{HashMap, HashSet};
use std::fmt;

use pdf_logic::GateKind;

use crate::{Circuit, CircuitBuilder, CircuitError, LineId};

/// Index of a named signal within a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(u32);

impl SignalId {
    /// The dense index of this signal.
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// What drives a signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// The signal is a primary input.
    Input,
    /// The signal is driven by the gate with the given index.
    Gate(usize),
    /// The signal is the output (`Q`) of the flip-flop with the given index.
    Dff(usize),
    /// Nothing drives the signal (invalid in a finished netlist).
    Undriven,
}

/// A logic gate instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// The gate function.
    pub kind: GateKind,
    /// Input signals, in order.
    pub inputs: Vec<SignalId>,
    /// Output signal.
    pub output: SignalId,
}

/// A D flip-flop: `q` takes the value of `d` at each clock edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dff {
    /// Data input.
    pub d: SignalId,
    /// Output.
    pub q: SignalId,
}

/// A gate-level netlist with named signals.
///
/// # Example
///
/// ```
/// use pdf_netlist::NetlistBuilder;
/// use pdf_logic::GateKind;
///
/// let mut b = NetlistBuilder::new("half_adder");
/// b.input("a").input("b").output("s").output("c");
/// b.gate(GateKind::Xor, "s", &["a", "b"]);
/// b.gate(GateKind::And, "c", &["a", "b"]);
/// let n = b.finish()?;
/// assert_eq!(n.input_count(), 2);
/// assert_eq!(n.gate_count(), 2);
/// # Ok::<(), pdf_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    signal_names: Vec<String>,
    drivers: Vec<Driver>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
}

impl Netlist {
    /// The netlist's name.
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of declared primary inputs.
    #[inline]
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of declared primary outputs.
    #[inline]
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates.
    #[inline]
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops.
    #[inline]
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Primary input signals.
    #[inline]
    #[must_use]
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary output signals.
    #[inline]
    #[must_use]
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// The gates, in declaration order.
    #[inline]
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The flip-flops, in declaration order.
    #[inline]
    #[must_use]
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// The name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    #[must_use]
    pub fn signal_name(&self, id: SignalId) -> &str {
        &self.signal_names[id.index()]
    }

    /// The driver of a signal.
    #[inline]
    #[must_use]
    pub fn driver(&self, id: SignalId) -> Driver {
        self.drivers[id.index()]
    }

    /// Looks a signal up by name.
    #[must_use]
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.signal_names
            .iter()
            .position(|n| n == name)
            .map(|i| SignalId(i as u32))
    }

    /// Extracts the combinational core: flip-flops are removed, each `Q`
    /// output becomes a pseudo primary input and each `D` input a pseudo
    /// primary output. This is "the combinational logic of" a sequential
    /// benchmark, the object the paper runs on.
    ///
    /// Pseudo inputs are appended after the real primary inputs, pseudo
    /// outputs after the real primary outputs, both in flip-flop declaration
    /// order. A combinational netlist is returned unchanged (cheap clone).
    #[must_use]
    pub fn combinational_core(&self) -> Netlist {
        if self.dffs.is_empty() {
            return self.clone();
        }
        let mut out = self.clone();
        for (i, dff) in self.dffs.iter().enumerate() {
            out.drivers[dff.q.index()] = Driver::Input;
            out.inputs.push(dff.q);
            // Avoid double-declaring an output: a D signal may already be a
            // primary output (rare but legal).
            if !out.outputs.contains(&dff.d) {
                out.outputs.push(dff.d);
            }
            let _ = i;
        }
        out.dffs.clear();
        out
    }

    /// Rewrites `XOR`/`XNOR` gates into `AND`/`OR`/`NOT` networks so that
    /// every gate has a controlling value (required by the classical robust
    /// sensitization conditions). Multi-input parity gates are folded
    /// pairwise; `a ^ b` becomes `(a & !b) | (!a & b)`.
    ///
    /// The rewrite preserves logic function but changes path structure, as
    /// is standard for path delay fault ATPG on parity-containing circuits.
    #[must_use]
    pub fn decompose_parity(&self) -> Netlist {
        if !self.gates.iter().any(|g| g.kind.is_parity()) {
            return self.clone();
        }
        let mut out = Netlist {
            name: self.name.clone(),
            signal_names: self.signal_names.clone(),
            drivers: vec![Driver::Undriven; self.signal_names.len()],
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            gates: Vec::with_capacity(self.gates.len()),
            dffs: self.dffs.clone(),
        };
        for &i in &self.inputs {
            out.drivers[i.index()] = Driver::Input;
        }
        // Preserve dff drivers.
        for (k, dff) in self.dffs.iter().enumerate() {
            out.drivers[dff.q.index()] = Driver::Dff(k);
        }
        let mut fresh = 0usize;
        for gate in &self.gates {
            // A zero-input parity gate has nothing to decompose: it is kept
            // for the line-level arity check to reject, as `AND()` is.
            if !gate.kind.is_parity() || gate.inputs.is_empty() {
                out.push_gate(gate.kind, gate.inputs.clone(), gate.output);
                continue;
            }
            // A one-input parity gate is a buffer (XOR) or an inverter
            // (XNOR); the fold below would emit nothing for it.
            if let [only] = gate.inputs[..] {
                let kind = if gate.kind == GateKind::Xnor {
                    GateKind::Not
                } else {
                    GateKind::Buf
                };
                out.push_gate(kind, vec![only], gate.output);
                continue;
            }
            // Fold the inputs pairwise with XOR cells, then invert at the
            // end for XNOR.
            let mut acc = gate.inputs[0];
            let last = gate.inputs.len() - 1;
            for (k, &b) in gate.inputs.iter().enumerate().skip(1) {
                let is_last = k == last;
                let invert_final = is_last && gate.kind == GateKind::Xnor;
                let target = if is_last && !invert_final {
                    gate.output
                } else {
                    out.fresh_signal(&mut fresh)
                };
                let na = out.fresh_signal(&mut fresh);
                let nb = out.fresh_signal(&mut fresh);
                let t1 = out.fresh_signal(&mut fresh);
                let t2 = out.fresh_signal(&mut fresh);
                out.push_gate(GateKind::Not, vec![acc], na);
                out.push_gate(GateKind::Not, vec![b], nb);
                out.push_gate(GateKind::And, vec![acc, nb], t1);
                out.push_gate(GateKind::And, vec![na, b], t2);
                out.push_gate(GateKind::Or, vec![t1, t2], target);
                if invert_final {
                    out.push_gate(GateKind::Not, vec![target], gate.output);
                    acc = gate.output;
                } else {
                    acc = target;
                }
            }
        }
        out
    }

    fn fresh_signal(&mut self, counter: &mut usize) -> SignalId {
        loop {
            let name = format!("__x{}", *counter);
            *counter += 1;
            if !self.signal_names.contains(&name) {
                let id = SignalId(self.signal_names.len() as u32);
                self.signal_names.push(name);
                self.drivers.push(Driver::Undriven);
                return id;
            }
        }
    }

    fn push_gate(&mut self, kind: GateKind, inputs: Vec<SignalId>, output: SignalId) {
        let idx = self.gates.len();
        self.drivers[output.index()] = Driver::Gate(idx);
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
    }

    /// Gate indices in topological order (drivers before users).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gates form a
    /// cycle (flip-flops legitimately break cycles and are not followed).
    pub fn gate_topo_order(&self) -> Result<Vec<usize>, NetlistError> {
        let n = self.gates.len();
        let mut indeg = vec![0usize; n];
        let mut users: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (gi, gate) in self.gates.iter().enumerate() {
            for &inp in &gate.inputs {
                if let Driver::Gate(src) = self.drivers[inp.index()] {
                    indeg[gi] += 1;
                    users[src].push(gi);
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&g| indeg[g] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            order.push(g);
            for &u in &users[g] {
                indeg[u] -= 1;
                if indeg[u] == 0 {
                    queue.push(u);
                }
            }
        }
        if order.len() != n {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(order)
    }

    /// Expands the netlist to the line-level [`Circuit`] used by path and
    /// fault analysis: every multi-sink signal fans out through explicit
    /// branch lines. Line numbering is deterministic: primary inputs in
    /// declaration order, then gate stems in topological order, then branch
    /// lines grouped by stem (gate sinks in topological order first, the
    /// primary-output sink last). A branch is named `stem->sink` (`->out`
    /// for the primary-output sink); a name already taken by a signal or
    /// an earlier branch gets the first free `#k` suffix (`a->z#2`), and
    /// since `#` starts a `.bench` comment no parsed signal can hold it.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is sequential (call
    /// [`Netlist::combinational_core`] first), contains parity gates (call
    /// [`Netlist::decompose_parity`] first if robust PDF analysis is
    /// intended — simulation-only users may keep them by passing
    /// `allow_parity` via [`Netlist::to_circuit_with`]), has undriven
    /// signals, or fails [`Circuit`] validation.
    pub fn to_circuit(&self) -> Result<Circuit, NetlistError> {
        self.to_circuit_with(false)
    }

    /// Like [`Netlist::to_circuit`], optionally allowing parity gates.
    ///
    /// # Errors
    ///
    /// See [`Netlist::to_circuit`].
    pub fn to_circuit_with(&self, allow_parity: bool) -> Result<Circuit, NetlistError> {
        if !self.dffs.is_empty() {
            return Err(NetlistError::Sequential);
        }
        // A zero-input parity gate is malformed rather than undecomposed:
        // line-level validation reports its arity.
        if !allow_parity
            && self
                .gates
                .iter()
                .any(|g| g.kind.is_parity() && !g.inputs.is_empty())
        {
            return Err(NetlistError::ParityGate);
        }
        for (i, d) in self.drivers.iter().enumerate() {
            if matches!(d, Driver::Undriven) {
                return Err(NetlistError::Undriven {
                    signal: self.signal_names[i].clone(),
                });
            }
        }
        let order = self.gate_topo_order()?;

        // sinks[signal] = gate indices consuming it (topological order,
        // repeated per use), then usize::MAX for a primary-output sink.
        let mut sinks: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.signal_names.len()];
        for &gi in &order {
            for (pos, &inp) in self.gates[gi].inputs.iter().enumerate() {
                sinks[inp.index()].push((gi, pos));
            }
        }

        let mut b = CircuitBuilder::new(self.name.clone());
        // Stem line of every signal.
        let mut stem: HashMap<usize, LineId> = HashMap::new();
        for &i in &self.inputs {
            let id = b.input(self.signal_name(i));
            stem.insert(i.index(), id);
        }
        // Gate input connections are resolved after branches exist, so
        // remember the fanin signals per gate line and patch later. Instead
        // of patching we create lines in two passes: stems first with
        // placeholder fanins is not possible, so we instead allocate in
        // topological order and create branches for a signal right after
        // its stem when all of its sinks are known (they are — sinks only
        // depend on structure).
        //
        // Order of creation: inputs (above); then for each gate in topo
        // order, its stem. Branch lines for a multi-sink signal are created
        // immediately after the stem. Because a gate's fanin signals are
        // all earlier in topological order, their stems/branches exist.
        let mut feed: HashMap<(usize, usize, usize), LineId> = HashMap::new(); // (signal, gate, pos) -> line
        let mut output_line: HashMap<usize, LineId> = HashMap::new(); // signal -> PO line
        let mut taken: HashSet<String> = self.signal_names.iter().cloned().collect();

        let mut make_fanout =
            |b: &mut CircuitBuilder,
             sig: usize,
             sid: LineId,
             name: &str,
             sinks: &[(usize, usize)],
             is_output: bool,
             feed: &mut HashMap<(usize, usize, usize), LineId>,
             output_line: &mut HashMap<usize, LineId>| {
                let total = sinks.len() + usize::from(is_output);
                if total == 1 {
                    if is_output {
                        output_line.insert(sig, sid);
                    } else {
                        let (g, pos) = sinks[0];
                        feed.insert((sig, g, pos), sid);
                    }
                } else {
                    for &(g, pos) in sinks {
                        let sink = self.signal_name(self.gates[g].output);
                        let br = b.branch(fresh_name(&mut taken, format!("{name}->{sink}")), sid);
                        feed.insert((sig, g, pos), br);
                    }
                    if is_output {
                        let br = b.branch(fresh_name(&mut taken, format!("{name}->out")), sid);
                        output_line.insert(sig, br);
                    }
                }
            };

        for &i in &self.inputs {
            let sid = stem[&i.index()];
            make_fanout(
                &mut b,
                i.index(),
                sid,
                self.signal_name(i),
                &sinks[i.index()],
                self.outputs.contains(&i),
                &mut feed,
                &mut output_line,
            );
        }
        for &gi in &order {
            let gate = &self.gates[gi];
            let fanin: Vec<LineId> = gate
                .inputs
                .iter()
                .enumerate()
                .map(|(pos, &inp)| feed[&(inp.index(), gi, pos)])
                .collect();
            let sid = b.gate(self.signal_name(gate.output), gate.kind, &fanin);
            stem.insert(gate.output.index(), sid);
            make_fanout(
                &mut b,
                gate.output.index(),
                sid,
                self.signal_name(gate.output),
                &sinks[gate.output.index()],
                self.outputs.contains(&gate.output),
                &mut feed,
                &mut output_line,
            );
        }
        for &o in &self.outputs {
            let line = output_line[&o.index()];
            b.mark_output(line);
        }
        b.finish().map_err(NetlistError::Circuit)
    }
}

/// `base` if no line holds that name yet, else `base#k` for the smallest
/// free `k >= 2`; the returned name is marked taken.
fn fresh_name(taken: &mut HashSet<String>, base: String) -> String {
    let name = if taken.contains(&base) {
        (2..)
            .map(|k| format!("{base}#{k}"))
            .find(|n| !taken.contains(n))
            .expect("some suffix is free")
    } else {
        base
    };
    taken.insert(name.clone());
    name
}

/// Error produced while building or converting a [`Netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal is driven by two sources.
    MultipleDrivers {
        /// The signal's name.
        signal: String,
    },
    /// A referenced signal is never driven.
    Undriven {
        /// The signal's name.
        signal: String,
    },
    /// The gates form a combinational cycle.
    CombinationalCycle,
    /// The netlist still contains flip-flops.
    Sequential,
    /// The netlist contains `XOR`/`XNOR` gates, which have no controlling
    /// value; decompose them first.
    ParityGate,
    /// A declared name was not defined anywhere.
    UnknownSignal {
        /// The signal's name.
        signal: String,
    },
    /// Line-level validation failed.
    Circuit(CircuitError),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { signal } => {
                write!(f, "signal `{signal}` has multiple drivers")
            }
            NetlistError::Undriven { signal } => write!(f, "signal `{signal}` is undriven"),
            NetlistError::CombinationalCycle => f.write_str("combinational cycle detected"),
            NetlistError::Sequential => {
                f.write_str("netlist is sequential; extract the combinational core first")
            }
            NetlistError::ParityGate => {
                f.write_str("netlist contains XOR/XNOR gates; decompose parity first")
            }
            NetlistError::UnknownSignal { signal } => {
                write!(f, "signal `{signal}` is referenced but never defined")
            }
            NetlistError::Circuit(e) => write!(f, "line-level validation failed: {e}"),
        }
    }
}

impl std::error::Error for NetlistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetlistError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for NetlistError {
    fn from(e: CircuitError) -> Self {
        NetlistError::Circuit(e)
    }
}

/// Builder for a [`Netlist`]; signals are referenced by name and created on
/// first use.
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    name: String,
    signal_names: Vec<String>,
    by_name: HashMap<String, SignalId>,
    drivers: Vec<Driver>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    errors: Vec<NetlistError>,
}

impl NetlistBuilder {
    /// Starts a new builder for a netlist called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            signal_names: Vec::new(),
            by_name: HashMap::new(),
            drivers: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn signal(&mut self, name: &str) -> SignalId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SignalId(self.signal_names.len() as u32);
        self.signal_names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        self.drivers.push(Driver::Undriven);
        id
    }

    fn drive(&mut self, id: SignalId, driver: Driver) {
        if matches!(self.drivers[id.index()], Driver::Undriven) {
            self.drivers[id.index()] = driver;
        } else {
            self.errors.push(NetlistError::MultipleDrivers {
                signal: self.signal_names[id.index()].clone(),
            });
        }
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: &str) -> &mut NetlistBuilder {
        let id = self.signal(name);
        self.drive(id, Driver::Input);
        self.inputs.push(id);
        self
    }

    /// Declares a primary output.
    pub fn output(&mut self, name: &str) -> &mut NetlistBuilder {
        let id = self.signal(name);
        self.outputs.push(id);
        self
    }

    /// Adds a gate driving `output` from `inputs`.
    pub fn gate(&mut self, kind: GateKind, output: &str, inputs: &[&str]) -> &mut NetlistBuilder {
        let out = self.signal(output);
        let ins: Vec<SignalId> = inputs.iter().map(|n| self.signal(n)).collect();
        let idx = self.gates.len();
        self.drive(out, Driver::Gate(idx));
        self.gates.push(Gate {
            kind,
            inputs: ins,
            output: out,
        });
        self
    }

    /// Adds a D flip-flop with output `q` and data input `d`.
    pub fn dff(&mut self, q: &str, d: &str) -> &mut NetlistBuilder {
        let qs = self.signal(q);
        let ds = self.signal(d);
        let idx = self.dffs.len();
        self.drive(qs, Driver::Dff(idx));
        self.dffs.push(Dff { d: ds, q: qs });
        self
    }

    /// Validates and produces the [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns the first recorded construction error
    /// ([`NetlistError::MultipleDrivers`]) or an
    /// [`NetlistError::Undriven`]/[`NetlistError::CombinationalCycle`]
    /// discovered during validation.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let NetlistBuilder {
            name,
            signal_names,
            by_name: _,
            drivers,
            inputs,
            outputs,
            gates,
            dffs,
            errors,
        } = self;
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        for (i, d) in drivers.iter().enumerate() {
            if matches!(d, Driver::Undriven) {
                return Err(NetlistError::Undriven {
                    signal: signal_names[i].clone(),
                });
            }
        }
        let netlist = Netlist {
            name,
            signal_names,
            drivers,
            inputs,
            outputs,
            gates,
            dffs,
        };
        netlist.gate_topo_order()?;
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineKind;

    fn tiny_seq() -> Netlist {
        // out = NOT(q); d_in = AND(a, q)
        let mut b = NetlistBuilder::new("tiny");
        b.input("a").output("out");
        b.gate(GateKind::Not, "out", &["q"]);
        b.gate(GateKind::And, "d_in", &["a", "q"]);
        b.dff("q", "d_in");
        b.finish().unwrap()
    }

    #[test]
    fn sequential_roundtrip_to_core() {
        let n = tiny_seq();
        assert_eq!(n.dff_count(), 1);
        let core = n.combinational_core();
        assert_eq!(core.dff_count(), 0);
        assert_eq!(core.input_count(), 2); // a + q
        assert_eq!(core.output_count(), 2); // out + d_in
        let q = core.find_signal("q").unwrap();
        assert_eq!(core.driver(q), Driver::Input);
    }

    #[test]
    fn to_circuit_rejects_sequential() {
        let n = tiny_seq();
        assert!(matches!(n.to_circuit(), Err(NetlistError::Sequential)));
        assert!(n.combinational_core().to_circuit().is_ok());
    }

    #[test]
    fn branch_expansion_counts() {
        // q fans out to both gates in the core: expect branch lines.
        let c = tiny_seq().combinational_core().to_circuit().unwrap();
        // Lines: a, q (inputs); out, d_in (gates); q->out, q->d_in (branches).
        assert_eq!(c.line_count(), 6);
        assert_eq!(c.branch_count(), 2);
        let q = c.find_line("q").unwrap();
        assert_eq!(c.fanout(q).len(), 2);
        for &f in c.fanout(q) {
            assert!(matches!(c.kind(f), LineKind::Branch { stem } if *stem == q));
        }
    }

    #[test]
    fn single_sink_signal_connects_directly() {
        let mut b = NetlistBuilder::new("chain");
        b.input("a").output("z");
        b.gate(GateKind::Not, "m", &["a"]);
        b.gate(GateKind::Not, "z", &["m"]);
        let c = b.finish().unwrap().to_circuit().unwrap();
        assert_eq!(c.branch_count(), 0);
        assert_eq!(c.line_count(), 3);
    }

    #[test]
    fn output_that_also_fans_out_gets_output_branch() {
        // m is both a primary output and feeds z.
        let mut b = NetlistBuilder::new("share");
        b.input("a").output("m").output("z");
        b.gate(GateKind::Not, "m", &["a"]);
        b.gate(GateKind::Not, "z", &["m"]);
        let c = b.finish().unwrap().to_circuit().unwrap();
        // a, m, z + branches m->z and m->out.
        assert_eq!(c.line_count(), 5);
        assert_eq!(c.branch_count(), 2);
        let po = c.find_line("m->out").unwrap();
        assert!(c.line(po).is_output());
        let m = c.find_line("m").unwrap();
        assert!(!c.line(m).is_output());
    }

    /// Every line name of `c` is distinct.
    fn names_unique(c: &Circuit) -> bool {
        let names: HashSet<&str> = c.iter().map(|(_, l)| l.name()).collect();
        names.len() == c.line_count()
    }

    #[test]
    fn repeated_fanin_gets_distinct_branch_names() {
        // z = AND(a, a): two branches of `a` both feed `z`.
        let mut b = NetlistBuilder::new("twice");
        b.input("a").output("z");
        b.gate(GateKind::And, "z", &["a", "a"]);
        let c = b.finish().unwrap().to_circuit().unwrap();
        assert!(names_unique(&c));
        let first = c.find_line("a->z").unwrap();
        let second = c.find_line("a->z#2").unwrap();
        assert_eq!(c.fanin(c.find_line("z").unwrap()), &[first, second]);
    }

    #[test]
    fn output_branch_does_not_collide_with_a_gate_named_out() {
        // `a` is a primary output and feeds a gate called `out`: both the
        // gate sink and the output sink would be `a->out`.
        let mut b = NetlistBuilder::new("out-gate");
        b.input("a").input("c").output("a").output("out");
        b.gate(GateKind::And, "out", &["a", "c"]);
        let c = b.finish().unwrap().to_circuit().unwrap();
        assert!(names_unique(&c));
        let to_gate = c.find_line("a->out").unwrap();
        let to_po = c.find_line("a->out#2").unwrap();
        assert!(!c.line(to_gate).is_output());
        assert!(c.line(to_po).is_output());
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a").output("z");
        b.gate(GateKind::Not, "z", &["a"]);
        b.gate(GateKind::Buf, "z", &["a"]);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn undriven_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a").output("z");
        b.gate(GateKind::And, "z", &["a", "ghost"]);
        match b.finish() {
            Err(NetlistError::Undriven { signal }) => assert_eq!(signal, "ghost"),
            other => panic!("expected undriven error, got {other:?}"),
        }
    }

    #[test]
    fn cycle_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a").output("z");
        b.gate(GateKind::And, "p", &["a", "q"]);
        b.gate(GateKind::Not, "q", &["p"]);
        b.gate(GateKind::Buf, "z", &["q"]);
        assert!(matches!(b.finish(), Err(NetlistError::CombinationalCycle)));
    }

    #[test]
    fn parity_gate_refused_then_decomposed() {
        let mut b = NetlistBuilder::new("par");
        b.input("a").input("b").output("z");
        b.gate(GateKind::Xor, "z", &["a", "b"]);
        let n = b.finish().unwrap();
        assert!(matches!(n.to_circuit(), Err(NetlistError::ParityGate)));
        assert!(n.to_circuit_with(true).is_ok());
        let d = n.decompose_parity();
        assert!(d.gates().iter().all(|g| !g.kind.is_parity()));
        assert!(d.to_circuit().is_ok());
        // XOR pair -> 2 NOT + 2 AND + 1 OR.
        assert_eq!(d.gate_count(), 5);
    }

    #[test]
    fn xnor_decomposition_inverts() {
        let mut b = NetlistBuilder::new("par");
        b.input("a").input("b").output("z");
        b.gate(GateKind::Xnor, "z", &["a", "b"]);
        let d = b.finish().unwrap().decompose_parity();
        assert_eq!(d.gate_count(), 6); // XOR cell + final NOT
        assert!(d.to_circuit().is_ok());
    }

    #[test]
    fn one_input_parity_gates_become_buffer_and_inverter() {
        let mut b = NetlistBuilder::new("par1");
        b.input("a").output("z").output("w");
        b.gate(GateKind::Xor, "z", &["a"]);
        b.gate(GateKind::Xnor, "y", &["a"]);
        b.gate(GateKind::And, "w", &["y", "a"]);
        let d = b.finish().unwrap().decompose_parity();
        let kinds: Vec<GateKind> = d.gates().iter().map(|g| g.kind).collect();
        assert_eq!(kinds, [GateKind::Buf, GateKind::Not, GateKind::And]);
        assert!(d.to_circuit().is_ok());
    }

    #[test]
    fn zero_input_parity_gates_fail_the_arity_check() {
        for kind in [GateKind::Xor, GateKind::Xnor] {
            let mut b = NetlistBuilder::new("par0");
            b.input("a").output("z").output("w");
            b.gate(kind, "z", &[]);
            b.gate(GateKind::Buf, "w", &["a"]);
            let n = b.finish().unwrap();
            for result in [n.to_circuit(), n.decompose_parity().to_circuit()] {
                assert!(
                    matches!(
                        result,
                        Err(NetlistError::Circuit(CircuitError::BadArity { kind: k, got: 0, .. }))
                            if k == kind
                    ),
                    "{kind}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn three_input_xor_folds_pairwise() {
        let mut b = NetlistBuilder::new("par3");
        b.input("a").input("b").input("c").output("z");
        b.gate(GateKind::Xor, "z", &["a", "b", "c"]);
        let d = b.finish().unwrap().decompose_parity();
        assert_eq!(d.gate_count(), 10); // two XOR cells
        assert!(d.to_circuit().is_ok());
    }
}
