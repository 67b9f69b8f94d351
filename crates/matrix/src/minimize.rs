//! abi-cafe-style greedy auto-minimization of a failing matrix cell.
//!
//! Given a violation and the netlist its circuit came from, the minimizer
//! deterministically shrinks both the circuit (drop outputs, bypass
//! gates, drop dead inputs) and the cell configurations (reset axes
//! toward defaults) while the failure keeps reproducing, and returns the
//! smallest reproducer it reaches. Every step is a plain greedy
//! try-and-revert, so two runs over the same violation produce the same
//! artifact regardless of worker count — the minimizer itself is
//! sequential.

use std::collections::BTreeSet;

use pdf_logic::GateKind;
use pdf_netlist::{Circuit, Netlist, NetlistBuilder};

use crate::cell::{CellConfig, RunMode};
use crate::invariants::Invariant;

/// An editable netlist mirror the shrink passes mutate by name.
#[derive(Clone, Debug)]
struct MiniNetlist {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    /// `(kind, output signal, input signals)`.
    gates: Vec<(GateKind, String, Vec<String>)>,
}

impl MiniNetlist {
    /// Mirrors a combinational netlist. Sequential netlists (flip-flops)
    /// are not shrinkable; callers fall back to config-only shrinking.
    fn from_netlist(netlist: &Netlist) -> Option<MiniNetlist> {
        if netlist.dff_count() != 0 {
            return None;
        }
        let name_of = |id| netlist.signal_name(id).to_owned();
        Some(MiniNetlist {
            name: netlist.name().to_owned(),
            inputs: netlist.inputs().iter().map(|&i| name_of(i)).collect(),
            outputs: netlist.outputs().iter().map(|&o| name_of(o)).collect(),
            gates: netlist
                .gates()
                .iter()
                .map(|g| {
                    (
                        g.kind,
                        name_of(g.output),
                        g.inputs.iter().map(|&i| name_of(i)).collect(),
                    )
                })
                .collect(),
        })
    }

    fn to_netlist(&self) -> Option<Netlist> {
        let mut b = NetlistBuilder::new(self.name.clone());
        for i in &self.inputs {
            b.input(i);
        }
        for o in &self.outputs {
            b.output(o);
        }
        for (kind, out, ins) in &self.gates {
            let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
            b.gate(*kind, out, &ins);
        }
        b.finish().ok()
    }

    fn to_circuit(&self) -> Option<Circuit> {
        self.to_netlist()?.to_circuit().ok()
    }

    fn size(&self) -> usize {
        self.inputs.len() + self.outputs.len() + self.gates.len()
    }

    /// Signals read by any gate or listed as an output.
    fn used_signals(&self) -> BTreeSet<String> {
        self.gates
            .iter()
            .flat_map(|(_, _, ins)| ins.iter().cloned())
            .chain(self.outputs.iter().cloned())
            .collect()
    }

    /// Removes gates whose output feeds neither another gate nor an
    /// output, to a fixpoint.
    fn prune_dead_gates(&mut self) {
        loop {
            let used = self.used_signals();
            let before = self.gates.len();
            self.gates.retain(|(_, out, _)| used.contains(out));
            if self.gates.len() == before {
                return;
            }
        }
    }

    /// Removes inputs no gate and no output reads (keeping at least one:
    /// a circuit with no inputs has no paths to enumerate).
    fn prune_dead_inputs(&mut self) {
        let used = self.used_signals();
        let kept: Vec<String> = self
            .inputs
            .iter()
            .filter(|i| used.contains(*i))
            .cloned()
            .collect();
        if !kept.is_empty() {
            self.inputs = kept;
        } else if let Some(first) = self.inputs.first().cloned() {
            self.inputs = vec![first];
        }
    }
}

/// The smallest reproducer the minimizer reached.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The shrunk circuit as `.bench` text (`None` when the circuit could
    /// not be shrunk — sequential netlist, no netlist source, or a
    /// failure that only reproduces on the original [`Circuit`]).
    pub bench: Option<String>,
    /// The shrunk witness cells.
    pub cells: Vec<CellConfig>,
    /// The failure detail of the final reproduction.
    pub detail: String,
}

/// The probe the minimizer drives: re-runs `cells` on `circuit` and
/// returns the failure detail when the given invariant family still
/// fails. Implemented by the runner so the injection hook stays applied.
pub type FailureProbe<'p> = dyn Fn(&Circuit, &[CellConfig], Invariant) -> Option<String> + 'p;

/// Greedily minimizes a failing scenario.
///
/// `circuit` is the original circuit the violation was observed on;
/// `netlist` is its structural source when one exists (enables circuit
/// shrinking); `cells` are the witness cells; `probe` re-runs them. The
/// result is deterministic: passes run in a fixed order, candidates are
/// tried in a fixed order, and each candidate is kept exactly when the
/// probe still fails.
#[must_use]
pub fn minimize(
    circuit: &Circuit,
    netlist: Option<&Netlist>,
    cells: &[CellConfig],
    invariant: Invariant,
    detail: &str,
    probe: &FailureProbe<'_>,
) -> Minimized {
    let mut cells = cells.to_vec();
    let mut detail = detail.to_owned();

    // Circuit shrink, when a combinational netlist reproduces the failure.
    let mut mini = netlist.and_then(MiniNetlist::from_netlist).filter(|m| {
        m.to_circuit()
            .is_some_and(|c| probe(&c, &cells, invariant).is_some())
    });
    if let Some(mini) = &mut mini {
        let still_fails = |candidate: &MiniNetlist, cells: &[CellConfig]| -> Option<String> {
            let circuit = candidate.to_circuit()?;
            probe(&circuit, cells, invariant)
        };
        // Up to three rounds of the three structural passes: dropping an
        // output often unlocks gate bypasses and vice versa.
        for _ in 0..3 {
            let before = mini.size();

            // Pass 1: drop outputs (cone-pruning the gates they carried).
            let mut oi = 0;
            while mini.outputs.len() > 1 && oi < mini.outputs.len() {
                let mut candidate = mini.clone();
                candidate.outputs.remove(oi);
                candidate.prune_dead_gates();
                candidate.prune_dead_inputs();
                if let Some(d) = still_fails(&candidate, &cells) {
                    *mini = candidate;
                    detail = d;
                } else {
                    oi += 1;
                }
            }

            // Pass 2: bypass gates — route each gate's first input in
            // place of its output everywhere (strictly upstream, so the
            // rewrite can never create a cycle) and drop the gate.
            let mut gi = mini.gates.len();
            while gi > 0 {
                gi -= 1;
                let (_, out, ins) = &mini.gates[gi];
                let Some(replacement) = ins.first().cloned() else {
                    continue;
                };
                let out = out.clone();
                let mut candidate = mini.clone();
                candidate.gates.remove(gi);
                for (_, _, ins) in &mut candidate.gates {
                    for i in ins {
                        if *i == out {
                            *i = replacement.clone();
                        }
                    }
                }
                for o in &mut candidate.outputs {
                    if *o == out {
                        *o = replacement.clone();
                    }
                }
                // The rewrite can alias two outputs onto one signal;
                // duplicate outputs would double-count paths.
                let mut seen = BTreeSet::new();
                candidate.outputs.retain(|o| seen.insert(o.clone()));
                candidate.prune_dead_gates();
                candidate.prune_dead_inputs();
                if let Some(d) = still_fails(&candidate, &cells) {
                    *mini = candidate;
                    gi = gi.min(mini.gates.len());
                    detail = d;
                }
            }

            // Pass 3: drop inputs nothing reads any more.
            let mut candidate = mini.clone();
            candidate.prune_dead_inputs();
            if candidate.size() < mini.size() {
                if let Some(d) = still_fails(&candidate, &cells) {
                    *mini = candidate;
                    detail = d;
                }
            }

            if mini.size() == before {
                break;
            }
        }
    }

    // Config shrink: reset each axis of each cell toward the default
    // cell, keeping a reset exactly when the failure survives it. Probe
    // against the shrunk circuit when one exists, else the original.
    let shrunk_circuit = mini.as_ref().and_then(MiniNetlist::to_circuit);
    let probe_circuit = shrunk_circuit.as_ref().unwrap_or(circuit);
    let default = CellConfig::default_cell();
    for i in 0..cells.len() {
        type Reset = fn(&mut CellConfig, &CellConfig);
        let resets: [Reset; 9] = [
            |c, _| c.faults = None,
            |c, d| c.threads = d.threads,
            |c, _| c.budget_minutes = None,
            |c, _| c.run_mode = RunMode::Direct,
            |c, d| c.learning = d.learning,
            |c, d| c.sensitize = d.sensitize,
            |c, d| c.compaction = d.compaction,
            |c, d| c.k = d.k,
            |c, d| {
                c.n_p = d.n_p;
                c.n_p0 = d.n_p0;
            },
        ];
        for reset in resets {
            let mut candidate = cells.clone();
            reset(&mut candidate[i], &default);
            if candidate[i] == cells[i] {
                continue;
            }
            if let Some(d) = probe(probe_circuit, &candidate, invariant) {
                cells = candidate;
                detail = d;
            }
        }
    }

    Minimized {
        bench: mini
            .as_ref()
            .and_then(MiniNetlist::to_netlist)
            .map(|n| pdf_netlist::to_bench_string(&n)),
        cells,
        detail,
    }
}

/// Resolves the netlist behind a circuit name, when one exists: the
/// embedded `s27` netlist (combinational core) or a synthetic stand-in.
#[must_use]
pub fn netlist_by_name(name: &str) -> Option<Netlist> {
    if name == "s27" {
        return Some(pdf_netlist::iscas::s27_netlist().combinational_core());
    }
    pdf_netlist::stand_in_profile(name).map(|p| p.generate())
}
