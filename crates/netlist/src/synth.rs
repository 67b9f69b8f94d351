//! Seeded synthetic benchmark circuits.
//!
//! The paper evaluates on the combinational cores of ISCAS-89 and ITC-99
//! benchmarks. Those netlists are not redistributable inside this
//! repository (and are unavailable offline), so the experiment harness
//! substitutes **deterministic synthetic stand-ins**: layered random DAGs
//! of unate gates whose profile — input/output counts, gate count, logic
//! depth, and the density of near-critical path lengths — is tuned per
//! circuit so that the paper's parameters (`N_P = 10000`, `N_P0 = 1000`)
//! bind the same way they do on the originals. The `s27` used throughout
//! the paper's worked examples *is* reproduced exactly (see
//! [`iscas::s27`](crate::iscas::s27)).
//!
//! Generation is fully deterministic: a [`SynthProfile`] plus its embedded
//! seed always produces the identical netlist, on every platform.

use pdf_logic::GateKind;

use crate::{Circuit, Netlist, NetlistBuilder, SplitMix64};

/// Parameters of the synthetic circuit generator.
///
/// # Example
///
/// ```
/// use pdf_netlist::SynthProfile;
///
/// let profile = SynthProfile::new("tiny", 7)
///     .with_inputs(8)
///     .with_gates(40)
///     .with_levels(6);
/// let netlist = profile.generate();
/// assert_eq!(netlist.input_count(), 8);
/// assert!(netlist.to_circuit().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct SynthProfile {
    name: String,
    seed: u64,
    inputs: usize,
    gates: usize,
    levels: usize,
    adjacent_bias: f64,
    arity3_share: f64,
    inverter_share: f64,
    pi_bias: f64,
    redundant_gadgets: usize,
}

impl SynthProfile {
    /// Starts a profile with reasonable small defaults (16 inputs, 100
    /// gates, 10 levels).
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> SynthProfile {
        SynthProfile {
            name: name.into(),
            seed,
            inputs: 16,
            gates: 100,
            levels: 10,
            adjacent_bias: 0.8,
            arity3_share: 0.2,
            inverter_share: 0.1,
            pi_bias: 0.3,
            redundant_gadgets: 0,
        }
    }

    /// Sets the number of primary inputs.
    #[must_use]
    pub fn with_inputs(mut self, inputs: usize) -> SynthProfile {
        self.inputs = inputs.max(2);
        self
    }

    /// Sets the number of gates.
    #[must_use]
    pub fn with_gates(mut self, gates: usize) -> SynthProfile {
        self.gates = gates.max(1);
        self
    }

    /// Sets the number of logic levels (depth of the gate DAG).
    #[must_use]
    pub fn with_levels(mut self, levels: usize) -> SynthProfile {
        self.levels = levels.max(1);
        self
    }

    /// Sets the probability that a non-primary fanin is drawn from the
    /// immediately preceding level instead of a uniformly random earlier
    /// one. High values produce long chains and a dense spectrum of
    /// near-critical path lengths — the regime the paper's enrichment
    /// targets.
    #[must_use]
    pub fn with_adjacent_bias(mut self, p: f64) -> SynthProfile {
        self.adjacent_bias = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the share of 3-input gates (the rest are 2-input, except
    /// inverters).
    #[must_use]
    pub fn with_arity3_share(mut self, p: f64) -> SynthProfile {
        self.arity3_share = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the share of single-input gates (`NOT`, occasionally `BUF`).
    #[must_use]
    pub fn with_inverter_share(mut self, p: f64) -> SynthProfile {
        self.inverter_share = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that a non-first fanin connects directly to a
    /// primary input. Real benchmark circuits hang wide, shallow side
    /// logic off their data paths; side inputs controllable straight from
    /// the primary inputs are what keeps long paths *robustly testable*.
    /// Very low values produce densely reconvergent circuits whose long
    /// paths are almost all robust-untestable.
    #[must_use]
    pub fn with_pi_bias(mut self, p: f64) -> SynthProfile {
        self.pi_bias = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the number of injected *redundancy gadgets* (default 0).
    ///
    /// The clean layered DAGs this generator produces are structurally
    /// irredundant: essentially every fault that survives the static
    /// elimination rules is genuinely testable. Real benchmark circuits
    /// are not like that — large fractions of their path delay faults are
    /// untestable for reasons that only reconvergent case analysis can
    /// expose. Each gadget adds that character back with seven new gates:
    ///
    /// ```text
    /// ns = NOT s            u  = AND(s, ns)        (u ≡ 0, redundantly)
    /// o1 = OR(s, u, a)      o2 = OR(ns, u, a)
    /// z  = AND(o1, o2)                             (z ≡ a, redundantly)
    /// g1 = OR(w, a)         g2 = AND(g1, z)        (g2 a new output)
    /// ```
    ///
    /// where `s`, `a`, and `w` are existing signals (`w` from the deepest
    /// level, so paths through the gadget rank among the longest). Every
    /// path through `g2`'s side `w` requires off-path `a` stable 0 and
    /// off-path `z` stable 1 — unsatisfiable since `z ≡ a`, yet invisible
    /// to direct implication: justifying `o1 = 1` or `o2 = 1` under
    /// `a = 0` stalls on two unknowns (`s`/`ns` and `u`), so no
    /// contradiction is ever reached without splitting on `s`. Existing
    /// gates keep their functions; only fanout is added.
    #[must_use]
    pub fn with_redundant_gadgets(mut self, n: usize) -> SynthProfile {
        self.redundant_gadgets = n;
        self
    }

    /// The profile's name, used as the generated netlist's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Generates the netlist. Deterministic: equal profiles yield equal
    /// netlists.
    #[must_use]
    pub fn generate(&self) -> Netlist {
        let mut rng = SplitMix64::new(self.seed);
        let mut b = NetlistBuilder::new(self.name.clone());

        // Level 0: primary inputs.
        let input_names: Vec<String> = (0..self.inputs).map(|i| format!("i{i}")).collect();
        for n in &input_names {
            b.input(n);
        }
        let mut by_level: Vec<Vec<String>> = vec![input_names];

        // Distribute gates across levels: every level gets a base share,
        // later levels taper slightly (outputs funnel).
        let levels = self.levels.min(self.gates);
        let mut widths = vec![self.gates / levels; levels];
        for w in widths.iter_mut() {
            debug_assert!(*w > 0 || self.gates < levels);
        }
        let mut remainder = self.gates - widths.iter().sum::<usize>();
        while remainder > 0 {
            let l = rng.next_below(levels);
            widths[l] += 1;
            remainder -= 1;
        }
        // Guarantee at least one gate per level so the depth target holds.
        for l in 0..levels {
            if widths[l] == 0 {
                let donor = (0..levels)
                    .max_by_key(|&k| widths[k])
                    .expect("levels is non-zero");
                if widths[donor] > 1 {
                    widths[donor] -= 1;
                    widths[l] += 1;
                }
            }
        }

        // Each primary input gets a preferred polarity, like the
        // active-high/active-low control signals of real designs. A gate
        // that takes primary-input side fanins draws them only from inputs
        // whose preference matches the gate's non-controlling value —
        // otherwise one input required stable-1 as the off-path of one
        // gate and stable-0 as the off-path of another makes every long
        // path through both trivially robust-untestable, and with dozens
        // of side inputs per path the birthday bound kills the entire
        // long-path fault population.
        let high_pref: Vec<String> = (0..self.inputs)
            .filter(|_| rng.next_bool())
            .map(|i| format!("i{i}"))
            .collect();
        let (high_pref, low_pref): (Vec<String>, Vec<String>) = {
            let mut high = Vec::new();
            let mut low = Vec::new();
            for i in 0..self.inputs {
                let name = format!("i{i}");
                if high_pref.contains(&name) {
                    high.push(name);
                } else {
                    low.push(name);
                }
            }
            // Guarantee both pools are usable.
            if high.is_empty() {
                high.push(low.pop().expect("at least two inputs"));
            }
            if low.is_empty() {
                low.push(high.pop().expect("at least two inputs"));
            }
            (high, low)
        };

        let mut used = std::collections::HashSet::<String>::new();
        let mut gate_no = 0usize;
        for (lvl_idx, &width) in widths.iter().enumerate() {
            let level = lvl_idx + 1;
            let mut this_level = Vec::with_capacity(width);
            for _ in 0..width {
                let name = format!("n{gate_no}");
                gate_no += 1;
                let arity = if rng.chance(self.inverter_share) {
                    1
                } else if rng.chance(self.arity3_share) {
                    3
                } else {
                    2
                };
                let kind = match arity {
                    1 => {
                        if rng.chance(0.8) {
                            GateKind::Not
                        } else {
                            GateKind::Buf
                        }
                    }
                    _ => *rng.pick(&[GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor]),
                };
                // The pool of primary inputs whose preferred stable value
                // is this gate's non-controlling value.
                let pi_pool = match kind.noncontrolling_value() {
                    Some(pdf_logic::Value::One) => &high_pref,
                    Some(pdf_logic::Value::Zero) => &low_pref,
                    _ => &high_pref,
                };
                let mut fanin: Vec<String> = Vec::with_capacity(arity);
                // First fanin from the previous level keeps the level honest.
                fanin.push(rng.pick(&by_level[level - 1]).clone());
                while fanin.len() < arity {
                    // Extra fanins are the future *off-path* inputs of long
                    // paths. Robust testability requires them to be
                    // stabilizable, so besides the adjacent-level share
                    // they come from polarity-matched primary inputs or
                    // shallow side logic (levels close to the inputs),
                    // mirroring the control signals that feed the data
                    // paths of real circuits.
                    let cand = if rng.chance(self.pi_bias) {
                        rng.pick(pi_pool).clone()
                    } else if rng.chance(self.adjacent_bias) {
                        rng.pick(&by_level[level - 1]).clone()
                    } else {
                        let src_level = rng.next_below(level.min(4));
                        rng.pick(&by_level[src_level]).clone()
                    };
                    if !fanin.contains(&cand) {
                        fanin.push(cand);
                    } else {
                        // Collision: fall back to any earlier level.
                        let alt_level = rng.next_below(level);
                        let alt = rng.pick(&by_level[alt_level]).clone();
                        if !fanin.contains(&alt) {
                            fanin.push(alt);
                        } else {
                            break; // accept reduced arity rather than loop
                        }
                    }
                }
                let refs: Vec<&str> = fanin.iter().map(String::as_str).collect();
                b.gate(kind, &name, &refs);
                for f in &fanin {
                    used.insert(f.clone());
                }
                this_level.push(name);
            }
            by_level.push(this_level);
        }

        // Redundancy gadgets (see `with_redundant_gadgets`): an obfuscated
        // buffer `z ≡ a` plus a carrier pair that pins `a` and `z` to
        // conflicting off-path requirements on every path through `g2`'s
        // `w` side. Drawn after the main body so profiles with zero
        // gadgets consume an identical random stream.
        for gi in 0..self.redundant_gadgets {
            let draw = |rng: &mut SplitMix64, shallow: bool| -> String {
                let level = if shallow {
                    rng.next_below(levels / 2 + 1)
                } else {
                    levels
                };
                rng.pick(&by_level[level]).clone()
            };
            let s = draw(&mut rng, true);
            let a = {
                let mut a = draw(&mut rng, true);
                for _ in 0..8 {
                    if a != s {
                        break;
                    }
                    a = draw(&mut rng, true);
                }
                a
            };
            let w = {
                let mut w = draw(&mut rng, false);
                for _ in 0..8 {
                    if w != s && w != a {
                        break;
                    }
                    w = draw(&mut rng, false);
                }
                w
            };
            if a == s || w == s || w == a {
                continue; // degenerate draw (tiny circuit): skip the gadget
            }
            let n = |part: &str| format!("red{gi}_{part}");
            let (ns, u, o1, o2, z, g1, g2) =
                (n("ns"), n("u"), n("o1"), n("o2"), n("z"), n("g1"), n("g2"));
            b.gate(GateKind::Not, &ns, &[&s]);
            b.gate(GateKind::And, &u, &[&s, &ns]);
            b.gate(GateKind::Or, &o1, &[&s, &u, &a]);
            b.gate(GateKind::Or, &o2, &[&ns, &u, &a]);
            b.gate(GateKind::And, &z, &[&o1, &o2]);
            b.gate(GateKind::Or, &g1, &[&w, &a]);
            b.gate(GateKind::And, &g2, &[&g1, &z]);
            b.output(&g2);
            for sig in [s, a, w] {
                used.insert(sig);
            }
        }

        // Unused primary inputs: mop them up through fresh OR gates so the
        // line-level invariant (every non-output line has fanout) holds.
        let mut mop = 0usize;
        for i in 0..self.inputs {
            let name = format!("i{i}");
            if !used.contains(&name) {
                let partner = by_level[levels][rng.next_below(by_level[levels].len())].clone();
                let mop_name = format!("mop{mop}");
                mop += 1;
                b.gate(GateKind::Or, &mop_name, &[&name, &partner]);
                used.insert(name);
                used.insert(partner);
                b.output(&mop_name);
            }
        }

        // Every unused gate output becomes a primary output.
        for level in by_level.iter().skip(1) {
            for g in level {
                if !used.contains(g) {
                    b.output(g);
                }
            }
        }

        b.finish()
            .expect("generated netlist is valid by construction")
    }
}

/// A named stand-in profile for one of the paper's benchmark circuits.
///
/// Returns `None` for unknown names. Recognized names: `s641`, `s953`,
/// `s1196`, `s1423`, `s1488`, `b03`, `b04`, `b09`, `s1423*`, `s5378*`,
/// `s9234*` (the `*` variants model the resynthesized circuits of the
/// paper's reference \[13\]).
///
/// Any recognized name also accepts a `+r` suffix (e.g. `b03+r`): the
/// same profile with redundancy gadgets injected
/// ([`SynthProfile::with_redundant_gadgets`], one per ~120 gates, at
/// least two). The plain stand-ins are structurally irredundant, which
/// real benchmarks are not; the `+r` variants restore a population of
/// genuinely untestable faults that only case-splitting static analysis
/// can eliminate.
///
/// Gate counts for the two largest stand-ins (`s5378*`, `s9234*`) are
/// scaled to roughly half of the originals to keep full-table regeneration
/// tractable on one core; the long-path fault populations still exceed the
/// paper's `N_P0 = 1000` threshold, which is what the experiments bind on.
#[must_use]
pub fn stand_in_profile(name: &str) -> Option<SynthProfile> {
    if let Some(base) = name.strip_suffix("+r") {
        let p = stand_in_profile(base)?;
        let gadgets = (p.gates / 120).max(2);
        let mut p = p.with_redundant_gadgets(gadgets);
        p.name = name.to_string();
        return Some(p);
    }
    let p = match name {
        // ISCAS-89 cores. Depth/bias tuned so the cumulative fault counts
        // N_p(L_i) cross 1000 after roughly the paper's i0 length classes.
        "s641" => SynthProfile::new("s641", 0x641)
            .with_inputs(54)
            .with_gates(400)
            .with_levels(42)
            .with_adjacent_bias(0.05)
            .with_arity3_share(0.10)
            .with_inverter_share(0.18)
            .with_pi_bias(0.85),
        "s953" => SynthProfile::new("s953", 0x953)
            .with_inputs(45)
            .with_gates(440)
            .with_levels(18)
            .with_adjacent_bias(0.25)
            .with_arity3_share(0.20)
            .with_inverter_share(0.10)
            .with_pi_bias(0.5),
        "s1196" => SynthProfile::new("s1196", 0x1196)
            .with_inputs(32)
            .with_gates(550)
            .with_levels(24)
            .with_adjacent_bias(0.05)
            .with_arity3_share(0.25)
            .with_inverter_share(0.08)
            .with_pi_bias(0.8),
        "s1423" => SynthProfile::new("s1423", 0x1423)
            .with_inputs(91)
            .with_gates(660)
            .with_levels(48)
            .with_adjacent_bias(0.04)
            .with_arity3_share(0.12)
            .with_inverter_share(0.15)
            .with_pi_bias(0.88),
        "s1488" => SynthProfile::new("s1488", 0x1488)
            .with_inputs(14)
            .with_gates(650)
            .with_levels(11)
            .with_adjacent_bias(0.25)
            .with_arity3_share(0.30)
            .with_inverter_share(0.05)
            .with_pi_bias(0.55),
        // ITC-99 cores.
        "b03" => SynthProfile::new("b03", 0xB03)
            .with_inputs(34)
            .with_gates(160)
            .with_levels(13)
            .with_adjacent_bias(0.45)
            .with_arity3_share(0.18)
            .with_inverter_share(0.12)
            .with_pi_bias(0.5),
        "b04" => SynthProfile::new("b04", 0xB04)
            .with_inputs(77)
            .with_gates(650)
            .with_levels(16)
            .with_adjacent_bias(0.35)
            .with_arity3_share(0.25)
            .with_inverter_share(0.08)
            .with_pi_bias(0.45),
        "b09" => SynthProfile::new("b09", 0xB09)
            .with_inputs(29)
            .with_gates(160)
            .with_levels(10)
            .with_adjacent_bias(0.4)
            .with_arity3_share(0.20)
            .with_inverter_share(0.10)
            .with_pi_bias(0.5),
        // Resynthesized, more testable versions (paper's reference [13]).
        "s1423*" => SynthProfile::new("s1423*", 0x1423F)
            .with_inputs(91)
            .with_gates(700)
            .with_levels(30)
            .with_adjacent_bias(0.05)
            .with_arity3_share(0.15)
            .with_inverter_share(0.10)
            .with_pi_bias(0.85),
        "s5378*" => SynthProfile::new("s5378*", 0x5378F)
            .with_inputs(120)
            .with_gates(1000)
            .with_levels(18)
            .with_adjacent_bias(0.3)
            .with_arity3_share(0.20)
            .with_inverter_share(0.10)
            .with_pi_bias(0.5),
        "s9234*" => SynthProfile::new("s9234*", 0x9234F)
            .with_inputs(140)
            .with_gates(1200)
            .with_levels(20)
            .with_adjacent_bias(0.3)
            .with_arity3_share(0.20)
            .with_inverter_share(0.10)
            .with_pi_bias(0.5),
        _ => return None,
    };
    Some(p)
}

/// Resolves a circuit name: the paper's exact `s27`, otherwise a
/// benchmark stand-in ([`stand_in_profile`]). `None` for any other name.
///
/// # Panics
///
/// Panics if a stand-in fails to expand, which the generator rules out:
/// stand-ins are combinational by construction.
#[must_use]
pub fn circuit_by_name(name: &str) -> Option<Circuit> {
    if name == "s27" {
        return Some(crate::iscas::s27());
    }
    let netlist = stand_in_profile(name)?.generate();
    Some(netlist.to_circuit().expect("stand-ins are combinational"))
}

/// The circuits of the paper's Tables 3–5 and 7 (eight stand-ins).
pub const TABLE3_CIRCUITS: [&str; 8] = [
    "s641", "s953", "s1196", "s1423", "s1488", "b03", "b04", "b09",
];

/// The circuits of the paper's Table 6 (the eight above plus the three
/// resynthesized ones).
pub const TABLE6_CIRCUITS: [&str; 11] = [
    "s641", "s953", "s1196", "s1423", "s1488", "b03", "b04", "b09", "s1423*", "s5378*", "s9234*",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_resolution() {
        assert!(circuit_by_name("s27").is_some());
        assert!(circuit_by_name("b03").is_some());
        assert!(circuit_by_name("s9234*").is_some());
        assert!(circuit_by_name("c6288").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let p = stand_in_profile("b03").unwrap();
        let a = p.generate();
        let b = p.generate();
        assert_eq!(a.gate_count(), b.gate_count());
        let ca = a.to_circuit().unwrap();
        let cb = b.to_circuit().unwrap();
        assert_eq!(ca.line_count(), cb.line_count());
        assert_eq!(ca.path_count(), cb.path_count());
        // Spot-check the actual structure, not just the sizes.
        for (ga, gb) in a.gates().iter().zip(b.gates()) {
            assert_eq!(ga, gb);
        }
    }

    #[test]
    fn all_stand_ins_build_valid_circuits() {
        for name in TABLE6_CIRCUITS {
            let p = stand_in_profile(name).unwrap();
            let n = p.generate();
            let c = n.to_circuit().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(c.inputs().len() >= 2, "{name}");
            assert!(!c.outputs().is_empty(), "{name}");
            assert!(
                c.path_count() >= 1000,
                "{name}: only {} paths — the paper restricts itself to \
                 circuits with at least 1000 paths",
                c.path_count()
            );
        }
    }

    #[test]
    fn depth_tracks_level_parameter() {
        for (name, min_depth) in [("s641", 42), ("s1423", 48), ("s1488", 11)] {
            let c = stand_in_profile(name)
                .unwrap()
                .generate()
                .to_circuit()
                .unwrap();
            // Critical delay counts lines (gates + branches + the input), so
            // it is at least levels + 1.
            assert!(
                c.critical_delay() as usize > min_depth,
                "{name}: critical delay {} vs levels {min_depth}",
                c.critical_delay()
            );
        }
    }

    #[test]
    fn unknown_stand_in_is_none() {
        assert!(stand_in_profile("c6288").is_none());
        assert!(stand_in_profile("c6288+r").is_none());
    }

    #[test]
    fn redundant_variant_injects_gadgets() {
        let plain = stand_in_profile("b03").unwrap().generate();
        let red = stand_in_profile("b03+r").unwrap().generate();
        assert!(red.gate_count() > plain.gate_count());
        let c = red.to_circuit().unwrap();
        assert!(c.path_count() >= 1000, "{}", c.path_count());
        // The plain profile stays byte-identical: no gadget names appear.
        assert!(plain
            .gates()
            .iter()
            .all(|g| !plain.signal_name(g.output).starts_with("red")));
    }

    #[test]
    fn no_parity_gates_generated() {
        for name in TABLE6_CIRCUITS {
            let n = stand_in_profile(name).unwrap().generate();
            assert!(n.gates().iter().all(|g| !g.kind.is_parity()), "{name}");
        }
    }

    #[test]
    fn gate_counts_match_profiles_roughly() {
        let n = stand_in_profile("s1423").unwrap().generate();
        // Mop-up gates may add a handful beyond the profile's gate count.
        // Wide-input profiles add up to one mop-up gate per unused input.
        assert!((660..=760).contains(&n.gate_count()), "{}", n.gate_count());
    }
}
