//! Gate-level netlist substrate with explicit fanout-branch lines.
//!
//! This crate provides the circuit model underneath the path delay fault
//! ATPG workspace:
//!
//! * [`Netlist`] — gate-level, named-signal netlists with flip-flops, as
//!   parsed from ISCAS-style `.bench` files ([`parse_bench`]);
//! * [`Circuit`] — the *line-level* expansion used for path analysis:
//!   every fanout branch is a distinct line, matching the classical path
//!   delay fault model and the numbering used by Pomeranz & Reddy
//!   (DATE 2002);
//! * scalar and two-pattern hazard-conservative simulation
//!   ([`simulate_values`], [`simulate_triples`]);
//! * reference circuits ([`iscas::s27`] reproduces the paper's Figure 1
//!   exactly) and deterministic synthetic benchmark stand-ins
//!   ([`SynthProfile`], [`stand_in_profile`]).
//!
//! # Example: from `.bench` text to a line-level circuit
//!
//! ```
//! let text = "\
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(z)
//! q = DFF(m)
//! m = NAND(a, q)
//! z = NOR(m, b)
//! ";
//! let netlist = pdf_netlist::parse_bench(text, "demo")?;
//! // Flip-flops out, pseudo inputs/outputs in:
//! let core = netlist.combinational_core();
//! let circuit = core.to_circuit().unwrap();
//! assert_eq!(circuit.inputs().len(), 3);  // a, b, q
//! assert_eq!(circuit.outputs().len(), 2); // z, m (flip-flop data)
//! # Ok::<(), pdf_netlist::BenchParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod circuit;
mod dot;
pub mod iscas;
mod netlist;
mod rng;
mod sim;
mod synth;

pub use bench::{
    parse_bench, parse_bench_file, parse_bench_named, to_bench_string, BenchParseError,
    NetlistParseError,
};
pub use circuit::{Circuit, CircuitBuilder, CircuitError, Line, LineId, LineKind};
pub use dot::to_dot;
pub use netlist::{Dff, Driver, Gate, Netlist, NetlistBuilder, NetlistError, SignalId};
pub use rng::SplitMix64;
pub use sim::{simulate_triples, simulate_values, TwoPattern};
pub use synth::{
    circuit_by_name, stand_in_profile, SynthProfile, TABLE3_CIRCUITS, TABLE6_CIRCUITS,
};

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use crate::iscas::s27;
    pub use crate::{
        parse_bench, simulate_triples, simulate_values, Circuit, CircuitBuilder, LineId, Netlist,
        NetlistBuilder, SplitMix64, SynthProfile, TwoPattern,
    };
}
