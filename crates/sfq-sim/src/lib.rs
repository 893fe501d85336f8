//! Gate-level pulse simulation of SFQ netlists under process parameter
//! variations.
//!
//! The paper evaluates its encoders by simulating the transistor-level (JJ-
//! level) netlists in JoSIM with a `spread` applied to every circuit
//! parameter, then post-processing the waveforms in MATLAB. This crate is the
//! portable substitute for that flow: a cycle-driven pulse-level simulator
//! ([`sim::GateLevelSim`]) with SFQ-specific gate semantics (clocked gates,
//! fan-out-one splitters, toggling SFQ-to-DC output drivers) and a
//! margin-based PPV fault model ([`ppv::PpvModel`]) that converts sampled
//! parameter deviations into per-cell malfunction probabilities.
//!
//! The connection to the paper's Fig. 5 is direct: one sampled
//! [`ppv::ChipSample`] corresponds to one fabricated chip with specific
//! parameter values, and re-running the same encoder netlist over many chips
//! yields the distribution of erroneous messages that the figure plots.
//!
//! For fault-free runs, [`sliced::SlicedSim`] evaluates the same gate
//! semantics on a levelized netlist, 64 messages per `u64`, lane-for-lane
//! identical to [`sim::GateLevelSim::run`]. It runs the synthesis-time
//! equivalence check ([`equivalence::verify_encoder`]), which is therefore
//! exhaustive for every design with `k ≤ 16`; the event simulator stays as
//! its oracle, as the fault-injection engine and as the source of the Fig. 3
//! waveforms.
//!
//! # Example
//!
//! ```
//! use sfq_netlist::{synth, Netlist, PortRef};
//! use sfq_sim::sim::{GateLevelSim, Stimulus};
//! use sfq_cells::CellKind;
//!
//! // A 1-bit pipeline: input -> DFF -> DFF -> output.
//! let mut nl = Netlist::new("pipe2");
//! let a = nl.add_input("a");
//! nl.add_clock("clk");
//! let end = synth::dff_chain(&mut nl, PortRef::of(a), 2, "a");
//! let out = nl.add_output("o");
//! nl.connect(end, out, 0);
//! synth::build_clock_tree(&mut nl, "clk");
//!
//! let sim = GateLevelSim::new(&nl);
//! let mut stim = Stimulus::new(&nl);
//! stim.pulse_input(0, 0); // pulse on input 0 in cycle 0
//! let trace = sim.run(&stim, 4);
//! // The pulse appears at the output two clock cycles later.
//! assert_eq!(trace.output_pulses(0), &[false, false, true, false]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equivalence;
pub mod fault;
pub mod ppv;
pub mod sim;
pub mod sliced;

pub use equivalence::{verify_encoder, EquivalenceMismatch};
pub use fault::{CellFault, FailureMode, FaultMap};
pub use ppv::{ChipSample, PpvModel};
pub use sim::{GateLevelSim, Stimulus, Trace};
pub use sliced::{SlicedSim, SlicedTrace};
