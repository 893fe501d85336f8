//! # sfq-ecc — Lightweight Error-Correction Code Encoders in Superconducting Electronic Systems
//!
//! This is the umbrella crate of the workspace reproducing the SOCC 2025
//! paper *"Lightweight Error-Correction Code Encoders in Superconducting
//! Electronic Systems"* (Mustafa, Peköz, Köse). It re-exports every layer of
//! the system so that downstream users can depend on a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`gf2`] | `gf2` | GF(2) bit-vector / bit-matrix linear algebra |
//! | [`ecc`] | `ecc` | Hamming(7,4), Hamming(8,4), RM(1,3), the (38,32) baseline, the SEC-DED family up to (72,64), decoders, Table I analysis |
//! | [`cells`] | `sfq-cells` | RSFQ standard-cell library model (JJ count, power, area, margins) |
//! | [`netlist`] | `sfq-netlist` | gate-level netlist IR, synthesis passes, design-rule checks |
//! | [`sim`] | `sfq-sim` | pulse-level simulator and the PPV fault model |
//! | [`encoders`] | `encoders` | the code catalog: the paper's encoder circuits, synthesized SEC-DED encoders, Table II |
//! | [`batch`] | `sfq-batch` | bit-sliced batch codec engine (64 codewords per `u64` limb) |
//! | [`link`] | `cryolink` | the Fig. 1 data link, the Fig. 5 Monte-Carlo experiments, and the batch link driver |
//! | [`stream`] | `sfq-stream` | online scrubbing service: bounded queues, fault injection, latency contract, degradation ladder |
//! | [`telemetry`] | `sfq-telemetry` | metrics registry, span timers, run-report snapshots (no-ops without the `telemetry` feature) |
//!
//! ## Quick start
//!
//! ```
//! use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
//! use sfq_ecc::gf2::BitVec;
//!
//! let encoder = EncoderDesign::build(EncoderKind::Hamming84);
//! let codeword = encoder.encode_gate_level(&BitVec::from_str01("1011"));
//! assert_eq!(codeword.to_string01(), "01100110");
//! ```
//!
//! The runnable examples under `examples/` exercise the public API on the
//! paper's scenarios, one per artifact: `design_explorer` (Tables I and
//! II), `encoder_waveforms` (Fig. 3), and `ppv_sweep` (Fig. 5). Around them
//! sit `quickstart`, `link_demo` (the end-to-end Fig. 1 link), `ablations`
//! (spread, counting-policy and channel-noise sweeps), `synth_report`
//! (`BENCH_synth.json`), and the catalog, batch, scrub-service and
//! run-report tours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cryolink as link;
pub use ecc;
pub use encoders;
pub use gf2;
pub use sfq_batch as batch;
pub use sfq_cells as cells;
pub use sfq_netlist as netlist;
pub use sfq_sim as sim;
pub use sfq_stream as stream;
pub use sfq_telemetry as telemetry;

/// Paper metadata for reports and tooling.
pub mod paper {
    /// Paper title.
    pub const TITLE: &str =
        "Lightweight Error-Correction Code Encoders in Superconducting Electronic Systems";
    /// Publication venue.
    pub const VENUE: &str = "SOCC 2025";
    /// arXiv identifier of the preprint.
    pub const ARXIV: &str = "2509.00962";
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired_up() {
        let encoder =
            crate::encoders::EncoderDesign::build(crate::encoders::EncoderKind::Hamming84);
        assert_eq!(encoder.n(), 8);
        let lib = crate::cells::CellLibrary::coldflux();
        assert_eq!(encoder.stats(&lib).cost.jj_count, 278);
        assert!(crate::paper::TITLE.contains("Superconducting"));
    }
}
