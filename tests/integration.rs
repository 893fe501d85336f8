//! Cross-crate integration tests: codes ↔ netlists ↔ simulator ↔ cell library.

use sfq_ecc::cells::{CellKind, CellLibrary};
use sfq_ecc::ecc::{BlockCode, ColumnCode};
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::gf2::BitVec;
use sfq_ecc::netlist::{drc, synth, NetlistStats};
use sfq_ecc::sim::{GateLevelSim, Stimulus};

/// The naive tree-synthesis flow and the pass-pipeline circuit the catalog
/// ships (which reproduces the paper's Fig. 2 cell budget) must agree
/// functionally on every message, even though their structure differs.
#[test]
fn generic_synthesis_and_paper_circuit_agree_functionally() {
    let code = ColumnCode::hamming84();
    let generic = synth::synthesize_linear_encoder("hamming84_generic", code.generator());
    assert!(drc::is_clean(&generic));
    let sim = GateLevelSim::new(&generic);
    let latency = generic.logic_depth();

    let paper_design = EncoderDesign::build(EncoderKind::Hamming84);
    for m in 0u64..16 {
        let msg = BitVec::from_u64(4, m);
        let mut stim = Stimulus::new(&generic);
        stim.apply_word(&msg, 0);
        let generic_word = sim.run(&stim, latency + 1).dc_word_at(latency);
        let paper_word = paper_design.encode_gate_level(&msg);
        assert_eq!(generic_word, paper_word, "message {m:04b}");
        assert_eq!(generic_word, code.encode(&msg), "message {m:04b}");
    }
}

/// The pipeline-synthesized circuits (which factor shared subexpressions the
/// way the paper's Section III does by hand) are strictly smaller than the
/// naive tree-synthesis result for the same code.
#[test]
fn paper_circuits_are_smaller_than_generic_synthesis() {
    let lib = CellLibrary::coldflux();
    let code = ColumnCode::hamming84();
    let generic = synth::synthesize_linear_encoder("hamming84_generic", code.generator());
    let generic_stats = NetlistStats::compute(&generic, &lib);
    let paper_stats = EncoderDesign::build(EncoderKind::Hamming84).stats(&lib);
    assert!(paper_stats.cost.jj_count < generic_stats.cost.jj_count);
    assert!(
        paper_stats.histogram.count(CellKind::Xor) <= generic_stats.histogram.count(CellKind::Xor)
    );
}

/// The (38,32) prior-art baseline of reference [14] synthesizes, passes DRC,
/// and encodes correctly at gate level for a handful of messages.
#[test]
fn baseline_3832_encoder_is_functional_at_gate_level() {
    let code = ColumnCode::shortened_hamming_38_32();
    let netlist = synth::synthesize_linear_encoder("peng3832", code.generator());
    assert!(drc::is_clean(&netlist));
    let sim = GateLevelSim::new(&netlist);
    let latency = netlist.logic_depth();
    for message_value in [0u64, 1, 0xDEAD_BEEF, 0xFFFF_FFFF, 0x1234_5678] {
        let msg = BitVec::from_u64(32, message_value);
        let mut stim = Stimulus::new(&netlist);
        stim.apply_word(&msg, 0);
        let word = sim.run(&stim, latency + 1).dc_word_at(latency);
        assert_eq!(word, code.encode(&msg), "message {message_value:#x}");
    }
}

/// Table II costs follow directly from netlist histograms and the library;
/// verify the full pipeline (netlist -> histogram -> cost) for all designs.
#[test]
fn stats_pipeline_is_consistent_for_all_designs() {
    let lib = CellLibrary::coldflux();
    for kind in EncoderKind::ALL {
        let design = EncoderDesign::build(kind);
        let stats = design.stats(&lib);
        let mut jj = 0;
        for (cell, count) in stats.histogram.as_map() {
            jj += u64::from(lib.params(*cell).jj_count) * count;
        }
        assert_eq!(jj, stats.cost.jj_count, "{}", design.name());
        assert_eq!(stats.num_inputs, 4, "{}", design.name());
        assert_eq!(stats.num_outputs, design.n(), "{}", design.name());
    }
}

/// Logic depth reported by the netlist matches the number of cycles the
/// simulator actually needs before the codeword settles.
#[test]
fn reported_latency_matches_simulated_settling_time() {
    for kind in [
        EncoderKind::Hamming74,
        EncoderKind::Hamming84,
        EncoderKind::Rm13,
    ] {
        let design = EncoderDesign::build(kind);
        let msg = BitVec::from_str01("1111");
        let trace = design.simulate(&msg);
        let settled = trace.dc_word_at(design.latency());
        assert_eq!(settled, design.encode_reference(&msg), "{}", design.name());
        // One cycle earlier the word has not settled for at least one message.
        let mut any_unsettled = false;
        for m in 1u64..16 {
            let msg = BitVec::from_u64(4, m);
            let trace = design.simulate(&msg);
            if design.latency() > 0
                && trace.dc_word_at(design.latency() - 1) != design.encode_reference(&msg)
            {
                any_unsettled = true;
                break;
            }
        }
        assert!(any_unsettled, "{}: latency should be tight", design.name());
    }
}
