//! End-to-end link: encoder circuit → cryo cable → receiver → decoder.
//!
//! One [`CryoLink`] instance corresponds to one fabricated chip (one sampled
//! fault map) connected to the room-temperature electronics through a cable
//! bundle. [`CryoLink::transmit`] pushes a `k`-bit message (4 bits for the
//! paper's designs, 64 for the wide SEC-DED word) through the whole chain
//! and classifies the outcome the way the paper's MATLAB post-processing
//! does.

use crate::channel::{ChannelConfig, CryoCable};
use ecc::DecodeOutcome;
use encoders::EncoderDesign;
use gf2::BitVec;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sfq_sim::FaultMap;

/// Outcome of transmitting one message across the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkOutcome {
    /// The decoder delivered the transmitted message (with or without
    /// correcting channel bits).
    Correct,
    /// The decoder raised the error flag of Fig. 1: the word was recognized
    /// as uncorrectable, so the receiver knows the message is unreliable.
    Flagged,
    /// The decoder silently delivered a wrong message — the failure mode the
    /// encoders are meant to minimize.
    SilentError,
}

/// Full record of one transmission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransmissionResult {
    /// The transmitted `k`-bit message.
    pub message: BitVec,
    /// The codeword produced by the (possibly faulty) encoder circuit.
    pub transmitted: BitVec,
    /// The word seen by the decoder after the cable and receiver.
    pub received: BitVec,
    /// The decoder's message estimate, if it produced one.
    pub decoded: Option<BitVec>,
    /// Classification of the outcome.
    pub outcome: LinkOutcome,
}

/// One encoder chip connected to the room-temperature receiver.
pub struct CryoLink<'a> {
    design: &'a EncoderDesign,
    faults: FaultMap,
    cable: CryoCable,
}

impl<'a> CryoLink<'a> {
    /// Builds a link around an encoder design and a sampled fault map.
    #[must_use]
    pub fn new(design: &'a EncoderDesign, faults: FaultMap, channel: ChannelConfig) -> Self {
        let cable = CryoCable::new(design.n(), channel);
        CryoLink {
            design,
            faults,
            cable,
        }
    }

    /// A link with a fault-free chip and an ideal channel.
    #[must_use]
    pub fn ideal(design: &'a EncoderDesign) -> Self {
        Self::new(
            design,
            FaultMap::healthy(design.netlist()),
            ChannelConfig::ideal(),
        )
    }

    /// The encoder design this link carries.
    #[must_use]
    pub fn design(&self) -> &EncoderDesign {
        self.design
    }

    /// Transmits one `k`-bit message end to end.
    ///
    /// # Panics
    /// Panics if the message width differs from the design's data width.
    pub fn transmit<R: Rng + ?Sized>(&self, message: &BitVec, rng: &mut R) -> TransmissionResult {
        let transmitted = self.design.transmit_with_faults(message, &self.faults, rng);
        let received = self.cable.transport(&transmitted, rng);
        let decoded = self.design.decode(&received);
        let outcome = match decoded.outcome {
            DecodeOutcome::DetectedUncorrectable => LinkOutcome::Flagged,
            _ => {
                if decoded.message.as_ref() == Some(message) {
                    LinkOutcome::Correct
                } else {
                    LinkOutcome::SilentError
                }
            }
        };
        TransmissionResult {
            message: message.clone(),
            transmitted,
            received,
            decoded: decoded.message,
            outcome,
        }
    }

    /// Transmits a batch of messages and returns the number classified as
    /// correct / flagged / silent errors.
    pub fn transmit_batch<R: Rng + ?Sized>(
        &self,
        messages: &[BitVec],
        rng: &mut R,
    ) -> (usize, usize, usize) {
        let mut correct = 0;
        let mut flagged = 0;
        let mut silent = 0;
        for message in messages {
            match self.transmit(message, rng).outcome {
                LinkOutcome::Correct => correct += 1,
                LinkOutcome::Flagged => flagged += 1,
                LinkOutcome::SilentError => silent += 1,
            }
        }
        (correct, flagged, silent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoders::EncoderKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfq_cells::CellKind;
    use sfq_netlist::NodeKind;
    use sfq_sim::{CellFault, FailureMode};

    #[test]
    fn ideal_link_delivers_every_message() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in EncoderKind::ALL {
            let design = EncoderDesign::build(kind);
            let link = CryoLink::ideal(&design);
            for m in 0u64..16 {
                let msg = BitVec::from_u64(4, m);
                let result = link.transmit(&msg, &mut rng);
                assert_eq!(
                    result.outcome,
                    LinkOutcome::Correct,
                    "{} m={m:04b}",
                    design.name()
                );
                assert_eq!(result.decoded, Some(msg));
            }
        }
    }

    #[test]
    fn single_output_driver_fault_is_corrected_by_coded_designs() {
        let mut rng = StdRng::seed_from_u64(2);
        for kind in [
            EncoderKind::Hamming74,
            EncoderKind::Hamming84,
            EncoderKind::Rm13,
        ] {
            let design = EncoderDesign::build(kind);
            // Hard-fail the c1 output driver (drop its pulses): a single
            // codeword bit is stuck, which every code corrects.
            let driver = design
                .netlist()
                .nodes()
                .iter()
                .find(|n| n.kind == NodeKind::Cell(CellKind::SfqToDc))
                .unwrap()
                .id;
            let mut faults = FaultMap::healthy(design.netlist());
            faults.set(driver, CellFault::hard(FailureMode::DropPulse));
            let link = CryoLink::new(&design, faults, ChannelConfig::ideal());
            let mut correct = 0;
            for m in 0u64..16 {
                let msg = BitVec::from_u64(4, m);
                if link.transmit(&msg, &mut rng).outcome == LinkOutcome::Correct {
                    correct += 1;
                }
            }
            assert_eq!(
                correct,
                16,
                "{} should correct a stuck output channel",
                design.name()
            );
        }
    }

    #[test]
    fn uncoded_link_suffers_silent_errors_from_a_stuck_driver() {
        let mut rng = StdRng::seed_from_u64(3);
        let design = EncoderDesign::build(EncoderKind::None);
        let driver = design
            .netlist()
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Cell(CellKind::SfqToDc))
            .unwrap()
            .id;
        let mut faults = FaultMap::healthy(design.netlist());
        faults.set(driver, CellFault::hard(FailureMode::DropPulse));
        let link = CryoLink::new(&design, faults, ChannelConfig::ideal());
        let mut silent = 0;
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            if link.transmit(&msg, &mut rng).outcome == LinkOutcome::SilentError {
                silent += 1;
            }
        }
        // The stuck bit is 1 in half of the messages.
        assert_eq!(silent, 8);
    }

    #[test]
    fn batch_counts_sum_to_batch_size() {
        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let link = CryoLink::ideal(&design);
        let mut rng = StdRng::seed_from_u64(4);
        let messages: Vec<BitVec> = (0u64..16).map(|m| BitVec::from_u64(4, m)).collect();
        let (c, f, s) = link.transmit_batch(&messages, &mut rng);
        assert_eq!(c + f + s, 16);
        assert_eq!(c, 16);
    }
}
