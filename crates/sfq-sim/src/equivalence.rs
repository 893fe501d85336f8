//! Gate-level functional-equivalence harness for synthesized encoders.
//!
//! The synthesis pipeline in `sfq-netlist` verifies itself at the IR level
//! (exact GF(2) expansion) after every pass; this module closes the loop at
//! the *gate* level: it evaluates the emitted netlist cycle by cycle with the
//! bit-sliced [`SlicedSim`], 64 messages per `u64`, and compares the DC word
//! sampled at the encoding latency against the reference encoding `c = m · G`.
//!
//! One message policy serves synthesis and the tests: every one of the `2^k`
//! messages when `k ≤` [`EXHAUSTIVE_LIMIT_K`], otherwise zero, all-ones,
//! every unit vector, every walking adjacent pair and 4096 seeded random
//! messages. [`verifier`] packages the check in the shape
//! [`sfq_netlist::pass::PassManager::with_netlist_verifier`] expects, so
//! every catalog encoder is checked at synthesis time.

use crate::sliced::SlicedSim;
use gf2::{BitMat, BitSlice64, BitVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_netlist::pass::NetlistVerifier;
use sfq_netlist::Netlist;

/// [`verify_encoder`] checks every message when `k` is at most this large.
pub const EXHAUSTIVE_LIMIT_K: usize = 16;

/// Seeded random messages checked beyond [`EXHAUSTIVE_LIMIT_K`], on top of
/// the structured set.
const RANDOM_SAMPLES: usize = 4096;

/// Seed of the random-message stream.
const SEED: u64 = 0x5ECD_EDE9;

/// A gate-level disagreement between the netlist and the generator matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceMismatch {
    /// The offending message.
    pub message: BitVec,
    /// The reference codeword `m · G`.
    pub expected: BitVec,
    /// What the simulated netlist produced.
    pub simulated: BitVec,
}

impl std::fmt::Display for EquivalenceMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "message {} encodes to {} but the netlist produced {}",
            self.message.to_string01(),
            self.expected.to_string01(),
            self.simulated.to_string01()
        )
    }
}

/// The messages [`verify_encoder`] drives for a given `k`, in message-set
/// order, 64 per limb.
fn message_set(k: usize) -> BitSlice64 {
    if k <= EXHAUSTIVE_LIMIT_K {
        // Message m is the binary counter m, in lane m % 64 of limb m / 64:
        // its low six bits select lanes within a limb, the others whole limbs.
        let mut all = BitSlice64::zeros(k, 1 << k);
        let tail = all.tail_mask();
        for bit in 0..k {
            let lanes = (0..64)
                .filter(|lane| (lane >> bit) & 1 == 1)
                .fold(0, |mask, lane| mask | 1 << lane);
            for (word, limb) in all.lane_mut(bit).iter_mut().enumerate() {
                let whole = if ((64 * word) >> bit) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                };
                *limb = (lanes | whole) & tail;
            }
        }
        return all;
    }
    // Zero, all-ones, then each unit vector followed by its walking pair.
    let structured = 2 + 2 * k;
    let mut set = BitSlice64::zeros(k, structured + RANDOM_SAMPLES);
    for i in 0..k {
        set.set(1, i, true);
        set.set(2 + 2 * i, i, true);
        set.set(3 + 2 * i, i, true);
        set.set(3 + 2 * i, (i + 1) % k, true);
    }
    let mut rng = StdRng::seed_from_u64(SEED);
    for message in structured..set.batch() {
        for bit in 0..k {
            if rng.random::<u64>() & 1 == 1 {
                set.set(message, bit, true);
            }
        }
    }
    set
}

/// Evaluates every message of the policy through the netlist and compares
/// the DC word at the encoding latency against `m · G`.
///
/// Returns the number of messages checked.
///
/// # Errors
/// Returns the first mismatching message in message-set order.
///
/// # Panics
/// Panics if the netlist's input/output counts do not match the generator's
/// dimensions, or if its combinational cells form a cycle.
pub fn verify_encoder(netlist: &Netlist, generator: &BitMat) -> Result<usize, EquivalenceMismatch> {
    let k = generator.rows();
    assert_eq!(netlist.inputs().len(), k, "input count vs generator rows");
    assert_eq!(
        netlist.outputs().len(),
        generator.cols(),
        "output count vs generator columns"
    );
    let sim = SlicedSim::new(netlist);
    let latency = netlist.logic_depth();
    let supports: Vec<Vec<usize>> = (0..generator.cols())
        .map(|j| generator.col(j).support())
        .collect();
    let messages = message_set(k);
    let mut lanes = vec![0; k];
    for word in 0..messages.words() {
        messages.gather_word(word, &mut lanes);
        let trace = sim.run(&lanes, latency + 1);
        let simulated = trace.dc_word_at(latency);
        let valid = if word + 1 == messages.words() {
            messages.tail_mask()
        } else {
            u64::MAX
        };
        let wrong = supports
            .iter()
            .zip(simulated)
            .fold(0, |acc, (support, &got)| {
                acc | support.iter().fold(got, |lane, &i| lane ^ lanes[i])
            })
            & valid;
        if wrong != 0 {
            let lane = wrong.trailing_zeros() as usize;
            let message = messages.extract(word * 64 + lane);
            return Err(EquivalenceMismatch {
                expected: generator.left_mul_vec(&message),
                simulated: simulated.iter().map(|&m| (m >> lane) & 1 == 1).collect(),
                message,
            });
        }
    }
    Ok(messages.batch())
}

/// The harness packaged as a pass-manager hook: attach with
/// `PassManager::standard(options).with_netlist_verifier(equivalence::verifier())`
/// and every synthesis run ends with a gate-level check.
#[must_use]
pub fn verifier() -> NetlistVerifier {
    Box::new(|netlist, generator| {
        verify_encoder(netlist, generator)
            .map(|_| ())
            .map_err(|m| m.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{GateLevelSim, Stimulus};
    use sfq_cells::CellKind;
    use sfq_netlist::pass::{PassManager, PipelineOptions};
    use sfq_netlist::{synth, NodeKind, PortRef};

    fn hamming84_generator() -> BitMat {
        BitMat::from_str_rows(&["11100001", "10011001", "01010101", "11010010"])
    }

    /// A systematic `k × (k + 6)` generator whose parity columns are seeded
    /// pseudo-random and never zero.
    fn systematic_generator(k: usize) -> BitMat {
        let mut rng = StdRng::seed_from_u64(0x5A3D);
        let mut g = BitMat::zeros(k, k + 6);
        for i in 0..k {
            g.set(i, i, true);
        }
        for j in k..k + 6 {
            g.set(j % k, j, true);
            for i in 0..k {
                if rng.random::<u64>() & 1 == 1 {
                    g.set(i, j, true);
                }
            }
        }
        g
    }

    /// A copy of `netlist` with the drivers of outputs `a` and `b` swapped.
    fn swap_output_drivers(netlist: &Netlist, a: usize, b: usize) -> Netlist {
        let (out_a, out_b) = (netlist.outputs()[a], netlist.outputs()[b]);
        let mut copy = Netlist::new(netlist.name.clone());
        for node in netlist.nodes() {
            let name = node.name.clone();
            match node.kind {
                NodeKind::Input => copy.add_input(name),
                NodeKind::Output => copy.add_output(name),
                NodeKind::ClockSource => copy.add_clock(name),
                NodeKind::Cell(kind) => copy.add_cell(kind, name),
            };
        }
        for c in netlist.connections() {
            let to = match c.to {
                to if to == out_a => out_b,
                to if to == out_b => out_a,
                to => to,
            };
            copy.connect(c.from, to, c.to_port);
        }
        copy
    }

    /// The first mismatch in message-set order, found one event-queue run
    /// per message.
    fn event_simulator_verdict(
        netlist: &Netlist,
        generator: &BitMat,
    ) -> Option<EquivalenceMismatch> {
        let sim = GateLevelSim::new(netlist);
        let latency = netlist.logic_depth();
        let messages = message_set(generator.rows());
        (0..messages.batch()).find_map(|i| {
            let message = messages.extract(i);
            let mut stimulus = Stimulus::new(netlist);
            stimulus.apply_word(&message, 0);
            let simulated = sim.run(&stimulus, latency + 1).dc_word_at(latency);
            let expected = generator.left_mul_vec(&message);
            (simulated != expected).then_some(EquivalenceMismatch {
                message,
                expected,
                simulated,
            })
        })
    }

    #[test]
    fn pipeline_netlist_passes_exhaustive_equivalence() {
        let g = hamming84_generator();
        let result = synth::synthesize_encoder("h84", &g, PipelineOptions::default());
        let checked = verify_encoder(&result.netlist, &g).expect("bit-exact");
        assert_eq!(checked, 16, "k = 4 is checked exhaustively");
    }

    #[test]
    fn corrupted_netlist_is_rejected_with_the_offending_message() {
        let g = hamming84_generator();
        // Miswire c3 (= m1) to m2 by lying about the generator instead:
        // claim c3 should be m2.
        let mut wrong = g.clone();
        wrong.set(0, 2, false);
        wrong.set(1, 2, true);
        let result = synth::synthesize_encoder("h84", &g, PipelineOptions::default());
        let err = verify_encoder(&result.netlist, &wrong).expect_err("must disagree");
        assert_ne!(err.expected, err.simulated);
        assert!(err.to_string().contains("encodes to"));
    }

    #[test]
    fn swapped_output_drivers_are_rejected_at_the_event_simulators_first_message() {
        for (k, g) in [(4, hamming84_generator()), (20, systematic_generator(20))] {
            let result = synth::synthesize_encoder("swap", &g, PipelineOptions::default());
            // Two outputs whose columns differ, so the swap is visible.
            let (a, b) = (k - 1, k);
            assert_ne!(g.col(a), g.col(b));
            let swapped = swap_output_drivers(&result.netlist, a, b);
            let err = verify_encoder(&swapped, &g).expect_err("swapped outputs must be caught");
            assert_eq!(Some(err), event_simulator_verdict(&swapped, &g), "k = {k}");
            verify_encoder(&result.netlist, &g).expect("the unswapped netlist is bit-exact");
        }
    }

    #[test]
    fn structured_and_random_messages_are_used_beyond_the_exhaustive_limit() {
        // Exhaustive up to the limit, in counter order.
        let all = message_set(EXHAUSTIVE_LIMIT_K);
        assert_eq!(all.batch(), 1 << EXHAUSTIVE_LIMIT_K);
        for m in [0, 1, 63, 64, 0x1234, 0xFFFF] {
            assert_eq!(
                all.extract(m),
                BitVec::from_u64(16, m as u64),
                "message {m}"
            );
        }
        assert_eq!(message_set(3).batch(), 8);
        assert_eq!(message_set(3).extract(5), BitVec::from_str01("101"));
        // Beyond it: zero + ones + k units + k pairs + the seeded messages.
        let k = EXHAUSTIVE_LIMIT_K + 1;
        let sampled = message_set(k);
        assert_eq!(sampled.batch(), 2 + 2 * k + RANDOM_SAMPLES);
        assert_eq!(sampled.bits(), k);
        assert_eq!(sampled.extract(0), BitVec::zeros(k));
        assert_eq!(sampled.extract(1), BitVec::ones(k));
        assert_eq!(
            sampled.extract(2 + 2 * (k - 1) + 1).support(),
            vec![0, k - 1]
        );
        let mut rng = StdRng::seed_from_u64(SEED);
        let first_random: BitVec = (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect();
        assert_eq!(sampled.extract(2 + 2 * k), first_random);
    }

    #[test]
    fn verifier_hook_plugs_into_the_pass_manager() {
        let g = hamming84_generator();
        let result = PassManager::standard(PipelineOptions::default())
            .with_netlist_verifier(verifier())
            .run("h84", &g)
            .expect("verified synthesis must succeed");
        assert_eq!(result.netlist.count_cells(CellKind::Xor), 6);
    }

    #[test]
    fn harness_accepts_hold_discipline_unbalanced_operands() {
        // A 3-term parity feeds a depth-0 input straight into a second-level
        // XOR under Hold; the toggling-driver argument must make the DC word
        // settle correctly anyway.
        let g = BitMat::from_str_rows(&["11", "01", "01"]);
        let result = synth::synthesize_encoder("p3", &g, PipelineOptions::default());
        verify_encoder(&result.netlist, &g).expect("hold discipline is parity-exact");
    }

    #[test]
    fn harness_checks_hand_built_netlists_too() {
        // input -> DFF -> output is the identity encoder for k = 1.
        let mut nl = sfq_netlist::Netlist::new("id1");
        let a = nl.add_input("m1");
        nl.add_clock("clk");
        let end = synth::dff_chain(&mut nl, PortRef::of(a), 1, "m1");
        let out = nl.add_output("c1");
        nl.connect(end, out, 0);
        synth::build_clock_tree(&mut nl, "clk");
        let g = BitMat::from_str_rows(&["1"]);
        verify_encoder(&nl, &g).expect("identity");
    }
}
