//! The bit-sliced evaluator (`sfq_sim::sliced::SlicedSim`) is lane-for-lane
//! identical to the event-queue simulator (`GateLevelSim::run`), which stays
//! its oracle: on every catalog netlist at every cycle up to one past the
//! encoding latency — all `2^k` messages when `k ≤ 16`, seeded samples
//! above — and on random acyclic netlists built from every cell kind,
//! including the pulse collisions the catalog never produces.
//!
//! The nightly `sliced` tier (`cargo test --release -- --include-ignored
//! sliced`) widens both sweeps 64×.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_ecc::cells::CellKind;
use sfq_ecc::encoders::{BchSpec, EncoderDesign, EncoderKind};
use sfq_ecc::gf2::{BitSlice64, BitVec};
use sfq_ecc::netlist::{Netlist, NodeKind, PortRef};
use sfq_ecc::sim::{GateLevelSim, SlicedSim, Stimulus};

/// Seeded messages per catalog design above `k = 16` in the PR tier.
const SAMPLED_MESSAGES: usize = 512;

/// Random netlists in the nightly tier, on top of the proptest cases.
const NIGHTLY_NETLISTS: u64 = 16_384;

/// Drives `messages` (cycle-0 stimuli, 64 per evaluator run) through both
/// simulators for `cycles` cycles and asserts that every lane's DC word and
/// output pulses equal the event simulator's at every cycle.
fn assert_identical(netlist: &Netlist, messages: &[BitVec], cycles: usize) {
    let sliced = SlicedSim::new(netlist);
    let oracle = GateLevelSim::new(netlist);
    let outputs = netlist.outputs().len();
    for chunk in messages.chunks(64) {
        let packed = BitSlice64::pack(chunk);
        let mut lanes = vec![0; netlist.inputs().len()];
        packed.gather_word(0, &mut lanes);
        let trace = sliced.run(&lanes, cycles);
        let bit = |mask: u64, lane: usize| (mask >> lane) & 1 == 1;
        for (lane, message) in chunk.iter().enumerate() {
            let mut stimulus = Stimulus::new(netlist);
            stimulus.apply_word(message, 0);
            let expected = oracle.run(&stimulus, cycles);
            for cycle in 0..cycles {
                let dc: BitVec = trace
                    .dc_word_at(cycle)
                    .iter()
                    .map(|&m| bit(m, lane))
                    .collect();
                assert_eq!(
                    dc,
                    expected.dc_word_at(cycle),
                    "{}: message {} cycle {cycle}",
                    netlist.name,
                    message.to_string01()
                );
            }
            for o in 0..outputs {
                let pulses: Vec<bool> = trace
                    .output_pulses(o)
                    .iter()
                    .map(|&m| bit(m, lane))
                    .collect();
                assert_eq!(
                    pulses,
                    expected.output_pulses(o),
                    "{}: message {} output {o}",
                    netlist.name,
                    message.to_string01()
                );
            }
        }
    }
}

/// Every message for `k ≤ 16`, otherwise `samples` seeded ones.
fn catalog_messages(k: usize, samples: usize) -> Vec<BitVec> {
    if k <= 16 {
        return (0..1u64 << k).map(|m| BitVec::from_u64(k, m)).collect();
    }
    let mut rng = StdRng::seed_from_u64(0x511C_ED00 ^ k as u64);
    (0..samples)
        .map(|_| (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect())
        .collect()
}

/// The two `k = 16` members: 65,536 messages each, so each gets a test of
/// its own and the harness runs them side by side.
const K16_MEMBERS: [EncoderKind; 2] =
    [EncoderKind::SecDed(4), EncoderKind::Bch(BchSpec::BCH_31_16)];

fn sweep_design(kind: EncoderKind, samples: usize) {
    let design = EncoderDesign::build(kind);
    let messages = catalog_messages(design.k(), samples);
    assert_identical(design.netlist(), &messages, design.latency() + 2);
}

fn sweep_catalog(samples: usize) {
    for kind in EncoderKind::catalog() {
        sweep_design(kind, samples);
    }
}

/// A random acyclic netlist with `k` inputs. It always contains the pulse
/// collisions synthesized encoders never produce — a merger putting two
/// pulses on one data port in one cycle, a merger joining two pulses into a
/// clock port, a data path into a clock port, a clocked cell with no clock,
/// and unconnected ports — each observed by an output, followed by random
/// cells of every kind wired to earlier wires and random outputs.
fn random_netlist(seed: u64, k: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("random_{seed:x}"));
    let inputs: Vec<_> = (0..k).map(|i| nl.add_input(format!("m{i}"))).collect();
    let clk = nl.add_clock("clk");
    let cell = |nl: &mut Netlist, kind: CellKind, drivers: &[Option<PortRef>]| {
        let id = nl.add_cell(kind, format!("{kind:?}{}", nl.nodes().len()));
        for (port, driver) in drivers.iter().enumerate() {
            if let Some(driver) = driver {
                nl.connect(*driver, id, port);
            }
        }
        id
    };
    let (m0, m_last, clock) = (
        PortRef::of(inputs[0]),
        PortRef::of(inputs[k - 1]),
        PortRef::of(clk),
    );
    // Two pulses on one data port: both halves of a split input merge.
    let split = cell(&mut nl, CellKind::Splitter, &[Some(m0)]);
    let halves = [
        PortRef::of(split),
        PortRef {
            node: split,
            port: 1,
        },
    ];
    let doubled = cell(&mut nl, CellKind::Merger, &halves.map(Some));
    let dff = cell(
        &mut nl,
        CellKind::Dff,
        &[Some(PortRef::of(doubled)), Some(clock)],
    );
    // Two clock pulses in one cycle, onto an XOR with an unconnected port.
    let clock_split = cell(&mut nl, CellKind::Splitter, &[Some(clock)]);
    let clock_halves = [
        PortRef::of(clock_split),
        PortRef {
            node: clock_split,
            port: 1,
        },
    ];
    let clock_doubled = cell(&mut nl, CellKind::Merger, &clock_halves.map(Some));
    let xor = cell(
        &mut nl,
        CellKind::Xor,
        &[Some(m0), None, Some(PortRef::of(clock_doubled))],
    );
    // A data path into a clock port.
    let or = cell(&mut nl, CellKind::Or, &[Some(m0), Some(m0), Some(m_last)]);
    // A clocked cell with no clock, and a merger with one input.
    let not = cell(&mut nl, CellKind::Not, &[Some(m0)]);
    let lone = cell(&mut nl, CellKind::Merger, &[None, Some(m_last)]);
    let gadgets = [doubled, dff, xor, or, not, lone];

    let mut wires: Vec<PortRef> = inputs.iter().map(|&i| PortRef::of(i)).collect();
    wires.push(clock);
    wires.extend(gadgets.iter().map(|&g| PortRef::of(g)));
    wires.push(PortRef {
        node: split,
        port: 1,
    });
    for _ in 0..rng.random_range(4..24) {
        let kind = CellKind::ALL[rng.random_range(0..CellKind::ALL.len())];
        let clock_port = NodeKind::Cell(kind).clock_port();
        let drivers: Vec<Option<PortRef>> = (0..NodeKind::Cell(kind).input_ports())
            .map(|port| match rng.random_range(0..8) {
                0 => None,
                1..=4 if Some(port) == clock_port => Some(clock),
                _ => Some(wires[rng.random_range(0..wires.len())]),
            })
            .collect();
        let id = cell(&mut nl, kind, &drivers);
        wires.extend((0..kind.outputs()).map(|port| PortRef { node: id, port }));
    }
    let observed = gadgets
        .iter()
        .map(|&g| PortRef::of(g))
        .chain((0..rng.random_range(1..6)).map(|_| wires[rng.random_range(0..wires.len())]))
        .collect::<Vec<_>>();
    for (o, driver) in observed.into_iter().enumerate() {
        let out = nl.add_output(format!("o{o}"));
        nl.connect(driver, out, 0);
    }
    nl
}

/// All `2^k` messages of a random netlist, run for eight cycles.
fn assert_random_netlist_identical(seed: u64, k: usize) {
    let netlist = random_netlist(seed, k);
    let messages: Vec<BitVec> = (0..1u64 << k).map(|m| BitVec::from_u64(k, m)).collect();
    assert_identical(&netlist, &messages, 8);
}

#[test]
fn catalog_netlists_are_lane_identical_to_the_event_simulator() {
    for kind in EncoderKind::catalog() {
        if !K16_MEMBERS.contains(&kind) {
            sweep_design(kind, SAMPLED_MESSAGES);
        }
    }
}

#[test]
fn secded_22_16_is_lane_identical_on_every_message() {
    sweep_design(K16_MEMBERS[0], SAMPLED_MESSAGES);
}

#[test]
fn bch_31_16_is_lane_identical_on_every_message() {
    sweep_design(K16_MEMBERS[1], SAMPLED_MESSAGES);
}

proptest! {
    #[test]
    fn random_netlists_are_lane_identical_to_the_event_simulator(
        seed in any::<u64>(),
        k in 1usize..=6,
    ) {
        assert_random_netlist_identical(seed, k);
    }
}

#[test]
#[ignore = "nightly `sliced` tier: 64x the messages and netlists of the PR job"]
fn sliced_identity_sweep_at_64x() {
    sweep_catalog(64 * SAMPLED_MESSAGES);
    let mut rng = StdRng::seed_from_u64(0x511C_ED64);
    for _ in 0..NIGHTLY_NETLISTS {
        let seed = rng.random::<u64>();
        assert_random_netlist_identical(seed, 1 + (seed % 6) as usize);
    }
}
