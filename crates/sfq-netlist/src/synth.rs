//! Synthesis passes: the transformations the paper applies by hand when
//! turning the codeword equations (Eq. 3) into the schematics of Figs. 2
//! and 4.
//!
//! * [`fanout`] — SFQ gates have fan-out one, so a signal driving `n` loads
//!   needs a chain of `n − 1` splitters;
//! * [`dff_chain`] — codeword bits with shallower logic are delayed through
//!   DFFs so that all bits of a codeword leave the encoder on the same clock
//!   cycle;
//! * [`build_clock_tree`] — every clocked gate needs its own copy of the
//!   clock, distributed through a splitter tree (13 extra splitters for the
//!   Hamming(8,4) encoder);
//! * [`synthesize_linear_encoder`] — the *naive* generator-matrix-to-netlist
//!   flow (one XOR tree per parity equation, zero sharing). It is kept as the
//!   cost baseline the optimizing pipeline is measured against;
//! * [`synthesize_encoder`] — the optimizing pass pipeline (see
//!   [`crate::pass`]) on its fixed default schedule: common-pair XOR
//!   factoring, tree balancing, fan-out / alignment planning, emission,
//!   clock tree. The `encoders` crate derives its circuits — including the
//!   paper's three hand-drawn designs — through the same passes, but lets
//!   [`SynthPlanner`](crate::pass::SynthPlanner) pick the factoring and tree
//!   shaping per design.

use crate::pass::{PassManager, PipelineOptions, SynthResult};
use crate::{Netlist, NodeId, PortRef};
use gf2::BitMat;
use sfq_cells::CellKind;

/// Expands one output port into `loads` output ports by inserting a chain of
/// `loads − 1` splitters.
///
/// Returns exactly `loads` ports (the original port is returned unchanged if
/// `loads == 1`). `prefix` names the inserted splitters.
///
/// # Panics
/// Panics if `loads == 0`.
pub fn fanout(netlist: &mut Netlist, source: PortRef, loads: usize, prefix: &str) -> Vec<PortRef> {
    assert!(loads > 0, "fanout requires at least one load");
    if loads == 1 {
        return vec![source];
    }
    let mut ports = Vec::with_capacity(loads);
    let mut current = source;
    for i in 0..loads - 1 {
        let splitter = netlist.add_cell(CellKind::Splitter, format!("{prefix}_spl{i}"));
        netlist.connect(current, splitter, 0);
        ports.push(PortRef {
            node: splitter,
            port: 0,
        });
        current = PortRef {
            node: splitter,
            port: 1,
        };
    }
    ports.push(current);
    ports
}

/// Inserts a chain of `stages` D flip-flops after `source` and returns the
/// output port of the last one. Each DFF is registered as a clock sink.
///
/// With `stages == 0` the source port is returned unchanged.
pub fn dff_chain(netlist: &mut Netlist, source: PortRef, stages: usize, prefix: &str) -> PortRef {
    let mut current = source;
    for i in 0..stages {
        let dff = netlist.add_cell(CellKind::Dff, format!("{prefix}_dff{i}"));
        netlist.connect(current, dff, 0);
        netlist.add_clock_sink(dff);
        current = PortRef::of(dff);
    }
    current
}

/// Builds the clock-distribution network: a chain of splitters delivering the
/// clock to every registered clock sink. Returns the number of splitters
/// inserted (`sinks − 1`, or 0 when there is at most one sink).
///
/// # Panics
/// Panics if the netlist has clock sinks but no clock source.
pub fn build_clock_tree(netlist: &mut Netlist, prefix: &str) -> usize {
    let sinks: Vec<NodeId> = netlist.clock_sinks().to_vec();
    if sinks.is_empty() {
        return 0;
    }
    let clock = netlist
        .clock()
        .expect("clock sinks are present but no clock source was added");
    let clock_ports: Vec<usize> = sinks
        .iter()
        .map(|&s| {
            netlist
                .node(s)
                .kind
                .clock_port()
                .expect("clock sinks are clocked cells")
        })
        .collect();
    let feeds = fanout(netlist, PortRef::of(clock), sinks.len(), prefix);
    for ((sink, port), feed) in sinks.iter().zip(clock_ports).zip(feeds) {
        netlist.connect(feed, *sink, port);
    }
    sinks.len() - 1
}

/// Synthesizes a gate-level SFQ encoder netlist for an arbitrary binary
/// linear code given its `k × n` generator matrix.
///
/// Each codeword bit `c_j = ⊕_{i : G[i][j]=1} m_i` becomes a balanced XOR
/// tree; passthrough bits (single-term columns) become DFF delay chains; all
/// outputs are balanced to the worst-case logic depth and driven through
/// SFQ-to-DC converters; message fan-out and the clock network are expanded
/// into explicit splitters.
///
/// # Panics
/// Panics if the generator matrix has a zero column (a codeword bit that
/// depends on no message bit cannot be generated).
pub fn synthesize_linear_encoder(name: &str, generator: &BitMat) -> Netlist {
    let k = generator.rows();
    let n = generator.cols();
    let mut netlist = Netlist::new(name);

    // Primary inputs and clock.
    let inputs: Vec<NodeId> = (0..k)
        .map(|i| netlist.add_input(format!("m{}", i + 1)))
        .collect();
    netlist.add_clock("clk");

    // Terms of each output column.
    let terms_per_output: Vec<Vec<usize>> = (0..n)
        .map(|j| (0..k).filter(|&i| generator.get(i, j)).collect::<Vec<_>>())
        .collect();
    for (j, terms) in terms_per_output.iter().enumerate() {
        assert!(
            !terms.is_empty(),
            "generator column {j} is zero; codeword bit c{} has no source",
            j + 1
        );
    }

    // The logic depth of a t-term XOR tree is ceil(log2(t)); passthroughs
    // (t = 1) have depth 0 before balancing.
    let depth_of = |t: usize| -> usize {
        if t <= 1 {
            0
        } else {
            (t as f64).log2().ceil() as usize
        }
    };
    let max_depth = terms_per_output
        .iter()
        .map(|t| depth_of(t.len()))
        .max()
        .unwrap_or(0)
        .max(1);

    // Fan-out each message input into as many ports as it has uses.
    let mut input_ports: Vec<Vec<PortRef>> = Vec::with_capacity(k);
    for (i, &input) in inputs.iter().enumerate() {
        let uses = terms_per_output
            .iter()
            .filter(|terms| terms.contains(&i))
            .count();
        let ports = if uses == 0 {
            Vec::new()
        } else {
            fanout(
                &mut netlist,
                PortRef::of(input),
                uses,
                &format!("m{}", i + 1),
            )
        };
        input_ports.push(ports);
    }
    let mut next_port: Vec<usize> = vec![0; k];
    let take_input = |i: usize, input_ports: &Vec<Vec<PortRef>>, next_port: &mut Vec<usize>| {
        let port = input_ports[i][next_port[i]];
        next_port[i] += 1;
        port
    };

    // Build each output cone.
    for (j, terms) in terms_per_output.iter().enumerate() {
        let out_name = format!("c{}", j + 1);
        let mut level: Vec<PortRef> = terms
            .iter()
            .map(|&i| take_input(i, &input_ports, &mut next_port))
            .collect();
        let mut depth = 0;
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len().div_ceil(2));
            let mut iter = level.chunks(2);
            for (idx, chunk) in iter.by_ref().enumerate() {
                match chunk {
                    [a, b] => {
                        let xor =
                            netlist.add_cell(CellKind::Xor, format!("{out_name}_x{depth}_{idx}"));
                        netlist.connect(*a, xor, 0);
                        netlist.connect(*b, xor, 1);
                        netlist.add_clock_sink(xor);
                        next_level.push(PortRef::of(xor));
                    }
                    [a] => {
                        // Odd signal out: delay through a DFF to stay aligned
                        // with its future partners.
                        let delayed =
                            dff_chain(&mut netlist, *a, 1, &format!("{out_name}_bal{depth}_{idx}"));
                        next_level.push(delayed);
                    }
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                }
            }
            level = next_level;
            depth += 1;
        }
        let signal = dff_chain(
            &mut netlist,
            level[0],
            max_depth - depth,
            &format!("{out_name}_pad"),
        );
        let driver = netlist.add_cell(CellKind::SfqToDc, format!("{out_name}_drv"));
        netlist.connect(signal, driver, 0);
        let output = netlist.add_output(out_name);
        netlist.connect(PortRef::of(driver), output, 0);
    }

    build_clock_tree(&mut netlist, "clk");
    netlist
}

/// Synthesizes an encoder through the optimizing pass pipeline
/// ([`crate::pass`]): greedy common-pair XOR factoring under a depth budget,
/// XOR-tree balancing, splitter fan-out / alignment planning, netlist
/// emission, and clock-tree construction — with built-in GF(2) functional
/// verification after every pass.
///
/// # Panics
/// Panics if the generator has a zero column or a pass breaks functional
/// equivalence (which would be a synthesis bug, not a user error).
#[must_use]
pub fn synthesize_encoder(name: &str, generator: &BitMat, options: PipelineOptions) -> SynthResult {
    PassManager::standard(options)
        .run(name, generator)
        .unwrap_or_else(|e| panic!("synthesis pipeline failed for {name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drc;
    use ecc::{BlockCode, ColumnCode};
    use sfq_cells::CellKind;

    #[test]
    fn fanout_of_one_returns_source() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let ports = fanout(&mut nl, PortRef::of(a), 1, "a");
        assert_eq!(ports, vec![PortRef::of(a)]);
        assert_eq!(nl.count_cells(CellKind::Splitter), 0);
    }

    #[test]
    fn fanout_inserts_n_minus_one_splitters() {
        for loads in 2..=6 {
            let mut nl = Netlist::new("f");
            let a = nl.add_input("a");
            let ports = fanout(&mut nl, PortRef::of(a), loads, "a");
            assert_eq!(ports.len(), loads);
            assert_eq!(nl.count_cells(CellKind::Splitter), loads - 1);
            // Each returned port is distinct and drives nothing yet.
            for &p in &ports {
                assert!(nl.sinks_of(p).is_empty());
            }
        }
    }

    #[test]
    fn dff_chain_adds_stages_and_clock_sinks() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let end = dff_chain(&mut nl, PortRef::of(a), 3, "a");
        assert_eq!(nl.count_cells(CellKind::Dff), 3);
        assert_eq!(nl.clock_sinks().len(), 3);
        let out = nl.add_output("o");
        nl.connect(end, out, 0);
        assert_eq!(nl.logic_depth(), 3);
    }

    #[test]
    fn clock_tree_uses_sinks_minus_one_splitters() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        nl.add_clock("clk");
        let end = dff_chain(&mut nl, PortRef::of(a), 4, "a");
        let out = nl.add_output("o");
        nl.connect(end, out, 0);
        let splitters = build_clock_tree(&mut nl, "clk");
        assert_eq!(splitters, 3);
        assert_eq!(nl.count_cells(CellKind::Splitter), 3);
        assert!(drc::is_clean(&nl), "{:?}", drc::check(&nl));
    }

    #[test]
    fn generic_hamming84_synthesis_is_clean_and_balanced() {
        let code = ColumnCode::hamming84();
        let nl = synthesize_linear_encoder("hamming84_generic", code.generator());
        assert!(drc::is_clean(&nl), "{:?}", drc::check(&nl));
        assert_eq!(nl.inputs().len(), 4);
        assert_eq!(nl.outputs().len(), 8);
        // Without subexpression sharing the XOR-tree flow needs 2 XORs per
        // 3-term output: columns c1, c2, c4, c8.
        assert_eq!(nl.count_cells(CellKind::Xor), 8);
        assert_eq!(nl.count_cells(CellKind::SfqToDc), 8);
        assert_eq!(nl.logic_depth(), 2);
        // All outputs aligned.
        let depths = nl.output_depths();
        assert!(depths.iter().all(|&d| d == depths[0]), "{depths:?}");
    }

    #[test]
    fn pipeline_reproduces_hamming84_paper_budget() {
        let code = ColumnCode::hamming84();
        let result = synthesize_encoder(
            "hamming84_encoder",
            code.generator(),
            crate::pass::PipelineOptions::default(),
        );
        let nl = &result.netlist;
        assert!(drc::is_clean(nl), "{:?}", drc::check(nl));
        assert_eq!(nl.count_cells(CellKind::Xor), 6, "6 XOR gates");
        assert_eq!(nl.count_cells(CellKind::Dff), 8, "8 balancing DFFs");
        assert_eq!(
            nl.count_cells(CellKind::Splitter),
            23,
            "10 data + 13 clock splitters"
        );
        assert_eq!(nl.count_cells(CellKind::SfqToDc), 8);
        assert_eq!(nl.logic_depth(), 2);
        assert!(nl.output_depths().iter().all(|&d| d == 2));
    }

    #[test]
    fn pipeline_reproduces_hamming74_paper_budget() {
        let code = ecc::ColumnCode::hamming74();
        let result = synthesize_encoder(
            "hamming74_encoder",
            code.generator(),
            crate::pass::PipelineOptions::default(),
        );
        let nl = &result.netlist;
        assert!(drc::is_clean(nl), "{:?}", drc::check(nl));
        assert_eq!(nl.count_cells(CellKind::Xor), 5);
        assert_eq!(nl.count_cells(CellKind::Dff), 8);
        assert_eq!(nl.count_cells(CellKind::Splitter), 20);
        assert_eq!(nl.count_cells(CellKind::SfqToDc), 7);
        assert_eq!(nl.logic_depth(), 2);
    }

    #[test]
    fn pipeline_reproduces_rm13_paper_budget_with_alignment() {
        let code = ecc::Rm13::new();
        let result = synthesize_encoder(
            "rm13_encoder",
            code.generator(),
            crate::pass::PipelineOptions {
                discipline: crate::pass::InputDiscipline::Align,
                ..Default::default()
            },
        );
        let nl = &result.netlist;
        assert!(drc::is_clean(nl), "{:?}", drc::check(nl));
        assert_eq!(nl.count_cells(CellKind::Xor), 8);
        assert_eq!(
            nl.count_cells(CellKind::Dff),
            7,
            "5 balancing + 2 alignment"
        );
        assert_eq!(nl.count_cells(CellKind::Splitter), 26);
        assert_eq!(nl.count_cells(CellKind::SfqToDc), 8);
        assert_eq!(nl.logic_depth(), 2);
    }

    #[test]
    fn pipeline_cuts_secded_7264_jj_count_by_at_least_20_percent() {
        use sfq_cells::CellLibrary;
        let code = ecc::ColumnCode::sec_ded(6);
        let naive = synthesize_linear_encoder("secded_72_64_naive", code.generator());
        let optimized = synthesize_encoder(
            "secded_72_64_encoder",
            code.generator(),
            crate::pass::PipelineOptions::default(),
        );
        let nl = &optimized.netlist;
        assert!(drc::is_clean(nl), "{:?}", drc::check(nl));
        let lib = CellLibrary::coldflux();
        // The exact baseline (9522 JJ) and optimized numbers are pinned once,
        // in tests/golden/circuit_costs.txt; this unit test only holds the
        // pipeline to its relative guarantee.
        let naive_jj = crate::NetlistStats::compute(&naive, &lib).cost.jj_count;
        let opt_jj = crate::NetlistStats::compute(nl, &lib).cost.jj_count;
        println!(
            "secded(72,64): naive {naive_jj} JJ -> optimized {opt_jj} JJ ({:.1}% cut)\n{}",
            100.0 * (naive_jj - opt_jj) as f64 / naive_jj as f64,
            optimized.report.summary()
        );
        assert!(
            opt_jj * 10 <= naive_jj * 8,
            "optimized {opt_jj} JJ must be at least 20% below naive {naive_jj} JJ"
        );
        // Latency must not regress versus the naive balanced-tree flow.
        assert_eq!(nl.logic_depth(), naive.logic_depth());
    }

    #[test]
    fn baseline_3832_encoder_synthesizes() {
        let code = ColumnCode::shortened_hamming_38_32();
        let nl = synthesize_linear_encoder("peng3832", code.generator());
        assert!(drc::is_clean(&nl), "{:?}", drc::check(&nl));
        assert_eq!(nl.inputs().len(), 32);
        assert_eq!(nl.outputs().len(), 38);
        // The reference design of [14] reports 84 XOR gates; a shared-logic
        // implementation is smaller, an unshared tree flow is larger. Sanity
        // bounds only.
        let xors = nl.count_cells(CellKind::Xor);
        assert!((60..=200).contains(&xors), "xor count {xors}");
    }
}
