//! High-throughput batch link driver.
//!
//! [`BatchLink`] runs the Fig. 5 Monte-Carlo inner loop — encode, corrupt,
//! decode, classify — through the bit-sliced batch codec of the `sfq-batch`
//! crate instead of the scalar gate-level path. One fabricated chip's fault
//! map is condensed into a set of correlated error sources (see
//! [`BatchLink::rebind`]), errors are injected 64 messages per `u64` limb,
//! and outcomes are counted with popcounts. On the paper's 8-bit codes this
//! is orders of magnitude faster per message than pulse-level simulation,
//! which is what makes million-chip sweeps tractable.
//!
//! ## Zero-allocation chip loop
//!
//! Everything that depends only on the *design* — the batch codec, the
//! per-node fan-out cones, the pipeline depth — lives in a
//! [`BatchLinkContext`] built once per Monte-Carlo run. A [`BatchLink`]
//! borrows the context and holds only the per-chip state (the condensed
//! error sources), which [`BatchLink::rebind`] rebuilds in place for each
//! new chip; together with the [`LinkScratch`] buffers threaded through
//! [`BatchLink::transmit_batch_with`], the steady-state chip loop performs
//! no heap allocation beyond the fault-map sampling itself.
//!
//! ## Relation to the scalar path
//!
//! The *codec* (encode/syndrome/decode) is bit-exact with the scalar `ecc`
//! decoders by construction. The *channel/fault model* is an approximation:
//! instead of replaying pulses through the faulty netlist, each faulty cell
//! is an independent Bernoulli error source at its per-activation malfunction
//! probability, and when it fires it flips **every output channel whose
//! fan-in cone contains the cell, together** (one shared draw per cell per
//! limb). This correlated injection matters at wide words: a malfunctioning
//! splitter deep in the clock tree of the SEC-DED(72,64) encoder corrupts
//! many codeword bits of the same word, which the decoder must flag rather
//! than correct — a per-channel independent-flip model would dilute such
//! bursts into mostly-correctable single errors. Cable/receiver noise is
//! genuinely independent per channel and is injected that way, at the
//! channel's crossover probability. The scalar [`crate::CryoLink`] remains
//! the reference oracle; `montecarlo::Fig5Experiment::run_design_batched`
//! uses this driver and the workspace tests check it tracks the scalar
//! statistics.
//!
//! One deliberate policy difference: the batch decoder uses the
//! tie-*detecting* RM(1,3) decoder (coset-invariant), while the scalar link
//! resolves ties best-effort. RM(1,3) batch runs therefore flag some words
//! the scalar link would have guessed at.

use crate::channel::ChannelConfig;
use ecc::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch};
use encoders::EncoderDesign;
use gf2::BitSlice64;
use rand::Rng;
use sfq_batch::BatchCodec;
use sfq_netlist::Netlist;
use sfq_sim::{FailureMode, FaultMap};

/// Outcome counts of one transmitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchLinkStats {
    /// Messages delivered correctly.
    pub correct: usize,
    /// Messages flagged by the decoder's error flag.
    pub flagged: usize,
    /// Messages silently delivered wrong.
    pub silent: usize,
}

impl BatchLinkStats {
    /// Total messages in the batch.
    #[must_use]
    pub fn total(&self) -> usize {
        self.correct + self.flagged + self.silent
    }

    /// Erroneous messages under the given counting policy (mirrors
    /// [`crate::montecarlo::ErrorCounting`]).
    #[must_use]
    pub fn erroneous(&self, silent_only: bool) -> usize {
        if silent_only {
            self.silent
        } else {
            self.silent + self.flagged
        }
    }
}

/// One correlated error source: a faulty cell, its effective per-word flip
/// probability, and which of the precomputed cone maps names the channels it
/// reaches. The channel lists themselves live in the shared
/// [`BatchLinkContext`] — rebinding a link to a new chip copies no lists.
#[derive(Debug, Clone, Copy)]
struct FaultSource {
    /// Effective per-word flip probability of the cell.
    prob: f64,
    /// Netlist node index of the faulty cell.
    node: usize,
    /// `true` → the spurious-pulse (data-port-only) cone applies; `false` →
    /// the full data+clock cone.
    data_only: bool,
}

/// Everything the batch driver precomputes from a *design* (as opposed to a
/// *chip*): the bit-sliced codec, the per-node fan-out cones, and the
/// pipeline cycle count. Build one per Monte-Carlo run and share it across
/// every chip and worker thread.
pub struct BatchLinkContext {
    codec: BatchCodec,
    cones: FaultCones,
    /// Sampling cycles (`latency + 1`).
    cycles: usize,
}

impl BatchLinkContext {
    /// Precomputes the context for one design.
    #[must_use]
    pub fn new(design: &EncoderDesign) -> Self {
        BatchLinkContext {
            codec: batch_codec_for(design),
            cones: FaultCones::of(design.netlist()),
            cycles: design.latency() + 1,
        }
    }

    /// The bit-sliced codec of the design.
    #[must_use]
    pub fn codec(&self) -> &BatchCodec {
        &self.codec
    }

    /// The output channels a source reaches.
    fn channels_of(&self, source: &FaultSource) -> &[usize] {
        if source.data_only {
            &self.cones.data_only[source.node]
        } else {
            &self.cones.full[source.node]
        }
    }
}

/// Link-level telemetry handles under the `link.*` names (see
/// `docs/OBSERVABILITY.md`). One set per [`LinkScratch`] — i.e. one shard
/// per worker thread — so the Monte-Carlo workers never contend on a
/// metric. Write-only: no RNG stream passes through these and no result
/// depends on them.
struct LinkMetrics {
    /// Batches transmitted.
    batches: sfq_telemetry::Counter,
    /// Messages transmitted.
    messages: sfq_telemetry::Counter,
    /// Correlated error-source Bernoulli limb draws.
    source_draws: sfq_telemetry::Counter,
    /// Draws that actually fired (flipped at least one lane).
    sources_fired: sfq_telemetry::Counter,
    /// Messages delivered correctly.
    correct: sfq_telemetry::Counter,
    /// Messages flagged detected-uncorrectable.
    flagged: sfq_telemetry::Counter,
    /// Messages silently delivered wrong.
    silent: sfq_telemetry::Counter,
    /// Wall time of one batch decode call, nanoseconds.
    decode_ns: sfq_telemetry::Histogram,
    /// Decode wall time per 64-message limb, nanoseconds.
    decode_ns_per_limb: sfq_telemetry::Histogram,
}

impl LinkMetrics {
    fn new() -> Self {
        let registry = sfq_telemetry::global();
        LinkMetrics {
            batches: registry.counter("link.batches"),
            messages: registry.counter("link.messages"),
            source_draws: registry.counter("link.source_draws"),
            sources_fired: registry.counter("link.sources_fired"),
            correct: registry.counter("link.outcome.correct"),
            flagged: registry.counter("link.outcome.flagged"),
            silent: registry.counter("link.outcome.silent"),
            decode_ns: registry.histogram("link.decode_ns"),
            decode_ns_per_limb: registry.histogram("link.decode_ns_per_limb"),
        }
    }
}

/// Reusable buffers for the batch link's transmit-decode loop: the received
/// batch, the decode output, and the codec scratch. One per worker thread
/// (which also makes its telemetry shards per-worker).
pub struct LinkScratch {
    received: BitSlice64,
    decoded: BatchDecoded,
    codec: BatchScratch,
    metrics: LinkMetrics,
}

impl Default for LinkScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl LinkScratch {
    /// Fresh, empty buffers; they are shaped on first use and only grow.
    #[must_use]
    pub fn new() -> Self {
        LinkScratch {
            received: BitSlice64::default(),
            decoded: BatchDecoded::empty(),
            codec: BatchScratch::new(),
            metrics: LinkMetrics::new(),
        }
    }
}

/// One encoder chip driven through the bit-sliced batch path.
pub struct BatchLink<'a> {
    design: &'a EncoderDesign,
    ctx: &'a BatchLinkContext,
    /// Correlated per-faulty-cell error sources of the bound chip.
    sources: Vec<FaultSource>,
    /// Independent per-channel crossover probability of the cable/receiver.
    crossover: f64,
}

impl<'a> BatchLink<'a> {
    /// A link over a fault-free chip and an ideal channel; bind a real chip
    /// with [`BatchLink::rebind`].
    #[must_use]
    pub fn new(design: &'a EncoderDesign, ctx: &'a BatchLinkContext) -> Self {
        BatchLink {
            design,
            ctx,
            sources: Vec::new(),
            crossover: 0.0,
        }
    }

    /// Builds a link already bound to one sampled chip.
    #[must_use]
    pub fn with_chip(
        design: &'a EncoderDesign,
        ctx: &'a BatchLinkContext,
        faults: &FaultMap,
        channel: ChannelConfig,
    ) -> Self {
        let mut link = Self::new(design, ctx);
        link.rebind(faults, channel);
        link
    }

    /// Re-binds this link to a new chip + channel, rebuilding the condensed
    /// error sources in place (the `sources` buffer is reused).
    ///
    /// Every faulty cell of the chip becomes a correlated error source whose
    /// per-message firing probability depends on its failure mode:
    ///
    /// * **drop** faults fire at `q/2` — although the pulse-level
    ///   oracle rolls such cells on every activation, a dropped pulse only
    ///   corrupts on the one cycle the data (or the clock pulse releasing
    ///   it) transits the cell, and only for one of the two nominal bit
    ///   values;
    /// * **spurious** faults fire at the parity of `Binomial(d + 1, q)`,
    ///   where `d` is the cell's clocked depth — the oracle rolls them every
    ///   cycle, extra pulses cancel pairwise at the toggling SFQ-to-DC
    ///   converters, and only fires early enough to reach the outputs by the
    ///   sampling cycle are visible.
    ///
    /// When a source fires it flips every affected output channel together:
    /// the full data+clock fan-out cone for a drop, the data-port-only
    /// cone for spurious (an extra edge on a clock port evaluates an empty
    /// cell, which emits nothing). Channel noise is injected independently
    /// per channel at the cable's crossover probability.
    pub fn rebind(&mut self, faults: &FaultMap, channel: ChannelConfig) {
        self.crossover = channel.crossover_probability();
        let cones = &self.ctx.cones;
        let cycles = self.ctx.cycles;
        self.sources.clear();
        // `iter_faulty` yields nodes in index order, which fixes the RNG
        // draw order of `transmit_batch` deterministically.
        for (id, fault) in faults.iter_faulty() {
            let q = fault.activation_failure_prob;
            let (prob, data_only) = match fault.mode {
                // A dropped pulse is only visible on the one cycle the
                // data transits the cell, and only for one of the two
                // nominal bit values. Dropped *clock* pulses corrupt too
                // (held flux is released late), so the full data+clock
                // cone is affected.
                FailureMode::DropPulse => (0.5 * q, false),
                // A spurious emission only corrupts where it can inject a
                // *data* pulse (an extra edge on a clock port evaluates
                // an empty cell, which emits nothing). The pulse-level
                // simulator rolls spurious cells once per cycle
                // (combinational ones via the per-cycle activity step,
                // clocked ones at every clock edge), and the toggling
                // SFQ-to-DC levels record the *parity* of the extra
                // pulses: P(odd of Binomial(c, q)) = (1 − (1−2q)^c) / 2.
                FailureMode::SpuriousPulse => {
                    // Only fires early enough to reach the outputs by the
                    // sampling cycle count: a pulse from a cell at
                    // clocked depth `d` needs `latency − d` further
                    // stages, so of the `latency + 1` rolls, `d + 1`
                    // arrive in time.
                    let rolls = (cones.depth[id.0] + 1).min(cycles);
                    let prob = 0.5 * (1.0 - (1.0 - 2.0 * q.min(0.5)).powi(rolls as i32));
                    (prob, true)
                }
            };
            let source = FaultSource {
                prob,
                node: id.0,
                data_only,
            };
            if self.ctx.channels_of(&source).is_empty() {
                continue;
            }
            self.sources.push(source);
        }
    }

    /// The design this link carries.
    #[must_use]
    pub fn design(&self) -> &EncoderDesign {
        self.design
    }

    /// The bit-sliced codec in use.
    #[must_use]
    pub fn codec(&self) -> &BatchCodec {
        self.ctx.codec()
    }

    /// Marginal per-channel flip probabilities of the bound chip + cable
    /// (chip faults XOR-composed with the cable), computed on demand for
    /// reporting and sanity tests — the hot path never needs them.
    #[must_use]
    pub fn flip_probabilities(&self) -> Vec<f64> {
        let n = self.codec().n();
        (0..n)
            .map(|j| {
                let mut p = 0.0f64;
                for source in &self.sources {
                    if self.ctx.channels_of(source).contains(&j) {
                        p = xor_compose(p, source.prob);
                    }
                }
                xor_compose(p, self.crossover)
            })
            .collect()
    }

    /// Draws a uniform batch of `batch` random `k`-bit messages.
    ///
    /// Uniform messages have independent uniform bits, so the transposed
    /// lanes are simply random limbs (tail-masked).
    #[must_use]
    pub fn random_messages<R: Rng + ?Sized>(&self, batch: usize, rng: &mut R) -> BitSlice64 {
        let mut messages = BitSlice64::default();
        self.random_messages_into(batch, rng, &mut messages);
        messages
    }

    /// Like [`BatchLink::random_messages`], but re-shapes a caller-provided
    /// buffer in place (same RNG stream).
    pub fn random_messages_into<R: Rng + ?Sized>(
        &self,
        batch: usize,
        rng: &mut R,
        messages: &mut BitSlice64,
    ) {
        messages.reset(self.codec().k(), batch);
        let tail = messages.tail_mask();
        let words = messages.words();
        for bit in 0..self.codec().k() {
            let lane = messages.lane_mut(bit);
            for (w, limb) in lane.iter_mut().enumerate() {
                let mask = if w + 1 == words { tail } else { u64::MAX };
                *limb = rng.random::<u64>() & mask;
            }
        }
    }

    /// Transmits a batch of messages end to end and classifies every
    /// outcome, reusing the caller's [`LinkScratch`] buffers.
    pub fn transmit_batch_with<R: Rng + ?Sized>(
        &self,
        messages: &BitSlice64,
        rng: &mut R,
        scratch: &mut LinkScratch,
    ) -> BatchLinkStats {
        let codec = self.codec();
        codec.encode_batch_into(messages, &mut scratch.received);
        let received = &mut scratch.received;
        let words = received.words();
        let tail = received.tail_mask();

        // Correlated chip-fault injection: one Bernoulli limb per (source,
        // word), XORed into every channel the source reaches — 64 words
        // share each draw column-wise, and all affected channels of one word
        // flip together.
        let mut source_draws = 0u64;
        let mut sources_fired = 0u64;
        for source in &self.sources {
            if source.prob <= 0.0 {
                continue;
            }
            let channels = self.ctx.channels_of(source);
            for w in 0..words {
                let valid = if w + 1 == words { tail } else { u64::MAX };
                let mask = bernoulli_limb(rng, source.prob) & valid;
                source_draws += 1;
                if mask == 0 {
                    continue;
                }
                sources_fired += 1;
                for &channel in channels {
                    received.lane_mut(channel)[w] ^= mask;
                }
            }
        }

        // Independent cable/receiver noise: one Bernoulli limb per
        // (channel, word).
        if self.crossover > 0.0 {
            for bit in 0..codec.n() {
                let lane = received.lane_mut(bit);
                for (w, limb) in lane.iter_mut().enumerate() {
                    let mask = if w + 1 == words { tail } else { u64::MAX };
                    *limb ^= bernoulli_limb(rng, self.crossover) & mask;
                }
            }
        }

        let decode_watch = sfq_telemetry::Stopwatch::start();
        codec.decode_batch_with(received, &mut scratch.codec, &mut scratch.decoded);
        let decode_ns = decode_watch.elapsed_ns();
        let decoded = &scratch.decoded;

        // wrong = any message lane differs (flagged lanes are zeroed in the
        // decode result, so restrict to unflagged positions).
        let mut stats = BatchLinkStats::default();
        for w in 0..words {
            let valid = if w + 1 == words { tail } else { u64::MAX };
            let flagged = decoded.flagged[w] & valid;
            let mut wrong = 0u64;
            for bit in 0..codec.k() {
                wrong |= decoded.messages.lane(bit)[w] ^ messages.lane(bit)[w];
            }
            let silent = wrong & !flagged & valid;
            stats.flagged += flagged.count_ones() as usize;
            stats.silent += silent.count_ones() as usize;
            stats.correct += (valid & !flagged & !silent).count_ones() as usize;
        }

        let metrics = &scratch.metrics;
        metrics.batches.inc();
        metrics.messages.add(stats.total() as u64);
        metrics.source_draws.add(source_draws);
        metrics.sources_fired.add(sources_fired);
        metrics.correct.add(stats.correct as u64);
        metrics.flagged.add(stats.flagged as u64);
        metrics.silent.add(stats.silent as u64);
        metrics.decode_ns.record(decode_ns);
        if words > 0 {
            metrics.decode_ns_per_limb.record(decode_ns / words as u64);
        }
        stats
    }

    /// Transmits a batch of messages end to end and classifies every outcome
    /// (allocating convenience wrapper over
    /// [`BatchLink::transmit_batch_with`]).
    pub fn transmit_batch<R: Rng + ?Sized>(
        &self,
        messages: &BitSlice64,
        rng: &mut R,
    ) -> BatchLinkStats {
        let mut scratch = LinkScratch::new();
        self.transmit_batch_with(messages, rng, &mut scratch)
    }
}

/// The batch codec of a design's reference code
/// ([`EncoderDesign::reference_code`]).
#[must_use]
pub fn batch_codec_for(design: &EncoderDesign) -> BatchCodec {
    BatchCodec::new(design.reference_code())
}

/// Per-node downstream output channels, under two notions of reachability.
struct FaultCones {
    /// Channels reachable forward through **any** port (data or clock).
    full: Vec<Vec<usize>>,
    /// Channels reachable forward through **data** ports only.
    data_only: Vec<Vec<usize>>,
    /// Clocked stages from the primary inputs up to and including each node
    /// (the netlist's logic-depth notion).
    depth: Vec<usize>,
}

impl FaultCones {
    /// Computes both cone maps with one backward DFS per output over driver
    /// adjacencies built in a single pass over the connection list. The
    /// netlist's own reverse-driver index covers the *full* adjacency, but
    /// the fault model also needs the **data-only** view (clock edges
    /// excluded), so both filtered adjacency lists are materialized here.
    fn of(netlist: &Netlist) -> Self {
        let node_count = netlist.nodes().len();
        let mut drivers_full: Vec<Vec<usize>> = vec![Vec::new(); node_count];
        let mut drivers_data: Vec<Vec<usize>> = vec![Vec::new(); node_count];
        for connection in netlist.connections() {
            let to = connection.to.0;
            let from = connection.from.node.0;
            drivers_full[to].push(from);
            let is_clock_edge =
                netlist.node(connection.to).kind.clock_port() == Some(connection.to_port);
            if !is_clock_edge {
                drivers_data[to].push(from);
            }
        }
        let walk = |drivers: &[Vec<usize>]| -> Vec<Vec<usize>> {
            let mut channels_of: Vec<Vec<usize>> = vec![Vec::new(); node_count];
            for (channel, &out) in netlist.outputs().iter().enumerate() {
                let mut seen = vec![false; node_count];
                let mut stack = vec![out.0];
                while let Some(id) = stack.pop() {
                    if seen[id] {
                        continue;
                    }
                    seen[id] = true;
                    channels_of[id].push(channel);
                    stack.extend(drivers[id].iter().copied());
                }
            }
            channels_of
        };
        // Node depths (clocked stages up to and including the node) by
        // memoized DFS over the full driver adjacency.
        let mut depth: Vec<Option<usize>> = vec![None; node_count];
        fn depth_of(
            id: usize,
            netlist: &Netlist,
            drivers: &[Vec<usize>],
            memo: &mut Vec<Option<usize>>,
        ) -> usize {
            if let Some(d) = memo[id] {
                return d;
            }
            memo[id] = Some(0); // cycle guard; real cycles are a DRC error
            let own = usize::from(netlist.nodes()[id].kind.is_clocked());
            let upstream = drivers[id]
                .iter()
                .map(|&d| depth_of(d, netlist, drivers, memo))
                .max()
                .unwrap_or(0);
            let result = own + upstream;
            memo[id] = Some(result);
            result
        }
        for id in 0..node_count {
            depth_of(id, netlist, &drivers_full, &mut depth);
        }

        FaultCones {
            full: walk(&drivers_full),
            data_only: walk(&drivers_data),
            depth: depth.into_iter().map(|d| d.unwrap_or(0)).collect(),
        }
    }
}

/// XOR-composition of independent flip probabilities:
/// `P(odd number of flips)` for two sources.
fn xor_compose(p: f64, q: f64) -> f64 {
    p * (1.0 - q) + q * (1.0 - p)
}

/// One limb of independent Bernoulli(`p`) bits, using the bitwise method:
/// processing the binary expansion of `p` from LSB to MSB, OR-ing a fresh
/// random limb for a 1-bit and AND-ing for a 0-bit yields exactly the prefix
/// probability at 24-bit precision.
fn bernoulli_limb<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    const DEPTH: u32 = 24;
    let scaled = (p.clamp(0.0, 1.0) * f64::from(1u32 << DEPTH)).round() as u32;
    if scaled == 0 {
        return 0;
    }
    if scaled >= 1 << DEPTH {
        return u64::MAX;
    }
    let mut acc = 0u64;
    for i in 0..DEPTH {
        let r = rng.random::<u64>();
        if (scaled >> i) & 1 == 1 {
            acc |= r;
        } else {
            acc &= r;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoders::EncoderKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_batch_link_delivers_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in EncoderKind::ALL {
            let design = EncoderDesign::build(kind);
            let ctx = BatchLinkContext::new(&design);
            let link = BatchLink::new(&design, &ctx);
            let messages = link.random_messages(500, &mut rng);
            let stats = link.transmit_batch(&messages, &mut rng);
            assert_eq!(stats.total(), 500);
            assert_eq!(stats.correct, 500, "{}", design.name());
        }
    }

    #[test]
    fn flip_probabilities_track_channel_noise() {
        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let ctx = BatchLinkContext::new(&design);
        let healthy = FaultMap::healthy(design.netlist());
        let clean = BatchLink::with_chip(&design, &ctx, &healthy, ChannelConfig::ideal());
        let noisy = BatchLink::with_chip(&design, &ctx, &healthy, ChannelConfig::with_snr_db(8.0));
        assert_eq!(clean.flip_probabilities().len(), 8);
        for (&c, &n) in clean
            .flip_probabilities()
            .iter()
            .zip(&noisy.flip_probabilities())
        {
            assert!(c < 1e-9, "ideal channel must be almost noiseless");
            assert!(n > 1e-3, "noisy channel must flip bits");
        }
    }

    #[test]
    fn bernoulli_limb_matches_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        for &p in &[0.01f64, 0.1, 0.5, 0.9] {
            let mut ones = 0usize;
            let limbs = 2000;
            for _ in 0..limbs {
                ones += bernoulli_limb(&mut rng, p).count_ones() as usize;
            }
            let measured = ones as f64 / (limbs * 64) as f64;
            assert!((measured - p).abs() < 0.01, "p={p} measured={measured}");
        }
    }

    #[test]
    fn noisy_channel_produces_flags_and_errors() {
        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let ctx = BatchLinkContext::new(&design);
        let link = BatchLink::with_chip(
            &design,
            &ctx,
            &FaultMap::healthy(design.netlist()),
            ChannelConfig::with_snr_db(9.0),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let messages = link.random_messages(20_000, &mut rng);
        let stats = link.transmit_batch(&messages, &mut rng);
        assert_eq!(stats.total(), 20_000);
        assert!(stats.flagged > 0, "double errors must raise the flag");
        assert!(stats.correct > stats.silent, "most messages should survive");
    }

    #[test]
    fn batch_stats_match_scalar_link_statistically() {
        // Same fault-free noisy channel, scalar vs batch: silent-error rates
        // must agree within Monte-Carlo tolerance (the codec is bit-exact;
        // only the noise realizations differ).
        use crate::link::{CryoLink, LinkOutcome};
        use gf2::BitVec;

        let design = EncoderDesign::build(EncoderKind::Hamming74);
        let channel = ChannelConfig::with_snr_db(10.0);
        let trials = 60_000usize;

        let link = CryoLink::new(&design, FaultMap::healthy(design.netlist()), channel);
        let mut rng = StdRng::seed_from_u64(17);
        let mut scalar_wrong = 0usize;
        for i in 0..trials {
            let msg = BitVec::from_u64(4, (i % 16) as u64);
            if link.transmit(&msg, &mut rng).outcome == LinkOutcome::SilentError {
                scalar_wrong += 1;
            }
        }

        let ctx = BatchLinkContext::new(&design);
        let batch_link =
            BatchLink::with_chip(&design, &ctx, &FaultMap::healthy(design.netlist()), channel);
        let messages = batch_link.random_messages(trials, &mut rng);
        let stats = batch_link.transmit_batch(&messages, &mut rng);

        let scalar_rate = scalar_wrong as f64 / trials as f64;
        let batch_rate = stats.silent as f64 / trials as f64;
        assert!(
            (scalar_rate - batch_rate).abs() < 0.005 + scalar_rate * 0.5,
            "scalar {scalar_rate} vs batch {batch_rate}"
        );
    }

    #[test]
    fn counting_policies_partition_the_batch() {
        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let ctx = BatchLinkContext::new(&design);
        let link = BatchLink::with_chip(
            &design,
            &ctx,
            &FaultMap::healthy(design.netlist()),
            ChannelConfig::with_snr_db(8.0),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let messages = link.random_messages(5000, &mut rng);
        let stats = link.transmit_batch(&messages, &mut rng);
        assert_eq!(stats.erroneous(false), stats.silent + stats.flagged);
        assert_eq!(stats.erroneous(true), stats.silent);
        assert_eq!(stats.total(), 5000);
    }

    #[test]
    fn rebind_reuses_buffers_and_matches_fresh_construction() {
        // Driving the same chip sequence through one rebound link and
        // through per-chip fresh links must give identical statistics under
        // identical RNG streams.
        use sfq_cells::CellLibrary;
        use sfq_sim::PpvModel;

        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let ctx = BatchLinkContext::new(&design);
        let library = CellLibrary::coldflux();
        let model = PpvModel::paper_defaults();
        let channel = ChannelConfig::ideal();

        let mut rebound = BatchLink::new(&design, &ctx);
        let mut scratch = LinkScratch::new();
        let mut messages = BitSlice64::default();
        for chip_index in 0..12u64 {
            let mut rng_a = StdRng::seed_from_u64(chip_index);
            let chip = model.sample_chip(design.netlist(), &library, &mut rng_a);
            rebound.rebind(&chip.faults, channel);
            rebound.random_messages_into(200, &mut rng_a, &mut messages);
            let a = rebound.transmit_batch_with(&messages, &mut rng_a, &mut scratch);

            let mut rng_b = StdRng::seed_from_u64(chip_index);
            let chip = model.sample_chip(design.netlist(), &library, &mut rng_b);
            let fresh = BatchLink::with_chip(&design, &ctx, &chip.faults, channel);
            let msgs = fresh.random_messages(200, &mut rng_b);
            let b = fresh.transmit_batch(&msgs, &mut rng_b);

            assert_eq!(a, b, "chip {chip_index}");
        }
    }
}
