//! Correlated burst-error sources, streaming scrub-traffic error injection,
//! and codeword interleaving.
//!
//! The superconducting failure modes that motivate this module are *not*
//! independent per lane: a glitch in the clock tree of a wide encoder (or a
//! multi-cycle upset on a cable bundle) corrupts a group of **physically
//! adjacent** output channels during the same window. In the bit-sliced
//! batch representation ([`gf2::BitSlice64`]) that is exactly one event
//! flipping `w` adjacent *lanes* of one 64-message limb — every message in
//! the limb takes a `w`-bit burst, which a single-error-correcting code
//! cannot repair (SEC-DED flags it; anything weaker may miscorrect).
//!
//! The classic system fix is [`Interleaver`]: transmitting `d` codewords
//! lane-interleaved over the physical channel group, so that `w ≤ d`
//! adjacent physical lanes always belong to `w` *different* codewords. After
//! de-interleaving, the burst has been converted into at most one flipped
//! lane per codeword — back inside single-error-correction territory. The
//! workspace's property suite proves this round trip restores
//! correctability for every `w ≤ d`.
//!
//! [`SparseFlipSource`] is the steady-state error model of the streaming
//! scrub service (`sfq-stream`): independent rare lane flips, injected by
//! drawing the *number* of flips per batch (binomial over all
//! `lanes × messages` positions) and placing them uniformly, which costs
//! `O(flips)` instead of `O(lanes × limbs)` Bernoulli draws — the difference
//! between an error model that keeps up with a 1e8 msg/s decode path and
//! one that throttles it.

use gf2::BitSlice64;
use rand::Rng;

/// A correlated burst-error source: each firing flips `width` **adjacent**
/// lanes of one limb together (all 64 messages of the limb take the same
/// burst — one shared draw, exactly like a clock-tree glitch corrupting a
/// channel group for a whole arrival window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSource {
    /// Number of adjacent lanes a firing flips.
    pub width: usize,
    /// Per-limb firing probability used by [`BurstSource::inject`].
    pub prob: f64,
}

impl BurstSource {
    /// A burst source of the given lane width and per-limb firing
    /// probability.
    ///
    /// # Panics
    /// Panics if `width == 0` or `prob` is outside `[0, 1]`.
    #[must_use]
    pub fn new(width: usize, prob: f64) -> Self {
        assert!(width > 0, "burst width must be at least one lane");
        assert!(
            (0.0..=1.0).contains(&prob),
            "burst probability must be in [0, 1]"
        );
        BurstSource { width, prob }
    }

    /// Strikes exactly one burst: picks a uniform limb and a uniform start
    /// lane, then flips the whole 64-message word of `width` adjacent lanes.
    /// Draw order (limb, then start lane) is fixed, so a seeded RNG yields a
    /// deterministic strike.
    ///
    /// # Panics
    /// Panics if the frame has fewer lanes than `width` or holds no
    /// messages.
    pub fn strike<R: Rng + ?Sized>(&self, rng: &mut R, frame: &mut BitSlice64) {
        let lanes = frame.bits();
        let words = frame.words();
        assert!(
            lanes >= self.width,
            "frame has {lanes} lanes, burst needs {}",
            self.width
        );
        assert!(words > 0, "cannot strike an empty frame");
        let word = rng.random_range(0..words);
        let start = rng.random_range(0..=lanes - self.width);
        let mask = if word + 1 == words {
            frame.tail_mask()
        } else {
            u64::MAX
        };
        for lane in start..start + self.width {
            frame.lane_mut(lane)[word] ^= mask;
        }
    }

    /// Monte-Carlo injection: one Bernoulli draw per limb at
    /// [`BurstSource::prob`]; each firing flips `width` adjacent lanes of
    /// that limb (uniform start lane). Returns the number of bursts fired.
    ///
    /// # Panics
    /// Panics if the frame has fewer lanes than `width`.
    pub fn inject<R: Rng + ?Sized>(&self, rng: &mut R, frame: &mut BitSlice64) -> usize {
        let lanes = frame.bits();
        assert!(
            lanes >= self.width,
            "frame has {lanes} lanes, burst needs {}",
            self.width
        );
        let words = frame.words();
        let mut fired = 0usize;
        for word in 0..words {
            if !rng.random_bool(self.prob) {
                continue;
            }
            fired += 1;
            let start = rng.random_range(0..=lanes - self.width);
            let mask = if word + 1 == words {
                frame.tail_mask()
            } else {
                u64::MAX
            };
            for lane in start..start + self.width {
                frame.lane_mut(lane)[word] ^= mask;
            }
        }
        fired
    }
}

/// The steady-state error model of streaming scrub traffic: independent
/// rare flips at a per-position probability, injected in `O(flips)` by
/// sampling the flip *count* (binomial over all `lanes × messages`
/// positions) and placing each flip uniformly.
///
/// Two deliberate, documented approximations keep this source cheap enough
/// to feed a 1e8 msg/s decode path: the binomial count switches to a
/// normal approximation when its mean exceeds 32, and flip positions are
/// sampled *with* replacement (two flips landing on the same position
/// cancel), which at the scrubbing regime's per-position probabilities is a
/// vanishing-order effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseFlipSource {
    /// Per-position (lane × message) flip probability.
    pub flip_prob: f64,
}

impl SparseFlipSource {
    /// A source with the given per-position flip probability.
    ///
    /// # Panics
    /// Panics if `flip_prob` is outside `[0, 1]`.
    #[must_use]
    pub fn new(flip_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_prob),
            "flip probability must be in [0, 1]"
        );
        SparseFlipSource { flip_prob }
    }

    /// Injects flips into the frame; returns the number of flips placed
    /// (before cancellation by position collisions).
    pub fn inject<R: Rng + ?Sized>(&self, rng: &mut R, frame: &mut BitSlice64) -> usize {
        let lanes = frame.bits();
        let batch = frame.batch();
        if lanes == 0 || batch == 0 {
            return 0;
        }
        let positions = (lanes * batch) as u64;
        let flips = binomial_sample(rng, positions, self.flip_prob);
        for _ in 0..flips {
            let lane = rng.random_range(0..lanes);
            let msg = rng.random_range(0..batch);
            let value = frame.get(msg, lane);
            frame.set(msg, lane, !value);
        }
        flips as usize
    }
}

/// Samples `Binomial(trials, p)` with a seeded RNG: CDF inversion for small
/// means, a clamped normal approximation above mean 32 (where inversion
/// underflows and the approximation error is far below the Monte-Carlo
/// noise of any consumer in this workspace). One or two uniform draws per
/// sample, deterministic for a fixed RNG stream.
fn binomial_sample<R: Rng + ?Sized>(rng: &mut R, trials: u64, p: f64) -> u64 {
    if trials == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return trials;
    }
    let mean = trials as f64 * p;
    if mean > 32.0 {
        // Box–Muller normal approximation, clamped to the support.
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let sigma = (mean * (1.0 - p)).sqrt();
        let sample = (mean + sigma * gauss).round();
        return sample.clamp(0.0, trials as f64) as u64;
    }
    // CDF inversion: walk pmf(k) = pmf(k-1) · ratio · (trials-k+1)/k.
    let u: f64 = rng.random();
    let mut pmf = (1.0 - p).powi(trials.min(i32::MAX as u64) as i32);
    let mut cdf = pmf;
    let mut k = 0u64;
    let ratio = p / (1.0 - p);
    while u > cdf && k < trials {
        k += 1;
        pmf *= ratio * ((trials - k + 1) as f64) / (k as f64);
        cdf += pmf;
        if pmf <= f64::MIN_POSITIVE {
            // The tail mass is below representable precision; stop here.
            break;
        }
    }
    k
}

/// Depth-`d` lane interleaver: `d` codeword blocks share a physical channel
/// group so that adjacent physical lanes carry *different* codewords.
///
/// Physical lane `p` of the interleaved frame carries lane `p / d` of block
/// `p % d`. A burst of `w ≤ d` adjacent physical lanes therefore touches at
/// most one lane of each block — after [`Interleaver::deinterleave`], every
/// block sees at most a single-lane error, which any single-error-correcting
/// code repairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interleaver {
    /// Number of codeword blocks sharing the channel group.
    pub depth: usize,
}

impl Interleaver {
    /// An interleaver of the given depth.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "interleave depth must be at least 1");
        Interleaver { depth }
    }

    /// Interleaves `depth` equal-shape blocks into one physical frame of
    /// `depth × lanes` lanes.
    ///
    /// # Panics
    /// Panics if `blocks.len() != depth`, or the blocks disagree in lane
    /// count or batch size.
    #[must_use]
    pub fn interleave(&self, blocks: &[BitSlice64]) -> BitSlice64 {
        assert_eq!(
            blocks.len(),
            self.depth,
            "interleaver depth {} needs exactly that many blocks",
            self.depth
        );
        let lanes = blocks[0].bits();
        let batch = blocks[0].batch();
        for (b, block) in blocks.iter().enumerate() {
            assert_eq!(block.bits(), lanes, "block {b} lane count differs");
            assert_eq!(block.batch(), batch, "block {b} batch size differs");
        }
        let mut frame = BitSlice64::zeros(lanes * self.depth, batch);
        for p in 0..lanes * self.depth {
            let (block, lane) = (p % self.depth, p / self.depth);
            frame.lane_mut(p).copy_from_slice(blocks[block].lane(lane));
        }
        frame
    }

    /// Inverts [`Interleaver::interleave`]: splits a physical frame back
    /// into its `depth` codeword blocks.
    ///
    /// # Panics
    /// Panics if the frame's lane count is not a multiple of the depth.
    #[must_use]
    pub fn deinterleave(&self, frame: &BitSlice64) -> Vec<BitSlice64> {
        let total = frame.bits();
        assert_eq!(
            total % self.depth,
            0,
            "frame lanes {total} not divisible by depth {}",
            self.depth
        );
        let lanes = total / self.depth;
        let batch = frame.batch();
        (0..self.depth)
            .map(|block| {
                let mut out = BitSlice64::zeros(lanes, batch);
                for lane in 0..lanes {
                    out.lane_mut(lane)
                        .copy_from_slice(frame.lane(lane * self.depth + block));
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc::{BatchDecode, BatchEncode};
    use gf2::BitVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfq_batch::BatchCodec;

    fn random_batch(k: usize, batch: usize, seed: u64) -> BitSlice64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let messages: Vec<BitVec> = (0..batch)
            .map(|_| BitVec::from_u64(k, rng.random_range(0..(1u64 << k))))
            .collect();
        BitSlice64::pack(&messages)
    }

    #[test]
    fn strike_flips_exactly_width_adjacent_lanes_of_one_limb() {
        let mut rng = StdRng::seed_from_u64(7);
        for width in 1..=4usize {
            let source = BurstSource::new(width, 1.0);
            let mut frame = BitSlice64::zeros(8, 130);
            source.strike(&mut rng, &mut frame);
            // Exactly `width` lanes are nonzero, they are adjacent, and they
            // share one identical fully-set limb word.
            let dirty: Vec<usize> = (0..8)
                .filter(|&l| frame.lane(l).iter().any(|&w| w != 0))
                .collect();
            assert_eq!(dirty.len(), width);
            assert!(dirty.windows(2).all(|w| w[1] == w[0] + 1), "{dirty:?}");
            let word = frame.lane(dirty[0]).iter().position(|&w| w != 0).unwrap();
            for &lane in &dirty {
                let expect = if word + 1 == frame.words() {
                    frame.tail_mask()
                } else {
                    u64::MAX
                };
                assert_eq!(frame.lane(lane)[word], expect);
            }
        }
    }

    #[test]
    fn uninterleaved_double_burst_is_uncorrectable_interleaved_is_not() {
        // Width-2 burst on SEC-DED(13,8): without interleaving every message
        // of the struck limb takes a double error (flagged); with depth-2
        // interleaving each codeword takes at most a single error (all
        // corrected).
        let codec = BatchCodec::new(&ecc::ColumnCode::sec_ded(3));
        let burst = BurstSource::new(2, 1.0);

        // Uninterleaved reference.
        let messages = random_batch(8, 64, 1);
        let mut received = codec.encode_batch(&messages);
        let mut rng = StdRng::seed_from_u64(11);
        burst.strike(&mut rng, &mut received);
        let decoded = codec.decode_batch(&received);
        assert_eq!(decoded.flagged_count(), 64, "double errors must flag");

        // Interleaved: two blocks share the physical lanes.
        let interleaver = Interleaver::new(2);
        let blocks: Vec<BitSlice64> = (0..2)
            .map(|b| codec.encode_batch(&random_batch(8, 64, b)))
            .collect();
        let mut frame = interleaver.interleave(&blocks);
        let mut rng = StdRng::seed_from_u64(11);
        burst.strike(&mut rng, &mut frame);
        for (b, block) in interleaver.deinterleave(&frame).iter().enumerate() {
            let decoded = codec.decode_batch(block);
            assert_eq!(decoded.flagged_count(), 0, "block {b} must correct");
            let reference = codec.decode_batch(&blocks[b]);
            assert_eq!(
                decoded.messages.unpack(),
                reference.messages.unpack(),
                "block {b} messages must round-trip"
            );
        }
    }

    #[test]
    fn interleave_round_trips_without_errors() {
        let interleaver = Interleaver::new(4);
        let blocks: Vec<BitSlice64> = (0..4).map(|b| random_batch(13, 100, b)).collect();
        let frame = interleaver.interleave(&blocks);
        assert_eq!(frame.bits(), 52);
        assert_eq!(interleaver.deinterleave(&frame), blocks);
    }

    #[test]
    fn sparse_flip_source_tracks_its_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let source = SparseFlipSource::new(0.01);
        let mut total = 0usize;
        let mut flipped = 0usize;
        for seed in 0..20u64 {
            let mut frame = random_batch(16, 2000, seed);
            let reference = frame.clone();
            source.inject(&mut rng, &mut frame);
            total += 16 * 2000;
            for lane in 0..16 {
                for (a, b) in frame.lane(lane).iter().zip(reference.lane(lane)) {
                    flipped += (a ^ b).count_ones() as usize;
                }
            }
        }
        let measured = flipped as f64 / total as f64;
        assert!(
            (measured - 0.01).abs() < 0.002,
            "measured flip rate {measured} should be near 0.01"
        );
    }

    #[test]
    fn binomial_sampler_means_track_expectation() {
        let mut rng = StdRng::seed_from_u64(5);
        // Both regimes: inversion (small mean) and normal approximation.
        for &(trials, p) in &[(2000u64, 0.005f64), (200_000u64, 0.001f64)] {
            let samples = 400;
            let sum: u64 = (0..samples)
                .map(|_| binomial_sample(&mut rng, trials, p))
                .sum();
            let mean = sum as f64 / f64::from(samples);
            let expect = trials as f64 * p;
            let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (mean - expect).abs() < 4.0 * sigma / f64::from(samples).sqrt(),
                "trials={trials} p={p}: mean {mean} vs expectation {expect}"
            );
        }
    }

    #[test]
    fn degenerate_sources_are_safe() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut frame = BitSlice64::zeros(8, 64);
        assert_eq!(SparseFlipSource::new(0.0).inject(&mut rng, &mut frame), 0);
        assert_eq!(BurstSource::new(2, 0.0).inject(&mut rng, &mut frame), 0);
        assert_eq!(frame.count_ones(), 0);
        // p = 1 flips every position exactly once.
        let flips = SparseFlipSource::new(1.0).inject(&mut rng, &mut frame);
        assert_eq!(flips, 8 * 64);
    }
}
