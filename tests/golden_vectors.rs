//! Golden-vector regression tests: checked-in encode/syndrome vectors for
//! every catalog code under `tests/golden/`, so that any change to a
//! generator matrix, bit ordering, or syndrome layout fails loudly instead
//! of silently re-deriving both sides of an equivalence check.
//!
//! Each code's file is a line-oriented record set (written by
//! [`GoldenFile::render`], which doubles as the serializer — the workspace's
//! offline `serde` shim is marker-only, so the format is implemented here
//! and the record types carry the derives for the day the real crate is
//! swapped back in):
//!
//! ```text
//! code <name> n <n> k <k>
//! msg <k bits> cw <n bits>            # seeded-StdRng messages
//! syn pos <p> <n-k bits>              # syndrome of cw0 + e_p, every p
//! ```
//!
//! Regenerate after an *intentional* layout change with:
//!
//! ```text
//! cargo test --test golden_vectors -- --ignored regenerate_golden_files
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sfq_ecc::cells::CellLibrary;
use sfq_ecc::ecc::{BchSpec, BlockCode, HardDecoder};
use sfq_ecc::gf2::BitVec;
use std::path::PathBuf;

/// One catalog code's golden data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenFile {
    name: String,
    n: usize,
    k: usize,
    /// `(message, codeword)` pairs.
    encodings: Vec<(BitVec, BitVec)>,
    /// `(error position, syndrome)` for single-bit corruptions of the first
    /// codeword.
    syndromes: Vec<(usize, BitVec)>,
}

impl GoldenFile {
    fn compute<C: BlockCode + HardDecoder + ?Sized>(code: &C, slug_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(slug_seed);
        let encodings: Vec<(BitVec, BitVec)> = (0..8)
            .map(|_| {
                let msg = BitVec::from_u64(code.k(), rng.random::<u64>() & mask_of(code.k()));
                let cw = code.encode(&msg);
                (msg, cw)
            })
            .collect();
        let cw0 = &encodings[0].1;
        let syndromes = (0..code.n())
            .map(|pos| {
                let mut r = cw0.clone();
                r.flip(pos);
                (pos, code.syndrome(&r))
            })
            .collect();
        GoldenFile {
            name: code.name().to_string(),
            n: code.n(),
            k: code.k(),
            encodings,
            syndromes,
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("code {} n {} k {}\n", self.name, self.n, self.k));
        for (msg, cw) in &self.encodings {
            out.push_str(&format!(
                "msg {} cw {}\n",
                msg.to_string01(),
                cw.to_string01()
            ));
        }
        for (pos, syndrome) in &self.syndromes {
            out.push_str(&format!("syn pos {pos} {}\n", syndrome.to_string01()));
        }
        out
    }
}

/// Mask of the low `k` bits.
fn mask_of(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Every catalog code with its golden-file slug, scalar decoder, and golden
/// data. Driven by `EncoderKind::catalog()` with an exhaustive match per
/// member, so a newly added catalog code fails to compile here instead of
/// shipping without golden vectors; the code itself is the kind's
/// `EncoderKind::reference_code()`.
fn golden_cases() -> Vec<(String, Box<dyn HardDecoder + Send + Sync>, GoldenFile)> {
    use sfq_ecc::encoders::EncoderKind;
    EncoderKind::catalog()
        .into_iter()
        .map(|kind| {
            let (slug, seed) = match kind {
                EncoderKind::None => ("uncoded_4".into(), 0x04),
                EncoderKind::Hamming74 => ("hamming_7_4".into(), 0x74),
                EncoderKind::Hamming84 => ("hamming_8_4".into(), 0x84),
                EncoderKind::Rm13 => ("rm_1_3".into(), 0x13),
                EncoderKind::SecDed(m) => {
                    let (k, seed) = match m {
                        3 => (8, 0x1308),
                        4 => (16, 0x2216),
                        5 => (32, 0x3932),
                        6 => (64, 0x7264),
                        _ => panic!("SEC-DED(m={m}) needs a golden slug and seed"),
                    };
                    let n = k + usize::from(m) + 2;
                    (format!("secded_{n}_{k}"), seed)
                }
                EncoderKind::WideHamming8564 => ("shamming_85_64".into(), 0x8564),
                EncoderKind::Bch(spec) => {
                    let (n, k) = spec.dimensions();
                    // BCH(31,16) keeps its historical seed so its vectors
                    // stay byte-identical across the registry refactor.
                    let seed = match spec {
                        BchSpec::BCH_31_16 => 0x3116,
                        _ => 0xBC_0000 | ((n as u64) << 8) | k as u64,
                    };
                    (format!("bch_{n}_{k}"), seed)
                }
                EncoderKind::Ldpc => ("ldpc_60_32".into(), 0x6032),
            };
            let code = kind.reference_code();
            let golden = GoldenFile::compute(&*code, seed);
            (slug, code, golden)
        })
        .collect()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Renders the synthesized-netlist cost fingerprint of every coded catalog
/// member: one line per design with the optimized cell counts, JJ total,
/// logic depth, and the naive-flow XOR/JJ baseline. Checked in under
/// `tests/golden/` so a pass-pipeline change that silently regresses circuit
/// cost fails like a codec regression would.
fn render_cost_fingerprints() -> String {
    use sfq_ecc::encoders::{table2_row_for, EncoderDesign};
    use sfq_ecc::netlist::NetlistStats;
    let lib = CellLibrary::coldflux();
    let mut out = String::from(
        "# synthesized-netlist cost fingerprints (regenerate with \
         `cargo test --test golden_vectors -- --ignored regenerate_golden_files`)\n",
    );
    for design in EncoderDesign::build_catalog() {
        let Some(naive) = design.naive_netlist() else {
            continue; // the uncoded baseline has no encoder logic to cost
        };
        let row = table2_row_for(&design, &lib).with_naive(&NetlistStats::compute(&naive, &lib));
        out.push_str(&format!(
            "design {} xor {} dff {} spl {} sfqdc {} jj {} depth {} naive_xor {} naive_jj {}\n",
            row.encoder.replace(' ', "_"),
            row.xor_gates,
            row.dffs,
            row.splitters,
            row.sfq_to_dc,
            row.jj_count,
            design.netlist().logic_depth(),
            row.naive_xor_gates
                .expect("with_naive populates the column"),
            row.naive_jj_count.expect("with_naive populates the column"),
        ));
    }
    out
}

const COST_FINGERPRINT_FILE: &str = "circuit_costs.txt";

/// Slack range of the golden Pareto sweep (0, 1, 2 — three points per code).
const PARETO_MAX_SLACK: usize = 2;

/// Renders the latency/area Pareto fingerprint of every coded catalog
/// member: one line per `depth_slack` point with the planner's chosen
/// schedule, exact planned cell counts, JJ price under the ColdFlux
/// library, and whether the point is on the Pareto front. Checked in under
/// `tests/golden/` so a planner or factoring change that silently moves any
/// sweep point fails like a codec regression.
fn render_pareto_fingerprints() -> String {
    use sfq_ecc::cells::CellLibrary;
    use sfq_ecc::encoders::EncoderKind;
    let lib = CellLibrary::coldflux();
    let mut out = String::from(
        "# latency/area pareto fingerprints (regenerate with \
         `cargo test --test golden_vectors -- --ignored regenerate_golden_files`)\n",
    );
    for kind in EncoderKind::catalog() {
        for point in kind.pareto_sweep(&lib, PARETO_MAX_SLACK) {
            out.push_str(&format!(
                "design {} slack {} sched {} depth {} xor {} dff {} spl {} sfqdc {} jj {} front {}\n",
                kind.name().replace(' ', "_"),
                point.depth_slack,
                point.schedule.label(),
                point.planned.depth,
                point.planned.xor,
                point.planned.dff,
                point.planned.splitter,
                point.planned.sfq_to_dc,
                point.jj,
                u8::from(point.on_front),
            ));
        }
    }
    out
}

const PARETO_FINGERPRINT_FILE: &str = "pareto_front.txt";

#[test]
fn golden_pareto_fingerprints_match_checked_in_file() {
    let path = golden_dir().join(PARETO_FINGERPRINT_FILE);
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             `cargo test --test golden_vectors -- --ignored regenerate_golden_files`",
            path.display()
        )
    });
    assert_eq!(
        checked_in,
        render_pareto_fingerprints(),
        "the latency/area Pareto sweep changed. If the planner/factoring \
         change is intentional, regenerate tests/golden/ and review the \
         sweep diff like a codec diff."
    );
}

#[test]
fn golden_cost_fingerprints_match_checked_in_file() {
    let path = golden_dir().join(COST_FINGERPRINT_FILE);
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             `cargo test --test golden_vectors -- --ignored regenerate_golden_files`",
            path.display()
        )
    });
    assert_eq!(
        checked_in,
        render_cost_fingerprints(),
        "synthesized circuit costs changed. If the pass-pipeline change is \
         intentional, regenerate tests/golden/ and review the cost diff like \
         a codec diff."
    );
}

#[test]
fn golden_vectors_match_checked_in_files() {
    for (slug, _, computed) in golden_cases() {
        let path = golden_dir().join(format!("{slug}.txt"));
        let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with \
                 `cargo test --test golden_vectors -- --ignored regenerate_golden_files`",
                path.display()
            )
        });
        assert_eq!(
            checked_in,
            computed.render(),
            "{slug}: encode/syndrome bit layout changed. If intentional, \
             regenerate tests/golden/ with \
             `cargo test --test golden_vectors -- --ignored regenerate_golden_files` \
             and review the diff."
        );
    }
}

/// The golden corpus itself must be self-consistent: each stored codeword
/// decodes cleanly back to its stored message with the *current* decoders.
#[test]
fn golden_codewords_decode_to_their_messages() {
    assert_eq!(
        golden_cases().len(),
        sfq_ecc::encoders::EncoderKind::catalog().len(),
        "every catalog code carries golden vectors"
    );
    for (slug, code, golden) in golden_cases() {
        assert_eq!(golden.encodings.len(), 8, "{slug}");
        for (msg, cw) in &golden.encodings {
            assert_eq!(msg.len(), golden.k, "{slug}");
            assert_eq!(cw.len(), golden.n, "{slug}");
            let decoded = code.decode(cw);
            assert!(
                !decoded.outcome.error_flag() && !decoded.outcome.corrected(),
                "{slug}: stored codeword must decode cleanly, got {:?}",
                decoded.outcome
            );
            assert_eq!(
                decoded.message.as_ref(),
                Some(msg),
                "{slug}: decoder no longer recovers the stored message"
            );
        }
        assert_eq!(golden.syndromes.len(), golden.n, "{slug}");
        // Zero-syndrome sanity: the stored syndromes of single-bit errors are
        // nonzero for every code with parity (n > k).
        if golden.n > golden.k {
            for (pos, syndrome) in &golden.syndromes {
                assert!(!syndrome.is_zero(), "{slug}: position {pos}");
            }
        }
    }
}

/// Round trip between the regenerator and the checked-in directory: the set
/// of files under `tests/golden/` is exactly the set the regenerator would
/// write — a case added without regenerating, or a file orphaned by a
/// removed case, fails here instead of silently going stale.
#[test]
fn golden_directory_round_trips_with_the_regenerator() {
    let mut expected: Vec<String> = golden_cases()
        .iter()
        .map(|(slug, _, _)| format!("{slug}.txt"))
        .collect();
    expected.push(COST_FINGERPRINT_FILE.to_string());
    expected.push(PARETO_FINGERPRINT_FILE.to_string());
    expected.sort();

    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|entry| {
            entry
                .expect("readable entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    on_disk.sort();

    assert_eq!(
        on_disk, expected,
        "tests/golden/ is out of sync with golden_cases(); regenerate with \
         `cargo test --test golden_vectors -- --ignored regenerate_golden_files` \
         and delete any orphaned files"
    );
}

#[test]
#[ignore = "writes tests/golden/; run explicitly after intentional layout changes"]
fn regenerate_golden_files() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for (slug, _, computed) in golden_cases() {
        let path = dir.join(format!("{slug}.txt"));
        std::fs::write(&path, computed.render()).expect("write golden file");
        println!("wrote {}", path.display());
    }
    let path = dir.join(COST_FINGERPRINT_FILE);
    std::fs::write(&path, render_cost_fingerprints()).expect("write cost fingerprints");
    println!("wrote {}", path.display());
    let path = dir.join(PARETO_FINGERPRINT_FILE);
    std::fs::write(&path, render_pareto_fingerprints()).expect("write pareto fingerprints");
    println!("wrote {}", path.display());
}
