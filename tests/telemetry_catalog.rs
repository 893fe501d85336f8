//! The `batch.*` rows of the metric catalog in `docs/OBSERVABILITY.md` name
//! exactly the metrics `sfq-batch` registers, in both directions: a renamed
//! or deleted metric fails here until the catalog follows, and so does a
//! catalog row nothing records.

use sfq_ecc::batch::BatchCodec;
use sfq_ecc::ecc::{BatchDecode, BatchEncode};
use sfq_ecc::encoders::EncoderKind;
use sfq_ecc::gf2::BitSlice64;
use std::collections::BTreeSet;

/// Backticked tokens of a table cell.
fn ticked(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

/// The catalog's `batch.*` names, each `<kernel>` row expanded over the
/// plain names its meaning lists in backticks.
fn catalog_batch_names() -> BTreeSet<String> {
    let rows: Vec<(&str, &str)> = include_str!("../docs/OBSERVABILITY.md")
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').collect();
            let name = ticked(cells.get(1)?).next()?;
            name.starts_with("batch.")
                .then(|| (name, cells.get(4).copied().unwrap_or_default()))
        })
        .collect();
    let kernels: BTreeSet<&str> = (rows.iter())
        .filter(|(name, _)| name.contains("<kernel>"))
        .flat_map(|(_, meaning)| ticked(meaning))
        .filter(|t| t.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'))
        .collect();
    let mut names = BTreeSet::new();
    for (name, _) in rows {
        if name.contains("<kernel>") {
            names.extend(kernels.iter().map(|k| name.replace("<kernel>", k)));
        } else {
            names.insert(name.to_owned());
        }
    }
    names
}

#[test]
fn batch_metric_names_match_the_observability_catalog() {
    if !sfq_ecc::telemetry::is_enabled() {
        // Compiled out: nothing registers, so there is nothing to compare.
        return;
    }
    // Every catalog member's shipping codec, plus the r = 10 General-class
    // repetition code (the tree kernel with multi-bit flips).
    let codecs = EncoderKind::catalog().into_iter().map(|kind| match kind {
        EncoderKind::None => BatchCodec::uncoded(4),
        EncoderKind::Hamming74 => BatchCodec::hamming74(),
        EncoderKind::Hamming84 => BatchCodec::hamming84(),
        EncoderKind::Rm13 => BatchCodec::rm13(),
        EncoderKind::SecDed(m) => BatchCodec::sec_ded(usize::from(m)),
        EncoderKind::WideHamming8564 => BatchCodec::wide_hamming_85_64(),
        EncoderKind::Bch(spec) => BatchCodec::bch_spec(spec),
        EncoderKind::Ldpc => BatchCodec::ldpc(),
    });
    for codec in codecs.chain([BatchCodec::repetition(5, 3)]) {
        let mut received = BitSlice64::zeros(codec.n(), 130);
        for lane in (0..130).step_by(3) {
            received.set(lane, lane % codec.n(), true);
        }
        let _ = codec.decode_batch(&received);
        let _ = codec.detect_batch(&received);
    }

    let snapshot = sfq_ecc::telemetry::global().snapshot();
    let registered: BTreeSet<String> = (snapshot.counters.iter().map(|c| &c.name))
        .chain(snapshot.gauges.iter().map(|g| &g.name))
        .chain(snapshot.histograms.iter().map(|h| &h.name))
        .filter(|name| name.starts_with("batch."))
        .cloned()
        .collect();
    let catalog = catalog_batch_names();
    assert!(
        registered == catalog,
        "docs/OBSERVABILITY.md drifted from sfq-batch: registered but not in the catalog \
         {:?}; in the catalog but never registered {:?}",
        registered.difference(&catalog).collect::<Vec<_>>(),
        catalog.difference(&registered).collect::<Vec<_>>()
    );
}
