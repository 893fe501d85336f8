//! Concrete code constructions: the three codes the paper evaluates plus the
//! families they come from and the baselines it cites. Every
//! single-error-correcting member and the uncoded baseline is one
//! [`column::ColumnCode`], built by the constructors in [`hamming`],
//! [`sec_ded`] and [`uncoded`].

pub mod bch;
pub mod column;
pub mod hamming;
pub mod ldpc;
pub mod reed_muller;
pub mod sec_ded;
pub mod uncoded;
