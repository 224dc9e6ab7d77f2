//! # car-apriori
//!
//! Frequent itemset mining substrate for the cyclic association rules
//! workspace: a from-scratch implementation of the Apriori algorithm
//! (Agrawal & Srikant, VLDB 1994), which both algorithms of the ICDE'98
//! cyclic-rules paper extend.
//!
//! Components:
//!
//! * [`apriori_gen`] — level-wise candidate generation (join + prune).
//! * [`count_candidates`] — support counting by the **vertical
//!   tid-bitmap** kernel: support is a chained `u64` AND + popcount over
//!   per-item bitsets (see [`bitmap`]), checked against [`naive`] by
//!   tests and proptests.
//! * [`Apriori`] — the level-wise driver producing [`FrequentItemsets`].
//! * [`generate_rules`] — `ap-genrules` association rule generation with
//!   confidence-based consequent pruning.
//! * [`MinSupport`] / [`MinConfidence`] — threshold handling (absolute
//!   counts or fractions) with explicit empty-database semantics.
//! * [`naive`] — deliberately simple reference implementations used as
//!   oracles by tests and as baselines by benchmarks.
//!
//! ```
//! use car_apriori::{Apriori, AprioriConfig, MinSupport};
//! use car_itemset::ItemSet;
//!
//! let tx = vec![
//!     ItemSet::from_ids([1, 2, 3]),
//!     ItemSet::from_ids([1, 2]),
//!     ItemSet::from_ids([2, 3]),
//! ];
//! let config = AprioriConfig::new(MinSupport::fraction(0.5).unwrap());
//! let frequent = Apriori::new(config).mine(&tx);
//! assert_eq!(frequent.count(&ItemSet::from_ids([1, 2])), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apriori;
pub mod bitmap;
mod candidate;
mod count;
mod frequent;
pub mod hash;
pub mod naive;
mod rules;
mod support;

pub use apriori::{Apriori, AprioriConfig, AprioriStats};
pub use bitmap::{ItemMap, TidBitmaps};
pub use candidate::apriori_gen;
pub use count::count_candidates;
pub use frequent::FrequentItemsets;
pub use rules::{generate_rules, AssociationRule, Rule};
pub use support::{MinConfidence, MinSupport};
