//! # Cyclic Association Rules
//!
//! A production-quality Rust implementation of
//!
//! > Banu Özden, Sridhar Ramaswamy, Abraham Silberschatz.
//! > **"Cyclic Association Rules."** ICDE 1998.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`itemset`] | `car-itemset` | items, itemsets, transactions, time-segmented databases, file I/O |
//! | [`cycles`] | `car-cycles` | binary sequences, cycles, candidate cycle sets, detection |
//! | [`apriori`] | `car-apriori` | Apriori, vertical tid-bitmap counting, association rule generation |
//! | [`core`] | `car-core` | the SEQUENTIAL and INTERLEAVED cyclic-rule miners |
//! | [`datagen`] | `car-datagen` | Quest-style synthetic data with planted cyclic patterns |
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use cyclic_association_rules::{
//!     Algorithm, CyclicRuleMiner, MiningConfig,
//!     itemset::{ItemSet, SegmentedDb},
//! };
//!
//! let sale = vec![ItemSet::from_ids([1, 2]); 6];
//! let calm = vec![ItemSet::from_ids([9]); 6];
//! let db = SegmentedDb::from_unit_itemsets(vec![
//!     sale.clone(), calm.clone(), sale.clone(), calm.clone(), sale, calm,
//! ]);
//!
//! let config = MiningConfig::builder()
//!     .min_support_fraction(0.4)
//!     .min_confidence(0.6)
//!     .cycle_bounds(2, 3)
//!     .build()?;
//! let outcome = CyclicRuleMiner::new(config, Algorithm::interleaved()).mine(&db)?;
//! assert!(outcome.rules.iter().any(|r| r.rule.to_string() == "{1} => {2}"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use car_apriori as apriori;
pub use car_core as core;
pub use car_cycles as cycles;
pub use car_datagen as datagen;
pub use car_itemset as itemset;

pub use car_core::{
    Algorithm, ConfigBuilder, ConfigError, Cycle, CycleBounds, CyclicRule,
    CyclicRuleMiner, InterleavedOptions, MinConfidence, MinSupport, MiningConfig,
    MiningOutcome, MiningStats, Rule,
};
