//! Property-based tests: the counting kernel against a naive oracle,
//! Apriori against the definition-level miner, and rule-generation
//! invariants.

use car_apriori::{
    count_candidates, generate_rules, naive, Apriori, AprioriConfig, MinConfidence,
    MinSupport,
};
use car_itemset::ItemSet;
use proptest::prelude::*;

fn arb_transactions() -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..12, 0..8).prop_map(ItemSet::from_ids),
        0..25,
    )
}

fn arb_candidates(k: usize) -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::btree_set(
        proptest::collection::btree_set(0u32..12, k..=k).prop_map(ItemSet::from_ids),
        0..20,
    )
    .prop_map(|s| s.into_iter().collect())
}

/// Half dense ids, half ids near `u32::MAX` — forces the hashed
/// `ItemMap` fallback inside the vertical bitmap build.
fn sparse_id(v: u32) -> u32 {
    if v < 12 {
        v
    } else {
        u32::MAX - 1 - (v - 12)
    }
}

fn arb_sparse_transactions() -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..24).prop_map(sparse_id), 0..8)
            .prop_map(ItemSet::from_ids),
        0..25,
    )
}

fn arb_sparse_candidates(k: usize) -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::btree_set(
        proptest::collection::btree_set((0u32..24).prop_map(sparse_id), k..=k)
            .prop_map(ItemSet::from_ids),
        0..20,
    )
    .prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn counting_engines_match_naive(
        tx in arb_transactions(),
        cands in (1usize..4).prop_flat_map(arb_candidates),
    ) {
        let expected: Vec<u64> = cands
            .iter()
            .map(|c| naive::count_itemset(c, &tx))
            .collect();
        prop_assert_eq!(count_candidates(&cands, &tx), expected);
    }

    #[test]
    fn apriori_matches_naive_miner(
        tx in arb_transactions(),
        threshold in 1u64..6,
        max_size in proptest::option::of(1usize..5),
    ) {
        let ms = MinSupport::count(threshold);
        let mut config = AprioriConfig::new(ms);
        if let Some(cap) = max_size {
            config = config.with_max_size(cap);
        }
        let fast = Apriori::new(config).mine(&tx);
        let slow = naive::frequent_itemsets(&tx, ms, max_size);
        let mut a: Vec<(ItemSet, u64)> = fast.iter().map(|(s, c)| (s.clone(), c)).collect();
        let mut b: Vec<(ItemSet, u64)> = slow.iter().map(|(s, c)| (s.clone(), c)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn vertical_kernel_matches_naive_on_sparse_ids(
        tx in arb_sparse_transactions(),
        cands in (1usize..3).prop_flat_map(arb_sparse_candidates),
    ) {
        let expected: Vec<u64> = cands
            .iter()
            .map(|c| naive::count_itemset(c, &tx))
            .collect();
        prop_assert_eq!(
            count_candidates(&cands, &tx),
            expected
        );
    }

    #[test]
    fn frequent_itemsets_satisfy_definition(
        tx in arb_transactions(),
        threshold in 1u64..5,
    ) {
        let ms = MinSupport::count(threshold);
        let f = Apriori::new(AprioriConfig::new(ms)).mine(&tx);
        for (itemset, count) in f.iter() {
            prop_assert_eq!(count, naive::count_itemset(itemset, &tx));
            prop_assert!(count >= threshold.max(1));
            // Anti-monotonicity: every immediate subset is also large.
            for sub in itemset.immediate_subsets() {
                if !sub.is_empty() {
                    prop_assert!(f.contains(&sub), "{} missing subset {}", itemset, sub);
                }
            }
        }
    }

    #[test]
    fn rules_satisfy_thresholds(
        tx in arb_transactions(),
        threshold in 1u64..4,
        conf in 0.0f64..=1.0,
    ) {
        let f = Apriori::new(AprioriConfig::new(MinSupport::count(threshold))).mine(&tx);
        let minconf = MinConfidence::new(conf).unwrap();
        for r in generate_rules(&f, minconf) {
            // Both sides non-empty and disjoint.
            prop_assert!(!r.rule.antecedent.is_empty());
            prop_assert!(!r.rule.consequent.is_empty());
            prop_assert!(r.rule.antecedent.is_disjoint(&r.rule.consequent));
            // Counts are exact.
            let z = r.rule.itemset();
            prop_assert_eq!(r.rule_count, naive::count_itemset(&z, &tx));
            prop_assert_eq!(
                r.antecedent_count,
                naive::count_itemset(&r.rule.antecedent, &tx)
            );
            // Confidence threshold honoured (integer comparison).
            prop_assert!(minconf.accepts(r.rule_count, r.antecedent_count));
        }
    }

    #[test]
    fn rule_generation_is_complete(
        tx in arb_transactions(),
        threshold in 1u64..4,
    ) {
        // Every (X ⇒ Y) with Z = X∪Y frequent and confidence ≥ 0 must be
        // produced when minconf = 0.
        let f = Apriori::new(AprioriConfig::new(MinSupport::count(threshold))).mine(&tx);
        let rules = generate_rules(&f, MinConfidence::new(0.0).unwrap());
        let mut expected = 0usize;
        for (z, _) in f.iter() {
            if z.len() >= 2 {
                // antecedent nonempty, consequent nonempty: 2^n - 2 splits,
                // but confidence undefined (antecedent count 0) never
                // happens for subsets of a frequent itemset.
                expected += (1usize << z.len()) - 2;
            }
        }
        prop_assert_eq!(rules.len(), expected);
    }
}
