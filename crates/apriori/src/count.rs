//! Support counting.
//!
//! Counting is the hot loop of Apriori: for every candidate `k`-itemset,
//! how many transactions contain it? Both of the paper's miners need
//! exactly this primitive — SEQUENTIAL once per unit and level,
//! INTERLEAVED once per unit scan that cycle skipping leaves standing.
//! [`count_candidates`] answers it with the vertical tid-bitmap kernel
//! of [`crate::bitmap`]: one bitset per candidate item, support a chained
//! `u64` AND plus popcount.
//!
//! One non-empty call is exactly one bitmap build, so the miners'
//! `bitmap_builds` counters equal their non-empty counting calls, and a
//! unit scan that cycle skipping retires builds nothing.
//!
//! The kernel matched or beat subset enumeration and the Apriori hash
//! tree on every workload measured, the smallest unit scans included, so
//! it is the only counter (DESIGN.md §15.3).

use car_itemset::ItemSet;

use crate::bitmap::TidBitmaps;

/// Counts, for each candidate, the number of transactions containing it.
///
/// All candidates must share the same size `k ≥ 1`. Returns counts
/// parallel to `candidates`. Transactions shorter than `k` are skipped.
/// An empty candidate list returns at once and builds no bitmap.
///
/// # Panics
///
/// Panics if candidates have size 0 or mixed sizes.
pub fn count_candidates(candidates: &[ItemSet], transactions: &[ItemSet]) -> Vec<u64> {
    let Some(first) = candidates.first() else {
        return Vec::new();
    };
    let k = first.len();
    assert!(k >= 1, "candidates must be non-empty itemsets");
    assert!(candidates.iter().all(|c| c.len() == k), "candidates must have uniform size");
    let mut bitmaps = TidBitmaps::build(candidates, transactions, k);
    candidates.iter().map(|c| bitmaps.support(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::count_itemset;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn naive(candidates: &[ItemSet], transactions: &[ItemSet]) -> Vec<u64> {
        candidates.iter().map(|c| count_itemset(c, transactions)).collect()
    }

    #[test]
    fn matches_naive() {
        let candidates = vec![set(&[1, 2]), set(&[2, 3]), set(&[4, 5]), set(&[1, 5])];
        let transactions = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 5]),
            set(&[4, 5]),
            set(&[2]),
            set(&[]),
            set(&[1, 2, 3, 4, 5]),
        ];
        assert_eq!(
            count_candidates(&candidates, &transactions),
            naive(&candidates, &transactions)
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(count_candidates(&[], &[set(&[1])]).is_empty());
        assert_eq!(count_candidates(&[set(&[1])], &[]), vec![0]);
    }

    #[test]
    fn singleton_candidates() {
        let candidates = vec![set(&[1]), set(&[2]), set(&[9])];
        let transactions = vec![set(&[1, 2]), set(&[1]), set(&[2, 9])];
        assert_eq!(count_candidates(&candidates, &transactions), vec![2, 2, 1]);
    }

    #[test]
    fn long_transactions_stay_exact() {
        // One 30-item transaction holds C(30, 3) = 4060 candidate-sized
        // subsets; the count must not depend on enumerating them.
        let candidates: Vec<ItemSet> =
            (0..10u32).map(|i| set(&[i, i + 10, i + 20])).collect();
        let transactions = vec![ItemSet::from_ids(0..30u32), set(&[0, 10, 20])];
        assert_eq!(
            count_candidates(&candidates, &transactions),
            naive(&candidates, &transactions)
        );
    }

    #[test]
    #[should_panic(expected = "uniform size")]
    fn mixed_candidate_sizes_panic() {
        let _ = count_candidates(&[set(&[1]), set(&[1, 2])], &[set(&[1])]);
    }
}
