//! Seeded inputs for the workloads and their wire encodings.

use car_core::MiningConfig;
use car_datagen::{generate_cyclic, CyclicConfig, QuestConfig};
use car_itemset::ItemSet;
use car_serve::json::Json;
use car_shard::{PartitionKey, ShardRing};

/// Units retained by every daemon: the window of the paper's base
/// scenario.
pub const WINDOW: usize = 64;
/// Longest cycle the daemons look for.
pub const L_MAX: u32 = 8;
/// Absolute per-unit support count (an absolute count partitions
/// exactly across shards, so one setting serves all daemon workloads).
pub const MIN_SUPPORT_COUNT: u64 = 12;
pub const MIN_CONFIDENCE: f64 = 0.6;
/// Shard workers behind the router.
pub const SHARDS: u32 = 2;
/// Transactions per generated unit.
pub const TX_PER_UNIT: usize = 500;
/// Units generated after the prefill; a timed loop that sends more
/// starts over from the first of them.
pub const STREAM_UNITS: usize = 256;

pub type Unit = Vec<ItemSet>;

/// The mining configuration every daemon is started with.
pub fn mining_config() -> MiningConfig {
    MiningConfig::builder()
        .min_support_count(MIN_SUPPORT_COUNT)
        .min_confidence(MIN_CONFIDENCE)
        .cycle_bounds(2, L_MAX)
        .build()
        .expect("the daemon mining configuration is valid")
}

/// The `car serve` mining flags matching [`mining_config`].
pub fn mining_flags() -> Vec<String> {
    [
        "--window",
        &WINDOW.to_string(),
        "--l-min",
        "2",
        "--l-max",
        &L_MAX.to_string(),
        "--min-support-count",
        &MIN_SUPPORT_COUNT.to_string(),
        "--min-confidence",
        &MIN_CONFIDENCE.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Seed of the generator that shapes every workload's data; the
/// workload seed only relabels it (see [`relabel`]).
pub const SHAPE_SEED: u64 = 0x1998;

/// SplitMix64: the benchmark's own seeded stream of random words.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The workload's inputs for `seed`: `units` with their item ids
/// permuted and the transactions of every unit reordered.
///
/// The permutation keeps each item on the shard that owns it under the
/// workloads' ring of [`SHARDS`] shards, so partition-pure units stay pure. A
/// relabelled database is the same mining problem under other names:
/// every seed yields the same number of rules and costs the same work,
/// so the spread between runs of different seeds measures the system,
/// not the luck of the generator.
pub fn relabel(units: Vec<Unit>, seed: u64) -> Vec<Unit> {
    let mut rng = SplitMix(seed);
    let ring = ShardRing::new(SHARDS).expect("at least one shard");
    let max_id = units.iter().flatten().flat_map(|tx| tx.iter()).map(|i| i.id()).max();
    let mut map: Vec<u32> = (0..=max_id.unwrap_or(0)).collect();
    for shard in 0..ring.count() {
        let class: Vec<u32> = map
            .iter()
            .copied()
            .filter(|&id| ring.owner_of_key(u64::from(id)) == shard)
            .collect();
        let mut shuffled = class.clone();
        rng.shuffle(&mut shuffled);
        for (from, to) in class.into_iter().zip(shuffled) {
            map[from as usize] = to;
        }
    }
    units
        .into_iter()
        .map(|unit| {
            let mut unit: Unit = unit
                .iter()
                .map(|tx| {
                    ItemSet::from_ids(tx.iter().map(|item| map[item.id() as usize]))
                })
                .collect();
            rng.shuffle(&mut unit);
            unit
        })
        .collect()
}

/// A stream of cyclic-QUEST units: `WINDOW` prefill units followed by
/// `STREAM_UNITS` units for the timed loop, 500 transactions each over
/// 500 items (average length 5) with 20 planted cyclic patterns,
/// generated from [`SHAPE_SEED`]. Callers [`relabel`] it.
pub fn unit_stream() -> Vec<Unit> {
    let config = CyclicConfig {
        quest: QuestConfig::default().with_num_items(500).with_avg_transaction_len(5.0),
        num_units: WINDOW + STREAM_UNITS,
        transactions_per_unit: TX_PER_UNIT,
        num_cyclic_patterns: 20,
        cyclic_pattern_len: 2,
        cycle_length_range: (2, L_MAX),
        boost: 0.8,
        max_planted_per_transaction: 2,
    };
    let db = generate_cyclic(&config, SHAPE_SEED).db;
    db.iter_units().map(|(_, txs)| txs.to_vec()).collect()
}

/// Projects every transaction onto the items its owner shard holds
/// under [`PartitionKey::MinItem`], so the stream is partition-pure and
/// a sharded cluster must serve exactly what one node serves.
pub fn partition_pure(units: &[Unit]) -> Vec<Unit> {
    let ring = ShardRing::new(SHARDS).expect("at least one shard");
    units
        .iter()
        .map(|unit| {
            unit.iter()
                .map(|tx| {
                    let owner = ring.owner_of(tx, PartitionKey::MinItem);
                    ItemSet::from_ids(
                        tx.iter()
                            .map(|item| item.id())
                            .filter(|&id| ring.owner_of_key(u64::from(id)) == owner),
                    )
                })
                .collect()
        })
        .collect()
}

fn unit_json(unit: &[ItemSet]) -> Json {
    let txs = unit
        .iter()
        .map(|tx| Json::Array(tx.iter().map(|item| Json::from(item.id())).collect()))
        .collect();
    Json::Object(vec![("transactions".to_string(), Json::Array(txs))])
}

/// `POST /v1/units` body for one unit.
pub fn unit_body(unit: &[ItemSet]) -> Vec<u8> {
    unit_json(unit).render().into_bytes()
}

/// `POST /v1/units` body for a batch of units.
pub fn batch_body(units: &[Unit]) -> Vec<u8> {
    Json::Array(units.iter().map(|u| unit_json(u)).collect()).render().into_bytes()
}
