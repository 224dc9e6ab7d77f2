//! The traced run's in-process replay: the daemon workloads' seeded
//! units and read mix, pushed through each layer's public functions
//! with a span around every call.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use car_apriori::{generate_rules, Apriori, AprioriConfig, AssociationRule};
use car_core::window::SlidingWindowMiner;
use car_core::MinConfidence;
use car_cycles::{detect_cycles_batch, BitSeq};
use car_serve::http::{read_request_limited, Request, RequestLimits};
use car_serve::metrics::Metrics;
use car_serve::persist::wal::Wal;
use car_serve::routes::{self, parse_units_body};
use car_serve::state::{spawn_ingest_worker, AppState};
use car_serve::{FsyncPolicy, PersistConfig};
use car_shard::{merge_rule_views, parse_rules_body, PartitionKey, ShardRing};

use crate::data::{self, Unit, SHARDS, WINDOW};
use crate::live::{single_node_body, Kind, PREFILL_BATCH};
use crate::stats::Report;
use crate::trace::{SpanId, Tracer};

/// Counts the replay measured, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

fn raw_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

fn parse(raw: &[u8]) -> Request {
    read_request_limited(&mut &raw[..], &RequestLimits::default())
        .expect("the benchmark's own requests parse")
}

/// The per-unit rules SEQUENTIAL's phase 1 and the window miner compute,
/// through `Apriori::mine` and `generate_rules`.
fn unit_rules(
    apriori: &Apriori,
    unit: &[car_itemset::ItemSet],
    tr: &mut Tracer,
    op: SpanId,
) -> Vec<AssociationRule> {
    let frequent = tr.child("apriori.mine", op, || apriori.mine(unit));
    tr.child("apriori.rules", op, || {
        generate_rules(&frequent, data::mining_config().min_confidence)
    })
}

/// Escalated re-detection over the retained units' rules: sequences of
/// the rules that hold at confidence `q`, detected by
/// `detect_cycles_batch`. Returns the cyclic rules and the candidate
/// cycles eliminated.
fn escalated_detect(
    window: &[Vec<AssociationRule>],
    q: MinConfidence,
    tr: &mut Tracer,
    op: SpanId,
) -> (usize, u64) {
    let n = window.len();
    let mut seqs: BTreeMap<&car_apriori::Rule, BitSeq> = BTreeMap::new();
    for (u, rules) in window.iter().enumerate() {
        for r in rules.iter().filter(|r| q.accepts(r.rule_count, r.antecedent_count)) {
            seqs.entry(&r.rule).or_insert_with(|| BitSeq::zeros(n)).set(u, true);
        }
    }
    let seqs: Vec<BitSeq> = seqs.into_values().collect();
    let bounds = data::mining_config().cycle_bounds;
    let sets = tr.child("cycles.detect", op, || detect_cycles_batch(&seqs, bounds, 0));
    let full = bounds.num_cycles() as u64;
    let eliminated = sets.iter().map(|s| full - s.len() as u64).sum();
    let cyclic = sets.iter().filter(|s| !s.is_empty()).count();
    (cyclic, eliminated)
}

/// Replays a single-node workload through an in-process `AppState`
/// (`routes::handle`) beside a `SlidingWindowMiner` oracle, checking
/// every first and escalated read against the oracle.
pub fn serve(
    kind: Kind,
    stream: &[Unit],
    cycles: usize,
    dir: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Counts {
    let mix = kind.mix();
    let config = data::mining_config();
    let durable = kind == Kind::ServeIngest;
    let _ = std::fs::remove_dir_all(dir);
    let persist = durable.then(|| PersistConfig {
        fsync: FsyncPolicy::Never,
        ..PersistConfig::new(dir.join("state"))
    });
    let state = AppState::new(config, WINDOW, 256, persist).expect("replay state");
    let applier = spawn_ingest_worker(Arc::clone(&state)).expect("replay applier");
    while state.recovery.is_recovering() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let wal_metrics = Metrics::new();
    let mut wal = durable.then(|| {
        std::fs::create_dir_all(dir.join("wal")).expect("replay WAL directory");
        Wal::open(&dir.join("wal"), FsyncPolicy::Never, None, 1).expect("replay WAL")
    });
    let mut oracle = SlidingWindowMiner::new(config, WINDOW).expect("window fits l_max");
    let apriori = Apriori::new(AprioriConfig::new(config.min_support));
    let mut held: Vec<Vec<AssociationRule>> = Vec::new();
    let mut counts = Counts::new();
    let mut untraced = Tracer::new(false);

    // Prefill in the batches the set-up sends.
    for batch in stream[..WINDOW].chunks(PREFILL_BATCH) {
        let raw = raw_request("POST", "/v1/units?wait=true", &data::batch_body(batch));
        let (_, resp) = routes::handle(&state, &parse(&raw));
        report.check(resp.status == 202, "replay prefill rejected");
        if let Some(wal) = wal.as_mut() {
            report.check(
                wal.append_batch(batch, &wal_metrics).is_ok(),
                "replay WAL append",
            );
        }
    }
    for unit in &stream[..WINDOW] {
        oracle.push_unit(unit);
        held.push(unit_rules(&apriori, unit, &mut untraced, 0));
    }
    for _ in 0..3 {
        routes::handle(&state, &parse(&raw_request("GET", "/v1/rules", b"")));
    }

    for c in 0..cycles {
        let unit = &stream[WINDOW + c % (stream.len() - WINDOW)];
        let op = tr.begin_op("op.unit");
        let body = data::unit_body(unit);
        let raw = raw_request("POST", "/v1/units?wait=true", &body);
        let req = parse(&raw);
        let parsed =
            tr.child("serve.json.parse_units", op, || parse_units_body(&req.body));
        report.check(parsed.is_ok(), "replay ingest body does not parse");
        if let Some(wal) = wal.as_mut() {
            let ok = tr.child("serve.persist.wal_append", op, || {
                wal.append_batch(std::slice::from_ref(unit), &wal_metrics)
            });
            report.check(ok.is_ok(), "replay WAL append");
        }
        let (_, resp) =
            tr.child("serve.routes.handle.ingest", op, || routes::handle(&state, &req));
        report.check(resp.status == 200, "replay ingest not applied");

        tr.child("core.window.push_unit", op, || oracle.push_unit(unit));
        held.push(unit_rules(&apriori, unit, tr, op));
        if held.len() > WINDOW {
            held.remove(0);
        }
        let view = tr.child("core.window.assemble_view", op, || oracle.assemble_view());
        let Ok(view) = view else {
            report.fail("replay oracle is warming up");
            tr.end(op);
            continue;
        };
        let want = tr.child("serve.json.render_rules", op, || {
            single_node_body(&view, oracle.len())
        });

        let get = parse(&raw_request("GET", "/v1/rules", b""));
        let (_, first) = tr.child("serve.routes.handle.rules_first", op, || {
            routes::handle(&state, &get)
        });
        report.check(first.body == want, "in-process rules body differs from the oracle");
        for _ in 0..mix.warm {
            let raw = raw_request("GET", "/v1/rules", b"");
            let req = tr.child("serve.http.read_request", op, || parse(&raw));
            let (_, resp) = tr
                .child("serve.routes.handle.rules", op, || routes::handle(&state, &req));
            let mut wire = Vec::with_capacity(resp.body.len() + 256);
            let wrote = tr.child("serve.http.write", op, || resp.write_to(&mut wire));
            report.check(
                wrote.is_ok() && resp.body == first.body,
                "in-process warm read differs",
            );
            counts.insert("serve.response_bytes.rules", resp.body.len() as f64);
        }
        let items = parse(&raw_request("GET", "/v1/items", b""));
        for _ in 0..mix.items {
            let (_, resp) = tr.child("serve.routes.handle.items", op, || {
                routes::handle(&state, &items)
            });
            report.check(resp.status == 200, "in-process items read failed");
            counts.insert("serve.response_bytes.items", resp.body.len() as f64);
        }
        let mut seen: Vec<&str> = Vec::new();
        for &q in mix.escalated {
            let req =
                parse(&raw_request("GET", &format!("/v1/rules?min_confidence={q}"), b""));
            if seen.contains(&q) {
                let (_, resp) =
                    tr.child("serve.routes.handle.escalated_cached", op, || {
                        routes::handle(&state, &req)
                    });
                report
                    .check(resp.status == 200, "in-process cached escalated read failed");
                continue;
            }
            seen.push(q);
            let conf =
                q.parse().ok().and_then(MinConfidence::new).expect("valid confidence");
            let (_, resp) = tr.child("serve.routes.handle.escalated", op, || {
                routes::handle(&state, &req)
            });
            let view = tr.child("core.window.query_escalated", op, || {
                oracle.query_rules(Some(conf))
            });
            let want = view.map(|v| single_node_body(&v, oracle.len()));
            report.check(
                want.as_ref() == Ok(&resp.body),
                "in-process escalated body differs",
            );
            let (cyclic, eliminated) = escalated_detect(&held, conf, tr, op);
            let oracle_cyclic = oracle.query_rules(Some(conf)).map_or(0, |v| v.len());
            report.check(
                cyclic == oracle_cyclic,
                "detect_cycles_batch disagrees with query_rules",
            );
            *counts.entry("cycles.cycles_eliminated").or_default() += eliminated as f64;
            counts.insert("serve.response_bytes.escalated", resp.body.len() as f64);
        }
        tr.end(op);
    }
    state.begin_shutdown();
    report.check(applier.join().is_ok(), "replay applier panicked");
    counts.insert("core.window.tracked_rules", oracle.tracked_rules() as f64);
    counts.insert(
        "core.window.cyclic_rules",
        oracle.current_rules().map_or(0, |v| v.len()) as f64,
    );
    if durable {
        counts.insert("serve.persist.wal_bytes", wal_metrics.wal_bytes() as f64);
    }
    let _ = std::fs::remove_dir_all(dir);
    counts
}

/// Replays the shard workload: the router's split, one window miner
/// per worker, the workers' rendering, and the router's parse, merge and
/// re-render on every read, checked against a single-node oracle.
pub fn shard(
    stream: &[Unit],
    cycles: usize,
    tr: &mut Tracer,
    report: &mut Report,
) -> Counts {
    let mix = Kind::ShardIngest.mix();
    let config = data::mining_config();
    let ring = ShardRing::new(SHARDS).expect("at least one shard");
    let mut workers: Vec<SlidingWindowMiner> = (0..SHARDS)
        .map(|_| SlidingWindowMiner::new(config, WINDOW).expect("window fits l_max"))
        .collect();
    let mut single = SlidingWindowMiner::new(config, WINDOW).expect("window fits l_max");
    for unit in &stream[..WINDOW] {
        for (w, sub) in
            workers.iter_mut().zip(ring.split_unit(unit, PartitionKey::MinItem))
        {
            w.push_unit(&sub);
        }
        single.push_unit(unit);
    }
    let mut counts = Counts::new();
    for c in 0..cycles {
        let unit = &stream[WINDOW + c % (stream.len() - WINDOW)];
        let op = tr.begin_op("op.unit");
        let body = data::unit_body(unit);
        let parsed = tr.child("serve.json.parse_units", op, || parse_units_body(&body));
        report.check(parsed.is_ok(), "replay ingest body does not parse");
        let subs = tr.child("shard.ring.split", op, || {
            ring.split_unit(unit, PartitionKey::MinItem)
        });
        for (w, sub) in workers.iter_mut().zip(&subs) {
            tr.child("core.window.push_unit", op, || w.push_unit(sub));
        }
        single.push_unit(unit);
        let mut bodies = Vec::new();
        for w in &workers {
            let view = tr.child("core.window.assemble_view", op, || w.assemble_view());
            let Ok(view) = view else {
                report.fail("replay worker is warming up");
                continue;
            };
            bodies.push(tr.child("serve.json.render_rules", op, || {
                single_node_body(&view, w.len())
            }));
        }
        let want = single.current_rules().map(|v| single_node_body(&v, single.len()));
        // The first read and every warm read: the router parses each
        // worker's body, merges and re-renders.
        for _ in 0..=mix.warm {
            let mut views = Vec::new();
            for b in &bodies {
                let text = String::from_utf8_lossy(b);
                match tr.child("shard.merge.parse", op, || parse_rules_body(&text)) {
                    Ok(v) => views.push(v.rules),
                    Err(e) => report.fail(&e),
                }
            }
            let merged = tr.child("shard.merge.merge", op, || merge_rule_views(views));
            let got =
                tr.child("shard.merge.render", op, || single_node_body(&merged, WINDOW));
            report.check(
                want.as_ref().is_ok_and(|w| {
                    crate::daemon::rules_array(w) == crate::daemon::rules_array(&got)
                }),
                "merged replay differs from the single-node oracle",
            );
            counts.insert("serve.response_bytes.rules", got.len() as f64);
        }
        tr.end(op);
    }
    counts.insert(
        "core.window.tracked_rules",
        workers.iter().map(|w| w.tracked_rules() as f64).sum(),
    );
    counts.insert(
        "core.window.cyclic_rules",
        single.current_rules().map_or(0, |v| v.len()) as f64,
    );
    counts
}
