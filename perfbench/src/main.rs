//! The repository benchmark: batch miners, the single-worker write and
//! read paths, and the sharded router, each split into layers.
//!
//! ```text
//! car-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --car <path to the car binary> --out-dir <dir>
//! ```
//!
//! Untraced (`--trace 0`) runs print every end-to-end metric; traced
//! runs (`--trace 1`) replay the same seeded inputs through each layer's
//! public functions with a span around every call and print every
//! per-layer metric, the self time per layer and the tracing overhead.
//! The last line of standard output is one JSON object. `run.py` builds
//! the `car` binary and this package and runs it.

mod daemon;
mod data;
mod live;
mod mine;
mod replay;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::daemon::prometheus_value;
use crate::data::WINDOW;
use crate::live::Kind;
use crate::replay::Counts;
use crate::stats::{Report, Samples};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["mine-batch", "serve-ingest", "serve-query", "shard-ingest"];

/// Every per-layer metric, with its unit, in the order printed. A
/// traced run reports all of them; a layer its workload does not run
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("apriori.mine_ms", "ms"),
    ("apriori.rules_ms", "ms"),
    ("apriori.support_computations", "count"),
    ("cycles.detect_ms", "ms"),
    ("cycles.cycles_eliminated", "count"),
    ("core.sequential.phase1_ms", "ms"),
    ("core.sequential.phase2_ms", "ms"),
    ("core.interleaved.phase1_ms", "ms"),
    ("core.interleaved.phase2_ms", "ms"),
    ("core.interleaved.skipped_counts", "count"),
    ("core.interleaved.candidates_pruned", "count"),
    ("core.rules_checked", "count"),
    ("core.bitmap_builds", "count"),
    ("core.window.push_unit_ms", "ms"),
    ("core.window.assemble_view_ms", "ms"),
    ("core.window.query_escalated_ms", "ms"),
    ("core.window.tracked_rules", "count"),
    ("core.window.cyclic_rules", "count"),
    ("serve.json.parse_units_ms", "ms"),
    ("serve.json.render_rules_ms", "ms"),
    ("serve.http.read_request_ms", "ms"),
    ("serve.http.write_ms", "ms"),
    ("serve.routes.handle_ms.ingest", "ms"),
    ("serve.routes.handle_ms.rules_first", "ms"),
    ("serve.routes.handle_ms.rules", "ms"),
    ("serve.routes.handle_ms.items", "ms"),
    ("serve.routes.handle_ms.escalated", "ms"),
    ("serve.persist.wal_append_ms", "ms"),
    ("serve.persist.wal_bytes", "bytes"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.response_bytes.rules", "bytes"),
    ("serve.response_bytes.items", "bytes"),
    ("serve.response_bytes.escalated", "bytes"),
    ("shard.ring.split_ms", "ms"),
    ("shard.merge.parse_ms", "ms"),
    ("shard.merge.merge_ms", "ms"),
    ("shard.merge.render_ms", "ms"),
    ("shard.router.overhead_ms", "ms"),
    ("shard.fanout_legs", "count"),
    ("shard.fanout_failures", "count"),
    ("net.reconnects", "count"),
    ("trace.overhead_pct", "%"),
    ("scrape.car_mine_online_holds_total", "count"),
    ("scrape.car_mine_bitmap_builds_total", "count"),
    ("scrape.car_mine_support_computations_total", "count"),
    ("scrape.car_mine_detect_eliminations_total", "count"),
    ("scrape.car_query_cache_hits", "count"),
    ("scrape.car_query_cache_misses", "count"),
];

/// Span name → the per-layer metric that reports its median duration.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("apriori.mine", "apriori.mine_ms"),
    ("apriori.rules", "apriori.rules_ms"),
    ("cycles.detect", "cycles.detect_ms"),
    ("core.sequential.phase1", "core.sequential.phase1_ms"),
    ("core.sequential.phase2", "core.sequential.phase2_ms"),
    ("core.interleaved.phase1", "core.interleaved.phase1_ms"),
    ("core.interleaved.phase2", "core.interleaved.phase2_ms"),
    ("core.window.push_unit", "core.window.push_unit_ms"),
    ("core.window.assemble_view", "core.window.assemble_view_ms"),
    ("core.window.query_escalated", "core.window.query_escalated_ms"),
    ("serve.json.parse_units", "serve.json.parse_units_ms"),
    ("serve.json.render_rules", "serve.json.render_rules_ms"),
    ("serve.http.read_request", "serve.http.read_request_ms"),
    ("serve.http.write", "serve.http.write_ms"),
    ("serve.routes.handle.ingest", "serve.routes.handle_ms.ingest"),
    ("serve.routes.handle.rules_first", "serve.routes.handle_ms.rules_first"),
    ("serve.routes.handle.rules", "serve.routes.handle_ms.rules"),
    ("serve.routes.handle.items", "serve.routes.handle_ms.items"),
    ("serve.routes.handle.escalated", "serve.routes.handle_ms.escalated"),
    ("serve.persist.wal_append", "serve.persist.wal_append_ms"),
    ("shard.ring.split", "shard.ring.split_ms"),
    ("shard.merge.parse", "shard.merge.parse_ms"),
    ("shard.merge.merge", "shard.merge.merge_ms"),
    ("shard.merge.render", "shard.merge.render_ms"),
];

/// Set-ups per daemon run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One run's arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `car` binary the daemons run as.
    pub car: PathBuf,
    /// Where logs, data directories and traces go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A name unique to this run, for files in `out_dir`.
    pub fn label(&self) -> String {
        format!("{}-s{}-p{}", self.workload, self.seed, std::process::id())
    }
}

/// The per-layer metrics of one traced run.
pub struct PerLayer(BTreeMap<String, (f64, usize)>);

impl PerLayer {
    /// Median duration of every span that has a per-layer metric.
    pub fn from_tracer(tr: &Tracer) -> PerLayer {
        let mut out = PerLayer(BTreeMap::new());
        for (span, metric) in SPAN_METRICS {
            let d = tr.durations_ms(span);
            if d.len() > 0 {
                out.set(metric, d.p50(), d.len());
            }
        }
        out
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name.to_string(), (value, samples));
    }

    pub fn counts(&mut self, counts: &Counts) {
        for (name, value) in counts {
            self.set(name, *value, 1);
        }
    }

    /// Prints self times, writes the Chrome trace, and reports every
    /// per-layer metric.
    pub fn emit(self, ctx: &Ctx, tr: &Tracer, report: &mut Report) {
        tr.print_self_times();
        let path = ctx.out_dir.join(format!("trace-{}.json", ctx.label()));
        match std::fs::write(&path, tr.chrome_json(&ctx.label())) {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        for (name, unit) in PER_LAYER {
            match self.0.get(*name) {
                Some(&(value, n)) => report.metric(name, value, unit, n),
                None => {
                    println!("  (layer not run by {}: {name})", ctx.workload);
                    report.metric(name, 0.0, unit, 0);
                }
            }
        }
        for name in self.0.keys() {
            debug_assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "unlisted metric {name}"
            );
        }
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut get: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
        get.insert(name.to_string(), value);
    }
    let take =
        |name: &str| get.get(name).cloned().ok_or_else(|| format!("missing --{name}"));
    let known = ["workload", "seed", "seconds", "trace", "car", "out-dir"];
    if let Some(unknown) = get.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{unknown}"));
    }
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let num = |name: &str| -> Result<f64, String> {
        take(name)?.parse::<f64>().map_err(|_| format!("--{name} must be a number"))
    };
    let seed = take("seed")?
        .parse::<u64>()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds: num("seconds")?.max(0.1),
        trace,
        car: PathBuf::from(take("car")?),
        out_dir: PathBuf::from(take("out-dir")?),
    })
}

/// Traced runs send a fixed number of units, so their counts repeat
/// exactly for one seed.
fn trace_cycles(kind: Kind) -> usize {
    match kind {
        Kind::ServeIngest | Kind::ShardIngest => 32,
        Kind::ServeQuery => 12,
    }
}

/// One `/metrics` scrape per daemon: the front one, then the workers
/// (the single node is both).
fn scrape(cluster: &mut live::Cluster, report: &mut Report) -> Vec<String> {
    let mut addrs = vec![cluster.daemons[0].addr.clone()];
    if cluster.daemons.len() > 1 {
        addrs.extend(cluster.workers.iter().cloned());
    }
    addrs
        .iter()
        .map(|addr| {
            let text = daemon::Conn::new(addr).get_ok("/metrics").map(|r| r.body_text());
            report.check(text.is_ok(), "metrics scrape failed");
            text.unwrap_or_default()
        })
        .collect()
}

fn run_live(ctx: &Ctx, kind: Kind) -> Result<Report, String> {
    let mut stream = data::unit_stream();
    if kind == Kind::ShardIngest {
        stream = data::partition_pure(&stream);
    }
    let stream = data::relabel(stream, ctx.seed);
    let mut report = Report::default();
    let mut setups = Samples::default();
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut kept = None;
    for rep in 0..reps {
        let (cluster, secs) = live::setup(ctx, kind, rep, &stream[..WINDOW])?;
        setups.push(secs);
        if rep + 1 < reps {
            cluster.stop();
        } else {
            kept = Some(cluster);
        }
    }
    let mut cluster = kept.expect("at least one set-up");
    let mut tr = Tracer::new(ctx.trace);
    let (seconds, max_cycles) =
        if ctx.trace { (170.0, trace_cycles(kind)) } else { (ctx.seconds, usize::MAX) };
    let out = live::run_loop(
        &mut cluster,
        kind,
        &stream,
        seconds,
        max_cycles,
        &mut report,
        &mut tr,
    );
    live::check_against_oracle(kind, &stream, &out, &mut report);
    let rss = cluster.peak_rss_mb().unwrap_or(f64::NAN);
    let texts = scrape(&mut cluster, &mut report);
    cluster.stop();
    // The counters of the daemons that mine: every daemon but a router.
    let miners = if texts.len() > 1 { &texts[1..] } else { &texts[..] };
    let sum = |name: &str| miners.iter().map(|t| prometheus_value(t, name)).sum::<f64>();

    if !ctx.trace {
        let t = out.steady();
        let n = t.visible.len();
        report.metric("setup_s", setups.p50(), "s", setups.len());
        report.metric("peak_rss_mb", rss, "MB", 1);
        report.metric("visible_p50_ms", t.visible.p50(), "ms", n);
        report.metric("visible_p90_ms", t.visible.p90(), "ms", n);
        report.metric("units_per_s", t.cycles as f64 / t.secs, "1/s", t.cycles);
        Report::note("read_p50_ms", t.read.p50(), "ms", t.read.len());
        Report::note("ingest_p50_ms", t.ingest.p50(), "ms", t.ingest.len());
        Report::note("ingest_p90_ms", t.ingest.p90(), "ms", t.ingest.len());
        if t.items.len() > 0 {
            Report::note("items_p50_ms", t.items.p50(), "ms", t.items.len());
        }
        if t.escalated_miss.len() > 0 {
            let (miss, hit) = (&t.escalated_miss, &t.escalated_hit);
            Report::note("escalated_p50_ms", miss.p50(), "ms", miss.len());
            Report::note("escalated_p90_ms", miss.p90(), "ms", miss.len());
            Report::note("escalated_cached_p50_ms", hit.p50(), "ms", hit.len());
        }
        Report::note(
            "visible_p50_ms.all_cycles",
            out.all.visible.p50(),
            "ms",
            out.all.cycles,
        );
        Report::note(
            "steal_free_cycles",
            out.clean.cycles as f64,
            "count",
            out.all.cycles,
        );
        Report::note(
            "stale_first_reads",
            out.stale_reads as f64,
            "count",
            out.all.cycles,
        );
        Report::note("net.reconnects", out.reconnects as f64, "count", 1);
        return Ok(report);
    }

    // Traced run: the in-process replay of the same units and mix,
    // untraced and then traced, gives the layer times and the overhead.
    let dir = ctx.out_dir.join(format!("{}-replay", ctx.label()));
    let cycles = out.all.cycles;
    let replay = |tr: &mut Tracer, report: &mut Report| -> (Counts, f64) {
        let t = std::time::Instant::now();
        let counts = match kind {
            Kind::ShardIngest => replay::shard(&stream, cycles, tr, report),
            _ => replay::serve(kind, &stream, cycles, &dir, tr, report),
        };
        (counts, t.elapsed().as_secs_f64())
    };
    let (_, off) = replay(&mut Tracer::new(false), &mut report);
    let (counts, on) = replay(&mut tr, &mut report);
    let mut layer = PerLayer::from_tracer(&tr);
    layer.counts(&counts);
    layer.set("trace.overhead_pct", (on - off) / off * 100.0, 1);
    layer.set("net.reconnects", out.reconnects as f64, 1);
    if out.router_overhead.len() > 0 {
        layer.set(
            "shard.router.overhead_ms",
            out.router_overhead.p50(),
            out.router_overhead.len(),
        );
        layer.set(
            "shard.fanout_legs",
            prometheus_value(&texts[0], "car_shard_fanout_total"),
            1,
        );
        layer.set(
            "shard.fanout_failures",
            prometheus_value(&texts[0], "car_shard_fanout_failures_total"),
            1,
        );
    }
    let (hits, misses) = (sum("car_query_cache_hits"), sum("car_query_cache_misses"));
    layer.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0), 1);
    for name in [
        "car_mine_online_holds_total",
        "car_mine_bitmap_builds_total",
        "car_mine_support_computations_total",
        "car_mine_detect_eliminations_total",
        "car_query_cache_hits",
        "car_query_cache_misses",
    ] {
        layer.set(&format!("scrape.{name}"), sum(name), 1);
    }
    if kind == Kind::ServeIngest {
        let scraped = sum("car_wal_bytes_total");
        report.check(
            counts.get("serve.persist.wal_bytes") == Some(&scraped),
            "daemon WAL bytes differ from the replayed Wal::append_batch bytes",
        );
    }
    layer.emit(ctx, &tr, &mut report);
    Ok(report)
}

fn run(ctx: &Ctx) -> Result<Report, String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace
    );
    match ctx.workload.as_str() {
        "mine-batch" => Ok(mine::run(ctx)),
        "serve-ingest" => run_live(ctx, Kind::ServeIngest),
        "serve-query" => run_live(ctx, Kind::ServeQuery),
        "shard-ingest" => run_live(ctx, Kind::ShardIngest),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("car-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&ctx) {
        Ok(report) => {
            println!(
                "attempted {} failed {} failed_ratio {:.6}",
                report.attempted,
                report.failed,
                report.failed as f64 / report.attempted.max(1) as f64
            );
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("car-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
