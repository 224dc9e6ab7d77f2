//! The daemon workloads over HTTP: boot and warm the real `car serve` /
//! `car shard` processes, then run the closed client loop against them.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use car_core::window::SlidingWindowMiner;
use car_core::{CyclicRule, MinConfidence};
use car_serve::json::{object, Json};
use car_serve::routes::rule_to_json;

use crate::daemon::{epoch_of, rules_array, Conn, Daemon};
use crate::data::{self, Unit, SHARDS, WINDOW};
use crate::stats::{peak_rss_mb, Report, Samples, StealGate};
use crate::trace::Tracer;
use crate::Ctx;

/// The three daemon workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One durable `car serve`; ingest then one first and one warm read.
    ServeIngest,
    /// One memory-only `car serve`; ingest then a read-heavy mix.
    ServeQuery,
    /// `car shard` in front of two attached `car serve` workers.
    ShardIngest,
}

/// Threads of every daemon's request pool (`--threads`).
const THREADS: &str = "2";
/// Units per prefill request.
pub const PREFILL_BATCH: usize = 16;

/// The reads that follow each ingested unit.
pub struct Mix {
    /// Warm `GET /v1/rules` reads after the first one.
    pub warm: usize,
    /// `GET /v1/items` reads.
    pub items: usize,
    /// `GET /v1/rules?min_confidence=q` reads, in order.
    pub escalated: &'static [&'static str],
}

impl Kind {
    pub fn mix(self) -> Mix {
        match self {
            Kind::ServeIngest => Mix { warm: 1, items: 0, escalated: &[] },
            Kind::ServeQuery => {
                Mix { warm: 50, items: 2, escalated: &["0.7", "0.8", "0.7", "0.8"] }
            }
            Kind::ShardIngest => Mix { warm: 4, items: 0, escalated: &[] },
        }
    }

    fn durable(self) -> bool {
        self == Kind::ServeIngest
    }
}

/// Running daemons: the front one (router or single node) first.
pub struct Cluster {
    pub daemons: Vec<Daemon>,
    /// Worker addresses (the single node itself outside the shard
    /// workload).
    pub workers: Vec<String>,
    pub front: Conn,
    /// The single node's data directory, removed once it has stopped.
    data_dir: Option<PathBuf>,
}

impl Cluster {
    /// Stops the router first, so no pooled connection keeps a worker's
    /// graceful drain waiting; the benchmark's own connection closes
    /// before any of them.
    pub fn stop(self) {
        drop(self.front);
        for d in self.daemons {
            d.stop();
        }
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Summed peak RSS of every daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        self.daemons.iter().map(|d| peak_rss_mb(d.pid())).sum()
    }
}

/// `car serve` on a free port with the workload's flags plus `extra`.
fn serve_args(extra: &[String]) -> Vec<String> {
    let mut args: Vec<String> =
        ["serve", "--host", "127.0.0.1", "--port", "0", "--threads", THREADS]
            .iter()
            .map(|s| s.to_string())
            .collect();
    args.extend(data::mining_flags());
    args.extend(extra.iter().cloned());
    args
}

/// Starts the workload's daemons, checks their configuration, prefills
/// the window and warms every connection. Returns the cluster and the
/// seconds all of that took.
pub fn setup(
    ctx: &Ctx,
    kind: Kind,
    rep: usize,
    prefill: &[Unit],
) -> Result<(Cluster, f64), String> {
    let start = Instant::now();
    let tag = format!("{}-{}", ctx.label(), rep);
    let log = |name: &str| ctx.out_dir.join(format!("{tag}-{name}.log"));
    let io = |e: std::io::Error| e.to_string();
    let mut daemons = Vec::new();
    let mut workers = Vec::new();
    let mut data_dir = None;
    match kind {
        Kind::ServeIngest | Kind::ServeQuery => {
            let mut extra = Vec::new();
            if kind.durable() {
                let dir: PathBuf = ctx.out_dir.join(format!("{tag}-data"));
                let _ = std::fs::remove_dir_all(&dir);
                extra.extend(["--data-dir".to_string(), dir.display().to_string()]);
                extra.extend(["--fsync".to_string(), "never".to_string()]);
                data_dir = Some(dir);
            }
            let d = Daemon::start(&ctx.car, &serve_args(&extra), &log("serve"))
                .map_err(io)?;
            workers.push(d.addr.clone());
            daemons.push(d);
        }
        Kind::ShardIngest => {
            for id in 0..SHARDS {
                let extra = vec![
                    "--shard-id".to_string(),
                    id.to_string(),
                    "--shard-count".to_string(),
                    SHARDS.to_string(),
                ];
                let d = Daemon::start(
                    &ctx.car,
                    &serve_args(&extra),
                    &log(&format!("worker{id}")),
                )
                .map_err(io)?;
                workers.push(d.addr.clone());
                daemons.push(d);
            }
            let args: Vec<String> = [
                "shard",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--threads",
                THREADS,
                "--workers",
                &workers.join(","),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let router = Daemon::start(&ctx.car, &args, &log("router")).map_err(io)?;
            daemons.insert(0, router);
        }
    }
    let front = Conn::new(&daemons[0].addr);
    let mut cluster = Cluster { daemons, workers, front, data_dir };

    check_health(&mut cluster, kind, false)?;
    // A single node answers a batch with 202, the router with 200 once
    // every worker applied it; both report `applied`. Batches stay well
    // under the daemons' 1 MiB body limit.
    let want = if kind == Kind::ShardIngest { 200 } else { 202 };
    for batch in prefill.chunks(PREFILL_BATCH) {
        let resp = cluster.front.post_ok(
            "/v1/units?wait=true",
            &data::batch_body(batch),
            want,
        )?;
        if !resp.body_text().contains("\"applied\":true") {
            return Err(format!("prefill batch was not applied: {}", resp.body_text()));
        }
    }
    check_health(&mut cluster, kind, true)?;
    // Untimed reads: open the router's worker connections and fill the
    // view, so the timed loop starts warm.
    for _ in 0..3 {
        cluster.front.get_ok("/v1/rules")?;
    }
    Ok((cluster, start.elapsed().as_secs_f64()))
}

/// Fails unless every daemon reports the configuration the benchmark
/// asked for: the CLI ignores unknown flags, so a typo would otherwise
/// benchmark a different program. `filled` selects the post-prefill
/// checks.
fn check_health(cluster: &mut Cluster, kind: Kind, filled: bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    let field =
        |doc: &Json, key: &str| doc.get(key).map(Json::render).unwrap_or_default();
    let shard_count =
        if kind == Kind::ShardIngest { SHARDS.to_string() } else { "null".into() };
    for (i, addr) in cluster.workers.iter().enumerate() {
        let mut conn = Conn::new(addr);
        loop {
            let doc = conn.get_json("/v1/health")?;
            let ready = field(&doc, "ready") == "true";
            let config_ok = field(&doc, "window") == WINDOW.to_string()
                && field(&doc, "shard_count") == shard_count
                && (kind != Kind::ShardIngest
                    || field(&doc, "shard_id") == i.to_string());
            if !config_ok {
                return Err(format!(
                    "daemon {addr} runs another configuration: {}",
                    doc.render()
                ));
            }
            let warm_ok = field(&doc, "warming_up") == (!filled).to_string()
                && (!filled || field(&doc, "units_retained") == WINDOW.to_string());
            if ready && warm_ok {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("daemon {addr} not ready: {}", doc.render()));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    if kind == Kind::ShardIngest {
        let doc = cluster.front.get_json("/v1/health")?;
        let ok = field(&doc, "role") == "\"router\""
            && field(&doc, "shard_count") == SHARDS.to_string()
            && field(&doc, "ready") == "true"
            && field(&doc, "degraded_shards") == "0";
        if !ok {
            return Err(format!("router runs another configuration: {}", doc.render()));
        }
    }
    Ok(())
}

/// Latencies of the closed loop, in milliseconds, and the cycles and
/// seconds they cover.
#[derive(Default)]
pub struct Timings {
    pub ingest: Samples,
    pub visible: Samples,
    pub read: Samples,
    pub items: Samples,
    /// Escalated reads that re-detect (the first per threshold and unit).
    pub escalated_miss: Samples,
    /// Escalated reads the query cache answers.
    pub escalated_hit: Samples,
    pub cycles: usize,
    pub secs: f64,
}

impl Timings {
    fn absorb(&mut self, other: &Timings) {
        self.ingest.extend(&other.ingest);
        self.visible.extend(&other.visible);
        self.read.extend(&other.read);
        self.items.extend(&other.items);
        self.escalated_miss.extend(&other.escalated_miss);
        self.escalated_hit.extend(&other.escalated_hit);
        self.cycles += other.cycles;
        self.secs += other.secs;
    }
}

/// Everything the closed loop measured and the outputs it keeps for
/// the oracle check.
#[derive(Default)]
pub struct LoopOut {
    /// Every cycle.
    pub all: Timings,
    /// The cycles the host stole no CPU time during (see [`StealGate`]).
    pub clean: Timings,
    /// Router read time minus the slowest direct worker read of the
    /// same query (shard workload, traced run only).
    pub router_overhead: Samples,
    pub stale_reads: u64,
    /// Stream indices of the units sent, prefill included.
    pub sent: Vec<usize>,
    pub last_first_body: Vec<u8>,
    pub last_escalated: Vec<(&'static str, Vec<u8>)>,
    pub reconnects: u64,
}

impl LoopOut {
    /// The timings the metrics are taken from: the clean cycles when at
    /// least half of them were clean, otherwise every cycle.
    pub fn steady(&self) -> &Timings {
        if self.clean.cycles * 2 >= self.all.cycles {
            &self.clean
        } else {
            &self.all
        }
    }
}

/// The expected epoch after `pushed` units, as the read reports it.
fn reflects(kind: Kind, resp: &car_serve::client::ClientResponse, pushed: u64) -> bool {
    match kind {
        Kind::ShardIngest => {
            let body = &resp.body;
            let want_min = format!("\"epoch_min\":{pushed},");
            let want_max = format!("\"epoch_max\":{pushed},");
            let has = |w: &str| body.windows(w.len()).any(|x| x == w.as_bytes());
            has(&want_min) && has(&want_max)
        }
        _ => epoch_of(resp) == Some(pushed),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The closed loop: one connection sends a unit and waits for its ack,
/// reads until the rules reflect it, then runs the read mix. Stops after
/// `max_cycles` units or `seconds`, whichever comes first.
pub fn run_loop(
    cluster: &mut Cluster,
    kind: Kind,
    stream: &[Unit],
    seconds: f64,
    max_cycles: usize,
    report: &mut Report,
    tr: &mut Tracer,
) -> LoopOut {
    let mix = kind.mix();
    let mut out = LoopOut { sent: (0..WINDOW).collect(), ..LoopOut::default() };
    let mut direct: Vec<Conn> = if tr.enabled() && kind == Kind::ShardIngest {
        cluster.workers.iter().map(|a| Conn::new(a)).collect()
    } else {
        Vec::new()
    };
    let bodies: Vec<Vec<u8>> = stream.iter().map(|u| data::unit_body(u)).collect();
    let started = Instant::now();
    let mut gate = StealGate::new();
    while out.all.cycles < max_cycles && started.elapsed().as_secs_f64() < seconds {
        let n = out.all.cycles;
        let idx = WINDOW + n % (stream.len() - WINDOW);
        let pushed = (WINDOW + n + 1) as u64;
        out.sent.push(idx);
        let op = tr.begin_op("op.cycle");
        let mut c = Timings { cycles: 1, ..Timings::default() };

        let t0 = Instant::now();
        let ok = cluster.front.post_ok("/v1/units?wait=true", &bodies[idx], 200);
        let ingest = t0.elapsed();
        tr.record("net.ingest", op, t0, ingest);
        c.ingest.push(ms(ingest));
        if let Err(e) = &ok {
            report.fail(e);
        } else {
            report.op(true);
        }

        // The first read that reflects the unit ends its visible time.
        let mut first = None;
        for _ in 0..100 {
            let t = Instant::now();
            let resp = cluster.front.get_ok("/v1/rules");
            tr.record("net.rules_first", op, t, t.elapsed());
            match resp {
                Ok(r) if reflects(kind, &r, pushed) => {
                    report.op(true);
                    first = Some(r.body);
                    break;
                }
                Ok(_) => {
                    report.op(true);
                    out.stale_reads += 1;
                }
                Err(e) => {
                    report.fail(&e);
                    break;
                }
            }
        }
        c.visible.push(ms(t0.elapsed()));
        if first.is_none() {
            report.fail("no read reflected the ingested unit");
        }
        let first = first.unwrap_or_default();

        for _ in 0..mix.warm {
            let t = Instant::now();
            let resp = cluster.front.get_ok("/v1/rules");
            let routed = t.elapsed();
            tr.record("net.rules", op, t, routed);
            c.read.push(ms(routed));
            match resp {
                Ok(r) => {
                    report.check(r.body == first, "warm read differs from the first read")
                }
                Err(e) => report.fail(&e),
            }
            if !direct.is_empty() {
                let mut slowest = 0.0f64;
                for conn in &mut direct {
                    let t = Instant::now();
                    let resp = conn.get_ok("/v1/rules");
                    let d = t.elapsed();
                    tr.record("net.worker_rules", op, t, d);
                    report.check(resp.is_ok(), "direct worker read failed");
                    slowest = slowest.max(ms(d));
                }
                out.router_overhead.push(ms(routed) - slowest);
            }
        }
        for _ in 0..mix.items {
            let t = Instant::now();
            let resp = cluster.front.get_ok("/v1/items");
            let d = t.elapsed();
            tr.record("net.items", op, t, d);
            c.items.push(ms(d));
            report.check(resp.is_ok(), "items read failed");
        }
        let mut seen: Vec<&str> = Vec::new();
        let mut escalated = Vec::new();
        for &q in mix.escalated {
            let target = format!("/v1/rules?min_confidence={q}");
            let t = Instant::now();
            let resp = cluster.front.get_ok(&target);
            let d = t.elapsed();
            tr.record("net.escalated", op, t, d);
            if seen.contains(&q) {
                c.escalated_hit.push(ms(d));
            } else {
                seen.push(q);
                c.escalated_miss.push(ms(d));
            }
            match resp {
                Ok(r) => escalated.push((q, r.body)),
                Err(e) => report.fail(&e),
            }
        }
        tr.end(op);
        let wall = t0.elapsed();
        c.secs = wall.as_secs_f64();
        if gate.clean(wall) {
            out.clean.absorb(&c);
        }
        out.all.absorb(&c);
        out.last_first_body = first;
        out.last_escalated = escalated;
    }
    out.reconnects =
        cluster.front.reconnects() + direct.iter().map(Conn::reconnects).sum::<u64>();
    out
}

/// `GET /v1/rules` body a single node renders for `rules`.
pub fn single_node_body(rules: &[CyclicRule], retained: usize) -> Vec<u8> {
    let rendered: Vec<Json> =
        rules.iter().filter_map(|r| rule_to_json(r, None, None)).collect();
    object([
        ("units_retained", Json::from(retained)),
        ("window", Json::from(WINDOW)),
        ("count", Json::from(rendered.len())),
        ("rules", Json::Array(rendered)),
    ])
    .render()
    .into_bytes()
}

/// Compares the loop's last bodies with a `SlidingWindowMiner` fed the
/// last `WINDOW` units sent.
pub fn check_against_oracle(
    kind: Kind,
    stream: &[Unit],
    out: &LoopOut,
    report: &mut Report,
) {
    let mut oracle = SlidingWindowMiner::new(data::mining_config(), WINDOW)
        .expect("window fits l_max");
    for &i in out.sent.iter().rev().take(WINDOW).rev() {
        oracle.push_unit(&stream[i]);
    }
    let Ok(rules) = oracle.current_rules() else {
        report.fail("oracle window is warming up");
        return;
    };
    let want = single_node_body(&rules, oracle.len());
    match kind {
        Kind::ShardIngest => {
            let body = &out.last_first_body;
            let has = |w: &str| body.windows(w.len()).any(|x| x == w.as_bytes());
            report.check(
                rules_array(body) == rules_array(&want),
                "merged rules differ from the single-node oracle",
            );
            report.check(
                has("\"partial\":false") && has("\"degraded\":[]"),
                "router answered partial or degraded",
            );
        }
        _ => report
            .check(out.last_first_body == want, "rules body differs from the oracle"),
    }
    for (q, body) in &out.last_escalated {
        let q = q.parse().ok().and_then(MinConfidence::new).expect("valid confidence");
        let want =
            oracle.query_rules(Some(q)).map(|r| single_node_body(&r, oracle.len()));
        report.check(
            want.as_ref() == Ok(body),
            "escalated body differs from the oracle's query_rules",
        );
    }
}
